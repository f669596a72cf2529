"""Sealing simulation: platforms, measurement, key derivation, the sealed-blob
format (pinned byte by byte in `TestBlobFormat::test_golden_layout`),
policies and tamper detection."""

import hashlib
import random
import struct

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sealvault import tee
from sealvault.errors import (
    AuthenticationFailure,
    MalformedBlob,
    PayloadTooLarge,
    SvnViolation,
)

MRENCLAVE = tee.SealingPolicy.MRENCLAVE
MRSIGNER = tee.SealingPolicy.MRSIGNER

# SHA-256 of the empty string, from an independent published constant
SHA256_EMPTY = bytes.fromhex(
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)


class TestCreatePlatform:
    def test_deterministic(self):
        seed = b"\x42" * 32
        assert tee.create_platform(seed) == tee.create_platform(seed)

    def test_distinct_seeds_distinct_keys(self):
        a = tee.create_platform(b"\x01" * 32)
        b = tee.create_platform(b"\x02" * 32)
        assert a.platform_key != b.platform_key
        assert a.platform_id != b.platform_id

    def test_zero_seed_matches_keyed_digest_oracle(self):
        p = tee.create_platform(bytes(32))
        assert p.platform_key == oracles.hmac_sha256(bytes(32), b"SVPLATFORMv1/key")
        assert p.cpu_svn == oracles.hmac_sha256(bytes(32), b"SVPLATFORMv1/cpu-svn")[:16]
        assert p.platform_id == oracles.hmac_sha256(bytes(32), b"SVPLATFORMv1/id")[:16]
        assert p.platform_key != bytes(32)

    def test_field_sizes(self, platform):
        assert len(platform.platform_key) == 32
        assert len(platform.cpu_svn) == 16
        assert len(platform.platform_id) == 16

    def test_rejects_wrong_seed_size(self):
        with pytest.raises(ValueError):
            tee.create_platform(b"short")

    def test_repr_hides_root_secret(self, platform):
        assert platform.platform_key.hex() not in repr(platform)


class TestMeasureEnclave:
    def test_same_blob_equal_measurement(self):
        a = tee.measure_enclave(b"code", b"sig", 1, 1)
        b = tee.measure_enclave(b"code", b"sig", 1, 1)
        assert a.measurement == b.measurement
        assert a == b

    def test_bit_flip_changes_measurement(self):
        base = tee.measure_enclave(b"code", b"sig", 1, 1)
        flipped = tee.measure_enclave(b"codf", b"sig", 1, 1)
        assert base.measurement != flipped.measurement

    def test_empty_blob_measurement_is_empty_digest(self):
        e = tee.measure_enclave(b"", b"", 0, 0)
        assert e.measurement == SHA256_EMPTY
        assert e.signer == SHA256_EMPTY


class TestDeriveSealingKey:
    def test_deterministic(self, platform, enclave):
        args = (platform, enclave, MRENCLAVE, b"\x05" * 32, 1, b"\x06" * 16)
        assert tee.derive_sealing_key(*args) == tee.derive_sealing_key(*args)
        assert len(tee.derive_sealing_key(*args)) == 16

    def test_mrsigner_excludes_measurement(self, platform):
        a = tee.measure_enclave(b"build one", b"same signer", 9, 2)
        b = tee.measure_enclave(b"build two", b"same signer", 9, 2)
        assert a.measurement != b.measurement
        key_id = b"\x07" * 32
        ka = tee.derive_sealing_key(platform, a, MRSIGNER, key_id, 1, platform.cpu_svn)
        kb = tee.derive_sealing_key(platform, b, MRSIGNER, key_id, 1, platform.cpu_svn)
        assert ka == kb
        # but MRENCLAVE keys differ
        ea = tee.derive_sealing_key(platform, a, MRENCLAVE, key_id, 1, platform.cpu_svn)
        eb = tee.derive_sealing_key(platform, b, MRENCLAVE, key_id, 1, platform.cpu_svn)
        assert ea != eb

    def test_fixed_vector_against_cmac_oracle(self):
        platform = tee.create_platform(bytes(32))
        enclave = tee.measure_enclave(b"", b"", 0, 0)
        key = tee.derive_sealing_key(platform, enclave, MRENCLAVE, bytes(32), 0, bytes(16))
        message = (
            b"SEALKEYv1"
            + struct.pack("<H", 1)
            + bytes(32)
            + struct.pack("<H", 0)
            + bytes(16)
            + SHA256_EMPTY
        )
        assert key == oracles.aes_cmac(platform.platform_key, message)

    def test_mrsigner_serialization_against_oracle(self, platform):
        enclave = tee.measure_enclave(b"blob", b"owner", 513, 4)
        key_id = b"\x99" * 32
        key = tee.derive_sealing_key(platform, enclave, MRSIGNER, key_id, 2, b"\x01" * 16)
        message = (
            b"SEALKEYv1"
            + struct.pack("<H", 2)
            + key_id
            + struct.pack("<H", 2)
            + b"\x01" * 16
            + enclave.signer
            + struct.pack("<H", 513)
        )
        assert key == oracles.aes_cmac(platform.platform_key, message)

    def test_keyed_cmac_cache_matches_oracle(self, enclave, monkeypatch):
        """Each platform's CMAC is keyed once and copied per call; across
        more platforms than the cache holds, every key still matches."""
        monkeypatch.setattr(tee, "_PLATFORM_CMAC_CACHE", 3)
        monkeypatch.setattr(tee, "_platform_cmacs", {})
        platforms = [tee.create_platform(bytes([i]) * 32) for i in range(8)]
        for key_id in (b"\x05" * 32, b"\x06" * 32):
            for plat in platforms + platforms[::-1]:
                key = tee.derive_sealing_key(plat, enclave, MRENCLAVE, key_id, 1, plat.cpu_svn)
                message = (b"SEALKEYv1" + struct.pack("<H", 1) + key_id
                           + struct.pack("<H", 1) + plat.cpu_svn + enclave.measurement)
                assert key == oracles.aes_cmac(plat.platform_key, message)
                assert len(tee._platform_cmacs) <= 3

    def test_svn_gate(self, platform, enclave):
        with pytest.raises(SvnViolation):
            tee.derive_sealing_key(
                platform, enclave, MRENCLAVE, bytes(32), enclave.isv_svn + 1, bytes(16)
            )


class TestSealUnseal:
    def test_overhead_exact(self, platform, enclave):
        blob = tee.seal(platform, enclave, MRENCLAVE, b"\x00" * 32768, b"")
        assert len(blob.to_bytes()) == 33328

    def test_empty_payload_is_bare_header(self, platform, enclave):
        blob = tee.seal(platform, enclave, MRENCLAVE, b"", b"")
        assert len(blob.to_bytes()) == 560
        assert tee.unseal(platform, enclave, blob) == b""

    @given(st.integers(min_value=0, max_value=32768))
    @settings(max_examples=60, deadline=None)
    def test_size_law_property(self, size):
        platform = tee.create_platform(b"\x33" * 32)
        enclave = tee.measure_enclave(b"c", b"s", 1, 1)
        blob = tee.seal(platform, enclave, MRENCLAVE, bytes(size))
        assert len(blob.to_bytes()) == 560 + size

    def test_fresh_randomness(self, platform, enclave):
        a = tee.seal(platform, enclave, MRENCLAVE, b"same payload")
        b = tee.seal(platform, enclave, MRENCLAVE, b"same payload")
        assert a.key_id != b.key_id
        assert a.iv != b.iv
        assert a.ciphertext != b.ciphertext

    @pytest.mark.parametrize("size", [0, 1, 31, 32768, 32769, 10**6])
    def test_roundtrip_sizes(self, platform, enclave, size):
        rng = random.Random(size)
        payload = rng.randbytes(size)
        aad = rng.randbytes(rng.randrange(0, 64))
        blob = tee.seal(platform, enclave, MRENCLAVE, payload, aad)
        assert tee.unseal(platform, enclave, blob, aad) == payload
        # and through the wire format
        assert tee.unseal(platform, enclave, blob.to_bytes(), aad) == payload

    def test_roundtrip_random_cases_up_to_1mib(self, platform, enclave):
        rng = random.Random(7)
        for _ in range(8):
            payload = rng.randbytes(rng.randrange(0, 1 << 20))
            aad = rng.randbytes(8)
            blob = tee.seal(platform, enclave, MRSIGNER, payload, aad)
            assert tee.unseal(platform, enclave, blob, aad) == payload

    @pytest.mark.parametrize("size", [0, 1, 4096])
    def test_into_buffers(self, platform, enclave, size):
        payload = random.Random(size).randbytes(size)
        out = bytearray(b"\xee" * (tee.HEADER_SIZE + size + tee.SEAL_SLACK + 8))
        end = tee.seal_into(platform, enclave, MRENCLAVE, payload, b"aad", out)
        assert end == tee.HEADER_SIZE + size
        assert out[end + tee.SEAL_SLACK:] == b"\xee" * 8  # nothing written past the slack
        blob = bytes(out[:end])
        assert tee.unseal(platform, enclave, tee.SealedBlob.from_bytes(blob), b"aad") == payload
        clear = bytearray(size)
        assert tee.unseal_into(platform, enclave, memoryview(out)[:end], b"aad", clear) == size
        assert clear == payload
        with pytest.raises(ValueError):
            tee.unseal_into(platform, enclave, blob, b"aad", bytearray(size + 1))

    def test_wrong_platform_fails(self, platform, other_platform, enclave):
        blob = tee.seal(platform, enclave, MRENCLAVE, b"bound")
        with pytest.raises(AuthenticationFailure):
            tee.unseal(other_platform, enclave, blob)

    def test_wrong_aad_fails(self, platform, enclave):
        blob = tee.seal(platform, enclave, MRENCLAVE, b"x", b"right")
        with pytest.raises(AuthenticationFailure):
            tee.unseal(platform, enclave, blob, b"wrong")

    def test_policy_matrix(self, platform):
        sealer = tee.measure_enclave(b"one", b"team", 3, 1)
        sibling = tee.measure_enclave(b"two", b"team", 3, 1)  # same signer+product
        stranger = tee.measure_enclave(b"two", b"other team", 3, 1)
        by_code = tee.seal(platform, sealer, MRENCLAVE, b"secret")
        by_signer = tee.seal(platform, sealer, MRSIGNER, b"shared")
        # MRENCLAVE: only the identical measurement unseals
        assert tee.unseal(platform, sealer, by_code) == b"secret"
        with pytest.raises(AuthenticationFailure):
            tee.unseal(platform, sibling, by_code)
        # MRSIGNER: siblings unseal, strangers do not
        assert tee.unseal(platform, sibling, by_signer) == b"shared"
        with pytest.raises(AuthenticationFailure):
            tee.unseal(platform, stranger, by_signer)

    def test_mrsigner_product_id_separates(self, platform):
        sealer = tee.measure_enclave(b"one", b"team", 3, 1)
        other_product = tee.measure_enclave(b"one", b"team", 4, 1)
        blob = tee.seal(platform, sealer, MRSIGNER, b"p3 only")
        with pytest.raises(AuthenticationFailure):
            tee.unseal(platform, other_product, blob)

    def test_svn_monotonicity(self, platform):
        v1 = tee.measure_enclave(b"code", b"sig", 1, 1)
        v2 = tee.measure_enclave(b"code", b"sig", 1, 2)
        old_blob = tee.seal(platform, v1, MRENCLAVE, b"old data")
        assert tee.unseal(platform, v2, old_blob) == b"old data"
        new_blob = tee.seal(platform, v2, MRENCLAVE, b"new data")
        with pytest.raises(SvnViolation):
            tee.unseal(platform, v1, new_blob)

    def test_payload_too_large_guard(self, platform, enclave):
        class FakePayload(bytes):
            def __len__(self):
                return 2**32 - 560

        with pytest.raises(PayloadTooLarge):
            tee.seal(platform, enclave, MRENCLAVE, FakePayload())


class TestTamperDetection:
    def test_random_bit_flip_sweep(self, platform, enclave):
        payload = random.Random(99).randbytes(4096)
        blob = tee.seal(platform, enclave, MRENCLAVE, payload, b"aad").to_bytes()
        rng = random.Random(1234)
        positions = rng.sample(range(len(blob) * 8), 250)
        for bitpos in positions:
            tampered = bytearray(blob)
            tampered[bitpos // 8] ^= 1 << (bitpos % 8)
            with pytest.raises((AuthenticationFailure, MalformedBlob, SvnViolation)):
                tee.unseal(platform, enclave, bytes(tampered), b"aad")

    def test_every_header_field_flip_fails(self, platform, enclave):
        blob = tee.seal(platform, enclave, MRENCLAVE, b"field sweep", b"").to_bytes()
        # one flip inside each header region, reserved ranges included
        for offset in [0, 4, 8, 10, 12, 28, 60, 92, 124, 126, 128, 132, 136, 300,
                       531, 532, 544, 560]:
            tampered = bytearray(blob)
            tampered[offset] ^= 0x01
            with pytest.raises((AuthenticationFailure, MalformedBlob, SvnViolation)):
                tee.unseal(platform, enclave, bytes(tampered))

    def test_truncation_fails(self, platform, enclave):
        blob = tee.seal(platform, enclave, MRENCLAVE, b"0123456789").to_bytes()
        for cut in (1, 5, 10):
            with pytest.raises(MalformedBlob):
                tee.unseal(platform, enclave, blob[:-cut])
        with pytest.raises(MalformedBlob):
            tee.unseal(platform, enclave, blob[:100])


class TestBlobFormat:
    @pytest.mark.parametrize("policy", [MRENCLAVE, MRSIGNER], ids=["mrenclave", "mrsigner"])
    def test_golden_layout(self, platform, enclave, policy, monkeypatch):
        """Every header field at its README offset, and the IV, tag and
        ciphertext recomputed under an independent sealing-key derivation."""
        key_id = bytes(range(32))
        iv = bytes(range(0xA0, 0xAC))
        monkeypatch.setattr(tee.os, "urandom", {32: key_id, 12: iv}.__getitem__)
        payload, aad = b"golden sealed payload", b"caller aad"
        raw = tee.seal(platform, enclave, policy, payload, aad).to_bytes()

        measurement = hashlib.sha256(b"test enclave code blob").digest()
        signer = hashlib.sha256(b"test signer").digest()
        prefix = (
            b"SSB1"                                # [  0..  4) magic
            + struct.pack("<I", 1)                 # [  4..  8) format version
            + struct.pack("<H", int(policy))       # [  8.. 10) policy
            + struct.pack("<H", 3)                 # [ 10.. 12) isv_svn
            + platform.cpu_svn                     # [ 12.. 28) cpu_svn
            + key_id                               # [ 28.. 60) key id
            + measurement                          # [ 60.. 92) measurement
            + signer                               # [ 92..124) signer digest
            + struct.pack("<H", 7)                 # [124..126) product id
            + bytes(2)                             # [126..128) reserved
            + struct.pack("<I", len(payload))      # [128..132) payload length
            + bytes(4)                             # [132..136) aad length
            + bytes(396)                           # [136..532) reserved
        )
        assert len(prefix) == 532
        assert len(raw) == 560 + len(payload)
        assert raw[:532] == prefix
        assert raw[532:544] == iv

        identity = measurement if policy is MRENCLAVE else signer + struct.pack("<H", 7)
        key = oracles.aes_cmac(
            platform.platform_key,
            b"SEALKEYv1" + struct.pack("<H", int(policy)) + key_id
            + struct.pack("<H", 3) + platform.cpu_svn + identity,
        )
        sealed = AESGCM(key).encrypt(iv, payload, prefix + aad)
        assert raw[544:560] == sealed[-16:]
        assert raw[560:] == sealed[:-16]
        assert tee.SealedBlob.from_bytes(raw).to_bytes() == raw

    def test_parse_serialize_identity(self, platform, enclave):
        blob = tee.seal(platform, enclave, MRSIGNER, b"payload bytes", b"")
        raw = blob.to_bytes()
        assert tee.SealedBlob.from_bytes(raw).to_bytes() == raw

    def test_rejects_bad_magic(self, platform, enclave):
        raw = bytearray(tee.seal(platform, enclave, MRENCLAVE, b"x").to_bytes())
        raw[:4] = b"NOPE"
        with pytest.raises(MalformedBlob):
            tee.SealedBlob.from_bytes(bytes(raw))

    def test_rejects_bad_version(self, platform, enclave):
        raw = bytearray(tee.seal(platform, enclave, MRENCLAVE, b"x").to_bytes())
        raw[4] = 9
        with pytest.raises(MalformedBlob):
            tee.SealedBlob.from_bytes(bytes(raw))

    def test_rejects_unknown_policy(self, platform, enclave):
        raw = bytearray(tee.seal(platform, enclave, MRENCLAVE, b"x").to_bytes())
        raw[8] = 7
        with pytest.raises(MalformedBlob):
            tee.SealedBlob.from_bytes(bytes(raw))

    def test_rejects_nonzero_reserved(self, platform, enclave):
        raw = bytearray(tee.seal(platform, enclave, MRENCLAVE, b"x").to_bytes())
        raw[200] = 1
        with pytest.raises(MalformedBlob):
            tee.SealedBlob.from_bytes(bytes(raw))

    def test_rejects_size_mismatch(self, platform, enclave):
        raw = tee.seal(platform, enclave, MRENCLAVE, b"abc").to_bytes()
        with pytest.raises(MalformedBlob):
            tee.SealedBlob.from_bytes(raw + b"extra")

    def test_rejects_short_input(self):
        with pytest.raises(MalformedBlob):
            tee.SealedBlob.from_bytes(b"\x00" * 100)

    def test_key_secrecy(self, platform, enclave):
        for _ in range(5):
            blob = tee.seal(platform, enclave, MRENCLAVE, random.Random(3).randbytes(2048))
            raw = blob.to_bytes()
            assert platform.platform_key not in raw
            key = tee.derive_sealing_key(
                platform, enclave, blob.policy, blob.key_id, blob.isv_svn, blob.cpu_svn
            )
            assert key not in raw
