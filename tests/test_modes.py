"""Crypto modes: KEK derivation, key wrapping, blocks, sessions, filenames."""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sealvault import modes, tee
from sealvault.errors import (
    AlreadyDestroyed,
    AuthenticationFailure,
    BlockTooLarge,
    EmptyBlock,
    EmptyPassword,
    InvalidName,
    MalformedBlob,
    MalformedBlock,
    MalformedName,
    NameTooLong,
    SessionDestroyed,
    SvnViolation,
)

# PBKDF2-HMAC-SHA256("password", "salt") known-answer vectors
PBKDF2_VECTORS = {
    1: "120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b",
    2: "ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43",
    4096: "c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a",
}


class TestDeriveKek:
    def test_deterministic(self):
        salt = b"\x01" * 16
        assert modes.derive_kek("pw", salt, 100) == modes.derive_kek("pw", salt, 100)

    @pytest.mark.parametrize("iterations,expected", sorted(PBKDF2_VECTORS.items()))
    def test_known_vectors(self, iterations, expected):
        # the reference vectors use a 4-byte salt; call the primitive directly
        import hashlib

        got = hashlib.pbkdf2_hmac("sha256", b"password", b"salt", iterations, 32)
        assert got.hex() == expected
        assert oracles.pbkdf2_sha256(b"password", b"salt", iterations).hex() == expected

    def test_against_handrolled_oracle(self):
        salt = bytes(range(16))
        for iterations in (1, 3, 1000):
            kek = modes.derive_kek("password", salt, iterations)
            assert kek == oracles.pbkdf2_sha256(b"password", salt, iterations)

    def test_salt_sensitivity(self):
        a = modes.derive_kek("pw", b"\x00" * 16, 50)
        b = modes.derive_kek("pw", b"\x00" * 15 + b"\x01", 50)
        assert a != b

    def test_empty_password(self):
        with pytest.raises(EmptyPassword):
            modes.derive_kek("", b"\x00" * 16, 50)

    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            modes.derive_kek("pw", b"\x00" * 16, 0)


class TestKeyWrap:
    def test_roundtrip(self):
        kek, key = os.urandom(32), os.urandom(32)
        wrapped = modes.wrap_key(kek, key, b"label")
        assert len(wrapped) == 60
        assert modes.unwrap_key(kek, wrapped, b"label") == key

    def test_fresh_iv(self):
        kek, key = os.urandom(32), os.urandom(32)
        assert modes.wrap_key(kek, key, b"l") != modes.wrap_key(kek, key, b"l")

    def test_wrong_label(self):
        kek, key = os.urandom(32), os.urandom(32)
        wrapped = modes.wrap_key(kek, key, b"right")
        with pytest.raises(AuthenticationFailure):
            modes.unwrap_key(kek, wrapped, b"wrong")

    def test_wrong_kek_fails_never_garbage(self):
        key = os.urandom(32)
        wrapped = modes.wrap_key(os.urandom(32), key, b"l")
        for _ in range(20):
            with pytest.raises(AuthenticationFailure):
                modes.unwrap_key(os.urandom(32), wrapped, b"l")

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            modes.unwrap_key(os.urandom(32), b"\x00" * 59, b"l")


@pytest.fixture(scope="module")
def session():
    platform = tee.create_platform(b"\x77" * 32)
    s = modes.init_enclave(platform, b"block enclave", b"block signer")
    yield s


def _keysource(mode, session):
    if mode is modes.ModeId.SEALED:
        return session
    return b"\x31" * 32


class TestBlocks:
    @pytest.mark.parametrize("mode", list(modes.ModeId))
    def test_roundtrip_random_sizes(self, mode, session):
        keys = _keysource(mode, session)
        rng = random.Random(42)
        fid = rng.randbytes(16)
        for _ in range(10):
            size = rng.randrange(1, modes.BLOCK_SIZE + 1)
            data = rng.randbytes(size)
            index = rng.randrange(0, 2**32)
            block = modes.encrypt_block(mode, keys, fid, index, data)
            assert len(block) == size + mode.block_overhead
            assert modes.decrypt_block(mode, keys, fid, index, block) == data

    def test_v1_full_block_overhead(self, session):
        keys = _keysource(modes.ModeId.V1, session)
        block = modes.encrypt_block(modes.ModeId.V1, keys, b"\x00" * 16, 0, b"x" * 32768)
        assert len(block) == 32796  # 12 + 32768 + 16

    def test_sealed_full_block_overhead(self, session):
        block = modes.encrypt_block(modes.ModeId.SEALED, session, b"\x00" * 16, 0, b"x" * 32768)
        assert len(block) == 33328

    @pytest.mark.parametrize("mode", list(modes.ModeId))
    def test_overhead_constant_across_sizes(self, mode, session):
        keys = _keysource(mode, session)
        for size in (1, 2, 17, 4096, 32767, 32768):
            block = modes.encrypt_block(mode, keys, b"\x01" * 16, 5, b"a" * size)
            assert len(block) - size == mode.block_overhead

    @pytest.mark.parametrize("mode", list(modes.ModeId))
    def test_index_swap_rejected(self, mode, session):
        keys = _keysource(mode, session)
        fid = b"\x0f" * 16
        block = modes.encrypt_block(mode, keys, fid, 3, b"position bound")
        with pytest.raises(AuthenticationFailure):
            modes.decrypt_block(mode, keys, fid, 4, block)

    @pytest.mark.parametrize("mode", list(modes.ModeId))
    def test_file_id_swap_rejected(self, mode, session):
        keys = _keysource(mode, session)
        block = modes.encrypt_block(mode, keys, b"\x0a" * 16, 0, b"file bound")
        with pytest.raises(AuthenticationFailure):
            modes.decrypt_block(mode, keys, b"\x0b" * 16, 0, block)

    @pytest.mark.parametrize("mode", list(modes.ModeId))
    def test_bit_flip_sweep(self, mode, session):
        keys = _keysource(mode, session)
        fid = b"\x0c" * 16
        block = bytearray(modes.encrypt_block(mode, keys, fid, 1, b"tamper me" * 100))
        rng = random.Random(8)
        for _ in range(40):
            pos = rng.randrange(len(block) * 8)
            tampered = bytearray(block)
            tampered[pos // 8] ^= 1 << (pos % 8)
            with pytest.raises((AuthenticationFailure, MalformedBlob, MalformedBlock)):
                modes.decrypt_block(mode, keys, fid, 1, bytes(tampered))

    @pytest.mark.parametrize("mode", list(modes.ModeId))
    def test_empty_block_rejected(self, mode, session):
        with pytest.raises(EmptyBlock):
            modes.encrypt_block(mode, _keysource(mode, session), b"\x00" * 16, 0, b"")

    @pytest.mark.parametrize("mode", list(modes.ModeId))
    def test_oversize_block_rejected(self, mode, session):
        with pytest.raises(BlockTooLarge):
            modes.encrypt_block(
                mode, _keysource(mode, session), b"\x00" * 16, 0, b"x" * 32769
            )

    @pytest.mark.parametrize("kind", ["bytearray", "memoryview"])
    @pytest.mark.parametrize("mode", list(modes.ModeId))
    def test_encrypt_into_writable_buffers(self, mode, kind, session):
        keys = _keysource(mode, session)
        fid = b"\x07" * 16
        cipher = modes.block_cipher(mode, keys, fid)
        out = bytearray(100 + cipher.overhead + modes.BLOCK_SLACK)
        size = cipher.encrypt_into(4, b"y" * 100, out if kind == "bytearray" else memoryview(out))
        assert size == 100 + cipher.overhead
        assert modes.decrypt_block(mode, keys, fid, 4, bytes(out[:size])) == b"y" * 100

    def test_raw_key_accepted_for_v1(self):
        key = os.urandom(32)
        block = modes.encrypt_block(modes.ModeId.V1, key, b"\x00" * 16, 0, b"raw key")
        assert modes.decrypt_block(modes.ModeId.V1, key, b"\x00" * 16, 0, block) == b"raw key"

    def test_v1_rejects_short_key(self):
        with pytest.raises(ValueError):
            modes.encrypt_block(modes.ModeId.V1, os.urandom(16), b"\x00" * 16, 0, b"x")

    def test_sealed_cipher_checks_session_every_block(self):
        platform = tee.create_platform(os.urandom(32))
        s = modes.init_enclave(platform, b"code", b"sig")
        cipher = modes.block_cipher(modes.ModeId.SEALED, s, b"\x00" * 16)
        block = bytearray(100 + cipher.overhead + modes.BLOCK_SLACK)
        size = cipher.encrypt_into(0, b"x" * 100, memoryview(block))
        assert len(s._keys) == 1  # the cipher's sealing key
        s.destroy()
        assert not s._keys
        with pytest.raises(SessionDestroyed):
            cipher.decrypt_into(0, block[:size], bytearray(100))
        with pytest.raises(SessionDestroyed):
            cipher.encrypt_into(1, b"x" * 100, memoryview(block))

    def test_sealed_requires_session(self):
        with pytest.raises(TypeError):
            modes.encrypt_block(
                modes.ModeId.SEALED, os.urandom(32), b"\x00" * 16, 0, b"x"
            )


class TestEnclaveSession:
    def test_usable_after_init(self):
        platform = tee.create_platform(os.urandom(32))
        s = modes.init_enclave(platform, b"code", b"sig")
        blob = s.encrypt_bytes(b"data", b"aad")
        assert s.decrypt_bytes(blob, b"aad") == b"data"
        s.destroy()

    def test_identical_identity_for_same_inputs(self):
        platform = tee.create_platform(os.urandom(32))
        a = modes.init_enclave(platform, b"code", b"sig")
        b = modes.init_enclave(platform, b"code", b"sig")
        assert a.identity == b.identity
        a.destroy(); b.destroy()

    def test_encrypt_after_destroy(self):
        platform = tee.create_platform(os.urandom(32))
        s = modes.init_enclave(platform, b"code", b"sig")
        s.destroy()
        with pytest.raises(SessionDestroyed):
            s.encrypt_bytes(b"x")
        with pytest.raises(SessionDestroyed):
            s.decrypt_bytes(b"\x00" * 560)

    def test_double_destroy(self):
        platform = tee.create_platform(os.urandom(32))
        s = modes.init_enclave(platform, b"code", b"sig")
        s.destroy()
        with pytest.raises(AlreadyDestroyed):
            s.destroy()

    def test_destroy_fresh_session_ok(self):
        platform = tee.create_platform(os.urandom(32))
        modes.init_enclave(platform, b"code", b"sig").destroy()


def _key_id(block) -> bytes:
    return bytes(block[28:60])


def _seal_blocks(session, file_id, count, size=100):
    """Encrypt `count` blocks with one sealed cipher; returns the blocks."""
    cipher = modes.block_cipher(modes.ModeId.SEALED, session, file_id)
    blocks = []
    for i in range(count):
        out = bytearray(size + cipher.overhead + modes.BLOCK_SLACK)
        del out[cipher.encrypt_into(i, bytes([i]) * size, out):]
        blocks.append(bytes(out))
    return blocks


def _unseal_blocks(session, file_id, blocks, size=100):
    cipher = modes.block_cipher(modes.ModeId.SEALED, session, file_id)
    for i, block in enumerate(blocks):
        out = bytearray(size)
        cipher.decrypt_into(i, block, out)
        assert out == bytes([i]) * size


class TestSealingKeyPerFile:
    """A sealed cipher seals its blocks under one sealing key, and the
    session keeps the keys it derives, by the blob's key request."""

    def test_blocks_of_one_cipher_share_a_key_id(self):
        s = modes.init_enclave(tee.create_platform(os.urandom(32)), b"code", b"sig")
        a = _seal_blocks(s, b"\x01" * 16, 4)
        b = _seal_blocks(s, b"\x01" * 16, 4)  # the same file written again
        assert len({_key_id(block) for block in a}) == 1
        assert len({_key_id(block) for block in b}) == 1
        assert _key_id(a[0]) != _key_id(b[0])
        assert len({bytes(block[532:544]) for block in a}) == 4  # a fresh IV each
        s.destroy()

    def test_rotation_draws_a_fresh_key_id(self, monkeypatch):
        monkeypatch.setattr(modes, "KEY_ROTATION_BLOCKS", 3)
        s = modes.init_enclave(tee.create_platform(os.urandom(32)), b"code", b"sig")
        blocks = _seal_blocks(s, b"\x02" * 16, 7)
        ids = [_key_id(block) for block in blocks]
        assert ids[0] == ids[1] == ids[2] != ids[3] == ids[4] == ids[5] != ids[6]
        assert ids[0] != ids[6]
        _unseal_blocks(s, b"\x02" * 16, blocks)
        s.destroy()

    def test_cold_session_derives_once_and_keeps_the_key(self, monkeypatch):
        platform = tee.create_platform(os.urandom(32))
        writer = modes.init_enclave(platform, b"code", b"sig")
        blocks = _seal_blocks(writer, b"\x03" * 16, 5)
        reader = modes.init_enclave(platform, b"code", b"sig")
        derive = tee.derive_sealing_key
        calls = []
        monkeypatch.setattr(tee, "derive_sealing_key",
                            lambda *args: calls.append(1) or derive(*args))
        _unseal_blocks(reader, b"\x03" * 16, blocks)
        assert len(calls) == 1
        assert list(reader._keys) == [bytes(blocks[0][8:60])]
        _unseal_blocks(reader, b"\x03" * 16, blocks)
        assert len(calls) == 1
        writer.destroy(); reader.destroy()

    def test_tampered_block_never_enters_the_memo(self):
        platform = tee.create_platform(os.urandom(32))
        writer = modes.init_enclave(platform, b"code", b"sig")
        block = _seal_blocks(writer, b"\x04" * 16, 1)[0]
        reader = modes.init_enclave(platform, b"code", b"sig")
        for offset in (100, 28, 532, 544, len(block) - 1):  # reserved, key id, IV, tag, body
            tampered = bytearray(block)
            tampered[offset] ^= 1
            with pytest.raises((AuthenticationFailure, MalformedBlock)):
                modes.decrypt_block(modes.ModeId.SEALED, reader, b"\x04" * 16, 0,
                                    bytes(tampered))
            assert not reader._keys
        with pytest.raises(AuthenticationFailure):  # right key, wrong position
            modes.decrypt_block(modes.ModeId.SEALED, reader, b"\x04" * 16, 1, block)
        assert not reader._keys
        modes.decrypt_block(modes.ModeId.SEALED, reader, b"\x04" * 16, 0, block)
        assert list(reader._keys) == [bytes(block[8:60])]
        writer.destroy(); reader.destroy()

    def test_svn_checked_before_the_memo(self):
        platform = tee.create_platform(os.urandom(32))
        newer = modes.init_enclave(platform, b"code", b"sig", isv_svn=2)
        block = _seal_blocks(newer, b"\x05" * 16, 1)[0]
        older = modes.init_enclave(platform, b"code", b"sig", isv_svn=1)
        older._keys.update(newer._keys)  # the blob's key request, memoized
        assert bytes(block[8:60]) in older._keys
        with pytest.raises(SvnViolation):
            modes.decrypt_block(modes.ModeId.SEALED, older, b"\x05" * 16, 0, block)
        newer.destroy(); older.destroy()

    def test_memo_emptied_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(modes, "SEALING_KEY_CACHE", 2)
        s = modes.init_enclave(tee.create_platform(os.urandom(32)), b"code", b"sig")
        files = [_seal_blocks(s, bytes([i]) * 16, 2) for i in range(5)]
        assert len(s._keys) <= 2
        for i, blocks in enumerate(files):
            _unseal_blocks(s, bytes([i]) * 16, blocks)
            assert len(s._keys) <= 2
        s.destroy()


NAME_KEY = b"\x55" * 32
DIR_A = b"\x01" * 16
DIR_B = b"\x02" * 16


class TestFilenames:
    def test_deterministic(self):
        assert modes.encrypt_filename(NAME_KEY, DIR_A, "report.txt") == \
            modes.encrypt_filename(NAME_KEY, DIR_A, "report.txt")

    def test_roundtrip(self):
        enc = modes.encrypt_filename(NAME_KEY, DIR_A, "naïve файл 名.txt")
        assert modes.decrypt_filename(NAME_KEY, DIR_A, enc) == "naïve файл 名.txt"

    def test_dir_id_separates(self):
        a = modes.encrypt_filename(NAME_KEY, DIR_A, "same.txt")
        b = modes.encrypt_filename(NAME_KEY, DIR_B, "same.txt")
        assert a != b
        with pytest.raises(AuthenticationFailure):
            modes.decrypt_filename(NAME_KEY, DIR_B, a)

    def test_suffix_and_grammar(self):
        enc = modes.encrypt_filename(NAME_KEY, DIR_A, "x")
        assert enc.endswith(".sc")
        assert "=" not in enc
        body = enc[:-3]
        assert all(c.isalnum() or c in "-_" for c in body)

    def test_160_byte_name_length(self):
        enc = modes.encrypt_filename(NAME_KEY, DIR_A, "a" * 160)
        assert len(enc) == oracles.encoded_name_length(160) == 238
        assert len(enc) <= 255

    def test_161_bytes_rejected(self):
        with pytest.raises(NameTooLong):
            modes.encrypt_filename(NAME_KEY, DIR_A, "b" * 161)
        # multi-byte characters count in bytes, not characters
        with pytest.raises(NameTooLong):
            modes.encrypt_filename(NAME_KEY, DIR_A, "ä" * 81)

    @pytest.mark.parametrize("bad", ["", "a/b", "a\\b", "nul\x00byte"])
    def test_invalid_names(self, bad):
        with pytest.raises(InvalidName):
            modes.encrypt_filename(NAME_KEY, DIR_A, bad)

    def test_strip_suffix_is_malformed(self):
        enc = modes.encrypt_filename(NAME_KEY, DIR_A, "doc.txt")
        with pytest.raises(MalformedName):
            modes.decrypt_filename(NAME_KEY, DIR_A, enc[:-3])

    def test_bad_base64_is_malformed(self):
        with pytest.raises(MalformedName):
            modes.decrypt_filename(NAME_KEY, DIR_A, "!!!!.sc")
        with pytest.raises(MalformedName):
            modes.decrypt_filename(NAME_KEY, DIR_A, ".sc")
        with pytest.raises(MalformedName):
            modes.decrypt_filename(NAME_KEY, DIR_A, "AAAA.sc")  # < 17 bytes decoded

    def test_tampered_body_fails_auth(self):
        enc = modes.encrypt_filename(NAME_KEY, DIR_A, "doc.txt")
        body = enc[:-3]
        flipped = ("A" if body[0] != "A" else "B") + body[1:]
        with pytest.raises(AuthenticationFailure):
            modes.decrypt_filename(NAME_KEY, DIR_A, flipped + ".sc")

    @given(st.text(min_size=1).filter(
        lambda s: "/" not in s and "\\" not in s and "\x00" not in s
        and 1 <= len(s.encode()) <= 160
    ))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property(self, name):
        enc = modes.encrypt_filename(NAME_KEY, DIR_A, name)
        assert len(enc) <= 255
        assert modes.decrypt_filename(NAME_KEY, DIR_A, enc) == name

    def test_injectivity_over_many_names(self):
        rng = random.Random(15)
        names = {f"f{rng.randrange(10**12):x}-{i}" for i in range(10_000)}
        encoded = {modes.encrypt_filename(NAME_KEY, DIR_A, n) for n in names}
        assert len(encoded) == len(names)
