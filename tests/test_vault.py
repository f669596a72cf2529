"""Vault container: lifecycle, round trips, size law, namespace opacity."""

import errno
import hashlib
import io
import os
import random
import sys
import threading
import time
from pathlib import Path

import pytest

import oracles
from sealvault import modes, sync, tee, vault
from sealvault.errors import (
    AuthenticationFailure,
    CorruptConfig,
    DirectoryNotEmpty,
    InvalidName,
    MalformedBlock,
    MissingPlatform,
    NameTooLong,
    NotFound,
    SessionDestroyed,
    StorageFull,
    TargetNotEmpty,
    UnsealFailure,
    VaultError,
    VaultLocked,
    WrongPassword,
)
from conftest import TEST_ITERATIONS, TEST_PASSWORD

ALL_MODES = list(modes.ModeId)


class TestLifecycle:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_create_then_unlock(self, tmp_path, platform, mode):
        plat = platform if mode is modes.ModeId.SEALED else None
        vault.create_vault(tmp_path / "v", "pw", mode, platform=plat,
                           iterations=TEST_ITERATIONS)
        handle = vault.unlock_vault(tmp_path / "v", "pw", platform=plat)
        assert handle.mode is mode
        assert handle.list_dir("/") == []
        handle.lock()

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_key_object_repr_is_redacted(self, make_vault, mode):
        keys = make_vault(mode, name=f"v-{mode.value}")._keys()
        assert repr(keys) == "MasterKeys(<redacted>)"
        assert keys.content_key.hex() not in repr(keys) and keys.name_key.hex() not in repr(keys)

    def test_wrong_password(self, tmp_path):
        vault.create_vault(tmp_path / "v", "pw", modes.ModeId.V1,
                           iterations=TEST_ITERATIONS)
        with pytest.raises(WrongPassword):
            vault.unlock_vault(tmp_path / "v", "not it")

    def test_target_not_empty(self, tmp_path):
        (tmp_path / "v").mkdir()
        (tmp_path / "v" / "junk").write_text("x")
        with pytest.raises(TargetNotEmpty):
            vault.create_vault(tmp_path / "v", "pw", modes.ModeId.V1,
                               iterations=TEST_ITERATIONS)

    def test_sealed_requires_platform(self, tmp_path, platform):
        with pytest.raises(MissingPlatform):
            vault.create_vault(tmp_path / "v", "pw", modes.ModeId.SEALED,
                               iterations=TEST_ITERATIONS)
        vault.create_vault(tmp_path / "v", "pw", modes.ModeId.SEALED,
                           platform=platform, iterations=TEST_ITERATIONS)
        with pytest.raises(MissingPlatform):
            vault.unlock_vault(tmp_path / "v", "pw")

    def test_sealed_wrong_platform(self, tmp_path, platform, other_platform):
        vault.create_vault(tmp_path / "v", "pw", modes.ModeId.SEALED,
                           platform=platform, iterations=TEST_ITERATIONS)
        with pytest.raises(UnsealFailure):
            vault.unlock_vault(tmp_path / "v", "pw", platform=other_platform)

    def test_two_factor_matrix(self, tmp_path, platform, other_platform):
        root = tmp_path / "v"
        vault.create_vault(root, "pw", modes.ModeId.SEALED, platform=platform,
                           iterations=TEST_ITERATIONS)
        # both right -> success
        vault.unlock_vault(root, "pw", platform=platform).lock()
        # wrong password, right platform
        with pytest.raises(WrongPassword):
            vault.unlock_vault(root, "bad", platform=platform)
        # right password, wrong platform
        with pytest.raises(UnsealFailure):
            vault.unlock_vault(root, "pw", platform=other_platform)
        # both wrong
        with pytest.raises((WrongPassword, UnsealFailure)):
            vault.unlock_vault(root, "bad", platform=other_platform)

    def test_failed_unlock_leaves_nothing(self, tmp_path):
        root = tmp_path / "v"
        vault.create_vault(root, "pw", modes.ModeId.V1, iterations=TEST_ITERATIONS)
        before = sorted(p.relative_to(root) for p in root.rglob("*"))
        with pytest.raises(WrongPassword):
            vault.unlock_vault(root, "bad")
        after = sorted(p.relative_to(root) for p in root.rglob("*"))
        assert before == after
        assert not [p for p in root.rglob("*") if p.name.startswith(".tmp-")]

    def test_locked_handle_rejects_io(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("a", b"data")
        handle.lock()
        assert handle.is_locked
        for op in (lambda: handle.read_file("a"),
                   lambda: handle.write_file("b", b"x"),
                   lambda: handle.list_dir("/"),
                   lambda: handle.map_path("a")):
            with pytest.raises(VaultLocked):
                op()


class TestConfig:
    def test_roundtrip_identity(self, tmp_path, platform):
        vault.create_vault(tmp_path / "v", "pw", modes.ModeId.SEALED,
                           platform=platform, iterations=TEST_ITERATIONS)
        raw = (tmp_path / "v" / vault.CONFIG_NAME).read_bytes()
        assert vault.VaultConfig.from_bytes(raw).to_bytes() == raw

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_bit_flip_sweep_is_corrupt(self, tmp_path, platform, mode):
        plat = platform if mode is modes.ModeId.SEALED else None
        vault.create_vault(tmp_path / "v", "pw", mode, platform=plat,
                           iterations=TEST_ITERATIONS)
        cfg_path = tmp_path / "v" / vault.CONFIG_NAME
        raw = cfg_path.read_bytes()
        rng = random.Random(21)
        for bitpos in rng.sample(range(len(raw) * 8), 120):
            tampered = bytearray(raw)
            tampered[bitpos // 8] ^= 1 << (bitpos % 8)
            cfg_path.write_bytes(bytes(tampered))
            with pytest.raises(CorruptConfig):
                vault.unlock_vault(tmp_path / "v", "pw", platform=plat)
        cfg_path.write_bytes(raw)
        vault.unlock_vault(tmp_path / "v", "pw", platform=plat).lock()

    def test_missing_config(self, tmp_path):
        with pytest.raises(CorruptConfig):
            vault.unlock_vault(tmp_path, "pw")

    def test_describe_config_mentions_mode(self, tmp_path):
        vault.create_vault(tmp_path / "v", "pw", modes.ModeId.V1,
                           iterations=TEST_ITERATIONS)
        text = vault.describe_config(vault.read_config(tmp_path / "v"))
        assert "v1" in text and "PBKDF2" in text

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_golden_config_bytes(self, mode):
        code, protection, enclave = _GOLDEN_FORMS[mode]
        raw = _golden_config(code, code, protection, enclave)
        config = vault.VaultConfig.from_bytes(raw)
        assert config.format_version == 1
        assert config.vault_id == bytes(range(16))
        assert config.mode is mode
        assert config.kdf_salt == bytes(range(16, 32))
        assert config.kdf_iterations == 600_000
        assert config.wrapped_name_key == b"\x4e" * modes.WRAPPED_KEY_SIZE
        assert config.content_key_protection == protection
        if enclave is None:
            assert config.enclave_measurement is None and config.enclave_signer is None
        else:
            assert config.enclave_measurement + config.enclave_signer == enclave
        assert config.to_bytes() == raw

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_kind_byte_must_match_mode(self, mode):
        code, protection, enclave = _GOLDEN_FORMS[mode]
        with pytest.raises(CorruptConfig):
            vault.VaultConfig.from_bytes(_golden_config(code, 3 - code, protection, enclave))

    def test_v1_config_with_enclave_descriptor_is_corrupt(self):
        code, protection, _ = _GOLDEN_FORMS[modes.ModeId.V1]
        enclave = _GOLDEN_FORMS[modes.ModeId.SEALED][2]
        with pytest.raises(CorruptConfig):
            vault.VaultConfig.from_bytes(_golden_config(code, code, protection, enclave))


# mode -> (mode code, protected content key, enclave measurement | signer)
_GOLDEN_FORMS = {
    modes.ModeId.V1: (1, b"\x5a" * modes.WRAPPED_KEY_SIZE, None),
    modes.ModeId.SEALED: (2, b"\x5b" * (tee.HEADER_SIZE + 32), b"\x6d" * 32 + b"\x73" * 32),
}


def _golden_config(mode_code, kind, protection, enclave):
    """vault.cfg written out field by field from the README layout, with a
    SHA-256 trailer computed over whatever the fields say."""
    body = (bytes(range(16))                                   # vault id
            + bytes([mode_code])                               # 1 v1, 2 sealed
            + bytes(range(16, 32))                             # PBKDF2 salt
            + (600_000).to_bytes(4, "little")                  # PBKDF2 iterations
            + (60).to_bytes(2, "little") + b"\x4e" * 60        # wrapped name key
            + bytes([kind])                                    # 1 wrapped, 2 sealed
            + len(protection).to_bytes(4, "little") + protection
            + (b"\x00" if enclave is None else b"\x01" + enclave))
    record = b"SVC1" + (1).to_bytes(4, "little") + len(body).to_bytes(4, "little") + body
    return record + hashlib.sha256(record).digest()


class TestSizeLaw:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("size", [0, 1, 31, 32767, 32768, 32769, 100_000])
    def test_object_size(self, make_vault, mode, size):
        handle = make_vault(mode, name=f"v-{mode.value}-{size}")
        data = random.Random(size).randbytes(size)
        handle.write_file("f.bin", data)
        physical = handle.map_path("f.bin")
        ovh = mode.block_overhead
        blocks = -(-size // modes.BLOCK_SIZE)
        assert physical.stat().st_size == 640 + ovh * blocks + size
        assert handle.read_file("f.bin") == data

    def test_empty_file_is_bare_header(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("empty", b"")
        assert handle.map_path("empty").stat().st_size == 640
        assert handle.read_file("empty") == b""

    def test_boundary_split(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("b", b"z" * 32769)
        # 2 blocks: 32768 and 1
        assert handle.map_path("b").stat().st_size == 640 + 2 * 28 + 32769

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_inversion_matches_brute_force(self, mode):
        ovh = mode.block_overhead
        rng = random.Random(5)
        sizes = [0, 1, 32768, 32769, 65536] + [rng.randrange(0, 10**7) for _ in range(60)]
        for pt in sizes:
            ct = vault.object_size(pt, ovh)
            assert vault.invert_object_size(ct, ovh) == pt
            assert oracles.brute_force_cleartext_size(ct, 640, ovh) == pt

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_inversion_rejects_impossible_sizes(self, mode):
        ovh = mode.block_overhead
        for bad in (0, 639, 641, 640 + ovh, 640 + ovh + 32769 + ovh - 1):
            # some of these may be valid; only assert on true gaps
            try:
                pt = vault.invert_object_size(bad, ovh)
            except ValueError:
                continue
            assert vault.object_size(pt, ovh) == bad


class TestReadWrite:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_roundtrip_stream_input(self, make_vault, mode, tmp_path):
        handle = make_vault(mode, name=f"v-{mode.value}")
        blob = random.Random(3).randbytes(200_000)
        src = tmp_path / "src.bin"
        src.write_bytes(blob)
        with open(src, "rb") as stream:
            stored = handle.write_file("deep/nested/path/file.bin", stream)
        assert stored == len(blob)
        assert handle.read_file("deep/nested/path/file.bin") == blob

    def test_overwrite_replaces_content(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("f", b"first version")
        handle.write_file("f", b"second")
        assert handle.read_file("f") == b"second"

    def test_read_missing(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        with pytest.raises(NotFound):
            handle.read_file("nope")
        with pytest.raises(NotFound):
            handle.read_file("no/dir/file")

    def test_write_rejects_long_component(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        with pytest.raises(NameTooLong):
            handle.write_file("x" * 161, b"data")
        with pytest.raises(NameTooLong):
            handle.write_file(f"{'y' * 161}/file", b"data")

    def test_write_rejects_bad_paths(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        for bad in ("", "/", "a/../b"):
            with pytest.raises((InvalidName, NotFound)):
                handle.write_file(bad, b"x")

    def test_file_component_blocks_directory(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("leaf", b"a file")
        with pytest.raises(NotFound):
            handle.write_file("leaf/below", b"x")

    def test_write_onto_directory_rejected(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.make_dir("somedir")
        with pytest.raises(InvalidName):
            handle.write_file("somedir", b"x")

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_read_range(self, make_vault, mode):
        handle = make_vault(mode, name=f"v-{mode.value}")
        data = random.Random(11).randbytes(150_000)
        handle.write_file("r.bin", data)
        for offset, length in [(0, 10), (32768, 1), (32760, 20), (70000, 65000),
                               (149_999, 1), (149_999, 100), (150_000, 5), (0, 150_000)]:
            assert handle.read_range("r.bin", offset, length) == data[offset:offset + length]

    def test_atomic_overwrite_crash_injection(self, make_vault, monkeypatch):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("precious", b"previous version")
        real_replace = os.replace

        def exploding_replace(src, dst):
            raise RuntimeError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(RuntimeError):
            handle.write_file("precious", b"interrupted write")
        monkeypatch.setattr(os, "replace", real_replace)
        assert handle.read_file("precious") == b"previous version"
        phys_dir = handle.map_path("precious").parent
        assert not [p for p in phys_dir.iterdir() if p.name.startswith(".tmp-")]

    def test_concurrent_writers_distinct_paths(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        errors = []

        def work(i):
            try:
                payload = bytes([i]) * 50_000
                handle.write_file(f"t/{i}.bin", payload)
                assert handle.read_file(f"t/{i}.bin") == payload
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(handle.list_dir("t")) == 8

    def test_concurrent_writers_same_path(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        versions = [bytes([i]) * 70_000 for i in range(8)]
        errors = []

        def work(i):
            try:
                handle.write_file("t/same.bin", versions[i])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert handle.read_file("t/same.bin") in versions
        target = handle.map_path("t/same.bin")
        assert [p.name for p in target.parent.iterdir()] == [target.name]


BOUNDARY_SIZES = [0, 1, 32767, 32768, 32769, 3 * 32768 + 5]


def _block_keys(handle, file_key):
    """What the reference modes.encrypt_block/decrypt_block take for a file."""
    return handle._keys().session if handle.mode is modes.ModeId.SEALED else file_key


def _read_to_bytes(handle, path, offset=0):
    sink = io.BytesIO()
    written = handle.read_to(path, sink, offset)
    assert written == len(sink.getvalue())
    return sink.getvalue()


class TestDataPath:
    """The batched block path must write exactly what the one-block
    reference functions in modes write, and read what they wrote."""

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_written_blocks_decrypt_with_reference(self, make_vault, mode, size):
        handle = make_vault(mode, name=f"v-{mode.value}")
        data = random.Random(size).randbytes(size)
        assert handle.write_file("f.bin", data) == size
        raw = handle.map_path("f.bin").read_bytes()
        assert len(raw) == vault.object_size(size, mode.block_overhead)
        file_id, file_key = handle._parse_header(raw[:vault.FILE_HEADER_SIZE])
        step = modes.BLOCK_SIZE + mode.block_overhead
        body = raw[vault.FILE_HEADER_SIZE:]
        clear = b"".join(
            modes.decrypt_block(mode, _block_keys(handle, file_key), file_id, i,
                                body[off:off + step])
            for i, off in enumerate(range(0, len(body), step))
        )
        assert clear == data
        assert handle.read_file("f.bin") == data
        assert _read_to_bytes(handle, "f.bin") == data

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_reference_object_reads_back(self, make_vault, mode, size):
        handle = make_vault(mode, name=f"v-{mode.value}")
        data = random.Random(size + 1).randbytes(size)
        file_id, file_key = os.urandom(16), os.urandom(32)
        keys = _block_keys(handle, file_key)
        blocks = [
            modes.encrypt_block(mode, keys, file_id, i, data[off:off + modes.BLOCK_SIZE])
            for i, off in enumerate(range(0, size, modes.BLOCK_SIZE))
        ]
        handle.map_path("ref.bin").write_bytes(
            handle._build_header(file_id, file_key) + b"".join(blocks)
        )
        assert handle.read_file("ref.bin") == data
        assert _read_to_bytes(handle, "ref.bin") == data
        for offset, length in [(0, size), (0, 1), (size // 2, 40_000), (size - 1, 9),
                               (32767, 2), (size, 1)]:
            offset = max(0, offset)
            want = data[offset:offset + length]
            assert handle.read_range("ref.bin", offset, length) == want
            assert _read_to_bytes(handle, "ref.bin", offset) == data[offset:]

    @pytest.mark.parametrize("delta", [-1, 1, -32768, 2**31])
    def test_tampered_payload_len_is_malformed_or_unauthentic(self, make_vault, delta):
        handle = make_vault(modes.ModeId.SEALED)
        data = random.Random(5).randbytes(2 * modes.BLOCK_SIZE + 100)
        handle.write_file("p.bin", data)
        phys = handle.map_path("p.bin")
        raw = bytearray(phys.read_bytes())
        step = modes.BLOCK_SIZE + modes.SEALED_BLOCK_OVERHEAD
        for block_start in (vault.FILE_HEADER_SIZE, vault.FILE_HEADER_SIZE + 2 * step):
            field = block_start + 128  # payload_len, u32 little-endian
            tampered = bytearray(raw)
            old = int.from_bytes(tampered[field:field + 4], "little")
            tampered[field:field + 4] = ((old + delta) % 2**32).to_bytes(4, "little")
            phys.write_bytes(bytes(tampered))
            for read in (lambda: handle.read_file("p.bin"),
                         lambda: handle.read_range("p.bin", 0, len(data)),
                         lambda: _read_to_bytes(handle, "p.bin")):
                with pytest.raises((MalformedBlock, AuthenticationFailure)):
                    read()
        file_id, _ = handle._parse_header(bytes(raw[:vault.FILE_HEADER_SIZE]))
        block = bytearray(raw[vault.FILE_HEADER_SIZE:vault.FILE_HEADER_SIZE + step])
        block[128:132] = (modes.BLOCK_SIZE - 1).to_bytes(4, "little")
        with pytest.raises((MalformedBlock, AuthenticationFailure)):
            modes.decrypt_block(modes.ModeId.SEALED, handle._keys().session, file_id, 0,
                                bytes(block))

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_lock_mid_read_stops_at_next_block(self, make_vault, mode, monkeypatch):
        handle = make_vault(mode, name=f"v-{mode.value}")
        data = random.Random(9).randbytes(5 * modes.BLOCK_SIZE)
        handle.write_file("l.bin", data)
        real_cipher = modes.block_cipher
        decrypted = []

        class LockAfterFirstBlock:
            def __init__(self, inner):
                self.inner = inner
                self.overhead = inner.overhead

            def decrypt_into(self, index, block, out):
                n = self.inner.decrypt_into(index, block, out)
                decrypted.append(index)
                handle.lock()
                return n

        monkeypatch.setattr(
            modes, "block_cipher", lambda *args: LockAfterFirstBlock(real_cipher(*args))
        )
        with pytest.raises((VaultLocked, SessionDestroyed)):
            handle.read_file("l.bin")
        assert decrypted == [0]

    def test_short_stream_reads_are_topped_up(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        data = random.Random(4).randbytes(3 * modes.BLOCK_SIZE + 11)

        class Trickle(io.RawIOBase):
            def __init__(self):
                self.pos = 0

            def readable(self):
                return True

            def readinto(self, view):
                n = min(len(view), 1000, len(data) - self.pos)
                view[:n] = data[self.pos:self.pos + n]
                self.pos += n
                return n

        assert handle.write_file("t.bin", Trickle()) == len(data)
        assert handle.map_path("t.bin").stat().st_size == vault.object_size(
            len(data), modes.V1_BLOCK_OVERHEAD)
        assert handle.read_file("t.bin") == data

    def test_read_to_memory_bounded_by_batch(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("big.bin", bytes(3 * vault.BATCH_BLOCKS * modes.BLOCK_SIZE + 7))
        writes = []

        class Sink:
            def write(self, view):
                writes.append(len(view))

        total = handle.read_to("big.bin", Sink(), 5)
        assert total == sum(writes) == 3 * vault.BATCH_BLOCKS * modes.BLOCK_SIZE + 2
        assert max(writes) <= vault.BATCH_BLOCKS * modes.BLOCK_SIZE
        assert handle.read_to("big.bin", Sink(), 10**9) == 0

    def test_enospc_is_storage_full_and_leaves_no_temp(self, make_vault, monkeypatch):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("full.bin", b"previous version")
        real_open = open

        class FullDisk(io.FileIO):
            writes = 0

            def write(self, data):
                FullDisk.writes += 1
                if FullDisk.writes > 1:  # the header fits; the first batch does not
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        def fake_open(path, mode="r", *args, **kwargs):
            if mode == "wb":
                return FullDisk(path, "wb")
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(vault, "open", fake_open, raising=False)
        with pytest.raises(StorageFull):
            handle.write_file("full.bin", os.urandom(3 * modes.BLOCK_SIZE))
        monkeypatch.undo()
        assert FullDisk.writes == 2
        phys_dir = handle.map_path("full.bin").parent
        assert not [p for p in phys_dir.iterdir() if p.name.startswith(vault.TEMP_PREFIX)]
        assert handle.read_file("full.bin") == b"previous version"

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_nonblocking_stream_with_nothing_ready_raises(self, make_vault, mode):
        handle = make_vault(mode, name=f"v-{mode.value}")
        handle.write_file("p.bin", b"previous version")
        r, w = os.pipe()
        with open(r, "rb", buffering=0) as source, open(w, "wb", buffering=0) as sink:
            os.set_blocking(r, False)
            sink.write(bytes(range(110)))
            assert source.read(10) == bytes(range(10))  # 100 bytes are left
            with pytest.raises(BlockingIOError):
                handle.write_file("p.bin", source)
            assert source.read(1) is None  # write_file read all it was given
        assert handle.read_file("p.bin") == b"previous version"
        assert not _temp_leftovers(handle, "p.bin")


def _block_key_ids(handle, path) -> list[bytes]:
    """The key id (blob header bytes 28..60) of each block of a sealed file."""
    body = handle.map_path(path).read_bytes()[vault.FILE_HEADER_SIZE:]
    step = modes.BLOCK_SIZE + modes.SEALED_BLOCK_OVERHEAD
    return [body[off + 28:off + 60] for off in range(0, len(body), step)]


class TestSealedKeyPerFile:
    """A sealed file's blocks share one sealing key, and files sealed with a
    key per block, as before, still read back."""

    def test_key_per_block_layout_reads_back(self, make_vault, reopen):
        handle = make_vault(modes.ModeId.SEALED)
        data = random.Random(19).randbytes(3 * modes.BLOCK_SIZE + 5)
        file_id, file_key = os.urandom(16), os.urandom(32)
        session = handle._keys().session
        blocks = []
        for i, off in enumerate(range(0, len(data), modes.BLOCK_SIZE)):
            out = bytearray(modes.BLOCK_SIZE + modes.SEALED_BLOCK_OVERHEAD + modes.BLOCK_SLACK)
            del out[session.seal_into(data[off:off + modes.BLOCK_SIZE],
                                      modes.block_aad(file_id, i), out):]
            blocks.append(bytes(out))
        handle.map_path("old.bin").write_bytes(
            handle._build_header(file_id, file_key) + b"".join(blocks))
        assert len(set(_block_key_ids(handle, "old.bin"))) == 4
        for h in (reopen(handle), handle):  # a cold session, then a warm one
            for _ in range(2):
                assert h.read_file("old.bin") == data
                assert h.read_range("old.bin", 32760, 40_000) == data[32760:72760]
                assert h.read_range("old.bin", len(data) - 3, 9) == data[-3:]
                with h.open("old.bin") as f:
                    f.seek(modes.BLOCK_SIZE - 1)
                    assert f.read(3) == data[modes.BLOCK_SIZE - 1:modes.BLOCK_SIZE + 2]
                    f.seek(0)
                    assert f.read() == data

    def test_one_key_id_per_written_file(self, make_vault, reopen):
        handle = make_vault(modes.ModeId.SEALED)
        data = random.Random(20).randbytes(4 * modes.BLOCK_SIZE + 1)
        handle.write_file("a.bin", data)
        handle.write_file("b.bin", data)
        a, b = _block_key_ids(handle, "a.bin"), _block_key_ids(handle, "b.bin")
        handle.write_file("a.bin", data)
        again = _block_key_ids(handle, "a.bin")
        assert [len(set(ids)) for ids in (a, b, again)] == [1, 1, 1]
        assert len({a[0], b[0], again[0]}) == 3
        assert reopen(handle).read_file("a.bin") == data


class TestFileHeaderLayout:
    """The 640-byte file header, read with public functions only."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_header_layout(self, make_vault, platform, mode):
        handle = make_vault(mode, name=f"v-{mode.value}")
        data = random.Random(14).randbytes(modes.BLOCK_SIZE + 7)
        handle.write_file("h.bin", data)
        raw = handle.map_path("h.bin").read_bytes()
        file_id, label = raw[:16], b"SVFILEKEY" + raw[:16]
        session = None
        if mode is modes.ModeId.V1:
            key = modes.unwrap_key(handle._keys().content_key, raw[16:76], label)
            assert len(key) == 32
            padding = raw[76:640]
        else:
            session = key = modes.init_enclave(
                platform, vault.VAULT_ENCLAVE_CODE, vault.VAULT_ENCLAVE_SIGNER,
                product_id=vault.VAULT_ENCLAVE_PRODUCT_ID, isv_svn=vault.VAULT_ENCLAVE_ISV_SVN)
            blob = raw[16:608]
            assert int.from_bytes(blob[128:132], "little") == 32  # payload length
            assert len(session.decrypt_bytes(blob, label)) == 32
            padding = raw[608:640]
        try:
            assert padding == bytes(len(padding))
            block = raw[640:640 + modes.BLOCK_SIZE + mode.block_overhead]
            assert modes.decrypt_block(mode, key, file_id, 0, block) == data[:modes.BLOCK_SIZE]
        finally:
            if session is not None:
                session.destroy()


class TestTamper:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_block_transplant_same_file(self, make_vault, mode):
        handle = make_vault(mode, name=f"v-{mode.value}")
        data = random.Random(13).randbytes(3 * 32768)
        handle.write_file("t.bin", data)
        phys = handle.map_path("t.bin")
        raw = bytearray(phys.read_bytes())
        step = modes.BLOCK_SIZE + mode.block_overhead
        # copy block 0 over block 2
        raw[640 + 2 * step: 640 + 3 * step] = raw[640: 640 + step]
        phys.write_bytes(bytes(raw))
        with pytest.raises(AuthenticationFailure):
            handle.read_file("t.bin")

    def test_block_transplant_across_files(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        a = random.Random(1).randbytes(32768)
        b = random.Random(2).randbytes(32768)
        handle.write_file("a.bin", a)
        handle.write_file("b.bin", b)
        pa, pb = handle.map_path("a.bin"), handle.map_path("b.bin")
        rb = bytearray(pb.read_bytes())
        rb[640:] = pa.read_bytes()[640:]
        pb.write_bytes(bytes(rb))
        with pytest.raises(AuthenticationFailure):
            handle.read_file("b.bin")

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_truncated_final_block(self, make_vault, mode):
        handle = make_vault(mode, name=f"v-{mode.value}")
        handle.write_file("t.bin", b"q" * 40_000)
        phys = handle.map_path("t.bin")
        raw = phys.read_bytes()
        for cut in (1, 7, 100):
            phys.write_bytes(raw[:-cut])
            with pytest.raises((AuthenticationFailure, MalformedBlock)):
                handle.read_file("t.bin")

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_header_tamper(self, make_vault, mode):
        handle = make_vault(mode, name=f"v-{mode.value}")
        handle.write_file("h.bin", b"header bound")
        phys = handle.map_path("h.bin")
        raw = phys.read_bytes()
        # flip within file_id, within the protected key, and within padding
        for offset in (0, 30, 636):
            tampered = bytearray(raw)
            tampered[offset] ^= 0x80
            phys.write_bytes(bytes(tampered))
            with pytest.raises((AuthenticationFailure, MalformedBlock)):
                handle.read_file("h.bin")
        phys.write_bytes(raw)
        assert handle.read_file("h.bin") == b"header bound"


class TestNamespace:
    def test_list_dir_empty(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.make_dir("emptydir")
        assert handle.list_dir("emptydir") == []

    def test_list_dir_reports_sizes_from_ciphertext(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("d/a.bin", b"x" * 12345)
        handle.write_file("d/b.bin", b"")
        handle.make_dir("d/sub")
        entries = {e.name: e for e in handle.list_dir("d")}
        assert entries["a.bin"].kind == "file" and entries["a.bin"].size == 12345
        assert entries["b.bin"].size == 0
        assert entries["sub"].kind == "dir"

    def test_foreign_entry_is_unreadable_marker(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("d/real.bin", b"data")
        phys_dir = handle.map_path("d/real.bin").parent
        (phys_dir / "Zm9yZWlnbi1nYXJiYWdl.sc").write_bytes(b"not a vault object")
        entries = handle.list_dir("d")
        kinds = {e.kind for e in entries}
        assert "unreadable" in kinds
        readable = [e for e in entries if e.kind == "file"]
        assert [e.name for e in readable] == ["real.bin"]

    def test_sealed_size_reported_correctly(self, make_vault):
        # ciphertext 33968 in sealed mode must report exactly 32768
        handle = make_vault(modes.ModeId.SEALED)
        handle.write_file("s.bin", b"s" * 32768)
        assert handle.map_path("s.bin").stat().st_size == 33968
        entry = handle.list_dir("/")[0]
        assert entry.size == 32768

    def test_map_path_deterministic_and_injective(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        rng = random.Random(17)
        paths = []
        for i in range(200):
            depth = rng.randrange(1, 4)
            paths.append("/".join(f"d{rng.randrange(6)}" for _ in range(depth)) + f"/f{i}")
        for p in paths:
            handle.write_file(p, b".")
        physical = [handle.map_path(p) for p in paths]
        assert physical == [handle.map_path(p) for p in paths]
        assert len(set(physical)) == len(paths)

    def test_map_path_collision_scan(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        # no two logical leaf names map to one physical name within a directory
        seen = set()
        for i in range(10_000):
            phys = handle.map_path(f"scan-{i:05d}")
            assert phys not in seen
            seen.add(phys)

    def test_root_maps_under_zero_dir_id(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        root_phys = handle.map_path("/")
        digest = oracles.hmac_sha256(handle._keys().name_key, bytes(16)).hex()
        assert root_phys == handle.root / "d" / digest[:2] / digest[2:32]

    def test_remove_then_read(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("gone.bin", b"bye")
        handle.remove_file("gone.bin")
        with pytest.raises(NotFound):
            handle.read_file("gone.bin")

    def test_remove_dir_semantics(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("d/f", b"x")
        with pytest.raises(DirectoryNotEmpty):
            handle.remove_file("d")
        handle.remove_file("d/f")
        handle.remove_file("d")
        assert handle.list_dir("/") == []

    def test_rename_preserves_content_object(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        data = random.Random(23).randbytes(99_999)
        handle.write_file("old/name.bin", data)
        digest_before = hashlib.sha256(
            handle.map_path("old/name.bin").read_bytes()
        ).hexdigest()
        handle.make_dir("new")
        handle.rename_file("old/name.bin", "new/other.bin")
        digest_after = hashlib.sha256(
            handle.map_path("new/other.bin").read_bytes()
        ).hexdigest()
        assert digest_before == digest_after
        assert handle.read_file("new/other.bin") == data
        with pytest.raises(NotFound):
            handle.read_file("old/name.bin")

    def test_rename_directory(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("srcdir/inner/f.bin", b"nested")
        handle.rename_file("srcdir", "dstdir")
        assert handle.read_file("dstdir/inner/f.bin") == b"nested"

    def test_rename_missing(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        with pytest.raises(NotFound):
            handle.rename_file("missing", "anywhere")

    def test_walk(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("a/one", b"1")
        handle.write_file("a/b/two", b"2")
        handle.write_file("three", b"3")
        seen = {base: (sorted(dirs), sorted(files)) for base, dirs, files in handle.walk()}
        assert seen[""] == (["a"], ["three"])
        assert seen["a"] == (["b"], ["one"])
        assert seen["a/b"] == ([], ["two"])

    def test_walk_decrypts_each_name_once(self, make_vault, monkeypatch):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("a/one", b"1")
        handle.write_file("a/b/two", b"2")
        handle.write_file("three", b"3")
        calls = []
        real = modes.decrypt_filename

        def counting(name_key, dir_id, encoded):
            calls.append(encoded)
            return real(name_key, dir_id, encoded)

        monkeypatch.setattr(modes, "decrypt_filename", counting)
        list(handle.walk())
        # five entries: a, three, a/one, a/b, a/b/two
        assert len(calls) == 5


class TestOpacity:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_physical_namespace_leaks_nothing(self, make_vault, mode):
        handle = make_vault(mode, name=f"v-{mode.value}")
        rng = random.Random(31)
        corpus = []
        for i in range(25):
            name = f"secret-document-{rng.randrange(10**9)}.txt"
            content = rng.randbytes(rng.randrange(100, 60_000))
            handle.write_file(f"folder-{i % 3}/{name}", content)
            corpus.append(name.encode())
            corpus.append(content)
        findings = sync.scan_tree_opacity(handle.root, corpus)
        assert findings == []

    def test_scanner_detects_planted_leak(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        secret = b"this must never appear in the clear anywhere"
        handle.write_file("doc", secret)
        # plant the cleartext inside the vault tree, bypassing encryption
        (handle.root / "oops.bin").write_bytes(secret)
        findings = sync.scan_tree_opacity(handle.root, [secret])
        assert any(f["key"] == "oops.bin" for f in findings)


class TestDirectoryRename:
    def test_move_into_own_subtree_rejected(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("a/b/f.txt", b"deep")
        for dst in ("a", "a/b", "a/c", "a/b/c/d", "/a/b/"):
            with pytest.raises(InvalidName):
                handle.rename_file("a", dst)
        assert [e.name for e in handle.list_dir("/")] == ["a"]
        assert handle.read_file("a/b/f.txt") == b"deep"
        handle.rename_file("a", "ab")  # a name prefix, not a path prefix
        assert handle.read_file("ab/b/f.txt") == b"deep"

    def test_rebinds_dirid_and_leaves_no_staging(self, make_vault):
        handle = make_vault(modes.ModeId.SEALED)
        handle.write_file("x/d/f", b"1")
        handle.make_dir("y")
        handle.rename_file("x/d", "y/d2")
        assert handle.read_file("y/d2/f") == b"1"
        assert handle.list_dir("x") == []
        assert [e.name for e in handle.list_dir("y")] == ["d2"]
        for logical in ("x", "y"):
            shard_dir = handle.map_path(f"{logical}/any").parent
            assert not [p for p in shard_dir.iterdir() if p.name.startswith(vault.TEMP_PREFIX)]

    def test_failed_staged_rename_leaves_source_intact(self, make_vault, monkeypatch):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("src/f", b"payload")
        real_rename = os.rename

        def failing_rename(src, dst):
            if os.path.basename(src).startswith(vault.TEMP_PREFIX):
                raise OSError(errno.EIO, "simulated crash in the staged rename")
            return real_rename(src, dst)

        monkeypatch.setattr(os, "rename", failing_rename)
        with pytest.raises(OSError):
            handle.rename_file("src", "dst")
        monkeypatch.undo()
        assert [e.name for e in handle.list_dir("/")] == ["src"]
        assert handle.read_file("src/f") == b"payload"
        root_shard = handle.map_path("/")
        assert not [p for p in root_shard.iterdir() if p.name.startswith(vault.TEMP_PREFIX)]

    def test_lost_race_is_target_not_empty(self, make_vault, monkeypatch):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("src/f", b"ours")
        real_rename = os.rename
        raced = []

        def racing_rename(src, dst):
            if os.path.basename(src).startswith(vault.TEMP_PREFIX) and not raced:
                raced.append(dst)  # another writer creates the destination first
                handle.write_file("dst/theirs", b"theirs")
            return real_rename(src, dst)

        monkeypatch.setattr(os, "rename", racing_rename)
        with pytest.raises(TargetNotEmpty):
            handle.rename_file("src", "dst")
        monkeypatch.undo()
        assert raced
        assert handle.read_file("src/f") == b"ours"
        assert [e.name for e in handle.list_dir("dst")] == ["theirs"]
        assert handle.read_file("dst/theirs") == b"theirs"

    def test_crash_before_source_removed_keeps_both_names(self, make_vault, monkeypatch):
        handle = make_vault(modes.ModeId.SEALED)
        handle.write_file("src/f", b"payload")
        handle.write_file("src/sub/g", b"nested")

        def crash(entry):
            raise RuntimeError("simulated crash before the source entry is removed")

        monkeypatch.setattr(vault.VaultHandle, "_drop_dir_entry", staticmethod(crash))
        with pytest.raises(RuntimeError):
            handle.rename_file("src", "dst")
        monkeypatch.undo()
        assert [e.name for e in handle.list_dir("/")] == ["dst", "src"]
        assert handle.list_dir("src") == handle.list_dir("dst")
        for name in ("src", "dst"):
            assert handle.read_file(f"{name}/f") == b"payload"
            assert handle.read_file(f"{name}/sub/g") == b"nested"
        handle.write_file("dst/h", b"new")  # one directory behind both names
        assert handle.read_file("src/h") == b"new"


class TestDirectoryRemoval:
    @pytest.mark.parametrize("step", ["unlink", "rmdir"])
    def test_crash_leaves_only_a_skipped_name(self, make_vault, monkeypatch, step):
        handle = make_vault(modes.ModeId.SEALED)
        handle.write_file("p/keep.txt", b"kept")
        handle.make_dir("p/gone")
        real = getattr(os, step)

        def crash(path, *args, **kwargs):
            if any(part.startswith(vault.TEMP_PREFIX) for part in Path(path).parts):
                raise RuntimeError(f"simulated crash at the {step} of a removal")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, step, crash)
        with pytest.raises(RuntimeError):
            handle.remove_file("p/gone")
        monkeypatch.undo()
        assert [e.name for e in handle.list_dir("p")] == ["keep.txt"]
        assert list(handle.walk("/")) == [("", ["p"], []), ("p", [], ["keep.txt"])]
        handle.make_dir("p/gone")
        handle.write_file("p/gone/new.txt", b"new")
        assert handle.read_file("p/gone/new.txt") == b"new"
        assert handle.read_file("p/keep.txt") == b"kept"

    def test_removed_entry_leaves_nothing(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.make_dir("p/gone")
        handle.write_file("p/keep.txt", b"kept")
        shard = handle.map_path("p/keep.txt").parent
        handle.remove_file("p/gone")
        assert [p.name for p in shard.iterdir()] == [handle.map_path("p/keep.txt").name]
        with pytest.raises(NotFound):
            handle.remove_file("p/gone")

    @staticmethod
    def _leave_temp_leftover(handle, monkeypatch, leftover):
        """Leave a `.tmp-` name in p's shard, as a crashed child operation does."""
        if leftover == "entry":  # a directory removal cut off at its unlink
            handle.make_dir("p/gone")
            real = os.unlink

            def crash(path, *args, **kwargs):
                if any(part.startswith(vault.TEMP_PREFIX) for part in Path(path).parts):
                    raise RuntimeError("simulated crash at the unlink")
                return real(path, *args, **kwargs)

            monkeypatch.setattr(os, "unlink", crash)
            with pytest.raises(RuntimeError):
                handle.remove_file("p/gone")
            monkeypatch.undo()
            shard = handle.map_path("p/any").parent
        else:  # a killed write: its temp file, which no cleanup ran for
            handle.make_dir("p")
            shard = handle.map_path("p/any").parent
            shard.mkdir(parents=True, exist_ok=True)
            (shard / f"{vault.TEMP_PREFIX}0123abcd").write_bytes(b"partial object")
        assert [p.name[:len(vault.TEMP_PREFIX)] for p in shard.iterdir()] == [vault.TEMP_PREFIX]
        return shard

    @pytest.mark.parametrize("leftover", ["entry", "file"])
    def test_temp_leftover_does_not_block_parent_removal(self, make_vault, monkeypatch, leftover):
        handle = make_vault(modes.ModeId.V1)
        shard = self._leave_temp_leftover(handle, monkeypatch, leftover)
        assert handle.list_dir("p") == []
        handle.remove_file("p")
        assert not shard.exists()
        assert handle.list_dir("/") == []
        handle.write_file("p/again.txt", b"again")
        assert handle.read_file("p/again.txt") == b"again"

    @pytest.mark.parametrize("leftover", ["entry", "file"])
    def test_real_child_beside_leftover_keeps_directory(self, make_vault, monkeypatch, leftover):
        handle = make_vault(modes.ModeId.V1)
        shard = self._leave_temp_leftover(handle, monkeypatch, leftover)
        handle.write_file("p/real.txt", b"real")
        with pytest.raises(DirectoryNotEmpty):
            handle.remove_file("p")
        assert [e.name for e in handle.list_dir("p")] == ["real.txt"]
        assert handle.read_file("p/real.txt") == b"real"
        assert any(p.name.startswith(vault.TEMP_PREFIX) for p in shard.iterdir())


class TestResolverErrors:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_entry_without_dirid_is_not_found(self, make_vault, mode):
        handle = make_vault(mode)
        handle.write_file("a/f.txt", b"inner")
        handle.write_file("b.txt", b"outer")
        os.unlink(handle.map_path("a") / vault.DIRID_NAME)
        calls = [
            lambda: handle.read_file("a/f.txt"),
            lambda: handle.read_range("a/f.txt", 0, 1),
            lambda: handle.list_dir("a"),
            lambda: handle.map_path("a/f.txt"),
            lambda: list(handle.walk("/")),
            lambda: handle.remove_file("a"),
            lambda: handle.rename_file("a", "c"),
        ]
        for call in calls:
            with pytest.raises(NotFound):
                call()
        assert not handle.exists("a/f.txt")
        assert handle.read_file("b.txt") == b"outer"

    def test_file_and_directory_mismatches(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("f", b"file")
        handle.make_dir("d")
        for call in (lambda: handle.read_file("f/x"), lambda: handle.list_dir("f"),
                     lambda: handle.read_file("d")):
            with pytest.raises(NotFound):
                call()
        for src, dst in (("d", "f"), ("f", "d")):
            with pytest.raises(TargetNotEmpty):
                handle.rename_file(src, dst)
        assert handle.read_file("f") == b"file"
        assert [e.name for e in handle.list_dir("/")] == ["d", "f"]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_exists(self, make_vault, mode):
        handle = make_vault(mode)
        handle.write_file("d/f", b"file")
        handle.make_dir("e")
        for path in ("d/f", "d", "e", "/", ""):
            assert handle.exists(path), path
        # a missing leaf, a missing parent at each depth, a file in the way
        for path in ("d/g", "x/f", "x/y/f", "d/f/x"):
            assert not handle.exists(path), path


@pytest.fixture
def reopen(platform):
    """Factory: another handle on the root of an open handle."""
    handles = []

    def _reopen(handle):
        plat = platform if handle.mode is modes.ModeId.SEALED else None
        other = vault.unlock_vault(handle.root, TEST_PASSWORD, platform=plat)
        handles.append(other)
        return other

    yield _reopen
    for handle in handles:
        if not handle.is_locked:
            handle.lock()


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:
        return "error", type(exc).__name__


class TestLookupMemo:
    """A handle memoizes each (parent dir id, name) lookup, yet reads every
    level's dirid object, so changes made elsewhere show at once."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_rename_by_second_handle(self, make_vault, reopen, mode):
        warm = make_vault(mode)
        warm.write_file("a/f", b"moved")
        assert warm.read_file("a/f") == b"moved"
        reopen(warm).rename_file("a", "b")
        with pytest.raises(NotFound):
            warm.read_file("a/f")
        assert warm.read_file("b/f") == b"moved"

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_remove_and_recreate_by_second_handle(self, make_vault, reopen, mode):
        warm = make_vault(mode)
        warm.write_file("a/old", b"old")
        assert warm.read_file("a/old") == b"old"
        old_shard = os.path.dirname(warm.map_path("a/old"))
        other = reopen(warm)
        other.remove_file("a/old")
        other.remove_file("a")
        other.make_dir("a")
        warm.write_file("a/new", b"new")
        assert os.path.dirname(warm.map_path("a/new")) != old_shard
        assert reopen(warm).read_file("a/new") == b"new"
        assert [e.name for e in reopen(warm).list_dir("a")] == ["new"]
        with pytest.raises(NotFound):
            warm.read_file("a/old")

    def test_replica_pull_replaces_dirid(self, tmp_path, make_vault):
        source = make_vault(modes.ModeId.V1, name="source")
        source.write_file("a/f", b"first")
        store = sync.LocalDirStore(tmp_path / "remote")
        sync.sync(source.root, store, sync.SyncState(source.root / sync.STATE_NAME))
        replica = tmp_path / "replica"
        replica.mkdir()
        sync.sync(replica, store, sync.SyncState(replica / sync.STATE_NAME))
        warm = vault.unlock_vault(replica, TEST_PASSWORD)
        assert warm.read_file("a/f") == b"first"
        dirid = warm.map_path("a") / vault.DIRID_NAME
        before = dirid.read_bytes()
        source.remove_file("a/f")
        source.remove_file("a")
        source.write_file("a/f", b"second")
        sync.sync(source.root, store, sync.SyncState(source.root / sync.STATE_NAME))
        sync.sync(replica, store, sync.SyncState(replica / sync.STATE_NAME))
        assert dirid.read_bytes() != before
        assert warm.read_file("a/f") == b"second"
        warm.lock()

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_tampered_dirid_fails_on_warm_handle(self, make_vault, mode):
        warm = make_vault(mode)
        warm.write_file("a/f", b"data")
        warm.write_file("x/y/g", b"other")
        assert warm.read_file("a/f") == b"data"
        dirid = warm.map_path("a") / vault.DIRID_NAME
        good = dirid.read_bytes()
        flipped = bytearray(good)
        flipped[20] ^= 0x01
        dirid.write_bytes(bytes(flipped))
        with pytest.raises(AuthenticationFailure):
            warm.read_file("a/f")
        # a valid dirid object, but bound to another parent directory
        dirid.write_bytes((warm.map_path("x/y") / vault.DIRID_NAME).read_bytes())
        with pytest.raises(AuthenticationFailure):
            warm.read_file("a/f")
        dirid.write_bytes(good)
        assert warm.read_file("a/f") == b"data"

    def test_lock_empties_memo(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("a/b/f", b"data")
        assert handle.read_file("a/b/f") == b"data"
        assert handle._memo
        handle.lock()
        assert handle._memo == {}
        with pytest.raises(VaultLocked):
            handle.read_file("a/b/f")

    def test_memo_is_bounded(self, make_vault, monkeypatch):
        monkeypatch.setattr(vault, "_LOOKUP_MEMO_SIZE", 5)
        handle = make_vault(modes.ModeId.V1)
        for i in range(12):
            handle.write_file(f"d{i}/f", bytes([i]))
        for i in range(12):
            assert handle.read_file(f"d{i}/f") == bytes([i])
            assert len(handle._memo) <= 5

    def test_threaded_readers_with_small_cap(self, make_vault, monkeypatch):
        monkeypatch.setattr(vault, "_LOOKUP_MEMO_SIZE", 3)
        handle = make_vault(modes.ModeId.V1)
        paths = {f"p{i % 3}/q{i % 2}/f{i}": os.urandom(64 + i) for i in range(9)}
        for path, data in paths.items():
            handle.write_file(path, data)
        errors = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(150):
                    path = rng.choice(sorted(paths))
                    assert handle.read_file(path) == paths[path]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-lookup
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(handle._memo) <= 3 + len(threads)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_handles_agree_with_fresh_handle(self, make_vault, reopen, seed):
        """Random namespace ops, each on one of two long-lived handles; after
        each, both answer every read and listing as a fresh handle does."""
        rng = random.Random(seed)
        first = make_vault(modes.ModeId.V1)
        handles = (first, reopen(first))
        dirs = ["a", "b", "a/a", "a/b", "b/a"]
        files = [f"{d}/{n}".lstrip("/") for d in ["", *dirs] for n in ("f", "g")]
        expected = (NotFound, DirectoryNotEmpty, TargetNotEmpty, InvalidName)
        for step in range(40):
            actor = rng.choice(handles)
            op = rng.choice(["write", "write", "remove", "rename", "make_dir"])
            try:
                if op == "write":
                    actor.write_file(rng.choice(files), os.urandom(rng.randrange(1, 80)))
                elif op == "remove":
                    actor.remove_file(rng.choice(files + dirs))
                elif op == "rename":
                    actor.rename_file(rng.choice(files + dirs), rng.choice(files + dirs))
                else:
                    actor.make_dir(rng.choice(dirs))
            except expected:
                pass
            fresh = reopen(first)
            for path in files:
                want = _outcome(lambda: fresh.read_file(path))
                assert [_outcome(lambda: h.read_file(path)) for h in handles] == [want] * 2, \
                    (step, op, path)
            for path in ["", *dirs]:
                want = _outcome(lambda: fresh.list_dir(path))
                assert [_outcome(lambda: h.list_dir(path)) for h in handles] == [want] * 2, \
                    (step, op, path)
            fresh.lock()


def _foreign_vault(tmp_path, mode, other_platform):
    """A vault whose keys this test's vaults do not share: a v1 vault has
    its own content key, a sealed one is sealed to another platform."""
    root = tmp_path / "foreign"
    plat = other_platform if mode is modes.ModeId.SEALED else None
    vault.create_vault(root, TEST_PASSWORD, mode, platform=plat, iterations=TEST_ITERATIONS)
    return vault.unlock_vault(root, TEST_PASSWORD, platform=plat)


class TestHeaderAndNameMemo:
    """A handle memoizes file headers by physical entry, checked against the
    header bytes read at every open, and decrypted names by (dir id,
    encoded name), filled only by names that authenticated."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_object_copied_over_entry_reads_as_new_content(self, make_vault, mode):
        warm = make_vault(mode)
        first, second = os.urandom(40_000), os.urandom(5_000)
        warm.write_file("d/a", first)
        warm.write_file("e/b", second)
        assert warm.read_file("d/a") == first
        assert warm.read_range("d/a", 100, 50) == first[100:150]
        warm.map_path("d/a").write_bytes(warm.map_path("e/b").read_bytes())
        assert warm.read_file("d/a") == second
        assert warm.read_range("d/a", 100, 50) == second[100:150]
        assert _read_to_bytes(warm, "d/a") == second

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_foreign_header_fails_on_warm_handle(self, make_vault, tmp_path,
                                                 other_platform, mode):
        warm = make_vault(mode)
        warm.write_file("h.bin", b"header bound")
        assert warm.read_file("h.bin") == b"header bound"
        foreign = _foreign_vault(tmp_path, mode, other_platform)
        foreign.write_file("h.bin", b"header bound")
        foreign_header = foreign.map_path("h.bin").read_bytes()[:vault.FILE_HEADER_SIZE]
        foreign.lock()
        phys = warm.map_path("h.bin")
        good = phys.read_bytes()
        phys.write_bytes(foreign_header + good[vault.FILE_HEADER_SIZE:])
        for read in (lambda: warm.read_file("h.bin"), lambda: warm.read_range("h.bin", 0, 6)):
            with pytest.raises(AuthenticationFailure):
                read()
        phys.write_bytes(good)
        assert warm.read_range("h.bin", 7, 5) == b"bound"

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_overwrite_by_second_handle_shows_at_next_read(self, make_vault, reopen, mode):
        warm = make_vault(mode)
        warm.write_file("d/f", b"old contents")
        assert warm.read_file("d/f") == b"old contents"
        reopen(warm).write_file("d/f", b"new contents, longer")
        assert warm.read_file("d/f") == b"new contents, longer"
        assert warm.read_range("d/f", 4, 8) == b"contents"
        assert warm.list_dir("d") == [vault.DirEntry("f", "file", 20)]

    def test_lock_empties_memos_and_drops_the_name_key(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("a/f", b"data")
        assert handle.read_file("a/f") == b"data"
        assert [e.name for e in handle.list_dir("a")] == ["f"]
        name_key = handle._keys().name_key
        assert handle._headers and handle._names and name_key in modes._name_sivs
        handle.lock()
        assert handle._headers == {} and handle._names == {}
        assert name_key not in modes._name_sivs
        with pytest.raises(VaultLocked):
            handle.list_dir("a")

    def test_memos_are_bounded(self, make_vault, monkeypatch):
        monkeypatch.setattr(vault, "_LOOKUP_MEMO_SIZE", 5)
        handle = make_vault(modes.ModeId.SEALED)
        for i in range(12):
            handle.write_file(f"d/f{i:02d}", bytes([i]))
            assert len(handle._headers) <= 5
        for _ in range(2):
            for i in range(12):
                assert handle.read_file(f"d/f{i:02d}") == bytes([i])
                assert len(handle._headers) <= 5
            assert [e.name for e in handle.list_dir("d")] == [f"f{i:02d}" for i in range(12)]
            assert len(handle._names) <= 5

    def test_threaded_readers_and_writer_with_small_cap(self, make_vault, monkeypatch):
        """Readers share one handle's memos with a writer overwriting the
        files they read; every read returns a version that was written."""
        monkeypatch.setattr(vault, "_LOOKUP_MEMO_SIZE", 3)
        handle = make_vault(modes.ModeId.SEALED)
        paths = [f"d{i % 2}/f{i}" for i in range(6)]
        versions = {p: [bytes([i, v]) * 3000 for v in range(4)] for i, p in enumerate(paths)}
        for path in paths:
            handle.write_file(path, versions[path][0])
        errors = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(80):
                    path = rng.choice(paths)
                    assert handle.read_file(path) in versions[path]
                    assert handle.read_range(path, 1000, 2) in {v[1000:1002] for v in versions[path]}
                    listed = handle.list_dir(path.split("/")[0])
                    assert {e.name for e in listed} == {p.split("/")[1] for p in paths
                                                       if p.startswith(path.split("/")[0])}
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        def writer():
            rng = random.Random(99)
            try:
                for _ in range(40):
                    path = rng.choice(paths)
                    handle.write_file(path, rng.choice(versions[path]))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-read
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(handle._headers) <= 3 + len(threads)
        assert len(handle._names) <= 3 + len(threads)

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("seed", [11, 12])
    def test_warm_handles_agree_with_fresh_handle(self, make_vault, reopen, mode, seed):
        """Random writes, overwrites, renames and removes, each on one of two
        long-lived handles; after each, both answer every read_file,
        read_range and list_dir as a fresh handle does."""
        rng = random.Random(seed)
        first = make_vault(mode)
        handles = (first, reopen(first))
        dirs = ["a", "b", "a/a"]
        files = [f"{d}/{n}".lstrip("/") for d in ["", *dirs] for n in ("f", "g")]
        expected = (NotFound, DirectoryNotEmpty, TargetNotEmpty, InvalidName)
        for step in range(30):
            actor = rng.choice(handles)
            op = rng.choice(["write", "write", "remove", "rename", "make_dir"])
            try:
                if op == "write":
                    size = rng.choice([1, rng.randrange(2, 200), rng.randrange(32_000, 70_000)])
                    actor.write_file(rng.choice(files), os.urandom(size))
                elif op == "remove":
                    actor.remove_file(rng.choice(files + dirs))
                elif op == "rename":
                    actor.rename_file(rng.choice(files + dirs), rng.choice(files + dirs))
                else:
                    actor.make_dir(rng.choice(dirs))
            except expected:
                pass
            fresh = reopen(first)
            for path in files:
                offset, length = rng.randrange(0, 70_000), rng.randrange(1, 40_000)
                for read in (lambda h: h.read_file(path),
                             lambda h: h.read_range(path, offset, length)):
                    want = _outcome(lambda: read(fresh))
                    assert [_outcome(lambda: read(h)) for h in handles] == [want] * 2, \
                        (step, op, path)
            for path in ["", *dirs]:
                want = _outcome(lambda: fresh.list_dir(path))
                assert [_outcome(lambda: h.list_dir(path)) for h in handles] == [want] * 2, \
                    (step, op, path)
            fresh.lock()


_opened: list[str] | None = None  # paths opened while a test collects them
_audit_installed = False


def _audit(event, args):
    if event == "open" and _opened is not None:
        _opened.append(os.fsdecode(args[0]))


class TestLookupCost:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_warm_depth8_read_encrypts_and_decrypts_no_names(self, make_vault, reopen,
                                                               monkeypatch, mode):
        """A warm read at depth 8 encrypts no name and decrypts no dir id,
        and makes 9 opens: one dirid object per level and the file."""
        global _opened, _audit_installed
        if not _audit_installed:
            sys.addaudithook(_audit)  # hooks cannot be removed; it idles when unused
            _audit_installed = True
        handle = make_vault(mode)
        path = "/".join(f"d{i}" for i in range(8)) + "/f"
        handle.write_file(path, b"x" * 100)
        counts = {"encrypt_filename": 0, "dirid_decrypt": 0}
        encrypt_filename, aesgcm = modes.encrypt_filename, vault.AESGCM

        def counting_encrypt(*args):
            counts["encrypt_filename"] += 1
            return encrypt_filename(*args)

        class CountingAESGCM:
            def __init__(self, key):
                self._inner = aesgcm(key)
                self.encrypt = self._inner.encrypt

            def decrypt(self, *args):
                counts["dirid_decrypt"] += 1
                return self._inner.decrypt(*args)

        monkeypatch.setattr(modes, "encrypt_filename", counting_encrypt)
        monkeypatch.setattr(vault, "AESGCM", CountingAESGCM)
        cold = reopen(handle)
        assert cold.read_file(path) == b"x" * 100
        assert counts == {"encrypt_filename": 9, "dirid_decrypt": 8}
        for warm in (handle, cold):
            counts.update(encrypt_filename=0, dirid_decrypt=0)
            _opened = opened = []
            try:
                assert warm.read_file(path) == b"x" * 100
            finally:
                _opened = None
            assert counts == {"encrypt_filename": 0, "dirid_decrypt": 0}
            assert len(opened) == 9
            assert sum(os.path.basename(p) == vault.DIRID_NAME for p in opened) == 8
            assert opened[-1] == str(warm.map_path(path))

    def test_warm_sealed_read_unseals_no_header(self, make_vault, reopen, monkeypatch):
        """A cold handle unseals a file's key once; after that, and after
        the handle's own write, a read unseals only the blocks it reads."""
        handle = make_vault(modes.ModeId.SEALED)
        data = os.urandom(100_000)
        handle.write_file("d/f", data)
        cold = reopen(handle)
        unseals = []
        unseal = tee.unseal

        def counting(*args):
            unseals.append(args)
            return unseal(*args)

        monkeypatch.setattr(tee, "unseal", counting)
        assert cold.read_range("d/f", 40_000, 4096) == data[40_000:44_096]
        assert len(unseals) == 1
        for warm in (cold, handle):
            unseals.clear()
            assert warm.read_range("d/f", 70_000, 4096) == data[70_000:74_096]
            assert warm.read_file("d/f") == data
            assert _read_to_bytes(warm, "d/f", 5) == data[5:]
            assert unseals == []

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_warm_listing_decrypts_no_names(self, make_vault, monkeypatch, mode):
        handle = make_vault(mode)
        for i in range(10):
            handle.write_file(f"d/f{i}", b"x" * i)
        calls = []
        decrypt_filename = modes.decrypt_filename

        def counting(*args):
            calls.append(args)
            return decrypt_filename(*args)

        monkeypatch.setattr(modes, "decrypt_filename", counting)
        want = [vault.DirEntry(f"f{i}", "file", i) for i in range(10)]
        assert handle.list_dir("d") == want
        assert len(calls) == 10
        calls.clear()
        assert handle.list_dir("d") == want
        assert calls == []

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_tampered_and_foreign_names_stay_unreadable(self, make_vault, monkeypatch, mode):
        """A name that fails is decrypted again at every listing, never
        memoized; the names that authenticated are not."""
        handle = make_vault(mode)
        handle.write_file("d/real", b"data")
        handle.write_file("e/moved", b"from another directory")
        handle.write_file("d/victim", b"its name is tampered")
        assert {e.name for e in handle.list_dir("d")} == {"real", "victim"}
        shard = handle.map_path("d/real").parent
        victim = handle.map_path("d/victim")
        body = victim.name[:-len(modes.NAME_SUFFIX)]
        flipped = body[:5] + ("A" if body[5] != "A" else "B") + body[6:] + modes.NAME_SUFFIX
        victim.rename(shard / flipped)
        moved = handle.map_path("e/moved")
        moved.rename(shard / moved.name)  # valid name, bound to another dir id
        (shard / "Zm9yZWlnbi1nYXJiYWdl.sc").write_bytes(b"not a vault object")
        unreadable = sorted([flipped, moved.name, "Zm9yZWlnbi1nYXJiYWdl.sc"])
        calls = []
        decrypt_filename = modes.decrypt_filename

        def counting(name_key, dir_id, encoded):
            calls.append(encoded)
            return decrypt_filename(name_key, dir_id, encoded)

        monkeypatch.setattr(modes, "decrypt_filename", counting)
        for _ in range(2):
            calls.clear()
            entries = handle.list_dir("d")
            assert sorted(e.name for e in entries if e.kind == "unreadable") == unreadable
            assert [e.name for e in entries if e.kind == "file"] == ["real"]
            assert sorted(calls) == unreadable

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_name_renamed_away_drops_out_of_listing(self, make_vault, reopen, mode):
        warm = make_vault(mode)
        warm.write_file("d/f", b"1")
        warm.write_file("d/g", b"22")
        warm.make_dir("d/sub")
        assert [e.name for e in warm.list_dir("d")] == ["f", "g", "sub"]
        other = reopen(warm)
        other.make_dir("e")
        other.rename_file("d/f", "e/f")
        other.rename_file("d/sub", "e/sub")
        assert warm.list_dir("d") == [vault.DirEntry("g", "file", 2)]
        assert [e.name for e in warm.list_dir("e")] == ["f", "sub"]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_warm_small_read_file_makes_four_calls(self, make_vault, monkeypatch, mode):
        """At depth 1 no dirid object is read, so every call counted is on
        the object: one open, one fstat, one read of header and block, one
        close."""
        handle = make_vault(mode)
        data = os.urandom(2000)
        handle.write_file("f", data)
        assert handle.read_file("f") == data
        with monkeypatch.context() as m:
            counts = _count_os_calls(m)
            got = handle.read_file("f")
        assert got == data
        assert counts == {"open": 1, "fstat": 1, "read": 1, "lseek": 0, "close": 1}

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_read_range_and_reader_read_by_offset(self, make_vault, monkeypatch, mode):
        handle = make_vault(mode)
        data = os.urandom(3 * modes.BLOCK_SIZE)
        handle.write_file("f", data)
        assert handle.read_file("f") == data
        with monkeypatch.context() as m:
            counts = _count_os_calls(m)
            got = handle.read_range("f", 40_000, 4096)
        assert got == data[40_000:44_096]
        assert counts == {"open": 1, "fstat": 1, "read": 2, "lseek": 0, "close": 1}
        with handle.open("f") as f, monkeypatch.context() as m:
            counts = _count_os_calls(m)
            f.seek(70_000)
            assert f.read(100) == data[70_000:70_100]
            f.seek(10)
            assert f.read(100) == data[10:110]
        assert counts["lseek"] == 0 and counts["read"] == 2

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_warm_overwrite_makes_no_mkdir_and_one_stat(self, make_vault, monkeypatch, mode):
        """The shard is there, so nothing makes it: the one stat is the
        replaced object's."""
        handle = make_vault(mode)
        handle.write_file("f", b"old")
        counts = {"mkdir": 0, "stat": 0}
        with monkeypatch.context() as m:
            for name in counts:
                def counting(*args, _real=getattr(vault.os, name), _name=name, **kwargs):
                    counts[_name] += 1
                    return _real(*args, **kwargs)

                m.setattr(vault.os, name, counting)
            handle.write_file("f", b"new")
        assert counts == {"mkdir": 0, "stat": 1}
        assert handle.read_file("f") == b"new"

    def test_split_memo_is_bounded_and_emptied_by_lock(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("d/f", b"data")
        for i in range(10_000):
            assert not handle.exists(f"new{i}/f")
        assert handle.read_file("d/f") == b"data"
        assert 0 < len(handle._splits) <= vault._LOOKUP_MEMO_SIZE
        handle.lock()
        assert handle._splits == {}
        with pytest.raises(VaultLocked):
            handle.read_file("d/f")
        assert handle._splits == {}  # a locked handle memoizes no name


class TestAtomicWrite:
    def test_failed_body_keeps_old_content_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "obj"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with vault.atomic_write(target) as out:
                out.write(b"half of the new")
                raise RuntimeError("simulated crash mid-write")
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["obj"]
        with vault.atomic_write(target) as out:
            out.write(b"new")
        assert target.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["obj"]

    def test_enospc_is_storage_full(self, tmp_path):
        with pytest.raises(StorageFull):
            with vault.atomic_write(tmp_path / "obj"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert list(tmp_path.iterdir()) == []

    def test_missing_parents_are_made(self, tmp_path):
        target = tmp_path / "a" / "b" / "obj"
        with vault.atomic_write(target) as out:
            out.write(b"data")
        assert target.read_bytes() == b"data"
        assert [p.name for p in target.parent.iterdir()] == ["obj"]

    def test_failed_body_in_made_parent_leaves_parent_and_no_temp(self, tmp_path):
        with pytest.raises(RuntimeError):
            with vault.atomic_write(tmp_path / "new" / "obj") as out:
                out.write(b"half")
                raise RuntimeError("simulated crash mid-write")
        assert list((tmp_path / "new").iterdir()) == []

    def test_enospc_in_made_parent_is_storage_full(self, tmp_path):
        with pytest.raises(StorageFull):
            with vault.atomic_write(tmp_path / "new" / "obj"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert list((tmp_path / "new").iterdir()) == []


class TestExclusiveLock:
    def test_lock_in_missing_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / ".lock"
        with vault.exclusive_lock(path, "the first holder"):
            assert path.is_file()
            with pytest.raises(VaultError, match="the first holder holds the lock"):
                with vault.exclusive_lock(path, "the first holder"):
                    pass
        with vault.exclusive_lock(path, "the first holder"):
            pass


# Cleartext of a previous version whose object write_file holds across the
# rename that replaces it: just over one batch.
LARGE = vault.BATCH_BLOCKS * modes.BLOCK_SIZE + 1


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _temp_leftovers(handle, path):
    return [p for p in handle.map_path(path).parent.iterdir()
            if p.name.startswith(vault.TEMP_PREFIX)]


def _count_os_calls(monkeypatch) -> dict[str, int]:
    """Count the vault's os.open, os.fstat, reads of any kind, os.lseek and
    os.close calls from now until `monkeypatch` is undone."""
    counts = {"open": 0, "fstat": 0, "read": 0, "lseek": 0, "close": 0}
    for name in ("open", "fstat", "read", "pread", "preadv", "readv", "lseek", "close"):
        kind = "read" if "read" in name else name

        def counting(*args, _real=getattr(vault.os, name), _kind=kind):
            counts[_kind] += 1
            return _real(*args)

        monkeypatch.setattr(vault.os, name, counting)
    return counts


def _flip(path, offset):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0x01
    path.write_bytes(bytes(raw))


def _read_through_reader(handle, path):
    with handle.open(path) as f:
        return f.read()


_READS = {
    "read_file": lambda handle, path: handle.read_file(path),
    "read_range": lambda handle, path: handle.read_range(path, 0, LARGE),
    "FileReader": _read_through_reader,
}


class TestReadDescriptors:
    """Every failing read closes the descriptor it opened."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("read", list(_READS))
    def test_failed_reads_leave_no_descriptor(self, make_vault, mode, read):
        handle = make_vault(mode)
        call = _READS[read]
        handle.make_dir("dir")
        data = os.urandom(LARGE)  # two batches: the bad block is read by offset
        for name in ("truncated", "header", "block"):
            handle.write_file(name, data)
        phys = {name: handle.map_path(name) for name in ("truncated", "header", "block")}
        phys["truncated"].write_bytes(phys["truncated"].read_bytes()[:-1])
        _flip(phys["header"], 16 + handle._keys().protected_size - 1)
        _flip(phys["block"], phys["block"].stat().st_size - 1)
        for path, error in (("dir", NotFound), ("truncated", MalformedBlock),
                            ("header", AuthenticationFailure),
                            ("block", AuthenticationFailure)):
            baseline = _open_fds()
            with pytest.raises(error):
                call(handle, path)
            assert _open_fds() == baseline, path

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_reader_on_a_locked_handle_closes(self, make_vault, mode):
        handle = make_vault(mode)
        handle.write_file("f", b"contents")
        baseline = _open_fds()
        with handle.open("f") as f:
            assert f.read(4) == b"cont"
            handle.lock()
            with pytest.raises(VaultLocked):
                f.read()
        assert _open_fds() == baseline


class TestWriteDurabilityOrder:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_writeback_per_batch_then_fsync_then_rename(self, make_vault, mode, monkeypatch):
        handle = make_vault(mode)
        handle.write_file("big.bin", b"previous version")
        events = []
        real_kick, real_fsync, real_replace = vault._start_writeback, os.fsync, os.replace

        def kick(fd, offset, length):
            events.append(("kick", fd, offset, length))
            real_kick(fd, offset, length)

        def fsync(fd):
            events.append(("fsync", fd))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(src), dst))
            real_replace(src, dst)

        monkeypatch.setattr(vault, "_start_writeback", kick)
        monkeypatch.setattr(vault.os, "fsync", fsync)
        monkeypatch.setattr(vault.os, "replace", replace)
        batches = 3
        data = os.urandom(batches * vault.BATCH_BLOCKS * modes.BLOCK_SIZE - 100)
        handle.write_file("big.bin", data)
        monkeypatch.undo()
        assert [e[0] for e in events] == ["kick"] * batches + ["fsync", "replace"]
        fd = events[batches][1]
        offset = vault.FILE_HEADER_SIZE
        for _, kicked_fd, start, length in events[:batches]:
            assert kicked_fd == fd and start == offset
            offset += length
        target = handle.map_path("big.bin")
        assert offset == target.stat().st_size  # every block's writeback was started
        _, temp, dst = events[-1]
        assert temp.startswith(vault.TEMP_PREFIX) and dst == str(target)
        assert handle.read_file("big.bin") == data

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_writes_round_trip_without_sync_file_range(self, make_vault, mode, monkeypatch):
        monkeypatch.setattr(vault, "_sync_file_range", None)
        handle = make_vault(mode)
        data = os.urandom(2 * vault.BATCH_BLOCKS * modes.BLOCK_SIZE + 7)
        handle.write_file("a.bin", data)
        handle.write_file("a.bin", io.BytesIO(data[::-1]))
        assert handle.read_file("a.bin") == data[::-1]

    def test_failed_writeback_start_is_ignored(self):
        vault._start_writeback(-1, 0, 4096)  # EBADF; the fsync that follows reports I/O errors


class TestReplacedObjectRelease:
    @pytest.mark.parametrize("failure", ["stream", "enospc", "replace"])
    def test_failed_overwrite_keeps_old_version_and_holds_nothing(self, make_vault,
                                                                  monkeypatch, failure):
        handle = make_vault(modes.ModeId.V1)
        old = os.urandom(2 * LARGE)
        handle.write_file("big.bin", old)
        target = str(handle.map_path("big.bin"))
        baseline = _open_fds()
        held, real_os_open = [], os.open

        def recording_open(path, flags, *args, **kwargs):
            fd = real_os_open(path, flags, *args, **kwargs)
            if path == target:
                held.append(fd)
            return fd

        monkeypatch.setattr(vault.os, "open", recording_open)
        new = os.urandom(3 * LARGE)
        if failure == "stream":
            class Exploding(io.RawIOBase):
                given = 0

                def readinto(self, view):
                    if self.given >= LARGE:
                        raise RuntimeError("source failed mid-write")
                    view[:] = new[self.given:self.given + len(view)]
                    self.given += len(view)
                    return len(view)

            with pytest.raises(RuntimeError):
                handle.write_file("big.bin", Exploding())
        elif failure == "enospc":
            class FullDisk(io.FileIO):
                def write(self, data):
                    if self.tell() >= vault.FILE_HEADER_SIZE:  # the header fits
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                    return super().write(data)

            monkeypatch.setattr(vault, "open", lambda path, mode: FullDisk(path, mode),
                                raising=False)
            with pytest.raises(StorageFull):
                handle.write_file("big.bin", new)
        else:
            def exploding_replace(src, dst):
                raise RuntimeError("simulated crash before rename")

            monkeypatch.setattr(vault.os, "replace", exploding_replace)
            with pytest.raises(RuntimeError):
                handle.write_file("big.bin", new)
            assert len(held) == 1  # the old object was held when the rename failed
        monkeypatch.undo()
        assert _open_fds() == baseline
        assert handle._releasing is None
        assert handle.read_file("big.bin") == old
        assert not _temp_leftovers(handle, "big.bin")

    def test_large_overwrites_release_off_the_caller_and_lock_waits(self, make_vault,
                                                                    monkeypatch):
        handle = make_vault(modes.ModeId.SEALED)
        versions = [os.urandom(LARGE), os.urandom(LARGE + 5)]
        handle.write_file("big.bin", versions[1])
        closers, real_close = [], vault._close_replaced

        def recording_close(fd):
            closers.append(threading.current_thread())
            real_close(fd)

        monkeypatch.setattr(vault, "_close_replaced", recording_close)
        baseline = _open_fds()
        for i in range(20):
            handle.write_file("big.bin", versions[i % 2])
        assert handle.read_file("big.bin") == versions[1]
        handle.lock()
        assert _open_fds() == baseline
        assert handle._releasing is None
        assert len(closers) == 20
        assert threading.main_thread() not in closers

    def test_writers_on_distinct_paths_keep_one_release_pending(self, make_vault, monkeypatch):
        handle = make_vault(modes.ModeId.V1)
        paths = [f"t/{i}.bin" for i in range(4)]
        versions = {p: [os.urandom(LARGE + i), os.urandom(LARGE + 9 + i)]
                    for i, p in enumerate(paths)}
        for p in paths:
            handle.write_file(p, versions[p][1])
        guard = threading.Lock()
        pending, peak, errors = [0], [0], []
        real_close = vault._close_replaced

        def slow_close(fd):
            with guard:
                pending[0] += 1
                peak[0] = max(peak[0], pending[0])
            time.sleep(0.005)
            real_close(fd)
            with guard:
                pending[0] -= 1

        def work(p):
            try:
                for r in range(3):
                    handle.write_file(p, versions[p][r % 2])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        monkeypatch.setattr(vault, "_close_replaced", slow_close)
        baseline = _open_fds()
        threads = [threading.Thread(target=work, args=(p,)) for p in paths]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for p in paths:
            assert handle.read_file(p) == versions[p][0]
        handle.lock()
        assert peak[0] == 1
        assert _open_fds() == baseline

    @pytest.mark.parametrize("size", [4096, 512 * 1024])
    def test_overwrite_of_a_batch_or_less_holds_nothing(self, make_vault, monkeypatch, size):
        handle = make_vault(modes.ModeId.SEALED)
        handle.write_file("small.bin", os.urandom(size))
        closes = []
        monkeypatch.setattr(vault, "_close_replaced", closes.append)
        baseline = _open_fds()
        handle.write_file("small.bin", os.urandom(size))
        assert _open_fds() == baseline
        assert closes == [] and handle._releasing is None


class TestLockFreeWrites:
    def test_overlapping_writes_and_reads_on_two_handles(self, make_vault, platform):
        """Writes take no lock: writers overwrite one path while readers on this
        handle and on a second one read it. Every read is one whole version,
        which also holds only while the header memo checks its bytes."""
        handle = make_vault(modes.ModeId.SEALED)
        second = vault.unlock_vault(handle.root, TEST_PASSWORD, platform=platform)
        sizes = (4096, 2 * LARGE + 3)  # one block; 2 batches + 5, so releases run
        written: dict[bytes, int] = {}

        def version(tag: bytes, size: int) -> bytes:
            return (tag * (size // len(tag) + 1))[:size]

        def write(tag: bytes, size: int) -> None:
            written[tag] = size
            handle.write_file("d/same.bin", version(tag, size))

        write(os.urandom(16), sizes[0])
        baseline = _open_fds()
        errors, done = [], threading.Event()

        def writer():
            try:
                for j in range(20):
                    write(os.urandom(16), sizes[j % 2])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader(h):
            try:
                while not done.is_set():
                    got = h.read_file("d/same.bin")
                    tag = bytes(got[:16])
                    assert got == version(tag, written[tag])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        writers = [threading.Thread(target=writer, daemon=True) for _ in range(4)]
        readers = [threading.Thread(target=reader, args=(h,), daemon=True)
                   for h in (handle, second)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in writers + readers:
                t.start()
            for t in writers:
                t.join(timeout=30)
            done.set()
            for t in readers:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + readers)
        assert not errors, errors
        assert [e.name for e in handle.list_dir("d")] == ["same.bin"]
        assert not _temp_leftovers(handle, "d/same.bin")
        got = second.read_file("d/same.bin")
        assert got == version(bytes(got[:16]), written[bytes(got[:16])])
        handle.lock()
        second.lock()
        assert _open_fds() == baseline
