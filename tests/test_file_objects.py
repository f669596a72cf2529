"""The vault's file objects: `VaultHandle.open(path, "rb")` (FileReader) and
`open(path, "wb")` (FileWriter), and the memory bound of every streaming
path."""

import gc
import os
import random
import threading
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sealvault import modes, vault
from sealvault.errors import AuthenticationFailure, VaultLocked
from sealvault.fsbridge import VaultFilesystem
from conftest import TEST_ITERATIONS, TEST_PASSWORD

ALL_MODES = list(modes.ModeId)
BLOCK = modes.BLOCK_SIZE
BATCH = vault.BATCH_BLOCKS * BLOCK
MIB = 1 << 20


@pytest.fixture(scope="module")
def vaults(tmp_path_factory, platform):
    """One unlocked vault per mode, shared by the examples of a property."""
    handles = {}
    for mode in ALL_MODES:
        root = tmp_path_factory.mktemp(f"objects-{mode.value}")
        plat = platform if mode is modes.ModeId.SEALED else None
        vault.create_vault(root / "v", TEST_PASSWORD, mode, platform=plat,
                           iterations=TEST_ITERATIONS)
        handles[mode] = vault.unlock_vault(root / "v", TEST_PASSWORD, platform=plat)
    yield handles
    for handle in handles.values():
        handle.lock()


def _leftovers(handle, path):
    return [p.name for p in handle.map_path(path).parent.iterdir()
            if p.name.startswith(vault.TEMP_PREFIX)]


_SIZES = st.sampled_from([0, 1, BLOCK, BATCH]).flatmap(
    lambda anchor: st.integers(max(0, anchor - 1), anchor + 1))


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(size=_SIZES, seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_pieces_seeks_and_reads_match_model(self, vaults, mode, size, seed, data):
        handle = vaults[mode]
        model = random.Random(seed).randbytes(size)
        with handle.open("p/file.bin", "wb") as out:
            pos = 0
            while pos < size:
                piece = data.draw(st.integers(1, 3 * BLOCK), label="piece")
                assert out.write(model[pos:pos + piece]) == len(model[pos:pos + piece])
                pos += piece
        assert handle.map_path("p/file.bin").stat().st_size == vault.object_size(
            size, mode.block_overhead)
        with handle.open("p/file.bin", "rb") as f:
            assert f.size == size and f.seekable() and f.readable()
            pos = 0
            for _ in range(data.draw(st.integers(1, 8), label="reads")):
                whence = data.draw(st.sampled_from([os.SEEK_SET, os.SEEK_CUR, os.SEEK_END]))
                base = {os.SEEK_SET: 0, os.SEEK_CUR: pos, os.SEEK_END: size}[whence]
                target = data.draw(st.integers(0, size + 2), label="target")
                pos = f.seek(target - base, whence)
                assert pos == target == f.tell()
                n = data.draw(st.integers(-1, 2 * BLOCK + 3), label="n")
                got = f.read(n)
                want = model[pos:] if n < 0 else model[pos:pos + n]
                assert got == want
                pos += len(want)
                assert f.tell() == pos
        assert handle.read_file("p/file.bin") == model


class TestReadFile:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_returns_the_bytearray_it_decrypted_into(self, make_vault, mode):
        handle = make_vault(mode)
        for size in (0, 1, BLOCK + 1, BATCH + 7):
            data = random.Random(size).randbytes(size)
            handle.write_file("f", data)
            got = handle.read_file("f")
            assert type(got) is bytearray and got == data


class TestFailures:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_tampered_middle_block_fails_the_read_that_reaches_it(self, make_vault, mode):
        handle = make_vault(mode)
        data = random.Random(1).randbytes(3 * BLOCK)
        handle.write_file("t.bin", data)
        phys = handle.map_path("t.bin")
        raw = bytearray(phys.read_bytes())
        step = BLOCK + mode.block_overhead
        raw[vault.FILE_HEADER_SIZE + step + step // 2] ^= 1
        phys.write_bytes(raw)
        with handle.open("t.bin", "rb") as f:
            assert f.read(BLOCK) == data[:BLOCK]
            f.seek(2 * BLOCK)
            assert f.read() == data[2 * BLOCK:]
            f.seek(BLOCK - 10)
            with pytest.raises(AuthenticationFailure):
                f.read(20)
            f.seek(0)
            assert f.read(100) == data[:100]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_writer_whose_body_raises_keeps_old_version(self, make_vault, mode):
        handle = make_vault(mode)
        handle.write_file("doc", b"old version")
        with pytest.raises(RuntimeError):
            with handle.open("doc", "wb") as out:
                out.write(os.urandom(BATCH + 5))  # a batch already reached the temp file
                raise RuntimeError("the writer failed")
        assert out.closed
        assert handle.read_file("doc") == b"old version"
        assert not _leftovers(handle, "doc")

    def test_dropped_writer_publishes_nothing_and_frees_its_path(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        handle.write_file("doc", b"old version")
        out = handle.open("doc", "wb")
        out.write(b"never closed")
        del out
        gc.collect()
        assert handle.read_file("doc") == b"old version"
        assert not _leftovers(handle, "doc")
        other = threading.Thread(target=handle.write_file, args=("doc", b"new"))
        other.start()
        other.join(timeout=10)
        assert not other.is_alive() and handle.read_file("doc") == b"new"

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_dropped_reader_warns_and_closes_its_descriptor(self, make_vault, mode):
        handle = make_vault(mode)
        handle.write_file("doc", b"kept open")
        fds = len(os.listdir("/proc/self/fd"))
        reader = handle.open("doc", "rb")
        assert reader.read(4) == b"kept"
        with pytest.warns(ResourceWarning, match="unclosed"):
            del reader
            gc.collect()
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_locked_handle_makes_both_objects_raise(self, make_vault, mode):
        handle = make_vault(mode)
        handle.write_file("f", os.urandom(BLOCK + 1))
        reader = handle.open("f", "rb")
        assert len(reader.read(10)) == 10  # keeps block 0
        writer = handle.open("g", "wb")
        handle.lock()
        with pytest.raises(VaultLocked):
            reader.read(10)
        with pytest.raises(VaultLocked):
            writer.write(b"x")
        assert writer.closed
        reader.close()
        for mode_ in ("rb", "wb"):
            with pytest.raises(VaultLocked):
                handle.open("f", mode_)

    def test_one_thread_holds_two_writers_on_one_path(self, make_vault):
        handle = make_vault(modes.ModeId.V1)

        def two_writers():
            first = handle.open("same", "wb")
            second = handle.open("same", "wb")
            first.write(b"first")
            second.write(b"second")
            second.close()
            first.close()

        worker = threading.Thread(target=two_writers, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "the second writer waited on the first"
        assert handle.read_file("same") == b"first"
        assert not _leftovers(handle, "same")

    def test_open_writers_block_no_other_write(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        held = handle.open("same", "wb")
        held.write(b"held open")
        other = threading.Thread(target=handle.write_file, args=("same", b"meanwhile"),
                                 daemon=True)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        assert handle.read_file("same") == b"meanwhile"
        held.close()
        assert handle.read_file("same") == b"held open"  # closed last, so it wins

    def test_threads_open_writers_on_crossed_paths(self, make_vault):
        handle = make_vault(modes.ModeId.V1)
        first_open = [threading.Event(), threading.Event()]

        def work(me, mine, theirs):
            with handle.open(mine, "wb") as out:
                out.write(mine.encode())
                first_open[me].set()
                assert first_open[1 - me].wait(timeout=10)
                with handle.open(theirs, "wb") as second:
                    second.write(mine.encode())

        workers = [threading.Thread(target=work, args=(0, "x", "y"), daemon=True),
                   threading.Thread(target=work, args=(1, "y", "x"), daemon=True)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive(), "the writers deadlocked"
        assert handle.read_file("x") in (b"x", b"y") and handle.read_file("y") in (b"x", b"y")

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_writer_closed_on_another_thread(self, make_vault, mode):
        handle = make_vault(mode)
        data = os.urandom(BATCH + 5)
        out = handle.open("f", "wb")
        out.write(data)
        closer = threading.Thread(target=out.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive() and out.closed
        assert handle.read_file("f") == data
        handle.write_file("f", b"after")
        assert handle.read_file("f") == b"after"
        dropped = handle.open("f", "wb")
        dropped.write(b"dropped")
        discarder = threading.Thread(target=dropped.__exit__,
                                     args=(RuntimeError, RuntimeError("body failed"), None),
                                     daemon=True)
        discarder.start()
        discarder.join(timeout=10)
        assert not discarder.is_alive() and dropped.closed and handle.read_file("f") == b"after"
        assert not _leftovers(handle, "f")


class _Sink:
    def write(self, view):
        return len(view)


class _Zeros:
    """A stream of `size` bytes that allocates nothing per read: each read
    leaves the caller's buffer as it is (zeros, for a fresh buffer)."""

    def __init__(self, size):
        self.left = size

    def readinto(self, view):
        n = min(len(view), self.left)
        self.left -= n
        return n


def _peak_per_byte(fn, size):
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] / size
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A v1 vault holding one file of each size the memory bounds use."""
    root = tmp_path_factory.mktemp("bounds") / "v"
    vault.create_vault(root, TEST_PASSWORD, modes.ModeId.V1, iterations=TEST_ITERATIONS)
    handle = vault.unlock_vault(root, TEST_PASSWORD)
    for mib in (16, 64):
        handle.write_file(f"f{mib}", _Zeros(mib * MIB))
    yield handle
    handle.lock()


@pytest.mark.parametrize("mib", [16, 64])
class TestMemoryBound:
    """Peak traced allocation over the file size: a batch for every
    streaming path, and the file itself for read_file."""

    def test_bridge_read_in_pieces(self, stored, mib):
        def run():
            with VaultFilesystem(stored).open(f"f{mib}", "rb") as f:
                while f.read(64 * 1024):
                    pass
        assert _peak_per_byte(run, mib * MIB) <= 0.15

    def test_bridge_write_in_pieces(self, stored, mib):
        piece = bytes(64 * 1024)

        def run():
            with VaultFilesystem(stored).open("w.bin", "wb") as f:
                for _ in range(mib * MIB // len(piece)):
                    f.write(piece)
        assert _peak_per_byte(run, mib * MIB) <= 0.15
        assert stored.map_path("w.bin").stat().st_size == vault.object_size(
            mib * MIB, modes.V1_BLOCK_OVERHEAD)

    def test_write_file_from_stream(self, stored, mib):
        assert _peak_per_byte(lambda: stored.write_file("s.bin", _Zeros(mib * MIB)),
                              mib * MIB) <= 0.15

    def test_read_to(self, stored, mib):
        assert _peak_per_byte(lambda: stored.read_to(f"f{mib}", _Sink()), mib * MIB) <= 0.15

    def test_read_file(self, stored, mib):
        assert _peak_per_byte(lambda: stored.read_file(f"f{mib}"), mib * MIB) <= 1.10
