"""Remote sync: stores, state file, three-way sync, opacity scanning."""

import json
import os
import random
import shutil
import struct
import threading
import time
from hashlib import sha256
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

import pytest

from sealvault import modes, sync, vault
from sealvault.errors import (
    NotFound,
    PreconditionFailed,
    StateCorrupt,
    StoreUnreachable,
)
from conftest import TEST_ITERATIONS, TEST_PASSWORD


# -- in-process HTTP object server exercising the documented wire format -----

class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _key(self):
        return unquote(urlsplit(self.path).path.lstrip("/"))

    def _authorized(self):
        token = self.server.token
        if token is None:
            return True
        return self.headers.get("Authorization") == f"Bearer {token}"

    def _deny(self):
        self.send_response(401)
        self.end_headers()

    @staticmethod
    def _version(data):
        return sha256(data).hexdigest()[:16]

    def do_GET(self):
        if not self._authorized():
            return self._deny()
        key = self._key()
        if not key:  # listing
            prefix = parse_qs(urlsplit(self.path).query).get("prefix", [""])[0]
            items = [
                {"key": k, "version": self._version(v), "size": len(v)}
                for k, v in sorted(self.server.objects.items())
                if k.startswith(prefix)
            ]
            body = json.dumps(items).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        data = self.server.objects.get(key)
        if data is None:
            self.send_response(404)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("ETag", f'"{self._version(data)}"')
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_PUT(self):
        if not self._authorized():
            return self._deny()
        key = self._key()
        length = int(self.headers.get("Content-Length", 0))
        data = self.rfile.read(length)
        expected = self.headers.get("If-Match")
        current = self.server.objects.get(key)
        if expected is not None:
            have = self._version(current) if current is not None else None
            if have != expected.strip('"'):
                self.send_response(412)
                self.end_headers()
                return
        if self.headers.get("If-None-Match") == "*" and current is not None:
            self.send_response(412)
            self.end_headers()
            return
        self.server.objects[key] = data
        self.send_response(200)
        self.send_header("ETag", f'"{self._version(data)}"')
        self.end_headers()

    def do_DELETE(self):
        if not self._authorized():
            return self._deny()
        key = self._key()
        expected = self.headers.get("If-Match")
        current = self.server.objects.get(key)
        if expected is not None and current is not None \
                and self._version(current) != expected.strip('"'):
            self.send_response(412)
            self.end_headers()
            return
        self.server.objects.pop(key, None)
        self.send_response(204)
        self.end_headers()


@pytest.fixture
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.objects = {}
    server.token = None
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _url(server):
    return f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture
def http_store(http_server):
    """Factory: an HttpStore on the fixture server, closed at teardown."""
    stores = []

    def make(token=None):
        stores.append(sync.HttpStore(_url(http_server), token=token))
        return stores[-1]

    yield make
    for store in stores:
        store.close()


# -- store contracts ----------------------------------------------------------

class TestLocalDirStore:
    def test_put_get_list_delete(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "r")
        v1 = store.put_object("a/b", b"hello")
        data, v2 = store.get_object("a/b")
        assert data == b"hello" and v1 == v2
        assert store.list("") == [("a/b", v1, 5)]
        assert store.list("a/") == [("a/b", v1, 5)]
        assert store.list("z") == []
        store.delete("a/b")
        with pytest.raises(NotFound):
            store.get_object("a/b")

    def test_put_under_new_prefix_makes_its_directories(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "r")
        with pytest.raises(PreconditionFailed):  # refused before anything is made
            store.put_object("x/y/k", b"data", precondition_version="0" * 32)
        assert list(store.root.iterdir()) == []
        v = store.put_object("x/y/k", b"data", precondition_version=sync.ABSENT)
        assert store.list("x/") == [("x/y/k", v, 4)]
        assert [p.name for p in (store.root / "x" / "y").iterdir()] == ["k"]

    def test_precondition(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "r")
        v = store.put_object("k", b"one")
        store.put_object("k", b"two", precondition_version=v)
        with pytest.raises(PreconditionFailed):
            store.put_object("k", b"three", precondition_version=v)

    def test_precondition_absent(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "r")
        v = store.put_object("k", b"one", precondition_version=sync.ABSENT)
        with pytest.raises(PreconditionFailed):
            store.put_object("k", b"two", precondition_version=sync.ABSENT)
        assert store.get_object("k") == (b"one", v)
        store.delete("k")
        with pytest.raises(PreconditionFailed):  # a version needs an object there
            store.put_object("k", b"three", precondition_version=v)

    def test_version_tracks_content(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "r")
        va = store.put_object("k", b"alpha")
        vb = store.put_object("k", b"beta")
        assert va != vb
        assert store.put_object("k2", b"alpha") == va

    def test_put_crash_keeps_old_object(self, tmp_path, monkeypatch):
        store = sync.LocalDirStore(tmp_path)
        store.put_object("d/k", b"old")

        def exploding_replace(src, dst):
            raise RuntimeError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(RuntimeError):
            store.put_object("d/k", b"new")
        monkeypatch.undo()
        assert store.get_object("d/k")[0] == b"old"
        assert [p.name for p in (tmp_path / "d").iterdir()] == ["k"]

    def test_list_skips_temp_components_at_any_depth(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "s")
        store.put_object("d/ab/obj", b"kept")
        for rel in (f"d/ab/{vault.TEMP_PREFIX}1", f"d/{vault.TEMP_PREFIX}2/dirid.sc"):
            (store.root / rel).parent.mkdir(parents=True, exist_ok=True)
            (store.root / rel).write_bytes(b"leftover")
        assert [k for k, _, _ in store.list("")] == ["d/ab/obj"]

    def test_conditional_delete(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "r")
        old = store.put_object("k", b"one")
        new = store.put_object("k", b"two")
        with pytest.raises(PreconditionFailed):
            store.delete("k", precondition_version=old)
        assert store.get_object("k") == (b"two", new)
        store.delete("k", precondition_version=new)
        assert store.list("") == []
        store.delete("k", precondition_version=new)  # already gone: nothing to lose

    def test_precondition_sees_same_size_rewrite(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "r")
        version = store.put_object("k", b"one")
        _settle(store.root)
        assert store.list("") == [("k", version, 3)]  # caches the object's stat
        _rewrite_in_place(store.root / "k", b"two")
        with pytest.raises(PreconditionFailed):
            store.delete("k", precondition_version=version)
        assert store.get_object("k")[0] == b"two"

    def test_get_of_object_deleted_while_read_is_not_found(self, tmp_path, monkeypatch):
        store = sync.LocalDirStore(tmp_path / "r")
        store.put_object("k", b"doomed")
        real_read_bytes = Path.read_bytes

        def delete_then_read(path):
            path.unlink()
            return real_read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", delete_then_read)
        with pytest.raises(NotFound):
            store.get_object("k")

    def test_key_escape_rejected(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "r")
        with pytest.raises(ValueError):
            store.put_object("../outside", b"x")

    def test_symlinked_key_escape_rejected(self, tmp_path):
        outside = tmp_path / "outside"; outside.mkdir()
        (outside / "secret").write_bytes(b"not the store's")
        store = sync.LocalDirStore(tmp_path / "r")
        (store.root / "link").symlink_to(outside, target_is_directory=True)
        with pytest.raises(ValueError):
            store.put_object("link/x", b"x")
        with pytest.raises(ValueError):
            store.get_object("link/secret")
        with pytest.raises(ValueError):
            store.delete("link/secret")
        assert sorted(p.name for p in outside.iterdir()) == ["secret"]


class TestHttpStore:
    def test_roundtrip(self, http_store):
        store = http_store()
        version = store.put_object("d/obj.bin", b"payload")
        data, got_version = store.get_object("d/obj.bin")
        assert data == b"payload" and got_version == version
        listing = store.list("")
        assert listing == [("d/obj.bin", version, 7)]
        store.delete("d/obj.bin")
        with pytest.raises(NotFound):
            store.get_object("d/obj.bin")

    def test_if_match(self, http_store):
        store = http_store()
        v = store.put_object("k", b"one")
        store.put_object("k", b"two", precondition_version=v)
        with pytest.raises(PreconditionFailed):
            store.put_object("k", b"three", precondition_version=v)

    def test_if_none_match(self, http_store):
        store = http_store()
        v = store.put_object("k", b"one", precondition_version=sync.ABSENT)
        with pytest.raises(PreconditionFailed):
            store.put_object("k", b"two", precondition_version=sync.ABSENT)
        assert store.get_object("k") == (b"one", v)
        store.delete("k")
        with pytest.raises(PreconditionFailed):  # a version needs an object there
            store.put_object("k", b"three", precondition_version=v)

    def test_if_match_delete(self, http_store):
        store = http_store()
        old = store.put_object("k", b"one")
        new = store.put_object("k", b"two")
        with pytest.raises(PreconditionFailed):
            store.delete("k", precondition_version=old)
        assert store.get_object("k") == (b"two", new)
        store.delete("k", precondition_version=new)
        assert store.list("") == []
        store.delete("k", precondition_version=new)

    def test_bearer_token(self, http_server, http_store):
        http_server.token = "sekrit-token"
        denied = http_store()
        with pytest.raises(StoreUnreachable):
            denied.put_object("k", b"x")
        allowed = http_store(token="sekrit-token")
        allowed.put_object("k", b"x")
        assert allowed.get_object("k")[0] == b"x"

    def test_unreachable(self):
        store = sync.HttpStore("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(StoreUnreachable):
            store.list("")

    def test_sync_through_http(self, http_store, tmp_path):
        root = tmp_path / "v"
        vault.create_vault(root, TEST_PASSWORD, modes.ModeId.V1,
                           iterations=TEST_ITERATIONS)
        handle = vault.unlock_vault(root, TEST_PASSWORD)
        handle.write_file("a.bin", os.urandom(40_000))
        handle.lock()
        store = http_store()
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert len(report.pushed) >= 2 and not report.conflicts
        again = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert str(again) == "pushed=0 pulled=0 conflicts=0"


# -- sync state ---------------------------------------------------------------

class TestSyncState:
    def test_roundtrip(self, tmp_path):
        state = sync.SyncState(tmp_path / "s")
        state.entries["key one"] = ("v1", b"\x01" * 32)
        state.entries["d/key two"] = ("v2", b"\x02" * 32)
        state.save()
        reloaded = sync.SyncState(tmp_path / "s")
        assert reloaded.entries == state.entries

    def test_missing_file_is_empty(self, tmp_path):
        assert sync.SyncState(tmp_path / "absent").entries == {}

    def test_corruption_detected(self, tmp_path):
        state = sync.SyncState(tmp_path / "s")
        state.entries["k"] = ("v", bytes(32))
        state.save()
        raw = bytearray((tmp_path / "s").read_bytes())
        rng = random.Random(2)
        for _ in range(20):
            tampered = bytearray(raw)
            pos = rng.randrange(len(raw) * 8)
            tampered[pos // 8] ^= 1 << (pos % 8)
            (tmp_path / "s").write_bytes(bytes(tampered))
            with pytest.raises(StateCorrupt):
                sync.SyncState(tmp_path / "s")


    def test_golden_layout(self, tmp_path):
        state = sync.SyncState(tmp_path / "s")
        state.entries["zeta/\u00e9"] = ("ver-2", b"\x02" * 32)
        state.entries["alpha"] = ("v1", b"\x01" * 32)
        state.save()
        # magic | u32 version | u32 entry count | entries sorted by key, each
        # u32 key length, UTF-8 key, u32 version length, version, 32-byte
        # digest | SHA-256 of everything before it; integers little-endian
        body = b""
        for key, ver, digest in (("alpha", "v1", b"\x01" * 32),
                                 ("zeta/\u00e9", "ver-2", b"\x02" * 32)):
            kb, vb = key.encode("utf-8"), ver.encode("utf-8")
            body += struct.pack("<I", len(kb)) + kb + struct.pack("<I", len(vb)) + vb + digest
        record = b"SST1" + struct.pack("<II", 1, 2) + body
        assert (tmp_path / "s").read_bytes() == record + sha256(record).digest()

    def test_stat_cache_golden_layout(self, tmp_path):
        state = sync.SyncState(tmp_path / "s")
        state.stat_cache["zeta/\u00e9"] = ((7, -5, 2**40, 2**63), b"\x02" * 32)
        state.stat_cache["alpha"] = ((0, 1, 2, 3), b"\x01" * 32)
        state.save_stat_cache()
        # magic | u32 version | u32 entry count | entries sorted by key, each
        # u32 key length, UTF-8 key, u64 size, i64 mtime_ns, i64 ctime_ns,
        # u64 inode, 32-byte digest | SHA-256 of everything before it
        body = b""
        for key, sig, digest in (("alpha", (0, 1, 2, 3), b"\x01" * 32),
                                 ("zeta/\u00e9", (7, -5, 2**40, 2**63), b"\x02" * 32)):
            kb = key.encode("utf-8")
            body += struct.pack("<I", len(kb)) + kb + struct.pack("<QqqQ", *sig) + digest
        record = b"SSC1" + struct.pack("<II", 1, 2) + body
        assert (tmp_path / "s.stat").read_bytes() == record + sha256(record).digest()
        assert sync.SyncState(tmp_path / "s").stat_cache == state.stat_cache

    def test_save_into_missing_directory(self, tmp_path):
        state = sync.SyncState(tmp_path / "a" / "b" / "s")
        state.entries["k"] = ("v1", bytes(32))
        state.save()
        assert sync.SyncState(tmp_path / "a" / "b" / "s").entries == state.entries
        assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["s"]

    def test_save_crash_keeps_old_state(self, tmp_path, monkeypatch):
        state = sync.SyncState(tmp_path / "s")
        state.entries["k"] = ("v1", bytes(32))
        state.save()

        def exploding_replace(src, dst):
            raise RuntimeError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        state.entries["k"] = ("v2", b"\x01" * 32)
        with pytest.raises(RuntimeError):
            state.save()
        monkeypatch.undo()
        assert sync.SyncState(tmp_path / "s").entries == {"k": ("v1", bytes(32))}
        assert [p.name for p in tmp_path.iterdir()] == ["s"]


# -- three-way sync -----------------------------------------------------------

# The CLI's default state name, and another one (`sync --state <vault>/custom.state`).
_STATE_NAMES = (sync.STATE_NAME, "custom.state")


def _store(backend, tmp_path, request):
    if backend == "local":
        return sync.LocalDirStore(tmp_path / "remote")
    return request.getfixturevalue("http_store")()


def _fresh_vault(tmp_path, name="v"):
    root = tmp_path / name
    vault.create_vault(root, TEST_PASSWORD, modes.ModeId.V1,
                       iterations=TEST_ITERATIONS)
    handle = vault.unlock_vault(root, TEST_PASSWORD)
    return root, handle


class TestSync:
    def test_fresh_push_then_idempotent(self, tmp_path):
        root, handle = _fresh_vault(tmp_path)
        handle.write_file("one.bin", os.urandom(1000))
        handle.write_file("sub/two.bin", os.urandom(2000))
        handle.lock()
        store = sync.LocalDirStore(tmp_path / "remote")
        first = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        local_files = {k for k, _, _ in store.list("")}
        assert "vault.cfg" in local_files
        assert len(first.pushed) == len(local_files)
        second = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert not second.pushed and not second.pulled and not second.conflicts

    def test_state_file_not_pushed(self, tmp_path):
        # both names in one body, so the test keeps its id
        for state_name in _STATE_NAMES:
            root, handle = _fresh_vault(tmp_path / state_name)
            handle.write_file("x", b"data")
            handle.lock()
            store = sync.LocalDirStore(tmp_path / state_name / "remote")
            sync.sync(root, store, sync.SyncState(root / state_name))
            assert (root / state_name).exists()
            assert all(k != state_name for k, _, _ in store.list(""))
            again = sync.sync(root, store, sync.SyncState(root / state_name))
            assert _outcome(again) == ([], [], [])

    def test_replica_pull_reads_identical(self, tmp_path):
        root, handle = _fresh_vault(tmp_path)
        payloads = {f"dir{i % 2}/f{i}.bin": os.urandom(5000 + i) for i in range(6)}
        for path, payload in payloads.items():
            handle.write_file(path, payload)
        store = sync.LocalDirStore(tmp_path / "remote")
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        replica = tmp_path / "replica"
        replica.mkdir()
        report = sync.sync(replica, store, sync.SyncState(replica / sync.STATE_NAME))
        assert len(report.pulled) > 0 and not report.conflicts
        mirror = vault.unlock_vault(replica, TEST_PASSWORD)
        for path, payload in payloads.items():
            assert mirror.read_file(path) == payload
        mirror.lock()
        handle.lock()

    def test_replica_with_empty_directory_usable(self, tmp_path):
        root, handle = _fresh_vault(tmp_path)
        handle.make_dir("emptydir")
        handle.write_file("full/file.bin", b"data")
        store = sync.LocalDirStore(tmp_path / "remote")
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        handle.lock()
        replica = tmp_path / "replica"
        replica.mkdir()
        sync.sync(replica, store, sync.SyncState(replica / sync.STATE_NAME))
        mirror = vault.unlock_vault(replica, TEST_PASSWORD)
        # the empty directory's shard was never synced (no files); listing
        # and writing into it must still work
        assert mirror.list_dir("emptydir") == []
        mirror.write_file("emptydir/new.bin", b"fresh")
        assert mirror.read_file("emptydir/new.bin") == b"fresh"
        mirror.lock()

    def test_crashed_staging_directory_not_pushed(self, tmp_path, monkeypatch):
        root, handle = _fresh_vault(tmp_path)
        handle.write_file("kept.bin", b"data")

        def crash(src, dst):
            raise RuntimeError("simulated crash before the staged entry is renamed")

        monkeypatch.setattr(os, "rename", crash)
        with pytest.raises(RuntimeError):
            handle.make_dir("newdir")
        monkeypatch.undo()
        handle.lock()
        assert [p for p in root.rglob(vault.TEMP_PREFIX + "*") if p.is_dir()]
        store = sync.LocalDirStore(tmp_path / "remote")
        first = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        remote_files = [p.relative_to(store.root).as_posix()
                        for p in store.root.rglob("*") if p.is_file()]
        assert sorted(first.pushed) == sorted(remote_files)
        assert len(remote_files) == 2  # vault.cfg and kept.bin
        assert not [k for k in remote_files if vault.TEMP_PREFIX in k]
        second = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert not second.pushed and not second.pulled and not second.conflicts

    def test_malicious_remote_key_rejected(self, tmp_path):
        root = tmp_path / "r"; root.mkdir()

        class EvilStore(sync.RemoteStore):
            def list(self, prefix=""):
                return [("../escaped-file", "v1", 4)]

            def get_object(self, key):
                return b"evil", "v1"

        with pytest.raises(ValueError):
            sync.sync(root, EvilStore(), sync.SyncState(root / sync.STATE_NAME))
        assert not (tmp_path / "escaped-file").exists()

    def test_pull_through_symlinked_directory_rejected(self, tmp_path):
        root = tmp_path / "r"; root.mkdir()
        outside = tmp_path / "outside"; outside.mkdir()
        (root / "sub").symlink_to(outside, target_is_directory=True)
        store = sync.LocalDirStore(tmp_path / "remote")
        store.put_object("sub/x", b"remote bytes")
        with pytest.raises(ValueError):
            sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert not list(outside.iterdir())

    def test_remote_only_change_pulls(self, tmp_path):
        root = tmp_path / "r"
        root.mkdir()
        (root / "obj").write_bytes(b"v1")
        store = sync.LocalDirStore(tmp_path / "remote")
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        store.put_object("obj", b"v2 from elsewhere")
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert report.pulled == ["obj"] and not report.conflicts
        assert (root / "obj").read_bytes() == b"v2 from elsewhere"

    def test_conflict_creates_exactly_one_object(self, tmp_path):
        root = tmp_path / "r"
        root.mkdir()
        (root / "obj").write_bytes(b"common base")
        store = sync.LocalDirStore(tmp_path / "remote")
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        (root / "obj").write_bytes(b"local edit")
        store.put_object("obj", b"remote edit")
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert report.conflicts == ["obj"]
        conflict_files = [p.name for p in root.iterdir()
                          if p.name.startswith("obj.conflict-")]
        assert len(conflict_files) == 1
        assert (root / conflict_files[0]).read_bytes() == b"remote edit"
        # local content won on the original key; remote copy preserved
        assert (root / "obj").read_bytes() == b"local edit"
        assert store.get_object("obj")[0] == b"local edit"
        assert store.get_object(conflict_files[0])[0] == b"remote edit"
        # convergent afterwards
        again = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert not again.pushed and not again.pulled and not again.conflicts

    def test_local_delete_vs_remote_change_keeps_remote_bytes(self, tmp_path):
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"common base")
        store = sync.LocalDirStore(tmp_path / "remote")
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        (root / "obj").unlink()
        store.put_object("obj", b"remote edit")
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert report.conflicts == ["obj"]
        local_copies = [p.name for p in root.iterdir() if ".conflict-" in p.name]
        assert len(local_copies) == 1 and local_copies[0].startswith("obj.conflict-")
        assert (root / local_copies[0]).read_bytes() == b"remote edit"
        assert not (root / "obj").exists()
        # the deletion won remotely; the remote bytes live on as one conflict object
        assert [k for k, _, _ in store.list("")] == local_copies
        assert store.get_object(local_copies[0])[0] == b"remote edit"
        again = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert not again.pushed and not again.pulled and not again.conflicts

    def test_identical_bytes_no_conflict(self, tmp_path):
        machine1 = tmp_path / "m1"; machine1.mkdir()
        machine2 = tmp_path / "m2"; machine2.mkdir()
        (machine1 / "obj").write_bytes(b"same everywhere")
        (machine2 / "obj").write_bytes(b"same everywhere")
        store = sync.LocalDirStore(tmp_path / "remote")
        sync.sync(machine1, store, sync.SyncState(machine1 / sync.STATE_NAME))
        report = sync.sync(machine2, store, sync.SyncState(machine2 / sync.STATE_NAME))
        assert not report.conflicts and not report.pushed

    def test_local_delete_propagates(self, tmp_path):
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"data")
        store = sync.LocalDirStore(tmp_path / "remote")
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        (root / "obj").unlink()
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert "obj" in report.pushed
        assert store.list("") == []

    def test_remote_delete_propagates(self, tmp_path):
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"data")
        store = sync.LocalDirStore(tmp_path / "remote")
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        store.delete("obj")
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert "obj" in report.pulled
        assert not (root / "obj").exists()

    def test_one_sync_run_at_a_time(self, tmp_path):
        import time

        from sealvault.errors import VaultError

        root = tmp_path / "r"; root.mkdir()
        (root / "f").write_bytes(b"x")
        store = sync.LocalDirStore(tmp_path / "remote")

        class SlowStore(sync.RemoteStore):
            def put_object(self, *args, **kwargs):
                time.sleep(0.4)
                return store.put_object(*args, **kwargs)

            get_object = staticmethod(store.get_object)
            list = staticmethod(store.list)
            delete = staticmethod(store.delete)

        first = threading.Thread(
            target=lambda: sync.sync(root, SlowStore(), sync.SyncState(root / sync.STATE_NAME))
        )
        first.start()
        time.sleep(0.1)
        with pytest.raises(VaultError):
            sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        first.join()
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert not report.pushed and not report.pulled

    def test_partial_progress_preserved(self, tmp_path):
        root = tmp_path / "r"; root.mkdir()
        for i in range(4):
            (root / f"f{i}").write_bytes(bytes([i]) * 100)
        inner = sync.LocalDirStore(tmp_path / "remote")

        class Flaky(sync.RemoteStore):
            def __init__(self):
                self.puts = 0

            def put_object(self, key, data, precondition_version=None):
                self.puts += 1
                if self.puts > 2:
                    raise StoreUnreachable("transient outage")
                return inner.put_object(key, data, precondition_version)

            get_object = staticmethod(inner.get_object)
            list = staticmethod(inner.list)
            delete = staticmethod(inner.delete)

        with pytest.raises(StoreUnreachable):
            sync.sync(root, Flaky(), sync.SyncState(root / sync.STATE_NAME))
        carried = sync.SyncState(root / sync.STATE_NAME)
        assert len(carried.entries) == 2  # the two completed puts survived
        report = sync.sync(root, inner, carried)
        assert len(report.pushed) == 2
        assert len(inner.list("")) == 4


    @pytest.mark.parametrize("backend", ["local", "http"])
    def test_remote_update_between_list_and_delete_survives(self, tmp_path, request, backend):
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"common base")
        if backend == "local":
            store = sync.LocalDirStore(tmp_path / "remote")
        else:
            store = request.getfixturevalue("http_store")()
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        (root / "obj").unlink()
        listed = store.list

        def list_then_update(prefix=""):
            listing = listed(prefix)
            store.put_object("obj", b"remote edit after the listing")
            return listing

        store.list = list_then_update
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        del store.list
        assert report.conflicts == ["obj"] and not report.pushed
        remote = {key: store.get_object(key)[0] for key, _, _ in store.list("")}
        assert b"remote edit after the listing" in remote.values()
        again = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert not again.pushed and not again.pulled and not again.conflicts

    @pytest.mark.parametrize("backend", ["local", "http"])
    @pytest.mark.parametrize("case", ["local edit", "edit on both sides", "local delete"])
    def test_remote_delete_after_listing(self, tmp_path, request, backend, case):
        """The key is deleted remotely between the listing and the transfer:
        a local edit goes back to the remote, a local delete drops the key."""
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"common base")
        if backend == "local":
            store = sync.LocalDirStore(tmp_path / "remote")
        else:
            store = request.getfixturevalue("http_store")()
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        if case != "local edit":
            store.put_object("obj", b"remote edit")
        if case == "local delete":
            (root / "obj").unlink()
        else:
            (root / "obj").write_bytes(b"local edit, longer than the base")
        listed = store.list

        def list_then_delete(prefix=""):
            listing = listed(prefix)
            store.delete("obj")
            return listing

        store.list = list_then_delete
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        del store.list
        assert not report.conflicts
        state = sync.SyncState(root / sync.STATE_NAME)
        if case == "local delete":
            assert store.list("") == [] and "obj" not in state.entries
        else:
            assert report.pushed == ["obj"]
            assert store.get_object("obj")[0] == b"local edit, longer than the base"
        again = sync.sync(root, store, state)
        assert not again.pushed and not again.pulled and not again.conflicts

    @pytest.mark.parametrize("backend", ["local", "http"])
    def test_remote_delete_after_listing_on_pull(self, tmp_path, request, backend):
        """A remote edit is listed, then the key is deleted remotely before
        the pull fetches it: the run applies the delete locally."""
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"common base")
        (root / "other").write_bytes(b"unrelated")
        if backend == "local":
            store = sync.LocalDirStore(tmp_path / "remote")
        else:
            store = request.getfixturevalue("http_store")()
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        store.put_object("obj", b"remote edit")
        store.put_object("zz-new", b"listed after obj")
        listed = store.list

        def list_then_delete(prefix=""):
            listing = listed(prefix)
            store.delete("obj")
            return listing

        store.list = list_then_delete
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        del store.list
        assert report.pulled == ["obj", "zz-new"]
        assert not report.pushed and not report.conflicts
        assert not (root / "obj").exists()
        assert (root / "zz-new").read_bytes() == b"listed after obj"
        state = sync.SyncState(root / sync.STATE_NAME)
        assert "obj" not in state.entries
        assert sorted(key for key, _, _ in store.list("")) == ["other", "zz-new"]
        again = sync.sync(root, store, state)
        assert not again.pushed and not again.pulled and not again.conflicts

    @pytest.mark.parametrize("backend", ["local", "http"])
    @pytest.mark.parametrize("case", ["remote edit", "remote create", "remote delete"])
    def test_local_edit_after_listing_survives(self, tmp_path, request, backend, case):
        """A local write lands between the listing and the pull or unlink
        that would replace it: the local bytes win and are pushed, and the
        remote bytes are kept as a conflict object."""
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"common base")
        if backend == "local":
            store = sync.LocalDirStore(tmp_path / "remote")
        else:
            store = request.getfixturevalue("http_store")()
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        key = "new" if case == "remote create" else "obj"
        if case == "remote delete":
            store.delete("obj")
        else:
            store.put_object(key, b"remote bytes")
        listed = store.list
        versions = {k: v for k, v, _ in listed("")}
        edit = b"local edit after the listing"

        def list_then_edit(prefix=""):
            listing = listed(prefix)
            (root / key).write_bytes(edit)
            return listing

        store.list = list_then_edit
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        del store.list
        assert not report.pulled
        assert (root / key).read_bytes() == edit
        assert store.get_object(key)[0] == edit
        if case == "remote delete":
            assert report.pushed == [key] and not report.conflicts
        else:
            assert report.conflicts == [key] and not report.pushed
            conflict_key = f"{key}.conflict-{versions[key]}"
            assert store.get_object(conflict_key)[0] == b"remote bytes"
            assert (root / conflict_key).read_bytes() == b"remote bytes"
        again = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert not again.pushed and not again.pulled and not again.conflicts

    @pytest.mark.parametrize("backend", ["local", "http"])
    def test_remote_create_between_list_and_put_survives(self, tmp_path, request, backend):
        """A key sync has never seen is created remotely after the listing:
        the create is conditioned on absence, so the remote bytes become a
        conflict object and the local side wins."""
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"local create")
        store = _store(backend, tmp_path, request)
        listed = store.list

        def list_then_create(prefix=""):
            listing = listed(prefix)
            store.put_object("obj", b"remote create after the listing")
            return listing

        store.list = list_then_create
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        del store.list
        assert report.conflicts == ["obj"] and not report.pushed
        remote = {key: store.get_object(key)[0] for key, _, _ in store.list("")}
        assert remote.pop("obj") == b"local create"
        assert list(remote.values()) == [b"remote create after the listing"]
        again = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert _outcome(again) == ([], [], [])

    @pytest.mark.parametrize("backend", ["local", "http"])
    @pytest.mark.parametrize("case", ["local edit", "delete on both sides"])
    def test_remote_delete_listed_while_local_changed(self, tmp_path, request, backend, case):
        """The listing already shows the key deleted remotely, and the local
        side changed it too: a local edit goes back to the remote with no
        conflict, a key deleted on both sides is dropped."""
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"common base")
        store = _store(backend, tmp_path, request)
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        store.delete("obj")
        if case == "local edit":
            (root / "obj").write_bytes(b"local edit after a remote delete")
        else:
            (root / "obj").unlink()
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        state = sync.SyncState(root / sync.STATE_NAME)
        if case == "local edit":
            assert _outcome(report) == (["obj"], [], [])
            assert [k for k, _, _ in store.list("")] == ["obj"]
            assert store.get_object("obj")[0] == b"local edit after a remote delete"
            assert "obj" in state.entries
        else:
            assert _outcome(report) == ([], [], [])
            assert store.list("") == [] and "obj" not in state.entries
        again = sync.sync(root, store, state)
        assert _outcome(again) == ([], [], [])

    @pytest.mark.parametrize("backend", ["local", "http"])
    def test_remote_update_between_conflict_get_and_put_survives(self, tmp_path, request,
                                                                  backend):
        """The remote moves again after a conflict fetched it: the local side
        still wins, and each remote version is kept as its own conflict object."""
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"common base")
        store = _store(backend, tmp_path, request)
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        (root / "obj").write_bytes(b"local edit")
        store.put_object("obj", b"remote edit")
        fetched = store.get_object

        def get_then_update(key):
            found = fetched(key)
            if found[0] == b"remote edit":
                store.put_object("obj", b"second remote edit")
            return found

        store.get_object = get_then_update
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        del store.get_object
        assert _outcome(report) == ([], [], ["obj"])
        remote = {key: store.get_object(key)[0] for key, _, _ in store.list("")}
        assert remote.pop("obj") == b"local edit"
        assert sorted(remote.values()) == [b"remote edit", b"second remote edit"]
        assert all(key.startswith("obj.conflict-") for key in remote)
        again = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert _outcome(again) == ([], [], [])

    def test_every_write_of_a_synced_key_is_conditional(self, tmp_path):
        """Every put or delete of a key other than a conflict copy carries a
        precondition: the version sync saw, or ABSENT for a create."""
        root = tmp_path / "r"; root.mkdir()

        class Recording(sync.LocalDirStore):
            def __init__(self, root):
                super().__init__(root)
                self.writes = []

            def put_object(self, key, data, precondition_version=None):
                self.writes.append(("put", key, precondition_version))
                return super().put_object(key, data, precondition_version)

            def delete(self, key, precondition_version=None):
                self.writes.append(("delete", key, precondition_version))
                super().delete(key, precondition_version)

        store = Recording(tmp_path / "remote")
        elsewhere = sync.LocalDirStore(store.root)  # another client, not recorded
        for key in "abcde":
            (root / key).write_bytes(b"base " + key.encode())
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert store.writes == [("put", key, sync.ABSENT) for key in "abcde"]
        store.writes.clear()
        (root / "a").write_bytes(b"local edit")  # push over a seen version
        (root / "b").unlink()  # delete of a seen version
        (root / "c").write_bytes(b"local edit")  # edit on both sides
        elsewhere.put_object("c", b"remote edit")
        (root / "d").unlink()  # local delete, remote edit
        elsewhere.put_object("d", b"remote edit")
        (root / "e").write_bytes(b"local edit")  # local edit, remote delete
        elsewhere.delete("e")
        (root / "f").write_bytes(b"local create")
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert _outcome(report) == (["a", "b", "e", "f"], [], ["c", "d"])
        copies = [w for w in store.writes if ".conflict-" in w[1]]
        assert [(op, pre) for op, _key, pre in copies] == [("put", None)] * 2
        synced = [w for w in store.writes if w not in copies]
        assert sorted((op, key) for op, key, _ in synced) == [
            ("delete", "b"), ("delete", "d"), ("put", "a"), ("put", "c"), ("put", "e"),
            ("put", "f")]
        assert all(pre is not None for _op, _key, pre in synced)
        assert sorted(key for _op, key, pre in synced if pre == sync.ABSENT) == ["e", "f"]


# -- the stat cache -------------------------------------------------------------

def _settle(*roots):
    """Wait until the filesystem clock under each root has passed every
    file's ctime there (a write sets it, so it is never before the mtime
    unless an mtime was set ahead), so the next run may cache their stats."""
    newest = max((st.st_ctime_ns for r in roots for _path, st in sync._scan(str(r)).values()),
                 default=0)
    deadline = time.monotonic() + 10
    while min(sync._fs_clock(str(r)) for r in roots) <= newest:
        assert time.monotonic() < deadline, "the filesystem clock did not move"
        time.sleep(0.005)


def _rewrite_in_place(path, data):
    """Overwrite a file with same-size bytes in place and put its old mtime
    back, so only the ctime tells the change."""
    before = os.stat(path)
    assert len(data) == before.st_size
    with open(path, "r+b") as f:
        f.write(data)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == \
        (before.st_size, before.st_mtime_ns, before.st_ino)


@pytest.fixture
def hashed(monkeypatch):
    """Bytes hashed through `sync.sha256`, the name the benchmark counts at."""
    real = sync.sha256
    counter = {"bytes": 0}

    class CountingSha256:
        def __init__(self, data=b""):
            self._h = real()
            self.update(data)

        def update(self, data):
            counter["bytes"] += len(data)
            self._h.update(data)

        def digest(self):
            return self._h.digest()

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(sync, "sha256", CountingSha256)
    return counter


def _outcome(report):
    return sorted(report.pushed), sorted(report.pulled), sorted(report.conflicts)


def _stamp(path):
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns


class TestStateWrites:
    """A run rewrites the state file and its stat cache only when their rows
    changed, or when the file is gone."""

    def test_noop_run_leaves_both_files_untouched(self, tmp_path):
        root, handle = _fresh_vault(tmp_path)
        handle.write_file("one.bin", os.urandom(1000))
        handle.lock()
        store = sync.LocalDirStore(tmp_path / "remote")
        state = sync.SyncState(root / sync.STATE_NAME)
        sync.sync(root, store, state)
        _settle(root, store.root)
        sync.sync(root, store, state)  # caches the settled stats
        before = _stamp(state.path), _stamp(state.stat_path)
        _settle(root)  # a rewrite now would move the mtime
        report = sync.sync(root, store, state)
        assert not report.pushed and not report.pulled and not report.conflicts
        assert (_stamp(state.path), _stamp(state.stat_path)) == before
        fresh = sync.SyncState(root / sync.STATE_NAME)  # loaded rows count as written
        sync.sync(root, store, fresh)
        assert (_stamp(state.path), _stamp(state.stat_path)) == before

    def test_deleted_files_are_written_again(self, tmp_path):
        root, handle = _fresh_vault(tmp_path)
        handle.lock()
        store = sync.LocalDirStore(tmp_path / "remote")
        state = sync.SyncState(root / sync.STATE_NAME)
        sync.sync(root, store, state)
        entries = dict(state.entries)
        state.path.unlink()
        state.stat_path.unlink()
        sync.sync(root, store, state)
        assert sync.SyncState(state.path).entries == entries
        assert state.stat_path.is_file()

    def test_first_run_on_empty_vault_writes_state(self, tmp_path):
        root = tmp_path / "empty"; root.mkdir()
        state = sync.SyncState(root / sync.STATE_NAME)
        report = sync.sync(root, sync.LocalDirStore(tmp_path / "remote"), state)
        assert not report.pushed
        assert state.path.is_file() and state.stat_path.is_file()
        assert sync.SyncState(state.path).entries == {}

    def test_state_in_missing_directory(self, tmp_path):
        """The run's lock file, the state file and its stat cache make the
        state's directory."""
        root, handle = _fresh_vault(tmp_path)
        handle.write_file("one.bin", os.urandom(1000))
        handle.lock()
        store = sync.LocalDirStore(tmp_path / "remote")
        state = sync.SyncState(tmp_path / "states" / "v" / "s")
        assert len(sync.sync(root, store, state).pushed) == len(store.list(""))
        assert sorted(p.name for p in state.path.parent.iterdir()) == ["s", "s.lock", "s.stat"]
        assert sync.SyncState(state.path).entries == state.entries
        report = sync.sync(root, store, state)
        assert not report.pushed and not report.pulled and not report.conflicts

    def test_changed_rows_are_written(self, tmp_path):
        root = tmp_path / "r"; root.mkdir()
        store = sync.LocalDirStore(tmp_path / "remote")
        state = sync.SyncState(root / sync.STATE_NAME)
        sync.sync(root, store, state)
        (root / "obj").write_bytes(b"new")
        sync.sync(root, store, state)
        assert set(sync.SyncState(state.path).entries) == {"obj"}


class TestStatCache:
    def test_clock_makes_no_file(self, tmp_path, monkeypatch):
        """The clock is the root's own mtime, set to now: reading it opens,
        creates and removes nothing, and a missing root has none."""
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"x")
        os.utime(root, ns=(0, 0))
        with monkeypatch.context() as m:
            m.setattr(os, "open", lambda *args, **kwargs: pytest.fail("opened a file"))
            stamp = sync._fs_clock(str(root))
        assert sorted(os.listdir(root)) == ["obj"]
        assert stamp == os.stat(root).st_mtime_ns > 0
        assert sync._fs_clock(str(tmp_path / "missing")) is None

    def test_same_size_rewrite_with_restored_mtime_is_pushed(self, tmp_path):
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"version one")
        store = sync.LocalDirStore(tmp_path / "remote")
        state = sync.SyncState(root / sync.STATE_NAME)
        _settle(root)
        sync.sync(root, store, state)
        assert "obj" in state.stat_cache  # the next run trusts this stat
        _rewrite_in_place(root / "obj", b"version two")
        report = sync.sync(root, store, state)
        assert report.pushed == ["obj"]
        assert store.get_object("obj")[0] == b"version two"

    def test_future_mtime_is_hashed_every_run(self, tmp_path, hashed):
        root = tmp_path / "r"; root.mkdir()
        (root / "obj").write_bytes(b"x" * 5000)
        (root / "plain").write_bytes(b"y" * 100)
        os.utime(root / "obj", ns=(time.time_ns(), time.time_ns() + 3600 * 10**9))
        store = sync.LocalDirStore(tmp_path / "remote")
        state = sync.SyncState(root / sync.STATE_NAME)
        sync.sync(root, store, state)
        _settle(root, store.root)
        sync.sync(root, store, state)  # caches every stat it can
        for _ in range(2):
            hashed["bytes"] = 0
            report = sync.sync(root, store, state)
            assert not report.pushed and not report.pulled
            assert hashed["bytes"] == 5000 and "obj" not in state.stat_cache

    def test_settled_noop_hashes_nothing(self, tmp_path, hashed):
        root, handle = _fresh_vault(tmp_path)
        for i in range(5):
            handle.write_file(f"d{i % 2}/f{i}.bin", os.urandom(3000 * (i + 1)))
        handle.lock()
        store = sync.LocalDirStore(tmp_path / "remote")
        state = sync.SyncState(root / sync.STATE_NAME)
        sync.sync(root, store, state)
        _settle(root, store.root)
        sync.sync(root, store, state)  # hashes the objects the push wrote
        hashed["bytes"] = 0
        report = sync.sync(root, store, state)
        assert str(report) == "pushed=0 pulled=0 conflicts=0"
        assert hashed["bytes"] == 0
        # a new process reads the local cache back from the .stat file
        report = sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert str(report) == "pushed=0 pulled=0 conflicts=0"
        assert hashed["bytes"] == 0

    @pytest.mark.parametrize("damage", ["deleted", "flipped", "truncated", "foreign"])
    def test_damaged_stat_file_gives_same_decisions(self, tmp_path, damage):
        outcomes = []
        for side in ("intact", damage):
            base = tmp_path / side
            root = base / "r"; root.mkdir(parents=True)
            for i in range(4):
                (root / f"f{i}").write_bytes(bytes([i]) * 200)
            store = sync.LocalDirStore(base / "remote")
            sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
            _settle(root, store.root)
            sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
            _rewrite_in_place(root / "f0", b"\xee" * 200)
            (root / "f1").unlink()
            (root / "f4").write_bytes(b"new")
            store.put_object("f2", b"remote edit")
            stat_file = root / (sync.STATE_NAME + sync.STAT_SUFFIX)
            raw = stat_file.read_bytes()
            if side == "deleted":
                stat_file.unlink()
            elif side == "flipped":
                stat_file.write_bytes(raw[:20] + bytes([raw[20] ^ 1]) + raw[21:])
            elif side == "truncated":
                stat_file.write_bytes(raw[:len(raw) // 2])
            elif side == "foreign":
                stat_file.write_bytes((root / sync.STATE_NAME).read_bytes())
            state = sync.SyncState(root / sync.STATE_NAME)
            assert bool(state.stat_cache) == (side == "intact")
            report = sync.sync(root, store, state)
            remote = {k: store.get_object(k)[0] for k, _, _ in store.list("")}
            outcomes.append((_outcome(report), remote))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (["f0", "f1", "f4"], ["f2"], [])

    def test_stat_file_never_pushed(self, tmp_path):
        # both names in one body, so the test keeps its id
        for state_name in _STATE_NAMES:
            root, handle = _fresh_vault(tmp_path / state_name)
            handle.write_file("x", b"data")
            handle.lock()
            store = sync.LocalDirStore(tmp_path / state_name / "remote")
            for run in range(2):
                report = sync.sync(root, store, sync.SyncState(root / state_name))
                assert (root / (state_name + sync.STAT_SUFFIX)).is_file()
                keys = [k for k, _, _ in store.list("")]
                assert keys and not [k for k in keys if k.startswith(state_name)]
            assert _outcome(report) == ([], [], [])  # the second run is a no-op

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_warm_and_cold_runs_decide_alike(self, tmp_path, seed):
        """After random edits on both sides, a run with warm caches and a run
        on a copy with none (fresh SyncState without .stat, fresh store)
        make the same decisions and leave the same bytes."""
        rng = random.Random(seed)
        world = tmp_path / "warm"
        root, remote_dir, state_path = world / "r", world / "remote", world / "s.state"
        root.mkdir(parents=True)
        store, state = sync.LocalDirStore(remote_dir), sync.SyncState(state_path)
        keys = [f"d{i % 3}/k{i}" for i in range(10)]
        for key in keys[:6]:
            (root / key).parent.mkdir(parents=True, exist_ok=True)
            (root / key).write_bytes(rng.randbytes(rng.randrange(1, 600)))
        sync.sync(root, store, state)

        def edit(base):
            key = rng.choice(keys)
            path = base / key
            if not path.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(rng.randbytes(rng.randrange(1, 600)))
            elif rng.random() < 0.25:
                path.unlink()
            elif rng.random() < 0.6:
                _rewrite_in_place(path, rng.randbytes(path.stat().st_size))
            else:
                path.write_bytes(rng.randbytes(rng.randrange(1, 600)))

        for round_ in range(6):
            if round_ % 2:
                _settle(root, remote_dir)  # let the caches hold stats to be fooled
            for _ in range(rng.randrange(1, 5)):
                edit(root)
            for _ in range(rng.randrange(1, 4)):
                edit(remote_dir)
            cold = tmp_path / f"cold{round_}"
            shutil.copytree(root, cold / "r")
            shutil.copytree(remote_dir, cold / "remote")
            shutil.copy(state_path, cold / "s.state")
            (cold / "r" / ("s.state" + sync.STAT_SUFFIX)).unlink(missing_ok=True)
            cold_store = sync.LocalDirStore(cold / "remote")
            warm = sync.sync(root, store, state)
            chill = sync.sync(cold / "r", cold_store, sync.SyncState(cold / "s.state"))
            assert _outcome(warm) == _outcome(chill)
            for a, b in ((root, cold / "r"), (remote_dir, cold / "remote")):
                files_a, files_b = sync._scan(str(a)), sync._scan(str(b))
                assert files_a.keys() == files_b.keys()
                assert all(Path(p).read_bytes() == Path(files_b[k][0]).read_bytes()
                           for k, (p, _st) in files_a.items())
            assert state.entries == sync.SyncState(cold / "s.state").entries


class TestOpacity:
    def test_clean_remote_is_opaque(self, tmp_path):
        root, handle = _fresh_vault(tmp_path)
        corpus = []
        rng = random.Random(9)
        for i in range(10):
            name = f"customer-record-{i}.txt"
            content = rng.randbytes(5000)
            handle.write_file(name, content)
            corpus.extend([name.encode(), content])
        handle.lock()
        store = sync.LocalDirStore(tmp_path / "remote")
        sync.sync(root, store, sync.SyncState(root / sync.STATE_NAME))
        assert sync.verify_remote_opacity(store, corpus) == []

    def test_planted_leak_detected(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "remote")
        secret = b"extremely confidential payroll data"
        store.put_object("innocuous.bin", os.urandom(1000) + secret + os.urandom(10))
        findings = sync.verify_remote_opacity(store, [secret])
        assert findings == [{"key": "innocuous.bin", "where": "content"}]

    def test_leaky_key_detected(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "remote")
        store.put_object("customer-record-7.txt", os.urandom(100))
        findings = sync.verify_remote_opacity(store, [b"customer-record-7.txt"])
        assert any(f["where"] == "key" for f in findings)

    def test_empty_corpus_empty_report(self, tmp_path):
        store = sync.LocalDirStore(tmp_path / "remote")
        store.put_object("k", os.urandom(100))
        assert sync.verify_remote_opacity(store, []) == []

    def test_short_samples_ignored(self):
        index = sync.OpacityIndex([b"short"])  # below the 8-byte window
        assert not index.leaks(b"short short short")

    def test_index_matches_set_reference(self):
        rng = random.Random(21)
        alphabet = b"ab"  # a small alphabet repeats windows, so dedup matters
        corpus = [bytes(rng.choice(alphabet) for _ in range(rng.randrange(0, 300)))
                  for _ in range(30)]
        index = sync.OpacityIndex(corpus)
        windows = {sample[i:i + 8] for sample in corpus for i in range(len(sample) - 7)}
        assert sorted(int.from_bytes(w, "little") for w in windows) == index._values.tolist()
        for _ in range(200):
            blob = bytes(rng.choice(alphabet + b"c") for _ in range(rng.randrange(0, 40)))
            expected = any(blob[i:i + 8] in windows for i in range(len(blob) - 7))
            assert index.leaks(blob) == expected
