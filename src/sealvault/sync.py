"""Push/pull of already-encrypted vault objects to a remote object store.

The provider only ever sees ciphertext: object keys are obfuscated physical
paths and object bytes are encrypted containers (vault.cfg is pushed too,
since it holds only wrapped/sealed secrets). A state file of
(key, last-synced version, local digest) records drives a three-way
comparison:

    local changed only  -> push
    remote changed only -> pull
    both changed        -> the remote bytes are preserved as
                           <key>.conflict-<version> (kept locally and
                           pushed), then the local side wins: its content
                           is pushed, or its deletion is applied remotely

so no sync outcome discards a remote version without first materializing a
conflict object. Every remote write and delete that replaces a version
sync has seen is conditioned on that version, so a remote change that lands
after the listing turns into a conflict, not a loss. Sync is idempotent:
with no changes on either side, a run performs zero transfers.

A run costs what changed, not the vault size. One os.scandir walk lists
each side (`_scan`), and a file is hashed only when its (size, mtime_ns,
ctime_ns, inode) differs from the stat it had when its digest was last taken
(`_cached_digest`). A stat is kept only if its mtime and ctime are both
older than a stamp read from the filesystem's own clock before the walk
(git's racy-clean rule), so a same-size rewrite within one timestamp granule
is hashed again rather than hidden behind an equal stat. The local cache
rides in the SyncState and is saved to the `<state name>.stat` sibling after
each run; LocalDirStore keeps its own in memory. The caches only spare
hashing and decide nothing: a lost or damaged `.stat` file means rehashing.

Every local write (pulls, conflict copies, the state file, LocalDirStore
objects) goes through `vault.atomic_write`, whose `.tmp-` names are never
synced; nothing here fsyncs. The state file uses the vault's record framing.

The HTTP backend speaks plain object semantics: GET/PUT/DELETE on
<base>/<key>, an opaque version in the ETag header, If-Match for a
preconditioned PUT or DELETE (412 when the object is at another version, or,
for a PUT, absent; a DELETE of an absent object succeeds, and a 404 to it
counts as done), and listing via GET <base>?prefix= returning a JSON array of
{key, version, size}.
"""

from __future__ import annotations

import os
import re
import stat
import struct
import tempfile
import threading
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
import requests

from .errors import (
    NotFound,
    PreconditionFailed,
    StateCorrupt,
    StoreUnreachable,
)
from .vault import TEMP_PREFIX, atomic_write, exclusive_lock, pack_record, unpack_record

STATE_NAME = "sync.state"
STATE_MAGIC = b"SST1"
STATE_VERSION = 1
STAT_SUFFIX = ".stat"  # the state file's stat-cache sibling
STAT_MAGIC = b"SSC1"
STAT_VERSION = 1
_TEXT_LEN = struct.Struct("<I")
# The fixed fields after each entry's strings, which are the key and the
# version in sync.state and the key alone in the stat cache.
_STATE_TAIL = struct.Struct("32s")  # local digest
_STAT_TAIL = struct.Struct("<QqqQ32s")  # size, mtime_ns, ctime_ns, inode, digest
_EXCLUDED_NAMES = {STATE_NAME, ".lock"}

LEAK_WINDOW = 8  # minimum leaked-substring length the opacity scan detects

# key -> ((size, mtime_ns, ctime_ns, inode), SHA-256 of the content)
StatCache = dict[str, tuple[tuple[int, int, int, int], bytes]]


def _is_temp(key: str) -> bool:
    """True for a key with a `.tmp-` component at any depth: an atomic-write
    temp file, or a directory entry left staged or half-removed by a crash."""
    return "/" + TEMP_PREFIX in "/" + key


def _inside(root: Path, key: str) -> Path:
    """`root / key` resolved; ValueError if the key leads outside `root`."""
    path = (root / key).resolve()
    if not path.is_relative_to(root.resolve()):
        raise ValueError(f"key escapes {root}: {key!r}")
    return path


def _save_keyed(path: Path, magic: bytes, version: int, rows: Iterable[tuple],
                texts: int, tail: struct.Struct) -> None:
    """Write `rows` as one record (`pack_record` framing, the row count as
    its count) in key order. A row is its key and `texts` - 1 more strings,
    each written as a u32 length and UTF-8, then the fields `tail` packs."""
    rows = sorted(rows)
    body = bytearray()
    for row in rows:
        for text in row[:texts]:
            raw = text.encode("utf-8")
            body += _TEXT_LEN.pack(len(raw)) + raw
        body += tail.pack(*row[texts:])
    with atomic_write(path) as out:
        out.write(pack_record(magic, version, len(rows), body))


def _load_keyed(raw: bytes, magic: bytes, version: int, texts: int,
                tail: struct.Struct) -> list[tuple]:
    """The rows of a `_save_keyed` record; any damage raises StateCorrupt."""
    count, body = unpack_record(raw, magic, version, StateCorrupt)
    rows, off = [], 0
    try:
        for _ in range(count):
            row = []
            for _ in range(texts):
                (n,) = _TEXT_LEN.unpack_from(body, off); off += _TEXT_LEN.size
                row.append(body[off:off + n].decode("utf-8")); off += n
            rows.append((*row, *tail.unpack_from(body, off))); off += tail.size
    except (struct.error, UnicodeDecodeError) as exc:
        raise StateCorrupt(f"truncated {magic.decode()} record: {exc}") from None
    if off != len(body):
        raise StateCorrupt(f"trailing bytes in {magic.decode()} record")
    return rows


def _fs_clock(root: str) -> int | None:
    """The time the filesystem under `root` stamps on a file written now: the
    mtime of a fresh `.tmp-` file there, which is removed again. None when no
    file can be made there (a missing root, which scans as empty)."""
    try:
        fd, name = tempfile.mkstemp(prefix=TEMP_PREFIX, dir=root)
    except OSError:
        return None
    try:
        return os.fstat(fd).st_mtime_ns
    finally:
        os.close(fd)
        os.unlink(name)


def _scan(root: str) -> dict[str, tuple[str, os.stat_result]]:
    """key -> (path, stat) of every regular file under `root`, in one
    os.scandir walk that skips `.tmp-` components; a missing root is empty."""
    files = {}
    pending = [(root, "")]
    while pending:
        top, prefix = pending.pop()
        try:
            with os.scandir(top) as it:
                entries = list(it)
        except FileNotFoundError:
            continue
        for entry in entries:
            if _is_temp(entry.name):
                continue
            if entry.is_dir(follow_symlinks=False):
                pending.append((entry.path, f"{prefix}{entry.name}/"))
            elif entry.is_file():
                files[prefix + entry.name] = (entry.path, entry.stat())
    return files


def _sig(st: os.stat_result | None) -> tuple[int, int, int, int] | None:
    """The stat fields a content change moves: (size, mtime_ns, ctime_ns,
    inode); None for no file."""
    return None if st is None else (st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino)


def _cached_digest(cache: StatCache, key: str, path: str, st: os.stat_result,
                   clock: int | None, hash_file: Callable[[str], bytes]) -> bytes:
    """The digest of `key`'s content: the cached one while its stat is
    unchanged, else `hash_file(path)`. The new stat is cached only if its
    mtime and ctime are both older than `clock`, a filesystem time read
    before `st` was: any later write moves the ctime to `clock` or past it,
    so it cannot leave the stat equal."""
    sig = _sig(st)
    hit = cache.get(key)
    if hit is not None and hit[0] == sig:
        return hit[1]
    digest = hash_file(path)
    if clock is not None and st.st_mtime_ns < clock and st.st_ctime_ns < clock:
        cache[key] = (sig, digest)
    else:
        cache.pop(key, None)  # racy: the next run hashes it again
    return digest


def _digest_file(path: str) -> bytes:
    h = sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.digest()


def _read_digest(path: str) -> bytes:
    return sha256(Path(path).read_bytes()).digest()


class RemoteStore:
    """Abstract object store: opaque versions, comparable for equality only.
    A preconditioned put or delete raises PreconditionFailed unless the
    object is at that version; a delete of an absent object succeeds.
    Used as a context manager, a store is closed when the body ends."""

    def close(self) -> None:
        """Release what the store holds open; this base holds nothing."""

    def __enter__(self) -> "RemoteStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def put_object(self, key: str, data: bytes, precondition_version: str | None = None) -> str:
        raise NotImplementedError

    def get_object(self, key: str) -> tuple[bytes, str]:
        raise NotImplementedError

    def list(self, prefix: str = "") -> list[tuple[str, str, int]]:
        raise NotImplementedError

    def delete(self, key: str, precondition_version: str | None = None) -> None:
        raise NotImplementedError


class LocalDirStore(RemoteStore):
    """Directory-backed store; versions are content digests. Each object's
    digest is kept in memory while its stat is unchanged (`_cached_digest`),
    so listings and precondition checks hash only what changed."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._digests: StatCache = {}
        self._clock: int | None = None  # read before the last listing's stats

    def _path(self, key: str) -> Path:
        return _inside(self.root, key)

    @staticmethod
    def _version_of(digest: bytes) -> str:
        return digest.hex()[:32]

    def _version(self, key: str, path: str | Path, st: os.stat_result) -> str:
        return self._version_of(
            _cached_digest(self._digests, key, path, st, self._clock, _read_digest))

    def _require(self, key: str, path: Path, expected: str, absent_ok: bool) -> None:
        """Raise PreconditionFailed unless the object at `path` is at version
        `expected` (or absent, if `absent_ok`); the caller holds the lock."""
        try:
            st = os.stat(path)
        except (FileNotFoundError, NotADirectoryError):
            st = None
        have = self._version(key, path, st) if st and stat.S_ISREG(st.st_mode) else None
        if have != expected and not (absent_ok and have is None):
            raise PreconditionFailed(f"{key!r}: remote version is {have}, expected {expected}")

    def put_object(self, key: str, data: bytes, precondition_version: str | None = None) -> str:
        path = self._path(key)
        with self._lock:
            if precondition_version is not None:
                self._require(key, path, precondition_version, absent_ok=False)
            path.parent.mkdir(parents=True, exist_ok=True)
            with atomic_write(path) as out:
                out.write(data)
            self._digests.pop(key, None)
        return self._version_of(sha256(data).digest())

    def get_object(self, key: str) -> tuple[bytes, str]:
        path = self._path(key)
        if not path.is_file():
            raise NotFound(f"no such object: {key!r}")
        data = path.read_bytes()
        return data, self._version_of(sha256(data).digest())

    def list(self, prefix: str = "") -> list[tuple[str, str, int]]:
        root = str(self.root)
        with self._lock:
            self._clock = _fs_clock(root)
            files = _scan(root)
            self._digests = {k: v for k, v in self._digests.items() if k in files}
            return [(key, self._version(key, path, st), st.st_size)
                    for key, (path, st) in sorted(files.items()) if key.startswith(prefix)]

    def delete(self, key: str, precondition_version: str | None = None) -> None:
        path = self._path(key)
        with self._lock:
            if precondition_version is not None:
                self._require(key, path, precondition_version, absent_ok=True)
            path.unlink(missing_ok=True)
            self._digests.pop(key, None)


class HttpStore(RemoteStore):
    """HTTP object backend (opaque base URL, optional bearer token)."""

    def __init__(self, base_url: str, token: str | None = None, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._session = requests.Session()
        if token:
            self._session.headers["Authorization"] = f"Bearer {token}"

    def close(self) -> None:
        self._session.close()

    def _url(self, key: str) -> str:
        return f"{self.base_url}/{requests.utils.quote(key, safe='/')}"

    def _request(self, method: str, url: str, **kwargs) -> requests.Response:
        try:
            return self._session.request(method, url, timeout=self.timeout, **kwargs)
        except requests.RequestException as exc:
            raise StoreUnreachable(f"{method} {url}: {exc}") from None

    def _conditional(self, method: str, key: str, precondition_version: str | None,
                     **kwargs) -> requests.Response:
        headers = {} if precondition_version is None else {"If-Match": precondition_version}
        resp = self._request(method, self._url(key), headers=headers, **kwargs)
        if resp.status_code == 412:
            raise PreconditionFailed(f"{key!r}: remote version moved")
        return resp

    def put_object(self, key: str, data: bytes, precondition_version: str | None = None) -> str:
        resp = self._conditional("PUT", key, precondition_version, data=data)
        if resp.status_code not in (200, 201, 204):
            raise StoreUnreachable(f"PUT {key!r} -> HTTP {resp.status_code}")
        return resp.headers.get("ETag", "").strip('"')

    def get_object(self, key: str) -> tuple[bytes, str]:
        resp = self._request("GET", self._url(key))
        if resp.status_code == 404:
            raise NotFound(f"no such object: {key!r}")
        if resp.status_code != 200:
            raise StoreUnreachable(f"GET {key!r} -> HTTP {resp.status_code}")
        return resp.content, resp.headers.get("ETag", "").strip('"')

    def list(self, prefix: str = "") -> list[tuple[str, str, int]]:
        resp = self._request("GET", self.base_url, params={"prefix": prefix})
        if resp.status_code != 200:
            raise StoreUnreachable(f"list -> HTTP {resp.status_code}")
        try:
            items = resp.json()
            return [(it["key"], str(it["version"]), int(it["size"])) for it in items]
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreUnreachable(f"bad listing response: {exc}") from None

    def delete(self, key: str, precondition_version: str | None = None) -> None:
        resp = self._conditional("DELETE", key, precondition_version)
        if resp.status_code not in (200, 204, 404):
            raise StoreUnreachable(f"DELETE {key!r} -> HTTP {resp.status_code}")


class SyncState:
    """Per-key (last-synced version, local content digest), persisted as a
    versioned length-prefixed binary record beside the vault. It also holds
    the local side's stat cache (`stat_cache`), which `sync` saves to the
    `<state name>.stat` sibling after each run."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[str, tuple[str, bytes]] = {}
        if self.path.is_file():
            rows = _load_keyed(self.path.read_bytes(), STATE_MAGIC, STATE_VERSION,
                               2, _STATE_TAIL)
            self.entries = {key: (ver, digest) for key, ver, digest in rows}
        self.stat_cache: StatCache = {}
        try:  # the cache only spares hashing: a missing or damaged one is empty
            rows = _load_keyed(self.stat_path.read_bytes(), STAT_MAGIC, STAT_VERSION,
                               1, _STAT_TAIL)
            self.stat_cache = {key: (tuple(sig), digest) for key, *sig, digest in rows}
        except (OSError, StateCorrupt):
            pass

    @property
    def stat_path(self) -> Path:
        return self.path.with_name(self.path.name + STAT_SUFFIX)

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _save_keyed(self.path, STATE_MAGIC, STATE_VERSION,
                    [(key, *value) for key, value in self.entries.items()], 2, _STATE_TAIL)

    def save_stat_cache(self) -> None:
        _save_keyed(self.stat_path, STAT_MAGIC, STAT_VERSION,
                    [(key, *sig, digest) for key, (sig, digest) in self.stat_cache.items()],
                    1, _STAT_TAIL)


@dataclass
class SyncReport:
    pushed: list[str] = field(default_factory=list)
    pulled: list[str] = field(default_factory=list)
    conflicts: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        return (
            f"pushed={len(self.pushed)} pulled={len(self.pulled)} "
            f"conflicts={len(self.conflicts)}"
        )


def _local_files(root: str) -> dict[str, tuple[str, os.stat_result]]:
    """`_scan` of the vault root without the state file and its lock and
    stat-cache siblings, which the CLI keeps inside the root."""
    out = {}
    for key, found in _scan(root).items():
        name = key.rpartition("/")[2]
        if name not in _EXCLUDED_NAMES and not name.endswith((".lock", STAT_SUFFIX)):
            out[key] = found
    return out


def _sanitize_version(version: str) -> str:
    clean = re.sub(r"[^A-Za-z0-9._-]", "", version)
    return clean or sha256(version.encode()).hexdigest()[:16]


def sync(root: str | Path, store: RemoteStore, state: SyncState) -> SyncReport:
    """Synchronize a vault root with a remote store (three-way, per key).

    One run at a time per state file (an exclusive lock guards it); partial
    progress is preserved: the state file is saved even when a transfer
    raises (StoreUnreachable is retryable), and then the stat cache.
    """
    state.path.parent.mkdir(parents=True, exist_ok=True)
    with exclusive_lock(state.path.with_name(state.path.name + ".lock"), "another sync run"):
        return _sync_locked(Path(root), store, state)


def _sync_locked(root: Path, store: RemoteStore, state: SyncState) -> SyncReport:
    report = SyncReport()
    clock = _fs_clock(str(root))  # read before any stat, see _cached_digest
    local = _local_files(str(root))
    cache = state.stat_cache = {k: v for k, v in state.stat_cache.items() if k in local}
    local_digests = {key: _cached_digest(cache, key, path, st, clock, _digest_file)
                     for key, (path, st) in local.items()}
    remote = {key: ver for key, ver, _size in store.list("")}

    def push(key: str, precondition: str | None) -> None:
        data = Path(local[key][0]).read_bytes()
        try:
            version = store.put_object(key, data, precondition_version=precondition)
        except PreconditionFailed:
            # remote moved underneath us: treat as a both-changed conflict
            conflict(key)
            return
        state.entries[key] = (version, local_digests[key])
        report.pushed.append(key)

    def delete(key: str, precondition: str) -> None:
        try:
            store.delete(key, precondition_version=precondition)
        except PreconditionFailed:
            conflict(key)  # changed remotely after the listing
            return
        state.entries.pop(key, None)
        report.pushed.append(key)

    def moved(key: str) -> bool:
        """Re-stat a key sync is about to replace or unlink locally. If the
        file changed, appeared or went away since the scan, record it as it
        is now in `local` and `local_digests`, and return True."""
        path = _inside(root, key)
        try:
            st = os.stat(path)
        except (FileNotFoundError, NotADirectoryError):
            st = None
        scanned = local.get(key)
        if _sig(st) == _sig(scanned[1] if scanned else None):
            return False
        if st is None:
            del local[key], local_digests[key]
        else:
            local[key] = (str(path), st)
            local_digests[key] = _digest_file(str(path))
        return True

    def store_local(key: str, data: bytes, version: str) -> None:
        target = _inside(root, key)
        target.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(target) as out:
            out.write(data)
        state.entries[key] = (version, sha256(data).digest())

    def conflict(key: str) -> None:
        """Both sides changed the key. If the remote object is gone (deleted
        after the listing), the local side is restored as a remote delete is
        restored, or the entry is dropped when the key is deleted locally."""
        local_digest = local_digests.get(key)  # None: deleted locally
        try:
            data, remote_version = store.get_object(key)
        except NotFound:
            if local_digest is None:
                state.entries.pop(key, None)
            else:
                push(key, precondition=None)
            return
        if sha256(data).digest() == local_digest:
            # both sides hold identical bytes: nothing to reconcile
            state.entries[key] = (remote_version, local_digest)
            return
        conflict_key = f"{key}.conflict-{_sanitize_version(remote_version)}"
        store_local(conflict_key, data, store.put_object(conflict_key, data))
        # the local side wins the original key, unless it moved again since
        # it was read just above; the remote copy is kept either way
        if local_digest is None:
            store.delete(key, precondition_version=remote_version)
            state.entries.pop(key, None)
        else:
            data = Path(local[key][0]).read_bytes()
            version = store.put_object(key, data, precondition_version=remote_version)
            state.entries[key] = (version, local_digest)
        report.conflicts.append(key)

    try:
        for key in sorted(set(local) | set(remote) | set(state.entries)):
            entry = state.entries.get(key)
            local_digest = local_digests.get(key)
            remote_version = remote.get(key)
            last_version, last_digest = entry if entry else (None, None)
            local_changed = local_digest != last_digest
            remote_changed = remote_version != last_version
            if not local_changed and not remote_changed:
                continue
            if local_changed and not remote_changed:
                if local_digest is None:
                    delete(key, precondition=last_version)
                else:
                    push(key, precondition=last_version)
            elif remote_changed and not local_changed:
                fetched = None if remote_version is None else store.get_object(key)
                if moved(key):  # a local write landed after the scan: both changed
                    conflict(key)
                    continue
                if fetched is None:
                    _inside(root, key).unlink(missing_ok=True)
                    state.entries.pop(key, None)
                else:
                    store_local(key, *fetched)
                report.pulled.append(key)
            else:  # both sides changed
                if local_digest is None and remote_version is None:
                    state.entries.pop(key, None)
                elif remote_version is None:
                    push(key, precondition=None)  # local restores deleted remote
                else:
                    conflict(key)
    finally:
        state.save()
        state.save_stat_cache()
    return report


# -- opacity scanning --------------------------------------------------------

def _window_values(data: bytes) -> np.ndarray:
    """Every 8-byte window of `data`, packed as little-endian uint64."""
    n = len(data)
    if n < LEAK_WINDOW:
        return np.empty(0, dtype=np.uint64)
    parts = []
    for align in range(LEAK_WINDOW):
        count = (n - align) // LEAK_WINDOW
        if count:
            parts.append(np.frombuffer(data, dtype="<u8", count=count, offset=align))
    return np.concatenate(parts)


class OpacityIndex:
    """Set of all 8-byte windows drawn from a cleartext corpus.

    A blob contains some corpus substring of length >= 8 iff one of its
    8-byte windows equals one of the corpus windows (the first 8 bytes of
    the leaked substring), so window-set intersection is an exact test.
    """

    def __init__(self, corpus: Iterable[bytes]):
        parts = [_window_values(sample) for sample in corpus]
        merged = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)
        # sort plus an adjacent-difference mask: the same sorted distinct set
        # as np.unique, whose hash-based path in numpy 2.x is far slower on
        # the tens of millions of windows a corpus can have
        merged.sort()
        first = np.ones(merged.size, dtype=bool)
        np.not_equal(merged[1:], merged[:-1], out=first[1:])
        self._values = merged[first]

    def leaks(self, blob: bytes) -> bool:
        if self._values.size == 0:
            return False
        windows = _window_values(blob)
        if windows.size == 0:
            return False
        windows.sort()  # sorted needles make searchsorted walk memory in order
        pos = np.searchsorted(self._values, windows)
        pos[pos == self._values.size] = 0
        return bool((self._values[pos] == windows).any())


def verify_remote_opacity(store: RemoteStore, corpus: Iterable[bytes]) -> list[dict]:
    """Scan every remote object's bytes and key for corpus substrings of at
    least 8 bytes. Returns a list of findings; an empty list means the
    remote is opaque with respect to the corpus."""
    index = OpacityIndex(corpus)
    findings = []
    for key, _version, _size in store.list(""):
        if index.leaks(key.encode("utf-8")):
            findings.append({"key": key, "where": "key"})
        data, _ = store.get_object(key)
        if index.leaks(data):
            findings.append({"key": key, "where": "content"})
    return findings


def scan_tree_opacity(root: str | Path, corpus: Iterable[bytes]) -> list[dict]:
    """Same scan over a local directory tree (names and file bytes)."""
    root = Path(root)
    index = OpacityIndex(corpus)
    findings = []
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if index.leaks(rel.encode("utf-8")):
            findings.append({"key": rel, "where": "key"})
        if path.is_file() and index.leaks(path.read_bytes()):
            findings.append({"key": rel, "where": "content"})
    return findings
