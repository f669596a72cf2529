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
conflict object. Sync is idempotent: with no changes on either side, a run
performs zero transfers.

Every local write (pulls, conflict copies, the state file, LocalDirStore
objects) goes through `vault.atomic_write`, whose `.tmp-` names are never
synced; nothing here fsyncs. The state file uses the vault's record framing.

The HTTP backend speaks plain object semantics: GET/PUT/DELETE on
<base>/<key>, an opaque version in the ETag header, If-Match for
preconditioned PUT (412 on mismatch), and listing via GET <base>?prefix=
returning a JSON array of {key, version, size}.
"""

from __future__ import annotations

import fcntl
import re
import struct
import threading
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Iterable

import numpy as np
import requests

from .errors import (
    NotFound,
    PreconditionFailed,
    StateCorrupt,
    StoreUnreachable,
    VaultError,
)
from .vault import TEMP_PREFIX, atomic_write, pack_record, unpack_record

STATE_NAME = "sync.state"
STATE_MAGIC = b"SST1"
STATE_VERSION = 1
_EXCLUDED_NAMES = {STATE_NAME, ".lock"}

LEAK_WINDOW = 8  # minimum leaked-substring length the opacity scan detects


def _is_temp(key: str) -> bool:
    """True for a key with a `.tmp-` component at any depth: an atomic-write
    temp file, or a directory entry left staged or half-removed by a crash."""
    return "/" + TEMP_PREFIX in "/" + key


class RemoteStore:
    """Abstract object store: opaque versions, comparable for equality only."""

    def put_object(self, key: str, data: bytes, precondition_version: str | None = None) -> str:
        raise NotImplementedError

    def get_object(self, key: str) -> tuple[bytes, str]:
        raise NotImplementedError

    def list(self, prefix: str = "") -> list[tuple[str, str, int]]:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError


class LocalDirStore(RemoteStore):
    """Directory-backed store; versions are content digests."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        p = (self.root / key).resolve()
        if not p.is_relative_to(self.root.resolve()):
            raise ValueError(f"key escapes the store root: {key!r}")
        return p

    @staticmethod
    def _version_of(data: bytes) -> str:
        return sha256(data).hexdigest()[:32]

    def put_object(self, key: str, data: bytes, precondition_version: str | None = None) -> str:
        path = self._path(key)
        with self._lock:
            if precondition_version is not None:
                current = path.read_bytes() if path.is_file() else None
                have = self._version_of(current) if current is not None else None
                if have != precondition_version:
                    raise PreconditionFailed(
                        f"{key!r}: remote version is {have}, expected {precondition_version}"
                    )
            path.parent.mkdir(parents=True, exist_ok=True)
            with atomic_write(path) as out:
                out.write(data)
        return self._version_of(data)

    def get_object(self, key: str) -> tuple[bytes, str]:
        path = self._path(key)
        if not path.is_file():
            raise NotFound(f"no such object: {key!r}")
        data = path.read_bytes()
        return data, self._version_of(data)

    def list(self, prefix: str = "") -> list[tuple[str, str, int]]:
        out = []
        for path in sorted(self.root.rglob("*")):
            if not path.is_file():
                continue
            key = path.relative_to(self.root).as_posix()
            if _is_temp(key) or not key.startswith(prefix):
                continue
            data = path.read_bytes()
            out.append((key, self._version_of(data), len(data)))
        return out

    def delete(self, key: str) -> None:
        self._path(key).unlink(missing_ok=True)


class HttpStore(RemoteStore):
    """HTTP object backend (opaque base URL, optional bearer token)."""

    def __init__(self, base_url: str, token: str | None = None, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._session = requests.Session()
        if token:
            self._session.headers["Authorization"] = f"Bearer {token}"

    def _url(self, key: str) -> str:
        return f"{self.base_url}/{requests.utils.quote(key, safe='/')}"

    def _request(self, method: str, url: str, **kwargs) -> requests.Response:
        try:
            return self._session.request(method, url, timeout=self.timeout, **kwargs)
        except requests.RequestException as exc:
            raise StoreUnreachable(f"{method} {url}: {exc}") from None

    def put_object(self, key: str, data: bytes, precondition_version: str | None = None) -> str:
        headers = {}
        if precondition_version is not None:
            headers["If-Match"] = precondition_version
        resp = self._request("PUT", self._url(key), data=data, headers=headers)
        if resp.status_code == 412:
            raise PreconditionFailed(f"{key!r}: remote version moved")
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

    def delete(self, key: str) -> None:
        resp = self._request("DELETE", self._url(key))
        if resp.status_code not in (200, 204, 404):
            raise StoreUnreachable(f"DELETE {key!r} -> HTTP {resp.status_code}")


class SyncState:
    """Per-key (last-synced version, local content digest), persisted as a
    versioned length-prefixed binary record beside the vault."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[str, tuple[str, bytes]] = {}
        if self.path.is_file():
            self._load(self.path.read_bytes())

    def _load(self, raw: bytes) -> None:
        count, body = unpack_record(raw, STATE_MAGIC, STATE_VERSION, StateCorrupt)
        off = 0
        try:
            for _ in range(count):
                (klen,) = struct.unpack_from("<I", body, off); off += 4
                key = body[off:off + klen].decode("utf-8"); off += klen
                (vlen,) = struct.unpack_from("<I", body, off); off += 4
                ver = body[off:off + vlen].decode("utf-8"); off += vlen
                digest = body[off:off + 32]; off += 32
                self.entries[key] = (ver, digest)
        except (struct.error, UnicodeDecodeError) as exc:
            raise StateCorrupt(f"truncated sync state: {exc}") from None
        if off != len(body):
            raise StateCorrupt("trailing bytes in sync state")

    def save(self) -> None:
        body = bytearray()
        for key, (ver, digest) in sorted(self.entries.items()):
            kb, vb = key.encode("utf-8"), ver.encode("utf-8")
            body += struct.pack("<I", len(kb)) + kb
            body += struct.pack("<I", len(vb)) + vb
            body += digest
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(self.path) as out:
            out.write(pack_record(STATE_MAGIC, STATE_VERSION, len(self.entries), body))


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


def _local_files(root: Path) -> dict[str, Path]:
    out: dict[str, Path] = {}
    for path in root.rglob("*"):
        if not path.is_file() or path.name in _EXCLUDED_NAMES or path.name.endswith(".lock"):
            continue
        key = path.relative_to(root).as_posix()
        if not _is_temp(key):
            out[key] = path
    return out


def _digest_file(path: Path) -> bytes:
    h = sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.digest()


def _sanitize_version(version: str) -> str:
    clean = re.sub(r"[^A-Za-z0-9._-]", "", version)
    return clean or sha256(version.encode()).hexdigest()[:16]


def sync(root: str | Path, store: RemoteStore, state: SyncState) -> SyncReport:
    """Synchronize a vault root with a remote store (three-way, per key).

    One run at a time per state file (an exclusive lock guards it); partial
    progress is preserved: the state file is saved even when a transfer
    raises (StoreUnreachable is retryable).
    """
    state.path.parent.mkdir(parents=True, exist_ok=True)
    lock_path = state.path.with_name(state.path.name + ".lock")
    with open(lock_path, "a+") as lock_handle:
        try:
            fcntl.flock(lock_handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise VaultError(f"another sync run holds {lock_path}") from None
        return _sync_locked(Path(root), store, state)


def _sync_locked(root: Path, store: RemoteStore, state: SyncState) -> SyncReport:
    report = SyncReport()
    local = _local_files(root)
    local_digests = {key: _digest_file(path) for key, path in local.items()}
    remote = {key: ver for key, ver, _size in store.list("")}

    def push(key: str, precondition: str | None) -> None:
        data = local[key].read_bytes()
        try:
            version = store.put_object(key, data, precondition_version=precondition)
        except PreconditionFailed:
            # remote moved underneath us: treat as a both-changed conflict
            conflict(key)
            return
        state.entries[key] = (version, local_digests[key])
        report.pushed.append(key)

    def local_target(key: str) -> Path:
        target = root / key
        if not target.resolve().is_relative_to(root.resolve()):
            raise ValueError(f"remote key escapes the vault root: {key!r}")
        return target

    def store_local(key: str, data: bytes, version: str) -> None:
        target = local_target(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(target) as out:
            out.write(data)
        state.entries[key] = (version, sha256(data).digest())

    def conflict(key: str) -> None:
        """Both sides changed the key, and it still exists remotely."""
        data, remote_version = store.get_object(key)
        local_digest = local_digests.get(key)  # None: deleted locally
        if sha256(data).digest() == local_digest:
            # both sides hold identical bytes: nothing to reconcile
            state.entries[key] = (remote_version, local_digest)
            return
        conflict_key = f"{key}.conflict-{_sanitize_version(remote_version)}"
        store_local(conflict_key, data, store.put_object(conflict_key, data))
        # the local side wins the original key; the remote copy is kept above
        if local_digest is None:
            store.delete(key)
            state.entries.pop(key, None)
        else:
            state.entries[key] = (store.put_object(key, local[key].read_bytes()), local_digest)
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
                    if remote_version is not None:
                        store.delete(key)
                        report.pushed.append(key)
                    state.entries.pop(key, None)
                else:
                    push(key, precondition=last_version)
            elif remote_changed and not local_changed:
                if remote_version is None:
                    local_target(key).unlink(missing_ok=True)
                    state.entries.pop(key, None)
                    report.pulled.append(key)
                else:
                    store_local(key, *store.get_object(key))
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
