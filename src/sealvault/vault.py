"""The on-disk encrypted container: creation, unlock, and file operations.

Physical layout under a vault root:

    vault.cfg                      versioned binary config record (see below)
    d/<2 hex>/<30 hex>/            one physical directory per directory id,
                                   sharded by HMAC-SHA-256(name_key, dir_id)
        <encrypted-name>.sc        a file object (regular file)
        <encrypted-name>.sc/       a subdirectory entry, containing only
            dirid.sc               the child directory id, encrypted

The root directory has dir_id = 16 zero bytes. File objects start with a
fixed 640-byte header (file_id, the per-file content key protected per
mode, zero padding), followed by encrypted 32 KiB blocks in index order,
so the ciphertext size is always

    640 + overhead * ceil(cleartext / 32768) + cleartext

with overhead 28 (v1) or 560 (sealed). The law is invertible, which lets
directory listings report cleartext sizes without touching file contents.

A handle holds one key object, picked by mode at unlock (`_V1Keys` or
`_SealedKeys`, both `modes.MasterKeys`). It protects and recovers the file
key in each header, builds each file's block cipher (`modes.block_cipher`),
and lock() destroys it, ending a sealed vault's enclave session.

File contents move through one data path. Each read or write builds the
file's block cipher once and moves a batch of up to BATCH_BLOCKS blocks at a
time. An open file is one object: `open(path, "wb")` gives a FileWriter,
which encrypts whole blocks straight from the caller's buffers into one
reused batch buffer and issues one write per batch, and `open(path, "rb")`
a FileReader, which holds the object's descriptor, reads a batch of
ciphertext at a time by its offset, into one buffer sized to the largest
read so far, and decrypts each block straight into the caller's buffer.
`write_file` and `read_to` are short callers of them, so their memory,
like the objects', is bounded by the batch, not the file. `read_file` and
`read_range` open the object directly and decrypt into one buffer sized to
the request. Every read side opens the object with one os.open and one
fstat and reads with os.pread/os.preadv, into buffers sized to the
ciphertext it needs and not zeroed first; `read_file` reads the header
with the first batch of blocks, so a file of up to one batch costs one
open, one fstat, one read and one close, and it returns the buffer it
decrypted into, a bytearray, without copying it.

vault.cfg is a length-prefixed record protected by a SHA-256 trailer; any
bit flip surfaces as CorruptConfig before key material is touched. It
stores only wrapped or sealed secrets and is safe to sync to a remote.

One helper does each recurring job, here and in `sync`, `cli` and `bench`:
`atomic_write` writes every file (a .tmp-<hex> sibling, then os.replace;
only a new entry's dirid.sc, in its fresh staging directory, is written
directly) and `exclusive_lock` takes the advisory lock of a CLI command or
a sync run, each making a missing parent, so no caller makes one first;
`pack_record`/`unpack_record` frame vault.cfg and sync.state, and
`VaultHandle._entry` maps a path to its (parent dir id, physical entry).

Each namespace step asks the filesystem one question, on plain str paths: a
path level is resolved by opening its entry's dirid.sc (a missing entry, or
a file in the way, is NotFound), a read opens the object, and a directory
removal lets rmdir of its shard decide whether it is empty (`.tmp-` crash
leftovers alone do not keep it from being empty). A directory is
created by renaming a staged .tmp- entry into place, removed by renaming its
entry to a .tmp- name before deleting it, and renamed by staging the new
entry before removing the old one. So a crash at any step leaves at worst a
.tmp- name, which listing and sync skip at any depth, or two names for one
directory. Writes take no lock: each FileWriter sets up its own temp
file, cipher and header, so writes to one path may overlap from setup to
rename, and the last rename wins.

A FileWriter starts each batch's writeback (sync_file_range) as soon as the
batch is written, and on close fsyncs the new object before the rename that
publishes it, so that fsync waits only for the tail. An object larger than
one batch that the rename replaces is held open across it and closed on the
handle's release thread, so the kernel frees its space shortly after
close returns, off the caller's path. At most one such release is
pending per handle: the next hand-off, and lock(), wait for it.
Directories are not fsynced, so the contract is consistency after a
process crash; a power loss may undo the latest namespace changes.

A handle memoizes lookups by (parent dir id, name): the physical entry,
which is a pure function of the keys (shard HMAC joined with the AES-SIV
name), and for a directory the last dirid.sc bytes that authenticated with
the id they decrypted to. Every level still reads its dirid.sc, and the
memoized id is reused only when the bytes just read equal the memoized
bytes; otherwise the level authenticates them and replaces the entry. So a
rename, removal, re-creation, sync pull, second handle or tampering shows at
the very next lookup, and nothing needs invalidating.

Two more memos keep warm reads from decrypting anything twice. The header
memo maps a file's physical entry to its own copy of the 640 header bytes
last read or written there and the (file id, file key) they hold: every
open still reads the header, reuses the key only when the bytes equal the
memoized bytes, and otherwise unwraps or unseals them as a cold read does
and replaces the entry; a FileWriter memoizes the header it writes. Blocks
are authenticated on every read, and the size comes from fstat. The name
memo maps (dir id, encoded name) to the name for list_dir. AES-SIV is
deterministic, so it needs no check on disk; only names that authenticated
enter it, and a failure is tried again at every listing. A fourth memo maps
a logical path string to its validated components (`_split_path` is a pure
function of the string); it holds cleartext names, so like the name memo
it lives in the handle, and a locked handle adds nothing to it.

Each memo is emptied when it reaches _LOOKUP_MEMO_SIZE entries and by
lock(); each is touched only by single dict get, set and clear calls, so
readers share them without a lock.
"""

from __future__ import annotations

import ctypes
import errno
import fcntl
import hmac
import io
import os
import shutil
import stat
import struct
import threading
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import IO, BinaryIO, Iterator

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import modes, tee
from .errors import (
    AlreadyDestroyed,
    AuthenticationFailure,
    CorruptConfig,
    DirectoryNotEmpty,
    InvalidName,
    MalformedBlob,
    MalformedBlock,
    MissingPlatform,
    NotFound,
    StorageFull,
    SvnViolation,
    TargetNotEmpty,
    UnsealFailure,
    VaultError,
    VaultLocked,
    WrongPassword,
)

CONFIG_NAME = "vault.cfg"
DATA_DIR = "d"
FILE_HEADER_SIZE = 640
ROOT_DIR_ID = bytes(16)
DIRID_NAME = "dirid.sc"
TEMP_PREFIX = ".tmp-"
# Blocks moved per read or write batch (1 MiB of cleartext); buffers are
# sized to the request, up to this cap.
BATCH_BLOCKS = 32
# Lookup memo entries per handle; the memo is emptied when it reaches this.
_LOOKUP_MEMO_SIZE = 4096
# write_file holds a replaced object larger than this (one batch of blocks)
# open across its rename, so freeing it happens off the caller's path.
_HOLD_REPLACED_OVER = BATCH_BLOCKS * modes.BLOCK_SIZE

CONFIG_MAGIC = b"SVC1"
CONFIG_VERSION = 1

# Built-in enclave identity for sealed vaults. The code blob stands in for
# an enclave binary; bumping it changes the measurement and orphans old
# vaults, so treat it as part of the on-disk format.
VAULT_ENCLAVE_CODE = b"sealvault block-sealing enclave r1\n"
VAULT_ENCLAVE_SIGNER = b"sealvault signing identity r1"
VAULT_ENCLAVE_PRODUCT_ID = 1
VAULT_ENCLAVE_ISV_SVN = 1

_LABEL_NAME_KEY = b"SVNAMEKEY"
_LABEL_CONTENT_KEY = b"SVCONTENTKEY"
_LABEL_FILE_KEY = b"SVFILEKEY"
_LABEL_DIR_ID = b"SVDIRID"

_SEALED_KEY_SIZE = tee.HEADER_SIZE + 32  # sealed blob carrying a 32-byte key
# Per mode: its vault.cfg code, also its content key's protection kind (1
# wrapped, 2 sealed), that protection's size, and if an enclave descriptor follows.
_CONFIG_FORMS = {
    modes.ModeId.V1: (1, modes.WRAPPED_KEY_SIZE, False),
    modes.ModeId.SEALED: (2, _SEALED_KEY_SIZE, True),
}
_DIRID_SIZE = 12 + 16 + 16  # AES-GCM nonce, the 16-byte id, tag

_RECORD_HEADER = struct.Struct("<4sII")  # magic, version, count; SHA-256 trailer

_SYNC_FILE_RANGE_WRITE = 2


def _libc_sync_file_range():
    """libc's sync_file_range(2), or None where the C library has none."""
    try:
        fn = ctypes.CDLL(None).sync_file_range
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_int64, ctypes.c_int64, ctypes.c_uint)
    fn.restype = ctypes.c_int
    return fn


_sync_file_range = _libc_sync_file_range()


# CPython's PyByteArray_FromStringAndSize: given a NULL source it returns a
# new bytearray whose bytes are left as the allocator gave them, where
# bytearray(n) zeroes them.
_new_bytearray = ctypes.pythonapi.PyByteArray_FromStringAndSize
_new_bytearray.argtypes = (ctypes.c_char_p, ctypes.c_ssize_t)
_new_bytearray.restype = ctypes.py_object


def _unzeroed(size: int) -> bytearray:
    """A new bytearray of `size` bytes, not zeroed first: only for a caller
    that overwrites every byte before anyone reads it, or drops it."""
    return _new_bytearray(None, size)


def _start_writeback(fd: int, offset: int, length: int) -> None:
    """Have the kernel start writing [offset, offset + length) of `fd` to
    disk now, without waiting, so a later fsync has less left to wait for.
    Does nothing without sync_file_range; its result is ignored, since the
    fsync that follows is the one durability check."""
    if _sync_file_range is not None:
        _sync_file_range(fd, offset, length, _SYNC_FILE_RANGE_WRITE)


def _close_replaced(fd: int) -> None:
    """Close a replaced object's last descriptor; the kernel frees its
    pages and blocks in this call."""
    os.close(fd)


def _temp_sibling(path: str | os.PathLike) -> str:
    return os.path.join(os.path.dirname(path), TEMP_PREFIX + os.urandom(8).hex())


def _rmdir_shard(shard: str) -> None:
    """rmdir a directory's shard. `.tmp-` names are crash leftovers, not
    content: if only they keep the shard from being empty, remove them and
    try once more. A child operation still in flight loses its `.tmp-` name
    and fails; a real entry that lands meanwhile keeps ENOTEMPTY."""
    try:
        os.rmdir(shard)
    except OSError as exc:
        if exc.errno != errno.ENOTEMPTY:
            raise
        with os.scandir(shard) as it:
            leftovers = list(it)
        if not all(e.name.startswith(TEMP_PREFIX) for e in leftovers):
            raise
        for e in leftovers:
            if e.is_dir(follow_symlinks=False):
                shutil.rmtree(e.path, ignore_errors=True)
            else:
                with suppress(FileNotFoundError):
                    os.unlink(e.path)
        os.rmdir(shard)


def _create(path: str | os.PathLike, mode: str) -> IO:
    try:
        return open(path, mode)
    except FileNotFoundError:  # the parent directory is missing
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return open(path, mode)


@contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """Write `path` all or nothing: yield a binary file on a `.tmp-<hex>`
    sibling and os.replace it over `path` when the body returns. A missing
    parent is made (a synced replica may lack shard dirs for empty
    directories). A failure removes the temp file and keeps the old content
    (ENOSPC is StorageFull). Nothing is fsynced; a body may fsync."""
    tmp = _temp_sibling(path)
    try:
        with _create(tmp, "wb") as out:
            yield out
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno == errno.ENOSPC:
            raise StorageFull(str(exc)) from None
        raise


@contextmanager
def exclusive_lock(path: str | os.PathLike, holder: str) -> Iterator[None]:
    """Hold an advisory exclusive flock on `path`, created if missing (its
    parent too), for the body. If it is already held, raise VaultError at
    once, naming `holder` as the one that holds it."""
    with _create(path, "a+") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise VaultError(f"{holder} holds the lock on {path}") from None
        yield


def pack_record(magic: bytes, version: int, count: int, body: bytes) -> bytes:
    """magic | u32 version | u32 count | body | SHA-256 of all before it;
    `count` is a body length or an entry count, as the format says."""
    record = _RECORD_HEADER.pack(magic, version, count) + body
    return record + sha256(record).digest()


def unpack_record(raw: bytes, magic: bytes, version: int,
                  error_cls: type[Exception]) -> tuple[int, bytes]:
    """Check a record's magic, SHA-256 trailer and version, in that order,
    raising `error_cls` on any mismatch; returns (count, body)."""
    if len(raw) < _RECORD_HEADER.size + 32 or raw[:4] != magic:
        raise error_cls(f"not a {magic.decode()} record")
    if sha256(raw[:-32]).digest() != raw[-32:]:
        raise error_cls(f"{magic.decode()} record integrity check failed")
    _, got, count = _RECORD_HEADER.unpack_from(raw)
    if got != version:
        raise error_cls(f"unsupported {magic.decode()} record version {got}")
    return count, raw[_RECORD_HEADER.size:-32]


@dataclass
class VaultConfig:
    """Parsed vault.cfg contents."""

    format_version: int
    vault_id: bytes
    mode: modes.ModeId
    kdf_salt: bytes
    kdf_iterations: int
    wrapped_name_key: bytes
    content_key_protection: bytes
    enclave_measurement: bytes | None = None
    enclave_signer: bytes | None = None

    def to_bytes(self) -> bytes:
        code = _CONFIG_FORMS[self.mode][0]
        body = bytearray()
        body += self.vault_id
        body += struct.pack("<B", code)
        body += self.kdf_salt
        body += struct.pack("<I", self.kdf_iterations)
        body += struct.pack("<H", len(self.wrapped_name_key)) + self.wrapped_name_key
        body += struct.pack("<B", code)
        body += struct.pack("<I", len(self.content_key_protection))
        body += self.content_key_protection
        if self.enclave_measurement is not None:
            body += b"\x01" + self.enclave_measurement + self.enclave_signer
        else:
            body += b"\x00"
        return pack_record(CONFIG_MAGIC, self.format_version, len(body), body)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "VaultConfig":
        body_len, body = unpack_record(raw, CONFIG_MAGIC, CONFIG_VERSION, CorruptConfig)
        if len(body) != body_len:
            raise CorruptConfig("config length mismatch")
        try:
            off = 0
            vault_id = body[off:off + 16]; off += 16
            (mode_code,) = struct.unpack_from("<B", body, off); off += 1
            salt = body[off:off + 16]; off += 16
            (iterations,) = struct.unpack_from("<I", body, off); off += 4
            (nk_len,) = struct.unpack_from("<H", body, off); off += 2
            wrapped_name_key = body[off:off + nk_len]; off += nk_len
            (kind,) = struct.unpack_from("<B", body, off); off += 1
            (prot_len,) = struct.unpack_from("<I", body, off); off += 4
            protection = body[off:off + prot_len]; off += prot_len
            (has_enclave,) = struct.unpack_from("<B", body, off); off += 1
            measurement = signer = None
            if has_enclave:
                measurement = body[off:off + 32]; off += 32
                signer = body[off:off + 32]; off += 32
            if off != len(body):
                raise CorruptConfig("trailing bytes in config body")
        except struct.error:
            raise CorruptConfig("truncated config body") from None
        mode = next((m for m, form in _CONFIG_FORMS.items() if form[0] == mode_code), None)
        if mode is None:
            raise CorruptConfig(f"unknown mode code {mode_code}")
        if len(wrapped_name_key) != modes.WRAPPED_KEY_SIZE or len(salt) != 16:
            raise CorruptConfig("bad field sizes in config")
        if (kind, prot_len, measurement is not None) != _CONFIG_FORMS[mode]:
            raise CorruptConfig(f"{mode.value} config does not carry its mode's content key "
                                "protection and enclave descriptor")
        return cls(
            format_version=CONFIG_VERSION,
            vault_id=vault_id,
            mode=mode,
            kdf_salt=salt,
            kdf_iterations=iterations,
            wrapped_name_key=wrapped_name_key,
            content_key_protection=protection,
            enclave_measurement=measurement,
            enclave_signer=signer,
        )


def describe_config(config: VaultConfig) -> str:
    """Human-readable diagnostic dump of a config record (no secrets beyond
    their wrapped/sealed forms)."""
    lines = [
        f"format_version:  {config.format_version}",
        f"vault_id:        {config.vault_id.hex()}",
        f"mode:            {config.mode.value}",
        f"kdf:             PBKDF2-HMAC-SHA256, salt={config.kdf_salt.hex()}, "
        f"iterations={config.kdf_iterations}",
        f"name_key:        wrapped, {len(config.wrapped_name_key)} bytes",
        f"content_key:     {'wrapped' if config.mode is modes.ModeId.V1 else 'sealed'}, "
        f"{len(config.content_key_protection)} bytes",
    ]
    if config.enclave_measurement is not None:
        lines.append(f"enclave:         measurement={config.enclave_measurement.hex()}")
        lines.append(f"                 signer={config.enclave_signer.hex()}")
    return "\n".join(lines)


@dataclass(frozen=True)
class DirEntry:
    """One directory listing entry; kind is 'file', 'dir', or 'unreadable'
    (an entry whose name does not decrypt under this vault's keys)."""

    name: str
    kind: str
    size: int | None


def object_size(cleartext_size: int, block_overhead: int) -> int:
    """Forward size law: ciphertext object size for a given cleartext size."""
    if cleartext_size < 0:
        raise ValueError("negative size")
    n_blocks = -(-cleartext_size // modes.BLOCK_SIZE)
    return FILE_HEADER_SIZE + block_overhead * n_blocks + cleartext_size


def invert_object_size(ciphertext_size: int, block_overhead: int) -> int:
    """Recover the cleartext size from a ciphertext object size.

    The law pt -> 640 + ovh*ceil(pt/32768) + pt is strictly increasing, so
    the inverse is unique: n = ceil((ct-640) / (32768+ovh)), pt = ct-640-ovh*n.
    Raises ValueError for sizes no valid object can have.
    """
    if ciphertext_size == FILE_HEADER_SIZE:
        return 0
    body = ciphertext_size - FILE_HEADER_SIZE
    if body <= block_overhead:
        raise ValueError(f"no cleartext size maps to ciphertext size {ciphertext_size}")
    full = modes.BLOCK_SIZE + block_overhead
    n_blocks = -(-body // full)
    cleartext = body - block_overhead * n_blocks
    if cleartext < 0 or -(-cleartext // modes.BLOCK_SIZE) != n_blocks:
        raise ValueError(f"no cleartext size maps to ciphertext size {ciphertext_size}")
    return cleartext


def _shard_path(root: str | os.PathLike, name_key: bytes, dir_id: bytes) -> str:
    """Physical directory of a directory id: d/<2 hex>/<30 hex> of its HMAC."""
    digest = hmac.digest(name_key, dir_id, "sha256").hex()
    return os.path.join(root, DATA_DIR, digest[:2], digest[2:32])


def _read_dirid(path: str) -> bytes:
    """The raw dirid object at `path`, inside a subdirectory entry (up to one
    byte more than its size, so an oversized one shows). The open is the
    only probe: FileNotFoundError means no entry (or one without its dirid
    object), NotADirectoryError means a file holds the name."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, _DIRID_SIZE + 1)
    finally:
        os.close(fd)


def _pread_exact(fd: int, view: memoryview, offset: int) -> None:
    """Fill `view` from `fd` at `offset`, topping up short reads; a short
    object is malformed, since every size read here comes from the size law."""
    filled = os.preadv(fd, (view,), offset)
    while filled < len(view):
        got = os.preadv(fd, (view[filled:],), offset + filled)
        if not got:
            raise MalformedBlock("file object ends before its last block")
        filled += got


def _blocks(size: int) -> int:
    return -(-size // modes.BLOCK_SIZE)


def _batch_ciphertext(clear: int, overhead: int) -> int:
    """Ciphertext bytes of the first batch of a read of `clear` cleartext
    bytes from a block boundary on: all of them, up to BATCH_BLOCKS blocks."""
    clear = min(clear, BATCH_BLOCKS * modes.BLOCK_SIZE)
    return clear + overhead * _blocks(clear)


def _split_path(logical_path: str) -> list[str]:
    """Split and validate a logical vault path into components."""
    parts = [p for p in str(logical_path).replace("\\", "/").split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise InvalidName(f"path component {part!r} not allowed")
        modes._validate_name(part)
    return parts


class _V1Keys(modes.MasterKeys):
    """v1 master keys: the content key wraps each file key (60 bytes), and
    the file key keys the file's blocks."""

    protected_size = modes.WRAPPED_KEY_SIZE

    def protect(self, file_id: bytes, file_key: bytes) -> bytes:
        return modes.wrap_key(self.content_key, file_key, _LABEL_FILE_KEY + file_id)

    def recover(self, file_id: bytes, protected: bytes) -> bytes:
        return modes.unwrap_key(self.content_key, protected, _LABEL_FILE_KEY + file_id)

    def cipher(self, file_id: bytes, file_key: bytes) -> modes.BlockCipher:
        return modes.block_cipher(modes.ModeId.V1, file_key, file_id)

    def destroy(self) -> None:
        pass


@dataclass(frozen=True, repr=False)
class _SealedKeys(modes.MasterKeys):
    """sealed master keys and the vault's enclave session, which seals each
    file key (592 bytes) and every block; destroy() ends the session."""

    session: modes.EnclaveSession
    protected_size = _SEALED_KEY_SIZE

    def protect(self, file_id: bytes, file_key: bytes) -> bytes:
        return self.session.encrypt_bytes(file_key, _LABEL_FILE_KEY + file_id).to_bytes()

    def recover(self, file_id: bytes, protected: bytes) -> bytes:
        try:
            return self.session.decrypt_bytes(protected, _LABEL_FILE_KEY + file_id)
        except MalformedBlob as exc:
            raise MalformedBlock(str(exc)) from None

    def cipher(self, file_id: bytes, file_key: bytes) -> modes.BlockCipher:
        return modes.block_cipher(modes.ModeId.SEALED, self.session, file_id)

    def destroy(self) -> None:
        with suppress(AlreadyDestroyed):
            self.session.destroy()


class VaultHandle:
    """An unlocked vault. Obtained from unlock_vault; rejects all I/O after
    lock(). Concurrent readers and writers are fine and take no lock; writes
    to one logical path may overlap, and the last rename wins."""

    def __init__(self, root: Path, config: VaultConfig, master: _V1Keys | _SealedKeys):
        self.root = Path(root)
        self.config = config
        self.mode = config.mode
        self._master: _V1Keys | _SealedKeys | None = master
        # (parent dir id, name) -> (entry, its dirid path, dirid bytes, dir id)
        self._memo: dict[tuple[bytes, str], tuple] = {}
        # file entry -> (header bytes, file id, file key)
        self._headers: dict[str, tuple[bytes, bytes, bytes]] = {}
        # (dir id, encoded name) -> name
        self._names: dict[tuple[bytes, str], str] = {}
        # logical path -> its validated components
        self._splits: dict[str, list[str]] = {}
        # the thread closing the last replaced object write_file held open
        self._release_lock = threading.Lock()
        self._releasing: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def is_locked(self) -> bool:
        return self._master is None

    def lock(self) -> None:
        """Drop key material (ending a sealed vault's enclave session), and
        wait until the last replaced object is released; the handle rejects
        all further I/O."""
        master, self._master = self._master, None
        if master is not None:
            master.destroy()
            modes.forget_name_key(master.name_key)
        self._memo.clear()
        self._headers.clear()
        self._names.clear()
        self._splits.clear()
        with self._release_lock:
            self._wait_release()

    def __enter__(self) -> "VaultHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.lock()

    def _keys(self) -> _V1Keys | _SealedKeys:
        if self._master is None:
            raise VaultLocked("vault handle is locked")
        return self._master

    # -- path resolution ----------------------------------------------------

    @staticmethod
    def _remember(memo: dict, key, value) -> None:
        if len(memo) >= _LOOKUP_MEMO_SIZE:
            memo.clear()
        memo[key] = value

    def _split(self, logical_path: str) -> list[str]:
        """`_split_path` of `logical_path`, memoized; callers must not change
        the list. A locked handle memoizes nothing, so lock() leaves no name."""
        parts = self._splits.get(logical_path)
        if parts is None:
            parts = _split_path(logical_path)
            if self._master is not None:
                self._remember(self._splits, logical_path, parts)
        return parts

    def _lookup(self, name_key: bytes, dir_id: bytes, name: str) -> tuple:
        """Memo entry of `name` in directory `dir_id`: (physical entry, the
        path of its dirid object, the last dirid bytes that authenticated,
        the id they decrypt to). A new entry has only its paths."""
        hit = self._memo.get((dir_id, name))
        if hit is None:
            entry = os.path.join(_shard_path(self.root, name_key, dir_id),
                                 modes.encrypt_filename(name_key, dir_id, name))
            hit = (entry, os.path.join(entry, DIRID_NAME), None, None)
            self._remember(self._memo, (dir_id, name), hit)
        return hit

    def _dir_id(self, parent_id: bytes, name: str) -> bytes:
        """The id of directory `name` in `parent_id`, from its dirid object,
        read on every call (errors as `_read_dirid`). Bytes equal to those
        memoized reuse their id; others are authenticated and memoized."""
        name_key = self._keys().name_key
        entry, dirid, seen, known = self._lookup(name_key, parent_id, name)
        raw = _read_dirid(dirid)
        if raw == seen:
            return known
        if len(raw) != _DIRID_SIZE:
            raise MalformedBlock("directory id object has wrong size")
        try:
            child_id = AESGCM(name_key).decrypt(raw[:12], raw[12:], _LABEL_DIR_ID + parent_id)
        except InvalidTag:
            raise AuthenticationFailure("directory id failed authentication") from None
        self._remember(self._memo, (parent_id, name), (entry, dirid, raw, child_id))
        return child_id

    def _resolve_dir(self, parts: list[str], create: bool = False) -> bytes:
        """Walk directory components to the last one's dir id; `create`
        makes missing ones."""
        dir_id = ROOT_DIR_ID
        for comp in parts:
            try:
                dir_id = self._dir_id(dir_id, comp)
            except NotADirectoryError:
                raise NotFound(f"{comp!r} is a file, not a directory") from None
            except FileNotFoundError:
                if not create:
                    raise NotFound(f"no such directory: {comp!r}") from None
                dir_id = self._create_dir_entry(dir_id, comp, os.urandom(16))
        return dir_id

    def _create_dir_entry(self, parent_id: bytes, name: str, child_id: bytes) -> bytes:
        """Create entry `name` in `parent_id` for directory `child_id`
        atomically: stage it with its dirid object (bound to `parent_id`),
        rename it into place, and defer to a concurrent winner, whose id is
        then returned instead."""
        name_key = self._keys().name_key
        entry, dirid = self._lookup(name_key, parent_id, name)[:2]
        staging = _temp_sibling(entry)
        os.makedirs(staging)
        iv = os.urandom(12)
        raw = iv + AESGCM(name_key).encrypt(iv, child_id, _LABEL_DIR_ID + parent_id)
        with open(os.path.join(staging, DIRID_NAME), "wb") as out:
            out.write(raw)
        try:
            os.rename(staging, entry)
        except OSError as exc:
            shutil.rmtree(staging, ignore_errors=True)
            try:
                return self._dir_id(parent_id, name)
            except NotADirectoryError:
                raise TargetNotEmpty(
                    f"a file occupies the directory slot at {os.path.basename(entry)!r}"
                ) from None
            except FileNotFoundError:
                raise exc from None
        self._remember(self._memo, (parent_id, name), (entry, dirid, raw, child_id))
        return child_id

    @staticmethod
    def _drop_dir_entry(entry: str) -> None:
        """Remove a subdirectory entry (not the directory's shard). The entry
        is first renamed to a .tmp- sibling, so a crash at any later step
        leaves only a name that listing and sync skip."""
        doomed = _temp_sibling(entry)
        os.rename(entry, doomed)
        os.unlink(os.path.join(doomed, DIRID_NAME))
        os.rmdir(doomed)

    def _shard(self, dir_id: bytes) -> str:
        return _shard_path(self.root, self._keys().name_key, dir_id)

    def _entry(self, parts: list[str], create: bool = False) -> tuple[bytes, str]:
        """(parent dir id, physical entry) of a non-root path; `create` makes parents."""
        dir_id = self._resolve_dir(parts[:-1], create=create)
        return dir_id, self._lookup(self._keys().name_key, dir_id, parts[-1])[0]

    def _physical(self, logical_path: str) -> str:
        """`map_path` as a plain str."""
        parts = self._split(logical_path)
        return self._entry(parts)[1] if parts else self._shard(ROOT_DIR_ID)

    def map_path(self, logical_path: str) -> Path:
        """Physical location of a logical path (pure function of the keys)."""
        return Path(self._physical(logical_path))

    def exists(self, logical_path: str) -> bool:
        try:
            return os.path.exists(self._physical(logical_path))
        except NotFound:
            return False

    def make_dir(self, logical_path: str) -> None:
        """Create a directory (and any missing parents)."""
        parts = self._split(logical_path)
        if not parts:
            return
        os.makedirs(self._shard(self._resolve_dir(parts, create=True)), exist_ok=True)

    # -- file objects --------------------------------------------------------

    def _build_header(self, file_id: bytes, file_key: bytes) -> bytes:
        header = file_id + self._keys().protect(file_id, file_key)
        return header + bytes(FILE_HEADER_SIZE - len(header))

    def _parse_header(self, raw: bytes) -> tuple[bytes, bytes]:
        """Validate a 640-byte header and recover (file_id, file_key)."""
        if len(raw) < FILE_HEADER_SIZE:
            raise MalformedBlock("file object shorter than its header")
        keys = self._keys()
        file_id, end = raw[:16], 16 + keys.protected_size
        if any(raw[end:FILE_HEADER_SIZE]):
            raise MalformedBlock("file header padding not zero")
        file_key = keys.recover(file_id, raw[16:end])
        if len(file_key) != 32:
            raise MalformedBlock("protected file key has wrong size")
        return file_id, file_key

    def open(self, logical_path: str, mode: str = "rb") -> "FileReader | FileWriter":
        """Open a stored file: "rb" gives a seekable FileReader, "wb" a
        FileWriter that replaces the file when it closes."""
        if mode == "rb":
            return FileReader(self, *self._open_object(logical_path)[:3])
        if mode == "wb":
            return FileWriter(self, self._split(logical_path))
        raise ValueError(f"unsupported mode {mode!r} (use 'rb' or 'wb')")

    def write_file(self, logical_path: str, content: bytes | BinaryIO) -> int:
        """Encrypt and store content (a bytes-like object, or a binary stream
        with readinto) at a logical path through a FileWriter, creating
        parent directories as needed. Bytes-like content is encrypted
        straight from the caller's buffer. A stream is read to its end; one
        whose readinto returns None (non-blocking, nothing ready) raises
        BlockingIOError and the old version stays. Returns the number of
        cleartext bytes stored."""
        with FileWriter(self, self._split(logical_path)) as out:
            if isinstance(content, (bytes, bytearray, memoryview)):
                out.write(content)
            else:
                batch = memoryview(bytearray(BATCH_BLOCKS * modes.BLOCK_SIZE))
                while got := content.readinto(batch):
                    out.write(batch[:got])
                if got is None:  # a non-blocking stream with nothing ready
                    raise BlockingIOError(
                        errno.EAGAIN, "the stream has no data ready; nothing was stored")
        return out.size

    def _release(self, fd: int) -> None:
        """Close a replaced object's descriptor on a release thread of this
        handle, once the previous release has finished, so at most one is
        pending per handle; a locked handle closes it here."""
        with self._release_lock:
            self._wait_release()
            if self._master is None:
                _close_replaced(fd)
                return
            thread = threading.Thread(target=_close_replaced, args=(fd,),
                                      name="sealvault-release")
            try:
                thread.start()
            except RuntimeError:  # no thread to be had: release it here
                _close_replaced(fd)
                return
            self._releasing = thread

    def _wait_release(self) -> None:
        """Wait for the pending release, if any (with _release_lock held)."""
        if self._releasing is not None:
            self._releasing.join()
            self._releasing = None

    def _open_object(self, logical_path: str, whole: bool = False
                     ) -> tuple[int, modes.BlockCipher, int, memoryview | None]:
        """Open a stored file: (its descriptor, its block cipher, the
        cleartext size by the size law, and when `whole` the ciphertext of
        its first batch of blocks, else None). One open, one fstat and one
        read, of the header, or with `whole` of the header and that batch.
        A missing or non-regular entry is NotFound. The header is checked
        before anything returns, so before any block is decrypted."""
        parts = self._split(logical_path)
        if not parts:
            raise NotFound("the vault root is not a file")
        entry = self._entry(parts)[1]
        try:
            fd = os.open(entry, os.O_RDONLY)
        except FileNotFoundError:
            raise NotFound(f"no such file: {logical_path!r}") from None
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                raise NotFound(f"no such file: {logical_path!r}")
            try:
                size = invert_object_size(st.st_size, self.mode.block_overhead)
            except ValueError as exc:
                raise MalformedBlock(str(exc)) from None
            if whole:
                buf = memoryview(_unzeroed(
                    FILE_HEADER_SIZE + _batch_ciphertext(size, self.mode.block_overhead)))
                _pread_exact(fd, buf, 0)
                # the header's own copy, which the memo may keep: never a view of `buf`
                raw, first = bytes(buf[:FILE_HEADER_SIZE]), buf[FILE_HEADER_SIZE:]
            else:
                raw, first = os.pread(fd, FILE_HEADER_SIZE, 0), None
            seen = self._headers.get(entry)
            if seen is not None and seen[0] == raw:
                _, file_id, file_key = seen
            else:
                file_id, file_key = self._parse_header(raw)
                self._remember(self._headers, entry, (raw, file_id, file_key))
            return fd, self._keys().cipher(file_id, file_key), size, first
        except BaseException:
            os.close(fd)
            raise

    def _decrypt_blocks(self, fd: int, cipher: modes.BlockCipher, index: int,
                        out: memoryview, buf: memoryview, filled: bool = False) -> None:
        """Decrypt consecutive blocks from block `index` on until their
        cleartext fills `out`. Each batch of ciphertext is read by its offset
        into `buf`, which holds at least the first (`_batch_ciphertext`);
        `filled` says `buf` already holds it."""
        step = modes.BLOCK_SIZE + cipher.overhead
        done = 0
        while done < len(out):
            batch = buf[:_batch_ciphertext(len(out) - done, cipher.overhead)]
            if not filled:
                _pread_exact(fd, batch, FILE_HEADER_SIZE + index * step)
            filled = False
            for off in range(0, len(batch), step):
                block = batch[off:off + step]
                end = done + len(block) - cipher.overhead
                self._keys()
                cipher.decrypt_into(index, block, out[done:end])
                index += 1
                done = end

    def read_file(self, logical_path: str) -> bytearray:
        """Decrypt a stored file back to its exact original bytes, in the
        one buffer it decrypts into, which is not zeroed first. A file of
        up to one batch costs one open, one fstat, one read and one close."""
        fd, cipher, size, first = self._open_object(logical_path, whole=True)
        try:
            out = _unzeroed(size)  # _decrypt_blocks writes every byte or raises
            self._decrypt_blocks(fd, cipher, 0, memoryview(out), first, filled=True)
        finally:
            os.close(fd)
        return out

    def read_range(self, logical_path: str, offset: int, length: int) -> bytes:
        """Random-access read at block granularity: decrypts only the blocks
        covering [offset, offset+length) and slices the result."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        fd, cipher, size, _ = self._open_object(logical_path)
        try:
            if offset >= size or length == 0:
                return b""
            length = min(length, size - offset)
            first = offset // modes.BLOCK_SIZE
            last = (offset + length - 1) // modes.BLOCK_SIZE
            base = first * modes.BLOCK_SIZE
            out = _unzeroed(min((last + 1) * modes.BLOCK_SIZE, size) - base)
            buf = memoryview(_unzeroed(_batch_ciphertext(len(out), cipher.overhead)))
            self._decrypt_blocks(fd, cipher, first, memoryview(out), buf)
        finally:
            os.close(fd)
        start = offset - base
        return bytes(memoryview(out)[start:start + length])

    def read_to(self, logical_path: str, stream: BinaryIO, offset: int = 0) -> int:
        """Decrypt a stored file from `offset` to its end into `stream`
        (anything with a write method that takes all it is given). Memory use
        is bounded by one batch of blocks, whatever the file size. Returns
        the number of cleartext bytes written."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        with self.open(logical_path) as f:
            f.seek(offset)
            batch = memoryview(bytearray(min(max(f.size - offset, 0),
                                              BATCH_BLOCKS * modes.BLOCK_SIZE)))
            total = 0
            while got := f.readinto(batch):
                stream.write(batch[:got])
                total += got
        return total

    def list_dir(self, logical_path: str = "/") -> list[DirEntry]:
        """List a directory. Sizes come from the ciphertext size law alone;
        entries whose names do not decrypt are surfaced as 'unreadable'."""
        parts = self._split(logical_path)
        dir_id = self._resolve_dir(parts)
        entries: list[DirEntry] = []
        try:
            items = list(os.scandir(self._shard(dir_id)))
        except FileNotFoundError:  # empty directory on a freshly pulled replica
            return entries
        names, overhead = self._names, self.mode.block_overhead
        for item in items:
            encoded = item.name
            if encoded.startswith(TEMP_PREFIX):
                continue
            name = names.get((dir_id, encoded))
            if name is None:
                try:
                    name = modes.decrypt_filename(self._keys().name_key, dir_id, encoded)
                except Exception:
                    entries.append(DirEntry(encoded, "unreadable", None))
                    continue
                self._remember(names, (dir_id, encoded), name)
            if item.is_dir():
                entries.append(DirEntry(name, "dir", None))
                continue
            try:
                size = invert_object_size(item.stat().st_size, overhead)
            except ValueError:
                entries.append(DirEntry(encoded, "unreadable", None))
                continue
            entries.append(DirEntry(name, "file", size))
        entries.sort(key=lambda e: e.name)
        return entries

    def remove_file(self, logical_path: str) -> None:
        """Remove a file, or an empty directory."""
        parts = self._split(logical_path)
        if not parts:
            raise InvalidName("cannot remove the vault root")
        dir_id, target = self._entry(parts)
        try:
            os.unlink(target)
            return
        except FileNotFoundError:
            raise NotFound(f"no such entry: {logical_path!r}") from None
        except IsADirectoryError:
            pass
        try:
            child_id = self._dir_id(dir_id, parts[-1])
        except FileNotFoundError:
            raise NotFound(f"no such entry: {logical_path!r}") from None
        try:
            _rmdir_shard(self._shard(child_id))
        except FileNotFoundError:
            pass  # never materialized, as on a freshly pulled replica
        except OSError as exc:
            if exc.errno == errno.ENOTEMPTY:
                raise DirectoryNotEmpty(f"directory not empty: {logical_path!r}") from None
            raise
        self._drop_dir_entry(target)

    def rename_file(self, src_path: str, dst_path: str) -> None:
        """Re-encrypt an entry's name; file content objects are untouched
        (bit-identical before and after). A directory gets a new entry,
        staged and renamed into place, before its old entry is removed."""
        src_parts = self._split(src_path)
        dst_parts = self._split(dst_path)
        if not src_parts or not dst_parts:
            raise InvalidName("cannot rename the vault root")
        src_dir_id, src = self._entry(src_parts)
        try:
            child_id = self._dir_id(src_dir_id, src_parts[-1])
        except NotADirectoryError:  # a file
            _, dst = self._entry(dst_parts)
            try:
                os.rename(src, dst)
            except IsADirectoryError:
                raise TargetNotEmpty(f"destination is a directory: {dst_path!r}") from None
            return
        except FileNotFoundError:
            raise NotFound(f"no such entry: {src_path!r}") from None
        if dst_parts[:len(src_parts)] == src_parts:
            raise InvalidName(f"cannot move {src_path!r} into itself")
        dst_dir_id = self._resolve_dir(dst_parts[:-1])
        if self._create_dir_entry(dst_dir_id, dst_parts[-1], child_id) != child_id:
            raise TargetNotEmpty(f"destination exists: {dst_path!r}")
        self._drop_dir_entry(src)

    def walk(self, logical_path: str = "/") -> Iterator[tuple[str, list[str], list[str]]]:
        """os.walk-style traversal of the logical namespace."""
        base = "/".join(self._split(logical_path))
        entries = self.list_dir(logical_path)
        dirs = [e.name for e in entries if e.kind == "dir"]
        files = [e.name for e in entries if e.kind == "file"]
        yield base, dirs, files
        for d in dirs:
            yield from self.walk(f"{base}/{d}" if base else d)


class FileReader(io.RawIOBase):
    """A stored file open for reading (`VaultHandle.open(path, "rb")`).

    Seekable and unbuffered: it holds the object's descriptor and reads
    by offset, so `readinto` decrypts only the blocks a read covers, whole
    blocks straight into the caller's buffer, reading a batch of
    ciphertext at a time into one buffer sized to the largest read so far.
    A block a read covers only in part is decrypted into a one-block buffer
    and kept, so a run of small reads decrypts each block once. `readinto`
    fills the caller's buffer up to the end of the file and `readall`
    returns bytes, so io.BufferedReader can wrap it. It reads the object it
    opened, even if the path is overwritten meanwhile. `size` is the
    cleartext size. Like a file, it is for one thread at a time, and like
    one it warns (ResourceWarning) if it is collected before close()."""

    _fd = -1

    def __init__(self, handle: VaultHandle, fd: int, cipher: modes.BlockCipher, size: int):
        super().__init__()
        self._handle, self._fd, self._cipher, self.size = handle, fd, cipher, size
        self._pos = 0
        self._buf: memoryview | None = None  # ciphertext, up to a batch
        self._block: memoryview | None = None  # cleartext of block _block_index
        self._block_index: int | None = None

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        self._checkClosed()
        if whence == io.SEEK_CUR:
            offset += self._pos
        elif whence == io.SEEK_END:
            offset += self.size
        elif whence != io.SEEK_SET:
            raise ValueError(f"invalid whence {whence!r}")
        if offset < 0:
            raise ValueError("negative seek position")
        self._pos = offset
        return offset

    def readinto(self, b) -> int:
        self._checkClosed()
        self._handle._keys()  # a locked handle reads nothing, kept block or not
        out = memoryview(b).cast("B")
        n = max(0, min(len(out), self.size - self._pos))
        done = 0
        while done < n:
            index, skip = divmod(self._pos, modes.BLOCK_SIZE)
            left = n - done
            to_end = self._pos + left == self.size  # the file's short last block counts as whole
            if skip == 0 and (to_end or left >= modes.BLOCK_SIZE):
                take = left if to_end else left - left % modes.BLOCK_SIZE
                self._decrypt(index, out[done:done + take])
            else:
                clear = self._partial(index)
                take = min(len(clear) - skip, left)
                out[done:done + take] = clear[skip:skip + take]
            done += take
            self._pos += take
        return n

    def readall(self) -> bytes:
        out = _unzeroed(max(0, self.size - self._pos))  # readinto fills it or raises
        self.readinto(out)
        return bytes(out)

    def close(self) -> None:
        fd, self._fd = self._fd, -1
        try:
            if fd >= 0:
                os.close(fd)
        finally:
            super().close()

    def __del__(self) -> None:
        if self._fd >= 0:
            try:
                warnings.warn(f"unclosed {self!r}", ResourceWarning, stacklevel=2, source=self)
            finally:
                self.close()

    def _decrypt(self, index: int, out: memoryview) -> None:
        """Decrypt the blocks from `index` on whose cleartext fills `out`."""
        need = _batch_ciphertext(len(out), self._cipher.overhead)
        if self._buf is None or len(self._buf) < need:
            self._buf = memoryview(_unzeroed(need))
        self._handle._decrypt_blocks(self._fd, self._cipher, index, out, self._buf)

    def _partial(self, index: int) -> memoryview:
        """The cleartext of block `index`, decrypted unless it is the kept one."""
        length = min(modes.BLOCK_SIZE, self.size - index * modes.BLOCK_SIZE)
        if self._block_index != index:
            if self._block is None:
                self._block = memoryview(bytearray(modes.BLOCK_SIZE))
            self._block_index = None
            self._decrypt(index, self._block[:length])
            self._block_index = index
        return self._block[:length]


class FileWriter(io.RawIOBase):
    """A file being written (`VaultHandle.open(path, "wb")`).

    `write` takes pieces of any size. Whole blocks are encrypted straight
    from the caller's buffer into one batch buffer, which is written out,
    and its writeback started, each time it holds BATCH_BLOCKS blocks; only
    a block still short of 32 KiB is copied, and it waits for more. The
    blocks go to an `atomic_write` temp file. close() encrypts the last
    block, fsyncs the temp file and renames it over the path, so readers see
    the old version or the whole new one. A writer whose `with` body raises,
    whose write fails, or that is dropped without close() publishes
    nothing, and the old version stays. A replaced object larger than one
    batch is freed on the handle's release thread.

    A writer takes no lock: an open writer blocks no other write, it may be
    closed on any thread, and of two writers on one path the one whose
    rename comes last wins."""

    _atomic = None  # the atomic_write context, entered once the header is set up

    def __init__(self, handle: VaultHandle, parts: list[str]):
        super().__init__()
        if not parts:
            raise InvalidName("cannot write to the vault root")
        self._handle = handle
        _, self._target = handle._entry(parts, create=True)
        try:
            self._replaced = os.stat(self._target)
        except OSError:
            self._replaced = None
        if self._replaced is not None and stat.S_ISDIR(self._replaced.st_mode):
            raise InvalidName(f"{parts[-1]!r} is a directory")
        file_id, file_key = os.urandom(16), os.urandom(32)
        self._cipher = handle._keys().cipher(file_id, file_key)
        header = handle._build_header(file_id, file_key)
        self._header = (header, file_id, file_key)  # for the header memo
        atomic = atomic_write(self._target)
        self._out = atomic.__enter__()
        self._atomic = atomic
        self._out.write(header)  # buffered: sent with the blocks only for objects under ~7.5 KiB
        self._step = modes.BLOCK_SIZE + self._cipher.overhead
        self._fd, self._pos = self._out.fileno(), FILE_HEADER_SIZE
        self._buf: memoryview | None = None  # ciphertext of the current batch
        self._used = 0  # bytes of it filled
        self._index = 0  # the next block's index
        self._short = bytearray()  # cleartext of a block still short of 32 KiB
        self.size = 0  # cleartext bytes taken

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self._checkClosed()
        data = memoryview(b).cast("B")
        try:
            self._put(data)
        except BaseException as exc:
            self._discard(exc)
            raise
        return len(data)

    def close(self) -> None:
        if self._atomic is None:
            return super().close()
        try:
            self._seal()
        except BaseException as exc:
            self._discard(exc)
            raise
        atomic, self._atomic = self._atomic, None
        held = None
        try:
            # `_replaced` is the stat taken at open; a writer on the same path
            # closed since then only makes this choice less apt
            if self._replaced is not None and self._replaced.st_size > _HOLD_REPLACED_OVER:
                with suppress(FileNotFoundError):
                    held = os.open(self._target, os.O_RDONLY)
            atomic.__exit__(None, None, None)  # the rename that publishes it
            # a concurrent writer's rename may land before this memo; the memo
            # is used only when the header read at open equals these bytes
            self._handle._remember(self._handle._headers, self._target, self._header)
        except BaseException:
            if held is not None:
                os.close(held)
            raise
        finally:
            super().close()
        if held is not None:
            self._handle._release(held)

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif not self.closed:
            self._discard(exc)

    def __del__(self) -> None:
        if self._atomic is not None:
            self._discard(VaultError("writer dropped before close()"))

    def _discard(self, exc: BaseException) -> None:
        """Remove the temp file and end the writer, publishing nothing
        (ENOSPC surfaces as StorageFull)."""
        atomic, self._atomic = self._atomic, None
        try:
            atomic.__exit__(type(exc), exc, exc.__traceback__)
        finally:
            super().close()

    def _put(self, data: memoryview) -> None:
        """Take `data`: encrypt its whole blocks straight from it, and copy a
        block still short of 32 KiB to wait for more."""
        self._handle._keys()
        self.size += len(data)
        if self._short:
            take = modes.BLOCK_SIZE - len(self._short)
            self._short += data[:take]
            data = data[take:]
            if len(self._short) < modes.BLOCK_SIZE:
                return
            self._encrypt(memoryview(self._short))
            self._short = bytearray()
        whole = len(data) - len(data) % modes.BLOCK_SIZE
        self._encrypt(data[:whole])
        self._short += data[whole:]

    def _encrypt(self, data: memoryview) -> None:
        """Encrypt `data` block by block (only the file's last block may be
        short) into the batch buffer, writing it out each time it holds
        BATCH_BLOCKS blocks."""
        if self._buf is None and data:
            # Allocated once, at the first encrypt: one block if that is the
            # short tail close() encrypts (a one-block file), else a batch.
            # Not zeroed: only buf[:used] is written out, and every byte of
            # it was just encrypted.
            blocks = 1 if len(data) < modes.BLOCK_SIZE else BATCH_BLOCKS
            self._buf = memoryview(_unzeroed(blocks * self._step + modes.BLOCK_SLACK))
        cipher, keys, buf = self._cipher, self._handle._keys, self._buf
        index, used = self._index, self._used
        for off in range(0, len(data), modes.BLOCK_SIZE):
            keys()
            used += cipher.encrypt_into(index, data[off:off + modes.BLOCK_SIZE], buf[used:])
            index += 1
            if index % BATCH_BLOCKS == 0:
                self._flush(used)
                used = 0
        self._index, self._used = index, used

    def _flush(self, used: int) -> None:
        """Write the batch buffer's `used` bytes and start their writeback."""
        self._out.write(self._buf[:used])
        _start_writeback(self._fd, self._pos, used)
        self._pos += used

    def _seal(self) -> None:
        """Encrypt the last block, write the rest out and fsync it."""
        self._encrypt(memoryview(self._short))
        if self._used:
            self._flush(self._used)
        self._out.flush()
        os.fsync(self._fd)


def _require_empty_target(root: Path) -> None:
    if root.exists():
        if not root.is_dir():
            raise TargetNotEmpty(f"{root} exists and is not a directory")
        if any(root.iterdir()):
            raise TargetNotEmpty(f"{root} is not empty")


def _open_session(platform: tee.PlatformIdentity) -> modes.EnclaveSession:
    return modes.init_enclave(
        platform,
        VAULT_ENCLAVE_CODE,
        VAULT_ENCLAVE_SIGNER,
        product_id=VAULT_ENCLAVE_PRODUCT_ID,
        isv_svn=VAULT_ENCLAVE_ISV_SVN,
    )


def create_vault(
    root: str | Path,
    password: str,
    mode: modes.ModeId,
    platform: tee.PlatformIdentity | None = None,
    iterations: int = modes.DEFAULT_PBKDF2_ITERATIONS,
) -> VaultConfig:
    """Initialize a new vault in an empty (or absent) directory.

    Sealed mode requires a platform identity; its content key is sealed to
    that platform, while the name key is always password-wrapped (so opening
    a sealed vault needs both the password and the platform).
    """
    root = Path(root)
    _require_empty_target(root)
    if mode is modes.ModeId.SEALED and platform is None:
        raise MissingPlatform("sealed mode requires a platform identity")
    vault_id = os.urandom(16)
    salt = os.urandom(16)
    master = modes.MasterKeys(content_key=os.urandom(32), name_key=os.urandom(32))
    kek = modes.derive_kek(password, salt, iterations)
    wrapped_name_key = modes.wrap_key(kek, master.name_key, _LABEL_NAME_KEY)
    measurement = signer = None
    if mode is modes.ModeId.V1:
        protection = modes.wrap_key(kek, master.content_key, _LABEL_CONTENT_KEY)
    else:
        session = _open_session(platform)
        try:
            protection = session.encrypt_bytes(
                master.content_key, _LABEL_CONTENT_KEY
            ).to_bytes()
            measurement = session.identity.measurement
            signer = session.identity.signer
        finally:
            session.destroy()
    config = VaultConfig(
        format_version=CONFIG_VERSION,
        vault_id=vault_id,
        mode=mode,
        kdf_salt=salt,
        kdf_iterations=iterations,
        wrapped_name_key=wrapped_name_key,
        content_key_protection=protection,
        enclave_measurement=measurement,
        enclave_signer=signer,
    )
    with atomic_write(root / CONFIG_NAME) as out:
        out.write(config.to_bytes())
    # materialize the root directory's physical shard
    os.makedirs(_shard_path(root, master.name_key, ROOT_DIR_ID))
    return config


def read_config(root: str | Path) -> VaultConfig:
    path = Path(root) / CONFIG_NAME
    if not path.is_file():
        raise CorruptConfig(f"no {CONFIG_NAME} under {root}")
    return VaultConfig.from_bytes(path.read_bytes())


def unlock_vault(
    root: str | Path,
    password: str,
    platform: tee.PlatformIdentity | None = None,
) -> VaultHandle:
    """Unlock a vault: derive the KEK, unwrap the name key, and recover the
    content key per mode. All-or-nothing: on any failure no handle exists."""
    root = Path(root)
    config = read_config(root)
    kek = modes.derive_kek(password, config.kdf_salt, config.kdf_iterations)
    try:
        name_key = modes.unwrap_key(kek, config.wrapped_name_key, _LABEL_NAME_KEY)
    except AuthenticationFailure:
        raise WrongPassword("vault password is incorrect") from None
    if config.mode is modes.ModeId.V1:
        try:
            content_key = modes.unwrap_key(
                kek, config.content_key_protection, _LABEL_CONTENT_KEY
            )
        except AuthenticationFailure:
            raise WrongPassword("vault password is incorrect") from None
        return VaultHandle(root, config, _V1Keys(content_key, name_key))
    if platform is None:
        raise MissingPlatform("sealed vault requires a platform identity")
    session = _open_session(platform)
    try:
        if (
            session.identity.measurement != config.enclave_measurement
            or session.identity.signer != config.enclave_signer
        ):
            raise UnsealFailure("vault was sealed by a different enclave identity")
        content_key = session.decrypt_bytes(config.content_key_protection, _LABEL_CONTENT_KEY)
    except (AuthenticationFailure, SvnViolation, MalformedBlob) as exc:
        session.destroy()
        raise UnsealFailure(f"content key unseal failed: {exc}") from None
    except Exception:
        session.destroy()
        raise
    return VaultHandle(root, config, _SealedKeys(content_key, name_key, session))
