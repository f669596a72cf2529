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

File contents move through one data path. Each read or write builds the
file's block cipher once (`modes.block_cipher`) and moves a batch of up to
BATCH_BLOCKS blocks at a time: writes encrypt a batch into one reused buffer
and issue one write per batch; reads `readinto` a batch of ciphertext into
one reused buffer and decrypt each block straight into the caller's
destination. `read_file` and `read_range` decrypt into one buffer sized to
the request; `read_to` streams to a file-like sink, so its memory is bounded
by the batch, not the file.

vault.cfg is a length-prefixed record protected by a SHA-256 trailer; any
bit flip surfaces as CorruptConfig before key material is touched. It
stores only wrapped or sealed secrets and is safe to sync to a remote.

One helper does each recurring job, here and in `sync`, `cli` and `bench`:
`atomic_write` writes every file (a .tmp-<hex> sibling, then os.replace;
only a new entry's dirid.sc, in its fresh staging directory, is written
directly), `pack_record`/`unpack_record` frame vault.cfg and sync.state,
`exclusive_lock` takes the advisory lock of a CLI command or a sync run, and
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
directory. Writes to one logical path serialize on one of a handle's
_WRITE_LOCK_STRIPES locks, which unrelated paths may share.

A handle memoizes lookups by (parent dir id, name): the physical entry,
which is a pure function of the keys (shard HMAC joined with the AES-SIV
name), and for a directory the last dirid.sc bytes that authenticated with
the id they decrypted to. Every level still reads its dirid.sc, and the
memoized id is reused only when the bytes just read equal the memoized
bytes; otherwise the level authenticates them and replaces the entry. So a
rename, removal, re-creation, sync pull, second handle or tampering shows at
the very next lookup, and nothing needs invalidating. The memo is emptied
when it reaches _LOOKUP_MEMO_SIZE entries and by lock(); it is touched only
by single dict get, set and clear calls, so readers share it without a lock.
"""

from __future__ import annotations

import errno
import fcntl
import hmac
import os
import shutil
import struct
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import BinaryIO, Iterator

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import modes, tee
from .errors import (
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
# Write locks per handle; a path's writes serialize on lock hash(path) % this.
_WRITE_LOCK_STRIPES = 64
# Lookup memo entries per handle; the memo is emptied when it reaches this.
_LOOKUP_MEMO_SIZE = 4096

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

_WRAPPED = 1
_SEALED = 2

_SEALED_KEY_SIZE = tee.HEADER_SIZE + 32  # sealed blob carrying a 32-byte key
_DIRID_SIZE = 12 + 16 + 16  # AES-GCM nonce, the 16-byte id, tag

_RECORD_HEADER = struct.Struct("<4sII")  # magic, version, count; SHA-256 trailer


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


@contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """Write `path` all or nothing: yield a binary file on a `.tmp-<hex>`
    sibling and os.replace it over `path` when the body returns. A failure
    removes the temp file and keeps the old content (ENOSPC is StorageFull).
    Nothing is fsynced; a caller that needs durability fsyncs in the body."""
    tmp = _temp_sibling(path)
    try:
        with open(tmp, "wb") as out:
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
    """Hold an advisory exclusive flock on `path`, created if missing, for
    the body. If it is already held, raise VaultError at once, naming
    `holder` as the one that holds it."""
    with open(path, "a+") as handle:
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
    protection_kind: int  # _WRAPPED or _SEALED
    content_key_protection: bytes
    enclave_measurement: bytes | None = None
    enclave_signer: bytes | None = None

    def to_bytes(self) -> bytes:
        body = bytearray()
        body += self.vault_id
        body += struct.pack("<B", 1 if self.mode is modes.ModeId.V1 else 2)
        body += self.kdf_salt
        body += struct.pack("<I", self.kdf_iterations)
        body += struct.pack("<H", len(self.wrapped_name_key)) + self.wrapped_name_key
        body += struct.pack("<B", self.protection_kind)
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
        if mode_code not in (1, 2):
            raise CorruptConfig(f"unknown mode code {mode_code}")
        mode = modes.ModeId.V1 if mode_code == 1 else modes.ModeId.SEALED
        if len(wrapped_name_key) != modes.WRAPPED_KEY_SIZE or len(salt) != 16:
            raise CorruptConfig("bad field sizes in config")
        if mode is modes.ModeId.V1 and (kind != _WRAPPED or prot_len != modes.WRAPPED_KEY_SIZE):
            raise CorruptConfig("v1 config must carry a wrapped content key")
        if mode is modes.ModeId.SEALED and (
            kind != _SEALED or prot_len != _SEALED_KEY_SIZE or measurement is None
        ):
            raise CorruptConfig("sealed config must carry a sealed content key and enclave descriptor")
        return cls(
            format_version=CONFIG_VERSION,
            vault_id=vault_id,
            mode=mode,
            kdf_salt=salt,
            kdf_iterations=iterations,
            wrapped_name_key=wrapped_name_key,
            protection_kind=kind,
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
        f"content_key:     {'wrapped' if config.protection_kind == _WRAPPED else 'sealed'}, "
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


def _file_key_label(file_id: bytes) -> bytes:
    return _LABEL_FILE_KEY + file_id


def _fill(stream: BinaryIO, view: memoryview) -> int:
    """Read from `stream` until `view` is full or the stream ends; returns
    the bytes read (short reads are topped up, so only the final block of a
    stream may be partial)."""
    filled = 0
    while filled < len(view):
        got = stream.readinto(view[filled:])
        if not got:
            break
        filled += got
    return filled


def _read_exact(fh: BinaryIO, view: memoryview) -> None:
    """Fill `view` from `fh`; a short object is malformed, since every size
    read here comes from the size law."""
    if _fill(fh, view) != len(view):
        raise MalformedBlock("file object ends before its last block")


def _blocks(size: int) -> int:
    return -(-size // modes.BLOCK_SIZE)


def _cleartext_batches(content) -> Iterator[memoryview]:
    """Cleartext in batches of whole blocks: views of in-memory content, or
    stream reads into one reused buffer."""
    batch = BATCH_BLOCKS * modes.BLOCK_SIZE
    if isinstance(content, (bytes, bytearray, memoryview)):
        data = memoryview(content).cast("B")
        for off in range(0, len(data), batch):
            yield data[off:off + batch]
        return
    buf = memoryview(bytearray(batch))
    while True:
        got = _fill(content, buf)
        if got:
            yield buf[:got]
        if got < batch:
            return


def _read_buffer(cipher: modes.BlockCipher, size: int) -> memoryview:
    """Ciphertext buffer for `size` cleartext bytes, capped at a batch."""
    blocks = min(_blocks(size), BATCH_BLOCKS)
    return memoryview(bytearray(blocks * (modes.BLOCK_SIZE + cipher.overhead)))


def _split_path(logical_path: str) -> list[str]:
    """Split and validate a logical vault path into components."""
    parts = [p for p in str(logical_path).replace("\\", "/").split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise InvalidName(f"path component {part!r} not allowed")
        modes._validate_name(part)
    return parts


class VaultHandle:
    """An unlocked vault. Obtained from unlock_vault; rejects all I/O after
    lock(). Concurrent readers are fine; writes to one logical path
    serialize on one of a fixed set of lock stripes (picked by the path's
    hash, so unrelated paths may share one)."""

    def __init__(
        self,
        root: Path,
        config: VaultConfig,
        master: modes.MasterKeys,
        session: modes.EnclaveSession | None,
    ):
        self.root = Path(root)
        self.config = config
        self.mode = config.mode
        self._master: modes.MasterKeys | None = master
        self._session = session
        self._write_locks = tuple(threading.Lock() for _ in range(_WRITE_LOCK_STRIPES))
        # (parent dir id, name) -> (entry, its dirid path, dirid bytes, dir id)
        self._memo: dict[tuple[bytes, str], tuple] = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def is_locked(self) -> bool:
        return self._master is None

    def lock(self) -> None:
        """Drop key material; the handle rejects all further I/O."""
        if self._session is not None:
            try:
                self._session.destroy()
            except Exception:
                pass
            self._session = None
        self._master = None
        self._memo.clear()

    def __enter__(self) -> "VaultHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.lock()

    def _keys(self) -> modes.MasterKeys:
        if self._master is None:
            raise VaultLocked("vault handle is locked")
        return self._master

    def _block_cipher(self, file_id: bytes, file_key: bytes) -> modes.BlockCipher:
        self._keys()
        keys = self._session if self.mode is modes.ModeId.SEALED else file_key
        return modes.block_cipher(self.mode, keys, file_id)

    # -- path resolution ----------------------------------------------------

    def _remember(self, key: tuple[bytes, str], value: tuple) -> None:
        if len(self._memo) >= _LOOKUP_MEMO_SIZE:
            self._memo.clear()
        self._memo[key] = value

    def _lookup(self, name_key: bytes, dir_id: bytes, name: str) -> tuple:
        """Memo entry of `name` in directory `dir_id`: (physical entry, the
        path of its dirid object, the last dirid bytes that authenticated,
        the id they decrypt to). A new entry has only its paths."""
        hit = self._memo.get((dir_id, name))
        if hit is None:
            entry = os.path.join(_shard_path(self.root, name_key, dir_id),
                                 modes.encrypt_filename(name_key, dir_id, name))
            hit = (entry, os.path.join(entry, DIRID_NAME), None, None)
            self._remember((dir_id, name), hit)
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
        self._remember((parent_id, name), (entry, dirid, raw, child_id))
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
        self._remember((parent_id, name), (entry, dirid, raw, child_id))
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
        entry = self._lookup(self._keys().name_key, dir_id, parts[-1])[0]
        if create:
            # a synced replica may lack shard dirs for empty directories
            os.makedirs(os.path.dirname(entry), exist_ok=True)
        return dir_id, entry

    def map_path(self, logical_path: str) -> Path:
        """Physical location of a logical path (pure function of the keys)."""
        parts = _split_path(logical_path)
        return Path(self._entry(parts)[1] if parts else self._shard(ROOT_DIR_ID))

    def exists(self, logical_path: str) -> bool:
        try:
            return self.map_path(logical_path).exists()
        except NotFound:
            return False

    def make_dir(self, logical_path: str) -> None:
        """Create a directory (and any missing parents)."""
        parts = _split_path(logical_path)
        if not parts:
            return
        os.makedirs(self._shard(self._resolve_dir(parts, create=True)), exist_ok=True)

    # -- file objects --------------------------------------------------------

    def _build_header(self, file_id: bytes, file_key: bytes) -> bytes:
        if self.mode is modes.ModeId.V1:
            prot = modes.wrap_key(
                self._keys().content_key, file_key, _file_key_label(file_id)
            )
        else:
            prot = self._session.encrypt_bytes(
                file_key, _file_key_label(file_id)
            ).to_bytes()
        header = file_id + prot
        return header + bytes(FILE_HEADER_SIZE - len(header))

    def _parse_header(self, raw: bytes) -> tuple[bytes, bytes]:
        """Validate a 640-byte header and recover (file_id, file_key)."""
        if len(raw) < FILE_HEADER_SIZE:
            raise MalformedBlock("file object shorter than its header")
        file_id = raw[:16]
        prot_len = (
            modes.WRAPPED_KEY_SIZE if self.mode is modes.ModeId.V1 else _SEALED_KEY_SIZE
        )
        prot = raw[16:16 + prot_len]
        if any(raw[16 + prot_len:FILE_HEADER_SIZE]):
            raise MalformedBlock("file header padding not zero")
        if self.mode is modes.ModeId.V1:
            file_key = modes.unwrap_key(
                self._keys().content_key, prot, _file_key_label(file_id)
            )
        else:
            try:
                file_key = self._session.decrypt_bytes(prot, _file_key_label(file_id))
            except MalformedBlob as exc:
                raise MalformedBlock(str(exc)) from None
        if len(file_key) != 32:
            raise MalformedBlock("protected file key has wrong size")
        return file_id, file_key

    def _write_blocks(self, out: BinaryIO, cipher: modes.BlockCipher, content) -> int:
        """Encrypt content block by block into one reused batch buffer, one
        write per batch; returns the cleartext bytes written."""
        step = modes.BLOCK_SIZE + cipher.overhead
        buf = None
        index = stored = 0
        for chunk in _cleartext_batches(content):
            if buf is None:  # the first batch is the largest
                buf = memoryview(bytearray(_blocks(len(chunk)) * step + modes.BLOCK_SLACK))
            used = 0
            for off in range(0, len(chunk), modes.BLOCK_SIZE):
                self._keys()
                used += cipher.encrypt_into(
                    index, chunk[off:off + modes.BLOCK_SIZE], buf[used:]
                )
                index += 1
            out.write(buf[:used])
            stored += len(chunk)
        return stored

    def write_file(self, logical_path: str, content: bytes | BinaryIO) -> int:
        """Encrypt and store content (a bytes-like object, or a binary stream
        with readinto) at a logical path, creating parent directories as
        needed. Overwrites atomically (atomic_write, fsynced before the
        rename). Returns the number of cleartext bytes stored."""
        parts = _split_path(logical_path)
        if not parts:
            raise InvalidName("cannot write to the vault root")
        with self._write_locks[hash("/".join(parts)) % _WRITE_LOCK_STRIPES]:
            _, target = self._entry(parts, create=True)
            if os.path.isdir(target):
                raise InvalidName(f"{parts[-1]!r} is a directory")
            file_id = os.urandom(16)
            file_key = os.urandom(32)
            cipher = self._block_cipher(file_id, file_key)
            with atomic_write(target) as out:
                out.write(self._build_header(file_id, file_key))
                stored = self._write_blocks(out, cipher, content)
                out.flush()
                os.fsync(out.fileno())
            return stored

    def _open_object(self, logical_path: str) -> tuple[BinaryIO, modes.BlockCipher, int]:
        """Open a stored file: (unbuffered handle just past the header, the
        file's block cipher, cleartext size by the size law)."""
        parts = _split_path(logical_path)
        if not parts:
            raise NotFound("the vault root is not a file")
        try:
            fh = open(self._entry(parts)[1], "rb", buffering=0)
        except (FileNotFoundError, IsADirectoryError):
            raise NotFound(f"no such file: {logical_path!r}") from None
        try:
            file_id, file_key = self._parse_header(fh.read(FILE_HEADER_SIZE))
            try:
                size = invert_object_size(
                    os.fstat(fh.fileno()).st_size, self.mode.block_overhead
                )
            except ValueError as exc:
                raise MalformedBlock(str(exc)) from None
            return fh, self._block_cipher(file_id, file_key), size
        except BaseException:
            fh.close()
            raise

    def _decrypt_blocks(self, fh: BinaryIO, cipher: modes.BlockCipher, index: int,
                        out: memoryview, buf: memoryview) -> None:
        """Decrypt consecutive blocks from block `index` on until their
        cleartext fills `out`. `fh` is positioned at block `index`; each
        batch of ciphertext is read into `buf` (a whole number of blocks)."""
        step = modes.BLOCK_SIZE + cipher.overhead
        per_batch = len(buf) // step * modes.BLOCK_SIZE
        done = 0
        while done < len(out):
            clear = min(len(out) - done, per_batch)
            batch = buf[:clear + cipher.overhead * _blocks(clear)]
            _read_exact(fh, batch)
            for off in range(0, len(batch), step):
                block = batch[off:off + step]
                end = done + len(block) - cipher.overhead
                self._keys()
                cipher.decrypt_into(index, block, out[done:end])
                index += 1
                done = end

    def read_file(self, logical_path: str) -> bytes:
        """Decrypt a stored file back to its exact original bytes."""
        fh, cipher, size = self._open_object(logical_path)
        with fh:
            out = bytearray(size)
            self._decrypt_blocks(fh, cipher, 0, memoryview(out), _read_buffer(cipher, size))
        return bytes(out)

    def read_range(self, logical_path: str, offset: int, length: int) -> bytes:
        """Random-access read at block granularity: decrypts only the blocks
        covering [offset, offset+length) and slices the result."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        fh, cipher, size = self._open_object(logical_path)
        with fh:
            if offset >= size or length == 0:
                return b""
            length = min(length, size - offset)
            first = offset // modes.BLOCK_SIZE
            last = (offset + length - 1) // modes.BLOCK_SIZE
            base = first * modes.BLOCK_SIZE
            out = bytearray(min((last + 1) * modes.BLOCK_SIZE, size) - base)
            fh.seek(FILE_HEADER_SIZE + first * (modes.BLOCK_SIZE + cipher.overhead))
            self._decrypt_blocks(fh, cipher, first, memoryview(out),
                                 _read_buffer(cipher, len(out)))
        start = offset - base
        return bytes(memoryview(out)[start:start + length])

    def read_to(self, logical_path: str, stream: BinaryIO, offset: int = 0) -> int:
        """Decrypt a stored file from `offset` to its end into `stream`
        (anything with a write method that takes all it is given). Memory use
        is bounded by one batch of blocks, whatever the file size. Returns
        the number of cleartext bytes written."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        fh, cipher, size = self._open_object(logical_path)
        with fh:
            if offset >= size:
                return 0
            first = offset // modes.BLOCK_SIZE
            fh.seek(FILE_HEADER_SIZE + first * (modes.BLOCK_SIZE + cipher.overhead))
            remaining = size - first * modes.BLOCK_SIZE
            buf = _read_buffer(cipher, remaining)
            out = memoryview(bytearray(min(remaining, BATCH_BLOCKS * modes.BLOCK_SIZE)))
            skip = offset - first * modes.BLOCK_SIZE
            index = first
            while remaining:
                clear = out[:min(remaining, len(out))]
                self._decrypt_blocks(fh, cipher, index, clear, buf)
                stream.write(clear[skip:])
                index += _blocks(len(clear))
                remaining -= len(clear)
                skip = 0
        return size - offset

    def list_dir(self, logical_path: str = "/") -> list[DirEntry]:
        """List a directory. Sizes come from the ciphertext size law alone;
        entries whose names do not decrypt are surfaced as 'unreadable'."""
        parts = _split_path(logical_path)
        dir_id = self._resolve_dir(parts)
        entries: list[DirEntry] = []
        try:
            items = list(os.scandir(self._shard(dir_id)))
        except FileNotFoundError:  # empty directory on a freshly pulled replica
            return entries
        for item in items:
            if item.name.startswith(TEMP_PREFIX):
                continue
            try:
                name = modes.decrypt_filename(self._keys().name_key, dir_id, item.name)
            except Exception:
                entries.append(DirEntry(name=item.name, kind="unreadable", size=None))
                continue
            if item.is_dir():
                entries.append(DirEntry(name=name, kind="dir", size=None))
            else:
                try:
                    size = invert_object_size(
                        item.stat().st_size, self.mode.block_overhead
                    )
                except ValueError:
                    entries.append(DirEntry(name=item.name, kind="unreadable", size=None))
                    continue
                entries.append(DirEntry(name=name, kind="file", size=size))
        entries.sort(key=lambda e: e.name)
        return entries

    def remove_file(self, logical_path: str) -> None:
        """Remove a file, or an empty directory."""
        parts = _split_path(logical_path)
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
        src_parts = _split_path(src_path)
        dst_parts = _split_path(dst_path)
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
        base = "/".join(_split_path(logical_path))
        entries = self.list_dir(logical_path)
        dirs = [e.name for e in entries if e.kind == "dir"]
        files = [e.name for e in entries if e.kind == "file"]
        yield base, dirs, files
        for d in dirs:
            yield from self.walk(f"{base}/{d}" if base else d)


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
        kind = _WRAPPED
        protection = modes.wrap_key(kek, master.content_key, _LABEL_CONTENT_KEY)
    else:
        session = _open_session(platform)
        try:
            kind = _SEALED
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
        protection_kind=kind,
        content_key_protection=protection,
        enclave_measurement=measurement,
        enclave_signer=signer,
    )
    root.mkdir(parents=True, exist_ok=True)
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
    session = None
    if config.mode is modes.ModeId.V1:
        try:
            content_key = modes.unwrap_key(
                kek, config.content_key_protection, _LABEL_CONTENT_KEY
            )
        except AuthenticationFailure:
            raise WrongPassword("vault password is incorrect") from None
    else:
        if platform is None:
            raise MissingPlatform("sealed vault requires a platform identity")
        session = _open_session(platform)
        try:
            if (
                session.identity.measurement != config.enclave_measurement
                or session.identity.signer != config.enclave_signer
            ):
                raise UnsealFailure(
                    "vault was sealed by a different enclave identity"
                )
            content_key = session.decrypt_bytes(
                config.content_key_protection, _LABEL_CONTENT_KEY
            )
        except (AuthenticationFailure, SvnViolation, MalformedBlob) as exc:
            session.destroy()
            raise UnsealFailure(f"content key unseal failed: {exc}") from None
        except Exception:
            session.destroy()
            raise
    master = modes.MasterKeys(content_key=content_key, name_key=name_key)
    return VaultHandle(root, config, master, session)
