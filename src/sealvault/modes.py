"""Crypto mode registry: block/content encryption, key wrapping, filenames.

Two interchangeable modes share one contract:

  * v1     - password-derived keys; a block is IV(12) | ciphertext | tag(16)
             under AES-256-GCM, 28 bytes of overhead.
  * sealed - platform-bound sealing via an enclave session; a block is a
             SealedBlob, 560 bytes of overhead.

Cleartext blocks are at most 32768 bytes; every block is bound to its
position with AAD = file_id (16 bytes) | block index (u64 big-endian), so
blocks cannot be swapped between files or reordered within one.

The per-file cipher seam is `block_cipher(mode, key, file_id)`: it is built
once per file from the file's 32-byte key (v1) or the enclave session
(sealed), and returns a `BlockCipher` whose `encrypt_into`/`decrypt_into`
work on caller buffers (memoryviews), one block at a time. The v1 cipher owns
one reused AES-GCM context for the file key; the sealed cipher holds the
enclave session, checks it is live on every block, and seals the blocks it
encrypts under one sealing key, drawn at its first block and again every
KEY_ROTATION_BLOCKS blocks. The session keeps the sealing keys it derives,
so a file's blocks are unsealed under one derivation. `encrypt_block`/
`decrypt_block` are thin one-block callers of the same objects. The vault
subclasses `MasterKeys` once per mode.

Filename encryption is deterministic (AES-SIV keyed by the name key, with
the directory id as associated data) because lookup-by-name requires the
same name to encrypt to the same string. Encoded names are unpadded
URL-safe base64 plus a ".sc" suffix and never exceed 255 characters. Each
name key's AES-SIV is keyed once and kept (`_name_siv`) until
`forget_name_key` or the cache cap drops it.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import os
import struct
import threading
from dataclasses import dataclass
from enum import Enum

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM, AESSIV

from . import tee
from .errors import (
    AlreadyDestroyed,
    AuthenticationFailure,
    BlockTooLarge,
    EmptyBlock,
    EmptyPassword,
    MalformedBlob,
    MalformedBlock,
    MalformedName,
    InvalidName,
    NameTooLong,
    SessionDestroyed,
)

BLOCK_SIZE = 32768
V1_BLOCK_OVERHEAD = 28  # 12-byte IV + 16-byte tag
SEALED_BLOCK_OVERHEAD = tee.HEADER_SIZE  # 560
# Scratch bytes `BlockCipher.encrypt_into` may overwrite after the block.
BLOCK_SLACK = tee.SEAL_SLACK
WRAPPED_KEY_SIZE = 60  # 12-byte IV + 32-byte ct + 16-byte tag
MAX_NAME_BYTES = 160
NAME_SUFFIX = ".sc"
MAX_ENCODED_NAME = 255
DEFAULT_PBKDF2_ITERATIONS = 600_000
SEALING_POLICY = tee.SealingPolicy.MRENCLAVE  # only the same enclave build unseals

# Blocks one sealed cipher seals under one sealing key before it draws a
# fresh one: the bound on messages per key for AES-GCM with random 96-bit IVs
# (NIST SP 800-38D, 8.3).
KEY_ROTATION_BLOCKS = 2**32
# Sealing keys an enclave session keeps, by key request; emptied at the cap.
SEALING_KEY_CACHE = 1024

# Name keys whose keyed AES-SIV `_name_siv` keeps; emptied at the cap.
_NAME_SIV_CACHE = 16
_name_sivs: dict[bytes, AESSIV] = {}


class ModeId(str, Enum):
    V1 = "v1"
    SEALED = "sealed"

    @property
    def block_overhead(self) -> int:
        return V1_BLOCK_OVERHEAD if self is ModeId.V1 else SEALED_BLOCK_OVERHEAD


@dataclass(frozen=True)
class MasterKeys:
    """Vault master keys: content_key protected per mode, name_key always
    password-wrapped."""

    content_key: bytes  # 32 bytes
    name_key: bytes  # 32 bytes

    def __repr__(self) -> str:
        return "MasterKeys(<redacted>)"


def derive_kek(password: str, salt: bytes, iterations: int) -> bytes:
    """PBKDF2-HMAC-SHA-256 key-encryption key, 32 bytes, deterministic."""
    if not password:
        raise EmptyPassword("password must not be empty")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if len(salt) != 16:
        raise ValueError("salt must be 16 bytes")
    return hashlib.pbkdf2_hmac("sha256", password.encode("utf-8"), salt, iterations, 32)


def wrap_key(kek: bytes, key: bytes, label: bytes) -> bytes:
    """AEAD-wrap a 32-byte key under the KEK; label is authenticated."""
    if len(key) != 32:
        raise ValueError("only 32-byte keys are wrapped")
    iv = os.urandom(12)
    return iv + AESGCM(kek).encrypt(iv, key, bytes(label))


def unwrap_key(kek: bytes, wrapped: bytes, label: bytes) -> bytes:
    """Inverse of wrap_key; AuthenticationFailure signals a wrong KEK or label."""
    if len(wrapped) != WRAPPED_KEY_SIZE:
        raise ValueError(f"wrapped key must be {WRAPPED_KEY_SIZE} bytes")
    try:
        return AESGCM(kek).decrypt(wrapped[:12], wrapped[12:], bytes(label))
    except InvalidTag:
        raise AuthenticationFailure("key unwrap failed (wrong password or label)") from None


def block_aad(file_id: bytes, index: int) -> bytes:
    """Associated data binding a block to its file and position."""
    if len(file_id) != 16:
        raise ValueError("file_id must be 16 bytes")
    if index < 0:
        raise ValueError("block index must be non-negative")
    return file_id + struct.pack(">Q", index)


class EnclaveSession:
    """Handle to a live enclave context: the enclave is measured on
    construction, and the session is unusable after destroy. Its entry
    points are init_enclave, encrypt_bytes, decrypt_bytes and destroy; the
    block ciphers use sealing_key, seal_into and unseal_into.

    The session keeps the sealing keys of blocks (keyed AES-GCM objects, by
    key request): each key it draws for a writer, and each key it derives
    for a block that then authenticates. Up to SEALING_KEY_CACHE are kept;
    the memo is emptied at the cap and by destroy, and is touched only by
    single dict get, set and clear calls. Whole objects (encrypt_bytes,
    decrypt_bytes) draw and derive a key per call and keep none.

    Concurrent encrypt/decrypt calls are safe; destroy must be exclusive
    (reader-writer contract: many crypto calls OR one destroy).
    """

    def __init__(
        self,
        platform: tee.PlatformIdentity,
        enclave_code: bytes,
        signer_identity: bytes,
        product_id: int = 1,
        isv_svn: int = 1,
    ):
        self._platform = platform
        self.enclave: tee.EnclaveIdentity | None = tee.measure_enclave(
            enclave_code, signer_identity, product_id, isv_svn
        )
        self._lock = threading.Lock()
        self._keys: dict[bytes, AESGCM] = {}

    @property
    def identity(self) -> tee.EnclaveIdentity:
        self._require_live()
        return self.enclave

    def _require_live(self) -> None:
        if self.enclave is None:
            raise SessionDestroyed("session was destroyed")

    def encrypt_bytes(self, payload: bytes, aad: bytes = b"") -> tee.SealedBlob:
        self._require_live()
        return tee.seal(self._platform, self.enclave, SEALING_POLICY, payload, aad)

    def decrypt_bytes(self, blob: tee.SealedBlob | bytes, aad: bytes = b"") -> bytes:
        self._require_live()
        return tee.unseal(self._platform, self.enclave, blob, aad)

    def sealing_key(self) -> tee.SealingKey:
        """A fresh `tee.sealing_key` under this session's identity and
        SEALING_POLICY, which the session keeps for unsealing."""
        self._require_live()
        key = tee.sealing_key(self._platform, self.enclave, SEALING_POLICY)
        self._make_room()
        self._keys[key.request] = key.aead
        return key

    def seal_into(self, payload, aad: bytes, out, key: tee.SealingKey | None = None) -> int:
        """`tee.seal_into` under this session's identity and SEALING_POLICY,
        and under `key` (from `sealing_key`) if given."""
        self._require_live()
        return tee.seal_into(
            self._platform, self.enclave, SEALING_POLICY, payload, aad, out, key
        )

    def unseal_into(self, blob, aad: bytes, out) -> int:
        """`tee.unseal_into` under this session's identity and its memo of
        sealing keys."""
        self._require_live()
        self._make_room()
        return tee.unseal_into(self._platform, self.enclave, blob, aad, out, self._keys)

    def _make_room(self) -> None:
        if len(self._keys) >= SEALING_KEY_CACHE:
            self._keys.clear()

    def destroy(self) -> None:
        """Tear the session down; drops cached key material references."""
        with self._lock:
            if self.enclave is None:
                raise AlreadyDestroyed("session already destroyed")
            self.enclave = None
            self._platform = None  # type: ignore[assignment]
            self._keys.clear()


def init_enclave(
    platform: tee.PlatformIdentity,
    enclave_code: bytes,
    signer_identity: bytes,
    product_id: int = 1,
    isv_svn: int = 1,
) -> EnclaveSession:
    """A live enclave session for sealed-mode crypto."""
    return EnclaveSession(platform, enclave_code, signer_identity, product_id, isv_svn)


class BlockCipher:
    """Encrypts and decrypts the blocks of one file; built by `block_cipher`.

    `encrypt_into` writes the block for 1..32768 cleartext bytes to the start
    of the writable buffer `out` (a bytearray or memoryview) and returns its
    size (cleartext + overhead); `out` needs BLOCK_SLACK scratch bytes beyond
    that.
    `decrypt_into` authenticates one block and writes its cleartext to `out`,
    which must be exactly len(block) - overhead bytes. Each call raises
    MalformedBlock for a block of impossible size, AuthenticationFailure on
    tamper or a wrong position, and SessionDestroyed once a sealed cipher's
    session is gone.
    """

    overhead: int

    def __init__(self, file_id: bytes):
        if len(file_id) != 16:
            raise ValueError("file_id must be 16 bytes")
        self.file_id = bytes(file_id)

    def _check_cleartext(self, cleartext) -> int:
        size = len(cleartext)
        if size == 0:
            raise EmptyBlock("blocks must contain at least 1 byte")
        if size > BLOCK_SIZE:
            raise BlockTooLarge(f"block of {size} bytes exceeds {BLOCK_SIZE}")
        return size

    def _check_block(self, block) -> None:
        if not 1 <= len(block) - self.overhead <= BLOCK_SIZE:
            raise MalformedBlock(
                f"block of {len(block)} bytes does not hold 1..{BLOCK_SIZE} "
                f"cleartext bytes plus {self.overhead} bytes of overhead"
            )


class V1BlockCipher(BlockCipher):
    """v1: IV(12) | ciphertext | tag(16) under one AES-256-GCM file key."""

    overhead = V1_BLOCK_OVERHEAD

    def __init__(self, file_id: bytes, key: bytes):
        super().__init__(file_id)
        if len(key) != 32:  # AESGCM would take 16 or 24 bytes as AES-128/192
            raise ValueError("file key must be 32 bytes")
        self._aead = AESGCM(key)

    def encrypt_into(self, index: int, cleartext, out) -> int:
        size = self._check_cleartext(cleartext)
        iv = os.urandom(12)
        view = memoryview(out)  # a bytearray slice would be a copy
        view[:12] = iv
        self._aead.encrypt_into(
            iv, cleartext, block_aad(self.file_id, index), view[12:size + V1_BLOCK_OVERHEAD]
        )
        return size + V1_BLOCK_OVERHEAD

    def decrypt_into(self, index: int, block, out) -> int:
        self._check_block(block)
        try:
            self._aead.decrypt_into(block[:12], block[12:], block_aad(self.file_id, index), out)
        except InvalidTag:
            raise AuthenticationFailure(
                f"block {index} failed authentication (tamper or wrong position)"
            ) from None
        return len(out)


class SealedBlockCipher(BlockCipher):
    """sealed: each block is a sealed blob. The blocks one cipher encrypts
    share a sealing key, drawn at its first block and again after every
    KEY_ROTATION_BLOCKS blocks."""

    overhead = SEALED_BLOCK_OVERHEAD

    def __init__(self, file_id: bytes, session: EnclaveSession):
        super().__init__(file_id)
        self._session = session
        self._key: tee.SealingKey | None = None
        self._key_left = 0  # blocks `_key` may still seal

    def encrypt_into(self, index: int, cleartext, out) -> int:
        self._check_cleartext(cleartext)
        if not self._key_left:
            self._key = self._session.sealing_key()
            self._key_left = KEY_ROTATION_BLOCKS
        self._key_left -= 1
        return self._session.seal_into(cleartext, block_aad(self.file_id, index), out, self._key)

    def decrypt_into(self, index: int, block, out) -> int:
        self._check_block(block)
        try:
            return self._session.unseal_into(block, block_aad(self.file_id, index), out)
        except MalformedBlob as exc:
            raise MalformedBlock(str(exc)) from None


def block_cipher(mode: ModeId, key: bytes | EnclaveSession, file_id: bytes) -> BlockCipher:
    """The block cipher of one file: v1 takes the 32-byte file key; sealed
    takes an EnclaveSession."""
    if mode is ModeId.SEALED:
        if not isinstance(key, EnclaveSession):
            raise TypeError("sealed mode requires an EnclaveSession")
        return SealedBlockCipher(file_id, key)
    return V1BlockCipher(file_id, key)


def encrypt_block(
    mode: ModeId,
    key: bytes | EnclaveSession,
    file_id: bytes,
    index: int,
    cleartext: bytes,
) -> bytes:
    """Encrypt one cleartext block (1..32768 bytes) at a given position."""
    cipher = block_cipher(mode, key, file_id)
    out = bytearray(len(cleartext) + cipher.overhead + BLOCK_SLACK)
    del out[cipher.encrypt_into(index, cleartext, memoryview(out)):]
    return bytes(out)


def decrypt_block(
    mode: ModeId,
    key: bytes | EnclaveSession,
    file_id: bytes,
    index: int,
    block: bytes,
) -> bytes:
    """Inverse of encrypt_block under the identical (file_id, index) AAD."""
    cipher = block_cipher(mode, key, file_id)
    out = bytearray(max(0, len(block) - cipher.overhead))
    cipher.decrypt_into(index, block, out)
    return bytes(out)


def _validate_name(name: str) -> bytes:
    if not isinstance(name, str):
        raise InvalidName("name must be a string")
    raw = name.encode("utf-8")
    if len(raw) == 0:
        raise InvalidName("empty name")
    if "/" in name or "\\" in name or "\x00" in name:
        raise InvalidName("name contains a path separator or NUL")
    if len(raw) > MAX_NAME_BYTES:
        raise NameTooLong(
            f"name is {len(raw)} bytes; at most {MAX_NAME_BYTES} allowed so the "
            f"encoding stays within {MAX_ENCODED_NAME} characters"
        )
    return raw


def _name_siv(name_key: bytes) -> AESSIV:
    """The AES-SIV of a name key. Keying it is most of a short name's cost,
    so each name key is keyed once; the cache is emptied when it reaches
    its cap, and `forget_name_key` drops one key."""
    siv = _name_sivs.get(name_key)
    if siv is None:
        if len(_name_sivs) >= _NAME_SIV_CACHE:
            _name_sivs.clear()
        siv = _name_sivs[name_key] = AESSIV(name_key)
    return siv


def forget_name_key(name_key: bytes) -> None:
    """Drop the keyed AES-SIV of a name key (a vault handle's lock() does)."""
    _name_sivs.pop(name_key, None)


def encrypt_filename(name_key: bytes, dir_id: bytes, name: str) -> str:
    """Deterministically encrypt a name within a directory.

    Output is base64url(siv(16) | ciphertext) without padding, plus ".sc".
    The directory id is associated data, so equal names in different
    directories encode differently.
    """
    raw = _validate_name(name)
    if len(dir_id) != 16:
        raise ValueError("dir_id must be 16 bytes")
    sealed = _name_siv(name_key).encrypt(raw, [dir_id])
    encoded = base64.urlsafe_b64encode(sealed).rstrip(b"=").decode("ascii") + NAME_SUFFIX
    assert len(encoded) <= MAX_ENCODED_NAME
    return encoded


def decrypt_filename(name_key: bytes, dir_id: bytes, encoded: str) -> str:
    """Inverse of encrypt_filename; authentication fails on tamper or a
    wrong directory id."""
    if not encoded.endswith(NAME_SUFFIX):
        raise MalformedName(f"missing {NAME_SUFFIX} suffix")
    body = encoded[: -len(NAME_SUFFIX)]
    if not body:
        raise MalformedName("empty name body")
    try:
        raw = base64.b64decode(
            body + "=" * (-len(body) % 4), altchars=b"-_", validate=True
        )
    except (binascii.Error, ValueError):
        raise MalformedName("invalid base64 body") from None
    if len(raw) < 17:  # 16-byte SIV plus at least one ciphertext byte
        raise MalformedName("encoded name too short")
    try:
        cleartext = _name_siv(name_key).decrypt(raw, [dir_id])
    except InvalidTag:
        raise AuthenticationFailure("filename failed authentication") from None
    return cleartext.decode("utf-8")
