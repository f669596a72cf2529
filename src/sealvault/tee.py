"""Software simulation of TEE data sealing.

An "enclave" here is a module boundary with a measured identity, not a
memory-protection boundary. A platform holds a root secret from which
sealing keys are derived on demand (they are never stored); sealed payloads
are AES-128-GCM containers bound to the platform and, per policy, to either
the enclave's code measurement (MRENCLAVE) or to its signer + product id
(MRSIGNER).

Sealed blob layout (all integers little-endian), 560-byte header followed
by the ciphertext:

    [  0..  4) magic            b"SSB1"
    [  4..  8) format_version   u32 = 1
    [  8.. 10) policy           u16 (1=MRENCLAVE, 2=MRSIGNER)
    [ 10.. 12) isv_svn          u16 (of the sealing enclave)
    [ 12.. 28) cpu_svn          16 bytes
    [ 28.. 60) key_id           32 bytes (random; see `sealing_key`)
    [ 60.. 92) measurement      32 bytes
    [ 92..124) signer           32 bytes
    [124..126) product_id       u16
    [126..128) reserved         zeros
    [128..132) payload_len      u32
    [132..136) aad_len          u32 (always 0; caller AAD is authenticated
                                     but never stored)
    [136..532) reserved         zeros (396 bytes)
    [532..544) IV               12 bytes
    [544..560) AEAD tag         16 bytes
    [560..   ) ciphertext       payload_len bytes

The first 532 header bytes, concatenated with the caller's AAD, form the
associated data of the AEAD, so any header tamper fails authentication
even where it does not already fail parsing.

Header bytes 8..60 (policy, isv_svn, cpu_svn, key_id) are the blob's key
request: they and the unsealing enclave's identity name its sealing key.

`seal_into`/`unseal_into` are the working core: they write a blob straight
into, or read one straight out of, a caller's buffer. `seal`, `unseal` and
`SealedBlob.from_bytes` are thin callers kept for whole-object use, and every
parse of a header goes through the one check in `_check_header`. A
`SealedBlob` keeps the bytes it was parsed from, so `to_bytes` returns them
as they are. Attestation, local or remote, is not simulated.

`seal` draws a fresh key id per call. A caller sealing many payloads (the
blocks of one file) may instead draw one `sealing_key` and pass it to each
`seal_into`, and may pass `unseal_into` a dict in which it keeps the keys it
has derived, by key request; `derive_sealing_key` is the one derivation
either way. AES-GCM with random 96-bit IVs stays within its bounds for 2**32
messages per key (NIST SP 800-38D, 8.3), so a caller draws a fresh key
before that.

All operations are pure functions of their inputs plus os.urandom, apart
from the entries `unseal_into` adds to a caller's dict; they are safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import enum
import hashlib
import hmac as _hmac
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.ciphers import algorithms
from cryptography.hazmat.primitives.cmac import CMAC

from .errors import AuthenticationFailure, MalformedBlob, PayloadTooLarge, SvnViolation

BLOB_MAGIC = b"SSB1"
BLOB_FORMAT_VERSION = 1
HEADER_SIZE = 560
AAD_PREFIX_SIZE = 532  # header bytes covered by the AEAD associated data
IV_SIZE = 12
TAG_SIZE = 16
_TAG_AT = AAD_PREFIX_SIZE + IV_SIZE  # 544
MAX_PAYLOAD = 2**32 - HEADER_SIZE - 1
# Scratch bytes `seal_into` needs after the blob: AES-GCM emits ciphertext |
# tag, and the tag is moved from there to its slot in front of the ciphertext.
SEAL_SLACK = TAG_SIZE

_PREFIX = struct.Struct("<4sIHH16s32s32s32sH2sII396s")  # the 532-byte AAD prefix
_REQUEST = struct.Struct("<HH16s32s")  # the key request, header bytes 8..60
_REQUEST_AT = 8
_RESERVED_TAIL = bytes(396)

_SEAL_LABEL = b"SEALKEYv1"

_PLATFORM_DOMAIN = b"SVPLATFORMv1"

# Platform keys whose keyed CMAC `_platform_cmac` keeps; emptied at the cap.
_PLATFORM_CMAC_CACHE = 16
_platform_cmacs: dict[bytes, CMAC] = {}


class SealingPolicy(enum.IntEnum):
    """What identity a sealed blob is bound to."""

    MRENCLAVE = 1  # exact code measurement
    MRSIGNER = 2  # signer identity + product id


_POLICIES = {p.value: p for p in SealingPolicy}


@dataclass(frozen=True)
class PlatformIdentity:
    """A simulated platform: root sealing secret plus public identifiers.

    platform_key never appears in any serialized output; it only feeds the
    CMAC-based key derivations.
    """

    platform_key: bytes  # 32-byte root secret
    cpu_svn: bytes  # 16 bytes
    platform_id: bytes  # 16 bytes, public

    def __repr__(self) -> str:  # keep the root secret out of logs/reprs
        return f"PlatformIdentity(platform_id={self.platform_id.hex()})"


@dataclass(frozen=True)
class EnclaveIdentity:
    measurement: bytes  # 32-byte digest of the code blob
    signer: bytes  # 32-byte digest of the signer identity
    product_id: int
    isv_svn: int


def _check_header(raw) -> tuple:
    """Structurally validate the header of the whole blob `raw` (any buffer).

    Returns (policy, isv_svn, cpu_svn, key_id, measurement, signer,
    product_id). Raises MalformedBlob on wrong magic/version, bad sizes, a
    nonzero aad_len, or nonzero reserved regions.
    """
    if len(raw) < HEADER_SIZE:
        raise MalformedBlob(f"blob shorter than header: {len(raw)} < {HEADER_SIZE}")
    (
        magic,
        version,
        policy_code,
        isv_svn,
        cpu_svn,
        key_id,
        measurement,
        signer,
        product_id,
        reserved2,
        payload_len,
        aad_len,
        reserved_tail,
    ) = _PREFIX.unpack_from(raw, 0)
    if magic != BLOB_MAGIC:
        raise MalformedBlob("bad magic")
    if version != BLOB_FORMAT_VERSION:
        raise MalformedBlob(f"unsupported format version {version}")
    policy = _POLICIES.get(policy_code)  # an enum call costs half the check
    if policy is None:
        raise MalformedBlob(f"unknown sealing policy {policy_code}")
    if reserved2 != b"\x00\x00" or reserved_tail != _RESERVED_TAIL:
        raise MalformedBlob("reserved region not zero")
    if aad_len != 0:
        raise MalformedBlob("aad_len must be 0")
    if len(raw) != HEADER_SIZE + payload_len:
        raise MalformedBlob(
            f"size mismatch: have {len(raw)}, header says {HEADER_SIZE + payload_len}"
        )
    return policy, isv_svn, cpu_svn, key_id, measurement, signer, product_id


def _sealed_size(payload_len: int) -> int:
    if payload_len > MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload of {payload_len} bytes exceeds {MAX_PAYLOAD}")
    return HEADER_SIZE + payload_len


@dataclass(frozen=True)
class SealedBlob:
    """A structurally valid sealed blob: the header fields parsed from it,
    and the bytes themselves, which `to_bytes` returns."""

    policy: SealingPolicy
    isv_svn: int
    cpu_svn: bytes
    key_id: bytes
    measurement: bytes
    signer: bytes
    product_id: int
    raw: bytes = field(repr=False)

    @property
    def iv(self) -> bytes:
        return self.raw[AAD_PREFIX_SIZE:_TAG_AT]

    @property
    def tag(self) -> bytes:
        return self.raw[_TAG_AT:HEADER_SIZE]

    @property
    def ciphertext(self) -> bytes:
        return self.raw[HEADER_SIZE:]

    def to_bytes(self) -> bytes:
        return self.raw

    def __len__(self) -> int:
        return len(self.raw)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SealedBlob":
        """Parse and structurally validate a sealed blob (see `_check_header`
        for what raises MalformedBlob)."""
        raw = bytes(raw)
        return cls(*_check_header(raw), raw)


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _platform_cmac(platform_key: bytes, message: bytes) -> bytes:
    """AES-CMAC under a platform root secret. Keying the cipher is most of a
    short CMAC's cost, so each platform key is keyed once and its context
    copied per call; the cache is emptied when it reaches its cap."""
    keyed = _platform_cmacs.get(platform_key)
    if keyed is None:
        if len(_platform_cmacs) >= _PLATFORM_CMAC_CACHE:
            _platform_cmacs.clear()
        keyed = _platform_cmacs[platform_key] = CMAC(algorithms.AES(platform_key))
    c = keyed.copy()
    c.update(message)
    return c.finalize()


def create_platform(seed: bytes) -> PlatformIdentity:
    """Derive a deterministic test platform from a 32-byte seed.

    Each field uses a distinct domain-separation label under HMAC-SHA-256 so
    the public identifiers reveal nothing about the root secret.
    """
    if len(seed) != 32:
        raise ValueError("platform seed must be exactly 32 bytes")
    return PlatformIdentity(
        platform_key=_hmac.new(seed, _PLATFORM_DOMAIN + b"/key", "sha256").digest(),
        cpu_svn=_hmac.new(seed, _PLATFORM_DOMAIN + b"/cpu-svn", "sha256").digest()[:16],
        platform_id=_hmac.new(seed, _PLATFORM_DOMAIN + b"/id", "sha256").digest()[:16],
    )


def measure_enclave(
    code_blob: bytes, signer_identity: bytes, product_id: int, isv_svn: int
) -> EnclaveIdentity:
    """Measure an enclave: identity digests are pure functions of the inputs."""
    return EnclaveIdentity(
        measurement=_sha256(code_blob),
        signer=_sha256(signer_identity),
        product_id=product_id,
        isv_svn=isv_svn,
    )


def _identity_field(enclave: EnclaveIdentity, policy: SealingPolicy) -> bytes:
    if policy is SealingPolicy.MRENCLAVE:
        return enclave.measurement
    return enclave.signer + struct.pack("<H", enclave.product_id)


def derive_sealing_key(
    platform: PlatformIdentity,
    enclave: EnclaveIdentity,
    policy: SealingPolicy,
    key_id: bytes,
    isv_svn_request: int,
    cpu_svn_request: bytes,
) -> bytes:
    """Derive the 128-bit sealing key for a key request.

    The key is the AES-CMAC, under the platform root secret, of the
    fixed-order request serialization:

        "SEALKEYv1" | policy u16 | key_id (32) | isv_svn u16 | cpu_svn (16)
                    | identity field

    where the identity field is the measurement under MRENCLAVE and
    signer | product_id u16 under MRSIGNER (so MRSIGNER keys are independent
    of the measurement by construction). An enclave may request keys for its
    own or older security versions only.
    """
    if len(key_id) != 32:
        raise ValueError("key_id must be 32 bytes")
    if len(cpu_svn_request) != 16:
        raise ValueError("cpu_svn must be 16 bytes")
    if isv_svn_request > enclave.isv_svn:
        raise SvnViolation(
            f"requested isv_svn {isv_svn_request} > enclave isv_svn {enclave.isv_svn}"
        )
    message = (
        _SEAL_LABEL
        + struct.pack("<H", int(policy))
        + key_id
        + struct.pack("<H", isv_svn_request)
        + cpu_svn_request
        + _identity_field(enclave, policy)
    )
    return _platform_cmac(platform.platform_key, message)


class SealingKey(NamedTuple):
    """A derived sealing key, keyed for AES-GCM, and the key request that
    names it (header bytes 8..60 of every blob sealed under it)."""

    request: bytes
    aead: AESGCM

    @property
    def key_id(self) -> bytes:
        return self.request[_REQUEST.size - 32:]


def sealing_key(
    platform: PlatformIdentity, enclave: EnclaveIdentity, policy: SealingPolicy
) -> SealingKey:
    """Draw a fresh key id and derive its sealing key at the enclave's own
    SVN and the platform's CPU SVN, as `seal_into` does for each blob it
    seals without one."""
    key_id = os.urandom(32)
    key = derive_sealing_key(
        platform, enclave, policy, key_id, enclave.isv_svn, platform.cpu_svn
    )
    request = _REQUEST.pack(int(policy), enclave.isv_svn, platform.cpu_svn, key_id)
    return SealingKey(request, AESGCM(key))


def seal_into(
    platform: PlatformIdentity,
    enclave: EnclaveIdentity,
    policy: SealingPolicy,
    payload,
    aad: bytes,
    out,
    key: SealingKey | None = None,
) -> int:
    """Seal a payload to this platform, writing the blob to the start of the
    writable buffer `out`; returns the blob size, always 560 + len(payload).

    `out` needs room for the blob plus SEAL_SLACK scratch bytes, which are
    overwritten. The blob is sealed under `key`, which must come from
    `sealing_key` with the same platform, enclave and policy, or else under
    a fresh one drawn for this call. A fresh IV is drawn per call; the
    caller AAD is authenticated but not stored (readers must be able to
    recompute it).
    """
    end = _sealed_size(len(payload))
    if key is None:
        key = sealing_key(platform, enclave, policy)
    iv = os.urandom(IV_SIZE)
    view = memoryview(out)
    _PREFIX.pack_into(
        view, 0, BLOB_MAGIC, BLOB_FORMAT_VERSION, int(policy), enclave.isv_svn,
        platform.cpu_svn, key.key_id, enclave.measurement, enclave.signer,
        enclave.product_id, b"\x00\x00", len(payload), 0, _RESERVED_TAIL,
    )
    view[AAD_PREFIX_SIZE:_TAG_AT] = iv
    key.aead.encrypt_into(
        iv, payload, b"".join((view[:AAD_PREFIX_SIZE], aad)),
        view[HEADER_SIZE:end + TAG_SIZE],
    )
    view[_TAG_AT:HEADER_SIZE] = view[end:end + TAG_SIZE]
    return end


def unseal_into(
    platform: PlatformIdentity,
    enclave: EnclaveIdentity,
    blob,
    aad: bytes,
    out,
    keys: dict[bytes, AESGCM] | None = None,
) -> int:
    """Recover the payload of the sealed blob `blob` (any buffer) into the
    writable buffer `out`, which must be exactly len(blob) - 560 bytes;
    returns that length.

    The key is re-derived from the blob's recorded policy/key_id/SVNs and the
    *caller's* enclave identity, so a different platform, a different
    measurement (MRENCLAVE), a different signer (MRSIGNER), a wrong AAD, or
    any bit tamper all fail authentication. The AAD is the blob's own
    validated 532-byte prefix followed by the caller AAD.

    `keys`, if given, is the caller's memo of keys derived for this platform
    and enclave, by key request. It is consulted after the header and SVN
    checks, and a derived key enters it only once its blob authenticates.
    The caller bounds its size.
    """
    view = memoryview(blob)
    policy, isv_svn, cpu_svn, key_id, _m, _s, _p = _check_header(view)
    if len(out) != len(view) - HEADER_SIZE:
        raise ValueError(f"output buffer must be {len(view) - HEADER_SIZE} bytes")
    if enclave.isv_svn < isv_svn:
        raise SvnViolation(f"enclave isv_svn {enclave.isv_svn} < blob isv_svn {isv_svn}")
    request = bytes(view[_REQUEST_AT:_REQUEST_AT + _REQUEST.size])
    aead = keys.get(request) if keys is not None else None
    fresh = aead is None
    if fresh:
        aead = AESGCM(derive_sealing_key(platform, enclave, policy, key_id, isv_svn, cpu_svn))
    try:
        aead.decrypt_into(
            view[AAD_PREFIX_SIZE:_TAG_AT],
            b"".join((view[HEADER_SIZE:], view[_TAG_AT:HEADER_SIZE])),
            b"".join((view[:AAD_PREFIX_SIZE], aad)),
            out,
        )
    except InvalidTag:
        raise AuthenticationFailure(
            "unseal failed: wrong platform/identity, wrong AAD, or tampered blob"
        ) from None
    if fresh and keys is not None:
        keys[request] = aead
    return len(out)


def seal(
    platform: PlatformIdentity,
    enclave: EnclaveIdentity,
    policy: SealingPolicy,
    payload: bytes,
    aad: bytes = b"",
) -> SealedBlob:
    """Seal a payload to this platform under the given policy (`seal_into`
    into a fresh buffer, parsed back into a SealedBlob)."""
    out = bytearray(_sealed_size(len(payload)) + SEAL_SLACK)
    del out[seal_into(platform, enclave, policy, payload, aad, out):]
    return SealedBlob.from_bytes(out)


def unseal(
    platform: PlatformIdentity,
    enclave: EnclaveIdentity,
    blob: SealedBlob | bytes,
    aad: bytes = b"",
) -> bytes:
    """Recover a sealed payload (`unseal_into` into a fresh buffer)."""
    if isinstance(blob, SealedBlob):
        blob = blob.to_bytes()
    out = bytearray(max(0, len(blob) - HEADER_SIZE))
    unseal_into(platform, enclave, blob, aad, out)
    return bytes(out)
