"""Exception taxonomy shared by all sealvault modules.

Every error raised by the library derives from VaultError so callers can
catch broadly; the CLI maps subclasses onto its exit-code scheme.
"""


class VaultError(Exception):
    """Base class for all sealvault errors."""


# -- sealing / crypto ------------------------------------------------------

class AuthenticationFailure(VaultError):
    """AEAD tag mismatch: wrong key, wrong identity/platform, wrong AAD, or tamper."""


class MalformedBlob(VaultError):
    """Sealed blob fails structural validation (magic, version, sizes, reserved fields)."""


class SvnViolation(VaultError):
    """Security-version gate: requested or recorded SVN exceeds the enclave's."""


class PayloadTooLarge(VaultError):
    pass


# -- crypto modes ----------------------------------------------------------

class EmptyPassword(VaultError):
    pass


class BlockTooLarge(VaultError):
    pass


class EmptyBlock(VaultError):
    pass


class MalformedBlock(VaultError):
    """Encrypted block (or file object framing) is structurally invalid."""


class SessionDestroyed(VaultError):
    pass


class AlreadyDestroyed(VaultError):
    pass


class NameTooLong(VaultError):
    pass


class InvalidName(VaultError):
    pass


class MalformedName(VaultError):
    """Encoded filename fails suffix/base64/size validation."""


# -- vault container -------------------------------------------------------

class TargetNotEmpty(VaultError):
    pass


class MissingPlatform(VaultError):
    """Sealed mode requires a platform identity and none was supplied."""


class WrongPassword(VaultError):
    pass


class UnsealFailure(VaultError):
    """Content key cannot be unsealed: wrong platform or wrong enclave identity."""


class CorruptConfig(VaultError):
    pass


class VaultLocked(VaultError):
    pass


class NotFound(VaultError):
    pass


class DirectoryNotEmpty(VaultError):
    pass


class StorageFull(VaultError):
    pass


# -- remote sync -----------------------------------------------------------

class StoreUnreachable(VaultError):
    pass


class PreconditionFailed(VaultError):
    """Preconditioned put rejected: remote version moved underneath us."""


class StateCorrupt(VaultError):
    pass


# -- bench -----------------------------------------------------------------

class VerificationFailure(VaultError):
    """Benchmarked read produced bytes whose digest does not match the corpus."""


class EmptyInput(VaultError):
    pass


class InvalidSpec(VaultError):
    pass
