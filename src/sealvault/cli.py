"""Operator command-line entry point.

Commands are sessionless: each one prompts for the password (or reads it
from the file named by SEALVAULT_PASSWORD_FILE, which may be a /dev/fd
path), unlocks the vault, acts, and exits. Secrets never appear on the
command line. Sealed-mode commands fail fast when no platform seed source
is configured (--platform-seed-file or SEALVAULT_PLATFORM_SEED_FILE; the
file holds 64 hex characters or 32 raw bytes).

Exit codes: 0 success, 1 generic error, 2 usage error, 3 authentication or
unseal failure, 4 not found.
"""

from __future__ import annotations

import argparse
import getpass
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from . import sync as sync_mod
from . import vault as vault_mod
from .errors import (
    AuthenticationFailure,
    EmptyPassword,
    InvalidName,
    InvalidSpec,
    MalformedName,
    MissingPlatform,
    NameTooLong,
    NotFound,
    TargetNotEmpty,
    UnsealFailure,
    VaultError,
    WrongPassword,
)
from .modes import DEFAULT_PBKDF2_ITERATIONS, ModeId
from .tee import PlatformIdentity, create_platform

PASSWORD_FILE_ENV = "SEALVAULT_PASSWORD_FILE"
PLATFORM_SEED_ENV = "SEALVAULT_PLATFORM_SEED_FILE"

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_USAGE = 2
EXIT_AUTH = 3
EXIT_NOT_FOUND = 4

# The first row whose errors match sets the exit code, so the auth and
# not-found errors keep theirs although they are VaultErrors.
_EXIT_CODES = (
    ((WrongPassword, UnsealFailure, AuthenticationFailure, MissingPlatform), EXIT_AUTH),
    (NotFound, EXIT_NOT_FOUND),
    ((TargetNotEmpty, NameTooLong, InvalidName, MalformedName, InvalidSpec,
      EmptyPassword, ValueError), EXIT_USAGE),
    ((VaultError, OSError), EXIT_GENERIC),
)


def _read_password(confirm: bool = False) -> str:
    path = os.environ.get(PASSWORD_FILE_ENV)
    if path:
        return Path(path).read_text().rstrip("\r\n")
    password = getpass.getpass("Vault password: ")
    if confirm:
        if getpass.getpass("Confirm password: ") != password:
            raise ValueError("passwords do not match")
    return password


def _load_platform(args: argparse.Namespace, required: bool) -> PlatformIdentity | None:
    seed_file = args.platform_seed_file or os.environ.get(PLATFORM_SEED_ENV)
    if not seed_file:
        if required:
            raise MissingPlatform(
                "sealed mode needs a platform seed: pass --platform-seed-file "
                f"or set {PLATFORM_SEED_ENV}"
            )
        return None
    raw = Path(seed_file).read_bytes()
    text = raw.decode("ascii", errors="ignore").strip()
    if len(text) == 64:
        try:
            return create_platform(bytes.fromhex(text))
        except ValueError:
            pass
    if len(raw) == 32:
        return create_platform(raw)
    raise ValueError(
        f"platform seed file {seed_file!r} must hold 64 hex "
        "characters or 32 raw bytes"
    )


def _vault_lock(root: Path):
    """Advisory lock serializing mutating commands on one vault."""
    return vault_mod.exclusive_lock(root / ".lock", "another command")


def _open_vault(args: argparse.Namespace) -> vault_mod.VaultHandle:
    cfg = vault_mod.read_config(args.vault)
    platform = _load_platform(args, required=cfg.mode is ModeId.SEALED)
    password = _read_password()
    return vault_mod.unlock_vault(args.vault, password, platform=platform)


def cmd_init(args: argparse.Namespace) -> int:
    mode = ModeId(args.mode)
    platform = _load_platform(args, required=mode is ModeId.SEALED)
    password = _read_password(confirm=sys.stdin.isatty())
    vault_mod.create_vault(
        args.vault, password, mode, platform=platform, iterations=args.iterations
    )
    print(f"initialized {mode.value} vault at {args.vault}")
    return EXIT_OK


def cmd_put(args: argparse.Namespace) -> int:
    src = Path(args.src)
    if not src.is_file():
        raise NotFound(f"no such source file: {src}")
    with _vault_lock(args.vault):
        with _open_vault(args) as handle:
            with open(src, "rb") as stream:
                stored = handle.write_file(args.vpath, stream)
    if args.verbose:
        print(f"stored {stored} bytes at {args.vpath}")
    return EXIT_OK


def cmd_get(args: argparse.Namespace) -> int:
    dst = Path(args.dst)
    with _open_vault(args) as handle:
        handle.read_range(args.vpath, 0, 0)  # a missing or bad file fails before dst is touched
        dst.parent.mkdir(parents=True, exist_ok=True)
        with vault_mod.atomic_write(dst) as out:
            written = handle.read_to(args.vpath, out)
    if args.verbose:
        print(f"wrote {written} bytes to {dst}")
    return EXIT_OK


def cmd_ls(args: argparse.Namespace) -> int:
    with _open_vault(args) as handle:
        entries = handle.list_dir(args.vpath)
    for entry in entries:
        if entry.kind == "dir":
            print(f"{'<DIR>':>12}  {entry.name}")
        elif entry.kind == "file":
            print(f"{entry.size:>12}  {entry.name}")
        else:
            print(f"{'<?>':>12}  {entry.name}")
    return EXIT_OK


def cmd_rm(args: argparse.Namespace) -> int:
    with _vault_lock(args.vault):
        with _open_vault(args) as handle:
            handle.remove_file(args.vpath)
    return EXIT_OK


def cmd_mv(args: argparse.Namespace) -> int:
    with _vault_lock(args.vault):
        with _open_vault(args) as handle:
            handle.rename_file(args.src, args.dst)
    return EXIT_OK


def _make_store(url: str, token: str | None) -> sync_mod.RemoteStore:
    if url.startswith(("http://", "https://")):
        return sync_mod.HttpStore(url, token=token)
    return sync_mod.LocalDirStore(url)


def cmd_sync(args: argparse.Namespace) -> int:
    state_path = Path(args.state) if args.state else args.vault / sync_mod.STATE_NAME
    with _make_store(args.remote, args.token) as store, _vault_lock(args.vault):
        state = sync_mod.SyncState(state_path)
        report = sync_mod.sync(args.vault, store, state)
    print(report)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    modes = [bench_mod.BenchMode(m) for m in args.modes.split(",")]
    directions = [bench_mod.Direction(d) for d in args.directions.split(",")]
    workloads = [  # a single-file workload ignores file_count
        bench_mod.Workload(bench_mod.WorkloadKind(w), args.bytes,
                           file_count=args.tree_files, seed=args.seed)
        for w in args.workload.split(",")
    ]
    platform = _load_platform(args, required=False)  # ephemeral if absent
    records = bench_mod.run_bench(
        modes,
        workloads,
        directions=directions,
        repetitions=args.reps,
        staging=args.staging,
        workdir=args.workdir,
        platform=platform,
        parallel_workers=args.parallel,
    )
    bench_mod.write_csv(records, args.out)
    print(bench_mod.render_summary(bench_mod.summarize(records)))
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_dump_config(args: argparse.Namespace) -> int:
    print(vault_mod.describe_config(vault_mod.read_config(args.vault)))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sealvault",
        description="Client-side encrypted vault with password-derived (v1) and "
                    "platform-bound (sealed) crypto modes.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def vault_arg(p):
        p.add_argument("--vault", type=Path, required=True, help="vault root directory")
        p.add_argument("--platform-seed-file", help="file with the platform seed (sealed mode)")

    p = sub.add_parser("init", help="create a new vault (password is prompted)")
    vault_arg(p)
    p.add_argument("--mode", choices=[m.value for m in ModeId], required=True)
    p.add_argument("--iterations", type=int, default=DEFAULT_PBKDF2_ITERATIONS,
                   help="PBKDF2 iteration count")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("put", help="store a local file into the vault")
    vault_arg(p)
    p.add_argument("src")
    p.add_argument("vpath")
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("get", help="read a vault file out to a local path")
    vault_arg(p)
    p.add_argument("vpath")
    p.add_argument("dst")
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("ls", help="list a vault directory")
    vault_arg(p)
    p.add_argument("vpath", nargs="?", default="/")
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("rm", help="remove a vault file or empty directory")
    vault_arg(p)
    p.add_argument("vpath")
    p.set_defaults(func=cmd_rm)

    p = sub.add_parser("mv", help="rename a vault entry (content bytes untouched)")
    vault_arg(p)
    p.add_argument("src")
    p.add_argument("dst")
    p.set_defaults(func=cmd_mv)

    p = sub.add_parser("sync", help="push/pull encrypted objects to a remote store")
    vault_arg(p)
    p.add_argument("--remote", required=True, help="http(s) base URL or local directory")
    p.add_argument("--token", help="bearer token for the HTTP backend")
    p.add_argument("--state", help="sync state file (default: <vault>/sync.state)")
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("bench", help="run the throughput benchmark matrix")
    p.add_argument("--modes", default="plain,v1,sealed")
    p.add_argument("--workload", default="single", help="comma list of single,tree")
    p.add_argument("--directions", default="read,write")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--bytes", type=int, default=bench_mod.DEFAULT_SINGLE_BYTES)
    p.add_argument("--tree-files", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--staging", default="bench-staging",
                   help="corpus staging directory (pick a fast medium)")
    p.add_argument("--workdir", default="bench-work")
    p.add_argument("--parallel", type=int, default=1,
                   help="worker pool size (1 = the default single-threaded run)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--platform-seed-file")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dump-config", help="print a textual dump of vault.cfg")
    vault_arg(p)
    p.set_defaults(func=cmd_dump_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VaultError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for errors, code in _EXIT_CODES if isinstance(exc, errors))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
