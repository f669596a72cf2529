"""Pieces every workload shares: fixed parameters, seeded generators, the
recorder that times calls into the program and counts checks, and the
end-to-end metrics computed from it."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import cryptography
import numpy as np

from sealvault import modes, tee, vault

BENCH_PASSWORD = "perfbench-throwaway"
# Fixed so set-up time is comparable between commits; far below the library
# default (600k) so that key derivation does not swamp set-up.
KDF_ITERATIONS = 100_000
# A fixed simulated platform. The vault's own keys still come from os.urandom.
PLATFORM = tee.create_platform(bytes(range(32)))

MIB = 1 << 20

# Timed calls of this kind run once after the loop; they are not loop ops.
AUDIT = "audit"

FAILED = object()  # returned by Recorder.op when the call raised


def median(values) -> float:
    """Median, or 0 when there are no samples (every such op failed)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent deterministic generator for one input stream of a seed."""
    return np.random.default_rng([seed, *stream])


GOLDEN = 0.6180339887498949


def log_uniform_sizes(count: int, low: int, high: int) -> list[int]:
    """`count` sizes spread log-uniformly over [low, high]: size i sits at
    quantile (0.5 + i * golden ratio) mod 1. Every run of consecutive sizes
    covers the range evenly, so whichever of them a skewed workload favours,
    it sees the same mix; the sizes do not depend on the seed."""
    u = (0.5 + GOLDEN * np.arange(count)) % 1.0
    return [int(round(low * (high / low) ** x)) for x in u]


def random_name(rng: np.random.Generator, low: int = 5, high: int = 12) -> str:
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype=np.uint8)
    n = int(rng.integers(low, high + 1))
    return bytes(rng.choice(letters, n)).decode("ascii")


def open_vault(root: Path, mode: modes.ModeId) -> vault.VaultHandle:
    """Create and unlock a vault at the benchmark's fixed KDF cost."""
    platform_id = PLATFORM if mode is modes.ModeId.SEALED else None
    vault.create_vault(root, BENCH_PASSWORD, mode, platform_id, iterations=KDF_ITERATIONS)
    return vault.unlock_vault(root, BENCH_PASSWORD, platform_id)


def stored_bytes(vault_root: Path) -> int:
    """Bytes of every object under the vault's data directory."""
    total = 0
    for dirpath, _dirs, files in os.walk(vault_root / vault.DATA_DIR):
        for name in files:
            total += os.stat(os.path.join(dirpath, name)).st_size
    return total


DIRID_OBJECT_SIZE = 44  # IV + encrypted 16-byte directory id + tag


def expected_stored_bytes(sizes, n_dirs: int, mode: modes.ModeId) -> int:
    """Bytes the size law predicts under d/ for these files and directories."""
    return sum(vault.object_size(s, mode.block_overhead) for s in sizes) + DIRID_OBJECT_SIZE * n_dirs


class Recorder:
    """Times each call the workload makes into the program and counts
    attempted and failed operations and checks. Single-threaded."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[tuple[str, int, int, int]] = []  # kind, start, end, depth
        self.samples: dict[str, list[tuple[int, int]]] = defaultdict(list)  # (ns, bytes)
        self.cycles: list[tuple[int, int, int]] = []  # ops, op ns, bytes
        self._cycle = [0, 0, 0]
        self.counters: dict[str, int] = defaultdict(int)  # workload-defined tallies
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, kind: str, fn, *args, nbytes: int = 0, depth: int = 0):
        """Time one call. A call that raises counts as a failed op and
        returns FAILED; its latency is not a sample."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(self.ops)
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing op is counted; the run goes on
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return FAILED
        finally:
            end = time.perf_counter_ns()
            if tracer is not None:
                tracer.op = None
        self.ops.append((kind, start, end, depth))
        self.samples[kind].append((end - start, nbytes))
        if kind != AUDIT:
            c = self._cycle
            c[0] += 1
            c[1] += end - start
            c[2] += nbytes
        return result

    def untimed(self, what: str, fn, *args):
        """A call that prepares an op: counted and checked, never timed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing call is counted; the run goes on
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return FAILED

    def expect(self, ok: bool, what: str) -> None:
        """Check the output of an op already counted as attempted."""
        if not ok:
            self._fail(what)

    def verify(self, ok: bool, what: str) -> None:
        """A check that is not tied to one op."""
        self.attempted += 1
        self.expect(ok, what)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def end_cycle(self) -> None:
        if self._cycle[0]:
            self.cycles.append(tuple(self._cycle))
        self._cycle = [0, 0, 0]

    # -- summaries -------------------------------------------------------------

    def loop_latencies_ns(self) -> list[int]:
        return [ns for kind, s in self.samples.items() if kind != AUDIT for ns, _b in s]

    def ops_per_s(self) -> float:
        """Median over cycles of calls per second spent in calls."""
        return median(n / (ns / 1e9) for n, ns, _b in self.cycles)

    def mb_per_s(self) -> float:
        """All bytes moved over all time spent in calls: how many bytes a
        cycle moves varies more than how long it takes."""
        ns = sum(c[1] for c in self.cycles)
        return sum(c[2] for c in self.cycles) / 1e6 / (ns / 1e9) if ns else 0.0

    def p50_us(self) -> float:
        return median(self.loop_latencies_ns()) / 1e3

    def kind_p(self, kind: str, q: float) -> float:
        """Percentile q (0..100) of one op kind's latency, in microseconds."""
        samples = [ns for ns, _b in self.samples[kind]]
        return float(np.percentile(samples, q)) / 1e3 if samples else 0.0

    def kind_mbps(self, kind: str) -> float:
        """Median over the kind's calls of bytes / call time, MB = 1e6 bytes."""
        return median(b / 1e6 / (ns / 1e9) for ns, b in self.samples[kind])

    def count(self, kind: str) -> int:
        return len(self.samples[kind])


def end_to_end(rec: Recorder, setup_s: list[float], space_amp: float) -> dict:
    """The metrics the benchmark reports for every workload (name -> (value, unit, n))."""
    return {
        "setup_s": (median(setup_s), "s", len(setup_s)),
        "ops_per_s": (rec.ops_per_s(), "1/s", len(rec.cycles)),
        "mb_per_s": (rec.mb_per_s(), "MB/s", len(rec.cycles)),
        "p50_us": (rec.p50_us(), "us", len(rec.loop_latencies_ns())),
        "space_amp": (space_amp, "ratio", 1),
    }


# -- provenance ----------------------------------------------------------------

def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _filesystem_of(path: Path) -> str:
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mnt = fields[1]
                if (target == mnt or target.startswith(mnt.rstrip("/") + "/")) and len(mnt) > len(best):
                    best, fstype = mnt, fields[2]
    except OSError:
        pass
    return fstype


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(root: Path, work_dir: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "cryptography": cryptography.__version__,
        "numpy": np.__version__,
        "work_fs": _filesystem_of(work_dir),
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
    }
