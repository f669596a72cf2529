"""Timed read/write transfer benchmarks across storage modes.

Replicates the measurement shape of the throughput experiments at desk
scale: a deterministic corpus (one large file, or a tree of files with
log-uniform sizes), transferred through three modes

    plain  - byte copy, the no-encryption baseline
    v1     - password-derived vault
    sealed - platform-bound vault

in both directions, each repetition on a fresh target namespace, with every
read repetition digest-verified against the corpus before its throughput
counts. Results go to CSV (one row per repetition) plus a per-cell
mean/stddev summary. Transfers run one file at a time, in the caller's
thread.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass
from enum import Enum
from hashlib import sha256
from pathlib import Path
from typing import Callable

import numpy as np

from . import tee, vault
from .errors import EmptyInput, InvalidSpec, VerificationFailure
from .modes import ModeId

CSV_HEADER = "mode,workload,direction,rep,bytes,seconds,mbps"

TREE_MIN_FILE = 1024  # log-uniform size distribution bounds for tree corpora
TREE_MAX_FILE = 8 * 1024 * 1024
TREE_TOTAL_TOLERANCE = 0.01

DEFAULT_SINGLE_BYTES = 256 * 1024 * 1024

_BENCH_PASSWORD = "bench-throwaway"
_BENCH_KDF_ITERATIONS = 4096


class BenchMode(str, Enum):
    PLAIN = "plain"
    V1 = "v1"
    SEALED = "sealed"


class WorkloadKind(str, Enum):
    SINGLE = "single"
    TREE = "tree"


class Direction(str, Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Workload:
    kind: WorkloadKind
    total_bytes: int
    file_count: int = 64  # tree only
    seed: int = 0


@dataclass(frozen=True)
class ManifestEntry:
    relpath: str
    size: int
    digest: str  # sha256 hex


@dataclass(frozen=True)
class Manifest:
    kind: WorkloadKind
    seed: int
    total_bytes: int
    entries: tuple[ManifestEntry, ...]


@dataclass(frozen=True)
class BenchRecord:
    mode: BenchMode
    workload: WorkloadKind
    direction: Direction
    rep: int
    bytes: int
    seconds: float

    @property
    def mbps(self) -> float:
        return self.bytes / 1e6 / self.seconds


def _tree_sizes(spec: Workload) -> list[int]:
    if spec.file_count < 1:
        raise InvalidSpec("tree workload needs at least one file")
    if not spec.file_count * TREE_MIN_FILE <= spec.total_bytes <= spec.file_count * TREE_MAX_FILE:
        raise InvalidSpec(
            f"{spec.total_bytes} bytes cannot be spread over {spec.file_count} "
            f"files of {TREE_MIN_FILE}..{TREE_MAX_FILE} bytes"
        )
    rng = np.random.default_rng([spec.seed, 0xC0])
    raw = np.exp(rng.uniform(np.log(TREE_MIN_FILE), np.log(TREE_MAX_FILE), spec.file_count))
    scaled = np.clip(raw * (spec.total_bytes / raw.sum()), TREE_MIN_FILE, TREE_MAX_FILE)
    sizes = [int(s) for s in scaled]
    # greedily settle the rounding/clipping residual within the size bounds
    residual = spec.total_bytes - sum(sizes)
    i = 0
    while residual != 0 and i < spec.file_count * 4:
        idx = i % spec.file_count
        if residual > 0:
            room = TREE_MAX_FILE - sizes[idx]
            take = min(room, residual)
        else:
            room = sizes[idx] - TREE_MIN_FILE
            take = -min(room, -residual)
        sizes[idx] += take
        residual -= take
        i += 1
    if abs(spec.total_bytes - sum(sizes)) > TREE_TOTAL_TOLERANCE * spec.total_bytes:
        raise InvalidSpec("could not hit the requested total within 1%")
    return sizes


def _write_random_file(path: Path, size: int, seed_key: list[int]) -> str:
    rng = np.random.default_rng(seed_key)
    h = sha256()
    with vault.atomic_write(path) as out:
        remaining = size
        while remaining > 0:
            chunk = rng.bytes(min(remaining, 8 * 1024 * 1024))
            out.write(chunk)
            h.update(chunk)
            remaining -= len(chunk)
    return h.hexdigest()


def generate_workload(spec: Workload, staging: str | Path) -> Manifest:
    """Materialize a deterministic corpus on disk and return its manifest."""
    if spec.total_bytes < 1:
        raise InvalidSpec("workload must be at least 1 byte")
    staging = Path(staging)
    if spec.kind is WorkloadKind.SINGLE:
        sizes = [spec.total_bytes]
        relpaths = ["single.bin"]
    else:
        sizes = _tree_sizes(spec)
        relpaths = [f"sub{i % 8:02d}/f{i:04d}.bin" for i in range(len(sizes))]
    entries = []
    for i, (rel, size) in enumerate(zip(relpaths, sizes)):
        digest = _write_random_file(staging / rel, size, [spec.seed, 1, i])
        entries.append(ManifestEntry(relpath=rel, size=size, digest=digest))
    return Manifest(
        kind=spec.kind,
        seed=spec.seed,
        total_bytes=sum(sizes),
        entries=tuple(entries),
    )


class _Target:
    """One benchmark target namespace, a plain directory or an unlocked
    vault, that stores files from the corpus staged under `corpus`."""

    def __init__(self, mode: BenchMode, base: Path, platform: tee.PlatformIdentity | None,
                 corpus: Path):
        self.mode = mode
        self.base = base
        self.corpus = corpus
        if mode is BenchMode.PLAIN:
            self.handle = None
        else:
            vault.create_vault(
                base / "vault",
                _BENCH_PASSWORD,
                ModeId(mode.value),
                platform=platform,
                iterations=_BENCH_KDF_ITERATIONS,
            )
            self.handle = vault.unlock_vault(base / "vault", _BENCH_PASSWORD, platform=platform)

    def store(self, rel: str) -> None:
        if self.handle is None:
            dst = self.base / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(self.corpus / rel, dst)
        else:
            with open(self.corpus / rel, "rb") as f:
                self.handle.write_file(rel, f)

    def load(self, rel: str) -> bytes | bytearray:
        if self.handle is None:
            return (self.base / rel).read_bytes()
        return self.handle.read_file(rel)

    def close(self) -> None:
        if self.handle is not None:
            self.handle.lock()
        shutil.rmtree(self.base, ignore_errors=True)


def _timed(fn: Callable[[str], object], entries: list[str]) -> tuple[float, list]:
    """Seconds to apply `fn` to every entry in turn, and the results in
    entry order."""
    started = time.perf_counter()
    results = [fn(entry) for entry in entries]
    return time.perf_counter() - started, results


def _verify(mode: BenchMode, manifest: Manifest, blobs: list[bytes]) -> None:
    for entry, blob in zip(manifest.entries, blobs):
        if sha256(blob).hexdigest() != entry.digest:
            raise VerificationFailure(
                f"{mode.value}: decrypted bytes for {entry.relpath!r} do not match the corpus"
            )


def run_bench(
    modes: list[BenchMode],
    workloads: list[Workload],
    directions: list[Direction] | None = None,
    repetitions: int = 10,
    staging: str | Path = "bench-staging",
    workdir: str | Path = "bench-work",
    platform: tee.PlatformIdentity | None = None,
) -> list[BenchRecord]:
    """Run the benchmark matrix and return records in execution order.

    The corpus is staged once per workload under `staging` (the caller picks
    a suitably fast medium); every write repetition gets a fresh target
    namespace under `workdir`; every read repetition is digest-verified
    (VerificationFailure aborts the run). Benchmark vaults are throwaway, so
    sealed mode uses an ephemeral platform unless one is supplied.
    """
    if repetitions < 1:
        raise InvalidSpec("repetitions must be >= 1")
    directions = list(directions) if directions else [Direction.READ, Direction.WRITE]
    staging = Path(staging)
    workdir = Path(workdir)
    if platform is None:
        platform = tee.create_platform(os.urandom(32))
    records: list[BenchRecord] = []
    for spec in workloads:
        corpus = staging / spec.kind.value
        manifest = generate_workload(spec, corpus)
        relpaths = [entry.relpath for entry in manifest.entries]
        for mode in modes:
            for direction in directions:
                if direction is Direction.WRITE:
                    for rep in range(repetitions):
                        target = _Target(
                            mode, workdir / f"{mode.value}-{spec.kind.value}-w{rep}", platform,
                            corpus,
                        )
                        try:
                            seconds, _ = _timed(target.store, relpaths)
                        finally:
                            target.close()
                        records.append(BenchRecord(
                            mode, spec.kind, direction, rep, manifest.total_bytes, seconds
                        ))
                else:
                    target = _Target(
                        mode, workdir / f"{mode.value}-{spec.kind.value}-r", platform, corpus
                    )
                    try:
                        _timed(target.store, relpaths)
                        for rep in range(repetitions):
                            seconds, blobs = _timed(target.load, relpaths)
                            _verify(mode, manifest, blobs)
                            del blobs
                            records.append(BenchRecord(
                                mode, spec.kind, direction, rep, manifest.total_bytes, seconds
                            ))
                    finally:
                        target.close()
    return records


@dataclass(frozen=True)
class SummaryRow:
    mode: BenchMode
    workload: WorkloadKind
    direction: Direction
    reps: int
    mean_mbps: float
    stdev_mbps: float


def summarize(records: list[BenchRecord]) -> list[SummaryRow]:
    """One row per (mode, workload, direction): mean and stddev of MB/s."""
    if not records:
        raise EmptyInput("no records to summarize")
    cells: dict[tuple, list[float]] = {}
    for rec in records:
        cells.setdefault((rec.mode, rec.workload, rec.direction), []).append(rec.mbps)
    rows = []
    for (mode, workload, direction), values in cells.items():
        rows.append(SummaryRow(
            mode=mode,
            workload=workload,
            direction=direction,
            reps=len(values),
            mean_mbps=statistics.fmean(values),
            stdev_mbps=statistics.pstdev(values),
        ))
    return rows


def render_summary(rows: list[SummaryRow]) -> str:
    lines = [f"{'mode':<8} {'workload':<9} {'direction':<9} {'reps':>4} {'MB/s mean':>12} {'MB/s σ':>10}"]
    for r in rows:
        lines.append(
            f"{r.mode.value:<8} {r.workload.value:<9} {r.direction.value:<9} "
            f"{r.reps:>4} {r.mean_mbps:>12.2f} {r.stdev_mbps:>10.2f}"
        )
    return "\n".join(lines)


def write_csv(records: list[BenchRecord], path: str | Path) -> None:
    if not records:
        raise EmptyInput("no records to write")
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.mode.value},{r.workload.value},{r.direction.value},"
            f"{r.rep},{r.bytes},{r.seconds:.9f},{r.mbps:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
