"""`sync`: a v1 vault of a few hundred objects kept in step with a
`LocalDirStore` remote and a second replica root.

Each cycle changes k files through the vault (untimed), then times a push, a
no-op run and the replica's pull. Change detection (every local file hashed),
`LocalDirStore.list` (every object read) and the store's puts and gets do the
work; block crypto and name resolution only matter in the untimed changes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sealvault import modes, sync

from .common import (FAILED, GOLDEN, Recorder, expected_stored_bytes,
                     log_uniform_sizes, open_vault, rng_for, stored_bytes)

NAME = "sync"
MODE = modes.ModeId.V1


@dataclass(frozen=True)
class Sizes:
    objects: int = 300
    dirs: int = 6
    min_bytes: int = 1024
    max_bytes: int = 512 * 1024
    changes: int = 8  # k, files changed per cycle


@dataclass
class Inputs:
    seed: int
    sizes: Sizes
    paths: list[str]
    contents: list[bytes]
    offsets: np.ndarray  # per size stratum, where its golden sequence of picks starts

    def changes(self, cycle: int) -> list[tuple[int, bytes]]:
        """(object index, new content) for one cycle: one object from each of
        k size strata, stepping through each stratum along a golden sequence,
        so the bytes cycles move follow the same mix for every seed."""
        rng = rng_for(self.seed, 5, cycle)
        k = self.sizes.changes
        by_size = sorted(range(len(self.contents)), key=lambda i: len(self.contents[i]))
        strata = [by_size[j::k] for j in range(k)]
        at = (self.offsets + GOLDEN * cycle) % 1.0
        picks = [s[int(x * len(s))] for s, x in zip(strata, at)]
        return [(i, rng.bytes(len(self.contents[i]))) for i in picks]


def make_inputs(seed: int, sizes: Sizes) -> Inputs:
    rng = rng_for(seed, 1)
    lengths = log_uniform_sizes(sizes.objects, sizes.min_bytes, sizes.max_bytes)
    return Inputs(
        seed=seed,
        sizes=sizes,
        paths=[f"set{i % sizes.dirs}/obj{i:04d}.bin" for i in range(sizes.objects)],
        contents=[rng.bytes(n) for n in rng.permutation(lengths)],
        offsets=rng.random(sizes.changes),
    )


@dataclass
class State:
    inputs: Inputs
    root: Path
    replica: Path
    handle: object
    store: sync.LocalDirStore
    state: sync.SyncState
    replica_state: sync.SyncState
    sizes: list[int]


def setup(work: Path, inp: Inputs) -> State:
    root, replica = work / "vault", work / "replica"
    h = open_vault(root, MODE)
    for path, data in zip(inp.paths, inp.contents):
        h.write_file(path, data)
    store = sync.LocalDirStore(work / "remote")
    state = sync.SyncState(work / "state" / "source.state")
    replica_state = sync.SyncState(work / "state" / "replica.state")
    sync.sync(root, store, state)
    sync.sync(replica, store, replica_state)
    return State(inp, root, replica, h, store, state, replica_state,
                 [len(c) for c in inp.contents])


def _files(root: Path) -> dict[str, Path]:
    out = {}
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            path = Path(dirpath, name)
            out[path.relative_to(root).as_posix()] = path
    return out


def _report_ok(report, pushed: int, pulled: int) -> bool:
    return (len(report.pushed), len(report.pulled), len(report.conflicts)) == (pushed, pulled, 0)


def cycle(state: State, rec: Recorder, index: int) -> None:
    k = state.inputs.sizes.changes
    changes = state.inputs.changes(index)
    for i, data in changes:
        rec.untimed(f"change {state.inputs.paths[i]}", state.handle.write_file, state.inputs.paths[i], data)
    moved = sum(len(data) for _i, data in changes)
    rec.counters["objects_changed"] += k

    runs = (("sync.push", state.root, state.state, k, 0),
            ("sync.noop", state.root, state.state, 0, 0),
            ("sync.pull", state.replica, state.replica_state, 0, k))
    for kind, root, st, pushed, pulled in runs:
        report = rec.op(kind, sync.sync, root, state.store, st, nbytes=moved if pushed or pulled else 0)
        if report is not FAILED:
            rec.expect(_report_ok(report, pushed, pulled), f"{kind}: {report}, want "
                       f"pushed={pushed} pulled={pulled} conflicts=0")

    source, copy = _files(state.root), _files(state.replica)
    rec.verify(source.keys() == copy.keys()
               and all(p.read_bytes() == copy[key].read_bytes() for key, p in source.items()),
               f"replica differs from source after cycle {index}")


def finish(state: State, rec: Recorder) -> dict:
    stored = stored_bytes(state.root)
    expected = expected_stored_bytes(state.sizes, state.inputs.sizes.dirs, MODE)
    rec.verify(stored == expected, f"stored {stored} B, size law says {expected} B")
    return {"space_amp": stored / sum(state.sizes)}


def named(rec: Recorder, finished: dict) -> list[tuple[str, float, str, int]]:
    return [(f"sync_{kind}_ms", rec.kind_p(f"sync.{kind}", 50) / 1e3, "ms", rec.count(f"sync.{kind}"))
            for kind in ("noop", "push", "pull")]


def close(state: State) -> None:
    state.handle.lock()
