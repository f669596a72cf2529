"""`namespace`: one sealed vault of about a thousand small files in
directories of depth 1 to 8, driven by a Zipf-skewed mix of reads,
overwrites, size lookups and listings, every result checked against an
in-memory model, and closed by one opacity scan of the vault root.

Path resolution (one AES-SIV name and one directory-id decrypt per level),
the per-file header unseal, `fsbridge` and the opacity index do the work;
each file is a single small block, and sync is never called.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sealvault import fsbridge, modes, sync

from .common import (AUDIT, FAILED, Recorder, expected_stored_bytes, log_uniform_sizes,
                     open_vault, random_name, rng_for, stored_bytes)

NAME = "namespace"
MODE = modes.ModeId.SEALED
MAX_DEPTH = 8
# op kind -> share of the stream
MIX = {"ns.read": 0.60, "ns.write": 0.15, "ns.stat": 0.15, "ns.list": 0.10}


@dataclass(frozen=True)
class Sizes:
    files: int = 1000
    dirs: int = 100  # plus up to 10 more, drawn from the seed
    min_file: int = 256
    max_file: int = 8192
    ops_per_cycle: int = 100
    zipf_s: float = 0.9


@dataclass
class Inputs:
    seed: int
    sizes: Sizes
    dirs: list[str]            # in creation order, parents first
    dir_depth: list[int]
    file_paths: list[str]      # in popularity order
    file_depth: list[int]
    contents: list[bytes]
    file_p: np.ndarray         # Zipf popularity over files
    dir_p: np.ndarray          # Zipf popularity over directories

    def plan(self, cycle: int) -> list[tuple[str, int, bytes | None]]:
        """(op kind, target index, new content for writes) for one cycle."""
        rng = rng_for(self.seed, 3, cycle)
        n = self.sizes.ops_per_cycle
        kinds = rng.choice(list(MIX), size=n, p=list(MIX.values()))
        files = rng.choice(len(self.file_paths), size=n, p=self.file_p)
        dirs = rng.choice(len(self.dirs), size=n, p=self.dir_p)
        data_rng = rng_for(self.seed, 4, cycle)
        plan = []
        for kind, f, d in zip(kinds, files, dirs):
            if kind == "ns.list":
                plan.append((str(kind), int(d), None))
            elif kind == "ns.write":  # an overwrite keeps the file's size
                plan.append((str(kind), int(f), data_rng.bytes(len(self.contents[f]))))
            else:
                plan.append((str(kind), int(f), None))
        return plan


def _zipf(n: int, s: float) -> np.ndarray:
    """Zipf probabilities over ranks 0..n-1."""
    weights = 1.0 / np.arange(1, n + 1) ** s
    return weights / weights.sum()


def make_inputs(seed: int, sizes: Sizes) -> Inputs:
    """A seeded directory tree with the same number of directories at every
    depth. Files are made in popularity order: rank r sits at depth
    r % 8 + 1 and has size log_uniform_sizes(...)[r], so the depth and size
    mix of the hot set, which sets the cost of an op, is the same for every
    seed, while names, tree shape, bytes and the op stream are not."""
    rng = rng_for(seed, 1)
    n_dirs = sizes.dirs + int(rng.integers(0, 11))
    children: dict[str, set[str]] = {"": set()}
    by_depth: dict[int, list[int]] = {d: [] for d in range(1, MAX_DEPTH + 1)}
    dirs, dir_depth = [], []

    def add(parent: str, suffix: str = "") -> str:
        name = random_name(rng) + suffix
        while name in children[parent]:
            name = random_name(rng) + suffix
        children[parent].add(name)
        return f"{parent}/{name}" if parent else name

    def add_dir(parent: str, depth: int) -> None:
        path = add(parent)
        children[path] = set()
        by_depth[depth].append(len(dirs))
        dirs.append(path)
        dir_depth.append(depth)

    for depth in range(1, MAX_DEPTH + 1):  # one chain reaches the deepest level
        add_dir(dirs[-1] if dirs else "", depth)
    for j in range(n_dirs - MAX_DEPTH):
        depth = j % MAX_DEPTH + 1
        parents = by_depth[depth - 1] if depth > 1 else [None]
        p = parents[int(rng.integers(len(parents)))]
        add_dir("" if p is None else dirs[p], depth)

    slots = {d: [int(i) for i in rng.permutation(ids)] for d, ids in by_depth.items()}
    file_sizes = log_uniform_sizes(sizes.files, sizes.min_file, sizes.max_file)
    file_paths, file_depth = [], []
    for rank in range(sizes.files):
        depth = rank % MAX_DEPTH + 1
        d = slots[depth][(rank // MAX_DEPTH) % len(slots[depth])]
        file_paths.append(add(dirs[d], ".dat"))
        file_depth.append(depth)
    contents = [rng.bytes(n) for n in file_sizes]

    dir_rank = [slots[d][i] for i in range(max(map(len, slots.values())))
                for d in range(1, MAX_DEPTH + 1) if i < len(slots[d])]
    dir_p = np.empty(n_dirs)
    dir_p[dir_rank] = _zipf(n_dirs, sizes.zipf_s)
    return Inputs(seed, sizes, dirs, dir_depth, file_paths, file_depth, contents,
                  _zipf(sizes.files, sizes.zipf_s), dir_p)


@dataclass
class State:
    inputs: Inputs
    root: Path
    handle: object
    bridge: fsbridge.VaultFilesystem
    contents: list[bytes]  # the model: current content of every file


def _expected_listing(inp: Inputs, contents: list[bytes], directory: str) -> list[tuple]:
    prefix = directory + "/"
    out = [(d[len(prefix):], "dir", None) for d in inp.dirs
           if d.startswith(prefix) and "/" not in d[len(prefix):]]
    out += [(p[len(prefix):], "file", len(c)) for p, c in zip(inp.file_paths, contents)
            if p.startswith(prefix) and "/" not in p[len(prefix):]]
    return sorted(out)


def setup(work: Path, inp: Inputs) -> State:
    root = work / "vault"
    h = open_vault(root, MODE)
    for d in inp.dirs:
        h.make_dir(d)
    for path, data in zip(inp.file_paths, inp.contents):
        h.write_file(path, data)
    return State(inp, root, h, fsbridge.VaultFilesystem(h), list(inp.contents))


def cycle(state: State, rec: Recorder, index: int) -> None:
    inp, h = state.inputs, state.handle
    for kind, target, new in inp.plan(index):
        if kind == "ns.list":
            directory = inp.dirs[target]
            got = rec.op(kind, h.list_dir, directory, depth=inp.dir_depth[target])
            if got is not FAILED:
                want = _expected_listing(inp, state.contents, directory)
                rec.expect(sorted((e.name, e.kind, e.size) for e in got) == want,
                           f"list_dir {directory}")
            continue
        path, depth = inp.file_paths[target], inp.file_depth[target]
        size = len(state.contents[target])
        if kind == "ns.read":
            got = rec.op(kind, h.read_file, path, nbytes=size, depth=depth)
            if got is not FAILED:
                rec.expect(got == state.contents[target], f"read_file {path}")
        elif kind == "ns.write":
            got = rec.op(kind, h.write_file, path, new, nbytes=size, depth=depth)
            if got is not FAILED:
                state.contents[target] = new
                rec.expect(got == size, f"write_file {path} stored {got} of {size}")
        else:
            got = rec.op(kind, state.bridge.getsize, path, depth=depth)
            if got is not FAILED:
                rec.expect(got == size, f"getsize {path} = {got}, want {size}")


def finish(state: State, rec: Recorder) -> dict:
    inp = state.inputs
    corpus = list(state.contents) + [p.encode() for p in inp.file_paths + inp.dirs]
    findings = rec.op(AUDIT, sync.scan_tree_opacity, state.root, corpus)
    if findings is not FAILED:
        rec.expect(findings == [], f"opacity scan found {findings[:3]}")
    sizes = [len(c) for c in state.contents]
    stored = stored_bytes(state.root)
    expected = expected_stored_bytes(sizes, len(inp.dirs), MODE)
    rec.verify(stored == expected, f"stored {stored} B, size law says {expected} B")
    return {"space_amp": stored / sum(sizes)}


def named(rec: Recorder, finished: dict) -> list[tuple[str, float, str, int]]:
    out = [("ns_read_p50_us", rec.kind_p("ns.read", 50), "us", rec.count("ns.read")),
           ("ns_read_p99_us", rec.kind_p("ns.read", 99), "us", rec.count("ns.read"))]
    for kind in ("write", "stat", "list"):
        out.append((f"ns_{kind}_p50_us", rec.kind_p(f"ns.{kind}", 50), "us", rec.count(f"ns.{kind}")))
    out.append(("space_amp", finished["space_amp"], "ratio", 1))
    if rec.count(AUDIT):
        out.append(("audit_scan_s", rec.kind_p(AUDIT, 50) / 1e6, "s", rec.count(AUDIT)))
    return out


def close(state: State) -> None:
    state.handle.lock()
