"""`stream`: a few large files written and read whole through a v1 and a
sealed vault, then 4 KiB range reads on the sealed copies.

Block crypto, the container's data-path copies and fsync do the work here;
name resolution is one level deep and sync is never called. Every read is
digest-verified outside its timed call.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

from sealvault import modes

from .common import (FAILED, MIB, Recorder, expected_stored_bytes, open_vault, rng_for,
                     stored_bytes)

NAME = "stream"
MODES = (modes.ModeId.V1, modes.ModeId.SEALED)
DIR = "stream"  # every file sits in this one directory, at depth 1


@dataclass(frozen=True)
class Sizes:
    files: int = 3
    min_bytes: int = 16 * MIB  # file sizes step evenly from min to max
    max_bytes: int = 32 * MIB
    range_reads: int = 200  # per cycle
    range_len: int = 4096


@dataclass
class Inputs:
    seed: int
    sizes: Sizes
    paths: list[str]
    contents: list[bytes]
    digests: list[bytes]

    def range_plan(self, cycle: int) -> list[tuple[int, int]]:
        """(file index, offset) of each range read in one cycle."""
        rng = rng_for(self.seed, 2, cycle)
        picks = rng.integers(0, len(self.contents), self.sizes.range_reads)
        return [(int(f), int(rng.integers(0, len(self.contents[f]) - self.sizes.range_len + 1)))
                for f in picks]


def make_inputs(seed: int, sizes: Sizes) -> Inputs:
    """Evenly stepped sizes in a fixed order, so the volume a cycle moves
    and the allocator's path through it do not depend on the seed; the seed
    adds an unaligned tail to each size and draws the bytes."""
    rng = rng_for(seed, 1)
    step = (sizes.max_bytes - sizes.min_bytes) // max(1, sizes.files - 1)
    lengths = [sizes.min_bytes + i * step + int(rng.integers(1, 4096)) for i in range(sizes.files)]
    contents = [rng.bytes(n) for n in lengths]
    return Inputs(
        seed=seed,
        sizes=sizes,
        paths=[f"{DIR}/file{i}.bin" for i in range(sizes.files)],
        contents=contents,
        digests=[sha256(c).digest() for c in contents],
    )


@dataclass
class State:
    inputs: Inputs
    roots: dict
    handles: dict


def setup(work: Path, inputs: Inputs) -> State:
    roots = {m: work / m.value for m in MODES}
    handles = {m: open_vault(roots[m], m) for m in MODES}
    return State(inputs, roots, handles)


def cycle(state: State, rec: Recorder, index: int) -> None:
    inp = state.inputs
    for mode in MODES:
        h = state.handles[mode]
        for path, data in zip(inp.paths, inp.contents):
            stored = rec.op(f"write.{mode.value}", h.write_file, path, data, nbytes=len(data), depth=1)
            if stored is not FAILED:
                rec.expect(stored == len(data), f"write_file {path} stored {stored} of {len(data)}")
        for path, data, digest in zip(inp.paths, inp.contents, inp.digests):
            out = rec.op(f"read.{mode.value}", h.read_file, path, nbytes=len(data), depth=1)
            if out is not FAILED:
                rec.expect(sha256(out).digest() == digest, f"read_file {path} ({mode.value}) digest")
            del out
    sealed = state.handles[modes.ModeId.SEALED]
    length = inp.sizes.range_len
    for f, offset in inp.range_plan(index):
        out = rec.op("range.sealed", sealed.read_range, inp.paths[f], offset, length,
                     nbytes=length, depth=1)
        if out is not FAILED:
            rec.expect(out == inp.contents[f][offset:offset + length],
                       f"read_range {inp.paths[f]}@{offset}")


def finish(state: State, rec: Recorder) -> dict:
    sizes = [len(c) for c in state.inputs.contents]
    stored = expected = 0
    for mode in MODES:
        stored += stored_bytes(state.roots[mode])
        expected += expected_stored_bytes(sizes, 1, mode)
    rec.verify(stored == expected, f"stored {stored} B, size law says {expected} B")
    return {"space_amp": stored / (len(MODES) * sum(sizes))}


def named(rec: Recorder, finished: dict) -> list[tuple[str, float, str, int]]:
    out = []
    for mode in MODES:
        for direction in ("write", "read"):
            kind = f"{direction}.{mode.value}"
            out.append((f"{direction}_mbps.{mode.value}", rec.kind_mbps(kind), "MB/s", rec.count(kind)))
    out.append(("range_read_p50_us", rec.kind_p("range.sealed", 50), "us", rec.count("range.sealed")))
    return out


def close(state: State) -> None:
    for h in state.handles.values():
        h.lock()
