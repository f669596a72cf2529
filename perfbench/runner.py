"""Set-up, timed loop, checks and reporting shared by every workload."""

from __future__ import annotations

import argparse
import ctypes
import json
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

from . import probes, tracing, wl_namespace, wl_stream, wl_sync
from .common import Recorder, end_to_end, machine_info

WORKLOADS = {"stream": wl_stream, "namespace": wl_namespace, "sync": wl_sync}
SETUP_REPEATS = 7  # setup_s is the median of these
WORK_DIR = ".bench_work"  # scratch, removed before the run exits
OUT_DIR = ".bench_out"    # per-run detail and span files


def pin_allocator() -> bool:
    """Keep glibc from returning large freed buffers to the kernel.

    By default every buffer above glibc's mmap threshold (128 KiB, rising
    to at most 32 MiB) is a fresh mapping whose pages the kernel zeroes on
    first touch. That cost follows the host's memory load, not the program.
    With both thresholds fixed high, freed buffers stay in the heap and are
    reused, and the copies the program makes are what is timed. glibc 2.36
    accepts both values; `mallinfo2().hblks` then stays flat when a 40 MiB
    buffer is allocated. Each threshold is set on its own, and a C library
    that has no mallopt or refuses a value is reported on standard error.
    Returns True when both were set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt  # the C library the interpreter runs on
    except (OSError, AttributeError):
        print("perfbench: no mallopt; allocator thresholds left at their defaults",
              file=sys.stderr)
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    refused = [name for name, param, value in (("M_MMAP_THRESHOLD", m_mmap_threshold, 1 << 30),
                                              ("M_TRIM_THRESHOLD", m_trim_threshold, 2 << 30))
               if mallopt(param, value) == 0]
    if refused:
        print(f"perfbench: mallopt refused {', '.join(refused)}; left at the default",
              file=sys.stderr)
    return not refused


def _loop(wl, state, recs: list[Recorder], seconds: float, tracer=None, index: int = 0) -> int:
    """Whole cycles from cycle `index` on until `seconds` have passed, handed
    to the recorders in turn; at least one each. With a tracer, it is
    installed for the cycles of the last recorder only, so traced and
    untraced cycles alternate and see the same drift in host speed. Returns
    the index of the next cycle."""
    deadline = time.perf_counter() + seconds
    while True:
        for rec in recs:
            if tracer is not None and rec is recs[-1]:
                with tracer.installed():
                    wl.cycle(state, rec, index)
            else:
                wl.cycle(state, rec, index)
            rec.end_cycle()
            index += 1
        if time.perf_counter() >= deadline:
            return index


def _excess(value: float, over: float) -> float:
    return value / over - 1 if over else 0.0


def _overhead(base: Recorder, traced: Recorder) -> dict:
    """How much slower the traced cycles ran than the untraced ones."""
    return {
        "trace.overhead.ops_per_s": (_excess(base.ops_per_s(), traced.ops_per_s()), "ratio"),
        "trace.overhead.mb_per_s": (_excess(base.mb_per_s(), traced.mb_per_s()), "ratio"),
        "trace.overhead.p50_us": (_excess(traced.p50_us(), base.p50_us()), "ratio"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 sizes: dict | None = None) -> dict:
    """Run one workload in a scratch directory under `root` and return its
    result. `sizes` maps workload names to their Sizes; the defaults are the
    benchmark's, smaller ones are for tests."""
    wl = WORKLOADS[name]
    sizes = sizes or {}
    work_root = root / WORK_DIR
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_info(root, work)}
    try:
        # the corpus is the benchmark's own work; set-up times the program only
        inputs = wl.make_inputs(seed, sizes.get(name, wl.Sizes()))
        setup_times = []

        def timed_setup(i: int):
            start = time.perf_counter_ns()
            state = wl.setup(work / f"setup{i}", inputs)
            setup_times.append((time.perf_counter_ns() - start) / 1e9)
            return state

        def loop(recs: list[Recorder], tracer=None) -> None:
            """The timed loop in SETUP_REPEATS slices with a throwaway set-up
            between each two, so set-up samples the host's speed over the
            whole run as the loop does, not just its first seconds."""
            cycle = 0
            for i in range(1, SETUP_REPEATS + 1):
                cycle = _loop(wl, state, recs, seconds / SETUP_REPEATS, tracer, cycle)
                if i < SETUP_REPEATS:
                    wl.close(timed_setup(i))
                    shutil.rmtree(work / f"setup{i}")

        state = timed_setup(0)
        try:
            if not trace:
                rec = Recorder()
                loop([rec])
                finished = wl.finish(state, rec)
                rec.end_cycle()
                checked = [rec]
                metrics = end_to_end(rec, setup_times, finished["space_amp"])
            else:
                tracer = tracing.Tracer()
                base, rec = Recorder(), Recorder(tracer)
                loop([base, rec], tracer)
                with tracer.installed():
                    finished = wl.finish(state, rec)
                rec.end_cycle()
                checked = [base, rec]
                layer = tracing.derive(tracer, rec.ops, rec.counters)
                layer.update(probes.run(work / "probes", seed, sizes.get("stream", wl_stream.Sizes()), rec))
                layer.update(_overhead(base, rec))
                metrics = {k: (v, unit, None) for k, (v, unit) in layer.items()}
        finally:
            wl.close(state)
        result["named"] = wl.named(rec, finished)
        result["metrics"] = metrics
        result["attempted"] = sum(r.attempted for r in checked)
        result["failed"] = sum(r.failed for r in checked)
        result["failures"] = [f for r in checked for f in r.failures]
        if trace:
            out = root / OUT_DIR
            out.mkdir(exist_ok=True)
            spans_path = out / f"{name}-seed{seed}-spans.json.gz"
            tracer.write(spans_path, rec.ops, {"workload": name, "seed": seed,
                                               "machine": result["machine"]})
            result["spans_file"] = str(spans_path.relative_to(root))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def _report(result: dict) -> list[str]:
    name = result["workload"]
    lines = [f"# {name} seed={result['seed']} trace={result['trace']} machine="
             + json.dumps(result["machine"], sort_keys=True)]
    for metric, value, unit, n in result["named"]:
        lines.append(f"{name}  {metric:<44} {value:>14.4f} {unit:<6} n={n}")
    for metric, (value, unit, n) in result["metrics"].items():
        count = f"n={n}" if n is not None else ""
        lines.append(f"{name}  {metric:<44} {value:>14.4f} {unit:<6} {count}")
    if "spans_file" in result:
        lines.append(f"# spans written to {result['spans_file']}")
    lines += [f"# FAILED: {f}" for f in result["failures"]]
    return lines


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pinned = pin_allocator()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        result["machine"]["malloc_pinned"] = pinned
        print("\n".join(_report(result)), flush=True)
        suffix = "-trace" if args.trace else ""
        (out / f"{name}-seed{args.seed}{suffix}.json").write_text(json.dumps(result, indent=1))
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit, _n) in result["metrics"].items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
