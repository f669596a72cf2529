"""Small-size tests of the benchmark itself: every workload runs and emits
every metric BENCHMARK.json names, corrupted outputs are caught, inputs
follow the seed, and spans and counters are attributed as documented.

Run with: python -m pytest perfbench/tests -q
"""

import json
import math
import time
from pathlib import Path

import pytest

from perfbench import runner, tracing, wl_namespace, wl_stream, wl_sync
from perfbench.common import FAILED, MIB, Recorder, log_uniform_sizes
from sealvault import sync, vault

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "stream": wl_stream.Sizes(files=2, min_bytes=40_000, max_bytes=100_000, range_reads=10),
    "namespace": wl_namespace.Sizes(files=40, dirs=12, ops_per_cycle=30),
    "sync": wl_sync.Sizes(objects=24, dirs=3, max_bytes=64 * 1024, changes=4),
}

NAMED = {
    "stream": {"write_mbps.v1", "read_mbps.v1", "write_mbps.sealed", "read_mbps.sealed",
               "range_read_p50_us"},
    "namespace": {"ns_read_p50_us", "ns_read_p99_us", "ns_write_p50_us", "ns_stat_p50_us",
                  "ns_list_p50_us", "space_amp", "audit_scan_s"},
    "sync": {"sync_noop_ms", "sync_push_ms", "sync_pull_ms"},
}


def _run(name, tmp_path, trace=False, seed=7):
    return runner.run_workload(name, seed, 0.2, trace, tmp_path, TINY)


def test_spec_names_the_workloads_the_runner_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(runner.WORKLOADS)


@pytest.mark.parametrize("name", list(runner.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = _run(name, tmp_path)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: unit for k, (_v, unit, _n) in result["metrics"].items()}
    assert got == spec
    assert all(v > 0 and math.isfinite(v) for v, _u, _n in result["metrics"].values())
    assert {m for m, *_ in result["named"]} | {"setup_s"} >= NAMED[name]
    assert not any((tmp_path / runner.WORK_DIR).iterdir()), "scratch left behind"


@pytest.mark.parametrize("name", list(runner.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    result = _run(name, tmp_path, trace=True)
    assert result["failed"] == 0, result["failures"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: unit for k, (_v, unit, _n) in result["metrics"].items()}
    assert got == spec
    assert all(math.isfinite(v) for v, _u, _n in result["metrics"].values())
    assert (tmp_path / result["spans_file"]).is_file()
    assert not any((tmp_path / runner.WORK_DIR).iterdir()), "scratch left behind"


@pytest.mark.parametrize("name", ["stream", "namespace"])
def test_flipped_stored_byte_is_counted_as_failure(name, tmp_path, monkeypatch):
    write_file = vault.VaultHandle.write_file

    def write_then_corrupt(self, path, content):
        stored = write_file(self, path, content)
        target = self.map_path(path)
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0x01
        target.write_bytes(bytes(raw))
        return stored

    monkeypatch.setattr(vault.VaultHandle, "write_file", write_then_corrupt)
    result = _run(name, tmp_path)
    assert result["failed"] > 0


def test_wrong_range_bytes_are_counted_as_failure(tmp_path, monkeypatch):
    read_range = vault.VaultHandle.read_range

    def off_by_one(self, path, offset, length):
        return read_range(self, path, offset + 1, length)

    monkeypatch.setattr(vault.VaultHandle, "read_range", off_by_one)
    result = _run("stream", tmp_path)
    assert result["failed"] > 0
    assert all("read_range" in f for f in result["failures"])


def test_dropped_remote_object_is_counted_as_failure(tmp_path, monkeypatch):
    real_sync = sync.sync

    def drop_one_before_replica_pull(root, store, state):
        if Path(root).name == "replica":
            key = next(k for k, _v, _s in store.list() if k.startswith(vault.DATA_DIR + "/"))
            store.delete(key)
        return real_sync(root, store, state)

    monkeypatch.setattr(sync, "sync", drop_one_before_replica_pull)
    result = _run("sync", tmp_path)
    assert result["failed"] > 0


def test_failed_check_makes_the_command_exit_nonzero(tmp_path, monkeypatch, capsys):
    def failing(name, seed, seconds, trace, root):
        return {"workload": name, "seed": seed, "trace": 0, "machine": {}, "named": [],
                "metrics": {"setup_s": (1.0, "s", 3)}, "attempted": 2, "failed": 1,
                "failures": ["read_file x"]}

    monkeypatch.setattr(runner, "run_workload", failing)
    code = runner.main(["--workload", "sync", "--seed", "1", "--seconds", "1"], tmp_path)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] == 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_same_seed_same_inputs_other_seed_other_inputs():
    def fingerprint(seed):
        s = wl_stream.make_inputs(seed, TINY["stream"])
        n = wl_namespace.make_inputs(seed, TINY["namespace"])
        y = wl_sync.make_inputs(seed, TINY["sync"])
        return (s.contents, s.range_plan(0), n.dirs, n.file_paths, n.contents, n.plan(0),
                y.paths, y.contents, y.changes(0))

    assert fingerprint(11) == fingerprint(11)
    assert fingerprint(11) != fingerprint(12)


def test_log_uniform_sizes_cover_the_range_evenly():
    sizes = log_uniform_sizes(300, 1024, MIB // 2)
    assert min(sizes) >= 1024 and max(sizes) <= MIB // 2
    # any 30 consecutive sizes hold about as many below the geometric middle as above
    middle = (1024 * MIB // 2) ** 0.5
    for start in range(0, 270, 30):
        assert 12 <= sum(s < middle for s in sizes[start:start + 30]) <= 18


def test_self_time_and_counters_follow_the_span_tree():
    tracer = tracing.Tracer()

    def inner():
        tracer.count("hashed", 5)
        time.sleep(0.002)

    inner_traced = tracer._wrap("modes.decrypt_block", inner, None)

    def outer():
        time.sleep(0.002)
        inner_traced()
        tracer.count("read", 3)

    outer_traced = tracer._wrap("vault.read_file", outer, None)
    tracer.op = 0
    outer_traced()
    tracer.op = None
    (o, i) = tracer.spans
    assert i[tracing.PARENT] == 0 and o[tracing.PARENT] == -1
    assert dict(tracer.counts) == {(1, "hashed"): 5, (0, "read"): 3}
    ops = [("read.v1", o[tracing.START], o[tracing.END], 1)]
    layer = tracing.derive(tracer, ops, {})
    outer_ns, inner_ns = o[2] - o[1], i[2] - i[1]
    assert layer["layer.vault.self_share"][0] == pytest.approx((outer_ns - inner_ns) / outer_ns)
    assert layer["layer.modes.self_share"][0] == pytest.approx(inner_ns / outer_ns)


def test_installed_tracer_restores_every_original():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in tracing.TARGETS]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(o, a) is not f for o, a, f in originals)
    assert all(getattr(o, a) is f for o, a, f in originals)


def test_traced_and_untraced_cycles_alternate(tmp_path):
    inputs = wl_namespace.make_inputs(3, TINY["namespace"])
    state = wl_namespace.setup(tmp_path / "v", inputs)
    tracer = tracing.Tracer()
    base, traced = Recorder(), Recorder(tracer)
    try:
        runner._loop(wl_namespace, state, [base, traced], 0.05, tracer)
    finally:
        wl_namespace.close(state)
    assert len(base.cycles) == len(traced.cycles) >= 1
    assert tracer.spans and all(s[tracing.OP] is None or s[tracing.OP] < len(traced.ops)
                                for s in tracer.spans)
    assert not tracer._saved, "tracer left installed"


def test_recorder_counts_a_raising_op_once():
    rec = Recorder()

    def boom():
        raise OSError("disk gone")

    assert rec.op("x", boom) is FAILED
    assert (rec.attempted, rec.failed, rec.count("x")) == (1, 1, 0)
