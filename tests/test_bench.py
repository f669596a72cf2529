"""Benchmark harness: corpus determinism, record shape, summaries, CSV."""

import errno
import io
import math
import os

import pytest

from sealvault import bench, vault
from sealvault.errors import EmptyInput, InvalidSpec, StorageFull, VerificationFailure

MiB = 1024 * 1024


class TestGenerateWorkload:
    def test_single_deterministic(self, tmp_path):
        spec = bench.Workload(bench.WorkloadKind.SINGLE, 2 * MiB, seed=7)
        m1 = bench.generate_workload(spec, tmp_path / "a")
        m2 = bench.generate_workload(spec, tmp_path / "b")
        assert [e.digest for e in m1.entries] == [e.digest for e in m2.entries]
        assert m1.total_bytes == 2 * MiB

    def test_seed_changes_content(self, tmp_path):
        base = bench.Workload(bench.WorkloadKind.SINGLE, MiB, seed=1)
        other = bench.Workload(bench.WorkloadKind.SINGLE, MiB, seed=2)
        d1 = bench.generate_workload(base, tmp_path / "a").entries[0].digest
        d2 = bench.generate_workload(other, tmp_path / "b").entries[0].digest
        assert d1 != d2

    def test_tree_count_and_total(self, tmp_path):
        spec = bench.Workload(bench.WorkloadKind.TREE, 3 * MiB, file_count=24, seed=3)
        manifest = bench.generate_workload(spec, tmp_path / "t")
        assert len(manifest.entries) == 24
        assert abs(manifest.total_bytes - 3 * MiB) <= 0.01 * 3 * MiB
        for entry in manifest.entries:
            assert bench.TREE_MIN_FILE <= entry.size <= bench.TREE_MAX_FILE
            assert (tmp_path / "t" / entry.relpath).stat().st_size == entry.size

    def test_tree_regenerate_and_compare(self, tmp_path):
        spec = bench.Workload(bench.WorkloadKind.TREE, 2 * MiB, file_count=12, seed=5)
        m1 = bench.generate_workload(spec, tmp_path / "a")
        m2 = bench.generate_workload(spec, tmp_path / "b")
        assert m1 == m2

    def test_zero_byte_spec_rejected(self, tmp_path):
        with pytest.raises(InvalidSpec):
            bench.generate_workload(
                bench.Workload(bench.WorkloadKind.SINGLE, 0), tmp_path
            )

    def test_impossible_tree_rejected(self, tmp_path):
        with pytest.raises(InvalidSpec):
            bench.generate_workload(
                bench.Workload(bench.WorkloadKind.TREE, 1024, file_count=10), tmp_path
            )

    def test_enospc_is_storage_full_and_leaves_no_partial_file(self, tmp_path, monkeypatch):
        real_open = open

        class FullDisk(io.FileIO):
            writes = 0

            def write(self, data):
                FullDisk.writes += 1
                if FullDisk.writes > 1:  # the first 8 MiB chunk fits; the rest does not
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        def fake_open(path, mode="r", *args, **kwargs):
            if mode == "wb":
                return FullDisk(path, "wb")
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(vault, "open", fake_open, raising=False)
        with pytest.raises(StorageFull):
            bench.generate_workload(
                bench.Workload(bench.WorkloadKind.SINGLE, 9 * MiB), tmp_path / "s"
            )
        monkeypatch.undo()
        assert FullDisk.writes == 2
        assert list((tmp_path / "s").iterdir()) == []


class TestRunBench:
    def test_single_record_case(self, tmp_path):
        records = bench.run_bench(
            [bench.BenchMode.PLAIN],
            [bench.Workload(bench.WorkloadKind.SINGLE, MiB)],
            directions=[bench.Direction.READ],
            repetitions=1,
            staging=tmp_path / "stage",
            workdir=tmp_path / "work",
        )
        assert len(records) == 1
        rec = records[0]
        assert rec.bytes == 1048576
        assert rec.seconds > 0 and math.isfinite(rec.seconds)
        assert rec.mbps > 0

    def test_matrix_cardinality_and_order(self, tmp_path):
        records = bench.run_bench(
            [bench.BenchMode.PLAIN, bench.BenchMode.V1],
            [bench.Workload(bench.WorkloadKind.SINGLE, 256 * 1024)],
            directions=[bench.Direction.READ, bench.Direction.WRITE],
            repetitions=3,
            staging=tmp_path / "stage",
            workdir=tmp_path / "work",
        )
        assert len(records) == 2 * 2 * 3
        reps = [r.rep for r in records]
        assert reps == [0, 1, 2] * 4  # execution order preserved

    def test_verification_failure_aborts(self):
        manifest = bench.Manifest(
            kind=bench.WorkloadKind.SINGLE,
            seed=0,
            total_bytes=3,
            entries=(bench.ManifestEntry("f", 3, "0" * 64),),
        )
        with pytest.raises(VerificationFailure):
            bench._verify(bench.BenchMode.PLAIN, manifest, [b"abc"])

    def test_bad_repetitions(self, tmp_path):
        with pytest.raises(InvalidSpec):
            bench.run_bench(
                [bench.BenchMode.PLAIN],
                [bench.Workload(bench.WorkloadKind.SINGLE, 1024)],
                repetitions=0,
                staging=tmp_path / "s",
                workdir=tmp_path / "w",
            )


def _record(mode, seconds, rep=0, nbytes=10**6):
    return bench.BenchRecord(
        mode, bench.WorkloadKind.SINGLE, bench.Direction.READ, rep, nbytes, seconds
    )


class TestSummarize:
    def test_identical_records_zero_sigma(self):
        records = [_record(bench.BenchMode.PLAIN, 0.5, rep=i) for i in range(10)]
        rows = bench.summarize(records)
        assert len(rows) == 1
        assert rows[0].stdev_mbps == 0.0
        assert rows[0].reps == 10

    def test_mean_of_two(self):
        # 10^6 bytes in 0.01 s -> 100 MB/s; in 0.005 s -> 200 MB/s
        records = [_record(bench.BenchMode.V1, 0.01), _record(bench.BenchMode.V1, 0.005, rep=1)]
        rows = bench.summarize(records)
        assert rows[0].mean_mbps == pytest.approx(150.0)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            bench.summarize([])
        with pytest.raises(EmptyInput):
            bench.write_csv([], "/dev/null")

    def test_one_row_per_cell(self):
        records = []
        for mode in bench.BenchMode:
            for direction in bench.Direction:
                for rep in range(2):
                    records.append(bench.BenchRecord(
                        mode, bench.WorkloadKind.TREE, direction, rep, 1000, 0.001
                    ))
        rows = bench.summarize(records)
        assert len(rows) == len(bench.BenchMode) * len(bench.Direction)


class TestCsv:
    def test_header_exact(self, tmp_path):
        bench.write_csv([_record(bench.BenchMode.PLAIN, 0.25)], tmp_path / "o.csv")
        lines = (tmp_path / "o.csv").read_text().splitlines()
        assert lines[0] == "mode,workload,direction,rep,bytes,seconds,mbps"
        assert len(lines) == 2

    def test_mbps_recomputable_within_one_percent(self, tmp_path):
        records = [_record(bench.BenchMode.SEALED, 0.123456, rep=i) for i in range(3)]
        bench.write_csv(records, tmp_path / "o.csv")
        for line in (tmp_path / "o.csv").read_text().splitlines()[1:]:
            _, _, _, _, nbytes, seconds, mbps = line.split(",")
            recomputed = int(nbytes) / 1e6 / float(seconds)
            assert abs(recomputed - float(mbps)) <= 0.01 * recomputed
