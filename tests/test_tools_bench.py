"""tools/check_bench.py: the perf-regression gate must pass honest runs
and demonstrably fail on injected regressions."""

import importlib.util
import json
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    pathlib.Path(__file__).resolve().parent.parent / "tools"
    / "check_bench.py")
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


BASELINE = {
    "results": [
        {
            "case": "flash-crowd",
            "code": "tornado-b",
            "receivers": 20000,
            "num_blocks": 64,
            "completion_rate": 1.0,
            "overhead_p50": 0.065,
            "overhead_p99": 0.175,
            "receivers_per_second": 14000.0,
            "seconds": 1.4,
        },
        {
            "case": "spray",
            "sender_pps": 120000,
            "packets": 4000,
        },
    ]
}


def write_pair(tmp_path, current_mutation=None):
    """Baseline and (optionally mutated) current dirs for main()."""
    base_dir = tmp_path / "baseline"
    cur_dir = tmp_path / "current"
    base_dir.mkdir()
    cur_dir.mkdir()
    (base_dir / "BENCH_x.json").write_text(json.dumps(BASELINE))
    current = json.loads(json.dumps(BASELINE))
    if current_mutation is not None:
        current_mutation(current)
    (cur_dir / "BENCH_x.json").write_text(json.dumps(current))
    return ["--baseline-dir", str(base_dir), "--current-dir", str(cur_dir)]


class TestMetricRules:
    def test_config_drift_fails(self):
        assert check_bench.compare_metric("num_blocks", 64, 32) is not None
        assert check_bench.compare_metric("code", "tornado-b", "lt") \
            is not None
        assert check_bench.compare_metric("num_blocks", 64, 64) is None

    def test_overhead_gates_worse_direction_only(self):
        assert check_bench.compare_metric("overhead_p99", 0.10, 0.30) \
            is not None
        assert check_bench.compare_metric("overhead_p99", 0.10, 0.12) is None
        # improvement never fails
        assert check_bench.compare_metric("overhead_p99", 0.10, 0.01) is None

    def test_completion_rate_gates_drops(self):
        assert check_bench.compare_metric("completion_rate", 1.0, 0.9) \
            is not None
        assert check_bench.compare_metric("completion_rate", 1.0, 0.99) \
            is None

    def test_timing_allows_wobble_gates_collapse(self):
        assert check_bench.compare_metric("seconds", 1.0, 3.0) is None
        assert check_bench.compare_metric("seconds", 1.0, 5.0) is not None
        assert check_bench.compare_metric("receivers_per_second",
                                          10000.0, 4000.0) is None
        assert check_bench.compare_metric("receivers_per_second",
                                          10000.0, 2000.0) is not None

    def test_non_numeric_current_fails(self):
        assert check_bench.compare_metric("seconds", 1.0, "fast") \
            is not None

    def test_batched_ingest_speedup_has_absolute_floor(self):
        # Below the 4x floor fails even when it beats the baseline.
        assert check_bench.compare_metric(
            "batched_ingest_speedup", 3.0, 3.5) is not None
        assert check_bench.compare_metric(
            "batched_ingest_speedup", 6.5, 4.2) is None
        # The relative factor still guards collapse above the floor.
        assert check_bench.compare_metric(
            "batched_ingest_speedup", 12.0, 5.0) is not None


class TestCompare:
    def test_identical_passes(self, tmp_path, capsys):
        assert check_bench.main(write_pair(tmp_path)) == 0
        assert "pass the perf gate" in capsys.readouterr().out

    def test_injected_overhead_regression_fails(self, tmp_path, capsys):
        def worsen(payload):
            payload["results"][0]["overhead_p99"] = 0.5

        assert check_bench.main(write_pair(tmp_path, worsen)) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "overhead_p99" in out

    def test_throughput_collapse_fails(self, tmp_path):
        def collapse(payload):
            payload["results"][0]["receivers_per_second"] = 1000.0

        assert check_bench.main(write_pair(tmp_path, collapse)) == 1

    def test_timing_wobble_passes(self, tmp_path):
        def wobble(payload):
            payload["results"][0]["seconds"] = 2.8
            payload["results"][0]["receivers_per_second"] = 5000.0

        assert check_bench.main(write_pair(tmp_path, wobble)) == 0

    def test_missing_case_fails(self, tmp_path, capsys):
        def drop(payload):
            payload["results"] = payload["results"][:1]

        assert check_bench.main(write_pair(tmp_path, drop)) == 1
        assert "case missing" in capsys.readouterr().out

    def test_missing_metric_fails(self, tmp_path, capsys):
        def drop(payload):
            del payload["results"][0]["overhead_p50"]

        assert check_bench.main(write_pair(tmp_path, drop)) == 1
        assert "metric missing" in capsys.readouterr().out

    def test_new_case_and_metric_pass_with_note(self, tmp_path, capsys):
        def extend(payload):
            payload["results"][0]["overhead_p999"] = 0.4
            payload["results"].append({"case": "brand-new", "seconds": 1.0})

        assert check_bench.main(write_pair(tmp_path, extend)) == 0
        out = capsys.readouterr().out
        assert "new metric" in out and "new case" in out

    def test_config_drift_fails_gate(self, tmp_path, capsys):
        def drift(payload):
            payload["results"][0]["receivers"] = 10000

        assert check_bench.main(write_pair(tmp_path, drift)) == 1
        assert "configuration drift" in capsys.readouterr().out

    def test_no_summaries_errors(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SystemExit):
            check_bench.main(["--baseline-dir", str(tmp_path),
                              "--current-dir", str(tmp_path / "empty")])


def swarm_payload(raptor_p99=0.18, lt_p50=0.19):
    return {"results": [
        {"case": "mobile-traces", "overhead_p50": lt_p50},
        {"case": "raptor-traces", "overhead_p99": raptor_p99},
    ]}


class TestCrossCase:
    def test_holding_claim_passes(self):
        assert check_bench.check_cross_cases(
            "BENCH_swarm.json", swarm_payload()) == []

    def test_raptor_p99_above_lt_median_fails(self):
        regressions = check_bench.check_cross_cases(
            "BENCH_swarm.json", swarm_payload(raptor_p99=0.25))
        assert len(regressions) == 1
        assert "undercut the LT median" in str(regressions[0])
        assert "raptor-traces" in str(regressions[0])

    def test_rules_only_fire_for_their_file(self):
        # The same payload under another name carries no raptor claim.
        assert check_bench.check_cross_cases(
            "BENCH_other.json", swarm_payload(raptor_p99=0.9)) == []

    def test_missing_case_or_metric_fails(self):
        gone = {"results": [{"case": "mobile-traces", "overhead_p50": 0.2}]}
        regressions = check_bench.check_cross_cases(
            "BENCH_swarm.json", gone)
        assert len(regressions) == 1
        assert "cross-case rule needs this metric" in str(regressions[0])

        unmetric = swarm_payload()
        del unmetric["results"][0]["overhead_p50"]
        assert len(check_bench.check_cross_cases(
            "BENCH_swarm.json", unmetric)) == 1

    def test_decode_throughput_ratio_fails_on_collapse(self):
        payload = {"results": [
            {"case": "raw-lt-k128", "decode_MBps_vectorized": 20.0,
             "decode_MBps_reference": 8.0,
             "encode_MBps_vectorized": 100.0},
            {"case": "raw-raptor-k128", "decode_MBps_vectorized": 1.0,
             "decode_MBps_reference": 4.0,
             "encode_MBps_vectorized": 80.0},
        ]}
        regressions = check_bench.check_cross_cases(
            "BENCH_transfer.json", payload)
        assert len(regressions) == 1
        assert "vectorized backend" in str(regressions[0])

    def test_raptor_encode_ratio_fails_on_collapse(self):
        payload = {"results": [
            {"case": "raw-lt-k128", "decode_MBps_vectorized": 20.0,
             "decode_MBps_reference": 8.0,
             "encode_MBps_vectorized": 100.0},
            {"case": "raw-raptor-k128", "decode_MBps_vectorized": 10.0,
             "decode_MBps_reference": 4.0,
             "encode_MBps_vectorized": 30.0},
        ]}
        regressions = check_bench.check_cross_cases(
            "BENCH_transfer.json", payload)
        assert len(regressions) == 1
        assert "LT/2" in str(regressions[0])

    def test_case_floor_holds_and_fails(self):
        def transfer_payload(b1_speedup, raptor_mbps):
            return {"results": [
                {"case": "ingest-lt-k128-b1",
                 "ingest_speedup": b1_speedup},
                {"case": "raptor-bk128",
                 "throughput_MBps": raptor_mbps},
            ]}

        assert check_bench.check_case_floors(
            "BENCH_transfer.json", transfer_payload(1.4, 22.0)) == []
        regressions = check_bench.check_case_floors(
            "BENCH_transfer.json", transfer_payload(0.8, 22.0))
        assert len(regressions) == 1
        assert "batch-size-1" in str(regressions[0])
        regressions = check_bench.check_case_floors(
            "BENCH_transfer.json", transfer_payload(1.4, 12.0))
        assert len(regressions) == 1
        assert "cached-solve-plan" in str(regressions[0])
        # Floors are file-scoped, like the cross-case rules.
        assert check_bench.check_case_floors(
            "BENCH_other.json", transfer_payload(0.1, 0.1)) == []

    def test_case_floor_missing_metric_fails(self):
        payload = {"results": [{"case": "raptor-bk128", "seconds": 0.02}]}
        regressions = check_bench.check_case_floors(
            "BENCH_transfer.json", payload)
        assert len(regressions) == 2
        assert any("case floor needs this metric" in str(r)
                   for r in regressions)

    def test_cross_case_violation_fails_main(self, tmp_path, capsys):
        base_dir = tmp_path / "baseline"
        cur_dir = tmp_path / "current"
        base_dir.mkdir()
        cur_dir.mkdir()
        (base_dir / "BENCH_swarm.json").write_text(
            json.dumps(swarm_payload(raptor_p99=0.25)))
        (cur_dir / "BENCH_swarm.json").write_text(
            json.dumps(swarm_payload(raptor_p99=0.25)))
        # Identical baseline and current — only the cross-case claim
        # itself can (and must) fail the gate.
        assert check_bench.main(
            ["--baseline-dir", str(base_dir),
             "--current-dir", str(cur_dir)]) == 1
        assert "undercut the LT median" in capsys.readouterr().out


class TestAgainstCommittedBaselines:
    def test_committed_baselines_self_compare(self, capsys):
        """Every committed BENCH_*.json passes against itself via the
        directory path (sanity for the schemas the gate expects)."""
        root = check_bench.REPO_ROOT
        if not list(root.glob("BENCH_*.json")):
            pytest.skip("no committed benchmark summaries")
        assert check_bench.main(["--baseline-dir", str(root),
                                 "--current-dir", str(root)]) == 0


class TestBenchRecorder:
    """benchmarks/_results.py: a flush must not wipe other cases' rows."""

    def _results_module(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "bench_results_under_test",
            pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
            / "_results.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.REPO_ROOT = tmp_path
        return module

    def test_flush_merges_rows_by_case(self, tmp_path):
        results = self._results_module(tmp_path)
        path = tmp_path / "BENCH_t.json"
        path.write_text(json.dumps({"results": [
            {"case": "a", "x": 1}, {"case": "b", "x": 2}]}))
        recorder = results.BenchRecorder("BENCH_t.json")
        recorder.record("c", x=3)
        recorder.record("b", x=20)
        recorder.flush()
        assert json.loads(path.read_text())["results"] == [
            {"case": "a", "x": 1}, {"case": "b", "x": 20},
            {"case": "c", "x": 3}]

    def test_flush_creates_a_missing_file(self, tmp_path):
        results = self._results_module(tmp_path)
        recorder = results.BenchRecorder("BENCH_new.json")
        recorder.record("only", y=1.5)
        results.flush_all()
        assert json.loads((tmp_path / "BENCH_new.json").read_text()) == {
            "results": [{"case": "only", "y": 1.5}]}
        assert (tmp_path / results.RUNINFO_NAME).exists()
