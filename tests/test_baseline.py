"""Tests for the perf regression gate: metric direction classification,
row identity, noise-aware confirmation (geomean + hard limit), the
injected-slowdown self-test, and the CLI exit codes."""

import json

import pytest

from repro.perf.baseline import (
    compare_artifacts,
    format_report,
    inject_slowdown,
    main as perfgate_main,
    metric_direction,
    row_key,
    run_gate,
    summarize_bench,
)
from repro.util.errors import PerfError


def artifact(name, rows):
    return {"schema": 1, "name": name, "rows": rows}


ROWS = [
    {"pool": "waitfree", "threads": 1, "messages_per_s": 50_000.0,
     "us_per_message": 20.0, "mean_s": 0.02, "leaked_buffers": 0},
    {"pool": "locked", "threads": 4, "messages_per_s": 30_000.0,
     "us_per_message": 33.0, "mean_s": 0.03, "leaked_buffers": 0},
]


class TestClassification:
    def test_rates_are_higher_is_better(self):
        for name in ("messages_per_s", "cell_rays_per_s", "rays_per_s",
                     "speedup", "hit_rate"):
            assert metric_direction(name) == "higher"

    def test_times_are_lower_is_better(self):
        for name in ("mean_s", "us_per_message", "latency_p99",
                     "solve_seconds"):
            assert metric_direction(name) == "lower"

    def test_identity_columns_have_no_direction(self):
        for name in ("pool", "threads", "patch", "leaked_buffers"):
            assert metric_direction(name) is None

    def test_row_key_uses_strings_and_parameter_ints(self):
        key = dict(row_key(ROWS[0]))
        assert key == {"pool": "waitfree", "threads": 1, "leaked_buffers": 0}


class TestCompare:
    def test_identical_artifacts_are_all_ok(self):
        cmp = compare_artifacts(artifact("b", ROWS), artifact("b", ROWS))
        real = [c for c in cmp if c["status"] not in ("skipped", "new-row")]
        assert real and all(c["status"] == "ok" for c in real)
        assert all(c["slowdown"] == pytest.approx(1.0) for c in real)

    def test_slower_current_is_suspect_both_directions(self):
        slowed = inject_slowdown(artifact("b", ROWS), 3.0)
        cmp = compare_artifacts(artifact("b", ROWS), slowed, tolerance=2.5)
        by_metric = {c["metric"]: c for c in cmp
                     if c["row"]["pool"] == "waitfree"}
        assert by_metric["mean_s"]["status"] == "suspect"
        assert by_metric["mean_s"]["slowdown"] == pytest.approx(3.0)
        assert by_metric["messages_per_s"]["status"] == "suspect"
        assert by_metric["messages_per_s"]["slowdown"] == pytest.approx(3.0)

    def test_unmatched_row_reported_not_compared(self):
        other = artifact("b", [dict(ROWS[0], pool="brand-new")])
        cmp = compare_artifacts(artifact("b", ROWS), other)
        assert [c["status"] for c in cmp] == ["new-row"]

    def test_tolerance_must_exceed_one(self):
        with pytest.raises(PerfError):
            compare_artifacts(artifact("b", ROWS), artifact("b", ROWS),
                              tolerance=1.0)

    def test_inject_slowdown_rejects_nonpositive(self):
        with pytest.raises(PerfError):
            inject_slowdown(artifact("b", ROWS), 0.0)


class TestConfirmation:
    def test_one_noisy_row_does_not_confirm(self):
        noisy = json.loads(json.dumps(ROWS))
        noisy[0]["mean_s"] *= 2.9  # single jittery metric
        cmp = compare_artifacts(artifact("b", ROWS), artifact("b", noisy))
        verdict = summarize_bench("b", cmp)
        assert verdict["suspects"] == 1
        assert not verdict["confirmed_regression"]

    def test_uniform_slowdown_confirms_via_geomean(self):
        slowed = inject_slowdown(artifact("b", ROWS), 3.0)
        cmp = compare_artifacts(artifact("b", ROWS), slowed)
        verdict = summarize_bench("b", cmp)
        assert verdict["geomean_slowdown"] == pytest.approx(3.0)
        assert verdict["confirmed_regression"]

    def test_catastrophic_single_metric_trips_hard_limit(self):
        bad = json.loads(json.dumps(ROWS))
        bad[0]["mean_s"] *= 10.0
        cmp = compare_artifacts(artifact("b", ROWS), artifact("b", bad))
        verdict = summarize_bench("b", cmp, hard_limit=6.0)
        assert verdict["geomean_slowdown"] < 2.5
        assert verdict["confirmed_regression"]

    def test_the_worst_slowdown_names_its_row_and_metric(self):
        slower = json.loads(json.dumps(ROWS))
        slower[1]["us_per_message"] *= 1.5
        slower[0]["mean_s"] *= 1.2
        cmp = compare_artifacts(artifact("b", ROWS), artifact("b", slower))
        verdict = summarize_bench("b", cmp)
        assert verdict["worst_slowdown"] == pytest.approx(1.5)
        assert verdict["worst_row"] == {"leaked_buffers": 0, "pool": "locked", "threads": 4}
        assert verdict["worst_metric"] == "us_per_message"
        assert not verdict["confirmed_regression"]


@pytest.fixture
def gate_dirs(tmp_path):
    baseline_dir = tmp_path / "baselines"
    current_dir = tmp_path / "fresh"
    baseline_dir.mkdir()
    current_dir.mkdir()
    for d in (baseline_dir, current_dir):
        (d / "BENCH_demo.json").write_text(
            json.dumps(artifact("demo", ROWS))
        )
    return baseline_dir, current_dir


class TestRunGate:
    def test_clean_tree_passes_and_writes_report(self, gate_dirs, tmp_path):
        baseline_dir, current_dir = gate_dirs
        out = tmp_path / "regression_report.json"
        report = run_gate(current_dir, baseline_dir, out_path=out)
        assert report["passed"]
        assert json.loads(out.read_text())["passed"]

    def test_injected_slowdown_fails(self, gate_dirs):
        baseline_dir, current_dir = gate_dirs
        report = run_gate(current_dir, baseline_dir, slowdown=3.0)
        assert not report["passed"]
        assert report["regressions"][0]["bench"] == "demo"

    def test_missing_fresh_artifact_fails(self, gate_dirs):
        baseline_dir, current_dir = gate_dirs
        (current_dir / "BENCH_demo.json").unlink()
        report = run_gate(current_dir, baseline_dir)
        assert not report["passed"]
        assert report["missing_artifacts"] == ["BENCH_demo.json"]

    def test_no_baselines_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(PerfError):
            run_gate(tmp_path, tmp_path / "empty")

    def test_format_report_mentions_verdicts(self, gate_dirs):
        baseline_dir, current_dir = gate_dirs
        text = format_report(run_gate(current_dir, baseline_dir, slowdown=3.0))
        assert "FAIL" in text and "REGRESSION" in text
        assert "geomean" in text

    def test_format_report_names_the_worst_row_and_metric(self, gate_dirs):
        baseline_dir, current_dir = gate_dirs
        slower = json.loads(json.dumps(ROWS))
        slower[0]["us_per_message"] *= 1.5
        (current_dir / "BENCH_demo.json").write_text(json.dumps(artifact("demo", slower)))
        text = format_report(run_gate(current_dir, baseline_dir))
        assert "worst 1.50x (us_per_message [leaked_buffers=0 pool=waitfree threads=1])" in text, text


class TestCli:
    def test_pass_and_fail_exit_codes(self, gate_dirs, tmp_path):
        baseline_dir, current_dir = gate_dirs
        base = ["--bench-dir", str(current_dir),
                "--baseline-dir", str(baseline_dir),
                "--out", str(tmp_path / "rr.json")]
        assert perfgate_main(base) == 0
        assert perfgate_main(base + ["--inject-slowdown", "3"]) == 1

    def test_expect_regression_inverts(self, gate_dirs, tmp_path):
        baseline_dir, current_dir = gate_dirs
        base = ["--bench-dir", str(current_dir),
                "--baseline-dir", str(baseline_dir),
                "--out", str(tmp_path / "rr.json"), "--expect-regression"]
        assert perfgate_main(base + ["--inject-slowdown", "3"]) == 0
        assert perfgate_main(base) == 1

    def test_module_dispatch(self, gate_dirs, tmp_path, capsys):
        from repro.__main__ import main

        baseline_dir, current_dir = gate_dirs
        rc = main(["perfgate", "--bench-dir", str(current_dir),
                   "--baseline-dir", str(baseline_dir),
                   "--out", str(tmp_path / "rr.json")])
        assert rc == 0
        assert "perf gate: PASS" in capsys.readouterr().out
