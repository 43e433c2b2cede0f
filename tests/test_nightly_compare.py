"""Tests for benchmarks/perf/compare_bench.py (the nightly perf gate)."""

import copy
import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "perf", "compare_bench.py"
)


@pytest.fixture(scope="module")
def compare_bench():
    spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def report():
    return {
        "schema": "repro-perf/4",
        "quick": False,
        "benchmarks": [
            {"name": "route.grid64.random2000", "wall_seconds": 0.25},
            {"name": "qasm.dump.medium", "wall_seconds": 0.001},
        ],
        "routing": {
            "bit_identical": True,
            "speedup": 8.0,
            "baseline_seconds": 2.0,
            "fast_seconds": 0.25,
        },
        "equivalence": {"bit_identical": True},
        "ir": {"conversions_per_compile": 2.0, "dag_builds_per_compile": 1.0},
        "qasm": {"bit_identical": True, "mismatches": []},
        "serve": {"bit_identical": True, "mismatches": []},
        "synth_batch": {
            "bit_identical": True,
            "mismatches": [],
            "speedup": 4.0,
            "scalar_seconds": 0.4,
            "batch_seconds": 0.1,
        },
    }


def test_self_check_passes_clean_report(compare_bench, report):
    assert compare_bench.self_check(report, "x") == []


def test_self_check_fails_on_bit_identity_mismatch(compare_bench, report):
    report["qasm"]["bit_identical"] = False
    failures = compare_bench.self_check(report, "x")
    assert any("qasm" in f for f in failures)


def test_self_check_fails_on_speedup_drift(compare_bench, report):
    # A stored speedup must equal the ratio of its own operand timings; a
    # hand-edited (or independently recomputed) number is caught here.
    report["routing"]["speedup"] = 6.8
    failures = compare_bench.self_check(report, "x")
    assert any("routing.speedup drifted" in f for f in failures)


def test_self_check_fails_on_missing_speedup_operands(compare_bench, report):
    del report["synth_batch"]["scalar_seconds"]
    failures = compare_bench.self_check(report, "x")
    assert any("synth_batch is missing" in f for f in failures)


def test_self_check_fails_on_extra_ir_conversions(compare_bench, report):
    # The shared IR converts in and out once per compile; a third conversion
    # means a pass boundary started re-marshalling the program.
    report["ir"]["conversions_per_compile"] = 3.0
    failures = compare_bench.self_check(report, "x")
    assert any("ir.conversions_per_compile" in f for f in failures)
    del report["ir"]["conversions_per_compile"]
    assert any("ir.conversions_per_compile" in f for f in compare_bench.self_check(report, "x"))


def test_compare_identical_reports_pass(compare_bench, report):
    failures, advisories = compare_bench.compare(report, copy.deepcopy(report))
    assert failures == []
    assert any("1.00x" in line for line in advisories)


def test_compare_hard_fails_on_schema_drift(compare_bench, report):
    fresh = copy.deepcopy(report)
    fresh["schema"] = "repro-perf/5"
    failures, _ = compare_bench.compare(report, fresh)
    assert any("schema drift" in f for f in failures)


def test_compare_hard_fails_on_quick_fresh_report(compare_bench, report):
    fresh = copy.deepcopy(report)
    fresh["quick"] = True
    failures, _ = compare_bench.compare(report, fresh)
    assert any("--quick" in f for f in failures)


def test_compare_flags_slowdowns_as_advisory_only(compare_bench, report):
    fresh = copy.deepcopy(report)
    fresh["benchmarks"][0]["wall_seconds"] = 10.0  # 40x slower
    failures, advisories = compare_bench.compare(report, fresh)
    assert failures == []  # wall clock never hard-fails by default
    assert any(line.endswith("<-- slower") for line in advisories)


def test_compare_reports_missing_and_new_benchmarks(compare_bench, report):
    fresh = copy.deepcopy(report)
    fresh["benchmarks"] = [
        {"name": "route.grid64.random2000", "wall_seconds": 0.25},
        {"name": "brand.new", "wall_seconds": 0.1},
    ]
    failures, advisories = compare_bench.compare(report, fresh)
    assert failures == []
    assert any("missing from the fresh report" in line for line in advisories)
    assert any("new benchmark" in line for line in advisories)


def test_compare_fails_when_gated_section_disappears(compare_bench, report):
    fresh = copy.deepcopy(report)
    fresh["ir"] = None
    failures, _ = compare_bench.compare(report, fresh)
    assert any("ir: section disappeared" in f for f in failures)


def test_main_self_check_and_diff_modes(compare_bench, report, tmp_path, capsys):
    committed = tmp_path / "BENCH_perf.json"
    fresh = tmp_path / "BENCH_nightly.json"
    committed.write_text(json.dumps(report))
    fresh.write_text(json.dumps(report))

    assert compare_bench.main([str(committed), "--self-check"]) == 0
    assert compare_bench.main([str(committed), str(fresh)]) == 0
    capsys.readouterr()

    broken = dict(report, routing={"bit_identical": False})
    fresh.write_text(json.dumps(broken))
    assert compare_bench.main([str(committed), str(fresh)]) == 1
    out = capsys.readouterr().out
    assert "hard checks FAILED" in out


def test_main_strict_timing_turns_slowdowns_into_failures(compare_bench, report, tmp_path, capsys):
    committed = tmp_path / "a.json"
    fresh = tmp_path / "b.json"
    committed.write_text(json.dumps(report))
    slow = copy.deepcopy(report)
    slow["benchmarks"][0]["wall_seconds"] = 10.0
    fresh.write_text(json.dumps(slow))
    assert compare_bench.main([str(committed), str(fresh)]) == 0
    assert compare_bench.main([str(committed), str(fresh), "--strict-timing"]) == 1


def test_committed_bench_report_is_full_mode_and_self_checks(compare_bench):
    # The checked-in BENCH_perf.json is the nightly baseline: it must be a
    # full-mode report of the current schema with all bit-identity gates
    # green, or the nightly diff job starts from a broken anchor.
    path = os.path.join(os.path.dirname(_SCRIPT), "..", "..", "BENCH_perf.json")
    committed = compare_bench.load_report(path)
    assert committed["quick"] is False
    from repro.perf.harness import SCHEMA_VERSION

    assert committed["schema"] == SCHEMA_VERSION
    assert compare_bench.self_check(committed, "committed") == []
    assert committed.get("qasm") is not None
    assert committed.get("serve") is not None
