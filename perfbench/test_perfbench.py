"""Tests of the benchmark harness itself (not of specsing).

Run with: python -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_same_inputs():
    assert workloads.design_inputs(7) == workloads.design_inputs(7)
    assert workloads.curve_inputs(7) == workloads.curve_inputs(7)
    assert workloads.scan_inputs(7)[:2] == workloads.scan_inputs(7)[:2]
    assert [workloads.cli_order(7, c) for c in range(5)] == \
        [workloads.cli_order(7, c) for c in range(5)]
    assert workloads.design_inputs(7) != workloads.design_inputs(8)
    assert workloads.curve_inputs(7) != workloads.curve_inputs(8)


def test_same_seed_same_gain_scan_schedule():
    a, b = workloads.GainScan(3), workloads.GainScan(3)
    assert a.order == b.order and a.spans == b.spans
    assert [d[2] for d in a.designs] == [d[2] for d in b.designs]


def test_corrupted_table_reference_is_counted_as_failed(tmp_path, monkeypatch):
    shutil.copytree(os.path.join(HERE, "reference"), tmp_path, dirs_exist_ok=True)
    monkeypatch.setattr(worker, "REFERENCE", str(tmp_path))
    assert worker.table_checks()[1:3] == (0, [])

    with open(tmp_path / "tables.json") as fh:
        ref = json.load(fh)
    ref["2"]["designs"][3][1] *= 1 + 1e-8  # one wavelength, far beyond 1e-10
    with open(tmp_path / "tables.json", "w") as fh:
        json.dump(ref, fh)
    worst, failed, problems, attempted = worker.table_checks()
    assert (failed, attempted) == (1, 2)
    assert "table 2" in problems[0]
    assert worst < checks.TABLE_GATE  # the paper comparison itself still holds


def test_corrupted_cli_reference_is_a_problem():
    with open(os.path.join(HERE, "reference", "cli.json")) as fh:
        refs = json.load(fh)
    for name, sub in (("design_readme", "design"), ("curve_n3", "curve")):
        got = json.loads(json.dumps(refs[name]))
        assert checks.check_cli_output(sub, got, refs[name]) == []
        got["rows"][0][-1] *= 1 + 1e-9
        assert checks.check_cli_output(sub, got, refs[name])


def test_residual_check_rejects_a_non_singularity():
    import specsing
    point = specsing.solve_sigma(specsing.BranchLabel(n=1, eps=-1), 0.8)[0]
    assert checks.check_curve_points([point], 0.7, 0.9) == []
    moved = specsing.LocusPoint(rho=point.rho, sigma=point.sigma * (1 + 1e-6), y=point.y,
                                alpha_k=point.alpha_k, branch=point.branch,
                                residual=point.residual)
    assert checks.check_curve_points([moved], 0.7, 0.9)


def test_self_time_of_a_parent_with_two_children():
    # parent [0, 100] with children [10, 30] and [50, 60]
    assert tracing.self_times([1, 2, 3], [0, 1, 1], [0, 10, 50], [100, 30, 60]) == [70, 20, 10]


def test_profile_self_time_through_the_tracer():
    tracer = tracing.Tracer()
    child, parent = (tracer.intern(name, layer=name) for name in ("child", "parent"))
    # spans are recorded when they end: children first
    for row in ((2, 1, 1, child, 10, 30), (3, 1, 1, child, 50, 60), (1, 0, 1, parent, 0, 100)):
        for col, value in zip(tracing.COLUMNS, row):
            tracer.cols[col].append(value)
    tracer.next_id = 4
    stats = tracing.profile(tracer)["stats"]
    assert stats["child"] == [2, 30, 30]
    assert stats["parent"] == [1, 100, 70]


def test_missing_hooks_give_null_not_a_crash(monkeypatch):
    import specsing.locus
    monkeypatch.delattr(specsing.locus, "brentq")
    monkeypatch.setitem(sys.modules, "specsing.kernels", None)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    uninstall()
    metrics = tracing.layer_metrics(tracing.profile(tracer))
    for name in ("locus.polish.calls", "locus.polish.f_evals_per_root",
                 "kernels.f_grid.calls", "kernels.f_scalar.ms", "layer.kernels.self_share"):
        assert metrics[name] is None, name
    assert metrics["waveguide.polish.f_evals_per_root"] is None  # needs kernels.f_scalar
    assert metrics["waveguide.polish.calls"] == 0.0
    assert metrics["waveguide.find_singularities.calls"] == 0.0


def test_install_traces_the_boundaries_and_uninstall_restores():
    import specsing
    import specsing.locus
    original = (specsing.trace_curve, specsing.locus.brentq, specsing.locus.m22_residual)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.run_op(specsing.trace_curve, specsing.BranchLabel(n=1, eps=-1), 0.7, 0.9, 3)
    finally:
        uninstall()
    assert (specsing.trace_curve, specsing.locus.brentq, specsing.locus.m22_residual) == original
    metrics = tracing.layer_metrics(tracing.profile(tracer))
    assert metrics["locus.solve_sigma.calls"] == 3
    assert metrics["kernels.f_grid.calls"] == 3
    assert metrics["locus.certify.calls"] == metrics["locus.polish.calls"] > 0
    assert metrics["locus.certify.accept_ratio"] == 1.0
    assert metrics["waveguide.find_singularities.calls"] == 0.0


def test_benchmark_json_lists_only_metrics_the_harness_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    computed = set(tracing.layer_metrics(tracing.profile(tracing.Tracer())))
    run_level = {"import.interpreter_s", "import.numpy_s", "import.scipy_optimize_s",
                 "import.specsing_s", "import.scipy_loaded", "trace.overhead_ratio",
                 "check.known_defects_failing"}
    run_level |= {f"cli.{sub}_ms" for sub in ("transfer", "curve", "design", "scan", "tables")}
    assert {m["name"] for m in spec["per_layer"]} <= computed | run_level


@pytest.mark.parametrize("percentile,expected", [(50, (6.0, 4)), (90, (10.0, 0))])
def test_tail_has_the_stated_samples_beyond_it(percentile, expected):
    import run
    ns = [i * 1e6 for i in range(1, 11)]
    assert run.tail(ns, percentile) == expected


def test_op_metrics_drop_the_faster_half_of_each_inputs_repeats():
    import run
    deck = 4
    inputs = [i % deck for i in range(40)]
    slow = [(j + 1) * 2_000_000 for j in inputs]  # input j takes 2 (j + 1) ms
    ns = [t // 2 if 8 <= i < 24 else t for i, t in enumerate(slow)]  # 4 of 10 passes 2x faster
    stats, info = run.op_metrics(ns, [10] * len(ns), inputs, 70)
    assert stats["ops_per_s"] == deck / 0.020
    assert stats["results_per_s"] == 10 * deck / 0.020
    assert stats["op_p50_ms"] == 5.0
    assert stats["op_tail_ms"] == 6.0
    assert info == {"inputs": 4, "repeats": 10, "samples": 20, "beyond": 5}
