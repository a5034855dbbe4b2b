"""Self-tests of the benchmark (fast; the full workloads are not run here).

* the metric names and units the runner emits match ``BENCHMARK.json``;
* the tracer's outermost-call guard and self-time arithmetic;
* every correctness check fires on a doctored report.
"""

from __future__ import annotations

import copy
import json
import os
import re

import numpy as np
import pytest

import bench_checks
import bench_trace
import bench_unit
import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def _pass(device="iPhone 13", budget=240.0, size=200.0):
    return {
        "device": device,
        "budget_mb": budget,
        "seconds": 10.0,
        "bundle_s": 7.0,
        "stage_seconds": {"deploy": 3.0},
        "loaded": True,
        "size_mb": size,
        "per_object_size_mb": {"a": size},
        "ssim": 0.9,
        "psnr": 30.0,
        "lpips": 0.01,
        "per_object_ssim": {"a": 0.8},
        "object_ssim": 0.8,
        "fps": 30.0,
        "assignments": {"a": [96, 2]},
        "num_sub_scenes": 1,
        "profile_states": ["s1"],
        "store": {
            "disk_hits": 1,
            "reuse_by_kind": {"profile": 1},
            "recompute_by_kind": {},
        },
        "render_cache": {"hits": 1, "misses": 3},
    }


def _unit():
    cold = _pass()
    cold["store"] = {"disk_hits": 0, "reuse_by_kind": {}, "recompute_by_kind": {"profile": 1}}
    warm = _pass(device="Pixel 4", budget=150.0, size=120.0)
    return {
        "setup_s": 5.0,
        "peak_rss_mb": 200.0,
        "passes": {"cold": cold, "warm": warm},
        "trace": {"seconds": {}, "calls": {}, "counts": {}, "worker_dumps": 0},
    }


# -- metric names -------------------------------------------------------------


def test_benchmark_file_is_well_formed(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.bench_workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_runner_emits_exactly_the_declared_metrics(spec):
    unit = _unit()
    end = run.end_to_end(unit)
    end["setup_s"] = unit["setup_s"]
    assert set(end) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.per_layer(unit)) == {m["name"] for m in spec["per_layer"]}
    emitted = run.median_metrics([end], spec["end_to_end"])
    assert bench_checks.check_metric_names(emitted, spec["end_to_end"]) == []


def test_metric_name_check_fires(spec):
    declared = spec["end_to_end"]
    emitted = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in declared}
    missing = dict(emitted)
    missing.pop("setup_s")
    assert bench_checks.check_metric_names(missing, declared)
    extra = dict(emitted, bogus={"value": 1.0, "unit": "s"})
    assert bench_checks.check_metric_names(extra, declared)
    wrong_unit = dict(emitted, setup_s={"value": 1.0, "unit": "ms"})
    assert bench_checks.check_metric_names(wrong_unit, declared)


# -- tracer -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "name": "root", "start": 0.0, "end": 10.0, "parent": None},
        # Two overlapping children (threads) covering [1, 5]; one sticking
        # out of the parent is clipped to [8, 10].
        {"id": 2, "name": "a", "start": 1.0, "end": 4.0, "parent": 1},
        {"id": 3, "name": "a", "start": 2.0, "end": 5.0, "parent": 1},
        {"id": 4, "name": "b", "start": 8.0, "end": 12.0, "parent": 1},
        {"id": 5, "name": "c", "start": 1.5, "end": 2.5, "parent": 2},
    ]
    totals = bench_trace.self_times(spans)
    assert totals["root"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert totals["a"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert totals["b"] == pytest.approx(4.0)
    assert totals["c"] == pytest.approx(1.0)
    assert bench_trace.child_seconds(spans, "root", "a") == pytest.approx((10.0, 6.0))


def test_outermost_call_guard_counts_nested_calls_once():
    class Engine:
        def views(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n if n <= 0 else self.inner(n - 1)

    tracer = bench_trace.Tracer()
    counted = []
    tracer.patch(Engine, "views", "render.gt")
    tracer.patch(Engine, "inner", "render.gt",
                 count=lambda t, args, kwargs, result, seconds: counted.append(args[1]))
    try:
        assert Engine().views(3) == 1
        assert Engine().inner(2) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls == {"render.gt": 2}
    assert counted == [2]  # only the outermost direct call of inner
    assert [s["parent"] for s in tracer.spans] == [None, None]
    assert Engine.views.__name__ == "views" and not hasattr(Engine.views, "__wrapped__")


def test_spans_nest_under_the_enclosing_call(tmp_path):
    tracer = bench_trace.Tracer()
    with tracer.span("pass.cold"):
        with tracer.span("core.profile"):
            pass
    path = tmp_path / "spans.json"
    tracer.write(str(path))
    payload = json.loads(path.read_text())
    outer, inner = sorted(payload["spans"], key=lambda s: s["id"])
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert set(payload["self_seconds"]) == {"pass.cold", "core.profile"}


def test_worker_dumps_are_summed(tmp_path):
    for pid, seconds in ((11, 1.5), (12, 2.0)):
        (tmp_path / f"worker-{pid}.json").write_text(json.dumps(
            {"seconds": {"scenes.sdf": seconds}, "calls": {"scenes.sdf": 1},
             "counts": {"scenes.sdf_points": 10}}
        ))
    merged, files = bench_trace.merge_worker_dumps(str(tmp_path))
    assert files == 2
    assert merged["seconds"]["scenes.sdf"] == pytest.approx(3.5)
    assert merged["counts"]["scenes.sdf_points"] == 20


def test_plain_state_ignores_numpy_types_but_not_values():
    numpy_state = (np.str_("chair"), (np.float64(0.25), np.array([1, 2])))
    python_state = ("chair", (0.25, [1, 2]))
    assert json.dumps(bench_unit.plain(numpy_state)) == json.dumps(
        bench_unit.plain(python_state)
    )
    assert json.dumps(bench_unit.plain((0.25 + 2 ** -40,))) != json.dumps(
        bench_unit.plain((0.25,))
    )


# -- correctness checks on doctored reports -----------------------------------


def test_a_sound_unit_passes_every_check():
    assert bench_checks.check_unit(_unit()) == {"cold": [], "warm": []}


@pytest.mark.parametrize(
    "doctor, failing_pass",
    [
        (lambda u: u["passes"]["cold"].update(loaded=False), "cold"),
        (lambda u: u["passes"]["warm"].update(size_mb=151.0), "warm"),
        (lambda u: u["passes"]["warm"]["store"].update(
            recompute_by_kind={"profile": 1}), "warm"),
        (lambda u: u["passes"]["warm"]["store"].update(reuse_by_kind={}), "warm"),
        (lambda u: u["passes"]["warm"]["store"].update(disk_hits=0), "warm"),
        (lambda u: u["passes"]["warm"].update(profile_states=["other"]), "warm"),
        (lambda u: u["passes"].pop("warm"), "warm"),
        (lambda u: u.update(error="Traceback: boom"), "warm"),
    ],
)
def test_checks_fire_on_a_doctored_report(doctor, failing_pass):
    unit = _unit()
    doctor(unit)
    failures = bench_checks.check_unit(unit)
    assert failures[failing_pass]
    other = "cold" if failing_pass == "warm" else "warm"
    assert failures[other] == []


def test_identity_check_fires_on_changed_quality():
    record = _pass()
    changed = copy.deepcopy(record)
    changed["ssim"] = np.nextafter(record["ssim"], 1.0)
    same = bench_checks.fingerprint([record])
    assert bench_checks.check_identical([same, bench_checks.fingerprint([copy.deepcopy(record)])]) == []
    assert bench_checks.check_identical([same, bench_checks.fingerprint([changed])])
    # Timings are not part of the fingerprint.
    timing = dict(record, seconds=99.0)
    assert bench_checks.fingerprint([timing]) == same


def test_warm_repeats_must_agree_and_report_their_median():
    unit = _unit()
    warm = unit["passes"]["warm"]
    unit["warm_repeats"] = [dict(warm, seconds=s) for s in (6.0, 4.0, 5.0)]
    assert bench_checks.check_unit(unit) == {"cold": [], "warm": []}
    assert run.end_to_end(unit)["warm_run_s"] == 5.0
    unit["warm_repeats"][2] = dict(warm, size_mb=warm["size_mb"] + 1.0)
    failures = bench_checks.check_unit(unit)
    assert failures["warm"] and failures["cold"] == []
