"""The repository benchmark: two-pass NeRFlex runs, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scene4-inline --seed 0 --seconds 20 --trace 0

Each *unit* is one fresh interpreter (``bench_unit.py``) that generates the
workload's dataset, then runs ``NeRFlexPipeline.run`` as a cold pass for
iPhone 13 over an empty on-disk artifact store and render cache, and as a
warm pass for Pixel 4 through a fresh store over the same directory (two
warm passes, each forked from the post-cold state; median reported).
Units repeat until ``--seconds`` of measuring have passed (at least one);
set-up is additionally sampled in set-up-only interpreters until there are
:data:`SETUP_SAMPLES` samples.  Reported values are medians over units.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
library's layers from outside (``bench_trace.py``) and prints the
per-layer metrics.  Every unit's outputs are checked (memory budget,
warm profiles served from disk and bit-identical, outputs identical across
runs of the same code and seed); a failed check counts as a failed pass
and makes the command exit 1.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Records and span files land in ``perfbench/out/`` (git-ignored).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import bench_checks  # noqa: E402
import bench_workloads  # noqa: E402

#: Set-up samples per run (median reported).
SETUP_SAMPLES = 3
#: Upper bound on measured units per run, whatever ``--seconds`` says.
MAX_UNITS = 4
#: The whole command must finish within this many seconds.
DEADLINE_S = 175.0
#: Time kept free after the last unit for the set-up samples.
SETUP_RESERVE_S = 40.0

#: Per-layer metrics that include work done inside worker daemons (summed
#: over processes, so they can exceed wall-clock on a process backend).
WORKER_SUMMED = (
    "scenes.",
    "render.march",
    "render.trace",
    "render.gt_rays",
    "render.baked_rays",
    "render.hit_frac",
    "bake.",
)


def source_digest() -> str:
    """Digest of the library and benchmark sources: runs are compared only
    within one."""
    digest = hashlib.sha256()
    for top in (SRC, HERE):
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("out", "__pycache__"))
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def child_env() -> dict:
    """The environment of a measuring interpreter: no ``REPRO_*`` knobs, so
    the workload alone picks backend, kernel and store."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    # Worker frames carry their arrays inline on the socket, so nothing is
    # written to /dev/shm (outside the checkout).
    env["REPRO_TRANSPORT_SHM"] = "inline"
    return env


def stop_session(process) -> None:
    """Kill the child and every worker daemon in its session, and wait
    until the whole process group is gone."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    for _ in range(200):
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(args, work_dir: str, index: int, deadline: float, setup_only=False) -> dict:
    """Run one measuring interpreter; returns its result record."""
    unit_dir = os.path.join(work_dir, f"unit-{index}")
    os.makedirs(unit_dir)
    out = os.path.join(unit_dir, "result.json")
    command = [
        sys.executable,
        os.path.join(HERE, "bench_unit.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "0" if setup_only else str(args.trace),
        "--out", out,
        "--work-dir", unit_dir,
    ]
    if setup_only:
        command.append("--setup-only")
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), start_new_session=True,
        stdout=subprocess.DEVNULL,
    )
    try:
        process.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        pass
    finally:  # also on SIGTERM / Ctrl-C: never leave a unit running
        stop_session(process)
    if not os.path.exists(out):
        return {"error": f"measuring interpreter exited {process.returncode} without a result"}
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(unit: dict) -> dict:
    """End-to-end values of one unit (quality: mean over both passes;
    warm time: median over the unit's warm repeats)."""
    cold, warm = unit["passes"]["cold"], unit["passes"]["warm"]
    mean = lambda field: (cold[field] + warm[field]) / 2.0  # noqa: E731
    warm_runs = unit.get("warm_repeats") or [warm]
    return {
        "cold_run_s": cold["seconds"],
        "warm_run_s": statistics.median(record["seconds"] for record in warm_runs),
        "cold_bundle_s": cold["bundle_s"],
        "peak_rss_mb": unit["peak_rss_mb"],
        "ssim": mean("ssim"),
        "object_ssim": mean("object_ssim"),
        "lpips": mean("lpips"),
        "fps": mean("fps"),
    }


def per_layer(unit: dict) -> dict:
    """Per-layer values of one traced unit."""
    trace = unit["trace"]
    seconds, calls, counts = trace["seconds"], trace["calls"], trace["counts"]
    passes = unit["passes"].values()
    cache_hits = sum(p["render_cache"]["hits"] for p in passes)
    cache_requests = cache_hits + sum(p["render_cache"]["misses"] for p in passes)
    rays = counts.get("render.gt_rays", 0) + counts.get("render.baked_rays", 0)
    capacity = counts.get("exec.capacity_s", 0.0)
    values = {
        "core.segment_s": seconds.get("core.segment", 0.0),
        "core.profile_s": seconds.get("core.profile", 0.0),
        "core.select_s": seconds.get("core.select", 0.0),
        "core.bake_s": seconds.get("core.bake", 0.0),
        "core.deploy_s": seconds.get("core.deploy", 0.0),
        "scenes.sdf_s": seconds.get("scenes.sdf", 0.0),
        "scenes.sdf_points": counts.get("scenes.sdf_points", 0),
        "scenes.albedo_points": counts.get("scenes.albedo_points", 0),
        "render.gt_s": seconds.get("render.gt", 0.0),
        "render.gt_rays": counts.get("render.gt_rays", 0),
        "render.baked_s": seconds.get("render.baked", 0.0),
        "render.baked_rays": counts.get("render.baked_rays", 0),
        "render.hit_frac": counts.get("render.hit_rays", 0) / rays if rays else 0.0,
        "render.march_s": seconds.get("render.march", 0.0),
        "render.march_rays": counts.get("render.march_rays", 0),
        "render.trace_steps": counts.get("render.trace_steps", 0),
        "render.cache_hit_rate": cache_hits / cache_requests if cache_requests else 0.0,
        "bake.geometry_s": seconds.get("bake.geometry", 0.0),
        "bake.geometry_calls": calls.get("bake.geometry", 0),
        "store.put_s": seconds.get("store.put", 0.0),
        "store.encode_s": seconds.get("store.encode", 0.0),
        "store.bytes_written": counts.get("store.bytes_written", 0),
        "store.get_s": seconds.get("store.get", 0.0),
        "store.decode_s": seconds.get("store.decode", 0.0),
        "store.disk_hits": sum(p["store"]["disk_hits"] for p in passes),
        "exec.maps": calls.get("exec.map", 0),
        "exec.map_s": seconds.get("exec.map", 0.0),
        "exec.task_s": counts.get("exec.task_s", 0.0),
        "exec.idle_frac": 1.0 - counts.get("exec.task_s", 0.0) / capacity if capacity else 0.0,
        "exec.spawns": counts.get("exec.spawns", 0),
        "exec.registrations": counts.get("exec.registrations", 0),
        "exec.frames": counts.get("exec.frames", 0),
        "exec.frame_bytes": counts.get("exec.frame_bytes", 0),
    }
    return values


def median_metrics(per_unit: list, declared: list) -> dict:
    return {
        spec["name"]: {
            "value": statistics.median(values[spec["name"]] for values in per_unit),
            "unit": spec["unit"],
        }
        for spec in declared
    }


#: Environment fields that may differ between a traced run and the
#: untraced runs it is compared with.
RUN_FIELDS = ("seed", "warm_repeats")


def untraced_cold_runs(workload: str, digest: str, env: dict) -> list:
    """``cold_run_s`` of every untraced run of this code and workload on
    this machine and kernel recorded in ``out/`` (any seed: the seed only
    moves the scored test views)."""
    same = {k: v for k, v in env.items() if k not in RUN_FIELDS}
    values = []
    prefix = f"result-{workload}-seed"
    for name in sorted(os.listdir(OUT)):
        if not (name.startswith(prefix) and name.endswith("-trace0.json")):
            continue
        with open(os.path.join(OUT, name), encoding="utf-8") as handle:
            record = json.load(handle)
        other = {k: v for k, v in record.get("env", {}).items() if k not in RUN_FIELDS}
        if record.get("source") == digest and other == same and record.get("metrics"):
            values.append(record["metrics"]["cold_run_s"]["value"])
    return values


def check_fingerprints(args, digest: str, unit_failures: list, units: list) -> None:
    """Compare every pass with the first run of this code, workload and
    seed (recorded under ``out/``); adds failures to ``unit_failures``."""
    path = os.path.join(OUT, f"fingerprint-{args.workload}-seed{args.seed}-{digest}.json")
    reference = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            reference = json.load(handle)
    for unit, failures in zip(units, unit_failures):
        for name, record in unit.get("passes", {}).items():
            current = bench_checks.fingerprint([record])
            expected = reference.setdefault(name, current)
            failures[name].extend(bench_checks.check_identical([expected, current]))
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(reference, handle)
    os.replace(temp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="NeRFlex two-pass benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running unit is stopped on the way out.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    started = time.perf_counter()
    deadline = started + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    digest = source_digest()
    work_dir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT)
    try:
        units = []
        while len(units) < MAX_UNITS:
            unit_start = time.perf_counter()
            units.append(run_child(args, work_dir, len(units), deadline))
            now = time.perf_counter()
            if "error" in units[-1] or now - started >= args.seconds:
                break
            if now + 2.0 * (now - unit_start) > deadline - SETUP_RESERVE_S:
                break  # another unit might not finish before the deadline
        setups = [unit["setup_s"] for unit in units if "setup_s" in unit]
        setup_runs, setup_errors = 0, []
        if not args.trace:
            while len(setups) < SETUP_SAMPLES and "error" not in units[-1]:
                setup_runs += 1
                sample = run_child(
                    args, work_dir, len(units) + setup_runs, deadline, setup_only=True
                )
                if "setup_s" not in sample:
                    setup_errors.append(sample.get("error", "set-up failed"))
                    break
                setups.append(sample["setup_s"])
        spans_file = None
        for unit in units:
            if unit.get("trace_file"):
                spans_file = os.path.join(
                    OUT, f"spans-{args.workload}-seed{args.seed}.json"
                )
                shutil.copyfile(unit["trace_file"], spans_file)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # -- checks ---------------------------------------------------------------
    unit_failures = [bench_checks.check_unit(unit) for unit in units]
    check_fingerprints(args, digest, unit_failures, units)
    complete = [unit for unit in units if "error" not in unit]
    attempted = 2 * len(units) + setup_runs
    failed = len(setup_errors) + sum(
        1 for failures in unit_failures for found in failures.values() if found
    )

    metrics = {}
    if complete:
        if args.trace:
            metrics = median_metrics([per_layer(unit) for unit in complete], declared)
        else:
            values = [end_to_end(unit) for unit in complete]
            for value in values:
                value["setup_s"] = statistics.median(setups)
            metrics = median_metrics(values, declared)
    name_failures = bench_checks.check_metric_names(metrics, declared) if complete else []
    if name_failures:
        failed = attempted

    # -- report ---------------------------------------------------------------
    env = complete[0]["env"] if complete else {}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)} setup_samples={len(setups)} source={digest}")
    print("env: " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    directions = {s["name"]: s["better"] for s in declared}
    worker_dumps = None
    if args.trace and complete:
        trace = complete[0]["trace"]
        worker_dumps = (trace["worker_dumps"], int(trace["counts"].get("exec.spawns", 0)))
    for name, value in metrics.items():
        note = ""
        if name.startswith("exec.") and args.trace and not metrics["exec.maps"]["value"]:
            note = "  [no worker maps: in-process backend]"
        if worker_dumps and worker_dumps[1] and name.startswith(WORKER_SUMMED):
            dumps, spawns = worker_dumps
            note = (f"  [parent + {dumps} worker daemons, summed]" if dumps >= spawns
                    else f"  [partial: {dumps} of {spawns} daemons reported; "
                         "worker side not fully measured]")
        print(f"  {name:<24} {value['value']:>16.6g} {value['unit']:<6} "
              f"({directions[name]} is better){note}")
    overhead = None
    if args.trace and complete:
        reconcile = complete[0]["reconcile"]
        uncovered = reconcile["cold_pass_s"] - reconcile["cold_stages_s"]
        print(f"reconcile: core.* stage spans {reconcile['cold_stages_s']:.4f} s of the "
              f"cold pass span {reconcile['cold_pass_s']:.4f} s "
              f"({uncovered * 1e3:.2f} ms outside any stage)")
        traced_cold = statistics.median(u["passes"]["cold"]["seconds"] for u in complete)
        untraced = untraced_cold_runs(args.workload, digest, env)
        if untraced:
            base = statistics.median(untraced)
            overhead = traced_cold / base - 1.0
            print(f"tracing overhead: cold_run_s {traced_cold:.3f} s traced vs median "
                  f"{base:.3f} s of {len(untraced)} untraced runs ({overhead:+.1%})")
        else:
            print("tracing overhead: not measured (no untraced run of this code, "
                  "workload and environment in perfbench/out)")
        if spans_file:
            print(f"spans: {os.path.relpath(spans_file, ROOT)}")
    for index, failures in enumerate(unit_failures):
        for name, found in failures.items():
            for failure in found:
                print(f"FAILED unit {index} {name}: {failure}")
    for failure in setup_errors:
        print(f"FAILED set-up: {failure}")
    for failure in name_failures:
        print(f"FAILED metrics: {failure}")
    correct = failed == 0 and bool(complete)
    print(f"checks: {attempted} attempted ({2 * len(units)} passes, "
          f"{setup_runs} set-up runs), {failed} failed")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "source": digest,
        "env": env,
        "setup_samples": setups,
        "units": [
            {k: v for k, v in unit.items() if k not in ("trace_file",)} for unit in units
        ],
        "metrics": metrics,
        "failures": unit_failures,
        "setup_errors": setup_errors,
        "tracing_overhead": overhead,
        "correct": correct,
    }
    with open(os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=repr)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
