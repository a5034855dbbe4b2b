"""One measuring interpreter: set-up, a cold pass and a warm pass.

Run by ``perfbench/run.py``, never imported by the library::

    python3 perfbench/bench_unit.py --workload scene4-inline --seed 0 \\
        --trace 0 --out result.json --work-dir DIR [--setup-only]

* set-up = library imports + dataset generation (timed from the top of
  this file);
* cold pass: ``NeRFlexPipeline.run`` for iPhone 13 over an empty on-disk
  artifact store and an empty render cache;
* warm pass: ``NeRFlexPipeline.run`` for Pixel 4 through a fresh
  ``ArtifactStore`` over the same directory (profiles come back from disk,
  bakes for changed assignments miss, deploy re-renders).

With ``--trace 1`` the layers are wrapped from outside (see
``bench_trace``) and a span file is written next to ``--out``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_workloads  # noqa: E402

#: Warm passes per unit, each forked from the post-cold state; the median
#: is reported.  (The cold pass runs once: it needs a fresh interpreter.)
WARM_REPEATS = 2


def _count_points(name):
    def count(tracer, args, kwargs, result, seconds):
        tracer.add(name, int(len(args[1])))

    return count


def _count_rays(name):
    def count(tracer, args, kwargs, result, seconds):
        tracer.add(name, int(args[2].shape[0]))
        tracer.add("render.hit_rays", int(result["hit"].sum()))

    return count


def _count_store_put(tracer, args, kwargs, result, seconds):
    store, key = args[0], args[1]
    if result:
        tracer.add("store.bytes_written", os.path.getsize(store.path_for(key)))


def _count_store_get(tracer, args, kwargs, result, seconds):
    if result is not None:
        tracer.add("store.get_hits", 1)


def _count_map(tracer, args, kwargs, result, seconds):
    host = args[0]
    report = result[1]
    tracer.add("exec.task_s", float(report.accepted_seconds))
    tracer.add("exec.spawns", int(report.spawned))
    tracer.add("exec.registrations", int(report.task_registered))
    tracer.add("exec.capacity_s", seconds * host.workers)


def _frame_bytes(message) -> int:
    """Computed payload of one frame: pickled control bytes plus the
    out-of-band array buffers (not measured on the socket)."""
    import pickle

    buffers = []
    control = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
    return len(control) + sum(buffer.raw().nbytes for buffer in buffers)


def _count_send(tracer, args, kwargs, result, seconds):
    if os.getpid() != tracer.root_pid:
        return  # scheduler side only
    tracer.add("exec.frames", 1)
    tracer.add("exec.frame_bytes", _frame_bytes(args[1]))


def _count_recv(tracer, args, kwargs, result, seconds):
    if os.getpid() != tracer.root_pid:
        return
    tracer.add("exec.frames", 1)
    tracer.add("exec.frame_bytes", _frame_bytes(result))


def _count_march(tracer, args, kwargs, result, seconds):
    tracer.add("render.march_rays", int(args[0].shape[0]))


def _count_advance(tracer, args, kwargs, result, seconds):
    tracer.add("render.trace_steps", int(args[2].size))


def install_layers(tracer, work_dir: str) -> None:
    """Wrap the public entry points of every measured layer."""
    import dataclasses

    import repro.baking.baked_model as baked_model
    import repro.core.pipeline as pipeline
    import repro.exec.persist as persist
    import repro.exec.transport as transport
    import repro.exec.worker as worker
    import repro.render.kernels.registry as registry
    from repro.render.engine import RenderEngine
    from repro.scenes.scene import PlacedObject

    cls = pipeline.NeRFlexPipeline
    for attr, key in (
        ("stage_segment", "core.segment"),
        ("stage_profile", "core.profile"),
        ("stage_select", "core.select"),
        ("bake", "core.bake"),
        ("stage_bake", "core.bake"),
        ("deploy", "core.deploy"),
    ):
        tracer.patch(cls, attr, key)

    tracer.patch(PlacedObject, "sdf", "scenes.sdf", spans=False,
                 count=_count_points("scenes.sdf_points"))
    tracer.patch(PlacedObject, "albedo", "scenes.albedo", spans=False,
                 count=_count_points("scenes.albedo_points"))

    for attr in ("render_scene", "render_scene_views"):
        tracer.patch(RenderEngine, attr, "render.gt")
    for attr in ("render_baked", "render_baked_views"):
        tracer.patch(RenderEngine, attr, "render.baked")
    tracer.patch(RenderEngine, "render_scene_rays", "render.gt_rays", spans=False,
                 count=_count_rays("render.gt_rays"))
    tracer.patch(RenderEngine, "render_baked_rays", "render.baked_rays", spans=False,
                 count=_count_rays("render.baked_rays"))

    # Kernel-registry entries: every registered kernel set gets traced
    # march/advance functions; the engine looks them up per chunk.
    for name, kernels in list(registry.KERNELS.items()):
        tracer.replace(registry.KERNELS, name, dataclasses.replace(
            kernels,
            march_occupancy=tracer.wrapper(
                kernels.march_occupancy, "render.march", spans=False, count=_count_march
            ),
            sphere_advance=tracer.wrapper(
                kernels.sphere_advance, "render.trace", spans=False, count=_count_advance
            ),
        ))

    tracer.patch_function([baked_model, pipeline], "bake_geometry", "bake.geometry")

    tracer.patch(persist.DiskArtifactStore, "put", "store.put", count=_count_store_put)
    tracer.patch(persist.DiskArtifactStore, "get", "store.get", count=_count_store_get)
    tracer.patch_function([persist], "encode_artifact", "store.encode")
    tracer.patch_function([persist], "decode_artifact", "store.decode")

    tracer.patch(worker.WorkerHost, "run", "exec.map", count=_count_map)
    tracer.patch(transport.Channel, "send", "exec.send", spans=False, count=_count_send)
    tracer.patch(transport.Channel, "recv", "exec.recv", spans=False, count=_count_recv)
    tracer.install_worker_dump(
        transport, work_dir, keep=lambda key: not key.startswith("exec.")
    )


def plain(value):
    """``value`` with numpy scalars, arrays and ``str`` subclasses turned into
    plain Python values, so equal states serialise identically (floats keep
    every digit: JSON writes their ``repr``)."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, str):
        return str(value)
    return value


def pass_record(device, seconds, preparation, report, store, cache_before, cache_after):
    """The JSON-able record of one pass (read by ``bench_checks``)."""
    per_object = {str(k): float(v) for k, v in report.per_object_ssim.items()}
    summary = store.stats_summary()
    summary.pop("disk", None)
    return {
        "device": device.name,
        "budget_mb": float(device.memory_budget_mb),
        "seconds": seconds,
        "bundle_s": seconds - float(report.stage_seconds.get("deploy", 0.0)),
        "stage_seconds": {k: float(v) for k, v in report.stage_seconds.items()},
        "transport": report.transport_name,
        "loaded": bool(report.loaded),
        "size_mb": float(report.size_mb),
        "per_object_size_mb": {
            str(k): float(v) for k, v in report.per_object_size_mb.items()
        },
        "ssim": float(report.ssim),
        "psnr": float(report.psnr),
        "lpips": float(report.lpips),
        "per_object_ssim": per_object,
        "object_ssim": sum(per_object.values()) / max(len(per_object), 1),
        "fps": float(report.average_fps),
        "assignments": {
            str(name): [int(c.granularity), int(c.patch_size)]
            for name, c in sorted(preparation.selection.assignments.items())
        },
        "num_sub_scenes": len(preparation.segmentation.sub_scenes),
        "profile_states": sorted(
            hashlib.sha256(
                json.dumps(plain(profile.state_tuple())).encode()
            ).hexdigest()
            for profile in preparation.profiles
        ),
        "store": summary,
        "render_cache": {
            "hits": cache_after[0] - cache_before[0],
            "misses": cache_after[1] - cache_before[1],
        },
    }


def run_pass(name, device, config, dataset, store_dir, tracer=None) -> dict:
    """One ``NeRFlexPipeline.run`` over a fresh store on ``store_dir``."""
    from repro.core.pipeline import NeRFlexPipeline
    from repro.exec import ArtifactStore, DiskArtifactStore
    from repro.render import default_cache

    cache = default_cache()
    store = ArtifactStore(disk=DiskArtifactStore(store_dir))
    pipeline = NeRFlexPipeline(device, config, artifacts=store)
    before = (cache.stats.hits, cache.stats.misses)
    span = tracer.span(f"pass.{name}") if tracer is not None else contextlib.nullcontext()
    try:
        with span:
            start = time.perf_counter()
            preparation, _, report = pipeline.run(dataset)
            seconds = time.perf_counter() - start
    finally:
        shutdown = getattr(pipeline.backend, "shutdown", None)
        if shutdown is not None:
            shutdown()
    after = (cache.stats.hits, cache.stats.misses)
    return pass_record(device, seconds, preparation, report, store, before, after)


def in_fork(fn, path: str) -> dict:
    """Run ``fn()`` in a forked child and return ``{"record": fn()}`` (or
    ``{"error": traceback}``), passed back through the file ``path``.

    The child starts from this process's exact state, so every warm repeat
    sees the same post-cold render cache and store contents.
    """
    from repro.exec.backends import shutdown_process_pools
    from repro.exec.worker import shutdown_worker_hosts

    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            payload = {"record": fn()}
            status = 0
        except BaseException:
            payload = {"error": traceback.format_exc()}
        try:
            shutdown_process_pools()
            shutdown_worker_hosts()
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        finally:
            os._exit(status)
    os.waitpid(pid, 0)
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError:
        return {"error": f"warm repeat process {pid} left no result"}
    finally:
        if os.path.exists(path):
            os.remove(path)


def run_unit(args, result: dict) -> None:
    """Measure one unit into ``result`` (filled as it goes, so a pass that
    raises leaves the earlier ones in place)."""
    from repro.device.models import IPHONE_13, PIXEL_4
    from repro.exec.arrayplane import plane_knob
    from repro.exec.backends import shutdown_process_pools
    from repro.exec.worker import shutdown_worker_hosts
    from repro.render import default_cache
    from repro.render.kernels import resolve_kernel_name
    import numpy

    tracer = None
    if args.trace:
        from bench_trace import Tracer

        tracer = Tracer()
        install_layers(tracer, args.work_dir)

    with tracer.span("setup") if tracer is not None else contextlib.nullcontext():
        dataset = bench_workloads.build_dataset(args.workload, args.seed)
    result["setup_s"] = time.perf_counter() - _START
    if args.setup_only:
        return

    config = bench_workloads.pipeline_config(args.workload)
    spec = bench_workloads.WORKLOADS[args.workload]
    result["env"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": resolve_kernel_name(config.kernel),
        "backend": spec["backend"],
        "workers": spec["workers"],
        "seed": args.seed,
        "frame_plane": plane_knob(),
    }
    default_cache().invalidate()
    store_dir = tempfile.mkdtemp(prefix="store-", dir=args.work_dir)
    passes = {}
    result["passes"] = passes
    # A traced run keeps one warm pass so its per-layer totals cover
    # exactly one cold and one warm pass.
    repeats = 1 if tracer is not None else WARM_REPEATS
    result["env"]["warm_repeats"] = repeats
    try:
        passes["cold"] = run_pass("cold", IPHONE_13, config, dataset, store_dir, tracer)
        result["env"]["transport"] = passes["cold"]["transport"]
        shutdown_process_pools()
        shutdown_worker_hosts()
        if repeats == 1:
            passes["warm"] = run_pass("warm", PIXEL_4, config, dataset, store_dir, tracer)
        else:
            records = []
            for repeat in range(repeats):
                repeat_dir = f"{store_dir}-warm{repeat}"
                shutil.copytree(store_dir, repeat_dir)
                try:
                    reply = in_fork(
                        lambda: run_pass("warm", PIXEL_4, config, dataset, repeat_dir),
                        repeat_dir + ".json",
                    )
                finally:
                    shutil.rmtree(repeat_dir, ignore_errors=True)
                if "error" in reply:
                    raise RuntimeError(f"warm repeat {repeat} failed:\n{reply['error']}")
                records.append(reply["record"])
            passes["warm"] = records[0]
            result["warm_repeats"] = records
    finally:
        shutdown_process_pools()
        shutdown_worker_hosts()
        shutil.rmtree(store_dir, ignore_errors=True)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(usage_self, usage_children) / 1024.0
    if tracer is not None:
        from bench_trace import child_seconds, merge_worker_dumps

        tracer.uninstall()
        workers, dumps = merge_worker_dumps(args.work_dir)
        trace = tracer.snapshot()
        for part, values in workers.items():
            for key, value in values.items():
                trace[part][key] = trace[part].get(key, 0) + value
        trace["worker_dumps"] = dumps
        result["trace"] = trace
        trace_path = os.path.splitext(args.out)[0] + "-spans.json"
        tracer.write(trace_path, extra={"worker_totals": workers})
        result["trace_file"] = trace_path
        pass_s, stages_s = child_seconds(tracer.spans, "pass.cold", "core.")
        result["reconcile"] = {"cold_pass_s": pass_s, "cold_stages_s": stages_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result: dict = {}
    try:
        run_unit(args, result)
        status = 0
    except Exception:  # a failed pass is a result to report, not a crash
        result["error"] = traceback.format_exc()
        status = 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
