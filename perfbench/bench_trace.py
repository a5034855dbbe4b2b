"""Outside-in tracer for the benchmark's traced runs.

The tracer wraps public functions of the library's layers from the
benchmark's own files (nothing in ``src/`` changes).  Each wrapper:

* times the call and adds it to the layer's total, but only for the
  **outermost** call of a guard key on the current thread, so
  ``render_scene`` -> ``render_scene_views`` or a nested ``PlacedObject.sdf``
  is counted once;
* optionally records a span ``(id, name, start, end, parent)``, where the
  parent is the innermost enclosing traced call on the same thread (hot
  per-point calls keep totals only, no per-call spans);
* optionally feeds a counter hook with the call's arguments and result.

Forked worker daemons inherit the wrappers.  :meth:`Tracer.install_worker_dump`
resets the tracer at the start of each daemon and writes the daemon's
totals to a JSON file when it stops, so work done inside workers can be
added to the parent's figures.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time


class Tracer:
    """Spans, per-layer totals and counters of one traced process."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: The traced process itself; forked workers keep this value.
        self.root_pid = os.getpid()
        self._installed: list = []
        self.reset()

    def reset(self) -> None:
        """Drop every span, total and counter (and the thread stacks)."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list = []
        self.seconds: dict = {}
        self.calls: dict = {}
        self.counts: dict = {}
        self._next_id = 1

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _enter(self, key: str):
        """Push ``key``; returns ``None`` when an outer call holds it."""
        stack = self._stack()
        if any(entry[0] == key for entry in stack):
            return None
        parent = stack[-1][1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append((key, span_id))
        return span_id, parent, time.perf_counter()

    def _exit(self, key: str, token, record_span: bool) -> float:
        span_id, parent, start = token
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.seconds[key] = self.seconds.get(key, 0.0) + (end - start)
            self.calls[key] = self.calls.get(key, 0) + 1
            if record_span:
                self.spans.append(
                    {
                        "id": span_id,
                        "name": key,
                        "start": start - self.origin,
                        "end": end - self.origin,
                        "parent": parent,
                    }
                )
        return end - start

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for passes and set-up)."""
        token = self._enter(name)
        try:
            yield
        finally:
            if token is not None:
                self._exit(name, token, record_span=True)

    # -- wrapping -------------------------------------------------------------

    def wrapper(self, original, key: str, spans: bool = True, count=None):
        """A traced stand-in for ``original``.

        ``count(tracer, args, kwargs, result, seconds)`` runs after each
        outermost call.
        """
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = tracer._enter(key)
            if token is None:
                return original(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = tracer._exit(key, token, spans)
            if count is not None:
                count(tracer, args, kwargs, result, seconds)
            return result

        return traced

    def replace(self, owner, attr, value) -> None:
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict) to ``value``,
        remembering the original for :meth:`uninstall`."""
        if isinstance(owner, dict):
            self._installed.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._installed.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def patch(self, owner, attr: str, key: str, spans: bool = True, count=None):
        """Replace ``owner.attr`` (a class or module attribute) by a wrapper."""
        self.replace(owner, attr, self.wrapper(getattr(owner, attr), key, spans, count))

    def patch_function(self, modules, attr: str, key: str, spans: bool = True, count=None):
        """Wrap a module-level function everywhere it was imported.

        ``modules[0]`` defines it; every later module whose ``attr`` is the
        same object gets the same wrapper.
        """
        original = getattr(modules[0], attr)
        traced = self.wrapper(original, key, spans, count)
        for module in modules:
            if getattr(module, attr, None) is original:
                self.replace(module, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        for owner, attr, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    # -- output ---------------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def write(self, path: str, extra: "dict | None" = None) -> None:
        """Write spans, totals and counters as one JSON document."""
        payload = self.snapshot()
        with self._lock:
            payload["spans"] = list(self.spans)
        payload["self_seconds"] = self_times(payload["spans"])
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")

    def install_worker_dump(self, transport_module, out_dir: str, keep=None) -> None:
        """Make forked worker daemons report their own totals.

        Wraps ``transport_module.worker_loop`` (the daemon body every fork
        worker enters): the daemon starts from an empty tracer and, when it
        stops, writes ``worker-<pid>.json`` into ``out_dir``.  ``keep``
        filters which total/counter names are written.
        """
        tracer = self
        original = transport_module.worker_loop

        @functools.wraps(original)
        def traced_loop(channel):
            tracer.reset()
            try:
                return original(channel)
            finally:
                snap = tracer.snapshot()
                if keep is not None:
                    snap = {
                        part: {k: v for k, v in values.items() if keep(k)}
                        for part, values in snap.items()
                    }
                path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(snap, handle)

        self.replace(transport_module, "worker_loop", traced_loop)


def merge_worker_dumps(out_dir: str) -> tuple:
    """Sum every ``worker-*.json`` in ``out_dir``; returns ``(totals, files)``."""
    merged = {"seconds": {}, "calls": {}, "counts": {}}
    files = 0
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("worker-") and name.endswith(".json")):
            continue
        with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
            dump = json.load(handle)
        files += 1
        for part, values in dump.items():
            target = merged[part]
            for key, value in values.items():
                target[key] = target.get(key, 0) + value
    return merged, files


def self_times(spans: list) -> dict:
    """Self time per span name: duration minus the union of its children.

    Children of one span may overlap (threads), so their intervals are
    merged before subtracting, and each is clipped to the parent's
    interval.
    """
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    totals: dict = {}
    for span in spans:
        start, end = span["start"], span["end"]
        intervals = sorted(
            (max(child["start"], start), min(child["end"], end))
            for child in children.get(span["id"], [])
        )
        covered = 0.0
        run_start = run_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        totals[span["name"]] = totals.get(span["name"], 0.0) + (end - start) - covered
    return totals


def child_seconds(spans: list, parent_name: str, child_prefix: str) -> tuple:
    """``(parent seconds, seconds of its direct children named child_prefix*)``
    summed over every span called ``parent_name`` — the reconciliation of
    stage spans against a pass."""
    parents = {span["id"]: span for span in spans if span["name"] == parent_name}
    parent_total = sum(span["end"] - span["start"] for span in parents.values())
    child_total = sum(
        span["end"] - span["start"]
        for span in spans
        if span["parent"] in parents and span["name"].startswith(child_prefix)
    )
    return parent_total, child_total
