"""Correctness checks of one benchmark run, on plain JSON-able records.

A *pass record* is what the measuring interpreter writes for one
``NeRFlexPipeline.run`` (see ``bench_unit.pass_record``).  The checks read
only those records, so a doctored record can exercise every check without
running the pipeline.
"""

from __future__ import annotations

import hashlib
import json

#: Record fields that must be identical across every run of one workload
#: and seed: report quality, bundle size and the selected assignments.
FINGERPRINT_FIELDS = (
    "device",
    "loaded",
    "size_mb",
    "per_object_size_mb",
    "ssim",
    "psnr",
    "lpips",
    "per_object_ssim",
    "fps",
    "assignments",
)


def check_memory(record: dict) -> list:
    """The bundle loads and fits the device's memory budget."""
    failures = []
    if not record["loaded"]:
        failures.append(f"{record['device']}: bundle did not load")
    if not record["size_mb"] <= record["budget_mb"]:
        failures.append(
            f"{record['device']}: bundle {record['size_mb']:.2f} MB exceeds "
            f"the {record['budget_mb']:.2f} MB budget"
        )
    return failures


def check_warm_profiles(cold: dict, warm: dict) -> list:
    """The warm pass served every profile from disk, bit-identical."""
    failures = []
    expected = cold["num_sub_scenes"]
    store = warm["store"]
    if store["recompute_by_kind"].get("profile", 0):
        failures.append(
            f"warm pass re-fitted {store['recompute_by_kind']['profile']} profiles"
        )
    if store["reuse_by_kind"].get("profile", 0) < expected:
        failures.append(
            f"warm pass reused {store['reuse_by_kind'].get('profile', 0)} of "
            f"{expected} profiles"
        )
    if store["disk_hits"] < expected:
        failures.append(
            f"warm pass had {store['disk_hits']} disk hits for {expected} profiles"
        )
    if warm["profile_states"] != cold["profile_states"]:
        failures.append("warm profile state tuples differ from the cold pass")
    return failures


def fingerprint(records: list) -> str:
    """Digest of the fingerprint fields of a run's pass records."""
    picked = [{field: record[field] for field in FINGERPRINT_FIELDS} for record in records]
    text = json.dumps(picked, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def check_unit(unit: dict) -> dict:
    """Failures per pass of one measuring interpreter's result.

    Returns ``{"cold": [...], "warm": [...]}``; a pass that raised carries
    its error as a failure.
    """
    passes = unit.get("passes", {})
    failures = {"cold": [], "warm": []}
    if "cold" in passes:
        failures["cold"].extend(check_memory(passes["cold"]))
    if "warm" in passes:
        # Every warm repeat starts from the same state: each must pass the
        # checks, and all must produce the same outputs.
        repeats = unit.get("warm_repeats") or [passes["warm"]]
        for record in repeats:
            failures["warm"].extend(check_memory(record))
            if "cold" in passes:
                failures["warm"].extend(check_warm_profiles(passes["cold"], record))
        failures["warm"].extend(
            check_identical([fingerprint([record]) for record in repeats])
        )
    # An error belongs to the first pass that did not finish (or to the
    # warm pass when it struck after both); later passes never ran.
    missing = [name for name in failures if name not in passes]
    error = unit.get("error")
    if error or missing:
        failures[(missing or ["warm"])[0]].append(error or "pass did not run")
        for name in missing[1:]:
            failures[name].append("pass did not run")
    return failures


def check_identical(fingerprints: list) -> list:
    """Every run of the workload and seed produced the same outputs."""
    if len(set(fingerprints)) > 1:
        return [f"outputs differ across runs: {sorted(set(fingerprints))}"]
    return []


def check_metric_names(emitted: dict, declared: list) -> list:
    """The emitted metrics are exactly the declared ones, with their units."""
    failures = []
    declared_units = {spec["name"]: spec["unit"] for spec in declared}
    if set(emitted) != set(declared_units):
        missing = sorted(set(declared_units) - set(emitted))
        extra = sorted(set(emitted) - set(declared_units))
        failures.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, value in emitted.items():
        unit = declared_units.get(name)
        if unit is not None and value["unit"] != unit:
            failures.append(f"{name}: unit {value['unit']!r}, declared {unit!r}")
    return failures
