"""The vectorised NumPy reference implementation of every render kernel.

These functions are the *semantics* of the kernel layer: each compiled
backend (:mod:`repro.render.kernels.loops` compiled by
:mod:`repro.render.kernels.numba_backend`) is pinned against them by the
tiered parity suite (``tests/test_render_kernels.py``) at the tolerance its
declared tier permits — bit-identical for the occupancy marcher and the
sphere-tracer bookkeeping, bounded-ULP for the exp/reduction-bearing
volume kernels (see ``PARITY_TIERS`` in
:mod:`repro.render.kernels.registry`).

The bodies are the exact hot-loop math that historically lived inline in
:mod:`repro.render.engine` and :mod:`repro.nerf.rendering`; moving it here
changed call boundaries only, never values, so the engine's legacy parity
pins (``tests/test_render_engine.py``) keep holding bit for bit.

Every kernel is a narrow array-in/array-out function: no engine state, no
callables, no I/O — the contract that lets the same signature be compiled
to native loops and shipped through forked/spawned workers.
"""

from __future__ import annotations

import numpy as np

from repro.baking.meshing import _TANGENT_AXES

#: Quad-face in-plane axes by face-normal axis, as flat lookup tables
#: (``u`` spans ``TANGENT_U[axis]``, ``v`` spans ``TANGENT_V[axis]``).
#: Derived from the meshing module's table so there is one source of truth;
#: the loop backend hard-codes the same mapping as branches (verified
#: against these tables by the parity suite).
TANGENT_U = np.array([_TANGENT_AXES[axis][0] for axis in range(3)], dtype=np.int64)
TANGENT_V = np.array([_TANGENT_AXES[axis][1] for axis in range(3)], dtype=np.int64)


def march_occupancy(
    origins: np.ndarray,
    directions: np.ndarray,
    t_near: np.ndarray,
    t_far: np.ndarray,
    grid_lo: np.ndarray,
    voxel: float,
    step: float,
    resolution: int,
    occupancy: np.ndarray,
    face_keys: np.ndarray,
    face_order: np.ndarray,
    voxel_keys: np.ndarray,
    slab_steps: int,
) -> tuple:
    """First-hit occupancy-grid march of one chunk of candidate rays.

    Marches the sample ladder ``t = t_near + (k + 0.5) * step`` per ray,
    finds the first occupied voxel, computes the exact entry point into its
    AABB and resolves the ``(voxel, axis, sign)`` face key against the
    sorted face tables (interior entries fall back to any face of the
    voxel).  Texture sampling stays with the caller — the kernel returns
    in-face coordinates, not colours.

    Args:
        origins / directions: ``(N, 3)`` float64 candidate rays.
        t_near / t_far: ``(N,)`` clamped AABB entry/exit distances
            (``t_far > t_near`` for every candidate).
        grid_lo: ``(3,)`` world position of the grid's minimum corner.
        voxel: voxel edge length; ``step``: marching step (``voxel *
            step_scale``).
        resolution: grid resolution ``g``.
        occupancy: ``(g, g, g)`` boolean occupancy.
        face_keys / face_order / voxel_keys: the sorted face-lookup tables
            built by the engine's ``_face_keys``.
        slab_steps: samples examined per vectorised marching round (loop
            backends ignore it; the sample ladder is identical either way).

    Returns:
        ``(hit_rows, face_indices, u, v, t_entry)`` — ascending chunk-local
        hit rows, the face index and in-face coordinates to sample, and the
        entry distance.  Empty int64/float64 arrays when nothing hit.
    """
    num_rays = origins.shape[0]
    g = int(resolution)

    span = float(np.max(t_far - t_near)) if num_rays else 0.0
    num_steps = max(int(np.ceil(span / step)) + 1, 1)

    # Slab-wise march with early-termination compaction: rays stop
    # participating as soon as their first occupied voxel is found.  The
    # sample ladder is identical to evaluating all ``num_steps`` samples at
    # once, so the result is bit-identical to a full-span evaluation — it
    # just skips the samples behind a hit.
    #
    # Sample coordinates, voxel indices and the in-grid mask are computed one
    # axis at a time on ``(M, S)`` arrays, and occupancy is read through one
    # flat index into the raveled grid: numpy reductions over a length-3
    # axis and 3-array fancy indexing cost far more than the element-wise
    # work (DESIGN.md "No reductions over a length-3 axis").
    occupancy_flat = occupancy.reshape(-1)
    hit_rows_parts = []
    hit_voxels_parts = []
    active = np.arange(num_rays)
    for slab_start in range(0, num_steps, slab_steps):
        if active.size == 0:
            break
        ks = np.arange(slab_start, min(slab_start + slab_steps, num_steps))
        t_samples = t_near[active, None] + (ks[None, :] + 0.5) * step
        valid = t_samples <= t_far[active, None]
        inside = valid.copy()
        clipped = []
        for axis in range(3):
            coords = (
                origins[active, axis, None]
                + t_samples * directions[active, axis, None]
            )
            indices = np.floor((coords - grid_lo[axis]) / voxel).astype(int)
            inside &= (indices >= 0) & (indices < g)
            clipped.append(np.clip(indices, 0, g - 1, out=indices))
        flat = (clipped[0] * g + clipped[1]) * g + clipped[2]
        occupied = occupancy_flat[flat] & inside

        any_hit = occupied.any(axis=1)
        if any_hit.any():
            local_rows = np.flatnonzero(any_hit)
            first = occupied[local_rows].argmax(axis=1)
            hit_rows_parts.append(active[local_rows])
            hit_voxels_parts.append(
                np.stack([axis_index[local_rows, first] for axis_index in clipped], axis=1)
            )
        # Rays whose remaining samples are all beyond t_far are done.
        finished = any_hit | ~valid[:, -1]
        active = active[~finished]

    if not hit_rows_parts:
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        return empty_i, empty_i.copy(), empty_f, empty_f.copy(), empty_f.copy()
    hit_rows = np.concatenate(hit_rows_parts)
    hit_voxels = np.concatenate(hit_voxels_parts, axis=0)
    order = np.argsort(hit_rows, kind="stable")
    hit_rows = hit_rows[order]
    hit_voxels = hit_voxels[order]

    # Exact entry point into the hit voxel (slab test on its AABB).
    voxel_lo = grid_lo + hit_voxels * voxel
    voxel_hi = voxel_lo + voxel
    sub_origins = origins[hit_rows]
    sub_dirs = directions[hit_rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / sub_dirs
    t_lo_axis = (voxel_lo - sub_origins) * inv
    t_hi_axis = (voxel_hi - sub_origins) * inv
    t_axis_entry = np.minimum(t_lo_axis, t_hi_axis)
    # Guard against rays parallel to an axis (inv = inf -> t = -inf/nan).
    t_axis_entry = np.where(np.isfinite(t_axis_entry), t_axis_entry, -np.inf)
    entry_axis = t_axis_entry.argmax(axis=1)
    t_entry = np.maximum(t_axis_entry[np.arange(len(hit_rows)), entry_axis], 0.0)
    entry_points = sub_origins + t_entry[:, None] * sub_dirs
    entry_sign = np.where(sub_dirs[np.arange(len(hit_rows)), entry_axis] > 0, -1, 1)

    # Face lookup: exact (voxel, axis, sign) key, falling back to any face
    # of the voxel when marching entered through an interior face.
    voxel_key = (hit_voxels[:, 0] * g + hit_voxels[:, 1]) * g + hit_voxels[:, 2]
    face_key = voxel_key * 6 + entry_axis * 2 + (entry_sign > 0)
    pos = np.searchsorted(face_keys, face_key)
    pos = np.clip(pos, 0, len(face_keys) - 1)
    found = face_keys[pos] == face_key
    face_indices = face_order[pos]
    if not found.all():
        fallback_pos = np.searchsorted(voxel_keys, voxel_key[~found])
        fallback_pos = np.clip(fallback_pos, 0, len(voxel_keys) - 1)
        face_indices[~found] = face_order[fallback_pos]

    # In-face texture coordinates from the entry point.
    local = (entry_points - voxel_lo) / voxel
    tangent_u = TANGENT_U[entry_axis]
    tangent_v = TANGENT_V[entry_axis]
    rows = np.arange(len(hit_rows))
    u = np.clip(local[rows, tangent_u], 0.0, 1.0)
    v = np.clip(local[rows, tangent_v], 0.0, 1.0)

    return (
        hit_rows.astype(np.int64, copy=False),
        face_indices.astype(np.int64, copy=False),
        u,
        v,
        t_entry,
    )


def sdf_to_density(sdf: np.ndarray, surface_width: float) -> np.ndarray:
    """Convert ``(R, S)`` signed distances to volume density.

    Density is high inside the surface and falls off smoothly across a band
    of width ``surface_width`` outside it (the logistic bump of the volume
    renderer).
    """
    width = max(surface_width, 1e-9)
    scaled = np.clip(-sdf / width, -30.0, 30.0)
    return 30.0 / width * (1.0 / (1.0 + np.exp(-scaled))) * 0.5


def composite_forward(
    densities: np.ndarray,
    colors: np.ndarray,
    deltas: np.ndarray,
    background: np.ndarray,
    sample_distances: np.ndarray,
) -> tuple:
    """Alpha-composite per-sample densities and colours along rays.

    Args:
        densities: ``(R, S)`` densities (clamped at zero inside the kernel).
        colors: ``(R, S, 3)`` per-sample colours.
        deltas: ``(R, S)`` distances between consecutive samples.
        background: ``(3,)`` colour composited behind the volume.
        sample_distances: ``(R, S)`` absolute sample distances (the
            reported depth is their weighted expectation).

    Returns:
        ``(rgb, weights, transmittance, depth, alpha)`` with shapes
        ``(R, 3)``, ``(R, S)``, ``(R, S+1)``, ``(R,)``, ``(R,)``.
    """
    densities = np.maximum(densities, 0.0)
    alphas = 1.0 - np.exp(-densities * deltas)
    ones = np.ones((alphas.shape[0], 1))
    transmittance = np.concatenate(
        [ones, np.cumprod(1.0 - alphas + 1e-12, axis=1)], axis=1
    )
    weights = transmittance[:, :-1] * alphas
    rgb = (weights[..., None] * colors).sum(axis=1)
    rgb = rgb + transmittance[:, -1:] * background
    cumulative = weights.sum(axis=1)
    depth = (weights * sample_distances).sum(axis=1) / np.maximum(cumulative, 1e-8)
    return rgb, weights, transmittance, depth, cumulative


def gather_ray_points(
    origins: np.ndarray,
    directions: np.ndarray,
    t_values: np.ndarray,
    alive: np.ndarray,
) -> np.ndarray:
    """Current sample positions ``o + t * d`` of the ``alive`` rays."""
    return origins[alive] + t_values[alive, None] * directions[alive]


def sphere_advance(
    t_values: np.ndarray,
    hit: np.ndarray,
    alive: np.ndarray,
    distances: np.ndarray,
    limits: np.ndarray,
    hit_epsilon: float,
) -> np.ndarray:
    """One sphere-tracing step: record hits, advance survivors, compact.

    Mutates ``t_values`` and ``hit`` in place (rows indexed by ``alive``)
    and returns the compacted alive set — rays that neither hit nor
    escaped their per-ray ``limits``.
    """
    newly_hit = distances < hit_epsilon
    hit[alive[newly_hit]] = True
    advancing = ~newly_hit
    advancing_ids = alive[advancing]
    t_values[advancing_ids] += np.maximum(distances[advancing], hit_epsilon)
    escaped = t_values[advancing_ids] > limits[advancing_ids]
    return advancing_ids[~escaped]
