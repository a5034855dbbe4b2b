"""Signed-distance-function (SDF) primitives and combinators.

All functions are vectorised: they take an ``(N, 3)`` array of points and
return an ``(N,)`` array of signed distances (negative inside the surface).
The reference objects in :mod:`repro.scenes.objects` are assembled from
these primitives, and the ground-truth ray tracer, the voxel baker and the
radiance field all query the same SDFs, so every representation in the
library is derived from a single authoritative geometry definition.

Points may arrive in any memory layout (placed objects pass column-major
object-local points).  The primitives work on per-axis columns and
return the same bits for every layout.
"""

from __future__ import annotations

import numpy as np


def _as_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {points.shape}")
    return points


def _norm3(v: np.ndarray) -> np.ndarray:
    """Row norms of an ``(N, 3)`` array, computed column-wise.

    ``sqrt(x*x + y*y + z*z)`` performs the same IEEE operations in the same
    order as ``np.linalg.norm(v, axis=1)`` (which squares, then
    ``add.reduce``s the three columns left to right), so the result is
    bit-identical, but it never reduces along a length-3 axis, which numpy
    runs one tiny inner loop per row.
    """
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    return np.sqrt(x * x + y * y + z * z)


def _offsets(points: np.ndarray, center) -> list:
    """Fresh per-axis columns ``points[:, axis] - center[axis]``.

    Each column is contiguous whatever the layout of ``points``, so the
    callers' in-place ufuncs run one long inner loop per column instead of
    a length-3 loop per row of an ``(N, 3)`` temporary.
    """
    center = np.asarray(center, dtype=np.float64)
    return [np.subtract(points[:, axis], center[axis]) for axis in range(3)]


def _hypot_inplace(parts: list) -> np.ndarray:
    """``sqrt(a*a + b*b [+ c*c])`` of freshly allocated arrays, summed left
    to right (the operation order of ``np.linalg.norm(axis=1)``); overwrites
    ``parts`` and returns the first."""
    total = parts[0]
    total *= total
    for part in parts[1:]:
        part *= part
        total += part
    return np.sqrt(total, out=total)


def _max_columns(columns: list) -> np.ndarray:
    """Elementwise maximum of columns taken left to right; bit-identical to
    ``np.max`` over the columns stacked on axis 1, without the stack."""
    result = np.maximum(columns[0], columns[1])
    for column in columns[2:]:
        np.maximum(result, column, out=result)
    return result


def sdf_sphere(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Signed distance to a sphere."""
    distance = _hypot_inplace(_offsets(_as_points(points), center))
    distance -= float(radius)
    return distance


def sdf_box(points: np.ndarray, center: np.ndarray, half_extents: np.ndarray) -> np.ndarray:
    """Signed distance to an axis-aligned box."""
    half = np.asarray(half_extents, dtype=np.float64)
    q = _offsets(_as_points(points), center)
    for axis, column in enumerate(q):
        np.abs(column, out=column)
        column -= half[axis]
    inside = _max_columns(q)
    np.minimum(inside, 0.0, out=inside)
    for column in q:
        np.maximum(column, 0.0, out=column)
    outside = _hypot_inplace(q)
    outside += inside
    return outside


def sdf_rounded_box(
    points: np.ndarray, center: np.ndarray, half_extents: np.ndarray, radius: float
) -> np.ndarray:
    """Signed distance to a box with rounded edges of the given radius."""
    shrunk = np.asarray(half_extents, dtype=np.float64) - float(radius)
    if np.any(shrunk <= 0):
        raise ValueError("rounding radius must be smaller than every half extent")
    distance = sdf_box(points, center, shrunk)
    distance -= float(radius)
    return distance


def sdf_torus(
    points: np.ndarray, center: np.ndarray, major_radius: float, minor_radius: float
) -> np.ndarray:
    """Signed distance to a torus lying in the XZ plane (axis along Y)."""
    x, y, z = _offsets(_as_points(points), center)
    ring = _hypot_inplace([x, z])
    ring -= float(major_radius)
    distance = _hypot_inplace([ring, y])
    distance -= float(minor_radius)
    return distance


def sdf_cylinder(
    points: np.ndarray, center: np.ndarray, radius: float, half_height: float
) -> np.ndarray:
    """Signed distance to a capped cylinder with its axis along Y."""
    x, y, z = _offsets(_as_points(points), center)
    radial = _hypot_inplace([x, z])
    radial -= float(radius)
    axial = np.abs(y, out=y)
    axial -= float(half_height)
    inside = _max_columns([radial, axial])
    np.minimum(inside, 0.0, out=inside)
    np.maximum(radial, 0.0, out=radial)
    np.maximum(axial, 0.0, out=axial)
    outside = _hypot_inplace([radial, axial])
    outside += inside
    return outside


def sdf_capsule(
    points: np.ndarray, endpoint_a: np.ndarray, endpoint_b: np.ndarray, radius: float
) -> np.ndarray:
    """Signed distance to a capsule (a segment with thickness ``radius``)."""
    points = _as_points(points)
    a = np.asarray(endpoint_a, dtype=np.float64)
    ba = np.asarray(endpoint_b, dtype=np.float64) - a
    denom = float(ba @ ba)
    if denom == 0.0:
        distance = _hypot_inplace(_offsets(points, a))
        distance -= float(radius)
        return distance
    # The projection is one BLAS matvec, whose bits depend on the operand's
    # layout: ``pa`` is written column by column into a C-ordered array so
    # every input layout sees the same (C-contiguous) product.
    pa = np.empty(points.shape)
    for axis in range(3):
        np.subtract(points[:, axis], a[axis], out=pa[:, axis])
    h = pa @ ba
    h /= denom
    np.clip(h, 0.0, 1.0, out=h)
    residual = []
    for axis in range(3):
        column = np.multiply(h, ba[axis])
        np.subtract(pa[:, axis], column, out=column)
        residual.append(column)
    distance = _hypot_inplace(residual)
    distance -= float(radius)
    return distance


def sdf_union(*distances: np.ndarray) -> np.ndarray:
    """Union of shapes (pointwise minimum of distances)."""
    if not distances:
        raise ValueError("sdf_union needs at least one distance field")
    result = distances[0]
    for dist in distances[1:]:
        result = np.minimum(result, dist)
    return result


def sdf_intersection(*distances: np.ndarray) -> np.ndarray:
    """Intersection of shapes (pointwise maximum of distances)."""
    if not distances:
        raise ValueError("sdf_intersection needs at least one distance field")
    result = distances[0]
    for dist in distances[1:]:
        result = np.maximum(result, dist)
    return result


def sdf_subtraction(base: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Subtract the ``cut`` shape from the ``base`` shape."""
    return np.maximum(base, -cut)


def repeat_xz(points: np.ndarray, period: float) -> np.ndarray:
    """Tile space periodically in X and Z (domain repetition).

    Returns a copy of ``points`` whose X/Z coordinates are wrapped into a
    cell of side ``period`` centred at the origin.  Evaluating a primitive
    on the repeated points yields an infinite grid of copies, which is how
    the high-complexity reference objects (e.g. the lego analogue's studs)
    obtain many geometric features at constant evaluation cost.
    """
    points = _as_points(points).copy(order="K")
    period = float(period)
    if period <= 0:
        raise ValueError("period must be positive")
    for axis in (0, 2):
        points[:, axis] = (
            np.mod(points[:, axis] + 0.5 * period, period) - 0.5 * period
        )
    return points
