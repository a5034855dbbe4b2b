"""Tests for SDF primitives, objects and scene composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenes import primitives as prim
from repro.scenes.library import make_realworld_scene
from repro.scenes.objects import (
    OBJECT_LIBRARY,
    REFERENCE_OBJECT_NAMES,
    list_objects,
    make_object,
)
from repro.scenes.scene import PlacedObject, Scene, compose_scene

_POINTS = st.lists(
    st.tuples(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    ),
    min_size=1,
    max_size=20,
).map(np.array)


class TestPrimitives:
    def test_sphere_distances(self):
        points = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        dist = prim.sdf_sphere(points, (0, 0, 0), 1.0)
        assert dist[0] == pytest.approx(-1.0)
        assert dist[1] == pytest.approx(1.0)
        assert dist[2] == pytest.approx(0.0, abs=1e-12)

    def test_box_center_is_inside(self):
        dist = prim.sdf_box(np.zeros((1, 3)), (0, 0, 0), (0.5, 0.5, 0.5))
        assert dist[0] == pytest.approx(-0.5)

    def test_box_outside_corner_distance(self):
        point = np.array([[1.0, 1.0, 1.0]])
        dist = prim.sdf_box(point, (0, 0, 0), (0.5, 0.5, 0.5))
        assert dist[0] == pytest.approx(np.sqrt(3 * 0.25))

    def test_torus_ring_is_surface(self):
        point = np.array([[0.5, 0.0, 0.0]])
        assert prim.sdf_torus(point, (0, 0, 0), 0.4, 0.1)[0] == pytest.approx(0.0, abs=1e-12)

    def test_cylinder_contains_axis(self):
        points = np.array([[0.0, 0.2, 0.0]])
        assert prim.sdf_cylinder(points, (0, 0, 0), 0.3, 0.5)[0] < 0

    def test_capsule_degenerate_is_sphere(self):
        points = np.array([[0.2, 0.0, 0.0]])
        capsule = prim.sdf_capsule(points, (0, 0, 0), (0, 0, 0), 0.5)
        sphere = prim.sdf_sphere(points, (0, 0, 0), 0.5)
        assert capsule[0] == pytest.approx(sphere[0])

    def test_union_is_min(self):
        a = np.array([1.0, -0.5])
        b = np.array([0.2, 0.3])
        assert np.allclose(prim.sdf_union(a, b), [0.2, -0.5])

    def test_subtraction_removes_overlap(self):
        points = np.zeros((1, 3))
        base = prim.sdf_sphere(points, (0, 0, 0), 1.0)
        cut = prim.sdf_sphere(points, (0, 0, 0), 0.5)
        assert prim.sdf_subtraction(base, cut)[0] > 0  # centre was carved out

    def test_repeat_wraps_coordinates(self):
        points = np.array([[1.05, 0.3, -0.95]])
        wrapped = prim.repeat_xz(points, 1.0)
        assert abs(wrapped[0, 0]) <= 0.5
        assert abs(wrapped[0, 2]) <= 0.5
        assert wrapped[0, 1] == pytest.approx(0.3)

    def test_rounded_box_rejects_large_radius(self):
        with pytest.raises(ValueError):
            prim.sdf_rounded_box(np.zeros((1, 3)), (0, 0, 0), (0.1, 0.1, 0.1), 0.2)

    def test_bad_points_shape_rejected(self):
        with pytest.raises(ValueError):
            prim.sdf_sphere(np.zeros((3,)), (0, 0, 0), 1.0)

    @given(points=_POINTS)
    @settings(max_examples=25, deadline=None)
    def test_union_lower_bound_property(self, points):
        """The union distance never exceeds either operand (metric property)."""
        a = prim.sdf_sphere(points, (0.2, 0.0, 0.0), 0.4)
        b = prim.sdf_box(points, (-0.3, 0.1, 0.0), (0.3, 0.2, 0.25))
        union = prim.sdf_union(a, b)
        assert np.all(union <= a + 1e-12)
        assert np.all(union <= b + 1e-12)

    @given(points=_POINTS)
    @settings(max_examples=25, deadline=None)
    def test_sphere_is_exact_distance(self, points):
        """The sphere SDF is 1-Lipschitz (true distances)."""
        dist = prim.sdf_sphere(points, (0, 0, 0), 0.7)
        radius = np.linalg.norm(points, axis=1)
        assert np.allclose(dist, radius - 0.7)


# -- reduction-based reference formulas ----------------------------------------
#
# The primitives compute row norms and maxima column-wise
# (``sqrt(x*x + y*y + z*z)``, ``maximum(maximum(x, y), z)``).  These are the
# formulas they replaced, written with numpy's reductions over the length-3
# axis; the differential tests below pin the rewrite to them bit for bit.


def _reference_sphere(points, center, radius):
    return np.linalg.norm(points - np.asarray(center), axis=1) - float(radius)


def _reference_box(points, center, half_extents):
    q = np.abs(points - np.asarray(center)) - np.asarray(half_extents)
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(np.max(q, axis=1), 0.0)
    return outside + inside


def _reference_rounded_box(points, center, half_extents, radius):
    shrunk = np.asarray(half_extents) - float(radius)
    return _reference_box(points, center, shrunk) - float(radius)


def _reference_cylinder(points, center, radius, half_height):
    points = points - np.asarray(center)
    radial = np.sqrt(points[:, 0] ** 2 + points[:, 2] ** 2) - float(radius)
    axial = np.abs(points[:, 1]) - float(half_height)
    q = np.stack([radial, axial], axis=1)
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(np.max(q, axis=1), 0.0)
    return outside + inside


def _reference_capsule(points, endpoint_a, endpoint_b, radius):
    a = np.asarray(endpoint_a, dtype=np.float64)
    b = np.asarray(endpoint_b, dtype=np.float64)
    pa = points - a
    ba = b - a
    denom = float(ba @ ba)
    if denom == 0.0:
        return np.linalg.norm(pa, axis=1) - float(radius)
    h = np.clip((pa @ ba) / denom, 0.0, 1.0)
    return np.linalg.norm(pa - h[:, None] * ba, axis=1) - float(radius)


_BOX = ((0.1, -0.2, 0.3), (0.5, 0.25, 0.75))
_CYLINDER = ((0.1, -0.2, 0.3), 0.4, 0.6)
_CAPSULE = ((-0.3, 0.1, 0.2), (0.4, -0.5, 0.25), 0.15)

#: ``(primitive, reference, args)`` for every column-wise primitive.
_DIFFERENTIAL_CASES = [
    ("sphere", prim.sdf_sphere, _reference_sphere, ((0.1, -0.2, 0.3), 0.7)),
    ("box", prim.sdf_box, _reference_box, _BOX),
    ("rounded_box", prim.sdf_rounded_box, _reference_rounded_box, _BOX + (0.1,)),
    ("cylinder", prim.sdf_cylinder, _reference_cylinder, _CYLINDER),
    ("capsule", prim.sdf_capsule, _reference_capsule, _CAPSULE),
    ("capsule_degenerate", prim.sdf_capsule, _reference_capsule,
     ((0.2, 0.2, 0.2), (0.2, 0.2, 0.2), 0.3)),
]

#: Coordinates that stress IEEE edge cases: signed zeros, infinities, NaN,
#: squares that underflow or overflow, subnormals and plain values.
_SPECIAL_COORDS = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -0.5,
    1e150, -1e150, 1e155, 1e-150, -1e-155, 5e-324,
]


def _adversarial_points() -> np.ndarray:
    """Every triple of special coordinates, plus points exactly on the faces,
    edges and corners of the test box and on the cylinder's and capsule's
    surfaces, axes and end points."""
    special = np.array(np.meshgrid(_SPECIAL_COORDS, _SPECIAL_COORDS,
                                   _SPECIAL_COORDS, indexing="ij")).reshape(3, -1).T
    center, half = (np.asarray(v) for v in _BOX)
    signs = np.array(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                                 [-1.0, 0.0, 1.0], indexing="ij")).reshape(3, -1).T
    box_rows = center + signs * half  # centre, 6 faces, 12 edges, 8 corners
    cyl_center, cyl_radius, cyl_half = _CYLINDER
    cyl_center = np.asarray(cyl_center)
    cylinder_rows = cyl_center + np.array([
        [cyl_radius, 0.0, 0.0], [0.0, cyl_half, 0.0], [0.0, -cyl_half, 0.0],
        [0.0, 0.0, -cyl_radius], [cyl_radius, cyl_half, 0.0],
        [0.0, 0.0, 0.0], [2.0 * cyl_radius, 2.0 * cyl_half, 0.0],
    ])
    cap_a, cap_b, _ = _CAPSULE
    capsule_rows = np.array([cap_a, cap_b, 0.5 * (np.asarray(cap_a) + cap_b)])
    return np.concatenate([special, box_rows, cylinder_rows, capsule_rows])


def assert_same_bits(expected: np.ndarray, actual: np.ndarray) -> None:
    """Bit-identical float64 arrays; any NaN matches any NaN."""
    assert expected.dtype == actual.dtype == np.float64
    assert expected.shape == actual.shape
    same = expected.view(np.int64) == actual.view(np.int64)
    both_nan = np.isnan(expected) & np.isnan(actual)
    mismatched = np.flatnonzero(~(same | both_nan))
    assert mismatched.size == 0, (
        f"{mismatched.size} rows differ, first {mismatched[:5].tolist()}: "
        f"expected {expected[mismatched[:5]]}, got {actual[mismatched[:5]]}"
    )


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)
_ANY_POINTS = st.lists(
    st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=40
).map(lambda rows: np.array(rows, dtype=np.float64))


class TestColumnWiseDifferential:
    """Column-wise primitives equal the reduction-based formulas bit for bit."""

    @pytest.mark.parametrize("name,primitive,reference,args", _DIFFERENTIAL_CASES,
                             ids=[case[0] for case in _DIFFERENTIAL_CASES])
    def test_adversarial_rows(self, name, primitive, reference, args):
        points = _adversarial_points()
        with np.errstate(all="ignore"):
            expected = reference(points, *args)
            actual = primitive(points, *args)
        assert_same_bits(expected, actual)

    @pytest.mark.parametrize("name,primitive,reference,args", _DIFFERENTIAL_CASES,
                             ids=[case[0] for case in _DIFFERENTIAL_CASES])
    def test_random_rows_and_layouts(self, name, primitive, reference, args):
        """Many rows, at several scales, in C, Fortran and strided layouts.

        Every layout must give the reference's bits on the C-ordered copy:
        the capsule's projection is a BLAS matvec, whose bits depend on the
        operand layout, so the primitive always multiplies C-ordered.
        """
        rng = np.random.default_rng(7)
        base = rng.normal(size=(20000, 3)) * np.repeat([1e-3, 1.0, 1e3, 1e100], 5000)[:, None]
        layouts = [base, np.asfortranarray(base),
                   np.repeat(base[:1000], 2, axis=1)[:, ::2]]
        for points in layouts:
            with np.errstate(all="ignore"):
                expected = reference(np.ascontiguousarray(points), *args)
                assert_same_bits(expected, primitive(points, *args))

    @given(points=_ANY_POINTS)
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_points(self, points):
        with np.errstate(all="ignore"):
            for _, primitive, reference, args in _DIFFERENTIAL_CASES:
                assert_same_bits(reference(points, *args), primitive(points, *args))

    @given(points=_ANY_POINTS)
    @settings(max_examples=60, deadline=None)
    def test_norm_and_max_helpers(self, points):
        with np.errstate(all="ignore"):
            assert_same_bits(np.linalg.norm(points, axis=1), prim._norm3(points))
            columns = [points[:, axis].copy() for axis in range(3)]
            assert_same_bits(np.max(points, axis=1), prim._max_columns(columns))
            assert_same_bits(np.linalg.norm(points, axis=1), prim._hypot_inplace(columns))

    def test_helpers_on_adversarial_rows(self):
        points = _adversarial_points()
        with np.errstate(all="ignore"):
            assert_same_bits(np.linalg.norm(points, axis=1), prim._norm3(points))
            columns = [points[:, axis].copy() for axis in range(3)]
            assert_same_bits(np.max(points, axis=1), prim._max_columns(columns))
            assert_same_bits(np.linalg.norm(points, axis=1), prim._hypot_inplace(columns))


def _reference_torus(points, center, major_radius, minor_radius):
    points = points - np.asarray(center, dtype=np.float64)
    ring = np.sqrt(points[:, 0] ** 2 + points[:, 2] ** 2) - float(major_radius)
    return np.sqrt(ring**2 + points[:, 1] ** 2) - float(minor_radius)


def _reference_repeat_xz(points, period):
    points = np.asarray(points, dtype=np.float64).copy()
    for axis in (0, 2):
        points[:, axis] = np.mod(points[:, axis] + 0.5 * period, period) - 0.5 * period
    return points


#: Row-wise (``(N, 3) - (3,)``) versions of every primitive the objects call.
_ROW_WISE_PRIMITIVES = {
    "sdf_sphere": _reference_sphere,
    "sdf_box": _reference_box,
    "sdf_rounded_box": _reference_rounded_box,
    "sdf_cylinder": _reference_cylinder,
    "sdf_capsule": _reference_capsule,
    "sdf_torus": _reference_torus,
    "repeat_xz": _reference_repeat_xz,
}


def _placed_library():
    """Every library object plus the real-world room backdrop, placed off
    the origin at a non-unit scale."""
    placed = [
        PlacedObject(make_object(name), translation=np.array([0.3, -0.2, 0.45]), scale=0.8)
        for name in list_objects()
    ]
    backdrop = make_realworld_scene(seed=0).by_name("backdrop")
    placed.append(PlacedObject(backdrop.obj, translation=np.array([0.1, 0.05, -0.2]), scale=1.3))
    return placed


class TestObjectLayoutDifferential:
    """``PlacedObject.sdf``/``albedo`` equal the row-wise formulas over
    ``(points - t) / s`` bit for bit, whatever the input layout."""

    @pytest.mark.parametrize("placed", _placed_library(), ids=lambda p: p.obj.name)
    def test_every_layout_matches_the_row_wise_formulas(self, placed, monkeypatch):
        rng = np.random.default_rng(11)
        lo = placed.bounds_min - 0.1 * (placed.bounds_max - placed.bounds_min)
        hi = placed.bounds_max + 0.1 * (placed.bounds_max - placed.bounds_min)
        points = rng.uniform(lo, hi, size=(6000, 3))
        points[:40] = placed.translation  # local origin: exact zeros
        points[40:60, 1] = -0.0

        local = (points - placed.translation) / placed.scale
        for name, reference in _ROW_WISE_PRIMITIVES.items():
            monkeypatch.setattr(prim, name, reference)
        expected_sdf = placed.obj.sdf(local) * placed.scale
        expected_albedo = placed.obj.albedo(local)
        monkeypatch.undo()

        for query in (points, np.asfortranarray(points), np.repeat(points, 2, axis=0)[::2]):
            assert_same_bits(expected_sdf, placed.sdf(query))
            assert_same_bits(expected_albedo.ravel(), placed.albedo(query).ravel())

    def test_local_points_are_column_major(self):
        placed = PlacedObject(make_object("cube"), translation=np.array([1.0, 2.0, 3.0]))
        local = placed._to_local(np.ones((5, 3)))
        assert local.flags.f_contiguous
        np.testing.assert_array_equal(local, np.ones((5, 3)) - placed.translation)


class TestObjects:
    def test_library_contains_reference_objects(self):
        for name in REFERENCE_OBJECT_NAMES:
            assert name in OBJECT_LIBRARY

    def test_unknown_object_raises(self):
        with pytest.raises(KeyError):
            make_object("spaceship")

    def test_list_objects_sorted(self):
        names = list_objects()
        assert names == sorted(names)

    @pytest.mark.parametrize("name", list_objects())
    def test_object_has_interior_and_exterior(self, name):
        obj = make_object(name)
        rng = np.random.default_rng(0)
        points = rng.uniform(obj.bounds_min, obj.bounds_max, size=(4000, 3))
        distances = obj.sdf(points)
        assert np.any(distances < 0), f"{name} has no interior samples"
        assert np.any(distances > 0), f"{name} has no exterior samples"

    @pytest.mark.parametrize("name", list_objects())
    def test_albedo_in_unit_range(self, name):
        obj = make_object(name)
        rng = np.random.default_rng(1)
        points = rng.uniform(obj.bounds_min, obj.bounds_max, size=(500, 3))
        colors = obj.albedo(points)
        assert colors.shape == (500, 3)
        assert colors.min() >= 0.0 and colors.max() <= 1.0

    @pytest.mark.parametrize("name", list_objects())
    def test_surface_within_bounds(self, name):
        """No interior point may lie outside the declared bounding box."""
        obj = make_object(name)
        rng = np.random.default_rng(2)
        margin = 0.25
        lo = obj.bounds_min - margin
        hi = obj.bounds_max + margin
        points = rng.uniform(lo, hi, size=(6000, 3))
        inside = obj.sdf(points) <= 0
        outside_box = np.any((points < obj.bounds_min) | (points > obj.bounds_max), axis=1)
        assert not np.any(inside & outside_box), f"{name} spills outside its bounds"

    def test_complexity_ranks_follow_paper_order(self):
        ranks = [make_object(name).complexity_rank for name in REFERENCE_OBJECT_NAMES]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)

    def test_texture_frequency_increases_with_complexity(self):
        freqs = [make_object(name).texture_frequency for name in REFERENCE_OBJECT_NAMES]
        assert freqs[0] < freqs[-1]


class TestSceneComposition:
    def test_placed_object_translation(self):
        obj = make_object("sphere")
        placed = PlacedObject(obj=obj, translation=np.array([2.0, 0.0, 0.0]), instance_id=0)
        assert placed.sdf(np.array([[2.0, 0.0, 0.0]]))[0] < 0
        assert placed.sdf(np.array([[0.0, 0.0, 0.0]]))[0] > 0

    def test_placed_object_scaling_scales_distance(self):
        obj = make_object("sphere")  # radius 0.35
        placed = PlacedObject(obj=obj, scale=2.0, instance_id=0)
        dist = placed.sdf(np.array([[1.4, 0.0, 0.0]]))
        assert dist[0] == pytest.approx(0.7, abs=1e-9)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            PlacedObject(obj=make_object("cube"), scale=0.0, instance_id=0)

    def test_scene_requires_unique_ids(self):
        obj = make_object("cube")
        with pytest.raises(ValueError):
            Scene(
                [
                    PlacedObject(obj=obj, instance_id=0, instance_name="a"),
                    PlacedObject(obj=obj, instance_id=0, instance_name="b"),
                ]
            )

    def test_compose_scene_unique_names_for_duplicates(self):
        scene = compose_scene(["lego", "lego", "ship"], layout="line", seed=None)
        assert scene.instance_names == ["lego", "lego_2", "ship"]

    def test_scene_sdf_is_min_of_members(self, two_object_scene):
        points = np.random.default_rng(3).uniform(-1.2, 1.2, size=(200, 3))
        combined = two_object_scene.sdf(points)
        member = np.min(
            [placed.sdf(points) for placed in two_object_scene.placed], axis=0
        )
        assert np.allclose(combined, member)

    def test_classify_returns_nearest_instance(self, two_object_scene):
        points = np.array([[-0.55, 0.0, 0.0], [0.55, 0.0, 0.0]])
        _, ids = two_object_scene.classify(points)
        assert ids.tolist() == [0, 1]

    def test_classify_albedo_matches_separate_queries(self, two_object_scene):
        points = np.random.default_rng(4).uniform(-1.2, 1.2, size=(500, 3))
        ids, colors = two_object_scene.classify_albedo(points)
        _, expected_ids = two_object_scene.classify(points)
        expected_colors = two_object_scene.albedo(points)
        assert set(ids.tolist()) == {0, 1}
        assert ids.dtype == expected_ids.dtype
        assert np.array_equal(ids, expected_ids)
        assert colors.tobytes() == expected_colors.tobytes()

    def test_one_object_albedo_skips_the_owner_pass(self, two_object_scene, monkeypatch):
        """A one-object scene's albedo equals the nearest-owner reference
        bit for bit (NaN and infinite rows included) without evaluating
        the SDF."""
        single = two_object_scene.subset([1])
        points = np.random.default_rng(5).uniform(-1.2, 1.2, size=(300, 3))
        points[:3] = [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.55, 0.0, 0.0]]
        with np.errstate(invalid="ignore"):  # NaN/inf rows cast to texel cells
            _, owner = single._nearest(points)
            expected = single._owner_albedo(points, owner)
        calls = []
        original_sdf = PlacedObject.sdf

        def counting_sdf(placed, query):
            calls.append(len(query))
            return original_sdf(placed, query)

        monkeypatch.setattr(PlacedObject, "sdf", counting_sdf)
        with np.errstate(invalid="ignore"):
            colors = single.albedo(points)
        assert calls == []
        assert colors.dtype == expected.dtype
        assert colors.tobytes() == expected.tobytes()

    def test_subset_preserves_placement(self, two_object_scene):
        subset = two_object_scene.subset([1])
        assert subset.instance_names == ["cube"]
        assert np.allclose(subset.placed[0].translation, [0.55, 0.0, 0.0])

    def test_subset_missing_id_raises(self, two_object_scene):
        with pytest.raises(ValueError):
            two_object_scene.subset([99])

    def test_bounds_contain_all_members(self, two_object_scene):
        for placed in two_object_scene.placed:
            assert np.all(two_object_scene.bounds_min <= placed.bounds_min + 1e-9)
            assert np.all(two_object_scene.bounds_max >= placed.bounds_max - 1e-9)

    @pytest.mark.parametrize("layout", ["cluster", "circle", "line", "grid"])
    def test_layouts_produce_disjoint_centres(self, layout):
        scene = compose_scene(["sphere", "cube", "torus", "mug"], layout=layout, seed=0)
        centres = np.array([placed.translation for placed in scene.placed])
        distances = np.linalg.norm(centres[:, None, :] - centres[None, :, :], axis=-1)
        off_diagonal = distances[~np.eye(len(centres), dtype=bool)]
        assert off_diagonal.min() > 0.3

    def test_unknown_layout_raises(self):
        with pytest.raises(ValueError):
            compose_scene(["sphere"], layout="spiral")

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            compose_scene([])
