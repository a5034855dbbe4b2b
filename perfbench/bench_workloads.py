"""The benchmark's workloads: which scene, which backend, which sizes.

Importing this module imports nothing from the library, so the runner can
list workloads without loading it.  :func:`build_dataset` and
:func:`pipeline_config` import lazily, inside the measuring interpreter.
"""

from __future__ import annotations

#: Dataset and render sizes shared by both workloads.  They are the
#: figure suite's quick-mode dataset (96 px, 6 training and 2 test views)
#: with 96 px profiler and close-up renders, a 600-frame FPS trace and the
#: configuration space capped at g = 96, which keeps one cold + warm unit
#: at roughly 25-35 s on a 2-CPU host.
DATASET_RESOLUTION = 96
NUM_TRAIN_VIEWS = 6
NUM_TEST_VIEWS = 2
PROFILE_RESOLUTION = 96
OBJECT_EVAL_RESOLUTION = 96
NUM_FPS_FRAMES = 600
GRANULARITIES = (16, 24, 32, 48, 64, 96)
#: Camera placement of ``generate_dataset``'s defaults.
CAMERA_DISTANCE_SCALE = 1.35
ORBIT_ELEVATION = 25.0
FOV_DEGREES = 50.0

#: Largest seeded offset of a held-out test view: azimuth and elevation
#: of an orbit view (degrees), position of a forward-facing view (world
#: units).
TEST_VIEW_DEGREES = 0.25
TEST_VIEW_SHIFT = 0.0025

WORKLOADS = {
    "scene4-inline": {
        "scene": "scene4",
        "backend": "thread",
        "workers": 1,
        "transport": None,
    },
    "realworld-proc2": {
        "scene": "realworld",
        "backend": "process",
        "workers": 2,
        "transport": "fork",
    },
}


def test_cameras(scene, trajectory: str, seed: int) -> list:
    """The held-out test views, drawn from ``seed``.

    They sit where ``generate_dataset`` puts its test views, each moved by
    a seeded offset of at most :data:`TEST_VIEW_DEGREES` /
    :data:`TEST_VIEW_SHIFT`.  Only the scene-level evaluation sees them, so
    the seed changes the scored views but not the work of segmentation,
    profiling, selection or baking.
    """
    import numpy as np

    from repro.scenes.cameras import Camera

    rng = np.random.default_rng(seed)
    center = scene.center
    distance = CAMERA_DISTANCE_SCALE * scene.extent
    cameras = []
    for index in range(NUM_TEST_VIEWS):
        if trajectory == "orbit":
            azimuth = np.deg2rad(
                360.0 * index / NUM_TEST_VIEWS
                + rng.uniform(-TEST_VIEW_DEGREES, TEST_VIEW_DEGREES)
            )
            elevation = np.deg2rad(
                ORBIT_ELEVATION + 10.0 + rng.uniform(-TEST_VIEW_DEGREES, TEST_VIEW_DEGREES)
            )
            position = center + distance * np.array(
                [
                    np.cos(azimuth) * np.cos(elevation),
                    np.sin(elevation),
                    np.sin(azimuth) * np.cos(elevation),
                ]
            )
        else:
            u = (index / ((1.0 + np.sqrt(5.0)) / 2.0)) % 1.0 - 0.5
            v = (index + 0.5) / NUM_TEST_VIEWS - 0.5
            offset = np.array([u * 0.8, v * 0.4, 0.0])
            offset[:2] += rng.uniform(-TEST_VIEW_SHIFT, TEST_VIEW_SHIFT, size=2)
            position = center + np.array([0.0, 0.15, 1.05 * distance]) + offset
        cameras.append(
            Camera(
                position=position,
                look_at=center,
                fov_deg=FOV_DEGREES,
                width=DATASET_RESOLUTION,
                height=DATASET_RESOLUTION,
            )
        )
    return cameras


def build_dataset(workload: str, seed: int):
    """Generate the workload's dataset (the timed part of set-up).

    Scene and training views are those of the figure suite (library seed
    0); the test views come from :func:`test_cameras`.
    """
    from repro.render.engine import default_engine
    from repro.scenes.cameras import forward_facing_cameras, orbit_cameras
    from repro.scenes.dataset import SceneDataset
    from repro.scenes.library import make_realworld_scene, make_simulated_scene

    name = WORKLOADS[workload]["scene"]
    if name == "scene4":
        scene, trajectory = make_simulated_scene(4, seed=0), "orbit"
    else:
        scene, trajectory = make_realworld_scene(seed=0), "forward"
    distance = CAMERA_DISTANCE_SCALE * scene.extent
    size = {"width": DATASET_RESOLUTION, "height": DATASET_RESOLUTION, "fov_deg": FOV_DEGREES}
    if trajectory == "orbit":
        train = orbit_cameras(
            scene.center, radius=distance, count=NUM_TRAIN_VIEWS,
            elevation_deg=ORBIT_ELEVATION, **size,
        )
    else:
        train = forward_facing_cameras(
            scene.center, distance=distance, count=NUM_TRAIN_VIEWS, **size
        )
    test = test_cameras(scene, trajectory, seed)
    engine = default_engine()
    return SceneDataset(
        scene=scene,
        train_cameras=train,
        train_views=engine.render_scene_views(scene, train),
        test_cameras=test,
        test_views=engine.render_scene_views(scene, test),
        name=name,
    )


def pipeline_config(workload: str):
    """The :class:`PipelineConfig` both passes of the workload use."""
    from repro.core.config_space import ConfigurationSpace
    from repro.core.pipeline import PipelineConfig

    spec = WORKLOADS[workload]
    return PipelineConfig(
        config_space=ConfigurationSpace(granularities=GRANULARITIES),
        profile_resolution=PROFILE_RESOLUTION,
        object_eval_resolution=OBJECT_EVAL_RESOLUTION,
        num_fps_frames=NUM_FPS_FRAMES,
        render_workers=spec["workers"],
        backend=spec["backend"],
        transport=spec["transport"],
        dag_workers=0,
    )
