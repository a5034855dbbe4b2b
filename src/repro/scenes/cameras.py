"""Pinhole cameras and pose trajectories.

Two trajectory generators mirror the paper's two dataset styles:

* :func:`orbit_cameras` — 360-degree orbits around an object/scene, as in the
  NeRF synthetic dataset and the paper's rotating-viewpoint FPS evaluation
  (7.5 s per revolution);
* :func:`forward_facing_cameras` — LLFF-style forward-facing poses for the
  "real-world" scenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.scenes.primitives import _norm3


@dataclass
class Camera:
    """A pinhole camera with position/orientation and image resolution."""

    position: np.ndarray
    look_at: np.ndarray
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    fov_deg: float = 50.0
    width: int = 128
    height: int = 128

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64)
        self.look_at = np.asarray(self.look_at, dtype=np.float64)
        self.up = np.asarray(self.up, dtype=np.float64)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("camera resolution must be positive")
        if not 0.0 < self.fov_deg < 180.0:
            raise ValueError("field of view must be in (0, 180) degrees")

    @property
    def forward(self) -> np.ndarray:
        direction = self.look_at - self.position
        norm = np.linalg.norm(direction)
        if norm == 0:
            raise ValueError("camera position and look_at coincide")
        return direction / norm

    @property
    def rotation(self) -> np.ndarray:
        """Camera-to-world rotation with columns (right, true_up, forward)."""
        forward = self.forward
        right = np.cross(forward, self.up)
        norm = np.linalg.norm(right)
        if norm < 1e-9:
            raise ValueError("camera up vector is parallel to the view direction")
        right = right / norm
        true_up = np.cross(right, forward)
        return np.stack([right, true_up, forward], axis=1)

    def resized(self, width: int, height: int) -> "Camera":
        """A copy of this camera with a different image resolution."""
        return Camera(
            position=self.position.copy(),
            look_at=self.look_at.copy(),
            up=self.up.copy(),
            fov_deg=self.fov_deg,
            width=int(width),
            height=int(height),
        )

    def zoomed_at(self, target: np.ndarray, distance_scale: float) -> "Camera":
        """A copy looking at ``target`` with the viewing distance rescaled.

        Used by the segmentation module when building per-object training
        views (crop + enlarge is emulated in 3D by moving the camera closer
        to the object so it fills the frame).
        """
        target = np.asarray(target, dtype=np.float64)
        offset = self.position - self.look_at
        return Camera(
            position=target + offset * float(distance_scale),
            look_at=target,
            up=self.up.copy(),
            fov_deg=self.fov_deg,
            width=self.width,
            height=self.height,
        )


def camera_rays(camera: Camera) -> tuple:
    """Generate one ray per pixel.

    Returns:
        ``(origins, directions)`` arrays of shape ``(H*W, 3)``; directions
        are unit length, ordered row-major (matching ``image.reshape(-1, 3)``).
    """
    height, width = camera.height, camera.width
    focal = 0.5 * width / np.tan(0.5 * np.deg2rad(camera.fov_deg))
    xs = (np.arange(width) + 0.5) - 0.5 * width
    ys = 0.5 * height - (np.arange(height) + 0.5)
    grid_x, grid_y = np.meshgrid(xs, ys)
    directions_cam = np.stack(
        [grid_x / focal, grid_y / focal, np.ones_like(grid_x)], axis=-1
    ).reshape(-1, 3)
    directions = directions_cam @ camera.rotation.T
    directions /= _norm3(directions)[:, None]
    origins = np.broadcast_to(camera.position, directions.shape).copy()
    return origins, directions


def orbit_cameras(
    center: np.ndarray,
    radius: float,
    count: int,
    elevation_deg: float = 25.0,
    width: int = 128,
    height: int = 128,
    fov_deg: float = 50.0,
    full_circle: bool = True,
) -> list:
    """Cameras orbiting ``center`` on a circle at the given elevation."""
    if count <= 0:
        raise ValueError("count must be positive")
    center = np.asarray(center, dtype=np.float64)
    elevation = np.deg2rad(elevation_deg)
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=not full_circle)
    cameras = []
    for angle in angles:
        position = center + radius * np.array(
            [
                np.cos(angle) * np.cos(elevation),
                np.sin(elevation),
                np.sin(angle) * np.cos(elevation),
            ]
        )
        cameras.append(
            Camera(
                position=position,
                look_at=center,
                fov_deg=fov_deg,
                width=width,
                height=height,
            )
        )
    return cameras


def forward_facing_cameras(
    center: np.ndarray,
    distance: float,
    count: int,
    spread: float = 0.6,
    width: int = 128,
    height: int = 128,
    fov_deg: float = 55.0,
) -> list:
    """LLFF-style forward-facing cameras.

    Cameras are distributed on a small planar patch at ``distance`` in front
    of the scene ``center`` (along +Z), all looking at the centre — the
    capture pattern of handheld real-world forward-facing datasets.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    center = np.asarray(center, dtype=np.float64)
    cameras = []
    # Deterministic low-discrepancy pattern over the capture plane.
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    for index in range(count):
        u = (index / golden) % 1.0 - 0.5
        v = (index + 0.5) / count - 0.5
        offset = np.array([u * 2.0 * spread, v * spread, 0.0])
        position = center + np.array([0.0, 0.15, distance]) + offset
        cameras.append(
            Camera(
                position=position,
                look_at=center,
                fov_deg=fov_deg,
                width=width,
                height=height,
            )
        )
    return cameras
