"""Landmark-based affine registration and rigid ICP.

A vertebra frame (`compute_frame`, built from the eight endplate
landmarks) gives a homogeneous matrix: the normalized basis re-scaled
by the vector magnitudes, deliberately without any orthogonalization,
so the alignment can carry shear when the landmark-derived axes are not
perpendicular; `VertebraFrame.skew_degrees` reports how far from 90
degrees the axes are. Registration of a source onto a target frame is
the composition target_matrix @ inverse(source_matrix).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .anatomy import (
    AxesEstimate,
    LandmarkSet,
    PATIENT_AXES,
    VertebraFrame,
    compute_frame,
    detect_vertebra_landmarks,
    fit_spine_curve,
)
from .mesh import (
    LABEL_VERTEBRAL_BODY,
    SurfaceIndex,
    TriangleMesh,
    apply_transform,
    center_of_mass,
    submesh_by_label,
    transform_mesh,
    validate_transform,
)
from .spine import SpineModel, Vertebra

MODES = ("ours", "ours_icp", "icp", "icp_vb")


def frame_to_transform(frame: VertebraFrame) -> np.ndarray:
    """Homogeneous local-to-global alignment of the frame.

    Normalized basis columns plus the center, post-multiplied by
    diag(scales, 1); the basis is used exactly as detected, without
    orthogonalization.
    """
    mags = frame.scales
    n = np.eye(4)
    n[:3, 0] = frame.x_g / mags[0]
    n[:3, 1] = frame.y_g / mags[1]
    n[:3, 2] = frame.z_g / mags[2]
    n[:3, 3] = frame.c_g
    return n @ np.diag([mags[0], mags[1], mags[2], 1.0])


def compute_registration(source_frame: VertebraFrame,
                         target_frame: VertebraFrame) -> np.ndarray:
    """Affine transform mapping the source frame onto the target frame."""
    t_s = frame_to_transform(source_frame)
    t_t = frame_to_transform(target_frame)
    validate_transform(t_s)
    r = t_t @ np.linalg.inv(t_s)
    r[3] = (0.0, 0.0, 0.0, 1.0)
    return r


# ---------------------------------------------------------------------------
# Rigid ICP

@dataclass(frozen=True)
class IcpParams:
    max_iterations: int = 50
    convergence_tol: float = 1e-4  # mm change of mean correspondence distance
    sample_count: int = 2000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if self.sample_count < 3:
            raise ValueError("sample_count must be >= 3")


@dataclass(frozen=True)
class IcpResult:
    transform: np.ndarray
    mean_distance: float
    iterations: int
    history: tuple[float, ...] = field(default=())


def _fit_rigid(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Closed-form least-squares rigid transform src -> dst (SVD)."""
    sc = src.mean(axis=0)
    dc = dst.mean(axis=0)
    h = (src - sc).T @ (dst - dc)
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0 or s[1] <= 1e-12 * s[0]:
        raise ValueError("degenerate correspondences: rank-deficient cross-covariance")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = dc - r @ sc
    out = np.eye(4)
    out[:3, :3] = r
    out[:3, 3] = t
    return out


def icp_rigid(source_points, target_index: SurfaceIndex,
              init: np.ndarray | None = None,
              params: IcpParams | None = None) -> IcpResult:
    """Point-to-point rigid ICP against an indexed target surface.

    Alternates exact closest-point correspondence with the closed-form
    SVD rotation fit. The returned transform maps the init-applied
    source points onto the target, i.e. it composes with (and contains
    no scaling from) init. The recorded mean-distance history is
    non-increasing: an iteration that would raise it is discarded and
    the previous transform kept.
    """
    params = params or IcpParams()
    pts = np.asarray(source_points, dtype=np.float64).reshape(-1, 3)
    if len(pts) < 3:
        raise ValueError("icp needs at least 3 source points")
    spread = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    if spread[1] <= 1e-9 * max(spread[0], 1.0):
        raise ValueError("icp source points are collinear")
    if init is not None:
        pts = apply_transform(init, pts)

    transform = np.eye(4)
    previous = transform
    history: list[float] = []
    for it in range(params.max_iterations):
        moved = apply_transform(transform, pts)
        closest, dist = target_index.query(moved)
        mean_d = float(dist.mean())
        if history and mean_d > history[-1]:
            transform = previous  # revert the step that made things worse
            break
        history.append(mean_d)
        if len(history) > 1 and abs(history[-2] - history[-1]) < params.convergence_tol:
            break
        if it < params.max_iterations - 1:
            previous = transform
            transform = _fit_rigid(pts, closest)
    # the returned mean was measured at the returned transform
    return IcpResult(transform, history[-1], len(history), tuple(history))


# ---------------------------------------------------------------------------
# Spine-level registration

@dataclass(frozen=True)
class RegistrationRun:
    """Registered spine, one transform per level, and the compute wall time."""

    spine: SpineModel
    transforms: tuple[np.ndarray, ...]
    elapsed_s: float


def detection_mesh(vertebra: Vertebra) -> TriangleMesh:
    """Landmarks come from the vertebral body only; use the labeled submesh when present."""
    mesh = vertebra.mesh
    if mesh.labels is not None and np.any(mesh.labels == LABEL_VERTEBRAL_BODY):
        return submesh_by_label(mesh, LABEL_VERTEBRAL_BODY)
    return mesh


def detect_spine_landmarks(spine: SpineModel, *, orientation_hint: AxesEstimate,
                           cos_threshold: float, use_spine_curve: bool) -> list[LandmarkSet]:
    """Eight landmarks per level, in level order.

    A vertebra that already carries landmarks keeps them. With
    use_spine_curve and two levels or more, each level's axes are
    refined by the tangent of a spline through the body centers.
    """
    if all(v.landmarks is not None for v in spine.vertebrae):
        return [v.landmarks for v in spine.vertebrae]
    meshes = [detection_mesh(v) for v in spine.vertebrae]
    tangents = [None] * len(meshes)
    if use_spine_curve and len(meshes) >= 2:
        curve = fit_spine_curve([center_of_mass(m) for m in meshes])
        tangents = list(curve.control_tangents())

    results = []
    for vertebra, mesh, tangent in zip(spine.vertebrae, meshes, tangents):
        if vertebra.landmarks is not None:
            results.append(vertebra.landmarks)
            continue
        try:
            results.append(detect_vertebra_landmarks(
                mesh, curve_tangent=tangent, orientation_hint=orientation_hint,
                cos_threshold=cos_threshold))
        except Exception as e:
            raise RuntimeError(f"{vertebra.level}: landmark detection failed: {e}") from e
    return results


def _sample_rows(points: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    if len(points) <= count:
        return points
    idx = rng.choice(len(points), size=count, replace=False)
    return points[idx]


def register_spine(atlas: SpineModel, targets: SpineModel, mode: str = "ours", *,
                   orientation_hint: AxesEstimate = PATIENT_AXES,
                   cos_threshold: float = 0.8,
                   use_spine_curve: bool = False,
                   icp_params: IcpParams | None = None,
                   seed: int = 0) -> RegistrationRun:
    """Register complete atlas vertebrae onto vertebral-body targets.

    Modes:
      ours      landmark-frame affine per level
      ours_icp  the affine refined by rigid ICP of the body surface
                (the affine's scale is retained; ICP adjusts pose only)
      icp       rigid ICP of the full atlas mesh from identity
      icp_vb    rigid ICP of the atlas body submesh, applied to the
                full atlas mesh

    The elapsed time covers landmark detection, transform computation,
    and mesh application; no file I/O happens here.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if atlas.levels != targets.levels:
        raise ValueError(
            f"level mismatch: atlas {atlas.levels} vs targets {targets.levels}"
        )
    icp_params = icp_params or IcpParams()
    rng = np.random.default_rng(seed)

    t0 = time.perf_counter()
    detection = dict(orientation_hint=orientation_hint, cos_threshold=cos_threshold,
                     use_spine_curve=use_spine_curve)
    source_landmarks = detect_spine_landmarks(atlas, **detection)
    if mode in ("ours", "ours_icp"):
        target_landmarks = detect_spine_landmarks(targets, **detection)

    registered = []
    transforms = []
    for i, vertebra in enumerate(atlas.vertebrae):
        level = vertebra.level
        src_lms = source_landmarks[i]
        try:
            affine = None
            if mode in ("ours", "ours_icp"):
                affine = compute_registration(compute_frame(src_lms),
                                              compute_frame(target_landmarks[i]))
            if mode == "ours":
                total = affine
            else:
                source_mesh = vertebra.mesh if mode == "icp" else detection_mesh(vertebra)
                pts = _sample_rows(source_mesh.vertices, icp_params.sample_count, rng)
                refine = icp_rigid(pts, SurfaceIndex(targets[i].mesh), init=affine,
                                   params=icp_params)
                # icp_rigid's transform acts on the affine-mapped points
                total = refine.transform if affine is None else refine.transform @ affine
        except Exception as e:
            raise RuntimeError(f"{level}: {mode} registration failed: {e}") from e

        registered.append(vertebra.with_(
            mesh=transform_mesh(vertebra.mesh, total),
            landmarks=src_lms.transformed(total),
            axes=None,
        ))
        transforms.append(total)
    elapsed = time.perf_counter() - t0
    return RegistrationRun(SpineModel(tuple(registered)), tuple(transforms), elapsed)
