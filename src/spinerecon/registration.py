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
)
from .mesh import (
    LABEL_VERTEBRAL_BODY,
    SurfaceIndex,
    TriangleMesh,
    apply_transform,
    submesh_by_label,
    transform_mesh,
    validate_transform,
)
from .spine import SpineModel, Vertebra, map_levels

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
    """Landmarks come from the vertebral body only; use the labeled submesh when present.

    A mesh whose labels are all body and whose vertices all lie on a
    triangle is returned as it is: its submesh would be an equal copy.
    """
    mesh = vertebra.mesh
    body = None if mesh.labels is None else mesh.labels == LABEL_VERTEBRAL_BODY
    if body is None or not body.any():
        return mesh
    if body.all() and np.bincount(mesh.triangles.ravel(), minlength=mesh.n_vertices).all():
        return mesh
    return submesh_by_label(mesh, LABEL_VERTEBRAL_BODY)


# Detection maps a spine's middle level, then its two walks outward (two and
# four jobs for an atlas and a target spine, two for one spine), and threads
# contend for the interpreter lock over many small numpy calls. Pool time over
# plain-loop time, per-run medians of 12 alternating runs of 5-level spines,
# two spines / one spine (2-vCPU VM): 2.18 / 2.05 at 1.4k body triangles per
# level, 1.41 / 1.46 at 3.4k, 1.12 / 1.17 at 5.6k, 0.99-1.14 / 0.97-1.02 at
# 7.6k, 0.84-0.91 / 0.96-1.07 at 9.0k, 0.80 / 0.92 at 10.6k and 0.70 / 0.82
# at 18k. Smaller levels are detected in a plain loop.
_POOL_MIN_TRIANGLES = 8000


def _detect_landmarks(spines: list[SpineModel], *, orientation_hint: AxesEstimate,
                      cos_threshold: float) -> list[list[LandmarkSet]]:
    """Eight landmarks per level, in level order, for each spine.

    Each spine's middle level is detected first, seeded with the
    orientation hint. Then two walks leave it, one up to the first
    level and one down to the last, each level seeded with the axes
    detected on its inner neighbour. A level that carries landmarks
    keeps them and passes on the seed it was given. The middle levels
    are one map and the walks a second; each runs on `spine.map_levels`
    when it has two jobs or more and the smallest mesh to detect has
    `_POOL_MIN_TRIANGLES` or more, otherwise in a plain loop. Either way
    a walk stops at its first failing level, and the first failing job's
    error is raised: middle levels before walks, then spine order, the
    walk up before the walk down.
    """
    results = [[v.landmarks for v in spine.vertebrae] for spine in spines]
    todo = [s for s, spine in enumerate(spines) if any(v.landmarks is None for v in spine.vertebrae)]
    sizes = [v.mesh.n_triangles for s in todo for v in spines[s].vertebrae if v.landmarks is None]

    def walk(s: int, levels, seed: AxesEstimate, source: str) -> tuple[AxesEstimate, str]:
        for i in levels:
            vertebra = spines[s][i]
            if vertebra.landmarks is None:
                try:
                    results[s][i], seed = detect_vertebra_landmarks(
                        detection_mesh(vertebra), orientation_hint=seed,
                        cos_threshold=cos_threshold)
                except Exception as e:
                    raise RuntimeError(f"{vertebra.level}: landmark detection with axes "
                                       f"seeded from {source} failed: {e}") from e
                source = f"neighbour {vertebra.level}"
        return seed, source

    def run(jobs: list) -> list:
        if len(jobs) > 1 and min(sizes) >= _POOL_MIN_TRIANGLES:
            return map_levels(lambda k: walk(*jobs[k]), len(jobs))
        return [walk(*job) for job in jobs]

    middles = [(len(spines[s]) - 1) // 2 for s in todo]
    seeds = run([(s, [m], orientation_hint, "the orientation hint") for s, m in zip(todo, middles)])
    run([(s, levels, *seed) for s, m, seed in zip(todo, middles, seeds)
         for levels in (range(m - 1, -1, -1), range(m + 1, len(spines[s]))) if levels])
    return results


def detect_spine_landmarks(spine: SpineModel, *, orientation_hint: AxesEstimate,
                           cos_threshold: float) -> list[LandmarkSet]:
    """Eight landmarks per level, in level order.

    A vertebra that already carries landmarks keeps them. The middle
    level's axes are seeded with the orientation hint and every other
    level's with its neighbour's, from the middle outward.
    """
    return _detect_landmarks([spine], orientation_hint=orientation_hint,
                             cos_threshold=cos_threshold)[0]


def _sample_rows(points: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    if len(points) <= count:
        return points
    idx = rng.choice(len(points), size=count, replace=False)
    return points[idx]


def register_spine(atlas: SpineModel, targets: SpineModel, mode: str = "ours", *,
                   orientation_hint: AxesEstimate = PATIENT_AXES,
                   cos_threshold: float = 0.8,
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

    Landmark detection of the atlas and, for `ours` and `ours_icp`, the
    targets maps the spines' middle levels, then their walks outward
    (`_detect_landmarks`); levels of 8,000 triangles or more run on
    `spine.map_levels`, on one thread per usable CPU at most. The ICP
    modes register the levels on it too. Every level's ICP sample is
    drawn first, in level order, so the result does not depend on the
    worker count; when several levels fail, the first in level order is
    reported, except that detection reports in its own order, atlas
    detection before target detection.
    `ours` computes its transforms serially. The elapsed time is wall
    time; it covers landmark detection, transform computation, and mesh
    application; no file I/O happens here.
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
    detection = dict(orientation_hint=orientation_hint, cos_threshold=cos_threshold)
    if mode in ("ours", "ours_icp"):
        source_landmarks, target_landmarks = _detect_landmarks([atlas, targets], **detection)
    else:
        [source_landmarks] = _detect_landmarks([atlas], **detection)
    if mode != "ours":
        samples = [_sample_rows((v.mesh if mode == "icp" else detection_mesh(v)).vertices,
                                icp_params.sample_count, rng)
                   for v in atlas.vertebrae]

    def register_level(i: int) -> tuple[Vertebra, np.ndarray]:
        vertebra = atlas.vertebrae[i]
        try:
            affine = None
            if mode in ("ours", "ours_icp"):
                affine = compute_registration(compute_frame(source_landmarks[i]),
                                              compute_frame(target_landmarks[i]))
            if mode == "ours":
                total = affine
            else:
                refine = icp_rigid(samples[i], SurfaceIndex(targets[i].mesh), init=affine,
                                   params=icp_params)
                # icp_rigid's transform acts on the affine-mapped points
                total = refine.transform if affine is None else refine.transform @ affine
        except Exception as e:
            raise RuntimeError(f"{vertebra.level}: {mode} registration failed: {e}") from e
        registered = vertebra.with_(
            mesh=transform_mesh(vertebra.mesh, total),
            landmarks=source_landmarks[i].transformed(total),
            axes=None,
        )
        return registered, total

    if mode == "ours":  # about 1 ms per level: a pool would cost more than it saves
        results = list(map(register_level, range(len(atlas))))
    else:
        results = map_levels(register_level, len(atlas))
    elapsed = time.perf_counter() - t0
    registered, transforms = zip(*results)
    return RegistrationRun(SpineModel(registered), transforms, elapsed)
