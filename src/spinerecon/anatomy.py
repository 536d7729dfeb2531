"""Vertebra anatomy: local axes, endplate extraction, landmarks and their frame.

Each vertebral body yields eight endplate landmarks, four per plate:
left/right extremes of a coronal vertex slab and posterior/anterior
extremes of a sagittal slab. The numbering convention is

    l1 superior-left    l2 superior-right
    l3 inferior-left    l4 inferior-right
    l5 superior-posterior  l6 superior-anterior
    l7 inferior-posterior  l8 inferior-anterior

which is the unique assignment that makes the frame construction
(`compute_frame`) dimensionally consistent (left-right pairs
feed the lateral basis vector, posterior-anterior pairs the anterior
one, and plate-to-plate pairs the longitudinal one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (
    TriangleMesh,
    apply_transform,
    center_of_mass,
    face_normals,
    median_edge_length,
    pair_component_labels,
    principal_axes,
    triangle_adjacency,
)


def _cross3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v of 3-vectors: np.cross's products and differences, without its axis handling."""
    (u0, u1, u2), (v0, v1, v2) = u.tolist(), v.tolist()
    return np.array([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


def _unit(v, name="vector"):
    v = np.asarray(v, dtype=np.float64).reshape(3)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ValueError(f"{name} has near-zero length")
    return v / n


@dataclass(frozen=True)
class AxesEstimate:
    """Local anatomical directions of one vertebra.

    lateral points left-to-right, anterior posterior-to-anterior,
    longitudinal inferior-to-superior. Always orthonormal and
    right-handed (lateral x anterior = longitudinal).
    """

    lateral: np.ndarray
    anterior: np.ndarray
    longitudinal: np.ndarray

    def __post_init__(self):
        lat = _unit(self.lateral, "lateral")
        ant = _unit(self.anterior, "anterior")
        lng = _unit(self.longitudinal, "longitudinal")
        m = np.column_stack([lat, ant, lng])
        if np.max(np.abs(m.T @ m - np.eye(3))) > 1e-6:
            raise ValueError("axes are not orthonormal")
        if np.max(np.abs(_cross3(lat, ant) - lng)) > 1e-6:
            raise ValueError("axes are not right-handed (lateral x anterior != longitudinal)")
        for a in (lat, ant, lng):
            a.flags.writeable = False
        object.__setattr__(self, "lateral", lat)
        object.__setattr__(self, "anterior", ant)
        object.__setattr__(self, "longitudinal", lng)

    def as_matrix(self) -> np.ndarray:
        """Columns are (lateral, anterior, longitudinal)."""
        return np.column_stack([self.lateral, self.anterior, self.longitudinal])

    def rotated(self, rotation: np.ndarray) -> "AxesEstimate":
        r = np.asarray(rotation, dtype=np.float64)
        return AxesEstimate(r @ self.lateral, r @ self.anterior, r @ self.longitudinal)


#: Default patient orientation: +x left-to-right, +y posterior-to-anterior,
#: +z inferior-to-superior.
PATIENT_AXES = AxesEstimate(
    lateral=np.array([1.0, 0.0, 0.0]),
    anterior=np.array([0.0, 1.0, 0.0]),
    longitudinal=np.array([0.0, 0.0, 1.0]),
)

_LANDMARK_NAMES = ("l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8")
_VECTOR_PAIRS = np.triu_indices(4, k=1)  # the pairs of the four inferior-to-superior vectors


@dataclass(frozen=True)
class LandmarkSet:
    """The eight labeled endplate points of one vertebra (millimeters)."""

    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray
    l4: np.ndarray
    l5: np.ndarray
    l6: np.ndarray
    l7: np.ndarray
    l8: np.ndarray

    def __post_init__(self):
        pts = []
        for name in _LANDMARK_NAMES:
            p = np.asarray(getattr(self, name), dtype=np.float64).reshape(3)
            if not np.isfinite(p).all():
                raise ValueError(f"landmark {name} is not finite")
            p.flags.writeable = False
            object.__setattr__(self, name, p)
            pts.append(p)
        arr = np.array(pts)
        # float equality, so -0.0 equals 0.0; each point equals itself on the diagonal
        if np.count_nonzero((arr[:, None, :] == arr[None, :, :]).all(axis=2)) != 8:
            raise ValueError("landmarks are not pairwise distinct")
        if np.dot(self.l2 - self.l1, self.l4 - self.l3) <= 0:
            raise ValueError("inconsistent left-right ordering between endplates")
        if np.dot(self.l6 - self.l5, self.l8 - self.l7) <= 0:
            raise ValueError("inconsistent posterior-anterior ordering between endplates")
        ups = np.array([self.l1 - self.l3, self.l2 - self.l4,
                        self.l5 - self.l7, self.l6 - self.l8])
        dots = ups @ ups.T
        if np.any(dots[_VECTOR_PAIRS] <= 0):
            raise ValueError("inferior-to-superior pair vectors are not consistently oriented")

    def points(self) -> np.ndarray:
        """All eight landmarks as an (8, 3) array, l1..l8 order."""
        return np.array([getattr(self, n) for n in _LANDMARK_NAMES])

    def transformed(self, T) -> "LandmarkSet":
        mapped = apply_transform(T, self.points())
        return LandmarkSet(*mapped)

    def superior_points(self) -> np.ndarray:
        return np.array([self.l1, self.l2, self.l5, self.l6])

    def inferior_points(self) -> np.ndarray:
        return np.array([self.l3, self.l4, self.l7, self.l8])

    def to_dict(self) -> dict:
        return {n: [float(x) for x in getattr(self, n)] for n in _LANDMARK_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> "LandmarkSet":
        points = []
        for n in _LANDMARK_NAMES:
            if n not in d:
                raise ValueError(f"landmark dict is missing key {n!r}")
            try:
                points.append(np.asarray(d[n], dtype=np.float64).reshape(3))
            except (TypeError, ValueError):
                raise ValueError(f"landmark {n!r} must be 3 numbers, got {d[n]!r}") from None
        return cls(*points)


@dataclass(frozen=True)
class VertebraFrame:
    """Un-normalized local basis (x lateral, y anterior, z longitudinal) and center."""

    x_g: np.ndarray
    y_g: np.ndarray
    z_g: np.ndarray
    c_g: np.ndarray

    def __post_init__(self):
        for name in ("x_g", "y_g", "z_g", "c_g"):
            v = np.asarray(getattr(self, name), dtype=np.float64).reshape(3)
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        mags = self.scales
        if np.any(mags < 1e-9):
            raise ValueError(f"degenerate frame: basis magnitudes {mags}")
        basis = np.column_stack([self.x_g / mags[0], self.y_g / mags[1], self.z_g / mags[2]])
        if np.linalg.det(basis) <= 0:
            raise ValueError("degenerate frame: left-handed basis")

    @property
    def scales(self) -> np.ndarray:
        """Basis vector magnitudes (width, depth, height of the body)."""
        return np.array([
            np.linalg.norm(self.x_g),
            np.linalg.norm(self.y_g),
            np.linalg.norm(self.z_g),
        ])

    @property
    def skew_degrees(self) -> float:
        """Largest pairwise deviation of the basis axes from 90 degrees."""
        mags = self.scales
        u = [self.x_g / mags[0], self.y_g / mags[1], self.z_g / mags[2]]
        worst = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                ang = np.degrees(np.arccos(np.clip(u[i] @ u[j], -1.0, 1.0)))
                worst = max(worst, abs(ang - 90.0))
        return worst


def compute_frame(landmarks: LandmarkSet) -> VertebraFrame:
    """Vertebra frame from the eight landmarks.

    x = ((l2-l1) + (l4-l3)) / 2
    y = ((l6-l5) + (l8-l7)) / 2
    z = ((l1-l3) + (l2-l4) + (l5-l7) + (l6-l8)) / 4
    center = mean of all eight landmarks.
    """
    lm = landmarks
    x_g = 0.5 * ((lm.l2 - lm.l1) + (lm.l4 - lm.l3))
    y_g = 0.5 * ((lm.l6 - lm.l5) + (lm.l8 - lm.l7))
    z_g = 0.25 * ((lm.l1 - lm.l3) + (lm.l2 - lm.l4) + (lm.l5 - lm.l7) + (lm.l6 - lm.l8))
    c_g = lm.points().mean(axis=0)
    return VertebraFrame(x_g, y_g, z_g, c_g)


def spine_curve_tangents(centers) -> np.ndarray:
    """Unit tangents, shape (n, 3), at the ordered vertebra centers of the
    natural cubic spline through them, chord-length parameterized."""
    # imported here: only anatomy.use_spine_curve=true fits a curve
    from scipy.interpolate import CubicSpline

    pts = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    if len(pts) < 2:
        raise ValueError("need at least 2 centers to fit a spine curve")
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if np.any(steps < 1e-9):
        raise ValueError("consecutive centers are coincident")
    params = np.concatenate([[0.0], np.cumsum(steps)])
    spline = CubicSpline(params, pts, axis=0, bc_type="natural")
    return np.array([_unit(spline(s, 1), "spline tangent") for s in params])


def estimate_axes(mesh: TriangleMesh, curve_tangent=None,
                  orientation_hint: AxesEstimate = PATIENT_AXES) -> AxesEstimate:
    """Approximate the local anatomical axes of one vertebral body.

    The longitudinal direction is the supplied spine-curve tangent when
    present, otherwise the principal axis best aligned with the hint's
    longitudinal. The remaining principal axes take the lateral/anterior
    roles by maximal alignment with the hint, then the triple is
    re-orthogonalized (longitudinal kept fixed) and signs are flipped
    into the hint hemispheres. The hint only disambiguates axis
    identity and sign; the output is orthonormal and right-handed even
    when the hint is wrong.
    """
    principal = principal_axes(mesh)
    axes = [principal[:, k] for k in range(3)]

    if curve_tangent is not None:
        longitudinal = _unit(curve_tangent, "curve tangent")
        consumed = int(np.argmax([abs(a @ longitudinal) for a in axes]))
    else:
        consumed = int(np.argmax([abs(a @ orientation_hint.longitudinal) for a in axes]))
        longitudinal = axes[consumed]
    if longitudinal @ orientation_hint.longitudinal < 0:
        longitudinal = -longitudinal

    rest = [a for k, a in enumerate(axes) if k != consumed]
    # two candidate role assignments; pick the better aligned one
    score_a = abs(rest[0] @ orientation_hint.lateral) + abs(rest[1] @ orientation_hint.anterior)
    score_b = abs(rest[1] @ orientation_hint.lateral) + abs(rest[0] @ orientation_hint.anterior)
    ant_cand = rest[1] if score_a >= score_b else rest[0]
    lat_cand = rest[0] if score_a >= score_b else rest[1]

    anterior = ant_cand - (ant_cand @ longitudinal) * longitudinal
    if np.linalg.norm(anterior) < 1e-8:
        anterior = _cross3(longitudinal, lat_cand)
    anterior = _unit(anterior, "anterior")
    if anterior @ orientation_hint.anterior < 0:
        anterior = -anterior
    lateral = _cross3(anterior, longitudinal)
    return AxesEstimate(lateral, anterior, longitudinal)


# rings of non-candidate triangles that still join two endplate candidate regions
_BRIDGE_HOPS = 2


def extract_endplates(mesh: TriangleMesh, axes: AxesEstimate,
                      cos_threshold: float = 0.8) -> tuple[TriangleMesh, TriangleMesh]:
    """Superior and inferior endplate patches of a vertebral body.

    Triangles whose normal aligns with +/- longitudinal within
    cos_threshold are candidates; a connectivity filter keeps only the
    largest connected candidate region per plate, which removes small
    disconnected false-positive patches. Candidate regions separated by
    at most two rings of non-candidate triangles count as
    connected (noisy segmentation normals puncture the candidate set),
    but regions with no mesh path between them are never merged. On a
    clean mesh the result is exactly the largest edge-connected
    candidate component.
    """
    if not 0.0 < cos_threshold < 1.0:
        raise ValueError("cos_threshold must lie in (0, 1)")
    dots = face_normals(mesh) @ axes.longitudinal
    adj_i, adj_j = triangle_adjacency(mesh)

    def plate(sign: float, name: str) -> TriangleMesh:
        candidate = sign * dots >= cos_threshold
        if not np.any(candidate):
            raise ValueError(
                f"{name} endplate: no triangles with normal similarity >= {cos_threshold}; "
                "check axes or lower the threshold"
            )
        member = candidate.copy()
        for _ in range(_BRIDGE_HOPS):
            grown = member.copy()
            grown[adj_j[member[adj_i]]] = True
            grown[adj_i[member[adj_j]]] = True
            member = grown
        # components of the dilated region, its triangles renumbered in order;
        # rank them by candidate count, ties to the one holding the smallest triangle
        members = np.flatnonzero(member)
        local = np.full(mesh.n_triangles, -1, dtype=np.int64)
        local[members] = np.arange(len(members))
        inside = member[adj_i] & member[adj_j]
        _, comp = pair_component_labels(len(members), local[adj_i[inside]], local[adj_j[inside]])
        is_candidate = candidate[members]
        winner = int(np.argmax(np.bincount(comp[is_candidate])))
        return mesh.submesh(members[is_candidate & (comp == winner)])

    return plate(+1.0, "superior"), plate(-1.0, "inferior")


def _plate_extremes(plate: TriangleMesh, axes: AxesEstimate, name: str):
    verts = plate.vertices
    rel = verts - center_of_mass(plate)
    half_width = 2.0 * median_edge_length(plate)

    def extremes(plane_normal, direction, plane_name):
        inside = np.nonzero(np.abs(rel @ plane_normal) <= half_width)[0]
        if len(inside) == 0:
            raise ValueError(f"{name} plate: {plane_name} slab is empty (half-width "
                             f"{half_width:.3g} mm, twice the median plate edge)")
        along = verts[inside] @ direction
        # ties resolve to the smallest vertex index (first occurrence)
        return verts[inside[int(np.argmax(along))]], verts[inside[int(np.argmin(along))]]

    anterior, posterior = extremes(axes.lateral, axes.anterior, "sagittal")
    right, left = extremes(axes.anterior, axes.lateral, "coronal")
    return {"anterior": anterior, "posterior": posterior, "left": left, "right": right}


def detect_landmarks(superior: TriangleMesh, inferior: TriangleMesh,
                     axes: AxesEstimate) -> LandmarkSet:
    """Eight endplate landmarks from extracted plates.

    Each plate is intersected with the sagittal plane (normal =
    lateral, through the plate centroid) as a vertex slab whose
    extremes along +/- anterior give the anterior/posterior landmarks;
    the coronal slab gives left/right. The slab's half-width is twice
    the plate's median edge length.
    """
    sup = _plate_extremes(superior, axes, "superior")
    inf = _plate_extremes(inferior, axes, "inferior")
    return LandmarkSet(
        l1=sup["left"], l2=sup["right"],
        l3=inf["left"], l4=inf["right"],
        l5=sup["posterior"], l6=sup["anterior"],
        l7=inf["posterior"], l8=inf["anterior"],
    )


def detect_vertebra_landmarks(mesh: TriangleMesh, *, curve_tangent=None,
                              orientation_hint: AxesEstimate = PATIENT_AXES,
                              cos_threshold: float = 0.8) -> LandmarkSet:
    """Full per-vertebra landmark path: axes, endplates, landmarks."""
    axes = estimate_axes(mesh, curve_tangent, orientation_hint)
    sup, inf = extract_endplates(mesh, axes, cos_threshold)
    return detect_landmarks(sup, inf, axes)
