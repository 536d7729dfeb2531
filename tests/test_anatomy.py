import re

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from helpers import box_mesh, ellipse_disk, random_rigid, sheet_mesh
from spinerecon.anatomy import (
    AxesEstimate,
    LandmarkSet,
    PATIENT_AXES,
    detect_landmarks,
    detect_vertebra_landmarks,
    estimate_axes,
    extract_endplates,
    fit_spine_curve,
)
from spinerecon.mesh import TriangleMesh, transform_mesh
from spinerecon.synthetic import default_vertebra_params, generate_vertebra


class TestSpineCurve:
    def test_collinear_points_give_axial_tangents(self):
        pts = np.column_stack([np.zeros(5), np.zeros(5), np.linspace(0, 160, 5)])
        tangents = fit_spine_curve(pts).control_tangents()
        for t in tangents:
            np.testing.assert_allclose(np.abs(t), [0, 0, 1], atol=1e-9)

    def test_circle_arc_tangents_orthogonal_to_radius(self):
        r = 100.0
        angles = np.radians(np.arange(0, 91, 5))
        pts = np.column_stack([np.zeros_like(angles), r * np.cos(angles), r * np.sin(angles)])
        tangents = fit_spine_curve(pts).control_tangents()
        for point, tangent in zip(pts, tangents):
            dev = np.degrees(np.arcsin(np.clip(abs(tangent @ (point / r)), -1, 1)))
            assert dev < 2.0

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_spine_curve([[0, 0, 0]])

    def test_duplicate_consecutive_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            fit_spine_curve([[0, 0, 0], [0, 0, 0], [0, 0, 10]])

    def test_interpolates_controls_exactly(self):
        rng = np.random.default_rng(1)
        pts = np.cumsum(rng.uniform(1, 10, (6, 3)), axis=0)
        curve = fit_spine_curve(pts)
        for s, p in zip(curve.params, pts):
            np.testing.assert_allclose(curve.spline(s), p, atol=1e-9)


class TestEstimateAxes:
    def test_axis_aligned_body_recovers_world_axes(self):
        mesh, _, _ = generate_vertebra(
            default_vertebra_params("L3", with_posterior=False))
        axes = estimate_axes(mesh)
        np.testing.assert_allclose(axes.lateral, [1, 0, 0], atol=1e-9)
        np.testing.assert_allclose(axes.anterior, [0, 1, 0], atol=1e-9)
        np.testing.assert_allclose(axes.longitudinal, [0, 0, 1], atol=1e-9)

    def test_rotated_body_with_curve_tangent(self):
        mesh, _, _ = generate_vertebra(
            default_vertebra_params("L3", with_posterior=False))
        rot = Rotation.from_rotvec(np.radians(15) * np.array([1.0, 0, 0])).as_matrix()
        T = np.eye(4)
        T[:3, :3] = rot
        axes = estimate_axes(transform_mesh(mesh, T), curve_tangent=rot[:, 2])
        angle = np.degrees(np.arccos(np.clip(axes.longitudinal @ rot[:, 2], -1, 1)))
        assert angle < 1.0

    def test_wrong_hint_still_orthonormal_right_handed(self):
        # a box whose long axis is orthogonal to the hint longitudinal
        mesh = box_mesh(60, 10, 8)
        axes = estimate_axes(mesh, orientation_hint=PATIENT_AXES)
        m = axes.as_matrix()
        np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(np.cross(axes.lateral, axes.anterior),
                                   axes.longitudinal, atol=1e-9)

    def test_rotated_hint_rotates_axes(self):
        mesh, _, _ = generate_vertebra(
            default_vertebra_params("L2", with_posterior=False))
        rot = Rotation.from_rotvec(np.radians(25) * np.array([0.2, 0.9, 0.1])
                                   / np.linalg.norm([0.2, 0.9, 0.1])).as_matrix()
        T = np.eye(4)
        T[:3, :3] = rot
        hint = PATIENT_AXES.rotated(rot)
        axes = estimate_axes(transform_mesh(mesh, T), orientation_hint=hint)
        np.testing.assert_allclose(axes.longitudinal, rot[:, 2], atol=1e-9)


class TestExtractEndplates:
    def test_cap_triangles_extracted_exactly(self):
        params = default_vertebra_params("L3", with_posterior=False)
        mesh, _, _ = generate_vertebra(params)
        sup, inf = extract_endplates(mesh, PATIENT_AXES, cos_threshold=0.8)
        h = params.vb_height
        # generator contract: cap triangles are exactly the ones in the plate
        assert np.allclose(sup.vertices[:, 2], h / 2)
        assert np.allclose(inf.vertices[:, 2], -h / 2)
        cap_area = np.pi * (params.vb_width / 2) * (params.vb_depth / 2)
        from spinerecon.mesh import face_areas
        assert abs(face_areas(sup).sum() - cap_area) / cap_area < 0.02

    def test_detached_sliver_removed_by_connectivity(self):
        mesh, _, _ = generate_vertebra(
            default_vertebra_params("L3", with_posterior=False))
        sliver = ellipse_disk(4.0, 3.0, edge=2.0, z=40.0)
        verts = np.vstack([mesh.vertices, sliver.vertices])
        tris = np.vstack([mesh.triangles, sliver.triangles + mesh.n_vertices])
        combined = type(mesh)(verts, tris)
        sup, _ = extract_endplates(combined, PATIENT_AXES, cos_threshold=0.8)
        assert sup.vertices[:, 2].max() < 30.0  # sliver at z=40 excluded

    def test_strict_threshold_on_tilted_plates_errors(self):
        mesh, _, _ = generate_vertebra(
            default_vertebra_params("L3", endplate_tilt_deg=10.0, with_posterior=False))
        with pytest.raises(ValueError, match="superior endplate"):
            extract_endplates(mesh, PATIENT_AXES, cos_threshold=0.999)

    def test_plates_disjoint_subset(self):
        mesh, _, _ = generate_vertebra(default_vertebra_params("L4", with_posterior=False))
        sup, inf = extract_endplates(mesh, PATIENT_AXES)
        def tri_keys(m):
            pts = np.sort(m.triangle_points().reshape(m.n_triangles, -1), axis=1)
            return {tuple(row.round(9)) for row in pts}
        all_keys = tri_keys(mesh)
        sup_keys = tri_keys(sup)
        inf_keys = tri_keys(inf)
        assert sup_keys <= all_keys and inf_keys <= all_keys
        assert not (sup_keys & inf_keys)


class TestDetectLandmarks:
    def _plates(self, rotate_z_deg=0.0):
        sup = ellipse_disk(20.0, 15.0, edge=2.0, z=0.0, rotate_z_deg=rotate_z_deg)
        inf = ellipse_disk(20.0, 15.0, edge=2.0, z=-10.0, rotate_z_deg=rotate_z_deg)
        return sup, inf

    def test_elliptical_plate_extremes(self):
        sup, inf = self._plates()
        lms = detect_landmarks(sup, inf, PATIENT_AXES)
        np.testing.assert_allclose(lms.l1, [-20, 0, 0], atol=1e-12)
        np.testing.assert_allclose(lms.l2, [20, 0, 0], atol=1e-12)
        np.testing.assert_allclose(lms.l5, [0, -15, 0], atol=1e-12)
        np.testing.assert_allclose(lms.l6, [0, 15, 0], atol=1e-12)
        np.testing.assert_allclose(lms.l3, [-20, 0, -10], atol=1e-12)
        np.testing.assert_allclose(lms.l8, [0, 15, -10], atol=1e-12)

    def test_rigid_equivariance(self):
        sup, inf = self._plates()
        base = detect_landmarks(sup, inf, PATIENT_AXES)
        rng = np.random.default_rng(21)
        edge = 2.0
        for _ in range(10):
            T = random_rigid(rng, max_angle_deg=60.0, max_translation=40.0)
            axes_t = PATIENT_AXES.rotated(T[:3, :3])
            moved = detect_landmarks(
                transform_mesh(sup, T), transform_mesh(inf, T), axes_t)
            expected = base.transformed(T)
            err = np.linalg.norm(moved.points() - expected.points(), axis=1).max()
            assert err <= 1.5 * edge

    def test_empty_slab_names_plate_plane_and_width(self):
        # each plate: two 4 mm grids 32 mm apart, joined by two long
        # triangles; the sagittal plane through the centroid passes
        # 16 mm from every vertex, beyond twice the 4 mm median edge
        def split_plate(z):
            left = sheet_mesh(8.0, 40.0, nx=3, ny=11, center=(-20.0, 0.0, z))
            right = sheet_mesh(8.0, 40.0, nx=3, ny=11, center=(20.0, 0.0, z))
            n = left.n_vertices
            # inner-edge corners: left (-16, -20), (-16, 20); right (16, -20), (16, 20)
            a_lo, a_hi, b_lo, b_hi = 2 * 11, 2 * 11 + 10, n, n + 10
            bridge = [(a_lo, b_lo, b_hi), (a_lo, b_hi, a_hi)]
            return TriangleMesh(np.vstack([left.vertices, right.vertices]),
                                np.vstack([left.triangles, right.triangles + n, bridge]))

        with pytest.raises(ValueError, match=re.escape(
                "superior plate: sagittal slab is empty "
                "(half-width 8 mm, twice the median plate edge)")):
            detect_landmarks(split_plate(0.0), split_plate(-10.0), PATIENT_AXES)

    def test_superior_above_inferior_for_synthetic_bodies(self):
        for level in ("L1", "L3", "L5"):
            mesh, _, _ = generate_vertebra(
                default_vertebra_params(level, with_posterior=False))
            axes = estimate_axes(mesh)
            lms = detect_vertebra_landmarks(mesh)
            gap = (lms.superior_points().mean(axis=0)
                   - lms.inferior_points().mean(axis=0)) @ axes.longitudinal
            assert gap > 0

    def test_detection_matches_generator_truth(self):
        for edge in (1.5, 3.0):
            mesh, truth, _ = generate_vertebra(
                default_vertebra_params("L3", tessellation_edge=edge, with_posterior=False))
            lms = detect_vertebra_landmarks(mesh)
            err = np.linalg.norm(lms.points() - truth.points(), axis=1).max()
            assert err <= 1e-9


class TestLandmarkSet:
    def test_coincident_points_rejected(self):
        p = np.zeros(3)
        with pytest.raises(ValueError, match="distinct"):
            LandmarkSet(p, p, [0, 0, -1], [1, 0, -1], [0, -1, 0],
                        [0, 1, 0], [0, -1, -1], [0, 1, -1])

    def test_inconsistent_left_right_rejected(self):
        with pytest.raises(ValueError, match="left-right"):
            LandmarkSet(
                l1=[-1, 0, 1], l2=[1, 0, 1],
                l3=[1, 0, -1], l4=[-1, 0, -1],  # flipped
                l5=[0, -1, 1], l6=[0, 1, 1], l7=[0, -1, -1], l8=[0, 1, -1],
            )

    def test_round_trip_dict(self):
        _, lms, _ = generate_vertebra(default_vertebra_params("L1"))
        again = LandmarkSet.from_dict(lms.to_dict())
        np.testing.assert_allclose(again.points(), lms.points())


def test_axes_not_right_handed_rejected():
    with pytest.raises(ValueError, match="right-handed"):
        AxesEstimate(lateral=[1, 0, 0], anterior=[0, 1, 0], longitudinal=[0, 0, -1])


def test_estimate_axes_always_orthonormal_on_random_soups():
    from spinerecon.mesh import TriangleMesh
    rng = np.random.default_rng(33)
    for _ in range(25):
        verts = rng.uniform(-30, 30, (30, 3))
        tris = rng.integers(0, 30, (40, 3))
        ok = (tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2]) & (tris[:, 0] != tris[:, 2])
        mesh = TriangleMesh(verts, tris[ok])
        axes = estimate_axes(mesh)
        m = axes.as_matrix()
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-6
        assert np.max(np.abs(np.cross(axes.lateral, axes.anterior)
                             - axes.longitudinal)) < 1e-6
