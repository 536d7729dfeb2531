import os
import sys
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import spinerecon.registration as registration
import spinerecon.spine as spine_module
from helpers import bits, count_executors, rotation_angle_deg
from spinerecon.anatomy import PATIENT_AXES, LandmarkSet, detect_vertebra_landmarks
from spinerecon.mesh import (
    LABEL_VERTEBRAL_BODY,
    SurfaceIndex,
    TriangleMesh,
    apply_transform,
    submesh_by_label,
    transform_mesh,
)
from spinerecon.registration import (
    IcpParams,
    VertebraFrame,
    compute_frame,
    compute_registration,
    detect_spine_landmarks,
    detection_mesh,
    frame_to_transform,
    icp_rigid,
    register_spine,
)
from spinerecon.spine import SpineModel, Vertebra
from spinerecon.synthetic import (
    SpineParams,
    default_vertebra_params,
    generate_spine,
    generate_vertebra,
    make_registration_case,
)

HAND_LANDMARKS = LandmarkSet(
    l1=[-20, 0, 15], l2=[20, 0, 15], l3=[-20, 0, -15], l4=[20, 0, -15],
    l5=[0, -18, 15], l6=[0, 18, 15], l7=[0, -18, -15], l8=[0, 18, -15],
)


def random_frame(rng) -> VertebraFrame:
    """Valid frame with mild random skew and anisotropic scale."""
    base = Rotation.random(random_state=rng).as_matrix()
    skew = np.eye(3) + rng.uniform(-0.15, 0.15, (3, 3))
    basis = base @ skew
    if np.linalg.det(basis) < 0:
        basis[:, 0] = -basis[:, 0]
    scales = rng.uniform(20.0, 60.0, 3)
    return VertebraFrame(
        x_g=basis[:, 0] / np.linalg.norm(basis[:, 0]) * scales[0],
        y_g=basis[:, 1] / np.linalg.norm(basis[:, 1]) * scales[1],
        z_g=basis[:, 2] / np.linalg.norm(basis[:, 2]) * scales[2],
        c_g=rng.uniform(-80, 80, 3),
    )


class TestComputeFrame:
    def test_hand_oracle_exact(self):
        frame = compute_frame(HAND_LANDMARKS)
        np.testing.assert_allclose(frame.x_g, [40, 0, 0], atol=1e-12)
        np.testing.assert_allclose(frame.y_g, [0, 36, 0], atol=1e-12)
        np.testing.assert_allclose(frame.z_g, [0, 0, 30], atol=1e-12)
        np.testing.assert_allclose(frame.c_g, [0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(frame.scales, [40, 36, 30], atol=1e-12)

    def test_translation_moves_only_center(self):
        shift = np.array([5.0, -3.0, 7.0])
        T = np.eye(4)
        T[:3, 3] = shift
        frame = compute_frame(HAND_LANDMARKS.transformed(T))
        np.testing.assert_allclose(frame.x_g, [40, 0, 0], atol=1e-12)
        np.testing.assert_allclose(frame.y_g, [0, 36, 0], atol=1e-12)
        np.testing.assert_allclose(frame.z_g, [0, 0, 30], atol=1e-12)
        np.testing.assert_allclose(frame.c_g, shift, atol=1e-12)

    def test_degenerate_height_rejected(self):
        flat = LandmarkSet(
            l1=[-20, 0, 1e-12], l2=[20, 0, 1e-12],
            l3=[-20, 0, -1e-12], l4=[20, 0, -1e-12],
            l5=[0, -18, 1e-12], l6=[0, 18, 1e-12],
            l7=[0, -18, -1e-12], l8=[0, 18, -1e-12],
        )
        with pytest.raises(ValueError, match="degenerate frame"):
            compute_frame(flat)

    def test_coincident_landmark_rejected_at_type_level(self):
        with pytest.raises(ValueError, match="distinct"):
            LandmarkSet(
                l1=[0, 0, 15], l2=[0, 0, 15], l3=[-20, 0, -15], l4=[20, 0, -15],
                l5=[0, -18, 15], l6=[0, 18, 15], l7=[0, -18, -15], l8=[0, 18, -15],
            )

    def test_skew_diagnostic_zero_for_orthogonal(self):
        assert compute_frame(HAND_LANDMARKS).skew_degrees < 1e-9


    def test_vertebra_frame_follows_its_landmarks(self):
        v = straight_spine(2)[0]
        T = np.eye(4)
        T[:3, :3] = np.diag([1.1, 0.9, 1.2])
        T[:3, 3] = [4.0, -2.0, 3.0]
        moved = v.landmarks.transformed(T)
        frame = v.with_(landmarks=moved).frame
        want = compute_frame(moved)
        for name in ("x_g", "y_g", "z_g", "c_g"):
            np.testing.assert_array_equal(getattr(frame, name), getattr(want, name))
        assert v.with_(landmarks=None).frame is None


class TestFrameToTransform:
    def test_unit_frame_is_identity(self):
        frame = VertebraFrame(x_g=[1, 0, 0], y_g=[0, 1, 0], z_g=[0, 0, 1], c_g=[0, 0, 0])
        np.testing.assert_allclose(frame_to_transform(frame), np.eye(4), atol=1e-15)

    def test_hand_frame_matrix(self):
        T = frame_to_transform(compute_frame(HAND_LANDMARKS))
        expected = np.diag([40.0, 36.0, 30.0, 1.0])
        np.testing.assert_allclose(T, expected, atol=1e-9)

    def test_inverse_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            T = frame_to_transform(random_frame(rng))
            np.testing.assert_allclose(T @ np.linalg.inv(T), np.eye(4), atol=1e-9)


class TestComputeRegistration:
    def test_identity_for_same_frame(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = random_frame(rng)
            np.testing.assert_allclose(compute_registration(f, f), np.eye(4), atol=1e-9)

    def test_consistency_over_random_frames(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            fs, ft = random_frame(rng), random_frame(rng)
            r = compute_registration(fs, ft)
            np.testing.assert_allclose(
                r @ frame_to_transform(fs), frame_to_transform(ft), atol=1e-9)

    def test_recovers_constructed_affine(self):
        rng = np.random.default_rng(5)
        src = HAND_LANDMARKS
        for _ in range(20):
            rot = Rotation.random(random_state=rng).as_matrix()
            scales = rng.uniform(0.8, 1.25, 3)
            shift = rng.uniform(-50, 50, 3)
            A = np.eye(4)
            A[:3, :3] = rot @ np.diag(scales)  # source axes are world-aligned
            A[:3, 3] = shift
            tgt = src.transformed(A)
            r = compute_registration(compute_frame(src), compute_frame(tgt))
            np.testing.assert_allclose(r, A, atol=1e-6)
            np.testing.assert_allclose(
                apply_transform(r, src.points()), tgt.points(), atol=1e-6)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(6)
        src = random_frame(rng)
        tgt_lms = HAND_LANDMARKS
        tgt = compute_frame(tgt_lms)
        r1 = compute_registration(src, tgt)
        k = 1.7
        scaled = LandmarkSet(*(tgt.c_g + k * (p - tgt.c_g) for p in tgt_lms.points()))
        r2 = compute_registration(src, compute_frame(scaled))
        for col in range(3):
            n1 = r1[:3, col] / np.linalg.norm(r1[:3, col])
            n2 = r2[:3, col] / np.linalg.norm(r2[:3, col])
            np.testing.assert_allclose(n1, n2, atol=1e-9)
            assert np.linalg.norm(r2[:3, col]) == pytest.approx(
                k * np.linalg.norm(r1[:3, col]), rel=1e-9)


@pytest.fixture(scope="module")
def body():
    mesh, _, _ = generate_vertebra(
        default_vertebra_params("L3", with_posterior=False))
    return mesh


class TestIcp:

    def test_already_aligned_converges_immediately(self, body):
        index = SurfaceIndex(body)
        res = icp_rigid(body.vertices[::3], index)
        assert res.iterations <= 2
        assert res.mean_distance < 1e-12
        np.testing.assert_allclose(res.transform, np.eye(4), atol=1e-9)

    def test_recovers_known_rigid_motion(self, body):
        axis = np.array([0.3, -0.5, 0.81])
        axis /= np.linalg.norm(axis)
        T = np.eye(4)
        T[:3, :3] = Rotation.from_rotvec(np.radians(5.0) * axis).as_matrix()
        T[:3, 3] = [1.2, -0.9, 1.0]
        index = SurfaceIndex(transform_mesh(body, T))
        res = icp_rigid(body.vertices[::2], index,
                        params=IcpParams(max_iterations=100, convergence_tol=1e-7))
        np.testing.assert_allclose(res.transform[3], [0, 0, 0, 1])
        assert rotation_angle_deg(res.transform[:3, :3] @ T[:3, :3].T) < 0.1
        assert np.linalg.norm(res.transform[:3, 3] - T[:3, 3]) < 0.05

    def test_history_monotone_nonincreasing(self, body):
        T = np.eye(4)
        T[:3, 3] = [3.0, -2.0, 1.5]
        index = SurfaceIndex(transform_mesh(body, T))
        res = icp_rigid(body.vertices[::2], index,
                        params=IcpParams(max_iterations=60, convergence_tol=1e-9))
        diffs = np.diff(res.history)
        assert np.all(diffs <= 1e-12)

    def test_output_is_rigid(self, body):
        T = np.eye(4)
        T[:3, :3] = Rotation.from_rotvec([0.03, 0.02, -0.04]).as_matrix()
        T[:3, 3] = [1.0, 1.0, -0.5]
        index = SurfaceIndex(transform_mesh(body, T))
        res = icp_rigid(body.vertices[::2], index)
        r = res.transform[:3, :3]
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_two_points_rejected(self, body):
        index = SurfaceIndex(body)
        with pytest.raises(ValueError, match="at least 3"):
            icp_rigid(body.vertices[:2], index)

    def test_collinear_points_rejected(self, body):
        index = SurfaceIndex(body)
        pts = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="collinear"):
            icp_rigid(pts, index)

    def test_init_composes(self, body):
        # with init = the true motion, icp starts aligned and returns ~identity
        T = np.eye(4)
        T[:3, 3] = [2.0, 0.0, -1.0]
        index = SurfaceIndex(transform_mesh(body, T))
        res = icp_rigid(body.vertices[::3], index, init=T)
        np.testing.assert_allclose(res.transform, np.eye(4), atol=1e-9)


def straight_spine(n=5, **vertebra_overrides):
    params = SpineParams(
        vertebrae=tuple(default_vertebra_params(l, **vertebra_overrides)
                        for l in ("L1", "L2", "L3", "L4", "L5")[:n]),
        ivd_heights=(5.0,) * (n - 1),
        fsu_angles=(0.0,) * (n - 1),
    )
    return generate_spine(params)[0]


def strip_anatomy(spine: SpineModel) -> SpineModel:
    return SpineModel(tuple(
        v.with_(landmarks=None, axes=None) for v in spine.vertebrae))


class TestRegisterSpine:
    def test_identity_case(self):
        spine = straight_spine()
        targets = SpineModel(tuple(
            v.with_(mesh=detection_mesh(v), landmarks=None, axes=None)
            for v in spine.vertebrae))
        run = register_spine(strip_anatomy(spine), targets, "ours")
        for T in run.transforms:
            np.testing.assert_allclose(T, np.eye(4), atol=1e-9)

    def test_affine_recovery_per_level(self):
        spine = straight_spine()
        targets, _, true_T = make_registration_case(
            spine, rotation_deg=30.0, translation_mm=50.0,
            scale_range=(0.8, 1.25), seed=11)
        run = register_spine(strip_anatomy(spine), targets, "ours")
        for got, want in zip(run.transforms, true_T):
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_detection_keeps_given_landmarks_without_axes(self):
        spine = straight_spine(2)
        shift = np.eye(4)
        shift[:3, 3] = [1.0, 0.0, 0.0]
        given = [v.landmarks.transformed(shift) for v in spine.vertebrae]
        kept = detect_spine_landmarks(
            SpineModel(tuple(v.with_(landmarks=lms, axes=None)
                             for v, lms in zip(spine.vertebrae, given))),
            orientation_hint=PATIENT_AXES, cos_threshold=0.8, use_spine_curve=False)
        assert all(a is b for a, b in zip(kept, given))

    def test_detection_builds_submeshes_only_when_a_level_needs_detecting(self, monkeypatch):
        spine = straight_spine(3)
        built = []
        build = registration.detection_mesh

        def counted(vertebra):
            built.append(vertebra.level)
            return build(vertebra)

        monkeypatch.setattr(registration, "detection_mesh", counted)
        options = dict(orientation_hint=PATIENT_AXES, cos_threshold=0.8, use_spine_curve=True)

        kept = detect_spine_landmarks(spine, **options)
        assert built == []
        assert all(a is v.landmarks for a, v in zip(kept, spine.vertebrae))

        # one level to detect: the spine curve still needs every level's body
        detected = detect_spine_landmarks(strip_anatomy(spine), **options)
        built.clear()
        partial = SpineModel((spine.vertebrae[0].with_(landmarks=None, axes=None),
                              *spine.vertebrae[1:]))
        got = detect_spine_landmarks(partial, **options)
        assert built == ["L1", "L2", "L3"]
        assert got[0].to_dict() == detected[0].to_dict()
        assert all(a is v.landmarks for a, v in zip(got[1:], spine.vertebrae[1:]))

    def test_body_only_mesh_is_its_own_detection_mesh(self):
        vertebra = straight_spine(2)[0]
        body = submesh_by_label(vertebra.mesh, LABEL_VERTEBRAL_BODY)
        assert np.all(body.labels == LABEL_VERTEBRAL_BODY)
        target = vertebra.with_(mesh=body, landmarks=None, axes=None)
        assert detection_mesh(target) is body
        # the submesh it replaces is an equal copy with the same landmarks
        copy = body.submesh(np.arange(body.n_triangles))
        assert copy is not body
        np.testing.assert_array_equal(bits(copy.vertices), bits(body.vertices))
        np.testing.assert_array_equal(copy.triangles, body.triangles)
        got = detect_vertebra_landmarks(detection_mesh(target))
        want = detect_vertebra_landmarks(copy)
        np.testing.assert_array_equal(bits(got.points()), bits(want.points()))

    def test_body_only_mesh_with_an_unreferenced_vertex_is_submeshed(self):
        body = submesh_by_label(straight_spine(2)[0].mesh, LABEL_VERTEBRAL_BODY)
        # a far vertex on no triangle would stretch the principal-axis extents
        loose = TriangleMesh(np.vstack([body.vertices, [[500.0, 0.0, 0.0]]]), body.triangles,
                             np.append(body.labels, LABEL_VERTEBRAL_BODY))
        got = detection_mesh(Vertebra("L1", loose))
        assert got is not loose
        np.testing.assert_array_equal(bits(got.vertices), bits(body.vertices))
        np.testing.assert_array_equal(got.triangles, body.triangles)

    def test_level_mismatch_rejected(self):
        spine = straight_spine()
        targets = SpineModel(spine.vertebrae[:3])
        with pytest.raises(ValueError, match="level mismatch"):
            register_spine(spine, targets, "ours")

    def test_unknown_mode_rejected(self):
        spine = straight_spine(2)
        with pytest.raises(ValueError, match="unknown mode"):
            register_spine(spine, spine, "best")

    def test_failure_names_level(self):
        # tilted endplates put cap normals ~5 degrees off the axis, so a
        # 0.9999 threshold leaves no endplate candidates
        params = SpineParams(
            vertebrae=(default_vertebra_params("L1", endplate_tilt_deg=10.0),
                       default_vertebra_params("L2", endplate_tilt_deg=10.0)),
            ivd_heights=(5.0,), fsu_angles=(0.0,))
        spine = generate_spine(params)[0]
        bad = SpineModel(tuple(
            v.with_(mesh=detection_mesh(v), landmarks=None, axes=None)
            for v in spine.vertebrae))
        with pytest.raises(RuntimeError, match="L1"):
            register_spine(strip_anatomy(spine), bad, "ours", cos_threshold=0.9999)

    def test_icp_vb_mode_applies_to_full_mesh(self):
        spine = straight_spine(2)
        targets, _, true_T = make_registration_case(
            spine, rotation_deg=3.0, translation_mm=1.5, seed=3)
        run = register_spine(
            spine, targets, "icp_vb",
            icp_params=IcpParams(max_iterations=80, convergence_tol=1e-7))
        for got, want, v in zip(run.transforms, true_T, run.spine.vertebrae):
            r = got[:3, :3]
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)  # rigid
            assert rotation_angle_deg(got[:3, :3] @ want[:3, :3].T) < 0.5
            # the posterior elements were carried along
            assert np.any(v.mesh.labels == 0)

    def test_ours_icp_retains_scale(self):
        spine = straight_spine(2)
        targets, _, true_T = make_registration_case(
            spine, rotation_deg=10.0, translation_mm=10.0,
            scale_range=(0.9, 1.1), seed=4)
        run = register_spine(strip_anatomy(spine), targets, "ours_icp")
        for got, want in zip(run.transforms, true_T):
            # the icp refinement of an exact affine is the identity
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_hybrid_never_hurts_refined_objective_on_noisy_pairs(self):
        # the icp refinement provably never worsens its own objective:
        # the distance of the registered body to the target surface (the
        # ground-truth whole-vertebra distance carries no such guarantee
        # once the targets are noisy, and can move by ~0.01 mm either way)
        from spinerecon.evaluation import point_to_model_distance
        from spinerecon.mesh import LABEL_VERTEBRAL_BODY
        spine = straight_spine()
        targets, _, _ = make_registration_case(
            spine, rotation_deg=10.0, translation_mm=10.0, noise_sd=0.3, seed=0)
        bare = strip_anatomy(spine)
        run_ours = register_spine(bare, targets, "ours")
        run_hybrid = register_spine(bare, targets, "ours_icp")
        for i in range(len(spine)):
            index = SurfaceIndex(targets[i].mesh)
            mask = run_ours.spine[i].mesh.labels == LABEL_VERTEBRAL_BODY
            d_ours = point_to_model_distance(run_ours.spine[i].mesh, index, vertex_mask=mask)
            d_hybrid = point_to_model_distance(run_hybrid.spine[i].mesh, index, vertex_mask=mask)
            assert d_hybrid <= d_ours + 1e-6

    def test_spine_curve_mode_identity_case(self):
        # with coherent source and target stacks the spline-tangent axes
        # agree on both sides and the identity is still recovered
        spine = straight_spine()
        targets = SpineModel(tuple(
            v.with_(mesh=detection_mesh(v), landmarks=None, axes=None)
            for v in spine.vertebrae))
        run = register_spine(strip_anatomy(spine), targets, "ours",
                             use_spine_curve=True)
        for T in run.transforms:
            np.testing.assert_allclose(T, np.eye(4), atol=1e-9)


class TestRegisterSpinePool:
    @pytest.fixture(scope="class")
    def case(self):
        spine = straight_spine(3)
        targets, _, _ = make_registration_case(
            spine, rotation_deg=10.0, translation_mm=10.0, scale_range=(0.9, 1.1), seed=4)
        return strip_anatomy(spine), targets

    @pytest.mark.parametrize("mode", ["icp", "icp_vb", "ours_icp"])
    def test_worker_count_changes_no_bit(self, case, mode, monkeypatch):
        atlas, targets = case
        workers = count_executors(monkeypatch)
        params = IcpParams(max_iterations=4)
        with monkeypatch.context() as mp:
            mp.setattr(spine_module, "_usable_cpus", lambda: 1)
            serial = register_spine(atlas, targets, mode, icp_params=params, seed=3)
        default = register_spine(atlas, targets, mode, icp_params=params, seed=3)
        # more workers than CPUs, one per level, switching threads often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with monkeypatch.context() as mp:
                mp.setattr(spine_module, "_usable_cpus", lambda: 8)
                crowded = register_spine(atlas, targets, mode, icp_params=params, seed=3)
        finally:
            sys.setswitchinterval(interval)
        # the calling thread is one of the workers: no executor at one CPU
        assert workers == [n - 1 for n in (1, min(3, spine_module._usable_cpus()), 3) if n > 1]
        for run in (default, crowded):
            for want, got in zip(serial.transforms, run.transforms):
                np.testing.assert_array_equal(bits(got), bits(want))
            for want, got in zip(serial.spine.vertebrae, run.spine.vertebrae):
                np.testing.assert_array_equal(bits(got.mesh.vertices), bits(want.mesh.vertices))
                np.testing.assert_array_equal(got.mesh.triangles, want.mesh.triangles)
                np.testing.assert_array_equal(got.mesh.labels, want.mesh.labels)
                np.testing.assert_array_equal(bits(got.landmarks.points()),
                                              bits(want.landmarks.points()))

    def test_first_failing_level_is_reported(self, case, monkeypatch):
        atlas, targets = case
        slow, fast = targets[0].mesh, targets[2].mesh
        build = registration.SurfaceIndex

        def index(mesh):
            if mesh is slow:  # L1 fails after L3 has failed
                time.sleep(0.2)
                raise ValueError("first broken target")
            if mesh is fast:
                raise ValueError("second broken target")
            return build(mesh)

        monkeypatch.setattr(registration, "SurfaceIndex", index)
        monkeypatch.setattr(spine_module, "_usable_cpus", lambda: 3)
        with pytest.raises(RuntimeError, match=r"^L1: icp registration failed: first broken target$"):
            register_spine(atlas, targets, "icp", icp_params=IcpParams(max_iterations=2))

    @pytest.fixture(scope="class")
    def fine_case(self):
        # 0.85 mm: 18-23k triangles per level, above the detection pool's switch
        spine = straight_spine(3, tessellation_edge=0.85)
        targets = SpineModel(tuple(
            v.with_(mesh=detection_mesh(v), landmarks=None, axes=None)
            for v in spine.vertebrae))
        return strip_anatomy(spine), targets

    def test_pooled_detection_changes_no_bit(self, fine_case, monkeypatch):
        atlas, targets = fine_case
        options = dict(orientation_hint=PATIENT_AXES, cos_threshold=0.8, use_spine_curve=False)
        workers = count_executors(monkeypatch)

        def run():
            # the last run detects each target twice, so two threads race on one mesh's
            # cross products, on fresh meshes whose cache is empty
            fresh = SpineModel(tuple(
                v.with_(mesh=TriangleMesh(v.mesh.vertices, v.mesh.triangles, v.mesh.labels))
                for v in targets.vertebrae))
            return (detect_spine_landmarks(targets, **options),
                    register_spine(atlas, targets, "ours"),
                    register_spine(fresh, fresh, "ours"))

        with monkeypatch.context() as mp:
            mp.setattr(spine_module, "_usable_cpus", lambda: 1)
            serial = run()
        default = run()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with monkeypatch.context() as mp:
                mp.setattr(spine_module, "_usable_cpus", lambda: 8)
                crowded = run()
        finally:
            sys.setswitchinterval(interval)
        # 3 target levels, then twice 3 atlas and 3 target levels in one map
        cpus = spine_module._usable_cpus()
        sizes = (min(3, cpus), min(6, cpus), min(6, cpus), 3, 6, 6)
        assert workers == [n - 1 for n in sizes if n > 1]
        for detected, run_, same in (default, crowded):
            for want, got in zip(serial[2].transforms, same.transforms):
                np.testing.assert_array_equal(bits(got), bits(want))
            for want, got in zip(serial[0], detected):
                np.testing.assert_array_equal(bits(got.points()), bits(want.points()))
            for want, got in zip(serial[1].transforms, run_.transforms):
                np.testing.assert_array_equal(bits(got), bits(want))
            for want, got in zip(serial[1].spine.vertebrae, run_.spine.vertebrae):
                np.testing.assert_array_equal(bits(got.mesh.vertices), bits(want.mesh.vertices))
                np.testing.assert_array_equal(got.mesh.triangles, want.mesh.triangles)
                np.testing.assert_array_equal(bits(got.landmarks.points()),
                                              bits(want.landmarks.points()))

    def test_atlas_detection_error_is_reported_before_a_target_level(self, case, monkeypatch):
        atlas, targets = case
        slow, fast = detection_mesh(atlas[2]), detection_mesh(targets[0])
        detect = registration.detect_vertebra_landmarks

        def broken(mesh, **kwargs):
            if np.array_equal(mesh.vertices, slow.vertices):  # atlas L3 fails after target L1
                time.sleep(0.2)
                raise ValueError("broken atlas level")
            if np.array_equal(mesh.vertices, fast.vertices):
                raise ValueError("broken target level")
            return detect(mesh, **kwargs)

        monkeypatch.setattr(registration, "detect_vertebra_landmarks", broken)
        monkeypatch.setattr(registration, "_POOL_MIN_TRIANGLES", 0)
        monkeypatch.setattr(spine_module, "_usable_cpus", lambda: 3)
        workers = count_executors(monkeypatch)
        with pytest.raises(RuntimeError,
                           match=r"^L3: landmark detection failed: broken atlas level$"):
            register_spine(atlas, targets, "ours")
        assert workers == [2]

    def test_ours_builds_no_pool(self, case, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("ours registers its levels serially")

        monkeypatch.setattr(spine_module, "ThreadPoolExecutor", no_pool)
        # below the size switch, detection runs the plain loop on any CPU count
        monkeypatch.setattr(spine_module, "_usable_cpus", lambda: 8)
        atlas, targets = case
        assert max(v.mesh.n_triangles for v in atlas.vertebrae) < registration._POOL_MIN_TRIANGLES
        assert len(register_spine(atlas, targets, "ours").transforms) == 3
        assert len(detect_spine_landmarks(targets, orientation_hint=PATIENT_AXES,
                                          cos_threshold=0.8, use_spine_curve=False)) == 3

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert spine_module._usable_cpus() == (os.cpu_count() or 1)
