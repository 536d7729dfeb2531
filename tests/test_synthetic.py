import numpy as np
import pytest

from spinerecon.evaluation import landmark_mae, measure_morphometrics
from spinerecon.mesh import SurfaceIndex, face_normals, submesh_by_label, transform_mesh
from spinerecon.registration import register_spine
from spinerecon.spine import SpineModel
from spinerecon.synthetic import (
    SpineParams,
    VertebraParams,
    default_vertebra_params,
    expected_facet_gap,
    generate_spine,
    generate_vertebra,
    make_registration_case,
)


class TestVertebraParams:
    def test_tilt_limit(self):
        with pytest.raises(ValueError, match="tilt"):
            VertebraParams(endplate_tilt_deg=45.0)

    def test_edge_limit(self):
        with pytest.raises(ValueError, match="tessellation"):
            VertebraParams(vb_height=20.0, tessellation_edge=6.0)

    def test_positive_dimensions(self):
        with pytest.raises(ValueError, match="positive"):
            VertebraParams(vb_width=-1.0)


class TestGenerateVertebra:
    def test_hand_example_landmarks(self):
        _, lms, axes = generate_vertebra(
            VertebraParams(vb_width=40, vb_depth=36, vb_height=30))
        np.testing.assert_array_equal(lms.l1, [-20, 0, 15])
        np.testing.assert_array_equal(lms.l2, [20, 0, 15])
        np.testing.assert_array_equal(lms.l3, [-20, 0, -15])
        np.testing.assert_array_equal(lms.l4, [20, 0, -15])
        np.testing.assert_array_equal(lms.l5, [0, -18, 15])
        np.testing.assert_array_equal(lms.l6, [0, 18, 15])
        np.testing.assert_array_equal(lms.l7, [0, -18, -15])
        np.testing.assert_array_equal(lms.l8, [0, 18, -15])
        np.testing.assert_array_equal(axes.as_matrix(), np.eye(3))

    def test_body_only_when_posterior_disabled(self):
        mesh, _, _ = generate_vertebra(default_vertebra_params("L1", with_posterior=False))
        assert np.all(mesh.labels == 1)

    def test_posterior_carries_facet_labels(self):
        mesh, _, _ = generate_vertebra(default_vertebra_params("L1"))
        assert set(np.unique(mesh.labels)) == {0, 1, 2, 3, 4, 5}

    def test_tilt_angle_measured_on_mesh(self):
        params = default_vertebra_params("L3", endplate_tilt_deg=10.0, with_posterior=False)
        mesh, _, _ = generate_vertebra(params)
        normals = face_normals(mesh)
        ups = normals[normals @ [0, 0, 1] > 0.95]
        downs = normals[normals @ [0, 0, -1] > 0.95]
        angle = np.degrees(np.arccos(np.clip(ups.mean(axis=0) @ -downs.mean(axis=0), -1, 1)))
        assert angle == pytest.approx(10.0, abs=0.01)

    def test_body_is_closed_surface(self):
        for edge in (1.5, 2.0, 4.0):
            mesh, _, _ = generate_vertebra(
                default_vertebra_params("L2", tessellation_edge=edge, with_posterior=False))
            edges = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
            _, counts = np.unique(edges, axis=0, return_counts=True)
            assert np.all(counts == 2)

    def test_landmarks_on_surface(self):
        for edge in (1.5, 3.0):
            params = default_vertebra_params("L4", tessellation_edge=edge)
            mesh, lms, _ = generate_vertebra(params)
            index = SurfaceIndex(submesh_by_label(mesh, 1))
            _, d = index.query(lms.points())
            assert d.max() <= edge / 2.0

    def test_detection_across_edge_lengths(self):
        # resolution is arbitrary: 1 mm on default dimensions up to 10 mm
        # on an oversized body
        from spinerecon.anatomy import detect_vertebra_landmarks
        cases = [
            VertebraParams(vb_width=46, vb_depth=32, vb_height=28, tessellation_edge=1.0,
                           with_posterior=False),
            VertebraParams(vb_width=90, vb_depth=70, vb_height=55, tessellation_edge=10.0,
                           with_posterior=False),
        ]
        for params in cases:
            mesh, truth, _ = generate_vertebra(params)
            lms = detect_vertebra_landmarks(mesh)
            err = np.linalg.norm(lms.points() - truth.points(), axis=1).max()
            assert err <= 1e-9

    def test_deterministic(self):
        a, _, _ = generate_vertebra(default_vertebra_params("L5"))
        b, _, _ = generate_vertebra(default_vertebra_params("L5"))
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.triangles, b.triangles)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestGenerateSpine:
    def test_straight_stack_measures_zero_angles(self):
        params = SpineParams(fsu_angles=(0.0,) * 4, ivd_heights=(5.0,) * 4)
        spine, _ = generate_spine(params)
        record = measure_morphometrics(spine.levels, [v.landmarks for v in spine.vertebrae])
        for angle in record.fsu_angle.values():
            assert angle == pytest.approx(0.0, abs=0.5)

    def test_specified_angles_and_heights_recovered(self):
        params = SpineParams(fsu_angles=(4.0, 6.0, 8.0, 10.0),
                             ivd_heights=(4.0, 5.0, 6.0, 7.0), seed=1)
        spine, record = generate_spine(params)
        measured = measure_morphometrics(spine.levels, [v.landmarks for v in spine.vertebrae])
        for pair in record.pair_names():
            assert measured.fsu_angle[pair] == pytest.approx(record.fsu_angle[pair], abs=0.5)
            assert measured.ivd_height[pair] == pytest.approx(record.ivd_height[pair], abs=0.3)

    def test_wedged_vertebrae_still_hit_targets(self):
        params = SpineParams(
            vertebrae=tuple(default_vertebra_params(l, endplate_tilt_deg=6.0)
                            for l in ("L1", "L2", "L3", "L4", "L5")),
            fsu_angles=(4.0, 6.0, 8.0, 10.0),
            ivd_heights=(4.0, 5.0, 6.0, 7.0))
        spine, record = generate_spine(params)
        measured = measure_morphometrics(spine.levels, [v.landmarks for v in spine.vertebrae])
        for pair in record.pair_names():
            assert measured.fsu_angle[pair] == pytest.approx(record.fsu_angle[pair], abs=0.5)
            assert measured.ivd_height[pair] == pytest.approx(record.ivd_height[pair], abs=0.3)

    def test_seed_reproducibility(self):
        a, _ = generate_spine(SpineParams(seed=9))
        b, _ = generate_spine(SpineParams(seed=9))
        for va, vb in zip(a.vertebrae, b.vertebrae):
            np.testing.assert_array_equal(va.mesh.vertices, vb.mesh.vertices)

    def test_pair_count_validated(self):
        with pytest.raises(ValueError, match="per adjacent pair"):
            SpineParams(ivd_heights=(5.0,), fsu_angles=(0.0,) * 4)

    def test_disc_height_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SpineParams(ivd_heights=(5.0, 5.0, -1.0, 5.0))

    def test_expected_facet_gap_matches_measurement(self):
        from spinerecon.facets import facet_gap_summary
        params = SpineParams(fsu_angles=(0.0,) * 4, ivd_heights=(5.0, 5.5, 6.0, 6.5))
        spine, _ = generate_spine(params)
        summary = facet_gap_summary(spine)
        for i, pair in enumerate(["L1-L2", "L2-L3", "L3-L4", "L4-L5"]):
            want = expected_facet_gap(params, i)
            for report in summary[pair].values():
                assert report["mean_gap_mm"] == pytest.approx(want, abs=0.05)


class TestMakeRegistrationCase:
    def test_zero_perturbation_yields_identity(self):
        spine, _ = generate_spine(SpineParams())
        targets, _, true_T = make_registration_case(spine, seed=0)
        for T in true_T:
            np.testing.assert_allclose(T, np.eye(4), atol=1e-12)
        for v, t in zip(spine.vertebrae, targets.vertebrae):
            np.testing.assert_allclose(
                t.mesh.vertices, submesh_by_label(v.mesh, 1).vertices, atol=1e-12)

    def test_targets_are_body_only(self):
        spine, _ = generate_spine(SpineParams())
        targets, _, _ = make_registration_case(
            spine, rotation_deg=10.0, translation_mm=5.0, seed=2)
        for t in targets.vertebrae:
            assert np.all(t.mesh.labels == 1)
            assert t.landmarks is None

    def test_deterministic_per_seed(self):
        spine, _ = generate_spine(SpineParams())
        t1, _, a1 = make_registration_case(spine, rotation_deg=20, translation_mm=30, seed=5)
        t2, _, a2 = make_registration_case(spine, rotation_deg=20, translation_mm=30, seed=5)
        for x, y in zip(a1, a2):
            np.testing.assert_array_equal(x, y)
        for x, y in zip(t1.vertebrae, t2.vertebrae):
            np.testing.assert_array_equal(x.mesh.vertices, y.mesh.vertices)

    def test_noisy_case_landmark_regression(self):
        # frozen empirical regression threshold: per-vertex iid jitter of
        # 0.5 mm on the default 2 mm tessellation measures ~1.7-2.0 mm
        # (the slab-extreme of dozens of jittered rim candidates cannot
        # do better than ~1.2 mm in expectation)
        spine, _ = generate_spine(SpineParams(fsu_angles=(0.0,) * 4,
                                              ivd_heights=(5.0,) * 4))
        targets, truth, _ = make_registration_case(
            spine, rotation_deg=15.0, translation_mm=20.0,
            scale_range=(0.9, 1.1), noise_sd=0.5, seed=0)
        bare = SpineModel(tuple(
            v.with_(landmarks=None, axes=None) for v in spine.vertebrae))
        run = register_spine(bare, targets, "ours")
        maes = [landmark_mae(v.landmarks, t.landmarks)
                for v, t in zip(run.spine.vertebrae, truth.vertebrae)]
        assert float(np.mean(maes)) < 3.0

    def test_ground_truth_is_the_spine_under_the_true_transforms(self):
        spine, _ = generate_spine(SpineParams(seed=4))
        _, truth, true_T = make_registration_case(
            spine, rotation_deg=25.0, translation_mm=15.0, scale_range=(0.8, 1.25),
            noise_sd=0.3, seed=9)
        assert truth.levels == spine.levels
        for v, t, T in zip(spine.vertebrae, truth.vertebrae, true_T):
            want = transform_mesh(v.mesh, T)
            np.testing.assert_array_equal(t.mesh.vertices, want.vertices)
            np.testing.assert_array_equal(t.mesh.triangles, want.triangles)
            np.testing.assert_array_equal(t.mesh.labels, want.labels)
            np.testing.assert_array_equal(t.landmarks.points(),
                                          v.landmarks.transformed(T).points())
            # the linear part scales along the input axes, then rotates them
            # onto the truth axes
            moved = T[:3, :3] @ v.axes.as_matrix()
            np.testing.assert_allclose(t.axes.as_matrix(),
                                       moved / np.linalg.norm(moved, axis=0), atol=1e-12)

    def test_ground_truth_is_a_valid_case_input(self):
        spine, _ = generate_spine(SpineParams(seed=4))
        _, truth, _ = make_registration_case(
            spine, rotation_deg=25.0, translation_mm=15.0, scale_range=(0.8, 1.25), seed=9)
        targets, again, true_T = make_registration_case(truth, seed=0)
        for t, target, twice, T in zip(truth.vertebrae, targets.vertebrae,
                                       again.vertebrae, true_T):
            np.testing.assert_allclose(T, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(target.mesh.vertices,
                                       submesh_by_label(t.mesh, 1).vertices, atol=1e-12)
            np.testing.assert_allclose(twice.landmarks.points(), t.landmarks.points(),
                                       atol=1e-12)

    def test_scale_range_validated(self):
        spine, _ = generate_spine(SpineParams())
        with pytest.raises(ValueError, match="scale_range"):
            make_registration_case(spine, scale_range=(1.2, 0.8))
