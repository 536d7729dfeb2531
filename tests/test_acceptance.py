"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from helpers import closest_point_brute_force, random_rigid, rotation_angle_deg
from spinerecon.anatomy import LandmarkSet, PATIENT_AXES, detect_vertebra_landmarks
from spinerecon.cli import main as cli_main
from spinerecon.evaluation import measure_morphometrics, point_to_model_distance
from spinerecon.facets import align_facets, facet_gap_summary
from spinerecon.mesh import (
    SurfaceIndex,
    submesh_by_label,
    transform_mesh,
)
from spinerecon.registration import (
    IcpParams,
    compute_frame,
    compute_registration,
    frame_to_transform,
    icp_rigid,
    register_spine,
)
from spinerecon.spine import SpineModel
from spinerecon.synthetic import (
    FACET_DROP_MM,
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


def report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def straight_spine(**vertebra_overrides):
    params = SpineParams(
        vertebrae=tuple(default_vertebra_params(l, **vertebra_overrides)
                        for l in ("L1", "L2", "L3", "L4", "L5")),
        ivd_heights=(5.0,) * 4,
        fsu_angles=(0.0,) * 4,
    )
    return generate_spine(params)[0]


def strip_anatomy(spine):
    return SpineModel(tuple(
        v.with_(landmarks=None, axes=None) for v in spine.vertebrae))


def test_criterion_1_frame_hand_oracle():
    frame = compute_frame(HAND_LANDMARKS)
    np.testing.assert_allclose(frame.x_g, [40, 0, 0], atol=1e-12)
    np.testing.assert_allclose(frame.y_g, [0, 36, 0], atol=1e-12)
    np.testing.assert_allclose(frame.z_g, [0, 0, 30], atol=1e-12)
    np.testing.assert_allclose(frame.c_g, [0, 0, 0], atol=1e-12)
    report(1, "frame construction matches the hand-evaluated oracle within 1e-12")


def test_criterion_2_registration_identity_and_consistency():
    from test_registration import random_frame
    rng = np.random.default_rng(1234)
    for _ in range(120):
        fs = random_frame(rng)
        ft = random_frame(rng)
        np.testing.assert_allclose(compute_registration(fs, fs), np.eye(4), atol=1e-9)
        r = compute_registration(fs, ft)
        np.testing.assert_allclose(
            r @ frame_to_transform(fs), frame_to_transform(ft), atol=1e-9)
    report(2, "identity and T(t) = R*T(s) hold within 1e-9 over 120 random frames")


def test_criterion_3_affine_recovery():
    start = time.perf_counter()
    worst_transform = 0.0
    worst_p2m = 0.0
    for seed in (11, 12, 13):
        spine = straight_spine()
        targets, truth, true_T = make_registration_case(
            spine, rotation_deg=30.0, translation_mm=50.0,
            scale_range=(0.8, 1.25), noise_sd=0.0, seed=seed)
        run = register_spine(strip_anatomy(spine), targets, "ours")
        for i, (got, want) in enumerate(zip(run.transforms, true_T)):
            worst_transform = max(worst_transform, np.abs(got - want).max())
            d = point_to_model_distance(run.spine[i].mesh, SurfaceIndex(truth[i].mesh))
            worst_p2m = max(worst_p2m, d)
    elapsed = time.perf_counter() - start
    assert worst_transform < 1e-6
    assert worst_p2m < 0.1
    assert elapsed < 10.0
    report(3, f"affine recovery max |dT| {worst_transform:.2e}, "
              f"p2m {worst_p2m:.2e} mm, suite {elapsed:.2f} s < 10 s")


def test_criterion_4_closest_point_oracle():
    rng = np.random.default_rng(99)
    mesh, _, _ = generate_vertebra(
        default_vertebra_params("L3", tessellation_edge=6.0, with_posterior=False))
    assert mesh.n_triangles <= 500
    index = SurfaceIndex(mesh)
    queries = rng.uniform(-60, 60, (1200, 3))
    p_idx, d_idx = index.query(queries)
    p_ref, d_ref = closest_point_brute_force(mesh, queries)
    np.testing.assert_array_equal(p_idx, p_ref)
    np.testing.assert_array_equal(d_idx, d_ref)
    report(4, f"{len(queries)} spatial-index queries equal brute force exactly "
              f"({mesh.n_triangles} triangles)")


def test_criterion_5_morphometric_round_trip():
    cases = [
        ((0.0, 4.0, 6.0, 8.0), (4.0, 5.0, 6.0, 7.0)),
        ((10.0, 6.0, 0.0, 4.0), (5.0, 4.0, 7.0, 6.0)),
    ]
    worst_angle = 0.0
    worst_ivd = 0.0
    for fsu, ivd in cases:
        params = SpineParams(fsu_angles=fsu, ivd_heights=ivd, seed=21)
        spine, record = generate_spine(params)
        detected = []
        for v in spine.vertebrae:
            detected.append(detect_vertebra_landmarks(submesh_by_label(v.mesh, 1)))
        measured = measure_morphometrics(spine.levels, detected)
        for pair in record.ivd_height:
            worst_angle = max(worst_angle,
                              abs(measured.fsu_angle[pair] - record.fsu_angle[pair]))
            worst_ivd = max(worst_ivd,
                            abs(measured.ivd_height[pair] - record.ivd_height[pair]))
    assert worst_angle < 0.5
    assert worst_ivd < 0.3
    report(5, f"segment angles {{0,4,6,8,10}} deg and disc heights {{4..7}} mm "
              f"recovered to {worst_angle:.2e} deg / {worst_ivd:.2e} mm")


def test_criterion_6_registration_timing():
    # 18k-23k triangles per vertebra at 0.85 mm tessellation
    spine = straight_spine(tessellation_edge=0.85)
    tri_counts = [v.mesh.n_triangles for v in spine.vertebrae]
    assert min(tri_counts) > 17500
    targets = SpineModel(tuple(
        v.with_(mesh=submesh_by_label(v.mesh, 1), landmarks=None, axes=None)
        for v in spine.vertebrae))
    run = register_spine(strip_anatomy(spine), targets, "ours")
    assert run.elapsed_s < 1.0
    for T in run.transforms:
        np.testing.assert_allclose(T, np.eye(4), atol=1e-9)
    report(6, f"5 levels x ~{int(np.mean(tri_counts))} triangles registered in "
              f"{run.elapsed_s * 1000:.0f} ms < 1 s")


def test_criterion_7_icp_properties():
    body, _, _ = generate_vertebra(default_vertebra_params("L3", with_posterior=False))
    axis = np.array([0.2, 0.5, 0.84])
    axis /= np.linalg.norm(axis)
    from scipy.spatial.transform import Rotation
    T = np.eye(4)
    T[:3, :3] = Rotation.from_rotvec(np.radians(5.0) * axis).as_matrix()
    T[:3, 3] = [1.2, -0.9, 1.0]  # norm 1.81 mm, within the 2 mm bound
    index = SurfaceIndex(transform_mesh(body, T))
    res = icp_rigid(body.vertices[::2], index,
                    params=IcpParams(max_iterations=100, convergence_tol=1e-7))
    assert np.all(np.diff(res.history) <= 1e-12)
    rot_err = rotation_angle_deg(res.transform[:3, :3] @ T[:3, :3].T)
    trans_err = np.linalg.norm(res.transform[:3, 3] - T[:3, 3])
    assert rot_err < 0.1 and trans_err < 0.05

    spine = straight_spine()
    targets, truth, _ = make_registration_case(
        spine, rotation_deg=15.0, translation_mm=20.0, scale_range=(0.9, 1.1),
        noise_sd=0.0, seed=31)
    bare = strip_anatomy(spine)
    run_ours = register_spine(bare, targets, "ours")
    run_hybrid = register_spine(bare, targets, "ours_icp")
    for i in range(len(spine)):
        idx = SurfaceIndex(truth[i].mesh)
        d_ours = point_to_model_distance(run_ours.spine[i].mesh, idx)
        d_hybrid = point_to_model_distance(run_hybrid.spine[i].mesh, idx)
        assert d_hybrid <= d_ours + 1e-6
    report(7, f"icp monotone, recovery {rot_err:.2e} deg / {trans_err:.2e} mm, "
              "hybrid never exceeds ours on noise-free pairs")


def test_criterion_8_facet_alignment():
    worst = []
    for gap in (-0.8, 0.5, 4.0):
        offset = 5.0 - FACET_DROP_MM - gap
        params = SpineParams(
            vertebrae=(default_vertebra_params("L1", facet_gap_offset=offset),
                       default_vertebra_params("L2")),
            ivd_heights=(5.0,), fsu_angles=(0.0,))
        spine, _ = generate_spine(params)
        aligned, _ = align_facets(spine, target_width=1.5, falloff_radius=5.0, max_passes=5)
        for sides in facet_gap_summary(aligned).values():
            for rep in sides.values():
                assert rep["mean_gap_mm"] == pytest.approx(1.5, abs=0.2)
                assert rep["min_gap_mm"] > 0
                worst.append(abs(rep["mean_gap_mm"] - 1.5))
        for before, after in zip(spine.vertebrae, aligned.vertebrae):
            vb = before.mesh.labels == 1
            moved = np.linalg.norm(
                after.mesh.vertices[vb] - before.mesh.vertices[vb], axis=1)
            assert moved.max() < 1e-6
    report(8, f"gaps {{-0.8, 0.5, 4.0}} mm drive to 1.5 mm "
              f"(worst error {max(worst):.3f} mm), bodies untouched")


def test_criterion_9_equivariance_suite():
    mesh, truth, _ = generate_vertebra(
        default_vertebra_params("L3", with_posterior=False))
    params = SpineParams(seed=5)
    spine, _ = generate_spine(params)
    sets = [v.landmarks for v in spine.vertebrae]
    base_morph = measure_morphometrics(spine.levels, sets)
    edge = 2.0
    rng = np.random.default_rng(77)
    for _ in range(50):
        T = random_rigid(rng, max_angle_deg=180.0, max_translation=100.0)
        hint = PATIENT_AXES.rotated(T[:3, :3])
        lms = detect_vertebra_landmarks(transform_mesh(mesh, T), orientation_hint=hint)
        err = np.linalg.norm(lms.points() - truth.transformed(T).points(), axis=1).max()
        assert err <= 1.5 * edge
        moved = measure_morphometrics(spine.levels, [s.transformed(T) for s in sets])
        for lvl in spine.levels:
            assert abs(moved.vb_width[lvl] - base_morph.vb_width[lvl]) < 1e-6
            assert abs(moved.vb_depth[lvl] - base_morph.vb_depth[lvl]) < 1e-6
            assert abs(moved.vb_height[lvl] - base_morph.vb_height[lvl]) < 1e-6
        for pair in base_morph.ivd_height:
            assert abs(moved.ivd_height[pair] - base_morph.ivd_height[pair]) < 1e-6
            assert abs(moved.fsu_angle[pair] - base_morph.fsu_angle[pair]) < 0.01
    report(9, "landmarks, dimensions, disc heights, and unit angles equivariant "
              "over 50 random rigid transforms")


def test_criterion_10_pipeline_determinism(tmp_path):
    def digest(path):
        h = hashlib.sha256()
        for name in sorted(os.listdir(path)):
            h.update(name.encode())
            with open(os.path.join(path, name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    digests = []
    for tag in ("a", "b"):
        synth = str(tmp_path / f"synth_{tag}")
        recon = str(tmp_path / f"recon_{tag}")
        lmk = str(tmp_path / f"lmk_{tag}")
        eval_dir = str(tmp_path / f"eval_{tag}")
        assert cli_main(["synth", "--out", synth, "--seed", "13"]) == 0
        meshes = sorted(os.path.join(synth, n) for n in os.listdir(synth)
                        if n.endswith(".ply"))
        assert cli_main(["landmarks", *meshes, "--out", lmk]) == 0
        assert cli_main(["reconstruct", "--atlas", synth, "--targets", synth,
                         "--out", recon, "--seed", "13"]) == 0
        assert cli_main(["evaluate", "--registered", recon, "--ground-truth", synth,
                         "--gt-landmarks", synth, "--out", eval_dir]) == 0
        digests.append((digest(synth), digest(lmk), digest(recon), digest(eval_dir)))
    assert digests[0] == digests[1]
    report(10, "synth, landmarks, reconstruct, and evaluate re-runs are byte-identical")
