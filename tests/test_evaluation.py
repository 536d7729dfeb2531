import json
import logging
import sys
import threading
import time

import numpy as np
import pytest

import spinerecon.evaluation as evaluation
import spinerecon.spine as spine_module
from helpers import bits, count_executors, random_rigid, sheet_mesh
from spinerecon.anatomy import LandmarkSet
from spinerecon.evaluation import (
    evaluate_reconstruction,
    fsu_angle,
    ivd_height,
    landmark_mae,
    measure_morphometrics,
    point_to_model_distance,
    vb_dimensions,
    write_report_csv,
    write_report_json,
)
from spinerecon.mesh import (
    LABEL_VERTEBRAL_BODY,
    SurfaceIndex,
    TriangleMesh,
    transform_mesh,
)
from spinerecon.registration import compute_frame
from spinerecon.spine import SpineModel, map_levels
from spinerecon.synthetic import (
    SpineParams,
    default_vertebra_params,
    generate_spine,
    generate_vertebra,
)

HAND = LandmarkSet(
    l1=[-20, 0, 15], l2=[20, 0, 15], l3=[-20, 0, -15], l4=[20, 0, -15],
    l5=[0, -18, 15], l6=[0, 18, 15], l7=[0, -18, -15], l8=[0, 18, -15],
)


def shifted(lms: LandmarkSet, delta) -> LandmarkSet:
    T = np.eye(4)
    T[:3, 3] = delta
    return lms.transformed(T)


class TestPointToModel:
    def test_identical_mesh_is_zero(self):
        mesh, _, _ = generate_vertebra(default_vertebra_params("L3", tessellation_edge=4.0))
        assert point_to_model_distance(mesh, SurfaceIndex(mesh)) == 0.0

    def test_offset_sheet_above_larger_sheet(self):
        small = sheet_mesh(10, 10, nx=6, ny=6, center=(0, 0, 1.0))
        big = sheet_mesh(100, 100, nx=12, ny=12)
        assert point_to_model_distance(small, SurfaceIndex(big)) == pytest.approx(1.0, abs=1e-12)


class TestSurfaceIndexBatchIndependence:
    """A query point's result must not depend on the rest of its batch."""

    @pytest.mark.parametrize("offset_mm", [0.0, 3.0])
    def test_masked_batch_equals_masked_result(self, offset_mm):
        mesh, _, _ = generate_vertebra(default_vertebra_params("L3", tessellation_edge=3.0))
        rng = np.random.default_rng(11)
        direction = rng.normal(size=mesh.vertices.shape)
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        pts = mesh.vertices + offset_mm * direction
        mask = mesh.labels == LABEL_VERTEBRAL_BODY
        index = SurfaceIndex(mesh)
        whole = index.query(pts)
        part = index.query(pts[mask])
        for k in (0, 1):
            np.testing.assert_array_equal(whole[k][mask], part[k])


class TestLandmarkMae:
    def test_identical_zero(self):
        assert landmark_mae(HAND, HAND) == 0.0

    def test_uniform_offset(self):
        assert landmark_mae(shifted(HAND, (3, 0, 0)), HAND) == pytest.approx(3.0)

    def test_hand_mixed_offsets(self):
        pts = HAND.points().copy()
        pts[0] += (1.0, 2.0, 2.0)  # |(1,2,2)| = 3, others 0
        moved = LandmarkSet(*pts)
        assert landmark_mae(moved, HAND) == pytest.approx(3.0 / 8.0)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(8)
        a = HAND
        b = LandmarkSet(*(HAND.points() + rng.normal(0, 0.5, (8, 3))))
        c = LandmarkSet(*(HAND.points() + rng.normal(0, 0.5, (8, 3))))
        assert landmark_mae(a, b) == landmark_mae(b, a)
        assert landmark_mae(a, c) <= landmark_mae(a, b) + landmark_mae(b, c) + 1e-12


class TestVbDimensions:
    def test_hand_frame(self):
        assert vb_dimensions(compute_frame(HAND)) == pytest.approx((40, 36, 30))

    def test_uniform_scaling(self):
        S = np.diag([2.0, 2.0, 2.0, 1.0])
        dims = vb_dimensions(compute_frame(HAND.transformed(S)))
        assert dims == pytest.approx((80, 72, 60))

    def test_unit_frame(self):
        from spinerecon.registration import VertebraFrame
        f = VertebraFrame(x_g=[1, 0, 0], y_g=[0, 1, 0], z_g=[0, 0, 1], c_g=[0, 0, 0])
        assert vb_dimensions(f) == pytest.approx((1, 1, 1))


class TestIvdHeight:
    def test_synthetic_stack_five_mm(self):
        upper = shifted(HAND, (0, 0, 35))  # inferior plate at z = 20
        lower = HAND  # superior plate at z = 15
        assert ivd_height(upper, lower, [0, 0, 1]) == pytest.approx(5.0)

    def test_zero_gap(self):
        upper = shifted(HAND, (0, 0, 30))
        assert ivd_height(upper, HAND, [0, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_axis_flip_negates(self):
        upper = shifted(HAND, (0, 0, 35))
        assert ivd_height(upper, HAND, [0, 0, -1]) == pytest.approx(-5.0)

    def test_interpenetrating_levels_measure_negative_not_raise(self, caplog):
        # a misregistered pair: the upper inferior plate 5 mm below the lower superior one
        upper = shifted(HAND, (0, 0, 25))
        with caplog.at_level(logging.WARNING, logger="spinerecon.evaluation"):
            record = measure_morphometrics(["L1", "L2"], [upper, HAND])
        assert record.ivd_height["L1-L2"] == pytest.approx(-5.0)
        assert [r.getMessage() for r in caplog.records] == [
            "non-positive disc height -5.000 mm (interpenetrating plates?)"]


class TestFsuAngle:
    def test_parallel_plates_zero(self):
        upper = shifted(HAND, (0, 0, 35))
        assert fsu_angle(upper, HAND, [1, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_wedged_pair_reads_ten_degrees(self):
        params = SpineParams(
            vertebrae=(default_vertebra_params("L1"), default_vertebra_params("L2")),
            ivd_heights=(5.0,), fsu_angles=(10.0,))
        spine, _ = generate_spine(params)
        got = fsu_angle(spine[0].landmarks, spine[1].landmarks, [1, 0, 0])
        assert got == pytest.approx(10.0, abs=0.5)

    def test_kyphotic_wedge_negative(self):
        params = SpineParams(
            vertebrae=(default_vertebra_params("L1"), default_vertebra_params("L2")),
            ivd_heights=(5.0,), fsu_angles=(-10.0,))
        spine, _ = generate_spine(params)
        got = fsu_angle(spine[0].landmarks, spine[1].landmarks, [1, 0, 0])
        assert got == pytest.approx(-10.0, abs=0.5)

    def test_sagittal_mirror_with_relabeling_unchanged(self):
        params = SpineParams(
            vertebrae=(default_vertebra_params("L1"), default_vertebra_params("L2")),
            ivd_heights=(5.0,), fsu_angles=(7.0,), seed=4)
        spine, _ = generate_spine(params)
        def mirror(lms):
            m = np.diag([-1.0, 1.0, 1.0])
            p = {n: m @ getattr(lms, n) for n in
                 ("l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8")}
            return LandmarkSet(  # left/right labels swap under the mirror
                l1=p["l2"], l2=p["l1"], l3=p["l4"], l4=p["l3"],
                l5=p["l5"], l6=p["l6"], l7=p["l7"], l8=p["l8"])
        base = measure_morphometrics(["L1", "L2"], [spine[0].landmarks, spine[1].landmarks])
        mirrored = measure_morphometrics(
            ["L1", "L2"], [mirror(spine[0].landmarks), mirror(spine[1].landmarks)])
        assert mirrored.fsu_angle["L1-L2"] == pytest.approx(
            base.fsu_angle["L1-L2"], abs=1e-9)

    def test_axial_mirror_negates(self):
        params = SpineParams(
            vertebrae=(default_vertebra_params("L1"), default_vertebra_params("L2")),
            ivd_heights=(5.0,), fsu_angles=(7.0,), seed=4)
        spine, _ = generate_spine(params)
        m = np.diag([1.0, 1.0, -1.0])
        def flip(lms):
            return LandmarkSet(*(m @ p for p in lms.points()))
        base = fsu_angle(spine[0].landmarks, spine[1].landmarks, [1, 0, 0])
        flipped = fsu_angle(flip(spine[0].landmarks), flip(spine[1].landmarks), [1, 0, 0])
        assert flipped == pytest.approx(-base, abs=1e-9)

    def test_degenerate_projection_rejected(self):
        upper = shifted(HAND, (0, 0, 35))
        with pytest.raises(ValueError, match="degenerate"):
            fsu_angle(upper, HAND, [0, 1, 0])  # normal along the plate lines


class TestRigidInvariance:
    def test_morphometrics_invariant_under_common_rigid(self):
        params = SpineParams(seed=2)
        spine, record = generate_spine(params)
        sets = [v.landmarks for v in spine.vertebrae]
        base = measure_morphometrics(spine.levels, sets)
        rng = np.random.default_rng(13)
        for _ in range(10):
            T = random_rigid(rng)
            moved = measure_morphometrics(spine.levels, [s.transformed(T) for s in sets])
            for lvl in spine.levels:
                assert moved.vb_width[lvl] == pytest.approx(base.vb_width[lvl], abs=1e-6)
                assert moved.vb_height[lvl] == pytest.approx(base.vb_height[lvl], abs=1e-6)
            for pair in base.ivd_height:
                assert moved.ivd_height[pair] == pytest.approx(base.ivd_height[pair], abs=1e-6)
                assert moved.fsu_angle[pair] == pytest.approx(base.fsu_angle[pair], abs=0.01)


@pytest.fixture(scope="module")
def spine():
    return generate_spine(SpineParams())[0]


def moved_spine(spine):
    """Every level moved by its own small rigid transform."""
    rng = np.random.default_rng(5)
    return SpineModel(tuple(
        v.with_(mesh=transform_mesh(v.mesh, random_rigid(rng, 4.0, 1.5)))
        for v in spine.vertebrae))


class TestEvaluateReconstruction:

    def test_identity_all_zero(self, spine):
        gt_sets = [v.landmarks for v in spine.vertebrae]
        report = evaluate_reconstruction(spine, spine, gt_sets, mode="ours")
        assert report.p2m_full_mean == 0.0
        assert report.p2m_vb_mean == 0.0
        assert report.landmark_mae_mean == 0.0
        assert report.width_mae == 0.0
        assert report.fsu_mae == 0.0

    def test_one_translated_vertebra(self, spine):
        moved = []
        T = np.eye(4)
        T[:3, 3] = [0, 0, 2.0]
        for i, v in enumerate(spine.vertebrae):
            if i == 2:
                moved.append(v.with_(mesh=transform_mesh(v.mesh, T),
                                     landmarks=v.landmarks.transformed(T)))
            else:
                moved.append(v)
        report = evaluate_reconstruction(SpineModel(tuple(moved)), spine,
                                         [v.landmarks for v in spine.vertebrae])
        # per-vertex nearest distance never exceeds the 2 mm correspondence
        # offset; side walls slide along themselves so the mean sits below it
        assert 0.5 < report.p2m_full["L3"] <= 2.0 + 1e-12
        assert report.p2m_full["L1"] == 0.0
        assert report.p2m_full_mean == pytest.approx(report.p2m_full["L3"] / 5.0, rel=1e-9)
        assert report.landmark_mae_per_level["L3"] == pytest.approx(2.0)
        assert report.p2m_full["L3"] == pytest.approx(1.1488, abs=2e-3)  # regression pin

    def test_p2m_matches_point_to_model_distance_bitwise(self, spine):
        moved = moved_spine(spine)
        unlabeled = SpineModel(tuple(
            v.with_(mesh=TriangleMesh(v.mesh.vertices, v.mesh.triangles))
            for v in moved.vertebrae))
        for registered in (moved, unlabeled):
            report = evaluate_reconstruction(registered, spine, None)
            for reg_v, gt_v in zip(registered.vertebrae, spine.vertebrae):
                index = SurfaceIndex(gt_v.mesh)
                full = point_to_model_distance(reg_v.mesh, index)
                mask = None
                if reg_v.mesh.labels is not None:
                    mask = reg_v.mesh.labels == LABEL_VERTEBRAL_BODY
                    assert 0 < mask.sum() < len(mask)
                vb = point_to_model_distance(reg_v.mesh, index, vertex_mask=mask)
                assert report.p2m_full[reg_v.level] == full > 0
                assert report.p2m_vb[reg_v.level] == vb
            if registered is unlabeled:
                assert report.p2m_vb == report.p2m_full

    def test_level_mismatch_rejected(self, spine):
        with pytest.raises(ValueError, match="level mismatch"):
            evaluate_reconstruction(spine, SpineModel(spine.vertebrae[:2]), None)

    def test_without_gt_landmarks_fields_absent(self, spine):
        report = evaluate_reconstruction(spine, spine, None)
        assert report.landmark_mae_mean is None
        assert report.width_mae is None

    def test_report_files(self, spine, tmp_path):
        gt_sets = [v.landmarks for v in spine.vertebrae]
        report = evaluate_reconstruction(spine, spine, gt_sets, elapsed_s=0.5)
        write_report_json(report, str(tmp_path / "r.json"))
        write_report_csv([report], str(tmp_path / "r.csv"))
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0].startswith("mode,level,p2m_vb_mm")
        assert len(lines) == 1 + 5 + 1  # header + levels + mean row
        assert lines[-1].split(",")[1] == "mean"
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["mode"] == "ours"
        assert payload["time_s"] == 0.5


    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_report_files_refuse_non_finite_numbers(self, spine, tmp_path, value):
        report = evaluate_reconstruction(spine, spine, None, elapsed_s=value)
        json_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
        with pytest.raises(ValueError, match=f"^{json_path}: Out of range float values"):
            write_report_json(report, str(json_path))
        with pytest.raises(ValueError, match=f"^{csv_path}: {value} is not a finite number$"):
            write_report_csv([report], str(csv_path))
        assert not json_path.exists() and not csv_path.exists()


class TestMapLevels:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_results_in_index_order(self, cpus, monkeypatch):
        monkeypatch.setattr(spine_module, "_usable_cpus", lambda: cpus)
        workers = count_executors(monkeypatch)
        assert map_levels(lambda i: i * i, 7) == [i * i for i in range(7)]
        assert workers == ([min(cpus, 7) - 1] if cpus > 1 else [])

    def test_calling_thread_is_a_worker(self, monkeypatch):
        monkeypatch.setattr(spine_module, "_usable_cpus", lambda: 2)
        callers = []

        def fn(i):
            callers.append(threading.get_ident())
            time.sleep(0.01)
            return i

        assert map_levels(fn, 6) == list(range(6))
        assert threading.get_ident() in callers and len(set(callers)) == 2

    @pytest.mark.parametrize("cpus, count", [(1, 5), (8, 1), (8, 0)])
    def test_builds_no_executor_for_one_worker(self, cpus, count, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("one worker needs no executor")

        monkeypatch.setattr(spine_module, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(spine_module, "_usable_cpus", lambda: cpus)
        assert map_levels(str, count) == [str(i) for i in range(count)]

    def test_no_index_handed_out_after_a_failure(self, monkeypatch):
        monkeypatch.setattr(spine_module, "_usable_cpus", lambda: 2)
        failed = threading.Event()
        called = []

        def fn(i):
            called.append(i)
            if i == 0:
                failed.set()
                raise ValueError("broken")
            failed.wait(5.0)
            time.sleep(0.05)  # the failure is recorded meanwhile
            return i

        with pytest.raises(ValueError, match="broken"):
            map_levels(fn, 6)
        assert sorted(called) in ([0], [0, 1])


class TestEvaluationPool:
    @staticmethod
    def report_bits(report) -> dict:
        """Every number of the report as raw bits, by field."""
        out = {}
        for key, value in report.to_dict().items():
            if isinstance(value, dict):
                out[key] = bits(list(value.values()))
            elif isinstance(value, float):
                out[key] = bits(value)
        return out

    def test_worker_count_changes_no_bit(self, spine, monkeypatch):
        registered = moved_spine(spine)
        gt_sets = [v.landmarks for v in spine.vertebrae]
        workers = count_executors(monkeypatch)
        with monkeypatch.context() as mp:
            mp.setattr(spine_module, "_usable_cpus", lambda: 1)
            serial = evaluate_reconstruction(registered, spine, gt_sets)
        default = evaluate_reconstruction(registered, spine, gt_sets)
        # more workers than CPUs, switching threads often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with monkeypatch.context() as mp:
                mp.setattr(spine_module, "_usable_cpus", lambda: 8)
                crowded = evaluate_reconstruction(registered, spine, gt_sets)
        finally:
            sys.setswitchinterval(interval)
        assert workers == [n - 1 for n in (1, min(5, spine_module._usable_cpus()), 5) if n > 1]
        want = self.report_bits(serial)
        assert serial.p2m_full_mean > 0 and len(want) == 11
        for report in (default, crowded):
            assert list(report.p2m_full) == list(report.p2m_vb) == spine.levels
            got = self.report_bits(report)
            assert got.keys() == want.keys()
            for key in want:
                np.testing.assert_array_equal(got[key], want[key], err_msg=key)

    def test_first_failing_level_is_reported(self, spine, monkeypatch):
        slow, fast = spine[0].mesh, spine[2].mesh
        build = evaluation.SurfaceIndex

        def index(mesh):
            if mesh is slow:  # L1 fails after L3 has failed
                time.sleep(0.2)
                raise ValueError("first broken target")
            if mesh is fast:
                raise ValueError("second broken target")
            return build(mesh)

        monkeypatch.setattr(evaluation, "SurfaceIndex", index)
        monkeypatch.setattr(spine_module, "_usable_cpus", lambda: 5)
        with pytest.raises(RuntimeError,
                           match=r"^L1: evaluation failed: first broken target$"):
            evaluate_reconstruction(spine, spine, None)

    def test_level_without_triangles_named(self, spine):
        l3 = spine[2].mesh
        broken = SpineModel(tuple(
            v.with_(mesh=TriangleMesh(l3.vertices, np.zeros((0, 3), dtype=np.int64)))
            if v.level == "L3" else v for v in spine.vertebrae))
        with pytest.raises(RuntimeError, match=r"^L3: evaluation failed: "
                           r"cannot index a mesh with no triangles$"):
            evaluate_reconstruction(spine, broken, None)
