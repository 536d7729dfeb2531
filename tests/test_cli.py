import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from spinerecon.cli import main
from spinerecon.config import build_config
from spinerecon.meshio import load_mesh, save_mesh
from spinerecon.registration import detect_spine_landmarks
from spinerecon.spine import SpineModel, Vertebra, level_from_filename, load_landmarks
from spinerecon.synthetic import (
    SpineParams,
    default_vertebra_params,
    generate_spine,
    generate_vertebra,
    make_registration_case,
)


def dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("synth"))
    assert main(["synth", "--out", out, "--seed", "3"]) == 0
    return out


class TestSynth:
    def test_outputs_present(self, synth_dir):
        names = sorted(os.listdir(synth_dir))
        assert "morphometrics.json" in names
        assert sum(n.endswith(".ply") for n in names) == 5
        assert sum(n.startswith("landmarks_") for n in names) == 5

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--out", a, "--seed", "7"]) == 0
        assert main(["synth", "--out", b, "--seed", "7"]) == 0
        assert dir_digest(a) == dir_digest(b)

    def test_invalid_params_rejected_before_writing(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "levels": [{"level": "L1", "endplate_tilt_deg": 45.0},
                       {"level": "L2"}],
            "ivd_heights": [5.0], "fsu_angles": [0.0],
        }))
        out = tmp_path / "out"
        assert main(["synth", "--params", str(params), "--out", str(out)]) == 1
        assert "tilt" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def perturbed_targets(tmp_path_factory):
    out = tmp_path_factory.mktemp("targets")
    spine, _ = generate_spine(SpineParams(seed=3))
    targets, _, _ = make_registration_case(
        spine, rotation_deg=5.0, translation_mm=5.0, scale_range=(0.95, 1.1),
        noise_sd=0.2, seed=2)
    paths = []
    for vertebra in targets.vertebrae:
        paths.append(str(out / f"vertebra_{vertebra.level}.ply"))
        save_mesh(vertebra.mesh, paths[-1])
    return paths


class TestLandmarks:
    def test_five_levels(self, synth_dir, tmp_path, capsys):
        meshes = sorted(
            os.path.join(synth_dir, n) for n in os.listdir(synth_dir) if n.endswith(".ply"))
        out = str(tmp_path / "lmk")
        assert main(["landmarks", *meshes, "--out", out]) == 0
        assert sorted(os.listdir(out)) == [f"landmarks_L{i}.json" for i in range(1, 6)]
        level, lms = load_landmarks(os.path.join(out, "landmarks_L3.json"))
        assert level == "L3"
        summary = capsys.readouterr().out
        assert summary.startswith("landmarks ")
        assert "levels=L1,L2,L3,L4,L5" in summary

    def test_matches_generator_truth(self, synth_dir, tmp_path):
        meshes = sorted(
            os.path.join(synth_dir, n) for n in os.listdir(synth_dir) if n.endswith(".ply"))
        out = str(tmp_path / "lmk")
        main(["landmarks", *meshes, "--out", out])
        for level in ("L1", "L5"):
            _, detected = load_landmarks(os.path.join(out, f"landmarks_{level}.json"))
            _, truth = load_landmarks(os.path.join(synth_dir, f"landmarks_{level}.json"))
            err = np.linalg.norm(detected.points() - truth.points(), axis=1).max()
            assert err < 1e-6

    def test_spine_curve_axis_mode(self, synth_dir, tmp_path):
        # spline-tangent axes on a coherent lordotic stack still land on
        # the exact extreme vertices
        meshes = sorted(
            os.path.join(synth_dir, n) for n in os.listdir(synth_dir) if n.endswith(".ply"))
        out = str(tmp_path / "lmk_curve")
        rc = main(["landmarks", *meshes, "--out", out,
                   "--set", "anatomy.use_spine_curve=true"])
        assert rc == 0
        for level in ("L1", "L3", "L5"):
            _, detected = load_landmarks(os.path.join(out, f"landmarks_{level}.json"))
            _, truth = load_landmarks(os.path.join(synth_dir, f"landmarks_{level}.json"))
            err = np.linalg.norm(detected.points() - truth.points(), axis=1).max()
            assert err < 1e-6

    def test_corrupt_file_nonzero_exit_names_file(self, tmp_path, capsys):
        bad = tmp_path / "vertebra_L1.ply"
        bad.write_text("not a ply file")
        out = str(tmp_path / "lmk")
        assert main(["landmarks", str(bad), "--out", out]) == 1
        assert "vertebra_L1.ply" in capsys.readouterr().err

    def test_single_vertebra_warns_and_succeeds(self, tmp_path, capsys):
        mesh, _, _ = generate_vertebra(default_vertebra_params("L3"))
        path = str(tmp_path / "vertebra_L3.ply")
        save_mesh(mesh, path)
        out = str(tmp_path / "lmk")
        assert main(["landmarks", path, "--out", out]) == 0
        assert "single vertebra" in capsys.readouterr().err

    def test_levels_override_and_duplicates(self, synth_dir, tmp_path, capsys):
        meshes = sorted(
            os.path.join(synth_dir, n) for n in os.listdir(synth_dir) if n.endswith(".ply"))
        assert main(["landmarks", *meshes[:2], "--out", str(tmp_path / "x"),
                     "--levels", "L1,L1"]) == 1
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize("use_curve", ["false", "true"])
    def test_matches_library_detection(self, perturbed_targets, tmp_path, use_curve):
        # the CLI and register_spine share one detection path; on these
        # perturbed bodies the spine curve moves landmarks by millimeters
        out = str(tmp_path / "lmk")
        override = f"anatomy.use_spine_curve={use_curve}"
        assert main(["landmarks", *perturbed_targets, "--out", out, "--set", override]) == 0
        config = build_config(None, [override])
        spine = SpineModel(tuple(
            Vertebra(level=level_from_filename(os.path.basename(p)), mesh=load_mesh(p))
            for p in perturbed_targets))
        expected = detect_spine_landmarks(
            spine, orientation_hint=config.orientation_hint,
            cos_threshold=config.cos_threshold, use_spine_curve=config.use_spine_curve)
        for level, want in zip(spine.levels, expected):
            _, got = load_landmarks(os.path.join(out, f"landmarks_{level}.json"))
            np.testing.assert_array_equal(got.points(), want.points())

    def test_nan_vertex_nonzero_exit_names_file(self, tmp_path, capsys):
        bad = tmp_path / "vertebra_L1.ply"
        bad.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
            "property double y\nproperty double z\nelement face 1\n"
            "property list uchar int vertex_indices\nend_header\n"
            "0 0 0\n1 nan 0\n0 1 0\n3 0 1 2\n")
        assert main(["landmarks", str(bad), "--out", str(tmp_path / "lmk")]) == 1
        err = capsys.readouterr().err
        assert "vertebra_L1.ply" in err and "vertex 1 " in err

    def test_detection_failure_names_level(self, tmp_path, capsys):
        # tilted plates cannot pass an extreme similarity threshold
        mesh, _, _ = generate_vertebra(
            default_vertebra_params("L2", endplate_tilt_deg=10.0))
        path = str(tmp_path / "vertebra_L2.ply")
        save_mesh(mesh, path)
        rc = main(["landmarks", path, "--out", str(tmp_path / "lmk"),
                   "--set", "anatomy.cos_threshold=0.9999"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "L2" in err and "endplate" in err


@pytest.fixture(scope="module")
def recon_dir(synth_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("recon"))
    rc = main(["reconstruct", "--atlas", synth_dir, "--targets", synth_dir,
               "--out", out, "--mode", "ours"])
    assert rc == 0
    return out


class TestReconstructEvaluate:
    def test_outputs(self, recon_dir):
        names = sorted(os.listdir(recon_dir))
        assert "transforms.json" in names
        assert "facet_gaps.json" in names
        assert sum(n.startswith("registered_") for n in names) == 5
        assert sum(n.startswith("landmarks_") for n in names) == 5

    def test_identity_case_transforms_are_identity(self, recon_dir):
        from spinerecon.spine import load_transforms
        transforms = load_transforms(os.path.join(recon_dir, "transforms.json"))
        for T in transforms.values():
            np.testing.assert_allclose(T, np.eye(4), atol=1e-9)

    BAD_ENTRY = "must be an object with a 'level' and a 4x4 'matrix' of numbers"

    @pytest.mark.parametrize("content, message", [
        ("[", ": invalid JSON at line 1 column 2: Expecting value"),
        ({"level": "L1"}, " must hold a JSON list"),
        ([{"matrix": np.eye(4).tolist()}], f": entry 0 {BAD_ENTRY}"),
        ([{"level": "L1", "matrix": np.eye(4).tolist()}, {"level": "L2"}],
         f": entry 1 {BAD_ENTRY}"),
        ([{"level": "L1", "matrix": np.eye(3).tolist()}], f": entry 0 {BAD_ENTRY}"),
        ([{"level": "L1", "matrix": [[1, 0, 0, 0]] * 3 + [[0, 0, 1]]}], f": entry 0 {BAD_ENTRY}"),
        ([{"level": "L1", "matrix": [["a"] * 4] * 4}], f": entry 0 {BAD_ENTRY}"),
        (["L1"], f": entry 0 {BAD_ENTRY}"),
    ])
    def test_malformed_transforms_file_names_it(self, tmp_path, content, message):
        from spinerecon.spine import load_transforms
        path = tmp_path / "transforms.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        with pytest.raises(ValueError) as exc:
            load_transforms(str(path))
        assert str(exc.value) == f"transforms file {path}{message}"

    def test_evaluate_identity_near_zero(self, recon_dir, synth_dir, tmp_path, capsys):
        out = str(tmp_path / "eval")
        rc = main(["evaluate", "--registered", recon_dir, "--ground-truth", synth_dir,
                   "--gt-landmarks", synth_dir, "--out", out])
        assert rc == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["p2m_vb_mean_mm"] < 1e-9
        assert report["landmark_mae_mean_mm"] < 1e-9
        assert report["fsu_mae_deg"] < 1e-9
        assert "facet_gaps" in report
        csv_text = open(os.path.join(out, "report.csv")).read()
        assert csv_text.splitlines()[0].split(",")[:2] == ["mode", "level"]

    def test_evaluate_without_gt_landmarks_leaves_columns_absent(
            self, recon_dir, synth_dir, tmp_path, capsys):
        out = str(tmp_path / "eval2")
        rc = main(["evaluate", "--registered", recon_dir, "--ground-truth", synth_dir,
                   "--out", out])
        assert rc == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["landmark_mae_mm"] is None
        assert report["fsu_mae_deg"] is None
        assert report["p2m_vb_mean_mm"] < 1e-9

    def test_missing_level_aborts_with_name(self, synth_dir, tmp_path, capsys):
        partial = tmp_path / "partial"
        partial.mkdir()
        for name in os.listdir(synth_dir):
            if name.endswith(".ply") and "L4" not in name:
                (partial / name).write_bytes(open(os.path.join(synth_dir, name), "rb").read())
        rc = main(["reconstruct", "--atlas", synth_dir, "--targets", str(partial),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "L4" in capsys.readouterr().err

    def test_per_pair_facet_width_via_config(self, synth_dir, tmp_path):
        widths = '{"L1-L2":2.0,"L2-L3":1.5,"L3-L4":1.5,"L4-L5":1.0}'
        out = str(tmp_path / "widths")
        rc = main(["reconstruct", "--atlas", synth_dir, "--targets", synth_dir,
                   "--out", out, "--set", f"facet.target_width_mm={widths}"])
        assert rc == 0
        gaps = json.loads(open(os.path.join(out, "facet_gaps.json")).read())
        assert gaps["L1-L2"]["left"]["mean_gap_mm"] == pytest.approx(2.0, abs=0.2)
        assert gaps["L4-L5"]["right"]["mean_gap_mm"] == pytest.approx(1.0, abs=0.2)

    def test_no_facets_flag(self, synth_dir, tmp_path, capsys):
        out = str(tmp_path / "nf")
        rc = main(["reconstruct", "--atlas", synth_dir, "--targets", synth_dir,
                   "--out", out, "--no-facets"])
        assert rc == 0
        assert "facets=skipped" in capsys.readouterr().out
        assert not os.path.exists(os.path.join(out, "facet_gaps.json"))

    def test_reconstruct_deterministic(self, synth_dir, tmp_path):
        a, b = str(tmp_path / "ra"), str(tmp_path / "rb")
        for out in (a, b):
            assert main(["reconstruct", "--atlas", synth_dir, "--targets", synth_dir,
                         "--out", out, "--seed", "11"]) == 0
        assert dir_digest(a) == dir_digest(b)

    def test_reconstruct_reports_subsecond_time(self, synth_dir, tmp_path, capsys):
        out = str(tmp_path / "timed")
        assert main(["reconstruct", "--atlas", synth_dir, "--targets", synth_dir,
                     "--out", out]) == 0
        summary = capsys.readouterr().out
        elapsed = float(summary.split("elapsed_s=")[1].split()[0])
        assert elapsed < 1.0

    def test_evaluate_perturbed_case(self, synth_dir, tmp_path):
        # shift every ground-truth mesh so the report shows a uniform error
        import spinerecon as sr
        shifted = tmp_path / "shifted"
        shifted.mkdir()
        T = np.eye(4)
        T[:3, 3] = [0.0, 1.5, 0.0]
        for name in os.listdir(synth_dir):
            src = os.path.join(synth_dir, name)
            if name.endswith(".ply"):
                mesh = sr.load_mesh(src)
                save_mesh(sr.transform_mesh(mesh, T), str(shifted / name))
            elif name.startswith("landmarks_"):
                level, lms = load_landmarks(src)
                from spinerecon.spine import save_landmarks as save_lmk
                save_lmk(str(shifted / name), level, lms.transformed(T))
        recon = str(tmp_path / "recon")
        assert main(["reconstruct", "--atlas", synth_dir, "--targets", synth_dir,
                     "--out", recon, "--no-facets"]) == 0
        out = str(tmp_path / "eval")
        assert main(["evaluate", "--registered", recon, "--ground-truth", str(shifted),
                     "--gt-landmarks", str(shifted), "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        # landmarks are offset by exactly 1.5 mm; morphometrics are shift-invariant
        assert report["landmark_mae_mean_mm"] == pytest.approx(1.5, abs=1e-9)
        assert report["fsu_mae_deg"] == pytest.approx(0.0, abs=1e-9)
        assert 0 < report["p2m_full_mean_mm"] <= 1.5


class TestConfig:
    def test_dump_is_valid_json(self, capsys):
        assert main(["config", "--dump"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["anatomy"]["cos_threshold"] == 0.8
        assert payload["facet"]["target_width_mm"] == 1.5

    def test_set_override(self, capsys):
        assert main(["config", "--dump", "--set", "anatomy.cos_threshold=0.75"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["anatomy"]["cos_threshold"] == 0.75

    def test_bad_key_rejected(self, capsys):
        assert main(["config", "--set", "anatomy.nope=1"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value_rejected(self, capsys):
        assert main(["config", "--set", "anatomy.cos_threshold=2.0"]) == 1
        assert "cos_threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        # values a coercing reader let through: "False" and "no" turned the
        # curve on, fractions were truncated, true counted as one pass
        ("anatomy.use_spine_curve=False", "anatomy.use_spine_curve"),
        ("anatomy.use_spine_curve=no", "anatomy.use_spine_curve"),
        ("icp.max_iterations=2.5", "icp.max_iterations"),
        ("icp.sample_count=2000.9", "icp.sample_count"),
        ("registration.seed=1.7", "registration.seed"),
        ("facet.max_passes=true", "facet.max_passes"),
        ('facet.target_width_mm={"L1-L2":1,"L1_L3":1,"L3-L4":1,"L4-L5":1}',
         "facet.target_width_mm"),
        # values that failed with a message naming no key
        ("anatomy.cos_threshold=abc", "anatomy.cos_threshold"),
        ('axes={"lateral":"+y"}', "axes.lateral"),
        ("anatomy=5", "anatomy"),
        # out of range, one or more per key
        ("axes.lateral=+q", "axes.lateral"),
        ("axes.anterior=+x", "axes.anterior"),
        ("axes.longitudinal=-z", "axes.longitudinal"),
        ("anatomy.cos_threshold=1.0", "anatomy.cos_threshold"),
        ("anatomy.cos_threshold=NaN", "anatomy.cos_threshold"),
        ("anatomy.use_spine_curve=1", "anatomy.use_spine_curve"),
        ("registration.mode=fast", "registration.mode"),
        ("registration.seed=-1", "registration.seed"),
        ("icp.max_iterations=0", "icp.max_iterations"),
        ("icp.convergence_tol_mm=0", "icp.convergence_tol_mm"),
        ("icp.sample_count=2", "icp.sample_count"),
        # removed keys are unknown
        ("anatomy.slab_half_width_mm=0", "anatomy.slab_half_width_mm"),
        ("icp.outlier_trim_fraction=1.0", "icp.outlier_trim_fraction"),
        ("icp.outlier_trim_fraction=true", "icp.outlier_trim_fraction"),
        ("facet.target_width_mm=0", "facet.target_width_mm"),
        ("facet.target_width_mm=Infinity", "facet.target_width_mm"),
        ('facet.target_width_mm={"L1-L2":-1,"L2-L3":1,"L3-L4":1,"L4-L5":1}',
         "facet.target_width_mm.L1-L2"),
        ("facet.falloff_radius_mm=-5", "facet.falloff_radius_mm"),
        ("facet.max_passes=0", "facet.max_passes"),
        ("output.format=vtk", "output.format"),
        ("nope.x=1", "nope"),
    ])
    def test_rejection_names_key(self, override, key, capsys):
        assert main(["config", "--set", override]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("content, message", [
        ('{"icp": 5}', "icp must be a JSON object"),
        ("[1]", "must hold a JSON object"),
        ('{"facet": {"max_passes": 2.0}}', "facet.max_passes"),
        ('{"anatomy": {"nope": 1}}', "unknown config key 'anatomy.nope'"),
        ('{"anatomy": {"slab_half_width_mm": 1}}',
         "unknown config key 'anatomy.slab_half_width_mm'"),
    ])
    def test_file_rejection_names_key(self, tmp_path, content, message, capsys):
        path = tmp_path / "config.json"
        path.write_text(content)
        assert main(["config", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_malformed_file_names_path_and_position(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{\n  "anatomy": {cos_threshold: 0.7}\n}\n')
        assert main(["config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "--config" in err and "line 2 column 15" in err
        assert "Traceback" not in err

    def test_section_override_merges_like_a_file(self, capsys):
        assert main(["config", "--dump", "--set", 'axes={"lateral":"+x"}']) == 0
        assert json.loads(capsys.readouterr().out)["axes"] == {
            "lateral": "+x", "anterior": "+y", "longitudinal": "+z"}

    def test_dump_round_trips_through_config_file(self, tmp_path, capsys):
        overrides = ["anatomy.use_spine_curve=true", "registration.mode=icp_vb", "icp.sample_count=500",
                     'facet.target_width_mm={"L1-L2":2,"L2-L3":1.5,"L3-L4":1.5,"L4-L5":1}',
                     'axes={"lateral":"-x","anterior":"-y","longitudinal":"+z"}']
        assert main(["config", "--dump", *(a for o in overrides for a in ("--set", o))]) == 0
        dumped = capsys.readouterr().out
        path = tmp_path / "config.json"
        path.write_text(dumped)
        assert main(["config", "--dump", "--config", str(path)]) == 0
        assert capsys.readouterr().out == dumped
        want, got = build_config(None, overrides), build_config(str(path))
        for field in dataclasses.fields(want):
            a, b = getattr(want, field.name), getattr(got, field.name)
            if field.name == "orientation_hint":
                np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())
            else:
                assert a == b, field.name
        assert want.use_spine_curve is True and want.facet_target_width["L4-L5"] == 1.0


@pytest.mark.parametrize("command", ["landmarks", "reconstruct", "evaluate"])
def test_failing_input_leaves_no_out_directory(command, synth_dir, recon_dir, tmp_path, capsys):
    out = tmp_path / "out"
    missing = str(tmp_path / "missing")
    argv = {
        "landmarks": ["landmarks", os.path.join(missing, "vertebra_L1.ply")],
        "reconstruct": ["reconstruct", "--atlas", synth_dir, "--targets", missing],
        "evaluate": ["evaluate", "--registered", recon_dir, "--ground-truth", synth_dir,
                     "--gt-landmarks", missing],
    }[command]
    assert main([*argv, "--out", str(out)]) == 1
    assert "missing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("swapped_in", ["registered", "gt_landmarks"])
def test_evaluate_rejects_landmark_file_of_another_level(swapped_in, synth_dir, recon_dir,
                                                         tmp_path, capsys):
    dirs = {"registered": recon_dir, "gt_landmarks": synth_dir}
    copy = tmp_path / swapped_in
    shutil.copytree(dirs[swapped_in], copy)
    l2, l3 = copy / "landmarks_L2.json", copy / "landmarks_L3.json"
    l2_bytes = l2.read_bytes()
    l2.write_bytes(l3.read_bytes())
    l3.write_bytes(l2_bytes)
    dirs[swapped_in] = str(copy)
    out = tmp_path / "out"
    assert main(["evaluate", "--registered", dirs["registered"], "--ground-truth", synth_dir,
                 "--gt-landmarks", dirs["gt_landmarks"], "--out", str(out)]) == 1
    assert f"landmark file {l2} holds level 'L3', expected 'L2'" in capsys.readouterr().err
    assert not out.exists()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "spinerecon.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize("command", [
    ["landmarks", "vertebra_L1.ply", "--out", "out"],
    ["reconstruct", "--atlas", "atlas", "--targets", "targets", "--out", "out"],
])
def test_threads_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize("command, content, message", [
    ("evaluate", {"l3": [1.0, 2.0]}, "'l3' must be 3 numbers"),
    ("evaluate", "{", "invalid JSON at line 1 column 2"),
    ("evaluate", [1, 2], "'level' key"),
    ("synth", {}, "'levels' list"),
    ("synth", [1, 2], "'levels' list"),
    ("synth", "{", "invalid JSON at line 1 column 2"),
    ("synth", {"levels": [{"level": "L1", "width": 40.0}]}, "'width'"),
])
def test_malformed_json_input_names_file(command, content, message, synth_dir, recon_dir,
                                         tmp_path, capsys):
    if command == "evaluate":
        gt = tmp_path / "gt"
        gt.mkdir()
        for level in ("L1", "L2", "L3", "L4", "L5"):
            name = f"landmarks_{level}.json"
            (gt / name).write_bytes(open(os.path.join(synth_dir, name), "rb").read())
        bad = gt / "landmarks_L3.json"
        if isinstance(content, dict):
            content = {**json.loads(bad.read_text()), **content}
        argv = ["evaluate", "--registered", recon_dir, "--ground-truth", synth_dir,
                "--gt-landmarks", str(gt)]
    else:
        bad = tmp_path / "params.json"
        argv = ["synth", "--params", str(bad)]
    bad.write_text(content if isinstance(content, str) else json.dumps(content))
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and message in err and "Traceback" not in err
    assert not out.exists()
