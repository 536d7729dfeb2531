import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import spinerecon
from helpers import spine_with_unmeshed_facet
from spinerecon.cli import main
from spinerecon.config import build_config
from spinerecon.mesh import TriangleMesh
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

    def test_fsu_angle_out_of_range_rejected(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "levels": [{"level": "L1"}, {"level": "L2"}],
            "ivd_heights": [5.0], "fsu_angles": [95.0],
        }))
        out = tmp_path / "out"
        assert main(["synth", "--params", str(params), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --params {params}: fsu angles must lie in (-90, 90) degrees\n")
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
        # without the spine curve every level uses the principal axes anyway
        for use_curve, warned in (("false", False), ("true", True)):
            assert main(["landmarks", path, "--out", out,
                         "--set", f"anatomy.use_spine_curve={use_curve}"]) == 0
            assert ("single vertebra" in capsys.readouterr().err) == warned

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
        with open(os.path.join(recon_dir, "transforms.json")) as fh:
            entries = json.load(fh)
        assert [e["level"] for e in entries] == [f"L{i}" for i in range(1, 6)]
        for entry in entries:
            np.testing.assert_allclose(entry["matrix"], np.eye(4), atol=1e-9)

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

    def test_facet_without_triangles_fails_naming_the_pair(self, tmp_path, capsys):
        atlas = tmp_path / "atlas"
        atlas.mkdir()
        for vertebra in spine_with_unmeshed_facet().vertebrae:
            save_mesh(vertebra.mesh, str(atlas / f"vertebra_{vertebra.level}.ply"))
        reconstruct = ["reconstruct", "--atlas", str(atlas), "--targets", str(atlas),
                       "--out", str(tmp_path / "out")]
        assert main(reconstruct) == 1
        err = capsys.readouterr().err
        assert "L1-L2" in err and "left" in err and "--no-facets" in err
        assert main([*reconstruct, "--no-facets"]) == 0

    def test_no_facets_into_reused_out_drops_earlier_gaps(self, synth_dir, tmp_path):
        out, report = str(tmp_path / "reused"), str(tmp_path / "eval" / "report.json")
        evaluate = ["evaluate", "--registered", out, "--ground-truth", synth_dir,
                    "--out", str(tmp_path / "eval")]
        reconstruct = ["reconstruct", "--atlas", synth_dir, "--targets", synth_dir, "--out", out]
        assert main(reconstruct) == 0
        assert main(evaluate) == 0
        assert "facet_gaps" in json.loads(open(report).read())
        assert main([*reconstruct, "--no-facets"]) == 0
        assert not os.path.exists(os.path.join(out, "facet_gaps.json"))
        assert main(evaluate) == 0
        assert "facet_gaps" not in json.loads(open(report).read())

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
        # curve on, fractions were truncated
        ("anatomy.use_spine_curve=False", "anatomy.use_spine_curve"),
        ("anatomy.use_spine_curve=no", "anatomy.use_spine_curve"),
        ("icp.max_iterations=2.5", "icp.max_iterations"),
        ("registration.seed=1.7", "registration.seed"),
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
        ("facet.target_width_mm=0", "facet.target_width_mm"),
        ("facet.target_width_mm=Infinity", "facet.target_width_mm"),
        ('facet.target_width_mm={"L1-L2":-1,"L2-L3":1,"L3-L4":1,"L4-L5":1}',
         "facet.target_width_mm.L1-L2"),
        ("output.format=vtk", "output.format"),
        # removed keys are unknown, whatever their value, as are keys never known
        ("anatomy.slab_half_width_mm=0", "anatomy.slab_half_width_mm"),
        ("icp.outlier_trim_fraction=1.0", "icp.outlier_trim_fraction"),
        ("icp.outlier_trim_fraction=true", "icp.outlier_trim_fraction"),
        ("icp.convergence_tol_mm=0", "icp.convergence_tol_mm"),
        ("icp.sample_count=2", "icp.sample_count"),
        ("icp.sample_count=2000.9", "icp.sample_count"),
        ("facet.falloff_radius_mm=-5", "facet.falloff_radius_mm"),
        ("facet.max_passes=0", "facet.max_passes"),
        ("facet.max_passes=true", "facet.max_passes"),
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

    @pytest.mark.parametrize("given", ["set", "file"])
    @pytest.mark.parametrize("key, value", [
        ("icp.convergence_tol_mm", 1e-4), ("icp.sample_count", 2000),
        ("facet.falloff_radius_mm", 5.0), ("facet.max_passes", 5),
    ])
    def test_removed_key_stops_reconstruct(self, key, value, given, synth_dir, tmp_path, capsys):
        # these are the library's defaults now: even the value every caller used is refused
        out = tmp_path / "out"
        if given == "set":
            flags = ["--set", f"{key}={value}"]
        else:
            section, name = key.split(".")
            path = tmp_path / "config.json"
            path.write_text(json.dumps({section: {name: value}}))
            flags = ["--config", str(path)]
        assert main(["reconstruct", "--atlas", synth_dir, "--targets", synth_dir,
                     "--out", str(out), *flags]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

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
        overrides = ["anatomy.use_spine_curve=true", "registration.mode=icp_vb", "icp.max_iterations=7",
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
        assert want.icp_max_iterations == 7


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


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_evaluate_rejects_elapsed_s_that_is_not_a_time(value, synth_dir, recon_dir, tmp_path,
                                                        capsys):
    out = tmp_path / "out"
    assert main(["evaluate", "--registered", recon_dir, "--ground-truth", synth_dir,
                 "--out", str(out), "--elapsed-s", value]) == 1
    assert "error: --elapsed-s must be a finite number >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_records_zero_elapsed_s(synth_dir, recon_dir, tmp_path):
    out = tmp_path / "out"
    assert main(["evaluate", "--registered", recon_dir, "--ground-truth", synth_dir,
                 "--out", str(out), "--elapsed-s", "0"]) == 0
    assert json.loads((out / "report.json").read_text())["time_s"] == 0.0
    assert (out / "report.csv").read_text().splitlines()[-1].endswith(",0")


def test_evaluate_names_a_ground_truth_level_without_triangles(synth_dir, recon_dir, tmp_path,
                                                               capsys):
    ground_truth = tmp_path / "ground_truth"
    shutil.copytree(synth_dir, ground_truth)
    l3 = str(ground_truth / "vertebra_L3.ply")
    mesh = load_mesh(l3)
    save_mesh(TriangleMesh(mesh.vertices, np.zeros((0, 3), dtype=np.int64), mesh.labels), l3)
    out = tmp_path / "out"
    assert main(["evaluate", "--registered", recon_dir, "--ground-truth", str(ground_truth),
                 "--out", str(out)]) == 1
    assert ("error: L3: evaluation failed: cannot index a mesh with no triangles"
            in capsys.readouterr().err)
    assert not out.exists()


def test_evaluate_names_a_missing_registered_landmark_file(synth_dir, recon_dir, tmp_path,
                                                           capsys):
    registered = tmp_path / "registered"
    shutil.copytree(recon_dir, registered)
    (registered / "landmarks_L3.json").unlink()
    out = tmp_path / "out"
    assert main(["evaluate", "--registered", str(registered), "--ground-truth", synth_dir,
                 "--gt-landmarks", synth_dir, "--out", str(out)]) == 1
    assert (f"error: missing registered landmark file {registered / 'landmarks_L3.json'}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.fixture(scope="module")
def icp_vb_dir(synth_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("recon_icp_vb"))
    assert main(["reconstruct", "--atlas", synth_dir, "--targets", synth_dir, "--out", out,
                 "--mode", "icp-vb", "--set", "icp.max_iterations=2"]) == 0
    return out


def test_evaluate_reports_the_mode_reconstruct_recorded(synth_dir, icp_vb_dir, tmp_path,
                                                        capsys):
    assert json.loads(open(os.path.join(icp_vb_dir, "mode.json")).read()) == {"mode": "icp_vb"}
    out = tmp_path / "out"
    assert main(["evaluate", "--registered", icp_vb_dir, "--ground-truth", synth_dir,
                 "--out", str(out)]) == 0
    assert " mode=icp_vb " in capsys.readouterr().out
    assert json.loads((out / "report.json").read_text())["mode"] == "icp_vb"
    assert (out / "report.csv").read_text().splitlines()[1].startswith("icp_vb,L1,")
    # naming the recorded mode is no conflict and changes no byte
    named = tmp_path / "named"
    assert main(["evaluate", "--registered", icp_vb_dir, "--ground-truth", synth_dir,
                 "--out", str(named), "--set", "registration.mode=icp_vb"]) == 0
    assert dir_digest(named) == dir_digest(out)


@pytest.mark.parametrize("source", ["set", "config"])
def test_evaluate_rejects_a_mode_other_than_the_recorded_one(source, synth_dir, icp_vb_dir,
                                                             tmp_path, capsys):
    if source == "set":
        named = ["--set", "registration.mode=ours"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"registration": {"mode": "ours"}}))
        named = ["--config", str(config)]
    out = tmp_path / "out"
    assert main(["evaluate", "--registered", icp_vb_dir, "--ground-truth", synth_dir,
                 "--out", str(out), *named]) == 1
    assert capsys.readouterr().err == (
        f"error: {icp_vb_dir} was reconstructed with mode 'icp_vb', "
        "but the config names mode 'ours'\n")
    assert not out.exists()


def test_evaluate_without_a_mode_record_takes_the_config_mode(synth_dir, icp_vb_dir, tmp_path):
    # an output directory written before reconstruct recorded its mode
    registered = tmp_path / "registered"
    shutil.copytree(icp_vb_dir, registered)
    (registered / "mode.json").unlink()
    for named, want in (([], "ours"), (["--set", "registration.mode=icp_vb"], "icp_vb")):
        out = tmp_path / f"out_{want}"
        assert main(["evaluate", "--registered", str(registered), "--ground-truth", synth_dir,
                     "--out", str(out), *named]) == 0
        assert json.loads((out / "report.json").read_text())["mode"] == want


@pytest.mark.parametrize("record", ['{"mode": "best"}', '["icp_vb"]', "{"])
def test_evaluate_rejects_a_malformed_mode_record(record, synth_dir, icp_vb_dir, tmp_path,
                                                  capsys):
    registered = tmp_path / "registered"
    shutil.copytree(icp_vb_dir, registered)
    (registered / "mode.json").write_text(record)
    out = tmp_path / "out"
    assert main(["evaluate", "--registered", str(registered), "--ground-truth", synth_dir,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"mode record {registered / 'mode.json'}" in err and "Traceback" not in err
    assert not out.exists()


_SCIPY_PROBE = """
import json, sys
from spinerecon.cli import main

synth, out = sys.argv[1:]
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
meshes = [f"{synth}/vertebra_L{k}.ply" for k in range(1, 6)]
assert main(["landmarks", *meshes, "--out", f"{out}/landmarks"]) == 0
loaded["landmarks"] = scipy_modules()
assert main(["reconstruct", "--atlas", synth, "--targets", synth, "--out", f"{out}/recon",
             "--mode", "ours"]) == 0
loaded["reconstruct"] = scipy_modules()
assert main(["evaluate", "--registered", f"{out}/recon", "--ground-truth", synth,
             "--gt-landmarks", synth, "--out", f"{out}/eval"]) == 0
loaded["evaluate"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_subcommands_load_only_the_scipy_they_run(synth_dir, tmp_path):
    # a fresh process: landmark detection and closed-form registration need
    # no SciPy, and evaluation's k-d trees need scipy.spatial, not the spline
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinerecon.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, synth_dir, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded["import"] == loaded["landmarks"] == loaded["reconstruct"] == []
    assert "scipy.spatial" in loaded["evaluate"]
    assert "scipy.interpolate" not in loaded["evaluate"]


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
