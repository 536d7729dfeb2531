"""Command-line pipeline: landmarks, reconstruct, evaluate, synth, config.

Diagnostics go to stderr; stdout carries one machine-parsable
key=value summary line per stage. Exit code 0 means every stage
succeeded. Re-running any command with identical inputs, config, and
seed produces byte-identical output files (timing is therefore
reported on stdout only, never written into files).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .anatomy import LandmarkSet
from .config import build_config
from .evaluation import evaluate_reconstruction, write_report_csv, write_report_json
from .facets import align_facets
from .meshio import load_mesh, save_mesh
from .registration import MODES, detect_spine_landmarks, register_spine
from .spine import (
    SpineModel,
    Vertebra,
    _read_json,
    level_from_filename,
    load_landmarks,
    save_landmarks,
    save_transforms,
    write_json,
)
from .synthetic import SpineParams, VertebraParams, generate_spine

_MESH_EXTENSIONS = (".ply", ".stl", ".obj")
# written by `reconstruct` next to transforms.json, read by `evaluate`
_MODE_RECORD = "mode.json"


def _emit(stage: str, **fields) -> None:
    parts = [stage] + [f"{k}={v}" for k, v in fields.items()]
    print(" ".join(parts))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _collect_meshes(paths: list[str], explicit_levels: str | None) -> list[tuple[str, str]]:
    """(level, path) pairs ordered L1..L5, levels from filenames unless overridden."""
    if explicit_levels:
        levels = [l.strip() for l in explicit_levels.split(",")]
        if len(levels) != len(paths):
            raise ValueError(
                f"--levels names {len(levels)} levels but {len(paths)} meshes were given")
        pairs = list(zip(levels, paths))
    else:
        pairs = [(level_from_filename(os.path.basename(p)), p) for p in paths]
    seen = [l for l, _ in pairs]
    if len(set(seen)) != len(seen):
        raise ValueError(f"duplicate levels among inputs: {sorted(seen)}")
    return sorted(pairs, key=lambda lp: lp[0])


def _mesh_files_in(directory: str) -> list[str]:
    if not os.path.isdir(directory):
        raise ValueError(f"{directory!r} is not a directory")
    names = sorted(
        n for n in os.listdir(directory)
        if os.path.splitext(n)[1].lower() in _MESH_EXTENSIONS
    )
    if not names:
        raise ValueError(f"no mesh files (*.ply, *.stl, *.obj) in {directory!r}")
    return [os.path.join(directory, n) for n in names]


def _load_spine(pairs: list[tuple[str, str]]) -> SpineModel:
    return SpineModel(tuple(
        Vertebra(level=lvl, mesh=load_mesh(path)) for lvl, path in pairs
    ))


def _load_spine_dir(directory: str) -> SpineModel:
    return _load_spine(_collect_meshes(_mesh_files_in(directory), None))


# ---------------------------------------------------------------------------
# subcommands

def cmd_landmarks(args) -> int:
    config = build_config(args.config, args.set)
    pairs = _collect_meshes(args.meshes, args.levels)
    if len(pairs) == 1 and config.use_spine_curve:
        print("warning: single vertebra; axes fall back to the principal axes "
              "and orientation hint (reduced accuracy)", file=sys.stderr)
    detected = detect_spine_landmarks(
        _load_spine(pairs),
        orientation_hint=config.orientation_hint,
        cos_threshold=config.cos_threshold,
        use_spine_curve=config.use_spine_curve,
    )
    os.makedirs(args.out, exist_ok=True)
    for (level, _), landmarks in zip(pairs, detected):
        save_landmarks(os.path.join(args.out, f"landmarks_{level}.json"), level, landmarks)
    _emit("landmarks", levels=",".join(l for l, _ in pairs), out=args.out)
    return 0


def cmd_reconstruct(args) -> int:
    overrides = list(args.set or [])
    if args.mode:
        overrides.append(f"registration.mode={args.mode.replace('-', '_')}")
    if args.seed is not None:
        overrides.append(f"registration.seed={args.seed}")
    if args.format:
        overrides.append(f"output.format={args.format}")
    config = build_config(args.config, overrides)

    atlas = _load_spine_dir(args.atlas)
    targets = _load_spine_dir(args.targets)
    run = register_spine(
        atlas, targets, config.mode,
        orientation_hint=config.orientation_hint,
        cos_threshold=config.cos_threshold,
        use_spine_curve=config.use_spine_curve,
        icp_params=config.icp_params,
        seed=config.seed,
    )
    spine, gaps = run.spine, None
    if not args.no_facets:
        spine, gaps = align_facets(
            spine, config.facet_target_width,
            config.facet_falloff_radius, config.facet_max_passes)

    os.makedirs(args.out, exist_ok=True)
    fmt = config.mesh_format
    for vertebra in spine.vertebrae:
        save_mesh(vertebra.mesh, os.path.join(args.out, f"registered_{vertebra.level}.{fmt}"))
        save_landmarks(os.path.join(args.out, f"landmarks_{vertebra.level}.json"),
                       vertebra.level, vertebra.landmarks)
    save_transforms(os.path.join(args.out, "transforms.json"),
                    spine.levels, list(run.transforms))
    write_json(os.path.join(args.out, _MODE_RECORD), {"mode": config.mode})
    gaps_path = os.path.join(args.out, "facet_gaps.json")
    if gaps is not None:
        write_json(gaps_path, gaps)
    elif os.path.exists(gaps_path):
        # an earlier run's gaps would be reported by `evaluate` as this run's
        os.remove(gaps_path)
    _emit("reconstruct", mode=config.mode, levels=len(spine),
          elapsed_s=f"{run.elapsed_s:.4f}",
          facets="skipped" if gaps is None else "aligned", out=args.out)
    return 0


def _load_level_landmarks(path: str, level: str) -> LandmarkSet:
    found, landmarks = load_landmarks(path)
    if found != level:
        raise ValueError(f"landmark file {path} holds level {found!r}, expected {level!r}")
    return landmarks


def _recorded_mode(directory: str) -> str | None:
    """The mode `reconstruct` recorded in its output directory; None without a record."""
    path = os.path.join(directory, _MODE_RECORD)
    if not os.path.exists(path):
        return None
    payload = _read_json(path, "mode record")
    if not isinstance(payload, dict) or payload.get("mode") not in MODES:
        raise ValueError(f"mode record {path} must hold a JSON object with a 'mode' "
                         f"of {', '.join(MODES)}")
    return payload["mode"]


def cmd_evaluate(args) -> int:
    if args.elapsed_s is not None and not (math.isfinite(args.elapsed_s) and args.elapsed_s >= 0):
        raise ValueError(f"--elapsed-s must be a finite number >= 0, got {args.elapsed_s}")
    # the recorded mode takes the place of the default; a config naming another one conflicts
    recorded = _recorded_mode(args.registered)
    config = build_config(args.config, args.set,
                          base=None if recorded is None else {"registration": {"mode": recorded}})
    if recorded is not None and config.mode != recorded:
        raise ValueError(f"{args.registered} was reconstructed with mode {recorded!r}, "
                         f"but the config names mode {config.mode!r}")
    registered = _load_spine_dir(args.registered)
    ground_truth = _load_spine_dir(args.ground_truth)

    reg_landmarks = {}
    missing = []
    for level in registered.levels:
        path = os.path.join(args.registered, f"landmarks_{level}.json")
        if os.path.exists(path):
            reg_landmarks[level] = _load_level_landmarks(path, level)
        else:
            missing.append(path)
    if not missing:
        registered = SpineModel(tuple(
            v.with_(landmarks=reg_landmarks[v.level]) for v in registered.vertebrae))

    gt_sets = None
    if args.gt_landmarks:
        if missing:
            raise ValueError(f"missing registered landmark file {missing[0]}")
        gt_sets = []
        for level in registered.levels:
            path = os.path.join(args.gt_landmarks, f"landmarks_{level}.json")
            if not os.path.exists(path):
                raise ValueError(f"missing ground-truth landmark file {path}")
            gt_sets.append(_load_level_landmarks(path, level))
    else:
        print("note: no --gt-landmarks; landmark and morphometric MAE columns "
              "are left absent", file=sys.stderr)

    report = evaluate_reconstruction(
        registered, ground_truth, gt_sets,
        mode=config.mode, elapsed_s=args.elapsed_s)

    extras = {}
    gaps_path = os.path.join(args.registered, "facet_gaps.json")
    if os.path.exists(gaps_path):
        extras["facet_gaps"] = _read_json(gaps_path, "facet gap file")

    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "report.json")
    csv_path = os.path.join(args.out, "report.csv")
    write_report_json(report, json_path, extras=extras)
    write_report_csv([report], csv_path)
    _emit("evaluate", mode=config.mode, levels=len(registered),
          report=json_path, csv=csv_path)
    return 0


def _spine_params_from_file(path: str | None, seed: int | None) -> SpineParams:
    if path is None:
        return SpineParams(seed=seed)
    payload = _read_json(path, "--params")
    if not isinstance(payload, dict) or not isinstance(payload.get("levels"), list):
        raise ValueError(f"--params {path} must hold a JSON object with a 'levels' list")
    try:
        vertebrae = tuple(VertebraParams(**entry) for entry in payload["levels"])
        return SpineParams(
            vertebrae=vertebrae,
            ivd_heights=tuple(payload.get("ivd_heights", (5.0,) * (len(vertebrae) - 1))),
            fsu_angles=tuple(payload.get("fsu_angles", (0.0,) * (len(vertebrae) - 1))),
            seed=seed if seed is not None else payload.get("seed"),
        )
    except (TypeError, ValueError) as e:
        raise ValueError(f"--params {path}: {e}") from None


def cmd_synth(args) -> int:
    params = _spine_params_from_file(args.params, args.seed)
    spine, record = generate_spine(params)
    os.makedirs(args.out, exist_ok=True)
    for vertebra in spine.vertebrae:
        save_mesh(vertebra.mesh, os.path.join(args.out, f"vertebra_{vertebra.level}.ply"))
        save_landmarks(os.path.join(args.out, f"landmarks_{vertebra.level}.json"),
                       vertebra.level, vertebra.landmarks)
    write_json(os.path.join(args.out, "morphometrics.json"), record.to_dict())
    _emit("synth", levels=len(spine), out=args.out)
    return 0


def cmd_config(args) -> int:
    config = build_config(args.config, args.set)
    if args.dump:
        print(json.dumps(config.raw, indent=2))
    else:
        _emit("config", valid="true")
    return 0


# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key, e.g. anatomy.cos_threshold=0.75")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinerecon",
        description="Reconstruct complete lumbar spine models from vertebral-body meshes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("landmarks", help="detect the eight endplate landmarks per vertebra")
    p.add_argument("meshes", nargs="+", help="vertebral-body mesh files, one per level")
    p.add_argument("--out", required=True, help="output directory for landmark JSON files")
    p.add_argument("--levels", help="comma-separated level override, e.g. L1,L2,L3")
    _add_common(p)
    p.set_defaults(func=cmd_landmarks)

    p = sub.add_parser("reconstruct", help="register atlas vertebrae onto targets")
    p.add_argument("--atlas", required=True, help="directory of complete atlas meshes")
    p.add_argument("--targets", required=True, help="directory of vertebral-body meshes")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["ours", "ours-icp", "icp", "icp-vb"])
    p.add_argument("--no-facets", action="store_true", help="skip facet-joint alignment")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=["ply", "stl", "obj"])
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="compare registered against ground-truth meshes")
    p.add_argument("--registered", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--gt-landmarks", help="directory of ground-truth landmark JSON files")
    p.add_argument("--out", required=True)
    p.add_argument("--elapsed-s", type=float, help="registration time to record in the report")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a labeled synthetic spine dataset")
    p.add_argument("--params", help="spine parameter JSON file (defaults when omitted)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("config", help="validate and print the configuration")
    p.add_argument("--dump", action="store_true", help="print the merged config as JSON")
    _add_common(p)
    p.set_defaults(func=cmd_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # diagnostics to stderr, nonzero exit
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
