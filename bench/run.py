#!/usr/bin/env python3
"""spinerecon benchmark: the CLI chain landmarks -> reconstruct -> evaluate.

Run from the repository root:

    python3 bench/run.py --workload fine_ours --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Set-up generates synthetic inputs from --seed with the library's own
generator and writes them to disk. Each pass then drives the real CLI
in-process through `spinerecon.cli.main(argv)`, one spine at a time,
until --seconds are used; every subcommand's exit code, the byte
identity of every output file across passes, and the workload's
accuracy gates are checked. The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics named in BENCHMARK.json with --trace 0, the per-layer metrics
from a traced run with --trace 1. `--workload all` runs every workload
in its own process and prints each one's table. bench/README.md maps
the metrics to layers and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One process, no worker threads: pin BLAS pools before numpy loads.
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

LEVELS = ("L1", "L2", "L3", "L4", "L5")
TARGET_WIDTH_MM = 1.5        # facet.target_width_mm default
GAP_TOLERANCE_MM = 0.05      # align_facets' convergence test
# `ours` on a clean affine case is exact: landmark error sits at round-off
# (~1e-14 mm), but body vertices also carry the Gaussian tail of the facet
# warp (up to ~1e-9 mm on a level). Any registration error is >= 1e-3 mm.
EXACT_RECOVERY_MM = 1e-6
SETUP_REPEATS = 3
ICP_ITERATIONS = 10

# Per-level perturbation applied to every workload: a rotation of exactly
# ROTATION_DEG about a random axis, a translation of exactly
# TRANSLATION_MM in a random direction, and per-axis scales drawn from
# SCALE_RANGE. Fixed magnitudes keep the far-from-surface ICP work the
# same size on every seed; only directions and scales vary.
ROTATION_DEG = 10.0
TRANSLATION_MM = 10.0
SCALE_RANGE = (0.9, 1.1)

WORKLOADS = {
    # The paper's method at segmentation resolution (18-23k triangles
    # per level): binary PLY parsing, on-surface queries in evaluation
    # and landmark detection dominate; ICP never runs.
    "fine_ours": dict(spines=1, edge_mm=0.85, noise_mm=0.0, target_format="ply",
                      modes=("ours",), exact=True),
    # The paper's baselines at the default 2 mm: ICP correspondence
    # search from points far off the surface dominates reconstruct.
    # ICP is capped at ICP_ITERATIONS so every seed pays for the same
    # number of correspondence searches.
    "icp_baselines": dict(spines=2, edge_mm=2.0, noise_mm=0.0, target_format="ply",
                          modes=("icp-vb", "ours-icp"), exact=False,
                          config=[f"icp.max_iterations={ICP_ITERATIONS}"]),
    # Many small calls: per-call fixed costs, the STL weld path, noisy
    # endplate bridging, and non-zero accuracy that guards detection.
    "noisy_batch": dict(spines=8, edge_mm=3.0, noise_mm=0.3, target_format="stl",
                        modes=("ours",), exact=False),
}

_t_import = time.perf_counter()
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.spatial.transform import Rotation  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "src"))
import spinerecon  # noqa: E402
if os.path.dirname(os.path.abspath(spinerecon.__file__)) != os.path.join(ROOT, "src", "spinerecon"):
    sys.exit(f"spinerecon was imported from {spinerecon.__file__}, not from this checkout's src/")
from spinerecon import cli, meshio, spine as spine_io, synthetic  # noqa: E402
from spinerecon.mesh import (  # noqa: E402
    LABEL_VERTEBRAL_BODY, TriangleMesh, submesh_by_label, transform_mesh)

from tracing import Tracer, icp_histories_monotone, layer_metrics  # noqa: E402

IMPORT_S = time.perf_counter() - _t_import


# ---------------------------------------------------------------------------
# set-up

def perturb(atlas, noise_mm: float, rng: np.random.Generator):
    """Body-only perturbed targets and the true per-level transforms.

    The affine family of `synthetic.make_registration_case` (scaling
    along the vertebra's own axes about its landmark centroid, then
    rotation, then translation), with the fixed magnitudes above. The
    ground truth is the atlas moved by these transforms; the unperturbed
    atlas that `make_registration_case` returns is not a ground truth.
    """
    targets, transforms = [], []
    for vertebra in atlas.vertebrae:
        axis = rng.normal(size=3)
        rotation = Rotation.from_rotvec(
            math.radians(ROTATION_DEG) * axis / np.linalg.norm(axis)).as_matrix()
        direction = rng.normal(size=3)
        scales = rng.uniform(*SCALE_RANGE, 3)
        frame = vertebra.axes.as_matrix()
        center = vertebra.frame.c_g
        matrix = np.eye(4)
        matrix[:3, :3] = rotation @ frame @ np.diag(scales) @ frame.T
        matrix[:3, 3] = (rotation @ center - matrix[:3, :3] @ center
                         + TRANSLATION_MM * direction / np.linalg.norm(direction))
        body = transform_mesh(submesh_by_label(vertebra.mesh, LABEL_VERTEBRAL_BODY), matrix)
        if noise_mm > 0:
            body = TriangleMesh(body.vertices + rng.normal(0.0, noise_mm, body.vertices.shape),
                                body.triangles, body.labels)
        targets.append(body)
        transforms.append(matrix)
    return targets, transforms


def build_cases(work: str, workload: dict, seed: int) -> list[dict]:
    """Write atlas, targets and perturbed ground truth for each spine of the workload."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(workload["spines"]):
        spine_seed, case_seed = (int(x) for x in rng.integers(0, 2**31, size=2))
        params = synthetic.SpineParams(
            vertebrae=tuple(synthetic.default_vertebra_params(
                level, tessellation_edge=workload["edge_mm"]) for level in LEVELS),
            seed=spine_seed)
        atlas, _ = synthetic.generate_spine(params)
        targets, transforms = perturb(atlas, workload["noise_mm"], np.random.default_rng(case_seed))

        case = {name: os.path.join(work, f"case{k}", name) for name in ("atlas", "targets", "gt")}
        case["out"] = os.path.join(work, f"case{k}", "out")
        for d in (case["atlas"], case["targets"], case["gt"]):
            os.makedirs(d, exist_ok=True)
        case["target_files"] = []
        for vertebra, target, matrix in zip(atlas.vertebrae, targets, transforms):
            level = vertebra.level
            meshio.save_mesh(vertebra.mesh, os.path.join(case["atlas"], f"vertebra_{level}.ply"))
            target_file = os.path.join(case["targets"],
                                       f"vertebra_{level}.{workload['target_format']}")
            meshio.save_mesh(target, target_file)
            case["target_files"].append(target_file)
            meshio.save_mesh(transform_mesh(vertebra.mesh, matrix),
                             os.path.join(case["gt"], f"vertebra_{level}.ply"))
            spine_io.save_landmarks(os.path.join(case["gt"], f"landmarks_{level}.json"),
                                    level, vertebra.landmarks.transformed(matrix))
        cases.append(case)
    return cases


# ---------------------------------------------------------------------------
# the chain

class Chain:
    """Runs CLI subcommands in-process and counts their exit codes."""

    def __init__(self, tracer: Tracer | None, config: list[str]):
        self.tracer = tracer
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, argv: list[str]) -> float:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            last = (err.getvalue().strip().splitlines() or [""])[-1]
            self.errors.append(f"{argv[0]} exited {code}: {last}")
        return elapsed

    def run(self, case: dict, modes) -> tuple[dict[str, float], bool]:
        """One spine through landmarks and, per mode, reconstruct + evaluate.

        Returns the wall times and whether every subcommand exited 0.
        """
        failed_before = self.failed
        out = case["out"]
        shutil.rmtree(out, ignore_errors=True)
        times = {"landmarks_s": self.call(
            ["landmarks", *case["target_files"], "--out", os.path.join(out, "landmarks")])}
        times["reconstruct_s"] = times["evaluate_s"] = 0.0
        for mode in modes:
            recon = os.path.join(out, f"recon_{mode}")
            times["reconstruct_s"] += self.call(
                ["reconstruct", "--atlas", case["atlas"], "--targets", case["targets"],
                 "--out", recon, "--mode", mode, "--format", "ply",
                 *(arg for item in self.config for arg in ("--set", item))])
            times["evaluate_s"] += self.call(
                ["evaluate", "--registered", recon, "--ground-truth", case["gt"],
                 "--gt-landmarks", case["gt"], "--out", os.path.join(out, f"eval_{mode}"),
                 "--set", f"registration.mode={mode.replace('-', '_')}"])
        times["chain_s"] = sum(times.values())
        return times, self.failed == failed_before


def digest_tree(directory: str) -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def accuracy(cases: list[dict], modes) -> tuple[dict[str, float], list[tuple[str, bool, str]]]:
    """Accuracy averaged over every completed reconstruction, and a label check."""
    sums = {"p2m_full_mm": [], "p2m_vb_mm": [], "landmark_mae_mm": []}
    gap_errors = []
    mislabelled = []
    for case in cases:
        for mode in modes:
            path = os.path.join(case["out"], f"eval_{mode}", "report.json")
            if not os.path.exists(path):  # a failed subcommand, counted in `failed`
                continue
            with open(path) as fh:
                report = json.load(fh)
            if report["mode"] != mode.replace("-", "_"):
                mislabelled.append(f"{mode} labelled {report['mode']}")
            sums["p2m_full_mm"].append(report["p2m_full_mean_mm"])
            sums["p2m_vb_mm"].append(report["p2m_vb_mean_mm"])
            sums["landmark_mae_mm"].append(report["landmark_mae_mean_mm"])
            for sides in report["facet_gaps"].values():
                for gap in sides.values():
                    err = abs(gap["mean_gap_mm"] - TARGET_WIDTH_MM)
                    gap_errors.append((err, err > GAP_TOLERANCE_MM or gap["min_gap_mm"] <= 0.0))
    if not sums["p2m_full_mm"]:
        return {}, []
    out = {k: float(np.mean(v)) for k, v in sums.items()}
    out["facet_gap_err_mm"] = float(np.mean([e for e, _ in gap_errors]))
    out["facet_unconverged_ratio"] = sum(u for _, u in gap_errors) / len(gap_errors)
    return out, [("reports labelled with their mode", not mislabelled, "; ".join(mislabelled))]


def percentile_summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        p = math.floor(100.0 * (n - 10) / n)
        out[f"p{p}"] = ordered[max(1, math.ceil(p * n / 100.0)) - 1]
    return out


# ---------------------------------------------------------------------------
# environment record

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def environment(seed: int) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        level = _read(os.path.join(cache_dir, index, "level"))
        kind = _read(os.path.join(cache_dir, index, "type"))
        size = _read(os.path.join(cache_dir, index, "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else (kind or '')[:1].lower()}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Set up, run passes for `seconds`, check, and return the run's full record."""
    workload = WORKLOADS[name]
    modes = workload["modes"]
    tracer = Tracer() if traced else None
    work = os.path.join(ROOT, ".bench_work", f"{name}-seed{seed}-pid{os.getpid()}")
    results_dir = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        if tracer:
            tracer.install()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            start = time.perf_counter()
            cases = build_cases(work, workload, seed)
            setup_times.append(time.perf_counter() - start)
        generate_s = [s[2] - s[1] for s in (tracer.spans if tracer else ())
                      if s[0] == "synthetic.generate_spine"]

        chain = Chain(tracer, workload.get("config", []))
        if tracer:
            tracer.reset()
        samples: dict[str, list[float]] = {}
        identical = True
        acc, checks = {}, []
        passes = 0
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for case in cases:
                times, ok = chain.run(case, modes)
                if ok:  # a spine whose chain failed gives no timing sample
                    for key, value in times.items():
                        samples.setdefault(key, []).append(value)
                digest = digest_tree(case["out"])
                identical &= case.setdefault("digest", digest) == digest
            if passes == 0:
                acc, checks = accuracy(cases, modes)
            passes += 1
            now = time.perf_counter()
            # at least two passes, so that outputs are compared across passes
            if passes >= 2 and now - start + (now - pass_start) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if not samples:
        sys.exit("no spine completed the chain: " + "; ".join(chain.errors[:3]))
    checks.append(("outputs byte-identical across passes", identical, ""))
    if workload["exact"] and acc:
        for key in ("p2m_vb_mm", "landmark_mae_mm"):
            checks.append((f"ours recovers the perturbation exactly ({key})",
                           acc[key] <= EXACT_RECOVERY_MM, f"{key}={acc[key]:.3g}"))

    timing = {key: percentile_summary(values) for key, values in samples.items()}
    end_to_end = {key: (timing[key]["median"], "s") for key in timing}
    end_to_end["setup_s"] = (IMPORT_S + statistics.median(setup_times), "s")
    end_to_end["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    end_to_end["fail_ratio"] = (chain.failed / chain.attempted, "ratio")
    end_to_end.update({key: (value, "mm" if key.endswith("_mm") else "ratio")
                       for key, value in acc.items()})

    per_layer = {}
    if tracer:
        seen, monotone = icp_histories_monotone(tracer.spans)
        checks.append(("icp_rigid histories non-increasing", seen == monotone,
                       f"{monotone} of {seen}"))
        per_layer = layer_metrics(tracer.spans, passes * len(cases))
        per_layer["synthetic.generate_spine.s"] = (statistics.median(generate_s), "s")
        per_layer["trace.chain_s"] = (timing["chain_s"]["median"], "s")
        tracer.write(os.path.join(results_dir, f"{name}-seed{seed}-spans.json"))

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "spines_per_pass": workload["spines"], "modes": list(modes),
        "attempted": chain.attempted, "failed": chain.failed,
        "errors": list(dict.fromkeys(chain.errors))[:5],
        "checks": [{"name": c, "ok": ok, "detail": d} for c, ok, d in checks],
        "passes": passes, "timing": timing, "samples": samples,
        "setup_runs_s": setup_times, "import_s": IMPORT_S,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "environment": environment(seed),
    }
    with open(os.path.join(results_dir, f"{name}-seed{seed}-trace{int(traced)}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return record


def declared_metrics(kind: str) -> list[str]:
    """Names of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def print_table(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"spines/pass={record['spines_per_pass']} modes={','.join(record['modes'])}")
    for name, m in record["end_to_end"].items():
        extra = record["timing"].get(name)
        detail = ""
        if extra:
            detail = "  " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                     for k, v in extra.items() if k != "median")
        print(f"{name:28s} {m['value']:.6g} {m['unit']}{detail}")
    for name, m in record["per_layer"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    if record["failed"]:
        print(f"failures {record['failed']} of {record['attempted']} subcommand calls: "
              + "; ".join(record["errors"]))
    for check in record["checks"]:
        print(f"check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}"
              + (f" ({check['detail']})" if check["detail"] else ""))
    print("environment " + json.dumps(record["environment"]))


def run_all(args) -> int:
    """Each workload in its own process; with --trace 1 also its traced run."""
    correct = True
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        for traced in ((0, 1) if args.trace else (0,)):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode not in (0, 1) or not lines:
                print(f"# {name}: benchmark process exited {proc.returncode}")
                return 2
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        if args.trace:
            overhead = (metrics[f"{name}.trace.chain_s"]["value"]
                        - metrics[f"{name}.chain_s"]["value"])
            print(f"# {name}: tracing overhead {overhead:.4f} s per spine "
                  f"(traced chain_s minus untraced chain_s)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics(kind)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(record)
    table = record[kind]
    correct = all(c["ok"] for c in record["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: table[name] for name in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
