import json
import logging
import os
import re
import shlex
import subprocess
import sys

from spinerecon.config import DEFAULTS

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def first_block(language: str, containing: str = "") -> str:
    with open(README) as fh:
        blocks = re.findall(rf"```{language}\n(.*?)```", fh.read(), re.S)
    return next(b for b in blocks if containing in b)


def test_quick_start_recovers_ground_truth(caplog):
    namespace = {}
    with caplog.at_level(logging.WARNING):
        exec(compile(first_block("python"), "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.landmark_mae_mean < 1e-6
    assert report.p2m_vb_mean < 1e-6
    assert not [r for r in caplog.records if "non-positive disc height" in r.getMessage()]


def test_cli_block_runs(tmp_path):
    # the documented synth -> landmarks -> reconstruct -> evaluate commands, as written
    script = re.sub(r"^spinerecon\b", f"{shlex.quote(sys.executable)} -m spinerecon.cli",
                    first_block("sh", "spinerecon synth"), flags=re.M)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(["sh", "-e", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path / "data" / "landmarks")) == [
        f"landmarks_L{i}.json" for i in range(1, 6)]
    report = json.loads((tmp_path / "data" / "eval" / "report.json").read_text())
    assert report["p2m_vb_mean_mm"] < 1e-9 and report["landmark_mae_mean_mm"] < 1e-9
    assert json.loads(proc.stdout[proc.stdout.index("{"):])["icp"]["max_iterations"] == 50


def test_documented_config_keys_are_the_settable_ones():
    # the "Useful config keys" list, the paragraph after its heading line
    with open(README) as fh:
        listing = fh.read().split("Useful config keys", 1)[1].split("\n\n")[1]
    assert all(line.startswith(("- ", "  ")) for line in listing.splitlines())
    sections = "|".join(DEFAULTS)
    documented = set(re.findall(rf"`((?:{sections})\.[a-z_]+)`", listing))
    assert documented == {f"{section}.{key}" for section, keys in DEFAULTS.items() for key in keys}
