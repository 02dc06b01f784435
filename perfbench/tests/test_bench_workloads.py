"""Seeded inputs: the generated rule is certifiable and seeds repeat."""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from certicube import cli  # noqa: E402


def test_stroud_rule_passes_verify_rule_at_degree_2(tmp_path):
    path = tmp_path / "stroud3.rule"
    path.write_text(workloads.stroud_rule_text())
    out = io.StringIO()
    assert cli.run(["verify-rule", str(path)], out=out) == 0
    text = out.getvalue()
    assert "exactness: 2, positive: yes" in text
    assert "degree-2 certificate: yes" in text


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload, tmp_path):
    specs = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        spec, _ = workloads.build(workload, 3, str(workdir))
        specs.append(json.dumps(spec).replace(str(workdir), "WORKDIR"))
    assert specs[0] == specs[1]
    other, _ = workloads.build(workload, 4, str(tmp_path / "a"))
    assert json.dumps(other).replace(str(tmp_path / "a"), "WORKDIR") \
        != specs[0]


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "out",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "percell-k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "{" not in proc.stdout
