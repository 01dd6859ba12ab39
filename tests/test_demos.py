"""Run every demo script and the README's library quick start end to end, so
API drift in demos/ or README.md fails the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def _run(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = _run(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (REPO / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("\n```", 1)[0]
    assert "verify_vacuum_equivalence" in code and "verify_boundary_residuals" in code
    script = tmp_path / "quick_start.py"
    script.write_text(code + "\n")
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    # j <= 21/2, i <= 20: 2 kappa x (2j+1) m_j x 20 i x 2 E signs per j
    assert proc.stdout.split()[0] == str(sum(80 * (two_j + 1) for two_j in range(1, 22, 2)))
