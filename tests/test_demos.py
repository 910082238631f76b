"""Demo smoke test: every script under demos/ and the README's code run cleanly."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cselab.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_block(heading, lang):
    """The first ```lang block of the README section headed `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


README_COMMANDS = [shlex.split(line, comments=True)
                   for line in readme_block("Command line", "sh").splitlines()
                   if line.startswith("cselab ")]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(argv, capsys):
    # exit 2 is a documented verdict (the cusp sweep is not yet in its band)
    assert main(argv[1:]) in (0, 2)
    assert capsys.readouterr().err == ""


def test_readme_library_example_runs():
    exec(readme_block("Library example", "python"), {})
