"""The README's examples run as written and show what their comments state."""

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import procmat
from procmat import tensor

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = os.path.dirname(os.path.dirname(procmat.__file__))


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def _field(report, key):
    """The value of ``key: value`` in a plain-text run report."""
    return re.search(rf"^{key}: (.*)$", report, flags=re.M).group(1)


def test_typical_session():
    # Runs the block statement by statement and keeps the value of each bare
    # expression, the lines whose comments state a result.
    (session,) = _blocks("python")
    namespace, shown = {}, []
    for node in ast.parse(session).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), str(README), "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    residual, own_check, recheck, path, verdict, value, witnessed = shown
    assert residual <= 1e-15
    assert own_check and recheck
    assert path == "constructive"
    assert verdict == ("not-separable-up-to-tolerance", 1)
    assert round(value, 4) == -0.0947
    assert witnessed


@pytest.mark.skipif(shutil.which("bash") is None, reason="the command-line block is a bash pipeline")
def test_command_line_block(tmp_path):
    (block,) = [b for b in _blocks("sh") if "procmat fixture" in b]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHON=sys.executable, PYTHONWARNINGS="error::RuntimeWarning")
    runs = [subprocess.run(["bash", "-c", f'procmat() {{ "$PYTHON" -m procmat.cli "$@"; }}; set -o pipefail; {line}'],
                           cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
            for line in block.splitlines()]
    assert [run.returncode for run in runs] == [0, 2, 0, 0, 0, 0, 0], [run.stderr for run in runs]
    validate, check_sep, separate = (run.stdout for run in runs[:3])
    assert _field(validate, "valid") == "True" and abs(float(_field(validate, "min_eigenvalue"))) <= 1e-15
    assert "\nstatus: not-separable-up-to-tolerance\n" in check_sep
    assert round(float(_field(check_sep, "witness_value")), 4) == -0.0947
    assert _field(separate, "p") == "1.0" and _field(separate, "verified") == "True"


def test_tolerance_table():
    # The Conventions table lists each tolerance of procmat.tensor once, with its value.
    rows = re.findall(r"^  \| `([A-Z_]+)` \| ([^|]+) \|", README.read_text(encoding="utf-8"), flags=re.M)
    table = {name: value for name, value in vars(tensor).items() if name.isupper() and isinstance(value, float)}
    assert len(rows) == len(table) and {name: float(value) for name, value in rows} == table
