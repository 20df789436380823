"""Static checks on the package source."""

import ast
import subprocess
import sys
from pathlib import Path

import raagham

SOURCES = sorted(Path(raagham.__file__).parent.glob("*.py"))
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "lift.py", "words.py"}
    assert {p.name for p in DEMOS} >= {"demo_planar_covers.py"}


def test_no_assert_statements():
    """Validation must raise: python -O strips assert statements.  The demos
    check their results too, so they are held to the same rule."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES + DEMOS
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_import_leaves_scipy_optimize_out():
    """scipy is a test dependency only: importing the package and its command
    line loads no scipy module at all."""
    code = "import sys, raagham, raagham.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_lift_verbs_leave_networkx_unloaded(tmp_path):
    """networkx loads only when a graph is tested: importing the package and
    its command line, then running a lift verb, never imports it."""
    code = (
        "import sys, raagham, raagham.cli\n"
        f"code = raagham.cli.main(['lambda-decay', '--depth', '4', '--out', {str(tmp_path)!r}])\n"
        "print(code, 'networkx' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "lambda_decay.csv").is_file()
