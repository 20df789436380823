"""Checks on the package source, and on what the benchmark reads of it."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import raagham

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(raagham.__file__).parent.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


# Top-level names of src/raagham that nothing in src/ or demos/ refers to,
# each with the reason it stays
ALLOWED = {
    "path_graph": "library API: the path graphs P_n, beside complete_graph and cycle_graph",
    "double_projection": "library API: the natural 2-fold orbi-cover of the double D(G) onto G",
    "check_no_cancellation": "library API: the length additivity of a homomorphism on a normal form",
    "twist_hamiltonian": "library API: the twist's Hamiltonian; criterion 06 flows it to show the twist is in Ham",
    "lambda_scale": "the benchmark tracer wraps it; it moves to tests/ with the next benchmark change",
    "oracle_equal": "the benchmark workloads call it; it moves to tests/ with the next benchmark change",
}


def _top_level_names(tree):
    """(name, node) for each function, class and assigned name of a module body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


def _references(tree, skip=None):
    """Names read, attributes and imported names anywhere in tree except under skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced(modules, demos):
    """Top-level names of the modules (file name -> source) that no module
    refers to outside the name's own definition and no demo source refers
    to.  ``__init__.py`` only re-exports, so it is neither searched for
    definitions nor counted as a reference."""
    trees = {name: ast.parse(src) for name, src in modules.items() if name != "__init__.py"}
    demo_refs = set().union(*(_references(ast.parse(src)) for src in demos))
    found = set()
    for name, tree in trees.items():
        for top, node in _top_level_names(tree):
            if top in demo_refs or any(
                top in _references(other, node if other is tree else None)
                for other in trees.values()
            ):
                continue
            found.add(top)
    return found


def test_every_top_level_name_is_used_or_allowed():
    """A name only tests reach is configuration nothing calls: it goes, or
    ALLOWED says why it stays.  A stale ALLOWED entry fails too."""
    found = unreferenced({p.name: p.read_text() for p in SOURCES}, [p.read_text() for p in DEMOS])
    assert found - ALLOWED.keys() == set()
    assert ALLOWED.keys() - found == set()
    assert all(reason.strip() for reason in ALLOWED.values())


def test_unreferenced_flags_an_unused_function():
    modules = {
        "a.py": "def used():\n    return 1\n\ndef unused():\n    return unused()\n",
        "b.py": "from .a import used\nLIMIT = 3\nx = used() + LIMIT\n",
        "__init__.py": "from .a import unused\n",
    }
    # unused calls itself, and __init__.py re-exports it: neither counts
    assert unreferenced(modules, []) == {"unused", "x"}
    assert unreferenced(modules, ["import pkg\npkg.unused()\n"]) == {"x"}


def test_benchmark_tracer_restores_what_it_wraps():
    """perfbench/tracing.py wraps raagham functions and methods by name:
    entering ``patched`` fails on a name src/ no longer has, and leaving it
    must put every original back.  The tracer is only read here."""
    spec = importlib.util.spec_from_file_location("raagham_bench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def owners():
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "raagham"]
        return modules + [cls for cls, *_ in tracing.METHODS]

    def snapshot():
        return {(owner, attr): value for owner in owners() for attr, value in vars(owner).items()}

    before = snapshot()
    with tracing.patched(tracing.Tracer()):
        during = snapshot()
    after = snapshot()
    changed = {key for key, value in during.items() if before.get(key) is not value}
    named = {(owner, attr) for owner, attr, *_ in tracing.FUNCTIONS + tracing.METHODS}
    named.add((tracing.flows, "flow_map"))
    # the rest of changed are the same functions imported by name into other modules
    assert named <= changed
    assert {attr for _, attr in changed} == {attr for _, attr in named}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
