"""Module layering: the evaluators import no verification code, one
constructor takes the branch roots of a mode set, and one function sizes
every tol-driven series window."""

import ast
import re
from pathlib import Path

from qpelastic import checks

PKG = Path(checks.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _imports(path):
    """Every module a source file imports, relative imports resolved in the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["qpelastic" if node.level else None, node.module]))
            names.add(base)
            names.update(f"{base}.{a.name}" for a in node.names)
    return names


def test_only_cli_and_package_root_import_checks():
    imports = {p.stem: _imports(p) for p in PKG.glob("*.py")}
    assert {m for m, names in imports.items() if "qpelastic.checks" in names} == {"cli", "__init__"}
    assert not any("qpelastic.fdcheck" in names for names in imports.values())


def _called(path, function=None):
    """The names a source file calls, as ``f(...)`` or ``obj.f(...)``; only
    within the top-level ``function`` when one is named."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if function is not None:
        tree, = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_only_medium_takes_branch_roots_and_checks_wood():
    """``ModeTable.of`` is the one place that runs the Wood check and takes a
    mode set's branch roots; every evaluator reads them from its table."""
    callers = {p.stem for p in PKG.glob("*.py")
               if _called(p) & {"branch_sqrt", "WoodAnomaly"}}
    assert callers == {"medium"}


def test_only_medium_calls_lattice_window():
    """The truncation rule lives in ``medium``: no evaluator picks its own
    lattice window."""
    assert {p.stem for p in PKG.glob("*.py") if "lattice_window" in _called(p)} == {"medium"}


def test_series_evaluators_size_windows_by_series_window():
    for module, function in (("green2d", "green2d_eval_batch"),
                             ("green3d_qp", "green3dqp_eval_batch"),
                             ("green3d_biqp", "greenbi_eval_batch")):
        assert "series_window" in _called(PKG / f"{module}.py", function)


def test_readme_lists_every_verify_suite():
    listed = re.search(r"Verify suites:(.*?)\.", README.read_text(encoding="utf-8"), re.S)
    assert re.findall(r"`(\w+)`", listed.group(1)) == sorted(checks.SUITES)
