"""Module layering: the evaluators import no verification code."""

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


def test_readme_lists_every_verify_suite():
    listed = re.search(r"Verify suites:(.*?)\.", README.read_text(encoding="utf-8"), re.S)
    assert re.findall(r"`(\w+)`", listed.group(1)) == sorted(checks.SUITES)
