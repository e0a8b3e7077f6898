"""The package root exports only names that its users call.

A user is the README, a demo script or the command line; a name that only
tests use belongs in its module, imported from there.
"""

import ast
import inspect
import re
from pathlib import Path

import isacloc

ROOT = Path(__file__).resolve().parents[1]


def _imported_names(path: Path) -> set:
    """Names a script imports from isacloc or, for a package module, from its siblings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("isacloc")):
            names.update(alias.name for alias in node.names)
    return names


def test_every_root_export_has_a_user():
    public = {
        name for name, value in vars(isacloc).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    readme = (ROOT / "README.md").read_text()
    used = _imported_names(ROOT / "src" / "isacloc" / "cli.py")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= _imported_names(demo)
    unused = sorted(
        name for name in public
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    )
    assert not unused, f"root exports named by no README line, demo or cli.py: {unused}"
