"""The package imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import g2sextic

PACKAGE_DIR = Path(g2sextic.__file__).parent


def foreign_imports(path: Path):
    """(line, module) for every import in the file that is not stdlib or g2sextic."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        for name in names:
            top = name.split(".")[0]
            if top != "g2sextic" and top not in sys.stdlib_module_names:
                found.append((node.lineno, name))
    return found


def test_every_module_imports_only_stdlib_and_the_package():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    offenders = {p.name: foreign_imports(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_a_foreign_import_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\nimport numpy.linalg\nfrom . import scalar\n"
        "from g2sextic import cli\nfrom sympy import Rational\n"
    )
    assert foreign_imports(module) == [(2, "numpy.linalg"), (5, "sympy")]
