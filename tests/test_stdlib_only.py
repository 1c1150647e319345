"""The package imports nothing outside the standard library and itself,
it and the tests read every name they import, the package reads every
private name it defines, no package module reads a private name that
only another one defines, and the package or perfbench reads every
public name it defines: a name that only the tests read is not kept.  Only scalar.py takes math.lcm, so
scalar.cleared stays the one routine that clears denominators.  Every
Python file of the package, the tests and perfbench parses with the
grammar of the Python floor that pyproject.toml declares.  Every command
is a fresh interpreter, so importing the CLI loads none of dataclasses,
inspect, ast, dis and tokenize, whose import chain would add several
milliseconds to every command's cold start."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import g2sextic

PACKAGE_DIR = Path(g2sextic.__file__).parent
TESTS_DIR = Path(__file__).parent
PERFBENCH_DIR = TESTS_DIR.parent / "perfbench"
PYPROJECT = TESTS_DIR.parent / "pyproject.toml"
# stdlib modules that importing the CLI must not load; typing is left out,
# since site may load it through an installed package's .pth file
COLD_START_FREE = ("dataclasses", "inspect", "ast", "dis", "tokenize")


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


def unused_imports(path: Path):
    """(line, name) for every name the module imports and never reads.

    __future__ imports are compiler directives, not names, and are skipped.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for line, name in imported if name not in read)


def lcm_lines(path: Path):
    """Lines of the file that take math.lcm: a `from math import lcm`,
    under any alias, or a read of the attribute math.lcm."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            lines += [node.lineno for alias in node.names if alias.name == "lcm"]
        elif (isinstance(node, ast.Attribute) and node.attr == "lcm"
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            lines.append(node.lineno)
    return sorted(lines)


def defined_names(paths, private):
    """(file name, line, name) for every module-level function or class, and
    every method of a module-level class, whose name is private (one leading
    underscore, not a dunder) or, with private=False, public."""
    defined = []
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node] + members:
                if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                is_private = d.name.startswith("_") and not d.name.endswith("__")
                is_public = not d.name.startswith("_")
                if is_private if private else is_public:
                    defined.append((path.name, d.lineno, d.name))
    return defined


def read_names(paths):
    """Every name the files read: as a name, an attribute or an import."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def dead_private_names(paths):
    """(file name, line, name) for every private module-level function or
    class, and every private method of a module-level class, whose name is
    read nowhere in the given files (as a name, an attribute or an import)."""
    read = read_names(paths)
    return sorted(entry for entry in defined_names(paths, private=True) if entry[2] not in read)


def is_private_name(name):
    """One leading underscore: not public, not a dunder, not name-mangled."""
    return name.startswith("_") and not name.startswith("__")


def private_definitions(path: Path):
    """Every private name the file defines: a function, class or method, a
    module constant, a __slots__ entry or an attribute assigned as x._name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if is_private_name(name)}


def private_reads(path: Path):
    """(line, name) for every private name the file reads: as a name, an
    attribute or an import."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            reads += [(node.lineno, alias.name) for alias in node.names]
    return [(line, name) for line, name in reads if is_private_name(name)]


def foreign_private_reads(paths):
    """(file name, line, name) for every private name that a file reads,
    another of the files defines and the file itself does not define."""
    defined = {path: private_definitions(path) for path in paths}
    found = []
    for path in paths:
        others = set().union(*(names for p, names in defined.items() if p != path))
        found += [(path.name, line, name) for line, name in private_reads(path)
                  if name in others and name not in defined[path]]
    return sorted(found)


def unread_public_names(paths, readers):
    """(file name, line, name) for every public module-level function or
    class, and every public method of a module-level class, in paths whose
    name no file of readers reads.

    The match is by name alone: any read of an attribute or a name that is
    spelled the same counts, whatever object it belongs to.  A method
    Matrix3.trace that only tests call is hidden by perfbench's args.trace,
    and a method is_zero by every other class that defines and calls one."""
    read = read_names(readers)
    return sorted(entry for entry in defined_names(paths, private=False) if entry[2] not in read)


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


def test_every_module_reads_what_it_imports():
    # the package's __init__.py imports only to re-export
    modules = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name != "__init__.py"]
    tests = sorted(TESTS_DIR.glob("*.py"))
    assert len(modules) > 5 and len(tests) > 5
    offenders = {str(p.relative_to(p.parent.parent)): unused_imports(p) for p in modules + tests}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_an_unused_import_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\nimport os\nimport os.path\n"
        "from math import (\n    gcd as g,\n    lcm,\n)\nimport sys\n"
        "print(sys.argv, g)\nlcm = 1\n"
    )
    assert unused_imports(module) == [(2, "os"), (3, "os"), (6, "lcm")]


def test_only_scalar_takes_lcm():
    # scalar.cleared is the package's one denominator-clearing routine
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert {p.name for p in modules if lcm_lines(p)} == {"scalar.py"}


def test_taking_lcm_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import math\nfrom math import gcd, lcm as least\nfrom fractions import lcm\n"
        "math.lcm(2, 3)\nmath.gcd(2, 3)\nother.lcm\n"
    )
    assert lcm_lines(module) == [2, 4]


def declared_python_floor(text: str) -> tuple[int, int]:
    """(major, minor) of requires-python = ">=X.Y" in a pyproject.toml
    text (tomllib is Python 3.11, above the floor it would read)."""
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match[1]), int(match[2])


def files_above_the_floor(paths, floor):
    """(path, message) for every file that does not parse with the grammar
    of Python floor."""
    found = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
        except SyntaxError as err:
            found.append((path.name, err.msg))
    return found


def test_every_file_parses_at_the_declared_python_floor():
    paths = [p for d in (PACKAGE_DIR, TESTS_DIR, PERFBENCH_DIR) for p in sorted(d.rglob("*.py"))]
    assert len(paths) > 30
    floor = declared_python_floor(PYPROJECT.read_text(encoding="utf-8"))
    assert files_above_the_floor(paths, floor) == []


def test_a_file_above_the_floor_is_reported(tmp_path):
    # except* is Python 3.11; match is 3.10, so it is reported only below 3.10
    newer = tmp_path / "newer.py"
    newer.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    floor = tmp_path / "floor.py"
    floor.write_text("match 1:\n    case 1:\n        pass\n")
    assert [name for name, _ in files_above_the_floor([newer, floor], (3, 10))] == ["newer.py"]
    assert [name for name, _ in files_above_the_floor([floor], (3, 9))] == ["floor.py"]


def test_every_private_name_is_read():
    assert dead_private_names(sorted(PACKAGE_DIR.glob("*.py"))) == []


def test_a_dead_private_name_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "def _dead():\n    pass\n"
        "def _called():\n    pass\n"
        "class _Unused:\n"
        "    def __init__(self):\n        self._kept()\n"
        "    def _kept(self):\n        pass\n"
        "    def _orphan(self):\n        pass\n"
        "def public():\n    def _nested():\n        pass\n    return _called()\n"
    )
    other = tmp_path / "other.py"
    other.write_text("from module import _imported\nos.path._attribute\n"
                     "def _imported():\n    pass\ndef _attribute():\n    pass\n")
    assert dead_private_names([module, other]) == [
        ("module.py", 2, "_dead"), ("module.py", 6, "_Unused"), ("module.py", 11, "_orphan"),
    ]


def test_no_module_reads_another_modules_private_name():
    assert foreign_private_reads(sorted(PACKAGE_DIR.glob("*.py"))) == []


def test_a_foreign_private_read_is_reported(tmp_path):
    owner = tmp_path / "owner.py"
    owner.write_text(
        "_LIMIT = 3\n_LOW, _HIGH = 1, 2\n"
        "def _helper():\n    pass\n"
        "class Box:\n    __slots__ = (\"_cache\",)\n"
        "    def _of(self):\n        self._tag = 1\n"
        "def _shared():\n    pass\n"
    )
    # _shared is the reader's own too; argparse-style names that no file
    # defines, and dunders, are out of scope
    reader = tmp_path / "reader.py"
    reader.write_text(
        "from owner import _LIMIT, Box\n"
        "import owner\n"
        "owner._helper()\n"
        "box = Box()\nbox._cache\nbox._of()\nbox._tag\nowner._HIGH\n"
        "def _shared():\n    pass\n"
        "owner._shared()\n"
        "parser._option_string_actions\nbox.__slots__\n"
    )
    assert foreign_private_reads([owner, reader]) == [
        ("reader.py", 1, "_LIMIT"), ("reader.py", 3, "_helper"), ("reader.py", 5, "_cache"),
        ("reader.py", 6, "_of"), ("reader.py", 7, "_tag"), ("reader.py", 8, "_HIGH"),
    ]


def test_every_public_name_is_read():
    # a public name that no command, criterion or perfbench workload reads
    # is dead library surface; a reference route that tests compare
    # against lives in the tests (reference_data.py or the one test module
    # that reads it), so the tests are not readers
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    readers = modules + sorted(PERFBENCH_DIR.glob("*.py"))
    assert len(sorted(PERFBENCH_DIR.glob("*.py"))) > 3
    assert unread_public_names(modules, readers) == []


def test_an_unread_public_name_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def dead():\n    pass\n"
        "def called():\n    pass\n"
        "class Unused:\n"
        "    def __init__(self):\n        self.kept()\n"
        "    def kept(self):\n        pass\n"
        "    def orphan(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
        "def imported():\n    def nested():\n        pass\n    return called()\n"
    )
    # imported is read only by a test file, which the tightened readers
    # (package and perfbench) leave out; by name alone, an attribute
    # args.imported in perfbench counts as a read of it
    test_file, bench = tmp_path / "test_module.py", tmp_path / "run.py"
    test_file.write_text("from module import imported\nimported()\n")
    bench.write_text("if args.imported:\n    pass\n")
    assert unread_public_names([module], [module, test_file]) == [
        ("module.py", 1, "dead"), ("module.py", 5, "Unused"), ("module.py", 10, "orphan"),
    ]
    assert unread_public_names([module], [module]) == [
        ("module.py", 1, "dead"), ("module.py", 5, "Unused"), ("module.py", 10, "orphan"),
        ("module.py", 14, "imported"),
    ]
    assert unread_public_names([module], [module, bench]) == unread_public_names(
        [module], [module, test_file])


def test_importing_the_cli_loads_no_dataclasses_chain():
    # one fresh interpreter, as a command runs
    probe = ("import sys; import g2sextic.cli; "
             f"print(' '.join(m for m in {COLD_START_FREE!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert run.stdout.split() == []
