import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "msmanifold"


def unused_imports(source: str) -> list:
    """Module-level imported names that the module never reads and does not
    list in __all__."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def test_no_unused_module_level_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport sys as system\n"
              "from json import dumps, loads\n__all__ = ['loads']\nprint(system.argv)\n")
    assert unused_imports(source) == [(2, "os"), (4, "dumps")]


def test_an_example_solve_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs 16-20 ms to import (numpy 2.4 imports it from np.unique
    # and np.setdiff1d); a CLI solve of the example problem needs none of it
    script = (
        "import sys\n"
        "from msmanifold import cli\n"
        "out = sys.argv[1]\n"
        "assert cli.main(['example-pde', '--out', out]) == 0\n"
        "assert cli.main(['solve-unstable', '--config', out + '/example_problem.json',"
        " '--out', out]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
