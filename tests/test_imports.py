"""Every name a package module imports is used, and every export exists.

A name counts as used when the module references it, lists it in
``__all__``, or imports it on a line marked ``# noqa: F401`` (a
re-export that something outside the module reaches through it).
``__init__.py`` is skipped: its imports are the package namespace.
Every ``__all__`` entry must resolve to an attribute of its module, so
a deletion cannot leave a stale export behind.  Every private module-level
name (``_name``) must be referenced somewhere in the package, so a deletion
cannot leave its helpers or constants behind either.  Importing the package or
the CLI must load no scipy at all, and neither may running any command,
``fit`` included, so every command's cold start stays at numpy and click.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import incomedist as idist
from conftest import year_params

SRC = Path(__file__).resolve().parent.parent / "src" / "incomedist"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.name}:{lineno}: {name}"
        for name, lineno in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and "# noqa: F401" not in lines[lineno - 1]
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_guard_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\nimport os  # noqa: F401\nfrom json import dumps, loads\n"
        "__all__ = ['loads']\nprint(math.pi)\n",
        encoding="utf-8",
    )
    assert _unused_imports(probe) == ["probe.py:3: dumps"]


def _stale_exports(module) -> list[str]:
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    assert _stale_exports(importlib.import_module(f"incomedist.{path.stem}")) == []


def test_guard_sees_a_stale_export(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("__all__ = ['kept', 'gone']\nkept = 1\n", encoding="utf-8")
    spec = importlib.util.spec_from_file_location("probe", probe)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert _stale_exports(module) == ["gone"]


def _unreferenced_privates(paths) -> list[str]:
    """``file:line: name`` of each module-level ``_name`` that no file in ``paths`` reads."""
    defined, referenced = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [f"{file}:{lineno}: {name}" for file, lineno, name in defined
            if name not in referenced]


def test_every_private_name_is_referenced():
    assert _unreferenced_privates(sorted(SRC.glob("*.py"))) == []


def test_guard_sees_an_unreferenced_private(tmp_path):
    owner = tmp_path / "owner.py"
    owner.write_text(
        "_USED = 1\n_LEFT = 2\n\n\ndef _helper():\n    return _USED\n\n\n"
        "def _shared():\n    pass\n\n\nclass _Gone:\n    pass\n",
        encoding="utf-8",
    )
    user = tmp_path / "user.py"
    user.write_text("import owner\nfrom owner import _shared\nowner._helper()\n",
                    encoding="utf-8")
    assert _unreferenced_privates([owner, user]) == ["owner.py:2: _LEFT", "owner.py:13: _Gone"]


def _scipy_modules_after(statement: str, cwd=None) -> list[str]:
    """The ``scipy*`` modules a fresh interpreter holds after ``statement``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=cwd, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return done.stdout.split()


def test_cli_import_leaves_out_scipy_stats():
    assert _scipy_modules_after("import incomedist.cli") == []


def test_no_command_loads_scipy(tmp_path):
    (tmp_path / "p.json").write_text(json.dumps(idist.params_to_dict(year_params(2010))))
    commands = [
        ["sample", "--params", "p.json", "--n", "500", "--seed", "1", "--out", "s.csv"],
        ["fit", "--incomes", "s.csv", "--restarts", "1", "--grid-points", "40",
         "--out", "fit.json"],
        ["simulate", "--params", "p.json", "--agents", "20", "--steps", "10",
         "--seed", "1", "--out", "sim.csv"],
        ["plotdata", "--params", "p.json", "--incomes", "s.csv", "--curve-points", "20",
         "--out", "plot.csv"],
        ["report", "--fit-json", "p.json", "--out", "report.json"],
    ]
    statement = (
        "from incomedist.cli import main\n"
        f"for args in {commands!r}:\n"
        "    try:\n"
        "        main(args, standalone_mode=False)\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, (args, exc.code)"
    )
    assert _scipy_modules_after(statement, cwd=tmp_path) == []
    assert json.loads((tmp_path / "fit.json").read_text())["diagnostics"]["misfit_calls"] > 0
    assert (tmp_path / "report.json").exists()


def test_package_import_loads_no_scipy():
    assert _scipy_modules_after("import incomedist") == []
