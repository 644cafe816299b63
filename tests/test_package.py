"""Package-wide structural checks: public names resolve, no stripped self-checks,
and every error the library raises belongs to its error contract."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import equichord
from equichord import errors

SRC = pathlib.Path(equichord.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"equichord.{name}")
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), f"equichord.{name}.__all__ lists missing {attr!r}"


def test_star_import():
    namespace = {}
    exec("from equichord import *", namespace)
    assert "Geometry" in namespace and "shoot_to_curve" in namespace


def test_no_assert_self_checks():
    """Runtime self-checks must survive ``python -O``: no assert statements and
    no ``raise AssertionError`` in the library."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    offenders.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert not offenders, offenders


def _raised_names():
    """(module file, enclosing top-level function, line, raised class name) for
    every ``raise Name(...)`` and ``raise Name`` in the library."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name):
                        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
                        out.append((path.name, owner, node.lineno, exc.id))
    return out


def test_every_error_class_is_raised():
    """An error class nothing raises, directly or through a subclass, means nothing."""
    raised = {name for _, _, _, name in _raised_names()}
    classes = [c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__]
    assert len(classes) <= 7
    unused = [c.__name__ for c in classes
              if not any(issubclass(d, c) and d.__name__ in raised for d in classes)]
    assert not unused, unused


def test_no_bare_builtin_errors():
    """Bad input raises an EquichordError; only the internal root finder raises
    a bare ValueError (its bracket is the caller's, never the user's)."""
    offenders = [f"{module}:{line} {name}" for module, owner, line, name in _raised_names()
                 if name in ("ValueError", "KeyError", "TypeError")
                 and (module, owner) != ("geometry.py", "_brentq")]
    assert not offenders, offenders


def test_runs_without_scipy():
    """The package needs numpy and click only: it imports and solves with scipy blocked."""
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from equichord.cli import main\n"
            "main(['solve-angle', '--k', '4'])\n")
    env_path = str(SRC.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": env_path, "PATH": ""}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "1.1502619915" in proc.stdout
