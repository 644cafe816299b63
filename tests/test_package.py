"""Package-wide structural checks: public names resolve, no stripped self-checks,
and every error the library raises belongs to its error contract."""

import ast
import importlib
import json
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
    """Bad input raises an EquichordError, never a bare ValueError, KeyError or
    TypeError; the root finder raises only RuntimeError, since every bracket it
    gets is sign-changing by construction."""
    offenders = [f"{module}:{line} {name}" for module, _, line, name in _raised_names()
                 if name in ("ValueError", "KeyError", "TypeError")]
    assert not offenders, offenders


# solve-angle's roots and contact angles as they print, E2, S2 at R = 1 and H2 at R = 1.3
SOLVE_ANGLE_K4 = {
    (): [(1.1502619915109316, 1.1502619915109316), (1.9913306620788618, 1.9913306620788618)],
    ("--geometry", "S2", "--radius", "1.0"): [(1.1502619915109316, 0.8793859590243741),
                                              (1.9913306620788618, 2.2622066945654193)],
    ("--geometry", "H2", "--radius", "1.3"): [(1.1502619915109316, 1.3476678260791088),
                                              (1.9913306620788618, 1.7939248275106845)],
}


def _run_python(code: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC.parent), "PATH": ""}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_runs_without_scipy():
    """The package needs numpy and click only, and solve-angle and --help need no numpy:
    with both blocked they run, with the digits they print with numpy installed."""
    commands = [["--help"]] + [["solve-angle", "--k", "4", *extra] for extra in SOLVE_ANGLE_K4]
    code = ("import sys; sys.modules['scipy'] = sys.modules['numpy'] = None\n"
            "from equichord.cli import main\n"
            f"for args in {commands!r}:\n"
            "    try:\n"
            "        main(args)\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code in (0, None), (args, exc.code)\n"
            "    print('<end>')\n")
    help_text, *outputs, tail = _run_python(code).stdout.split("<end>\n")
    assert "solve-angle" in help_text and len(outputs) == len(SOLVE_ANGLE_K4) and tail == ""
    for extra, output in zip(SOLVE_ANGLE_K4, outputs):
        assert [(s["c"], s["alpha"]) for s in json.loads(output)] == SOLVE_ANGLE_K4[extra], extra


def test_import_runs_no_layer():
    """``import equichord`` loads no numpy and runs no module of the package: each is
    registered unexecuted, as perfbench's tracer reads them from sys.modules."""
    code = ("import sys, types\n"
            "import equichord\n"
            "assert 'numpy' not in sys.modules\n"
            "ran = [n for n, m in sys.modules.items() if n.startswith('equichord.') and type(m) is types.ModuleType]\n"
            "assert not ran, ran\n"
            "for layer in ('angles', 'geometry', 'chords', 'curves', 'billiards', 'polygons'):\n"
            "    assert f'equichord.{layer}' in sys.modules, layer\n")
    _run_python(code)


def test_public_names_are_their_modules_objects():
    """Every name in ``equichord.__all__`` is listed once, in ``dir(equichord)``, and is the
    object its defining module holds."""
    assert len(set(equichord.__all__)) == len(equichord.__all__)
    assert set(equichord.__all__) <= set(dir(equichord))
    for name in equichord.__all__:
        obj = getattr(equichord, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    with pytest.raises(AttributeError):
        equichord.no_such_name
