"""Every module-level import in the package is read somewhere in its module,
and none of them loads scipy."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import longipet
from longipet.report import TESTS

PACKAGE = Path(longipet.__file__).parent


def _bound_names(node):
    # The names an import statement binds in the module namespace.
    for alias in node.names:
        if alias.asname is not None:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno} {name}"
                           for name in _bound_names(node) if name not in read]
    assert unused == []


def _import_time_nodes(node):
    # Every node under ``node`` that runs when its module is imported: all
    # but the bodies of functions.
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_no_module_imports_scipy_at_module_level():
    # scipy submodules are imported inside the functions that call them, so
    # `import longipet` loads none of them.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _import_time_nodes(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert found == []


# Imports the package, then runs through cli.main phantom, preprocess, a
# linear forecast, evaluate (with the linear forecasts also written as i2i
# predictions, scaled per subject, so every test has pairs), stats with every
# test and report, noting after each which of scipy.special, scipy.stats and
# scipy.ndimage are loaded; then calls the special functions, a chi-square
# test and augmentation's sampler, the one of them that loads scipy.ndimage.
_SCIPY_FREE_RUN = """
import contextlib, io, json, sys
from pathlib import Path

def loaded():
    return [m for m in ("scipy.special", "scipy.stats", "scipy.ndimage") if m in sys.modules]

import longipet
seen = {"import": loaded()}
from longipet import cli
from longipet.report import TESTS
from longipet.volume_io import read_volume, write_volume
work = sys.argv[1]
steps = {
    "phantom": ["phantom", "--out", f"{work}/cohort", "--dims", "12", "12", "12",
                "--n-stable", "2", "--n-converter", "2", "--n-decliner", "2",
                "--years", "0", "1", "2", "3"],
    "preprocess": ["preprocess", "--manifest", f"{work}/cohort/manifest.json",
                   "--out", f"{work}/prep", "--ref-mask", f"{work}/cohort/reference_mask.vol",
                   "--fwhm", "2"],
    "forecast": ["forecast", "--manifest", f"{work}/prep/manifest.json",
                 "--out", f"{work}/fc", "--predictor", "linear", "--to-year", "3"],
    "evaluate": ["evaluate", "--manifest", f"{work}/prep/manifest.json",
                 "--predictions", f"{work}/fc/volumes", "--out", f"{work}/metrics.csv",
                 "--atlas", f"{work}/cohort/atlas.vol", "--roi", f"{work}/cohort/meta_roi.json"],
}
steps.update({f"stats {test}": ["stats", "--metrics", f"{work}/metrics.csv",
                                "--out", f"{work}/stats_{test}.csv", "--test", test]
              for test in TESTS})
steps["report"] = ["report", "--metrics", f"{work}/metrics.csv", "--out", f"{work}/report.svg"]
for name, argv in steps.items():
    if name == "evaluate":
        for k, path in enumerate(sorted(Path(f"{work}/fc/volumes").glob("*__linear__*.vol"))):
            vol = read_volume(path)
            vol.data *= 1.0 + 0.01 * (k % 5)
            write_volume(vol, str(path).replace("__linear__", "__i2i__"))
    with contextlib.redirect_stdout(io.StringIO()):
        seen[name] = cli.main(argv), loaded()

import numpy as np
from longipet.augment import AffineAugmentation, apply_affine
from longipet.stats import betainc_reg, chi_square_independence, gammainc_lower
from longipet.volume_io import Volume3D
seen["betainc_reg"] = betainc_reg(2.0, 3.0, 0.4)
seen["gammainc_lower"] = gammainc_lower(1.0, 2.0)
seen["chi2"] = chi_square_independence([[90, 10], [10, 90]]).p_value
seen["special functions"] = loaded()
vol = Volume3D(np.arange(64.0).reshape(4, 4, 4))
same = apply_affine(vol, AffineAugmentation((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 0.0)))
seen["apply_affine"] = bool(np.array_equal(same.data, vol.data))
print(json.dumps(seen))
"""


def test_import_and_the_scipy_free_commands_leave_scipy_unloaded(tmp_path):
    # A fresh interpreter: this one has loaded scipy already.
    run = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUN, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    seen = json.loads(run.stdout)
    assert seen.pop("import") == []
    for step in ("phantom", "preprocess", "forecast", "evaluate", "report") + tuple(
            f"stats {test}" for test in TESTS):
        assert seen.pop(step) == [0, []], step  # exit code, scipy modules loaded
    for test in TESTS:  # every test ran at least one comparison
        rows = (tmp_path / f"stats_{test}.csv").read_text().splitlines()[1:]
        assert any(row.endswith(",ok") for row in rows), test
    assert seen.pop("special functions") == []
    # I_0.4(2, 3) = 6 x^2 (1-x)^2 + 4 x^3 (1-x) + x^4; P(1, 2) = 1 - e^-2;
    # a chi-square with 1 df and statistic 128 has p = erfc(8)
    assert seen == {"betainc_reg": pytest.approx(0.5248, rel=1e-12),
                    "gammainc_lower": pytest.approx(1.0 - math.exp(-2.0), rel=1e-12),
                    "chi2": pytest.approx(math.erfc(8.0), rel=1e-12), "apply_affine": True}


def test_no_file_imports_scipy_special_or_scipy_stats():
    # Anywhere, function bodies included: the package computes its own
    # incomplete beta and gamma functions, and either module costs a process
    # about 15 MiB (scipy.special) or 40 MiB (scipy.stats) of RSS.
    found = []
    for path in sorted(PACKAGE.parent.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[:2] in (["scipy", "special"], ["scipy", "stats"])]
    assert found == []


REPO = Path(__file__).resolve().parent.parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}

# Ops that perfbench's tracer looks up by name, in its AUTODIFF_OPS tuples
# (sub, sqrt and mean through ELEMENTWISE), so deleting them breaks every
# traced run until the benchmark stops doing so (ROADMAP item 8); item 9
# then deletes them and empties this set.
TRACER_PINNED = {"mul", "div", "sigmoid", "tensor_sum", "narrow_channels", "concat_channels",
                 "sub", "sqrt", "mean"}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _import_source(node, in_package):
    # The longipet module an import-from reads ("" for the package itself),
    # or None when it reads another library.
    if node.level == 1 and in_package:
        return node.module or ""
    if node.level == 0 and node.module == "longipet":
        return ""
    if node.level == 0 and (node.module or "").startswith("longipet."):
        return node.module[len("longipet."):]
    return None


def _bindings(tree, in_package, reexports):
    # name -> (module, attr): attr None binds the module itself, module ""
    # the package; any other attr binds that function or class by name.
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "longipet":
                    continue
                if alias.asname is None:
                    bound["longipet"] = ("", None)
                else:
                    bound[alias.asname] = (".".join(parts[1:]), None)
        elif isinstance(node, ast.ImportFrom):
            source = _import_source(node, in_package)
            if source is None:
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if source:
                    bound[name] = (source, alias.name)
                elif alias.name in MODULES:
                    bound[name] = (alias.name, None)
                elif alias.name in reexports:
                    bound[name] = reexports[alias.name]
    return bound


def _reexports():
    # name -> (module, name) for every `from .module import name` in __init__.py
    out = {}
    for node in _parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


def _callers(path, reexports):
    # (module, name) pairs a file calls by module-level name, and every
    # name it loads bare or as an attribute (the rule for methods).
    tree = _parse(path)
    home = path.stem if path.parent == PACKAGE else None
    bound = _bindings(tree, home is not None, reexports)

    def module_of(expr):
        if isinstance(expr, ast.Name):
            target = bound.get(expr.id)
            return target[0] if target and target[1] is None else None
        if isinstance(expr, ast.Attribute) and module_of(expr.value) == "":
            return expr.attr if expr.attr in MODULES else None
        return None

    resolved, loaded = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            loaded.add(n.id)
            if home is not None:
                resolved.add((home, n.id))
            target = bound.get(n.id)
            if target and target[1] is not None:
                resolved.add(target)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            loaded.add(n.attr)
            module = module_of(n.value)
            if module == "":
                resolved.add(reexports.get(n.attr, ("", n.attr)))
            elif module is not None:
                resolved.add((module, n.attr))
    return resolved, loaded


def _definitions(tree):
    # (name, is_method): module-level functions and classes, and the methods
    # of those classes; dunder methods are called by the language, not by
    # name.
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, True) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_every_definition_has_a_caller():
    # Callers live in the package (its __init__.py re-exports excluded), the
    # benchmark or the acceptance tests.  A module-level function or class
    # is called by a bare load in its own module, or elsewhere through a
    # name bound by `from .module import` / `from longipet import`, or as
    # `alias.name` with alias bound to its module or the package.  A method
    # is called by any load of its name.
    reexports = _reexports()
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    resolved, loaded = set(), set()
    for path in modules + sorted((REPO / "perfbench").glob("*.py")) + [
            REPO / "tests" / "test_acceptance.py"]:
        r, l = _callers(path, reexports)
        resolved |= r
        loaded |= l
    dead = set()
    for path in modules:
        for name, method in _definitions(_parse(path)):
            called = name in loaded if method else (path.stem, name) in resolved
            if not called:
                dead.add((path.stem, name))
    pinned = {("autodiff", name) for name in TRACER_PINNED}
    assert sorted(f"{m}:{name}" for m, name in dead - pinned) == []
    # an op that gains a caller leaves the list
    assert pinned <= dead


def _tracer():
    # perfbench/tracer.py run as a fresh module from its source, so the
    # import writes nothing under perfbench/.
    path = REPO / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_name_the_tracer_wraps_exists():
    # The tracer looks each of these up by name when a traced run installs
    # it, so without this a deleted op fails only in a traced benchmark run.
    tracer = _tracer()
    names = [("autodiff", op) for op in tracer.AUTODIFF_OPS]
    names += [(module, name) for module, funcs in tracer.LIBRARY.items() for name in funcs]
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"longipet.{module}"), name)]
    assert names and missing == []
