"""Every module-level import in the package is read somewhere in its module."""

import ast
from pathlib import Path

import longipet

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


REPO = Path(__file__).resolve().parent.parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}

# Ops that perfbench's tracer looks up by name, in its AUTODIFF_OPS tuples
# (sub, sqrt and mean through ELEMENTWISE), so deleting them breaks every
# traced run until the benchmark stops doing so; ROADMAP item 6 deletes them
# and empties this set.
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
