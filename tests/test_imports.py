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
