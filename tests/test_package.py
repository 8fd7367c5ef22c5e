import ast
from pathlib import Path

import ressmooth

PACKAGE = Path(ressmooth.__file__).parent


def sibling_imports(module):
    """The package modules `module` imports with `from .x import` or `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_is_reachable_from_the_cli():
    # followed from the entry point, not from __init__, so a module that only
    # its own unit test imports shows up as unreachable
    reached, pending = set(), ["cli"]
    while pending:
        module = pending.pop()
        if module not in reached:
            reached.add(module)
            pending.extend(sibling_imports(module))
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules - reached == set()
