import ast
from pathlib import Path

import ressmooth

PACKAGE = Path(ressmooth.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def sibling_imports(module):
    """The package modules `module` imports with `from .x import` or `from . import x`."""
    found = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def used_names(module):
    """Names `module` reads, as a bare name, an attribute or a `from .x import`,
    leaving out each top-level definition's references to itself."""
    found = set()
    for statement in parse(module).body:
        own = statement.name if isinstance(statement, DEFINITIONS) else None
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [alias.name for alias in node.names]
            else:
                continue
            found.update(name for name in names if name != own)
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


def test_every_function_and_class_is_used_in_the_package():
    # a per-sample reference left in src with no production caller fails
    # here; such code belongs in tests/oracles.py
    modules = [path.stem for path in PACKAGE.glob("*.py")]
    used = set().union(*(used_names(module) for module in modules))
    unused = {f"{module}.{statement.name}" for module in modules
              for statement in parse(module).body
              if isinstance(statement, DEFINITIONS) and statement.name not in used}
    assert unused == set()
