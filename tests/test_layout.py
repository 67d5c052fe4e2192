"""The package holds only what it runs.

Every module-level public function or class in ``src/spherestein`` must
be used somewhere in the package outside its own definition, be exported
through ``spherestein.__all__``, or be the console-script entry point.
Reference code that only the tests call belongs in ``tests/oracles.py``.
"""

import ast
import tomllib
from pathlib import Path
from typing import get_args

import spherestein
from spherestein.models import Params

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spherestein"


def _entry_point() -> tuple[str, str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["spherestein"]
    module, func = target.split(":")
    return module.rsplit(".", 1)[-1], func


def _used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    # names read as variables or attributes, outside the subtree `skip`
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _definitions() -> list[tuple[str, str, ast.AST]]:
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.append((path.stem, node.name, node))
    return defs


def test_every_public_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    exported = set(spherestein.__all__)
    entry = _entry_point()
    unused = []
    for module, name, node in _definitions():
        if name in exported or (module, name) == entry:
            continue
        if not any(name in _used_names(tree, skip=node if mod == module else None)
                   for mod, tree in trees.items()):
            unused.append(f"{module}.{name}")
    assert not unused, f"public definitions with no caller in the package: {unused}"


def test_all_names_resolve():
    missing = [name for name in spherestein.__all__
               if not hasattr(spherestein, name)]
    assert not missing
    assert len(set(spherestein.__all__)) == len(spherestein.__all__)


def test_params_classes_hold_only_their_fields():
    # a family's params class is its name and its checked fields; scores,
    # densities and the Stein operator are reference code in the tests
    for cls in get_args(Params):
        methods = {name for name, value in vars(cls).items()
                   if callable(value) or isinstance(value, property)}
        assert methods <= {"__init__", "__post_init__", "__repr__", "__eq__", "d"}, \
            (cls.__name__, methods)
