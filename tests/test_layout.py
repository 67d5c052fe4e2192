"""The package holds only what it runs.

Every module-level public function or class in ``src/spherestein`` must
be used somewhere in the package outside its own definition, be exported
through ``spherestein.__all__``, or be the console-script entry point.
Reference code that only the tests call belongs in ``tests/oracles.py``.
Samplers, preparation steps and estimators take stacks only, so that
``families.fit_one`` stays the one single-sample path.
"""

import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import spherestein
from spherestein import families
from spherestein.models import FisherBinghamParams, Params, VmfParams, WatsonParams
from spherestein.sampler import RngState

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


def test_cli_import_leaves_scipy_optimize_out():
    # in a fresh interpreter: the test modules import scipy.optimize themselves
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, spherestein.cli; "
         "print('scipy.optimize' in sys.modules, 'scipy.special' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "True"]


def test_params_classes_hold_only_their_fields():
    # a family's params class is its name and its checked fields; scores,
    # densities and the Stein operator are reference code in the tests
    for cls in get_args(Params):
        methods = {name for name, value in vars(cls).items()
                   if callable(value) or isinstance(value, property)}
        assert methods <= {"__init__", "__post_init__", "__repr__", "__eq__", "d"}, \
            (cls.__name__, methods)


# stacks only: fit_one is the one single-sample path ------------------------

LAYOUT_PARAMS = {
    "vmf": VmfParams(np.eye(3)[0], 5.0),
    "watson": WatsonParams(np.eye(3)[0], 5.0),
    "fb": FisherBinghamParams(np.array([1.0, 0.0, 0.0]), np.zeros((3, 3))),
}


@pytest.mark.parametrize("family,code", sorted(families.ESTIMATORS))
def test_estimators_reject_a_single_sample(family, code):
    # the n x d sample of which the (1, n, d) stack is fitted
    stack = families.SAMPLERS[family](LAYOUT_PARAMS[family], 50, [RngState(0)])
    assert not families.ESTIMATORS[family, code](stack).ne[0]
    with pytest.raises(ValueError, match="b x n x d"):
        families.ESTIMATORS[family, code](stack[0])
    if family in families.PREPARE:
        with pytest.raises(ValueError, match="b x n x d"):
            families.PREPARE[family](stack[0])


@pytest.mark.parametrize("family", sorted(families.SAMPLERS))
def test_samplers_reject_a_bare_rng_state(family):
    sample = families.SAMPLERS[family]
    assert sample(LAYOUT_PARAMS[family], 5, [RngState(0)]).shape == (1, 5, 3)
    with pytest.raises(TypeError):
        sample(LAYOUT_PARAMS[family], 5, RngState(0))
