"""The package holds only what it runs.

Every module-level public function or class in ``src/spherestein`` must
be used somewhere in the package outside its own definition, be exported
through ``spherestein.__all__`` and named in the README, or be the
console-script entry point.  Reference code that only the tests call
belongs in ``tests/oracles.py``.
Samplers, ``models.sample_stack`` and estimators take stacks only, so that
``families.fit_one`` stays the one single-sample path.
"""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import spherestein
from spherestein import families, models
from spherestein.models import FisherBinghamParams, Params, VmfParams, WatsonParams

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
    # an exported name that the package does not call is API only if the
    # README names it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = {name for name in spherestein.__all__
                  if re.search(rf"\b{name}\b", readme)}
    entry = _entry_point()
    unused = []
    for module, name, node in _definitions():
        if name in documented or (module, name) == entry:
            continue
        if not any(name in _used_names(tree, skip=node if mod == module else None)
                   for mod, tree in trees.items()):
            unused.append(f"{module}.{name}")
    assert not unused, ("public definitions with no caller in the package "
                        f"and no README mention: {unused}")


def test_models_imports_only_linalg():
    # the parameter types sit below every module but linalg, so that a new
    # family's params class touches no estimator or special function
    tree = ast.parse((PACKAGE / "models.py").read_text(encoding="utf-8"))
    names = []  # every imported name in full, a relative import resolved
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["spherestein" if node.level else "",
                                            node.module]))
            names += [f"{module}.{alias.name}" for alias in node.names]
    modules = {name.split(".")[1] for name in names if name.startswith("spherestein.")}
    assert modules == {"linalg"}


def test_all_names_resolve():
    missing = [name for name in spherestein.__all__
               if not hasattr(spherestein, name)]
    assert not missing
    assert len(set(spherestein.__all__)) == len(spherestein.__all__)


def test_cli_import_leaves_scipy_optimize_out():
    # in a fresh interpreter: the test modules import scipy themselves
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, spherestein.cli; "
         "print('scipy.optimize' in sys.modules, 'scipy.special' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "False"]


_FIT_IMPORTS = """
import contextlib, io, sys
import numpy as np
from spherestein import cli
x = np.random.default_rng(0).standard_normal((200, 3)) + [3.0, 0.0, 0.0]
np.savetxt(sys.argv[1], x / np.linalg.norm(x, axis=1, keepdims=True), delimiter=",")
for family, estimator in (("fb", "st"), ("vmf", "st"), ("vmf", "ml")):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["fit", "--family", family, "--estimator", estimator,
                         "--in", sys.argv[1]])
    print(code, "scipy.special" in sys.modules)
"""


def test_scipy_special_loads_only_for_a_likelihood_fit(tmp_path):
    # the Stein fits never call scipy.special, so a CLI fit with one of them
    # does not pay for its import; the vMF ML fit needs the Bessel ratio
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", _FIT_IMPORTS, str(tmp_path / "x.csv")],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["0 False", "0 False", "0 True"]


def test_readme_python_example_runs():
    # the README's first python block, as a reader would paste it
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["stack"].shape == (100, 1000, 3)
    assert namespace["fit"].kappa_hat.shape == (100,)


def test_module_entry_point_prints_help():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-m", "spherestein.cli", "--help"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    assert "simulate" in out.stdout


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


def test_every_family_has_one_entry_in_each_table():
    # a study wraps every stack in one models.Sample, with no per-family branch
    assert set(families.SAMPLERS) == set(families.FAMILIES)
    assert {family for family, _ in families.ESTIMATORS} == set(families.SAMPLERS)


@pytest.mark.parametrize("family,code", sorted(families.ESTIMATORS))
def test_estimators_reject_a_single_sample(family, code):
    # the n x d sample of which the (1, n, d) stack is fitted
    stack = families.SAMPLERS[family](LAYOUT_PARAMS[family], 50, 0)
    assert not families.ESTIMATORS[family, code](stack).ne[0]
    with pytest.raises(ValueError, match="b x n x d"):
        families.ESTIMATORS[family, code](stack[0])
    with pytest.raises(ValueError, match="b x n x d"):
        models.sample_stack(stack[0])


@pytest.mark.parametrize("family,code", sorted(families.ESTIMATORS))
def test_prepared_stack_shares_each_samples_moments(family, code):
    # sample_stack's Sample forms every sample's Xbar, S and axes with the
    # bits of that sample as a stack of one, and a fit reads the same from
    # the Sample as from the raw stack
    stack = families.SAMPLERS[family](LAYOUT_PARAMS[family], 50, 0, range(6))
    prepared = models.sample_stack(stack)
    assert isinstance(prepared, models.Sample)
    assert models.sample_stack(prepared) is prepared
    for k in range(len(stack)):
        one = models.sample_stack(stack[k:k + 1])
        assert prepared.xbar[k].tobytes() == one.xbar[0].tobytes()
        assert prepared.scatter[k].tobytes() == one.scatter[0].tobytes()
        for b in ("+", "-"):
            assert prepared.axes[b][k].tobytes() == one.axes[b][0].tobytes()
    fit = families.ESTIMATORS[family, code]
    np.testing.assert_equal(vars(fit(prepared)), vars(fit(stack)))


@pytest.mark.parametrize("family", sorted(families.SAMPLERS))
def test_samplers_reject_a_bare_rng_state(family):
    # one seed and a sequence of streams (one by default), never a bare stream
    sample = families.SAMPLERS[family]
    assert sample(LAYOUT_PARAMS[family], 5, 0).shape == (1, 5, 3)
    assert sample(LAYOUT_PARAMS[family], 5, 0, range(2, 4)).shape == (2, 5, 3)
    with pytest.raises(ValueError, match="streams must be a non-empty sequence"):
        sample(LAYOUT_PARAMS[family], 5, 0, 2)
    with pytest.raises(ValueError, match="streams must be a non-empty sequence"):
        sample(LAYOUT_PARAMS[family], 5, 0, [])
