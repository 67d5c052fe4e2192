"""The single-sample adapter: ``families.fit_one`` fits one sample as a
stack of one, and its report is slice k of a stack fit."""

import dataclasses
import math

import numpy as np
import pytest

from spherestein import families
from spherestein.est_vmf import DegenerateMean
from spherestein.models import FisherBinghamParams, VmfParams, WatsonParams

from oracles import watson_st_ne_points


def _params(family, d):
    # per family the parameter sets whose samples fill a stack; Watson
    # mixes bipolar and girdle samples, so both branches get picked
    u = np.ones(d) / math.sqrt(d)
    return {"vmf": [VmfParams(u, 5.0)],
            "watson": [WatsonParams(u, 5.0), WatsonParams(u, -2.0)],
            "fb": [FisherBinghamParams(2.0 * u, np.diag(np.linspace(-1.0, 0.0, d)))],
            }[family]


def _flagged(family, code, d, n):
    # a sample that the fit flags in ne, or None where the estimator flags
    # none (a degenerate sample fails the whole stack instead)
    e1 = np.eye(d)[0]
    if (family, code) == ("vmf", "st2"):  # on one line: I - S is singular
        return np.array([e1, e1, -e1] * n)[:n]
    if (family, code) in (("watson", "mla"), ("fb", "st")):
        return np.tile(e1, (n, 1))  # no mass off the axis; M' singular
    if (family, code) == ("watson", "st") and d == 3:
        return np.tile(watson_st_ne_points(), (n // 5, 1))
    return None


def _slice(fit, k):
    # slice k of a stack fit, as the fit of a stack of one
    def cut(value):
        if isinstance(value, dict):
            return {key: cut(v) for key, v in value.items()}
        return value[k:k + 1] if isinstance(value, np.ndarray) else value
    return dataclasses.replace(fit, **{f.name: cut(getattr(fit, f.name))
                                       for f in dataclasses.fields(fit)})


@pytest.mark.parametrize("d", [3, 20])
@pytest.mark.parametrize("family,code", sorted(families.ESTIMATORS))
def test_fit_one_equals_slice_of_stack_fit(family, code, d):
    n = 60 if d == 3 else 400  # FB at d = 20 has 229 unknowns
    stack = np.concatenate([
        families.SAMPLERS[family](p, n, 80 + d, range(3 * i, 3 * i + 3))
        for i, p in enumerate(_params(family, d))])
    flagged = _flagged(family, code, d, n)
    if flagged is not None:
        stack[1] = flagged
    fit = families.ESTIMATORS[family, code](stack)
    fam = families.FAMILIES[family]
    np.testing.assert_array_equal(fit.ne, np.arange(len(stack)) == (
        1 if flagged is not None else -1))
    for k, x in enumerate(stack):
        one = _slice(fit, k)
        if fit.ne[k]:
            expected = fam.outcome(one)
            with pytest.raises(type(expected)) as err:
                families.fit_one(family, code, x)
            assert str(err.value) == str(expected)
            continue
        report = families.fit_one(family, code, x)
        assert report == fam.report(one)
        assert report["mu"] == fit.mu_hat[k].tolist()
        assert "warnings" in report


def test_estimator_code_reads_every_code_and_fit_one_through_it():
    # one reader for configs, fit --estimator and fit_one: case-blind, and
    # a ValueError for a code that names no estimator (fit_one raised a
    # bare KeyError) or is not a string
    x = families.SAMPLERS["vmf"](VmfParams(np.eye(3)[2], 5.0), 50, 0)[0]
    assert families.estimator_code("watson", "MLa") == "mla"
    assert families.fit_one("vmf", "ST", x) == families.fit_one("vmf", "st", x)
    for family, code, message in [
            ("vmf", "nope", "no estimator 'nope' for family 'vmf'"),
            ("fb", "ML", "no estimator 'ml' for family 'fb'"),
            ("cauchy", "st", "no estimator 'st' for family 'cauchy'"),
            (["vmf"], "st", "no estimator 'st' for family ['vmf']"),
            ("vmf", 1, "estimator names must be strings"),
            ("vmf", None, "estimator names must be strings")]:
        for read in (families.estimator_code, lambda f, c: families.fit_one(f, c, x)):
            with pytest.raises(ValueError) as err:
                read(family, code)
            assert str(err.value) == message
    # a zero resultant is an invalid sample, refused as a ValueError too
    assert issubclass(DegenerateMean, ValueError)
    with pytest.raises(ValueError, match="resultant length is zero"):
        families.fit_one("vmf", "st", np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
