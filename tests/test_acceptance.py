"""Acceptance suite: every release criterion with its pinned tolerance.

Each test prints one PASS/FAIL line (visible under pytest -s or in the
failure report).  Tolerances follow the reference tables: comparisons are
always against max(stated tolerance, 4 Monte Carlo standard errors), and
the replication counts are the desk-scale defaults (2000 instead of the
full-scale 10000, standard errors sqrt(5) larger).
"""

import math
import time

import numpy as np

from spherestein.est_fb import fb_statistics, v_statistic
from spherestein.est_vmf import (
    fisher_information_vmf,
    kappa_mle,
    kappa_score_matching,
    kappa_stein,
    kappa_stein2,
    stein_asymptotic_variance_vmf,
)
from spherestein.est_watson import _j_statistic, prepare_sample, watson_mla_bounds
from spherestein.families import fit_one
from spherestein.linalg import vech_prime
from spherestein.harness import SimConfig, run_simulation
from spherestein.models import FisherBinghamParams, VmfParams, WatsonParams
from spherestein.sampler import sample_fb, sample_vmf, sample_watson
from spherestein.special import bessel_ratio, log_kummer_1f1

from oracles import (
    bessel_i,
    bessel_i_half,
    bessel_i_three_halves,
    canonical_f1,
    canonical_f2,
    commutation_matrix,
    delta_method_variance_vmf,
    duplication_matrix,
    fb_statistics_generic,
    grad_f2_by_hand_d3,
    lower_pairs,
    random_unit_rows,
    ratio_d3,
    series_1f1,
    sin_projection,
    stein_operator_apply,
    vec,
    vech,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _mu_ones(d):
    return np.ones(d) / math.sqrt(d)


# 1. vMF reference rows ------------------------------------------------------

TABLE_VMF = {
    (3, 1.0): {"ml": (0.044, 0.039), "sm": (0.046, 0.041), "st": (0.043, 0.041)},
    (3, 2.0): {"ml": (0.046, 0.063), "sm": (0.048, 0.070), "st": (0.043, 0.069)},
    (3, 10.0): {"ml": (0.219, 1.14), "sm": (0.211, 1.15), "st": (0.201, 1.15)},
    (10, 10.0): {"ml": (0.183, 0.412), "sm": (0.179, 0.414), "st": (0.173, 0.412)},
}


def test_criterion_1_vmf_table_rows():
    start = time.perf_counter()
    failures = []
    for (d, kappa), expected in TABLE_VMF.items():
        config = SimConfig(params=VmfParams(_mu_ones(d), kappa), n=100,
                           reps=2000, estimators=("st", "ml", "sm"), seed=3)
        result = run_simulation(config)
        for est, (paper_bias, paper_mse) in expected.items():
            cell = result.cells[est]["kappa"]
            for name, got, want, se in (
                ("bias", cell.bias, paper_bias, cell.bias_se),
                ("mse", cell.mse, paper_mse, cell.mse_se),
            ):
                stated = 0.01 if kappa <= 2 else 0.05 * abs(want)
                tol = max(stated, 4 * se)
                if abs(got - want) > tol:
                    failures.append(
                        f"d={d} k={kappa} {est} {name}: {got:.4f} vs "
                        f"{want} (tol {tol:.4f})"
                    )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(1, ok,
            f"vMF bias/MSE rows reproduced in {elapsed:.1f}s"
            + ("" if not failures else f"; failures: {failures}"))


# 2. Watson reference rows ---------------------------------------------------

TABLE_WATSON_10PCT = {
    (3, -10.0): {"mla": (-4.29, 23.6), "st": (-0.384, 2.52)},
    (3, 10.0): {"mla": (7.44, 59.1), "st": (0.067, 0.955)},
    (10, 20.0): {"mla": (13.8, 194.0), "st": (-0.087, 0.876)},
}
TABLE_WATSON_25PCT = {
    (20, -2.0): {"mla": (-15.3, 309.0), "st": (-12.7, 356.0)},
    (20, 5.0): {"mla": (-13.7, 393.0), "st": (-9.01, 297.0)},
}


def test_criterion_2_watson_table_rows():
    failures = []

    def check(table, rel, require_ne_zero):
        for (d, kappa), expected in table.items():
            config = SimConfig(params=WatsonParams(_mu_ones(d), kappa), n=100,
                               reps=2000, estimators=("st", "mla"), seed=3)
            result = run_simulation(config)
            for est, (paper_bias, paper_mse) in expected.items():
                cell = result.cells[est]["kappa"]
                if require_ne_zero and cell.ne != 0.0:
                    failures.append(f"d={d} k={kappa} {est}: ne={cell.ne}")
                for name, got, want, se in (
                    ("bias", cell.bias, paper_bias, cell.bias_se),
                    ("mse", cell.mse, paper_mse, cell.mse_se),
                ):
                    tol = max(rel * abs(want), 4 * se)
                    if abs(got - want) > tol:
                        failures.append(
                            f"d={d} k={kappa} {est} {name}: {got:.4f} vs "
                            f"{want} (tol {tol:.4f})"
                        )

    check(TABLE_WATSON_10PCT, 0.10, require_ne_zero=True)
    check(TABLE_WATSON_25PCT, 0.25, require_ne_zero=False)
    _report(2, not failures,
            "Watson bias/MSE rows reproduced"
            + ("" if not failures else f"; failures: {failures}"))


# 3. Fisher-Bingham spot check ----------------------------------------------

TABLE_FB = [
    ("fig2", np.array([5.0, 0, 0]), np.zeros((3, 3)), 0.611, 0.545),
    ("fig3", np.array([0.5, 0, 0]), np.zeros((3, 3)), 0.092, 0.191),
    ("fig6", np.array([0.0, 3, 3]),
     np.array([[0.0, 0, 0], [0, 0, -3.0], [0, -3.0, 0]]), 0.257, 0.324),
]


def test_criterion_3_fb_spot_check():
    failures = []
    for label, mu0, a0, want_mu, want_a in TABLE_FB:
        config = SimConfig(params=FisherBinghamParams(mu0, a0), n=1000,
                           reps=200, estimators=("st",), seed=11)
        result = run_simulation(config)
        cell_mu, cell_a = result.cells["st"]["mu"], result.cells["st"]["A"]
        if cell_mu.ne != 0.0:
            failures.append(f"{label}: ne={cell_mu.ne}")
        # the reference tables report the mean parameter distance (the
        # mse_alt reading); both readings are emitted by the harness
        for name, got, want, se in (
            ("mu", cell_mu.mse_alt, want_mu, cell_mu.mse_alt_se),
            ("A", cell_a.mse_alt, want_a, cell_a.mse_alt_se),
        ):
            tol = max(0.30 * want, 4 * se)
            if abs(got - want) > tol:
                failures.append(f"{label} {name}: {got:.4f} vs {want}")
    _report(3, not failures,
            "FB mean parameter distances within 30%"
            + ("" if not failures else f"; failures: {failures}"))


# 4. asymptotic variance ------------------------------------------------------

def test_criterion_4_variance():
    d, kappa, n, reps = 3, 2.0, 2000, 2000
    params = VmfParams(_mu_ones(d), kappa)
    estimates = np.empty(reps)
    for rep in range(reps):
        x = sample_vmf(params, n, 17, [rep])
        estimates[rep] = kappa_stein(x).kappa_hat[0]
    empirical = n * estimates.var(ddof=1)
    expected = stein_asymptotic_variance_vmf(d, kappa)
    var_ok = abs(empirical - expected) <= 0.10 * expected

    worst = 0.0
    for dd in (2, 3, 5, 10, 20):
        for kk in (0.5, 1.0, 2.0, 10.0, 50.0):
            closed = stein_asymptotic_variance_vmf(dd, kk)
            assembled = delta_method_variance_vmf(VmfParams(_mu_ones(dd), kk))
            worst = max(worst, abs(assembled - closed) / abs(closed))
    grid_ok = worst <= 1e-8
    _report(4, var_ok and grid_ok,
            f"empirical n*Var = {empirical:.3f} vs P = {expected:.3f} "
            f"(within 10%: {var_ok}); delta-method grid max rel err "
            f"{worst:.2e} (<= 1e-8: {grid_ok})")


# 5. Stein identity suite -----------------------------------------------------

def _operator_values_vectorized(params, x, which, w=None):
    """Per-point operator values for the canonical pair and the generic
    sin(w'x) function, fully vectorized."""
    n, d = x.shape
    if isinstance(params, FisherBinghamParams):
        s = params.mu[None, :] + 2.0 * x @ params.A
    elif isinstance(params, VmfParams):
        s = np.broadcast_to(params.kappa * params.mu, (n, d))
    else:
        s = 2.0 * params.kappa * (x @ params.mu)[:, None] * params.mu[None, :]
    t_s = np.einsum("ni,ni->n", x, s)
    if which == "f1":
        return (1.0 - d) * x + s - x * t_s[:, None]
    if which == "f2":
        pairs = lower_pairs(d)[:-1]
        cols = []
        for (i, j) in pairs:
            val = (
                x[:, j] * s[:, i] + x[:, i] * s[:, j]
                - 2.0 * x[:, i] * x[:, j] * t_s
                - 2.0 * d * x[:, i] * x[:, j]
                + (2.0 if i == j else 0.0)
            )
            cols.append(val)
        return np.column_stack(cols)
    u = x @ w
    w_s = s @ w
    w2 = float(w @ w)
    vals = (
        (1.0 - d) * np.cos(u) * u
        + np.sin(u) * u * u
        - np.sin(u) * w2
        + np.cos(u) * (w_s - u * t_s)
    )
    return vals[:, None]


def test_criterion_5_stein_identity_suite():
    n = 100_000
    w = np.array([1.0, -0.5, 2.0])
    cases = [
        (VmfParams(_mu_ones(3), 2.0), sample_vmf, 70),
        (WatsonParams(_mu_ones(3), -10.0), sample_watson, 71),
        (FisherBinghamParams(np.array([0.0, 3, 3]),
                             np.array([[0.0, 0, 0], [0, 0, -3.0], [0, -3.0, 0]])),
         sample_fb, 72),
    ]
    failures = []
    for params, draw, seed in cases:
        x = draw(params, n, seed)[0]
        d = x.shape[1]
        functions = [("f1", canonical_f1(d)), ("f2", canonical_f2(d)),
                     ("sin", sin_projection(w))]
        for which, f in functions:
            values = _operator_values_vectorized(params, x, which, w=w)
            # dual route: the vectorized values match the per-point operator
            subsample = np.array(
                [stein_operator_apply(params, f, row) for row in x[:200]]
            )
            if not np.allclose(values[:200], subsample, atol=1e-10):
                failures.append(f"{type(params).__name__} {which}: "
                                "vectorized path disagrees with the operator")
                continue
            mean = values.mean(axis=0)
            se = values.std(axis=0, ddof=1) / math.sqrt(n)
            if not np.all(np.abs(mean) <= 4 * se + 1e-12):
                worst = float(np.max(np.abs(mean) / (se + 1e-300)))
                failures.append(f"{type(params).__name__} {which}: "
                                f"|mean|/se up to {worst:.2f}")
    _report(5, not failures,
            "empirical Stein identity within 4 SE for all families and "
            "test functions" + ("" if not failures else f"; {failures}"))


# 6. hand-oracle fixtures -----------------------------------------------------

def test_criterion_6_hand_oracles():
    e = np.eye(3)
    fixture = np.array([e[0], e[0], e[1]])
    checks = [
        ("kappa ST", fit_one("vmf", "st", fixture)["kappa"], 1.5 * math.sqrt(5)),
        ("kappa ST2", fit_one("vmf", "st2", fixture)["kappa"], math.sqrt(17)),
        ("kappa SM", fit_one("vmf", "sm", fixture)["kappa"],
         5.0 * math.sqrt(5) / 3.0),
        ("MLa midpoint", fit_one("watson", "mla", fixture)["kappa"], 4.125),
        ("MLa L(2/3)", watson_mla_bounds(2 / 3, 3)[0], 3.0),
        ("MLa U(2/3)", watson_mla_bounds(2 / 3, 3)[1], 5.25),
        ("MLa L(0.8)", watson_mla_bounds(0.8, 3)[0], 5.25),
        ("MLa U(0.8)", watson_mla_bounds(0.8, 3)[1], 11.375),
        ("MLa L(0.2)", watson_mla_bounds(0.2, 3)[0], -2.25),
        ("MLa U(0.2)", watson_mla_bounds(0.2, 3)[1], -1.75),
        ("I_1/2(1)", bessel_i(0.5, 1.0), bessel_i_half(1.0)),
        ("I_3/2(1)", bessel_i(1.5, 1.0), bessel_i_three_halves(1.0)),
        ("ratio d3 k2", bessel_ratio(3, 2.0), ratio_d3(2.0)),
        ("1F1(.5;1.5;1)", math.exp(log_kummer_1f1(0.5, 1.5, 1.0)),
         series_1f1(0.5, 1.5, 1.0)),
        ("1F1(.5;1.5;-1)", math.exp(log_kummer_1f1(0.5, 1.5, -1.0)),
         0.5 * math.sqrt(math.pi) * math.erf(1.0)),
        ("1F1(.5;1.5;-4)", math.exp(log_kummer_1f1(0.5, 1.5, -4.0)),
         math.exp(-4.0) * series_1f1(1.0, 1.5, 4.0)),
    ]
    failures = [
        f"{name}: {got!r} vs {want!r}"
        for name, got, want in checks
        if abs(got - want) > 1e-9 * max(1.0, abs(want))
    ]
    _report(6, not failures,
            f"{len(checks)} hand-oracle fixtures at 1e-9"
            + ("" if not failures else f"; failures: {failures}"))


# 7. structural invariants ----------------------------------------------------

def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(73)
    failures = []

    # ordering pin for the quadratic test function at d = 3
    f2 = canonical_f2(3)
    x0 = random_unit_rows(rng, 1, 3)[0]
    if not np.allclose(f2.jacobian(x0), grad_f2_by_hand_d3(x0), atol=1e-14):
        failures.append("jacobian ordering pin")

    fitters = (kappa_stein, kappa_stein2, kappa_mle, kappa_score_matching)
    for trial in range(1000):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(4, 13))
        x = random_unit_rows(rng, n, d)

        s = rng.standard_normal((d, d))
        s = s + s.T
        if np.max(np.abs(duplication_matrix(d) @ vech(s) - vec(s))) > 1e-12:
            failures.append(f"duplication identity (trial {trial})")
            break
        # the package's vech' order: D without its (d, d) column on s with
        # the pinned entry zeroed
        s[d - 1, d - 1] = 0.0
        if np.max(np.abs(duplication_matrix(d)[:, :-1] @ vech_prime(s) - vec(s))) > 1e-12:
            failures.append(f"duplication identity on vech' (trial {trial})")
            break
        kmat = commutation_matrix(d)
        m = rng.standard_normal((d, d))
        if np.max(np.abs(kmat @ vec(m) - vec(m.T))) > 1e-12 or np.max(
            np.abs(kmat @ kmat - np.eye(d * d))
        ) > 1e-12:
            failures.append(f"commutation identity (trial {trial})")
            break

        fast, slow = fb_statistics(x[None]), fb_statistics_generic(x)
        blocks = ("m_prime", "d_vec", "e_mat", "g_prime", "h_vec", "l_mat")
        if any(
            np.max(np.abs(getattr(fast, b)[0] - getattr(slow, b))) > 1e-12
            for b in blocks
        ):
            failures.append(f"fb statistics paths (trial {trial})")
            break
        w_stats, w_stats_flip = _watson_statistics(x), _watson_statistics(-x)
        if np.max(np.abs(w_stats[0] - slow.d_vec)) > 1e-12:
            failures.append(f"watson V closed form (trial {trial})")
            break

        if not all(np.array_equal(a, b) for a, b in zip(w_stats, w_stats_flip)):
            failures.append(f"watson axis symmetry (trial {trial})")
            break

        if trial % 4 == 0:  # rotation invariance, value level
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            for fit_fn in fitters:
                base = fit_fn(x[None]).kappa_hat[0]
                rotated = fit_fn((x @ q.T)[None]).kappa_hat[0]
                if abs(rotated - base) > 1e-9 * max(1.0, abs(base)):
                    failures.append(f"rotation invariance {fit_fn.__name__}")
                    break
            if failures:
                break
    _report(7, not failures,
            "structural invariants over 1000 random instances"
            + ("" if not failures else f"; failures: {failures}"))


def _watson_statistics(x):
    # V and the (+) and (-) J vectors of one sample, as a stack of one
    s = prepare_sample(x[None])
    return (v_statistic(s.scatter)[0],
            *(_j_statistic(s.x, s.axes[b])[0] for b in ("+", "-")))


# 8. efficiency ordering ------------------------------------------------------

def test_criterion_8_efficiency_ordering():
    failures = []
    for d in (2, 3, 5, 10, 20):
        for kappa in (0.5, 1.0, 2.0, 10.0, 50.0):
            p_var = stein_asymptotic_variance_vmf(d, kappa)
            bound = 1.0 / fisher_information_vmf(d, kappa)
            if p_var < bound - 1e-10 * bound:
                failures.append(f"d={d} kappa={kappa}: P={p_var} < {bound}")
    _report(8, not failures,
            "P >= 1/I on the full grid"
            + ("" if not failures else f"; failures: {failures}"))
