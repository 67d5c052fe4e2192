import numpy as np
import pytest

from spherestein.linalg import (
    SingularSystem,
    commutation_matrix,
    duplication_matrix,
    fix_sign,
    kron,
    lower_pairs,
    rotation_to_e1,
    solve_linear,
    spectral_norm,
    sym_eigen,
    unvech_prime,
    vec,
    vech,
    vech_prime,
)

from oracles import rank_by_row_reduction, random_unit_rows


def test_vec_examples():
    np.testing.assert_array_equal(vec([[1, 2], [3, 4]]), [1, 3, 2, 4])
    np.testing.assert_array_equal(vec(np.eye(2)), [1, 0, 0, 1])
    np.testing.assert_array_equal(vec(np.zeros((2, 3))), np.zeros(6))


def test_vech_examples():
    np.testing.assert_array_equal(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])
    np.testing.assert_array_equal(vech([[1, 2], [2, 3]]), [1, 2, 3])


def test_vech_rejects_asymmetry():
    with pytest.raises(ValueError):
        vech([[1, 2], [2.1, 3]])


def test_vech_prime_examples():
    np.testing.assert_array_equal(vech_prime(np.eye(3)), [1, 0, 0, 1, 0])
    a = np.array([[2, -2, 1], [-2, 12, -2], [1, -2, 0]], dtype=float)
    np.testing.assert_array_equal(vech_prime(a), [2, -2, 1, 12, -2])


def test_vech_prime_inverse_embed():
    a = np.array([[0, 0, 0], [0, 0, -3], [0, -3, 0]], dtype=float)
    np.testing.assert_array_equal(unvech_prime(vech_prime(a), 3), a)


def test_duplication_d2_rows():
    d = duplication_matrix(2)
    expected = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    np.testing.assert_array_equal(d, expected)


def test_duplication_on_identity():
    d = duplication_matrix(3)
    np.testing.assert_array_equal(d @ vech(np.eye(3)), vec(np.eye(3)))


def test_duplication_rank():
    assert rank_by_row_reduction(duplication_matrix(4)) == 10


def test_duplication_property_random():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        s = rng.standard_normal((d, d))
        s = s + s.T
        np.testing.assert_allclose(
            duplication_matrix(d) @ vech(s), vec(s), rtol=0, atol=1e-13
        )


def test_commutation_examples():
    np.testing.assert_array_equal(commutation_matrix(1), [[1.0]])
    k2 = commutation_matrix(2)
    np.testing.assert_array_equal(k2 @ np.array([1.0, 3, 2, 4]), [1, 2, 3, 4])
    k5 = commutation_matrix(5)
    np.testing.assert_allclose(k5 @ k5, np.eye(25), atol=1e-14)


def test_commutation_property_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        m = rng.standard_normal((d, d))
        kmat = commutation_matrix(d)
        np.testing.assert_allclose(kmat @ vec(m), vec(m.T), atol=1e-14)
        np.testing.assert_allclose(kmat @ kmat, np.eye(d * d), atol=1e-14)


def test_kron_examples():
    np.testing.assert_array_equal(kron(np.eye(2), [[5.0]]), np.diag([5.0, 5.0]))
    np.testing.assert_array_equal(
        kron(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])),
        np.array([[0.0], [1.0], [0.0], [0.0]]),
    )


def test_kron_mixed_product():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c, d = (rng.standard_normal((2, 2)) for _ in range(4))
        np.testing.assert_allclose(
            kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12
        )


def test_sym_eigen_diagonal():
    decomp = sym_eigen(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_array_equal(decomp.eigenvalues, [3.0, 2.0, 1.0])
    expected = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 2], np.eye(3)[:, 1]])
    np.testing.assert_allclose(decomp.eigenvectors, expected, atol=1e-14)


def test_sym_eigen_isotropic():
    decomp = sym_eigen(np.eye(4) / 4.0)
    np.testing.assert_allclose(decomp.eigenvalues, 0.25 * np.ones(4), atol=1e-14)


def test_sym_eigen_sign_convention_matches_fix_sign_bitwise():
    rng = np.random.default_rng(12)
    for d in (2, 3, 5, 10, 20):
        s = rng.standard_normal((d, d))
        s = s + s.T
        w, q = np.linalg.eigh(s)
        expected = np.column_stack([fix_sign(q[:, k]) for k in range(d - 1, -1, -1)])
        np.testing.assert_array_equal(sym_eigen(s).eigenvectors, expected)
        np.testing.assert_array_equal(sym_eigen(s).eigenvalues, w[::-1])


def test_sym_eigen_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = rng.standard_normal((5, 5))
        s = s + s.T
        decomp = sym_eigen(s)
        q, w = decomp.eigenvectors, decomp.eigenvalues
        assert np.all(np.diff(w) <= 1e-12)
        scale = max(1.0, np.linalg.norm(s))
        assert np.linalg.norm(q @ np.diag(w) @ q.T - s) <= 1e-10 * scale
        np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-10)
        for k in range(5):
            col = q[:, k]
            assert col[int(np.argmax(np.abs(col)))] >= 0


def test_spectral_norm():
    assert spectral_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0)
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.standard_normal((3, 3))
        expected = np.sqrt(np.max(np.linalg.eigvalsh(m.T @ m)))
        assert spectral_norm(m) == pytest.approx(expected, rel=1e-10)


def test_rotation_to_e1():
    np.testing.assert_array_equal(rotation_to_e1([1.0, 0.0, 0.0]), np.eye(3))
    np.testing.assert_allclose(
        rotation_to_e1([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14
    )
    rng = np.random.default_rng(9)
    e1 = np.eye(6)[0]
    for _ in range(200):
        u = random_unit_rows(rng, 1, 6)[0]
        r = rotation_to_e1(u)
        assert np.linalg.norm(r @ u - e1) <= 1e-12
        np.testing.assert_allclose(r.T @ r, np.eye(6), atol=1e-10)
        # hence e1'(R x) = u'x for every x
        np.testing.assert_allclose(r.T @ e1, u, atol=1e-12)


def test_rotation_rejects_non_unit():
    with pytest.raises(ValueError):
        rotation_to_e1([0.5, 0.5, 0.5])


def test_solve_linear():
    x, cond = solve_linear(np.eye(3), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(x, [1, 2, 3])
    assert cond == pytest.approx(1.0)

    x, _ = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0])

    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        x, cond = solve_linear(a, b)
        resid = np.linalg.norm(a @ x - b)
        bound = 1e-8 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
        assert resid <= bound
        assert np.isfinite(cond)


def test_solve_linear_singular():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystem):
        solve_linear(singular, np.ones(2), name="test system")


def test_lower_pairs_order():
    assert lower_pairs(3) == [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]
