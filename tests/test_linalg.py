import numpy as np
import pytest

from spherestein.linalg import (
    COND_LIMIT,
    fix_sign,
    lower_index,
    rotation_to_e1,
    solve_stack,
    sym_eigen,
    unvech_prime,
    vech_prime,
)

from oracles import (
    commutation_matrix,
    duplication_matrix,
    kron,
    lower_pairs,
    rank_by_row_reduction,
    random_unit_rows,
    vec,
    vech,
)


def test_vec_examples():
    np.testing.assert_array_equal(vec([[1, 2], [3, 4]]), [1, 3, 2, 4])
    np.testing.assert_array_equal(vec(np.eye(2)), [1, 0, 0, 1])
    np.testing.assert_array_equal(vec(np.zeros((2, 3))), np.zeros(6))


def test_vech_examples():
    np.testing.assert_array_equal(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])
    np.testing.assert_array_equal(vech([[1, 2], [2, 3]]), [1, 2, 3])


def test_vech_rejects_asymmetry():
    with pytest.raises(ValueError):
        vech_prime([[1, 2], [2.1, 3]])


def test_vech_prime_examples():
    np.testing.assert_array_equal(vech_prime(np.eye(3)), [1, 0, 0, 1, 0])
    a = np.array([[2, -2, 1], [-2, 12, -2], [1, -2, 0]], dtype=float)
    np.testing.assert_array_equal(vech_prime(a), [2, -2, 1, 12, -2])


def test_vech_prime_inverse_embed():
    a = np.array([[0, 0, 0], [0, 0, -3], [0, -3, 0]], dtype=float)
    np.testing.assert_array_equal(unvech_prime(vech_prime(a), 3), a)
    # a stack of vectors embeds row by row
    stack = np.stack([a, 2.0 * a, np.zeros((3, 3))])
    np.testing.assert_array_equal(unvech_prime(vech_prime(stack), 3), stack)
    with pytest.raises(ValueError):
        unvech_prime(np.zeros((2, 4)), 3)


def test_vech_prime_round_trip_with_pinned_entry():
    rng = np.random.default_rng(5)
    for d in range(1, 7):
        s = rng.standard_normal((4, d, d))
        s = s + s.swapaxes(1, 2)
        s[:, d - 1, d - 1] = 0.0
        np.testing.assert_array_equal(unvech_prime(vech_prime(s), d), s)


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
        # the package's vech' order: D without its (d, d) column, on s with
        # the pinned entry zeroed
        s[d - 1, d - 1] = 0.0
        np.testing.assert_array_equal(duplication_matrix(d)[:, :-1] @ vech_prime(s), vec(s))


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
    # columns in the order of the eigenvalues 3, 2, 1
    expected = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 2], np.eye(3)[:, 1]])
    np.testing.assert_allclose(sym_eigen(np.diag([3.0, 1.0, 2.0])), expected, atol=1e-14)


def test_sym_eigen_isotropic():
    s = np.eye(4) / 4.0
    q = sym_eigen(s)
    np.testing.assert_allclose(q.T @ s @ q, s, atol=1e-14)
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-14)


def test_sym_eigen_sign_convention_matches_fix_sign_bitwise():
    rng = np.random.default_rng(12)
    for d in (2, 3, 5, 10, 20):
        s = rng.standard_normal((d, d))
        s = s + s.T
        q = np.linalg.eigh(s).eigenvectors
        expected = np.column_stack([fix_sign(q[:, k]) for k in range(d - 1, -1, -1)])
        np.testing.assert_array_equal(sym_eigen(s), expected)


def test_fix_sign_ties_and_columns():
    # the lowest index wins a tie; a matrix is fixed column by column
    np.testing.assert_array_equal(fix_sign(np.array([-1.0, 1.0])), [1.0, -1.0])
    m = np.array([[-1.0, 2.0], [1.0, -3.0]])
    np.testing.assert_array_equal(fix_sign(m), [[1.0, -2.0], [-1.0, 3.0]])
    # the Watson fits read r = mu'S mu off column views of a C-ordered array
    assert sym_eigen(np.diag([1.0, 2.0, 3.0])).flags.c_contiguous


@pytest.mark.parametrize("d", [3, 10, 20])
def test_batched_eigh_and_sym_eigen_equal_per_slice_bitwise(d):
    # a Watson block decomposes its scatter matrices in one batched call
    rng = np.random.default_rng(40 + d)
    x = rng.standard_normal((64, 2 * d, d))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    stack = np.matmul(x.transpose(0, 2, 1), x) / (2 * d)
    w, q = np.linalg.eigh(stack)
    vectors = sym_eigen(stack)
    assert vectors.shape == (64, d, d)
    for k, s in enumerate(stack):
        w_k, q_k = np.linalg.eigh(s)
        np.testing.assert_array_equal(w[k], w_k)
        np.testing.assert_array_equal(q[k], q_k)
        np.testing.assert_array_equal(vectors[k], sym_eigen(s))
        np.testing.assert_array_equal(fix_sign(q[k]), fix_sign(q)[k])


def test_stacked_symmetry_check_covers_every_slice():
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 0, 1] = 1e-3
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigen(stack)
    with pytest.raises(ValueError, match="square"):
        sym_eigen(np.zeros((2, 2, 3)))
    np.testing.assert_array_equal(vech_prime(stack[:2]), [vech_prime(np.eye(3))] * 2)


def test_sym_eigen_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = rng.standard_normal((5, 5))
        s = s + s.T
        q = sym_eigen(s)
        w = np.diag(q.T @ s @ q)  # the eigenvalues, as Rayleigh quotients
        assert np.all(np.diff(w) <= 1e-12)
        scale = max(1.0, np.linalg.norm(s))
        assert np.linalg.norm(q @ np.diag(w) @ q.T - s) <= 1e-10 * scale
        np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-10)
        for k in range(5):
            col = q[:, k]
            assert col[int(np.argmax(np.abs(col)))] >= 0


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


def test_solve_stack_one_system():
    x, cond, singular = solve_stack(np.eye(3)[None], np.array([[1.0, 2.0, 3.0]]))
    np.testing.assert_array_equal(x[0], [1, 2, 3])
    assert cond[0] == pytest.approx(1.0)
    assert not singular[0]

    x, _, _ = solve_stack(np.diag([2.0, 4.0])[None], np.array([[2.0, 4.0]]))
    np.testing.assert_allclose(x[0], [1.0, 1.0])

    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        x, cond, _ = solve_stack(a[None], b[None])
        x, cond = x[0], cond[0]
        resid = np.linalg.norm(a @ x - b)
        bound = 1e-8 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
        assert resid <= bound
        assert np.isfinite(cond)


def test_solve_stack_singular_system():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    x, cond, flags = solve_stack(singular[None], np.ones((1, 2)))
    assert flags[0] and not cond[0] <= COND_LIMIT
    assert np.isnan(x).all()


def test_solve_stack_slices_equal_single_solves_bitwise():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((6, 4, 4)) + 4.0 * np.eye(4)
    a[2] = [[1.0, 2.0, 0, 0], [2.0, 4.0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for b in (rng.standard_normal((6, 4)), rng.standard_normal((6, 4, 3))):
        x, cond, singular = solve_stack(a, b)
        np.testing.assert_array_equal(singular, [k == 2 for k in range(6)])
        assert np.isnan(x[2]).all()
        for k in (0, 1, 3, 4, 5):
            # each slice is numpy's own solve of that system on its own
            np.testing.assert_array_equal(x[k], np.linalg.solve(a[k], b[k]))
            assert cond[k] == np.linalg.cond(a[k], 1)


def test_lower_pairs_order():
    expected = [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]
    rows, cols = lower_index(3)
    assert list(zip(rows.tolist(), cols.tolist())) == expected[:-1]
    assert lower_pairs(3) == expected
    for d in (1, 2, 5, 9):
        rows, cols = lower_index(d)
        assert list(zip(rows.tolist(), cols.tolist())) == lower_pairs(d)[:-1]
        assert not rows.flags.writeable and not cols.flags.writeable


def test_lower_index_holds_the_vech_prime_pairs():
    for d in range(2, 7):
        rows, cols = lower_index(d)
        assert rows.shape == cols.shape == (d * (d + 1) // 2 - 1,)
        assert (d - 1, d - 1) not in zip(rows.tolist(), cols.tolist())
