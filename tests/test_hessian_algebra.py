"""Pointwise k-Hessian algebra against independent oracles.

Oracles used here: direct subset enumeration for sigma_k, eigendecomposition
for the minor sums, joint-perturbation central differences and the power
series (``conftest.partials_polynomial_loop``) for the gradient matrices, and
literal evaluation of both sides of the shifted-trace identity.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from polyhess import (
    as_symmetric,
    newton_flux,
    shifted_trace_identity,
    sigma_k,
    sk_of_entries,
    sk_of_matrix,
    sk_of_stack,
    sk_partials,
    sk_partials_stack,
)
from polyhess.grid import (
    BoxDomain, ScalarField, bump_field, hessian_entries, integrate, random_smooth_field, unit_box,
)
from polyhess.hessian_algebra import entry_pairs, entry_table, stack_of_entries
from polyhess.verify import (
    divergence_values,
    eigen_oracle_error,
    fd_partials_error,
    homogeneity_error,
    shifted_trace_error,
    symmetric_fd_partials,
)

from conftest import partials_polynomial_loop


def brute_sigma_k(values, k):
    """Independent oracle: literal sum over k-subsets of eigenvalue products."""
    vals = list(values)
    if k == 0:
        return 1.0
    return sum(math.prod(c) for c in itertools.combinations(vals, k))


def random_sym(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def test_sigma_k_examples():
    assert sigma_k((1, 2, 3), 2) == pytest.approx(11.0)
    assert sigma_k((5, -3, 0.2, 7), 0) == 1.0
    assert sigma_k(np.ones(4), 2) == pytest.approx(6.0)


def test_sigma_k_matches_subset_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        lam = rng.standard_normal(n)
        for k in range(0, n + 1):
            expect = brute_sigma_k(lam, k)
            assert sigma_k(lam, k) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_sigma_k_permutation_invariance():
    rng = np.random.default_rng(11)
    lam = rng.standard_normal(6)
    for k in range(0, 7):
        base = sigma_k(lam, k)
        for _ in range(10):
            assert sigma_k(rng.permutation(lam), k) == base


def test_sigma_k_along_last_axis():
    rng = np.random.default_rng(21)
    lam = rng.standard_normal((4, 3, 5))
    for k in range(0, 6):
        vals = sigma_k(lam, k)
        assert vals.shape == (4, 3)
        assert all(vals[idx] == sigma_k(lam[idx], k) for idx in np.ndindex(4, 3))
    assert isinstance(sigma_k(lam[0, 0], 2), float)


def test_sigma_k_range_errors():
    with pytest.raises(ValueError):
        sigma_k((1.0, 2.0), 3)
    with pytest.raises(ValueError):
        sigma_k((1.0, 2.0), -1)


def test_sk_of_matrix_examples():
    assert sk_of_matrix(np.eye(3), 2) == pytest.approx(3.0)
    assert sk_of_matrix(np.diag([1.0, 2.0, 3.0]), 3) == pytest.approx(6.0)
    assert sk_of_matrix(np.diag([1.0, 2.0, 3.0]), 0) == 1.0


def test_sk_of_matrix_eigen_oracle():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = random_sym(rng, n)
        eig = np.linalg.eigvalsh(a)
        for k in range(0, n + 1):
            ref = sigma_k(eig, k)
            assert abs(sk_of_matrix(a, k) - ref) <= 1e-10 * max(abs(ref), 1.0)


def test_symmetry_and_dimension_validation():
    with pytest.raises(ValueError):
        as_symmetric(np.arange(4.0).reshape(2, 2))
    with pytest.raises(ValueError):
        as_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_symmetric(np.zeros(3))
    with pytest.raises(ValueError):
        sk_of_matrix(np.eye(9), 1)  # dimension cap
    # a stack is checked matrix by matrix, each against its own scale
    big, small = 1e6 * np.eye(3), np.eye(3)
    big[0, 1] = small[0, 1] = 1.0  # asymmetry 1e-6 and 1 of their own scales
    assert as_symmetric(np.stack([big, np.eye(3)]), tol=1e-5).shape == (2, 3, 3)
    with pytest.raises(ValueError):
        as_symmetric(np.stack([1e6 * np.eye(3), small]), tol=1e-5)
    # the single-matrix front ends take exactly one matrix
    for front in (sk_of_matrix, sk_partials):
        with pytest.raises(ValueError):
            front(np.stack([np.eye(3)] * 2), 1)


def test_sk_partials_examples():
    a = random_sym(np.random.default_rng(13), 4)
    assert np.allclose(sk_partials(a, 1), np.eye(4))
    d = np.diag([3.0, 7.0])
    assert np.allclose(sk_partials(d, 2), np.diag([7.0, 3.0]))


def test_sk_partials_fd_oracle():
    rng = np.random.default_rng(14)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        a = random_sym(rng, n)
        k = int(rng.integers(1, n + 1))
        fd = symmetric_fd_partials(a, k)
        assert np.max(np.abs(sk_partials(a, k) - fd)) < 1e-7


def test_sk_partials_euler_homogeneity():
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = random_sym(rng, n)
        k = int(rng.integers(1, n + 1))
        lhs = float(np.sum(a * sk_partials(a, k)))
        rhs = k * sk_of_matrix(a, k)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_stack_versions_match_scalar():
    rng = np.random.default_rng(16)
    for n in (2, 3, 4):
        stack = np.stack([random_sym(rng, n) for _ in range(20)])
        for k in range(1, n + 1):
            svals = sk_of_stack(stack, k)
            pvals = sk_partials_stack(stack, k)
            for i in range(20):
                assert svals[i] == pytest.approx(sk_of_matrix(stack[i], k),
                                                 rel=1e-12, abs=1e-12)
                assert np.allclose(pvals[i], sk_partials(stack[i], k),
                                   rtol=1e-11, atol=1e-11)


def test_sk2_stack_bitwise_equals_scalar():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        stack = np.stack([random_sym(rng, n) for _ in range(50)])
        svals = sk_of_stack(stack, 2)
        assert np.array_equal(svals, [sk_of_matrix(m, 2) for m in stack])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stack_kernels_bitwise_equal_single_matrix(n):
    """Every matrix of a stack gets the bits it gets alone: sigma_k for every
    k, the gradient matrices, the shifted-trace sides and the FD oracle."""
    rng = np.random.default_rng(22)
    a = rng.standard_normal((12, 10, n, n))
    stack = 0.5 * (a + np.swapaxes(a, -1, -2))
    mus = rng.uniform(-2.0, 2.0, (12, 10))
    for k in range(0, n + 1):
        vals = sk_of_stack(stack, k)
        parts = sk_partials_stack(stack, k) if k else None
        lhs, rhs = shifted_trace_identity(stack, mus, k)
        fd = symmetric_fd_partials(stack[:2], k) if k else None
        for idx in np.ndindex(12, 10):
            assert vals[idx] == sk_of_matrix(stack[idx], k)
            assert (lhs[idx], rhs[idx]) == shifted_trace_identity(stack[idx], mus[idx], k)
            if k:
                assert np.array_equal(parts[idx], sk_partials(stack[idx], k))
                if idx[0] < 2:
                    assert np.array_equal(fd[idx], symmetric_fd_partials(stack[idx], k))


def _eigen_oracle_loop(rng, count):
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 7))
        a = random_sym(rng, n)
        eig = np.linalg.eigvalsh(a)
        for k in range(0, n + 1):
            ref = sigma_k(eig, k)
            worst = max(worst, abs(sk_of_matrix(a, k) - ref) / max(abs(ref), 1.0))
    return worst


def _shifted_trace_loop(rng, count):
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 7))
        a = random_sym(rng, n)
        mu = float(rng.uniform(-2.0, 2.0))
        k = int(rng.integers(1, n + 1))
        lhs, rhs = shifted_trace_identity(a, mu, k)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst


def _fd_partials_loop(rng, count):
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 5))
        a = random_sym(rng, n)
        k = int(rng.integers(1, n + 1))
        fd = symmetric_fd_partials(a, k)
        worst = max(worst, float(np.max(np.abs(sk_partials(a, k) - fd))))
    return worst


def _homogeneity_loop(rng, count):
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 7))
        a = random_sym(rng, n)
        k = int(rng.integers(1, n + 1))
        lhs = float(np.sum(a * sk_partials(a, k)))
        rhs = k * sk_of_matrix(a, k)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return worst


@pytest.mark.parametrize("check, loop", [
    (eigen_oracle_error, _eigen_oracle_loop),
    (shifted_trace_error, _shifted_trace_loop),
    (fd_partials_error, _fd_partials_loop),
    (homogeneity_error, _homogeneity_loop),
], ids=["eigen", "shifted", "fd", "homogeneity"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batched_checks_equal_per_matrix_loops(check, loop, seed):
    """Each verify check, evaluated per (side, k) stack, returns the worst
    error of the per-matrix loop bit for bit, and leaves the generator in
    the same state."""
    rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    assert check(rng, 40) == loop(rng_loop, 40)
    assert rng.random() == rng_loop.random()


@pytest.mark.parametrize("orders", [(2, 3), (3, 2)])
def test_divergence_values_share_each_rung_bitwise(orders):
    """Each order's values from one shared slab-wise pass are those of the
    whole-array kernel on that order's own bump."""
    node_counts = (12, 16, 20)
    values, spacings = divergence_values(3, orders, node_counts)
    assert spacings == [1.0 / (n + 1) for n in node_counts]
    for k in orders:
        bumps = [bump_field(unit_box(3, n), (0.5,) * 3, 0.45, 1.0, k) for n in node_counts]
        assert values[k] == [abs(integrate(ScalarField(psi.domain,
                                                       sk_of_entries(hessian_entries(psi), k))))
                             for psi in bumps]


def test_divergence_values_peak_memory_in_full_planes():
    """A 3-D rung never holds the full Hessian entry stack: its traced peak,
    bump construction included, stays within 5 full planes (the whole-array
    pass took 10)."""
    n = 64
    tracemalloc.start()
    try:
        divergence_values(3, (2, 3), (n,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * n ** 3


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sk_of_stack_gathered_blocks_eigen_oracle(n):
    rng = np.random.default_rng(19)
    a = rng.standard_normal((4, 5, n, n))
    stack = 0.5 * (a + np.swapaxes(a, -1, -2))
    eig = np.linalg.eigvalsh(stack)
    for k in range(3, n + 1):
        vals = sk_of_stack(stack, k)
        assert vals.shape == (4, 5)
        for idx in np.ndindex(4, 5):
            ref = sigma_k(eig[idx], k)
            assert abs(vals[idx] - ref) <= 1e-10 * max(abs(ref), 1.0)



@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("batch", [(40,), (16, 12), (6, 5, 7)])
def test_sk_partials_stack_closed_form_bitwise(n, k, batch):
    """The Newton-tensor recursion equals the power series bit for bit for
    k <= 2, and for k = 3 within 4 eps max|A|^2 per matrix."""
    rng = np.random.default_rng(18)
    a = rng.standard_normal(batch + (n, n)) * 10.0 ** rng.uniform(-4, 4, batch + (n, n))
    stack = 0.5 * (a + np.swapaxes(a, -1, -2))
    got, want = sk_partials_stack(stack, k), partials_polynomial_loop(stack, k)
    if k <= 2:
        assert np.array_equal(got, want)
    else:
        bound = 4 * np.finfo(float).eps * np.max(np.abs(stack), axis=(-2, -1)) ** 2
        assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= bound)
    assert np.array_equal(sk_of_stack(stack, 1), np.trace(stack, axis1=-2, axis2=-1))


@pytest.mark.parametrize("nodes, k", [((40, 33), 2), ((15, 12, 13), 2), ((15, 12, 13), 3)])
def test_newton_flux_of_identity_is_its_unit_vector_columns_bitwise(nodes, k):
    """One call on the identity gives, bit for bit, the stack of the calls on
    each unit vector: the strong Jacobian's tensor keeps its bits."""
    dim = len(nodes)
    u = random_smooth_field(BoxDomain(nodes=nodes), np.random.default_rng(34), modes=4,
                            amplitude=2.0)
    ents = hessian_entries(u)
    eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
    columns = np.stack([newton_flux(e, ents, k) for e in eye], axis=1)
    assert newton_flux(eye, ents, k).tobytes() == columns.tobytes()


def test_sk_partials_stack_first_order_is_an_owned_identity():
    stack = np.random.default_rng(35).standard_normal((4, 3, 3))
    parts = sk_partials_stack(stack, 1)
    assert parts.flags.writeable and parts.flags.c_contiguous
    assert not np.shares_memory(parts, stack)
    assert np.array_equal(parts, np.broadcast_to(np.eye(3), (4, 3, 3)))

def test_shifted_trace_examples():
    for mu in (-1.3, 0.4, 2.0):
        lhs, rhs = shifted_trace_identity(np.eye(2), mu, 2)
        assert lhs == pytest.approx((1 - mu) ** 2)
        assert rhs == pytest.approx((1 - mu) ** 2)
    n, k, mu = 5, 3, 0.7
    lhs, rhs = shifted_trace_identity(np.zeros((n, n)), mu, k)
    expect = math.comb(n, k) * (-mu) ** k
    assert lhs == pytest.approx(expect)
    assert rhs == pytest.approx(expect)


def test_shifted_trace_random():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = random_sym(rng, 5)
        mu = float(rng.uniform(-2, 2))
        k = int(rng.integers(1, 6))
        lhs, rhs = shifted_trace_identity(a, mu, k)
        assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs))


def _sk_of_stack_as_first_written(m, k):
    """The sigma_k kernel on node-major stacks, before it read entries."""
    n = m.shape[-1]
    batch = m.shape[:-2]
    if k == 0:
        return np.ones(batch)
    if k == 1:
        total = m[..., 0, 0].copy()
        for i in range(1, n):
            total += m[..., i, i]
        return total
    if k == 2:
        total = np.zeros(batch)
        for i, j in itertools.combinations(range(n), 2):
            total += m[..., i, i] * m[..., j, j] - m[..., i, j] * m[..., j, i]
        return total
    if k == 3:  # the cofactor expansion of each principal block, subset by subset
        total = np.zeros(batch)
        for i, j, l in itertools.combinations(range(n), 3):
            a, b, c = m[..., i, i], m[..., i, j], m[..., i, l]
            d, e, f = m[..., j, j], m[..., j, l], m[..., l, l]
            total += a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
        return total
    idx = np.array(list(itertools.combinations(range(n), k)))
    blocks = m[..., idx[:, :, None], idx[:, None, :]]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.linalg.det(blocks).sum(axis=-1)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("batch", [(40,), (9, 8, 7)])
def test_sk_of_entries_bitwise_equals_stack_kernel(n, batch):
    """sigma_k from component-first entries, for every k <= n, equals the
    stack kernel on the expanded stack bit for bit, and so does the
    ``sk_of_stack`` front end."""
    rng = np.random.default_rng(20)
    count = n * (n + 1) // 2
    ents = rng.standard_normal((count,) + batch) * 10.0 ** rng.uniform(-4, 4, (count,) + batch)
    stack = stack_of_entries(ents)
    assert stack.shape == batch + (n, n) and stack.flags["C_CONTIGUOUS"]
    assert np.array_equal(stack, np.swapaxes(stack, -1, -2))
    for k in range(0, n + 1):
        ref = _sk_of_stack_as_first_written(stack, k)
        assert np.array_equal(sk_of_entries(ents, k), ref)
        assert np.array_equal(sk_of_entries(list(ents), k), ref)
        assert np.array_equal(sk_of_stack(stack, k), ref)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sigma3_within_rounding_bound_of_exact(n):
    """sigma_3 of badly scaled matrices against exact rational arithmetic.

    Each 3 x 3 minor a(df - e^2) - b(bf - ce) + c(be - cd) rounds every
    monomial at most 5 times, and summing the C(N, 3) minors adds at most
    C(N, 3) more, so the error is at most gamma_{5 + C(N, 3)} times the sum
    over the blocks of their permanents of absolute values; eps (twice the
    unit roundoff) makes the bound below a safe upper bound on gamma.
    """
    rng = np.random.default_rng(23)
    count, samples = n * (n + 1) // 2, 64
    ents = rng.standard_normal((count, samples)) * 10.0 ** rng.uniform(-4, 4, (count, samples))
    vals = sk_of_entries(ents, 3)
    table = entry_table(n)
    signs = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    bound_factor = (5 + math.comb(n, 3)) * Fraction(np.finfo(float).eps)
    for col in range(samples):
        exact = perm_sum = Fraction(0)
        for sub in itertools.combinations(range(n), 3):
            block = [[Fraction(ents[table[p, q], col]) for q in sub] for p in sub]
            for p, sign in signs.items():
                term = block[0][p[0]] * block[1][p[1]] * block[2][p[2]]
                exact += sign * term
                perm_sum += abs(term)
        assert abs(Fraction(vals[col]) - exact) <= bound_factor * perm_sum


def test_entry_order_and_table():
    assert entry_pairs(3) == ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    table = entry_table(3)
    assert table.tolist() == [[0, 3, 4], [3, 1, 5], [4, 5, 2]]
    assert not table.flags.writeable  # cached, so shared by every caller
    for count in (0, 2, 4, 5, 7):
        with pytest.raises(ValueError):
            sk_of_entries(np.zeros((count, 3)), 1)
    with pytest.raises(ValueError):
        sk_of_entries(np.zeros((6, 3)), 4)
