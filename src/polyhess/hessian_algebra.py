"""Pointwise algebra of the k-Hessian nonlinearity.

Everything here acts on small dense symmetric matrices (the pointwise Hessian
of a scalar field), with the matrix side capped at ``MAX_DIM = 8``: the side
is the spatial dimension, never the grid size.

A symmetric N x N matrix has N(N+1)/2 unique entries.  The grid stores a
Hessian as those entries, component-first (one array per entry, in
``entry_pairs`` order: the diagonal first, then the pairs a < b in
``itertools.combinations`` order), because every sigma_k and the weak flux
read a few whole planes of it and a value on a ray combines it plane by
plane; a node-major (..., N, N) stack holds N^2 - N(N+1)/2 duplicates and
makes each of those reads strided.  ``stack_of_entries`` expands entries
into that stack.

There is one sigma_k kernel, ``sk_of_entries``, and one Newton-tensor
kernel, ``newton_flux``, both on the entries and batched over the node
axes; the solver calls both directly.  ``sk_of_stack`` and
``sk_partials_stack`` are their front ends for symmetric (..., N, N)
stacks (they read the upper triangle as views), and ``sk_of_matrix`` and
``sk_partials`` are the single-matrix front ends, which validate and
symmetrize the input first.  ``sigma_k`` of the eigenvalues is the
independent oracle the checks compare against.  All but the single-matrix
front ends accept leading batch axes, and give each matrix of a stack the
bits it gets alone.

Derivative convention for ``sk_partials``: the (i, j) entry is the derivative
of sigma_k with respect to entry a_ij treating entries as independent, which
for a symmetric matrix equals HALF the derivative along the joint symmetric
perturbation of (a_ij, a_ji).  A finite-difference oracle that perturbs a_ij
and a_ji together therefore has to halve its off-diagonal quotients to match.
Under this convention the divergence-form identities used by the energy
module hold (e.g. sum_ij A_ij * sk_partials(A, k)_ij == k * sk_of_matrix(A, k)).

``sk_of_entries`` sums the k x k principal minors.  For k <= 3 it reads them
entrywise from whole planes: for k = 1 it sums the diagonal entries left to
right (the order ``np.trace`` uses); for k = 2 it sums the minors
a_ii a_jj - a_ij a_ij over the pairs i < j; for k = 3 it sums the cofactor
expansions a(df - e^2) - b(bf - ce) + c(be - cd) of the blocks
[[a, b, c], [b, d, e], [c, e, f]] over the subsets in
``itertools.combinations`` order.  These closed forms are elementwise, so
sigma_k(-A) = (-1)^k sigma_k(A) holds exactly, and the k = 3 sum stays
within (5 + C(N, 3)) eps of the summed block permanents of |A|, which a
determinant by LU factorization need not.  Only for k >= 4 does it gather
every principal block from the entries, make one batched LAPACK
determinant call and sum the determinants along a contiguous subset axis,
in an order that does not depend on the batch.

``newton_flux`` applies the Newton tensor T_{k-1}(A) =
sum_{j<k} (-1)^j sigma_{k-1-j}(A) A^j, the gradient of sigma_k, to vectors
by the recursion T_j = sigma_j I - A T_{j-1} on the entries, with no matrix
product: sigma_1 I - A for k = 2, whose bits equal the closed form's.  The
gradient of a stack is its flux on the identity.  Tests compare it with
that power series and with central differences of sigma_k.

Every operation is a pure function of its arguments; the only shared
state is the cached, read-only entry index tables, so concurrent callers
need no coordination.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

MAX_DIM = 8


def as_symmetric(a, *, tol: float = 0.0) -> np.ndarray:
    """Validate a square symmetric matrix, or a (..., N, N) stack of them,
    and return its symmetrized float copy.

    Asymmetry beyond ``tol`` (absolute, relative to the largest entry of the
    same matrix) is an error; the returned copy is exactly symmetric.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    n = m.shape[-1]
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    if n > MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds the supported cap {MAX_DIM}")
    mt = np.swapaxes(m, -1, -2)
    scale = np.max(np.abs(m), axis=(-2, -1), initial=0.0)
    if np.any(np.max(np.abs(m - mt), axis=(-2, -1), initial=0.0) > tol * np.maximum(scale, 1.0)):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (m + mt)


def sigma_k(values, k: int):
    """k-th elementary symmetric polynomial of eigenvalues along the last axis.

    Computed by multiplying out prod_i (1 + lambda_i t) one factor at a time
    and reading off the t^k coefficient: O(N k), stable, no subset
    enumeration.  k = 0 returns 1 by convention.  A 1-D input returns a
    float, a (..., N) stack an array of the leading shape.
    """
    lam = np.sort(np.asarray(values, dtype=float), axis=-1)  # canonical order:
    # permutations of the input then give bit-identical results
    n = lam.shape[-1]
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for {n} eigenvalues")
    e = np.zeros(lam.shape[:-1] + (k + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        e[..., 1 : k + 1] = e[..., 1 : k + 1] + lam[..., i, None] * e[..., 0:k]
    return float(e[k]) if lam.ndim == 1 else e[..., k]


def sk_of_matrix(a, k: int) -> float:
    """Sum of all k x k principal minors of a symmetric matrix.

    Agrees with sigma_k of the eigenvalues; k = 0 returns 1.
    """
    if np.ndim(a) != 2:
        raise ValueError(f"expected one square matrix, got shape {np.shape(a)}")
    return float(sk_of_stack(as_symmetric(a), k))


def sk_partials(a, k: int) -> np.ndarray:
    """Matrix of partial derivatives of sigma_k with respect to matrix entries.

    See the module docstring for the symmetric-perturbation convention.
    """
    if np.ndim(a) != 2:
        raise ValueError(f"expected one square matrix, got shape {np.shape(a)}")
    return sk_partials_stack(as_symmetric(a), k)


def shifted_trace_identity(a, mu, k: int):
    """Both sides of the shifted principal-minor identity.

    lhs = sigma_k(A - mu*I);
    rhs = sum_{i=0}^{k} C(N-i, k-i) * sigma_i(A) * (-mu)^{k-i}.
    The two agree identically; the caller asserts |lhs - rhs| is small.
    ``a`` is one symmetric matrix (floats returned) or a (..., N, N) stack
    with a shift per matrix in ``mu`` (arrays returned).  The powers of -mu
    are Python float powers, which can differ from numpy's in the last bit.
    """
    m = as_symmetric(a)
    n = m.shape[-1]
    mus = np.asarray(mu, dtype=float)
    lhs = sk_of_stack(m - mus[..., None, None] * np.eye(n), k)  # rejects k outside 0..N
    rhs = 0.0
    for i in range(k + 1):
        powers = np.reshape([(-x) ** (k - i) for x in mus.ravel().tolist()], mus.shape)
        rhs = rhs + math.comb(n - i, k - i) * sk_of_stack(m, i) * powers
    return (float(lhs), float(rhs)) if m.ndim == 2 else (lhs, rhs)


@functools.cache
def entry_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Matrix position (a, b) of each unique entry of a symmetric n x n
    matrix, in entries order: the diagonal, then the pairs a < b."""
    return tuple((a, a) for a in range(n)) + tuple(itertools.combinations(range(n), 2))


@functools.cache
def entry_table(n: int) -> np.ndarray:
    """Read-only n x n table whose (a, b) and (b, a) cells hold the index of entry (a, b)."""
    table = np.empty((n, n), dtype=int)
    for e, (a, b) in enumerate(entry_pairs(n)):
        table[a, b] = table[b, a] = e
    table.flags.writeable = False
    return table


@functools.cache
def _block_entries(n: int, k: int) -> np.ndarray:
    """Read-only (subsets, k, k) entry indices of every k x k principal block."""
    idx = np.array(list(itertools.combinations(range(n), k)))
    picks = entry_table(n)[idx[:, :, None], idx[:, None, :]]
    picks.flags.writeable = False
    return picks


def _side(count: int) -> int:
    """The matrix side N of N(N+1)/2 = ``count`` unique entries."""
    n = (math.isqrt(8 * count + 1) - 1) // 2
    if n < 1 or n * (n + 1) // 2 != count:
        raise ValueError(f"{count} entries are not the unique entries of a symmetric matrix")
    if n > MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds the supported cap {MAX_DIM}")
    return n


def stack_of_entries(entries) -> np.ndarray:
    """The C-contiguous (..., N, N) stack of the symmetric matrices whose
    unique entries are ``entries`` (component-first, in ``entry_pairs`` order)."""
    n = _side(len(entries))
    out = np.empty(np.shape(entries[0]) + (n, n))
    for e, (a, b) in enumerate(entry_pairs(n)):
        out[..., a, b] = entries[e]
        out[..., b, a] = entries[e]
    return out


def sk_of_entries(entries, k: int) -> np.ndarray:
    """sigma_k of every symmetric matrix given by its unique entries.

    ``entries`` holds one array per entry, component-first in
    ``entry_pairs`` order (an (N(N+1)/2,) + batch array or a sequence of
    batch-shaped arrays).  For k <= 3 the minors are read entrywise from
    whole planes (closed forms, see the module docstring); for k >= 4 the
    principal blocks are gathered from the entries by one fancy index into
    one batched LAPACK determinant call.
    """
    n = _side(len(entries))
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for dimension {n}")
    batch = np.shape(entries[0])
    if k == 0:
        return np.ones(batch)
    if k == 1:
        total = np.array(entries[0], dtype=float)
        for i in range(1, n):
            total += entries[i]
        return total
    if k in (2, 3):  # the closed forms' operations in Python's order, into reused buffers
        total, x, y, z = np.zeros(batch), np.empty(batch), np.empty(batch), np.empty(batch)
    if k == 2:
        for e, (i, j) in enumerate(entry_pairs(n)[n:], start=n):
            np.multiply(entries[i], entries[j], out=x)
            total += np.subtract(x, np.multiply(entries[e], entries[e], out=y), out=x)
        return total
    if k == 3:  # the sum of a (d f - e e) - b (b f - c e) + c (b e - c d)
        for block in _block_entries(n, 3).tolist():  # [[a, b, c], [b, d, e], [c, e, f]]
            a, b, c = (entries[i] for i in block[0])
            d, e, f = entries[block[1][1]], entries[block[1][2]], entries[block[2][2]]
            np.subtract(np.multiply(d, f, out=x), np.multiply(e, e, out=y), out=x)
            np.subtract(np.multiply(b, f, out=y), np.multiply(c, e, out=z), out=y)
            np.subtract(np.multiply(a, x, out=x), np.multiply(b, y, out=y), out=x)
            np.subtract(np.multiply(b, e, out=y), np.multiply(c, d, out=z), out=y)
            total += np.add(x, np.multiply(c, y, out=y), out=x)
        return total
    gathered = np.asarray(entries)[_block_entries(n, k)]  # (subsets, k, k) + batch
    blocks = gathered.transpose(tuple(range(3, gathered.ndim)) + (0, 1, 2))
    # exactly singular blocks (zero matrices) trip a spurious numpy warning
    with np.errstate(divide="ignore", invalid="ignore"):
        dets = np.linalg.det(blocks)
    # det lays its output out subset-major, and numpy sums a strided axis in
    # another order than a contiguous one from 8 subsets on (N = 5, k = 3)
    return np.ascontiguousarray(dets).sum(axis=-1)


def _stack_entries(mats) -> list[np.ndarray]:
    """The upper triangle of a (..., N, N) stack, as views in ``entry_pairs`` order."""
    m = np.asarray(mats, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a (..., N, N) stack, got shape {m.shape}")
    return [m[..., a, b] for a, b in entry_pairs(m.shape[-1])]


def sk_of_stack(mats: np.ndarray, k: int) -> np.ndarray:
    """sigma_k of every matrix in a (..., N, N) stack of symmetric matrices:
    ``sk_of_entries`` of its upper triangle, read as views."""
    return sk_of_entries(_stack_entries(mats), k)


def newton_flux(vectors: np.ndarray, entries, k: int) -> np.ndarray:
    """F_a = sum_b T^{ab} g_b for the Newton tensor T = T_{k-1}(A), the
    gradient of sigma_k at A, given ``vectors`` g (read only; axis 0 of
    length N, the rest broadcast against the batch) and the unique entries
    of A as ``sk_of_entries`` reads them.  The recursion T_j = sigma_j I -
    A T_{j-1} (Reilly, Michigan Math. J. 20:373, 1973) gives F = g, then
    F <- sigma_j g - A F, j = 1 ... k-1; for k = 1 it returns ``vectors``."""
    n = _side(len(entries))
    if len(vectors) != n:
        raise ValueError(f"{len(vectors)} vectors along axis 0 for dimension {n}")
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} out of range for dimension {n}")
    table = entry_table(n)
    flux, product = vectors, None  # product: one buffer for every A_ab F_b
    for j in range(1, k):
        prev = flux
        flux = sk_of_entries(entries, j) * vectors
        for a in range(n):
            for b in range(n):
                flux[a] -= (product := np.multiply(entries[table[a, b]], prev[b], out=product))
    return flux


def sk_partials_stack(mats: np.ndarray, k: int) -> np.ndarray:
    """Gradient matrices of sigma_k for a (..., N, N) stack of symmetric matrices.

    The Newton tensor T_{k-1}(A) of each matrix, as ``newton_flux`` of the
    identity on the stack's upper triangle: for symmetric A the matrix of
    per-entry minor derivatives (see the module docstring).  Returns a new
    C-contiguous stack.
    """
    ents = _stack_entries(mats)
    n = _side(len(ents))
    batch = np.shape(ents[0])
    eye = np.eye(n).reshape((n, n) + (1,) * len(batch))
    flux = np.broadcast_to(newton_flux(eye, ents, k), (n, n) + batch)
    return np.moveaxis(flux, (0, 1), (-2, -1)).copy()
