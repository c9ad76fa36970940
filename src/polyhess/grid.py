"""Finite-difference fields on a box, zero outside its interior nodes.

Fields live on the interior nodes of a box grid; everything outside the
interior is implicitly zero.  That is the only boundary condition the
stencils impose: each Laplacian reads one zero node past the wall, so it is
the Dirichlet Laplacian, and the order-2*alpha operator is its alpha-th
power, diagonal in the sine basis.  In the limit this carries the Navier
conditions u = Delta u = ... = Delta^{alpha-1} u = 0, not the clamped
conditions u = d_n u = ... = d_n^{alpha-1} u = 0 of the continuous problem.

All stencils are the standard second-order centered ones.  Mixed second
derivatives use the 4-point cross stencil; one-sided formulas are never
needed because the extension by zero supplies every exterior value.  The
stencils read that extension from one zero-filled buffer, one node wider on
every side, into whose core the field is slice-assigned (no ``np.pad``
call).  In C order the interior spans one flat run of that buffer, and the
neighbours along axis a lie in the same run moved by the axis's flat
stride: each operation of a stencil is one contiguous pass over runs into
the run of a work buffer, and one copy takes the interior out.  Each node
meets the operands and operations of the per-node formula in its order, so
the bits are unchanged.  ``random_smooth_field`` is one contraction with
per-axis sine tables.  A domain computes its spacing, cell volume and sine
symbol once and keeps them, and rejects extents that make h^2 or the cell
volume 0 or inf.  Stencils that yield more than one value per node return
plain arrays: ``half_order`` has shape (1,) + nodes for even order and
(dim,) + (n_b + 1 for each axis b), one plane of edges per axis, for odd,
and ``gradient_centered`` shape (dim,) + nodes.

The Hessian is computed once, by one stencil, as its dim(dim+1)/2 unique
entries: ``hessian_entries`` has shape (dim(dim+1)/2,) + nodes, the
diagonal first and then the pairs a < b (``hessian_algebra.entry_pairs``).
Component-first planes are what sigma_k, the weak flux, the action and
its values on a ray read and combine, plane by plane and contiguously.
``hessian`` expands the entries into the node-major stack, shape nodes + (dim, dim),
one C-contiguous (dim, dim) block per node; no solver path reads it (the
strong-form Jacobian reads the entries too), and it is kept for the tests'
einsum oracles.

A caller that needs only sigma_k of a field (``sk_field``, or several
orders at once from ``sk_fields``) never holds the whole entry stack.
``sk_fields`` walks axis 0 a slab of rows at a time, the slab height set
by a private byte budget of about an L2 cache.  Each slab, with a one-node
halo (the neighbouring rows of the field, or zeros at a wall), is
zero-extended into one reused buffer; the same stencil code that fills
``hessian_entries`` fills one reused slab entry stack from it, and every
requested order's sigma_k of that stack is written into its full-size
plane.  Each stencil and each sigma_k value is elementwise in the values it
reads, and the halo supplies exactly the values the whole-array padding
holds, so every node gets the bits of the whole-array pass.

The Laplacian is shared with the Hessian: the diagonal entries are the
very second differences the Laplacian sums, and ``_laplacian_values`` sums
them in axis order with the first axis as its accumulator, as sigma_1 of
the entries does.  So a caller that holds a field's entries gets
``polyharmonic`` from ``laplacian_power`` with one stencil pass fewer and
bit-identical values.

The grid is a tensor product, so the discrete Dirichlet Laplacian is
diagonal in the sine basis; ``invert_polyharmonic`` exploits this to apply
the exact inverse of (-Delta)^alpha with a pair of DSTs: the minimax's
preconditioner and the map u = G w of the Newton step.  The
orthonormal type-I DST is its own inverse; ``_dst1`` computes it with numpy
alone, one axis at a time, as a product with the dense n x n sine matrix of
the axis (``_sine_matrix``, built once per length on first use).  Each
product is one BLAS-3 call, so its cost does not depend on the prime
factors of n + 1 as an FFT's does.  Its output agrees with
``scipy.fft.dstn(..., type=1, norm="ortho")`` to roundoff, not bit for bit
(the tests compare the two), and its bits are fixed for a given OpenBLAS
thread count; on some shapes they differ between thread counts.

For every alpha the seminorm built from ``half_order`` satisfies
seminorm(u)^2 == integrate(u * (-1)^alpha * polyharmonic(u, alpha)) to
roundoff: the repeated Laplacian is symmetric, and for odd alpha the half
order is the forward difference of v = Delta^{(alpha-1)/2} u on every edge
along each axis, the wall edges included, so summation by parts under zero
extension gives sum |D^+ v|^2 = <v, -Delta_h v> exactly.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .hessian_algebra import entry_pairs, sk_of_entries, stack_of_entries


@dataclass(frozen=True)
class BoxDomain:
    """Box domain described by interior node counts and physical extents."""

    nodes: tuple[int, ...]
    extent: tuple[float, ...]

    def __init__(self, nodes, extent=None):
        nodes = tuple(int(n) for n in np.atleast_1d(nodes))
        if extent is None:
            extent = tuple(1.0 for _ in nodes)
        else:
            extent = tuple(float(e) for e in np.atleast_1d(extent))
            if len(extent) == 1 and len(nodes) > 1:
                extent = extent * len(nodes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "extent", extent)
        if len(self.nodes) not in (2, 3):
            raise ValueError(f"box dimension must be 2 or 3, got {len(self.nodes)}")
        if len(self.extent) != len(self.nodes):
            raise ValueError("extent and nodes must have matching lengths")
        if any(n < 8 for n in self.nodes):
            raise ValueError(f"need at least 8 interior nodes per axis, got {self.nodes}")
        if not all(0.0 < e < math.inf for e in self.extent):
            raise ValueError(f"extents must be positive and finite, got {self.extent}")
        if not all(0.0 < x < math.inf for x in [h * h for h in self.spacing] + [self.cell_volume]):
            raise ValueError(f"extents {self.extent} make h^2 or the cell volume 0 or inf")

    @property
    def dim(self) -> int:
        return len(self.nodes)

    # cached in the instance __dict__, outside the dataclass fields, so
    # equality and hashing still see only nodes and extent
    @functools.cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / (n + 1) for e, n in zip(self.extent, self.nodes))

    @functools.cached_property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)  # an overflow is inf for __init__ to reject, not a warning

    @functools.cached_property
    def sine_symbol(self) -> np.ndarray:
        """Eigenvalues of the discrete (-Laplacian) on the sine basis, full
        grid shape (read-only)."""
        parts = []
        for a in range(self.dim):
            n = self.nodes[a]
            m = np.arange(1, n + 1)
            parts.append((2.0 - 2.0 * np.cos(np.pi * m / (n + 1))) / self.spacing[a]**2)
        total = parts[0]
        for p in parts[1:]:
            total = np.add.outer(total, p)
        total.flags.writeable = False
        return total

    def axis_coords(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return h * np.arange(1, self.nodes[axis] + 1)

    def meshgrid(self) -> list[np.ndarray]:
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))


def unit_box(dim: int, n: int) -> BoxDomain:
    """Unit box with n interior nodes per axis."""
    return BoxDomain(nodes=(n,) * dim)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Interior node values on a box domain.

    Treated as immutable: operations return new fields.
    """

    domain: BoxDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.domain.nodes:
            raise ValueError(
                f"value shape {vals.shape} does not match domain nodes {self.domain.nodes}"
            )
        object.__setattr__(self, "values", vals)

    def _check_same_domain(self, other: "ScalarField"):
        if self.domain != other.domain:
            raise ValueError("fields live on different domains")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_domain(other)
        return ScalarField(self.domain, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_domain(other)
        return ScalarField(self.domain, self.values - other.values)

    def __mul__(self, c: float) -> "ScalarField":
        return ScalarField(self.domain, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.domain, -self.values)


def zeros(domain: BoxDomain) -> ScalarField:
    return ScalarField(domain, np.zeros(domain.nodes))


def from_function(domain: BoxDomain, fn: Callable) -> ScalarField:
    """Sample ``fn(*coords)`` on the interior nodes (coords are meshgrid arrays)."""
    mesh = domain.meshgrid()
    return ScalarField(domain, np.asarray(fn(*mesh), dtype=float))


def _zero_extended(vals: np.ndarray) -> np.ndarray:
    """The values inside a one-node border of zeros (what ``np.pad(vals, 1)`` gives)."""
    p = np.zeros(tuple(n + 2 for n in vals.shape))
    _interior(p)[...] = vals
    return p


def _run(p: np.ndarray, shift: int = 0) -> np.ndarray:
    """The flat run of C-contiguous zero-extended values ``p`` from its first
    interior node to its last, moved ``shift`` places: a shift of
    +-``p.strides[a] // p.itemsize`` reads each node's neighbours along axis a."""
    flat = p.ravel()
    lo = sum(p.strides) // p.itemsize
    return flat[lo + shift:flat.size - lo + shift]


def _interior(work: np.ndarray) -> np.ndarray:
    """The interior nodes of a buffer shaped like the zero-extended values."""
    return work[(slice(1, -1),) * work.ndim]


def _second_difference(p: np.ndarray, axis: int, h: float, w: np.ndarray) -> np.ndarray:
    """(p[+1] - 2 p + p[-1]) / h^2 along one axis of zero-extended values
    ``p``, its four operations in that order, into the run ``w``."""
    s = p.strides[axis] // p.itemsize
    np.multiply(_run(p), 2.0, out=w)
    np.subtract(_run(p, s), w, out=w)
    np.add(w, _run(p, -s), out=w)
    return np.divide(w, h ** 2, out=w)


def _cross_difference(p: np.ndarray, a: int, b: int, h: tuple, w: np.ndarray) -> np.ndarray:
    """4-point mixed second difference along axes a and b into the run ``w``:
    (p[+1,+1] - p[+1,-1] - p[-1,+1] + p[-1,-1]) / (4 h_a h_b), in that order."""
    sa, sb = p.strides[a] // p.itemsize, p.strides[b] // p.itemsize
    np.subtract(_run(p, sa + sb), _run(p, sa - sb), out=w)
    np.subtract(w, _run(p, sb - sa), out=w)
    np.add(w, _run(p, -sa - sb), out=w)
    return np.divide(w, 4.0 * h[a] * h[b], out=w)


def _laplacian_values(vals: np.ndarray, spacing) -> np.ndarray:
    """The second differences summed in axis order, the first axis's the accumulator."""
    p = _zero_extended(vals)
    acc, work = np.empty_like(p), np.empty_like(p)
    total = _second_difference(p, 0, spacing[0], _run(acc))
    for a in range(1, vals.ndim):
        total += _second_difference(p, a, spacing[a], _run(work))
    return _interior(acc).copy()


def laplacian(u: ScalarField) -> ScalarField:
    """Centered (2*dim+1)-point Laplacian with zero extension."""
    out = _laplacian_values(u.values, u.domain.spacing)
    return ScalarField(u.domain, out)


def _check_order(alpha: int):
    if alpha < 1:
        raise ValueError("alpha must be >= 1")


def polyharmonic(u: ScalarField, alpha: int) -> ScalarField:
    """alpha-fold Laplacian (the caller applies the (-1)^alpha sign)."""
    _check_order(alpha)
    vals = u.values
    for _ in range(alpha):
        vals = _laplacian_values(vals, u.domain.spacing)
    return ScalarField(u.domain, vals)


def laplacian_power(u: ScalarField, ents: np.ndarray, alpha: int) -> ScalarField:
    """``polyharmonic(u, alpha)`` bit for bit, the first Laplacian read off
    ``ents = hessian_entries(u)``: its diagonal planes are the second
    differences ``_laplacian_values`` sums, and sigma_1 sums them in the
    same axis order, so one stencil pass is saved."""
    _check_order(alpha)
    vals = sk_of_entries(ents, 1)
    for _ in range(alpha - 1):
        vals = _laplacian_values(vals, u.domain.spacing)
    return ScalarField(u.domain, vals)


def _centered_difference(p: np.ndarray, axis: int, h: float, w: np.ndarray) -> np.ndarray:
    """(p[+1] - p[-1]) / (2 h) along one axis of ``p`` into the run ``w``."""
    s = p.strides[axis] // p.itemsize
    return np.divide(np.subtract(_run(p, s), _run(p, -s), out=w), 2.0 * h, out=w)


def gradient_centered(u: ScalarField) -> np.ndarray:
    """Centered first differences, shape (dim,) + nodes, zero extension."""
    p = _zero_extended(u.values)
    work = np.empty_like(p)
    comps = np.empty((u.domain.dim,) + u.domain.nodes)
    for a in range(u.domain.dim):
        _centered_difference(p, a, u.domain.spacing[a], _run(work))
        comps[a] = _interior(work)
    return comps


def divergence_centered(flux: np.ndarray, domain: BoxDomain) -> np.ndarray:
    """Sum over a of the centered difference of ``flux[a]`` along axis a, zero extension."""
    p = np.zeros(tuple(n + 2 for n in domain.nodes))
    acc, work = np.zeros_like(p), np.empty_like(p)
    total = _run(acc)
    for a in range(domain.dim):
        _interior(p)[...] = flux[a]
        total += _centered_difference(p, a, domain.spacing[a], _run(work))
    return _interior(acc).copy()


def _entries_into(p: np.ndarray, h: tuple, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The unique Hessian entries of zero-extended ``p`` into ``out`` in
    ``entry_pairs`` order, each computed in the run of ``work`` and copied out."""
    for e, (a, b) in enumerate(entry_pairs(p.ndim)):
        if a == b:
            _second_difference(p, a, h[a], _run(work))
        else:
            _cross_difference(p, a, b, h, _run(work))
        out[e] = _interior(work)
    return out


def hessian_entries(u: ScalarField) -> np.ndarray:
    """Unique entries of the discrete Hessian, component-first: shape
    (dim(dim+1)/2,) + nodes, the centered second differences first and then
    the 4-point cross differences of the axis pairs a < b (``entry_pairs`` order)."""
    d = u.domain.dim
    p = _zero_extended(u.values)
    return _entries_into(p, u.domain.spacing, np.empty((d * (d + 1) // 2,) + u.domain.nodes),
                         np.empty_like(p))


def hessian(u: ScalarField) -> np.ndarray:
    """Discrete Hessian as a node-major stack, shape nodes + (dim, dim):
    ``hessian_entries`` expanded."""
    return stack_of_entries(hessian_entries(u))


# Bytes of Hessian entries one slab of ``sk_fields`` holds; with the padded
# slab and the sigma_k temporaries that stays within a 2 MiB L2 cache.
_SLAB_BYTES = 1 << 20


def sk_fields(u: ScalarField, orders: Sequence[int]) -> tuple[ScalarField, ...]:
    """``sk_field(u, k)`` for every k in ``orders``, from one Hessian pass
    over slabs of axis-0 rows (see the module docstring)."""
    d = u.domain.dim
    for k in orders:
        if not 1 <= k <= d:
            raise ValueError(f"order k={k} out of range for dimension {d}")
    vals = u.values
    n = vals.shape[0]
    count = d * (d + 1) // 2
    rows = max(1, min(n, _SLAB_BYTES // (count * vals[0].nbytes)))
    p = np.zeros((rows + 2,) + tuple(m + 2 for m in vals.shape[1:]))
    work = np.empty_like(p)
    ents = np.empty((count, rows) + vals.shape[1:])
    outs = [np.empty(vals.shape) for _ in orders]
    core = (slice(1, -1),) * (d - 1)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        lo, hi = max(start - 1, 0), min(stop + 1, n)
        slab = p[:stop - start + 2]
        slab[0] = slab[-1] = 0.0  # the halo at a wall; field rows overwrite it inside
        slab[(slice(lo - start + 1, hi - start + 1),) + core] = vals[lo:hi]
        block = _entries_into(slab, u.domain.spacing, ents[:, :stop - start], work[:len(slab)])
        for out, k in zip(outs, orders):
            out[start:stop] = sk_of_entries(block, k)
    return tuple(ScalarField(u.domain, out) for out in outs)


def sk_field(u: ScalarField, k: int) -> ScalarField:
    """Pointwise k-th symmetric polynomial of the discrete Hessian eigenvalues."""
    return sk_fields(u, (k,))[0]


def half_order(u: ScalarField, alpha: int) -> np.ndarray:
    """Half of the order-2*alpha operator: Delta^{alpha/2} u, shape (1,) +
    nodes, for even alpha; for odd alpha the forward differences of v =
    Delta^{(alpha-1)/2} u, zero extended, shape (dim,) + (n_b + 1 for each
    axis b): component a holds (v[i+1] - v[i]) / h_a on the n_a + 1 edges
    i = 0..n_a along axis a, and zeros in the last slot of every other axis."""
    _check_order(alpha)
    vals = u.values
    for _ in range(alpha // 2):
        vals = _laplacian_values(vals, u.domain.spacing)
    if alpha % 2 == 0:
        return vals[None]
    p = _zero_extended(vals)
    comps = np.empty((vals.ndim,) + tuple(n + 1 for n in vals.shape))
    upper = (slice(1, None),) * vals.ndim  # past the last node both operands are zero
    for a, h in enumerate(u.domain.spacing):
        lower = upper[:a] + (slice(None, -1),) + upper[a + 1:]
        np.divide(np.subtract(p[upper], p[lower], out=comps[a]), h, out=comps[a])
    return comps


def integrate(u: ScalarField) -> float:
    """Midpoint-rule integral: cell volume times the sum of interior values."""
    return float(u.domain.cell_volume * u.values.sum())


def inner(u: ScalarField, w: ScalarField) -> float:
    """Discrete L^2 inner product."""
    u._check_same_domain(w)
    return float(u.domain.cell_volume * np.vdot(u.values, w.values))


def l2_norm(u: ScalarField) -> float:
    return math.sqrt(max(inner(u, u), 0.0))


def seminorm(u: ScalarField, alpha: int) -> float:
    """Discrete L^2 norm of the half-order operator (the W^{alpha,2} seminorm)."""
    return seminorm_of(half_order(u, alpha), u.domain)


def seminorm_of(comps: np.ndarray, domain: BoxDomain) -> float:
    """The seminorm from the half-order components ``comps`` of a field."""
    return math.sqrt(domain.cell_volume * float(np.vdot(comps, comps)))


def seminorm_inner(u: ScalarField, w: ScalarField, alpha: int) -> float:
    """Inner product associated with the seminorm."""
    return float(u.domain.cell_volume * np.vdot(half_order(u, alpha), half_order(w, alpha)))


def bump_field(domain: BoxDomain, center: Sequence[float], radius: float,
               amplitude: float, sign_exponent: int) -> ScalarField:
    """Smooth radial bump amplitude*(-1)^(sign_exponent+1)*exp(-1/(1-s^2)), s=|x-c|/radius.

    Compactly supported in a ball that must lie strictly inside the box;
    the Hessian at the center of the (positive) profile is negative definite.
    """
    center = tuple(float(c) for c in center)
    if len(center) != domain.dim:
        raise ValueError("center dimension mismatch")
    if radius <= 0:
        raise ValueError("radius must be positive")
    for c, e in zip(center, domain.extent):
        if not (c - radius > 0.0 and c + radius < e):
            raise ValueError("bump support must lie strictly inside the box")
    s2 = np.zeros(domain.nodes)
    for term in np.ix_(*(((domain.axis_coords(a) - c) / radius) ** 2
                         for a, c in enumerate(center))):
        s2 += term
    vals = np.zeros(domain.nodes)
    inside = s2 < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
    vals *= amplitude * (-1.0) ** (sign_exponent + 1)
    return ScalarField(domain, vals)


def random_smooth_field(domain: BoxDomain, rng: np.random.Generator,
                        modes: int = 3, amplitude: float = 1.0) -> ScalarField:
    """Random low-frequency sine combination, normalized to the given sup amplitude.

    Mode coefficients fall off like 1/prod(multi), drawn in the C order of their
    tensor, contracted with sin(pi m t) an axis at a time by ``np.add.reduce`` (no BLAS).
    """
    d = domain.dim
    m = np.arange(1, modes + 1)
    vals = rng.standard_normal((modes,) * d) / functools.reduce(np.multiply.outer, [m] * d)
    for a in range(d):  # sum the leading mode axis away; node axis a joins at the end
        table = np.sin(np.multiply.outer(np.pi * m, domain.axis_coords(a) / domain.extent[a]))
        vals = np.add.reduce(vals[..., None] * np.expand_dims(table, tuple(range(1, d))), axis=0)
    top = np.max(np.abs(vals))
    if top > 0:
        vals *= amplitude / top
    return ScalarField(domain, vals)


@functools.cache
def _sine_matrix(n: int) -> np.ndarray:
    """The orthonormal type-I DST of length n as a matrix (read-only):
    S_jk = sqrt(2/(n+1)) sin(pi (jk mod 2(n+1)) / (n+1)) for j, k = 1..n.

    Reducing jk by the sine's period before scaling keeps every argument
    below 2 pi, where the rounding of pi jk/(n+1) would otherwise grow with
    jk.  S is symmetric, bit for bit, and orthogonal, so it is its own inverse.
    """
    m = np.arange(1, n + 1)
    reduced = np.multiply.outer(m, m) % (2 * (n + 1))
    table = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * reduced / (n + 1))
    table.flags.writeable = False
    return table


def _dst1(values: np.ndarray) -> np.ndarray:
    """Orthonormal type-I DST over every axis of 2-D or 3-D ``values``, its own inverse.

    Each axis is one BLAS-3 product with ``_sine_matrix`` on a C-contiguous
    operand: S @ x.reshape(n_0, -1) on the first axis, x.reshape(-1, n) @ S
    on the last (S is symmetric), and np.matmul(S, x), batched over the
    first axis, on the middle axis of a 3-D array.
    """
    dims = values.shape
    x = _sine_matrix(dims[0]) @ values.reshape(dims[0], -1)
    if len(dims) == 3:
        x = np.matmul(_sine_matrix(dims[1]), x.reshape(dims))
    return (x.reshape(-1, dims[-1]) @ _sine_matrix(dims[-1])).reshape(dims)


def invert_polyharmonic(u: ScalarField, alpha: int) -> ScalarField:
    """Exact inverse of the discrete (-Delta)^alpha with zero extension.

    Diagonalizes the operator with a type-I DST per axis (``_dst1``) and
    divides by the symbol; applying (-1)^alpha * polyharmonic to the result
    reproduces the input to roundoff.
    """
    _check_order(alpha)
    coeffs = _dst1(u.values)
    coeffs /= u.domain.sine_symbol ** alpha
    return ScalarField(u.domain, _dst1(coeffs))


def dump_field(u: ScalarField, base: str | Path) -> tuple[Path, Path]:
    """Write ``<base>.f64`` (little-endian float64, C order) and ``<base>.meta.json``."""
    base = Path(base)
    raw = base.with_name(base.name + ".f64")
    meta = raw.with_suffix(".meta.json")
    raw.parent.mkdir(parents=True, exist_ok=True)
    u.values.astype("<f8").tofile(raw)
    header = {
        "dim": u.domain.dim,
        "nodes": list(u.domain.nodes),
        "extent": list(u.domain.extent),
        "spacing": list(u.domain.spacing),
        "order": "C",
        "dtype": "<f8",
    }
    meta.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    return raw, meta


def load_field(base: str | Path) -> ScalarField:
    """Read a field written by ``dump_field``, from its base (any dots in it
    kept, as ``dump_field`` keeps them) or from its ``.f64`` file.

    The sidecar is checked, not trusted: a layout other than ``<f8`` in C
    order, a raw file whose size does not match the node counts, a
    non-finite value or a missing key raises ``ValueError``.  Keys it does
    not read, such as the ``ghost_width`` of older sidecars, are ignored.
    """
    base = Path(base)
    raw = base.with_name(base.name + ".f64")
    if base.suffix == ".f64" and not raw.exists():
        raw = base
    meta = raw.with_suffix(".meta.json")
    header = json.loads(meta.read_text())
    try:
        layout = (header["dtype"], header["order"])
        domain = BoxDomain(nodes=tuple(header["nodes"]), extent=tuple(header["extent"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{meta}: malformed field header ({exc!r})") from exc
    if layout != ("<f8", "C"):
        raise ValueError(f"{meta}: unsupported layout dtype={layout[0]!r}, order={layout[1]!r}; "
                         "expected '<f8' in 'C' order")
    expected = math.prod(domain.nodes) * 8
    size = raw.stat().st_size
    if size != expected:
        raise ValueError(f"{raw}: {size} bytes, expected {expected} for nodes {domain.nodes}")
    vals = np.fromfile(raw, dtype="<f8").reshape(domain.nodes)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{raw}: field has non-finite values")
    return ScalarField(domain, vals)
