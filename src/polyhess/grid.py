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
call); the buffer holds exactly what padding with zeros would, so the
stencil arithmetic is unchanged.  A domain computes its spacing, cell
volume and sine symbol once and keeps them.  Stencils that yield more than
one value per node return plain arrays: ``half_order`` has shape (m,) +
nodes with m = 1 for even order and dim for odd, and ``gradient_centered``
shape (dim,) + nodes.

The Hessian is computed once, by one stencil, as its dim(dim+1)/2 unique
entries: ``hessian_entries`` has shape (dim(dim+1)/2,) + nodes, the
diagonal first and then the pairs a < b (``hessian_algebra.entry_pairs``).
Component-first planes are what sigma_k, the action and the path sweeps
read and interpolate, plane by plane and contiguously.  ``hessian``
expands the entries into the node-major stack, shape nodes + (dim, dim),
one C-contiguous (dim, dim) block per node; the strong-form Jacobian
contracts that stack with ``np.einsum``, whose sum an explicit loop over
entries does not reproduce bit for bit.

The Laplacian is shared with the Hessian: the diagonal entries are the
very second differences the Laplacian sums, and ``_laplacian_values`` sums
them in axis order with the first axis as its accumulator, as sigma_1 of
the entries does.  So a caller that holds a field's entries gets
``polyharmonic`` from ``laplacian_power`` with one stencil pass fewer and
bit-identical values.

The grid is a tensor product, so the discrete Dirichlet Laplacian is
diagonal in the sine basis; ``invert_polyharmonic`` exploits this to apply
the exact inverse of (-Delta)^alpha with a pair of DSTs.  This is the
"diagonal polyharmonic preconditioner" used by the solvers.  The
orthonormal type-I DST is its own inverse; ``_dst1`` computes it with numpy
alone, one axis at a time, as the imaginary part of a real FFT of the odd
extension [0, x, 0, -reverse(x)] of length 2(n+1) (the classical reduction
of a sine transform to an FFT; see e.g. Press et al., *Numerical Recipes*,
section 12.3).  It performs, operation for operation, what pocketfft's
``T_dst1`` does inside ``scipy.fft.dstn(..., type=1, norm="ortho")``, so its
output matches that of scipy bit for bit (the tests compare the two).

For even alpha the seminorm built from ``half_order`` satisfies
seminorm(u)^2 == integrate(u * (-1)^alpha * polyharmonic(u, alpha)) exactly
(the repeated Laplacian is symmetric).  For odd alpha the two quadratic
forms differ at first order in h: the node-centered gradient quadrature
misses the wall half-cells where grad Delta^{(alpha-1)/2} u does not vanish,
while the operator pairing's exact face-difference factorization includes
them.  Both are equivalent norms uniformly in h and the solvers use the
seminorm consistently on both sides of every comparison.
"""

from __future__ import annotations

import functools
import itertools
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
        return float(np.prod(self.spacing))

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
    p[(slice(1, -1),) * vals.ndim] = vals
    return p


def _shifted(p: np.ndarray, moves: dict[int, int]) -> np.ndarray:
    """View of zero-extended values ``p`` moved ``moves[a]`` (+1 or -1) nodes
    along each axis a named in ``moves``: the neighbour of every interior node."""
    index = [slice(1, -1)] * p.ndim
    for a, m in moves.items():
        index[a] = slice(1 + m, p.shape[a] - 1 + m)
    return p[tuple(index)]


def _second_difference(p: np.ndarray, vals: np.ndarray, axis: int, h: float,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Centered second difference along one axis; ``p`` is ``vals`` zero-extended.

    The four operations of (p[+1] - 2 vals + p[-1]) / h^2 run in that order
    through one output array (``out``, or a new one)."""
    out = np.multiply(vals, 2.0, out=out)
    np.subtract(_shifted(p, {axis: 1}), out, out=out)
    np.add(out, _shifted(p, {axis: -1}), out=out)
    return np.divide(out, h ** 2, out=out)


def _cross_difference(p: np.ndarray, a: int, b: int, h: tuple, out: np.ndarray) -> np.ndarray:
    """4-point mixed second difference along axes a and b into ``out``:
    (p[+1,+1] - p[+1,-1] - p[-1,+1] + p[-1,-1]) / (4 h_a h_b), in that order."""
    np.subtract(_shifted(p, {a: 1, b: 1}), _shifted(p, {a: 1, b: -1}), out=out)
    np.subtract(out, _shifted(p, {a: -1, b: 1}), out=out)
    np.add(out, _shifted(p, {a: -1, b: -1}), out=out)
    return np.divide(out, 4.0 * h[a] * h[b], out=out)


def _laplacian_values(vals: np.ndarray, spacing) -> np.ndarray:
    """The second differences summed in axis order; the first axis's is the
    accumulator."""
    p = _zero_extended(vals)
    out = _second_difference(p, vals, 0, spacing[0])
    for a in range(1, vals.ndim):
        out += _second_difference(p, vals, a, spacing[a])
    return out


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


def _centered_difference(p: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered first difference along one axis of zero-extended node values ``p``."""
    return (_shifted(p, {axis: 1}) - _shifted(p, {axis: -1})) / (2.0 * h)


def gradient_centered(u: ScalarField) -> np.ndarray:
    """Centered first differences, shape (dim,) + nodes, zero extension."""
    p = _zero_extended(u.values)
    h = u.domain.spacing
    comps = np.empty((u.domain.dim,) + u.domain.nodes)
    for a in range(u.domain.dim):
        comps[a] = _centered_difference(p, a, h[a])
    return comps


def divergence_centered(flux: np.ndarray, domain: BoxDomain) -> np.ndarray:
    """Sum over a of the centered difference of ``flux[a]`` along axis a, zero extension."""
    div = np.zeros(domain.nodes)
    for a in range(domain.dim):
        div += _centered_difference(_zero_extended(flux[a]), a, domain.spacing[a])
    return div


def hessian_entries(u: ScalarField) -> np.ndarray:
    """Unique entries of the discrete Hessian, component-first: shape
    (dim(dim+1)/2,) + nodes, the centered second differences first and then
    the 4-point cross differences of the axis pairs a < b (``entry_pairs`` order)."""
    vals = u.values
    d = u.domain.dim
    h = u.domain.spacing
    p = _zero_extended(vals)
    out = np.empty((d * (d + 1) // 2,) + u.domain.nodes)
    for e, (a, b) in enumerate(entry_pairs(d)):
        if a == b:
            _second_difference(p, vals, a, h[a], out=out[e])
        else:
            _cross_difference(p, a, b, h, out[e])
    return out


def hessian(u: ScalarField) -> np.ndarray:
    """Discrete Hessian as a node-major stack, shape nodes + (dim, dim):
    ``hessian_entries`` expanded."""
    return stack_of_entries(hessian_entries(u))


def sk_field(u: ScalarField, k: int) -> ScalarField:
    """Pointwise k-th symmetric polynomial of the discrete Hessian eigenvalues."""
    d = u.domain.dim
    if not 1 <= k <= d:
        raise ValueError(f"order k={k} out of range for dimension {d}")
    vals = sk_of_entries(hessian_entries(u), k)
    return ScalarField(u.domain, vals)


def half_order(u: ScalarField, alpha: int) -> np.ndarray:
    """Half of the order-2*alpha operator, shape (m,) + nodes: the m = 1
    component Delta^{alpha/2} u for even alpha, the m = dim components of
    grad Delta^{(alpha-1)/2} u (centered differences) for odd alpha."""
    _check_order(alpha)
    vals = u.values
    for _ in range(alpha // 2):
        vals = _laplacian_values(vals, u.domain.spacing)
    if alpha % 2 == 0:
        return vals[None]
    return gradient_centered(ScalarField(u.domain, vals))


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

    Mode coefficients fall off like 1/prod(multi).
    """
    vals = np.zeros(domain.nodes)
    axes = [domain.axis_coords(a) / domain.extent[a] for a in range(domain.dim)]
    for multi in itertools.product(range(1, modes + 1), repeat=domain.dim):
        coeff = rng.standard_normal() / float(np.prod(multi))
        term = coeff
        for m, t in zip(multi, np.ix_(*axes)):
            term = term * np.sin(np.pi * m * t)
        vals = vals + term
    top = np.max(np.abs(vals))
    if top > 0:
        vals *= amplitude / top
    return ScalarField(domain, vals)


def _dst1(values: np.ndarray) -> np.ndarray:
    """Orthonormal type-I DST over every axis of ``values``, its own inverse.

    Along each axis a in turn, the n_a values x of a line are transformed as
    -Im rfft([0, x, 0, -reverse(x)])[1:n_a + 1]; the orthonormal scale
    1/sqrt(prod 2(n_a + 1)), rounded once from long double, is applied on
    the first axis only.  Those are pocketfft's steps (``T_dst1`` under
    ``general_nd``), which is why the result equals scipy's ``dstn`` and
    ``idstn(type=1, norm="ortho")`` bit for bit.  Each pass works along the
    native axis: the extension is filled by slab assignments and the FFT
    runs with ``axis=a``, with no transposes or flipped copies.
    """
    total = np.longdouble(math.prod(2 * (n + 1) for n in values.shape))
    scale = float(np.longdouble(1) / np.sqrt(total))
    x = values
    for a, n in enumerate(values.shape):
        lead = (slice(None),) * a
        ext = np.empty(x.shape[:a] + (2 * (n + 1),) + x.shape[a + 1:])
        ext[lead + (0,)] = 0.0
        ext[lead + (n + 1,)] = 0.0
        ext[lead + (slice(1, n + 1),)] = x
        np.negative(x[lead + (slice(None, None, -1),)], out=ext[lead + (slice(n + 2, None),)])
        spectrum = np.fft.rfft(ext, axis=a)
        x = np.multiply(spectrum.imag[lead + (slice(1, n + 1),)], -scale if a == 0 else -1.0)
    return x


def invert_polyharmonic(u: ScalarField, alpha: int) -> ScalarField:
    """Exact inverse of the discrete (-Delta)^alpha with zero extension.

    Diagonalizes the operator with a type-I DST per axis (``_dst1``) and
    divides by the symbol; applying (-1)^alpha * polyharmonic to the result
    reproduces the input to roundoff.
    """
    _check_order(alpha)
    sym = u.domain.sine_symbol ** alpha
    coeffs = _dst1(u.values)
    coeffs /= sym
    vals = _dst1(coeffs)
    return ScalarField(u.domain, vals)


def dump_field(u: ScalarField, base: str | Path) -> tuple[Path, Path]:
    """Write ``<base>.f64`` (little-endian float64, C order) and ``<base>.meta.json``."""
    base = Path(base)
    raw = base.with_suffix(base.suffix + ".f64") if base.suffix else base.with_suffix(".f64")
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
    """Read a field written by ``dump_field``.

    The sidecar is checked, not trusted: a layout other than ``<f8`` in C
    order, a raw file whose size does not match the node counts, a
    non-finite value or a missing key raises ``ValueError``.  Keys it does
    not read, such as the ``ghost_width`` of older sidecars, are ignored.
    """
    base = Path(base)
    raw = base if base.suffix == ".f64" else base.with_suffix(".f64")
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
