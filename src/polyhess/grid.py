"""Finite-difference fields on a box with clamped boundary conditions.

Fields live on the interior nodes of a box grid; everything outside the
interior is implicitly zero.  The ``ghost_width`` attribute records how many
layers of that zero extension the field is entitled to use, which is the
discrete encoding of the clamped conditions u = d_n u = ... = d_n^{g-1} u = 0:
an order-``alpha`` problem needs fields declared with ``ghost_width >= alpha``.

All stencils are the standard second-order centered ones.  Mixed second
derivatives use the 4-point cross stencil; one-sided formulas are never
needed because the extension by zero supplies every exterior value.  The
stencils read that extension from one zero-filled buffer, one node wider on
every side, into whose core the field is slice-assigned (no ``np.pad``
call); the buffer holds exactly what padding with zeros would, so the
stencil arithmetic is unchanged.  A domain computes its spacing and cell
volume once and keeps them.  Stencils that yield more than one value per
node return plain arrays: ``hessian`` has shape nodes + (dim, dim),
``half_order`` shape (m,) + nodes with m = 1 for even order and dim for
odd, and ``gradient_centered`` shape (dim,) + nodes.

The grid is a tensor product, so the discrete Dirichlet Laplacian is
diagonal in the sine basis; ``invert_polyharmonic`` exploits this to apply
the exact inverse of (-Delta)^alpha with a pair of DSTs.  This is the
"diagonal polyharmonic preconditioner" used by the solvers.

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
from scipy.fft import dstn, idstn

from .errors import ContractError
from .hessian_algebra import sk_of_stack


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
    """Interior node values plus the declared zero-extension order.

    Treated as immutable: operations return new fields.  Arithmetic combines
    ghost widths pessimistically (minimum of the operands).
    """

    domain: BoxDomain
    values: np.ndarray
    ghost_width: int = 2

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.domain.nodes:
            raise ValueError(
                f"value shape {vals.shape} does not match domain nodes {self.domain.nodes}"
            )
        if self.ghost_width < 0:
            raise ValueError("ghost_width must be nonnegative")
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray, ghost_width: int | None = None) -> "ScalarField":
        gw = self.ghost_width if ghost_width is None else ghost_width
        return ScalarField(self.domain, values, gw)

    def _check_same_domain(self, other: "ScalarField"):
        if self.domain != other.domain:
            raise ValueError("fields live on different domains")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_domain(other)
        return ScalarField(self.domain, self.values + other.values,
                           min(self.ghost_width, other.ghost_width))

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_domain(other)
        return ScalarField(self.domain, self.values - other.values,
                           min(self.ghost_width, other.ghost_width))

    def __mul__(self, c: float) -> "ScalarField":
        return ScalarField(self.domain, self.values * float(c), self.ghost_width)

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.domain, -self.values, self.ghost_width)


def zeros(domain: BoxDomain, ghost_width: int = 2) -> ScalarField:
    return ScalarField(domain, np.zeros(domain.nodes), ghost_width)


def from_function(domain: BoxDomain, fn: Callable, ghost_width: int = 2) -> ScalarField:
    """Sample ``fn(*coords)`` on the interior nodes (coords are meshgrid arrays)."""
    mesh = domain.meshgrid()
    return ScalarField(domain, np.asarray(fn(*mesh), dtype=float), ghost_width)


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


def _second_difference(p: np.ndarray, vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered second difference along one axis; ``p`` is ``vals`` zero-extended."""
    return (_shifted(p, {axis: 1}) - 2.0 * vals + _shifted(p, {axis: -1})) / h ** 2


def _laplacian_values(vals: np.ndarray, spacing) -> np.ndarray:
    p = _zero_extended(vals)
    out = np.zeros_like(vals)
    for a in range(vals.ndim):
        out += _second_difference(p, vals, a, spacing[a])
    return out


def laplacian(u: ScalarField) -> ScalarField:
    """Centered (2*dim+1)-point Laplacian with zero extension."""
    out = _laplacian_values(u.values, u.domain.spacing)
    return ScalarField(u.domain, out, max(u.ghost_width - 1, 0))


def polyharmonic(u: ScalarField, alpha: int) -> ScalarField:
    """alpha-fold Laplacian (the caller applies the (-1)^alpha sign)."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if u.ghost_width < alpha:
        raise ContractError(
            f"field declares ghost_width={u.ghost_width} < alpha={alpha}; "
            "the clamped conditions are not encoded to the required order"
        )
    vals = u.values
    for _ in range(alpha):
        vals = _laplacian_values(vals, u.domain.spacing)
    return ScalarField(u.domain, vals, u.ghost_width - alpha)


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


def hessian(u: ScalarField) -> np.ndarray:
    """Discrete Hessian, shape nodes + (dim, dim): centered second differences
    and the 4-point cross stencil."""
    vals = u.values
    d = u.domain.dim
    h = u.domain.spacing
    p = _zero_extended(vals)
    out = np.zeros(u.domain.nodes + (d, d))
    for a in range(d):
        out[..., a, a] = _second_difference(p, vals, a, h[a])
    for a, b in itertools.combinations(range(d), 2):
        cross = (_shifted(p, {a: 1, b: 1}) - _shifted(p, {a: 1, b: -1})
                 - _shifted(p, {a: -1, b: 1}) + _shifted(p, {a: -1, b: -1})) / (4.0 * h[a] * h[b])
        out[..., a, b] = cross
        out[..., b, a] = cross
    return out


def sk_field(u: ScalarField, k: int) -> ScalarField:
    """Pointwise k-th symmetric polynomial of the discrete Hessian eigenvalues."""
    d = u.domain.dim
    if not 1 <= k <= d:
        raise ValueError(f"order k={k} out of range for dimension {d}")
    vals = sk_of_stack(hessian(u), k)
    return ScalarField(u.domain, vals, 0)


def half_order(u: ScalarField, alpha: int) -> np.ndarray:
    """Half of the order-2*alpha operator, shape (m,) + nodes: the m = 1
    component Delta^{alpha/2} u for even alpha, the m = dim components of
    grad Delta^{(alpha-1)/2} u (centered differences) for odd alpha."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    need = -(-alpha // 2)
    if u.ghost_width < need:
        raise ContractError(
            f"field declares ghost_width={u.ghost_width} < ceil(alpha/2)={need}"
        )
    vals = u.values
    for _ in range(alpha // 2):
        vals = _laplacian_values(vals, u.domain.spacing)
    if alpha % 2 == 0:
        return vals[None]
    return gradient_centered(ScalarField(u.domain, vals, 1))


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
    mesh = domain.meshgrid()
    s2 = np.zeros(domain.nodes)
    for x, c in zip(mesh, center):
        s2 += ((x - c) / radius) ** 2
    vals = np.zeros(domain.nodes)
    inside = s2 < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
    vals *= amplitude * (-1.0) ** (sign_exponent + 1)
    # support margin in nodes bounds the encodable boundary-condition order
    margin = min(
        min(c - radius, e - (c + radius)) / h
        for c, e, h in zip(center, domain.extent, domain.spacing)
    )
    return ScalarField(domain, vals, max(int(margin), 0))


def random_smooth_field(domain: BoxDomain, rng: np.random.Generator,
                        modes: int = 3, amplitude: float = 1.0,
                        ghost_width: int = 2, decay: float = 1.0) -> ScalarField:
    """Random low-frequency sine combination, normalized to the given sup amplitude.

    Mode coefficients fall off like 1/prod(multi)^decay; larger decay gives
    smoother draws.
    """
    vals = np.zeros(domain.nodes)
    axes = [domain.axis_coords(a) / domain.extent[a] for a in range(domain.dim)]
    for multi in itertools.product(range(1, modes + 1), repeat=domain.dim):
        coeff = rng.standard_normal() / float(np.prod(multi)) ** decay
        term = coeff
        for m, t in zip(multi, np.ix_(*axes)):
            term = term * np.sin(np.pi * m * t)
        vals = vals + term
    top = np.max(np.abs(vals))
    if top > 0:
        vals *= amplitude / top
    return ScalarField(domain, vals, ghost_width)


def _sine_symbol(domain: BoxDomain) -> np.ndarray:
    """Eigenvalues of the discrete (-Laplacian) on the sine basis, full grid shape."""
    parts = []
    for a in range(domain.dim):
        n = domain.nodes[a]
        h = domain.spacing[a]
        m = np.arange(1, n + 1)
        parts.append((2.0 - 2.0 * np.cos(np.pi * m / (n + 1))) / h**2)
    total = parts[0]
    for p in parts[1:]:
        total = np.add.outer(total, p)
    return total


def invert_polyharmonic(u: ScalarField, alpha: int) -> ScalarField:
    """Exact inverse of the discrete (-Delta)^alpha with clamped-zero data.

    Diagonalizes the operator with a type-I DST per axis and divides by the
    symbol; applying (-1)^alpha * polyharmonic to the result reproduces the
    input to roundoff.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    sym = _sine_symbol(u.domain) ** alpha
    coeffs = dstn(u.values, type=1, norm="ortho")
    coeffs /= sym
    vals = idstn(coeffs, type=1, norm="ortho")
    return ScalarField(u.domain, vals, max(u.ghost_width, alpha))


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
        "ghost_width": u.ghost_width,
        "order": "C",
        "dtype": "<f8",
    }
    meta.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    return raw, meta


def load_field(base: str | Path) -> ScalarField:
    """Read a field written by ``dump_field``.

    The sidecar is checked, not trusted: a layout other than ``<f8`` in C
    order, a raw file whose size does not match the node counts, a
    non-finite value, a negative ghost width or a missing key raises
    ``ValueError``.
    """
    base = Path(base)
    raw = base if base.suffix == ".f64" else base.with_suffix(".f64")
    meta = raw.with_suffix(".meta.json")
    header = json.loads(meta.read_text())
    try:
        layout = (header["dtype"], header["order"])
        domain = BoxDomain(nodes=tuple(header["nodes"]), extent=tuple(header["extent"]))
        ghost_width = int(header["ghost_width"])
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
    return ScalarField(domain, vals, ghost_width)  # rejects a negative ghost width


def export_csv(u: ScalarField, path: str | Path):
    """CSV export (x, y, value) for 2-D fields."""
    if u.domain.dim != 2:
        raise ValueError("CSV export is only defined for 2-D fields")
    xs = u.domain.axis_coords(0)
    ys = u.domain.axis_coords(1)
    lines = ["x,y,value"]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            lines.append(f"{float(x)!r},{float(y)!r},{float(u.values[i, j])!r}")
    Path(path).write_text("\n".join(lines) + "\n")
