"""Closed immersed surfaces on structured parametric grids.

A surface is a logically rectangular nu x nv grid of chart points.  Torus
topology is doubly periodic on [0, 2pi)^2; sphere topology uses a staggered
latitude-longitude grid, v_j = (j + 1/2) pi / nv, with ghost values across
the poles obtained by the half-period longitude shift.  All derivatives are
6th-order (7-point) central differences, taken by slicing the coordinates
padded once with 3 ghost nodes on each side (pole reflection plus a
half-turn in u on spheres, periodic or quasi-periodic on tori).  On curved
models the coordinates are first lifted into every chart that occurs, and
each node differences the lift into its own chart, so grids may span
several charts.

Flat models additionally support quasi-periodic grids (period_offsets): the
surface closes up to a fixed ambient translation per parameter period.  This
realizes planes and linear holomorphic/Lagrangian test surfaces exactly.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .ambient import AmbientModel, ChartPoint, get_model
from .errors import DegenerateImmersionError

TWO_PI = 2.0 * np.pi

# 6th-order central stencils on offsets (-3, ..., 3); chosen one order above
# the nominal scheme so that quadrature of FD-derived area elements meets the
# 1e-6 integral tolerances at production grids.
_D1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_D2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
_OFFS = (-3, -2, -1, 0, 1, 2, 3)

_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in itertools.permutations(range(4)):
    _sign = 1
    _p = list(_perm)
    for _i in range(4):
        for _j in range(_i + 1, 4):
            if _p[_i] > _p[_j]:
                _sign = -_sign
    _EPS4[_perm] = _sign


@dataclass
class SurfaceGrid:
    """Structured grid of chart points realizing a closed immersed surface."""

    topology: str  # "torus" | "sphere"
    model: AmbientModel
    chart_ids: np.ndarray  # (nu, nv) int
    coords: np.ndarray  # (nu, nv, 4) float
    period_offsets: np.ndarray | None = None  # (2, 4); flat models only
    orientation: int = 1

    def __post_init__(self):
        self.chart_ids = np.asarray(self.chart_ids, dtype=int)
        self.coords = np.asarray(self.coords, dtype=float)
        if self.topology not in ("torus", "sphere"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "sphere" and self.nu % 2 != 0:
            raise ValueError("sphere topology needs an even longitude count")
        if self.period_offsets is not None:
            self.period_offsets = np.asarray(self.period_offsets, dtype=float)
            if not self.model.is_flat:
                raise ValueError("period offsets are a flat-model construct")

    @property
    def nu(self):
        return self.coords.shape[0]

    @property
    def nv(self):
        return self.coords.shape[1]

    @property
    def du(self):
        return TWO_PI / self.nu

    @property
    def dv(self):
        return TWO_PI / self.nv if self.topology == "torus" else np.pi / self.nv

    def param_u(self):
        return np.arange(self.nu) * self.du

    def param_v(self):
        if self.topology == "torus":
            return np.arange(self.nv) * self.dv
        return (np.arange(self.nv) + 0.5) * self.dv

    def copy(self):
        return SurfaceGrid(
            topology=self.topology,
            model=self.model,
            chart_ids=self.chart_ids.copy(),
            coords=self.coords.copy(),
            period_offsets=None
            if self.period_offsets is None
            else self.period_offsets.copy(),
            orientation=self.orientation,
        )

    def node(self, i, j) -> ChartPoint:
        return ChartPoint(int(self.chart_ids[i, j]), self.coords[i, j])


_G = 3  # ghost width: the half-width of the 7-point stencils


def _pad(grid: SurfaceGrid, x, parity=1, offsets=None):
    """Nodal array (nu, nv, ...) with ghost nodes: _G on each side in v and
    _G + 1 in u (the extra one keeps every block of `_shifted` in range).

    Sphere ghosts in v reflect across the pole with a half-turn in u and are
    multiplied by `parity`; torus ghosts are periodic.  `offsets` (2, 4)
    shift the ghosts of a quasi-periodic grid, the u offset first.
    """
    nu, nv, g = grid.nu, grid.nv, _G
    if grid.topology == "sphere":
        turned = parity * np.roll(x, nu // 2, axis=0)
        x = np.concatenate([turned[:, g - 1 :: -1], x, turned[:, : -g - 1 : -1]], axis=1)
    i = np.arange(-g - 1, nu + g + 1)
    x = x[i % nu]
    if offsets is not None:
        x = x + (i // nu)[:, None, None] * offsets[0]
    if grid.topology == "torus":
        j = np.arange(-g, nv + g)
        x = x[:, j % nv]
        if offsets is not None:
            x = x + (j // nv)[:, None] * offsets[1]
    return x


def _shifted(P, nu):
    """nb(a, b): the padded array P at the logical neighbour (i + a, j + b)
    of every node, as one contiguous block of the flattened P.  A block
    also holds entries for the ghost positions in v; `_nodes` drops them."""
    width = P.shape[1]
    flat = P.reshape((-1,) + P.shape[2:])

    def nb(a, b):
        start = (_G + 1 + a) * width + b
        return flat[start : start + nu * width]

    return nb


def _nodes(block, nu):
    """The (nu, nv, ...) node values of a block of `_shifted`."""
    width = len(block) // nu
    return block.reshape((nu, width) + block.shape[1:])[:, _G : width - _G]


def _weighted(pairs):
    """Sum of c * x over the (c, x) pairs with c != 0, added in order."""
    out = term = None
    for c, x in pairs:
        if c != 0.0:
            if out is None:
                out, term = np.zeros_like(x), np.empty_like(x)
            out += np.multiply(x, c, out=term)
    return out


def _padded_lifts(grid: SurfaceGrid):
    """(mask of the nodes in chart c, every node lifted into chart c and
    padded) for each chart c that occurs; the mask is None on a
    single-chart grid.  Lift entries far from every node of chart c may be
    non-finite: only the nodes of chart c take values from that lift, and
    their stencils never reach such entries."""
    charts = grid.chart_ids
    present = np.flatnonzero(np.bincount(charts.ravel()))
    if len(present) == 1:
        return [(None, _pad(grid, grid.coords, offsets=grid.period_offsets))]
    lifts = []
    for c in present:
        lift = np.empty_like(grid.coords)
        for s in present:
            m = charts == s
            lift[m] = grid.model.to_chart(grid.coords[m], int(s), int(c))
        lifts.append((charts == c, _pad(grid, lift)))
    return lifts


def _stencil(grid: SurfaceGrid, fn):
    """Node values of fn(nb), a tuple of stencil sums over the blocks nb(a, b)
    of `_shifted`, on each padded lift; every node takes the values
    computed in its own chart.  On flat T4, nb(a, b) is
    centre + min_image(neighbour - centre), as in `local_coords`."""
    min_image = getattr(grid.model, "min_image", None)
    out = None
    with np.errstate(invalid="ignore", over="ignore"):
        for mask, P in _padded_lifts(grid):
            nb = _shifted(P, grid.nu)
            if min_image is not None:
                shifted, centre = nb, nb(0, 0)
                nb = lambda a, b: centre + min_image(shifted(a, b) - centre)
            vals = tuple(_nodes(v, grid.nu) for v in fn(nb))
            out = vals if out is None else tuple(
                np.where(mask[..., None], v, o) for v, o in zip(vals, out)
            )
    return out


def field_deriv(grid: SurfaceGrid, f, axis, pole_parity=1):
    """6th-order (7-point) derivative of a scalar field wrt the parameter on
    `axis`.  pole_parity = -1 flips the sign of the ghost values reflected
    across a pole (v-components of vector densities on sphere grids)."""
    h = grid.du if axis == 0 else grid.dv
    nb = _shifted(_pad(grid, np.asarray(f, dtype=float), parity=pole_parity), grid.nu)
    shifted = [nb(off, 0) if axis == 0 else nb(0, off) for off in _OFFS]
    return _nodes(_weighted(zip(_D1, shifted)), grid.nu) / h


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal frame (e1, e2 tangent; v1, v2 normal) at one node."""

    e1: np.ndarray
    e2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray


@dataclass(frozen=True)
class SecondFundamentalForm:
    """h[alpha][i][j] in the orthonormal adapted frame, symmetric in (i, j)."""

    h: np.ndarray  # (2, 2, 2)


@dataclass(frozen=True)
class NodeGeometry:
    """Per-node extrinsic geometry extracted from a GridGeometry."""

    dF_du: np.ndarray
    dF_dv: np.ndarray
    d2F_duu: np.ndarray
    d2F_duv: np.ndarray
    d2F_dvv: np.ndarray
    induced_metric: np.ndarray
    induced_metric_inv: np.ndarray
    sqrt_det_g: float
    frame: AdaptedFrame
    sff: SecondFundamentalForm
    H: np.ndarray
    H_norm_sq: float
    cos_alpha: float
    nablaJ_sq: float
    A_sq: float


@dataclass
class GridGeometry:
    """All per-node geometry of a grid snapshot, as (nu, nv, ...) arrays."""

    grid: SurfaceGrid
    Fu: np.ndarray
    Fv: np.ndarray
    Fuu: np.ndarray
    Fuv: np.ndarray
    Fvv: np.ndarray
    ambient_metric: np.ndarray  # (nu, nv, 4, 4)
    ambient_metric_inv: np.ndarray
    omega: np.ndarray  # (nu, nv, 4, 4)
    g: np.ndarray  # (nu, nv, 2, 2)
    ginv: np.ndarray
    sqrtg: np.ndarray
    frame: np.ndarray  # (nu, nv, 4, 4): rows e1, e2, v1, v2
    T: np.ndarray  # (nu, nv, 2, 2, 4): II before normal projection
    h: np.ndarray  # (nu, nv, 2, 2, 2)
    H: np.ndarray  # (nu, nv, 4)
    H_norm_sq: np.ndarray
    cos_alpha: np.ndarray
    nablaJ_sq: np.ndarray
    A_sq: np.ndarray

    def node(self, i, j) -> NodeGeometry:
        fr = AdaptedFrame(*self.frame[i, j])
        return NodeGeometry(
            dF_du=self.Fu[i, j],
            dF_dv=self.Fv[i, j],
            d2F_duu=self.Fuu[i, j],
            d2F_duv=self.Fuv[i, j],
            d2F_dvv=self.Fvv[i, j],
            induced_metric=self.g[i, j],
            induced_metric_inv=self.ginv[i, j],
            sqrt_det_g=float(self.sqrtg[i, j]),
            frame=fr,
            sff=SecondFundamentalForm(self.h[i, j]),
            H=self.H[i, j],
            H_norm_sq=float(self.H_norm_sq[i, j]),
            cos_alpha=float(self.cos_alpha[i, j]),
            nablaJ_sq=float(self.nablaJ_sq[i, j]),
            A_sq=float(self.A_sq[i, j]),
        )


def _per_chart(model, charts, coords, fn):
    """Evaluate a per-chart tensor function over a mixed-chart node array."""
    out = None
    for c in np.unique(charts):
        m = charts == c
        val = fn(coords[m], int(c))
        if out is None:
            out = np.empty(charts.shape + val.shape[1:], dtype=val.dtype)
        out[m] = val
    return out


def _partials(nb):
    """Unscaled stencil sums (Fu, Fv, Fuu, Fuv, Fvv)."""
    along_u = [nb(off, 0) for off in _OFFS]
    along_v = [nb(0, off) for off in _OFFS]
    mixed = (
        (ca * cb, nb(a, b))
        for a, ca in zip(_OFFS, _D1)
        for b, cb in zip(_OFFS, _D1)
        if ca != 0.0 and cb != 0.0
    )
    sums = (zip(_D1, along_u), zip(_D1, along_v), zip(_D2, along_u), mixed, zip(_D2, along_v))
    return tuple(_weighted(pairs) for pairs in sums)


def grid_partials(grid: SurfaceGrid):
    """First and second parameter derivatives of F at every node."""
    du, dv = grid.du, grid.dv
    Fu, Fv, Fuu, Fuv, Fvv = _stencil(grid, _partials)
    return Fu / du, Fv / dv, Fuu / du**2, Fuv / (du * dv), Fvv / dv**2


def _normalize(Gm, v):
    n = np.sqrt(np.einsum("...a,...ab,...b->...", v, Gm, v))
    return v / n[..., None], n


def _adapted_frames(Gm, Fu, Fv, floor):
    """Vectorized adapted frames at every node; returns (nu, nv, 4, 4)."""
    e1, n1 = _normalize(Gm, Fu)
    if np.any(n1 < floor):
        raise DegenerateImmersionError("tangent vector below nondegeneracy floor")
    proj = np.einsum("...a,...ab,...b->...", e1, Gm, Fv)
    e2raw = Fv - proj[..., None] * e1
    e2, n2 = _normalize(Gm, e2raw)
    if np.any(n2 < floor):
        raise DegenerateImmersionError("Gram-Schmidt pivot below floor")

    # Normal seed: the coordinate basis vector least aligned with the tangent
    # plane (tie-break lowest index via argmin).
    basis = np.eye(4)
    be1 = np.einsum("...ab,...b,ca->...c", Gm, e1, basis)  # <b_c, e1>
    be2 = np.einsum("...ab,...b,ca->...c", Gm, e2, basis)
    bnorm = np.sqrt(np.einsum("...ab,ca,cb->...c", Gm, basis, basis))
    align = (be1**2 + be2**2) / bnorm**2
    seed_idx = np.argmin(align, axis=-1)
    seed = basis[seed_idx]
    v1raw = (
        seed
        - np.take_along_axis(be1, seed_idx[..., None], -1) * e1
        - np.take_along_axis(be2, seed_idx[..., None], -1) * e2
    )
    v1, nv1 = _normalize(Gm, v1raw)
    if np.any(nv1 < floor):
        raise DegenerateImmersionError("normal seed degenerate")

    # v2 fixed by total ambient orientation: <v2, X> = sqrt(det G) eps(e1,e2,v1,X)
    sdet = np.sqrt(np.linalg.det(Gm))
    w = sdet[..., None] * np.einsum(
        "abcd,...a,...b,...c->...d", _EPS4, e1, e2, v1
    )
    Ginv = np.linalg.inv(Gm)
    v2raw = np.einsum("...da,...a->...d", Ginv, w)
    v2, _ = _normalize(Gm, v2raw)
    return np.stack([e1, e2, v1, v2], axis=-2)


def _second_fundamental(Gm, Fu, Fv, ginv, T, frame, omega):
    """h[alpha, i, j] in the frame, mean curvature, and derived scalars."""
    e1 = frame[..., 0, :]
    e2 = frame[..., 1, :]
    normals = frame[..., 2:, :]
    # M[a, i] = <F_a, e_i>;  e_i = C^a_i F_a with C = g^{-1} M
    Ft = np.stack([Fu, Fv], axis=-2)
    M = np.einsum("...ac,...cd,...id->...ai", Ft, Gm, frame[..., :2, :])
    C = np.einsum("...ab,...bi->...ai", ginv, M)
    # normal components of T in coordinate basis
    htilde = np.einsum("...abc,...cd,...nd->...nab", T, Gm, normals)
    h = np.einsum("...nab,...ai,...bj->...nij", htilde, C, C)
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    Halpha = np.einsum("...ab,...nab->...n", ginv, htilde)
    Hvec = np.einsum("...n,...nd->...d", Halpha, normals)
    H2 = np.einsum("...n,...n->...", Halpha, Halpha)
    cos_alpha = np.einsum("...a,...ab,...b->...", e1, omega, e2)
    nablaJ = (
        (h[..., 1, 0, 0] + h[..., 0, 0, 1]) ** 2
        + (h[..., 1, 1, 0] + h[..., 0, 1, 1]) ** 2
        + (h[..., 1, 0, 1] - h[..., 0, 0, 0]) ** 2
        + (h[..., 1, 1, 1] - h[..., 0, 1, 0]) ** 2
    )
    A2 = np.einsum("...nij->...", h**2)
    return h, Hvec, H2, cos_alpha, nablaJ, A2


def compute_geometry(grid: SurfaceGrid, floor=1e-6) -> GridGeometry:
    """All per-node extrinsic geometry for one grid snapshot."""
    Fu, Fv, Fuu, Fuv, Fvv = grid_partials(grid)
    model = grid.model
    charts = grid.chart_ids
    coords = grid.coords
    Gm = _per_chart(model, charts, coords, model.metric)
    omega = _per_chart(model, charts, coords, model.symplectic_form)
    if model.is_flat:
        gamma = None
    else:
        gamma = _per_chart(model, charts, coords, model.christoffel)

    g11 = np.einsum("...a,...ab,...b->...", Fu, Gm, Fu)
    g12 = np.einsum("...a,...ab,...b->...", Fu, Gm, Fv)
    g22 = np.einsum("...a,...ab,...b->...", Fv, Gm, Fv)
    g = np.stack(
        [
            np.stack([g11, g12], axis=-1),
            np.stack([g12, g22], axis=-1),
        ],
        axis=-2,
    )
    detg = g11 * g22 - g12**2
    if np.any(detg <= 0) or np.any(np.sqrt(np.linalg.eigvalsh(g)[..., 0]) < floor):
        raise DegenerateImmersionError("induced metric not SPD above floor")
    sqrtg = np.sqrt(detg)
    ginv = np.linalg.inv(g)

    frame = _adapted_frames(Gm, Fu, Fv, floor)

    # Coordinate-basis second fundamental form before normal projection:
    # T_ab = d2F_ab + Gamma(dFa, dFb)
    T = np.empty(grid.coords.shape[:2] + (2, 2, 4))
    second = {(0, 0): Fuu, (0, 1): Fuv, (1, 0): Fuv, (1, 1): Fvv}
    first = {0: Fu, 1: Fv}
    for a in range(2):
        for b in range(2):
            Tab = second[(a, b)].copy()
            if gamma is not None:
                Tab += np.einsum(
                    "...kij,...i,...j->...k", gamma, first[a], first[b]
                )
            T[..., a, b, :] = Tab

    h, Hvec, H2, cos_alpha, nablaJ, A2 = _second_fundamental(
        Gm, Fu, Fv, ginv, T, frame, omega
    )
    return GridGeometry(
        grid=grid,
        Fu=Fu,
        Fv=Fv,
        Fuu=Fuu,
        Fuv=Fuv,
        Fvv=Fvv,
        ambient_metric=Gm,
        ambient_metric_inv=np.linalg.inv(Gm),
        omega=omega,
        g=g,
        ginv=ginv,
        sqrtg=sqrtg,
        frame=frame,
        T=T,
        h=h,
        H=Hvec,
        H_norm_sq=H2,
        cos_alpha=cos_alpha,
        nablaJ_sq=nablaJ,
        A_sq=A2,
    )


def _inv2x2(g):
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    inv = np.empty_like(g)
    inv[..., 0, 0] = g[..., 1, 1] / det
    inv[..., 1, 1] = g[..., 0, 0] / det
    inv[..., 0, 1] = -g[..., 0, 1] / det
    inv[..., 1, 0] = -g[..., 1, 0] / det
    return inv, det


def compute_mean_curvature(grid: SurfaceGrid, floor=1e-6):
    """Mean curvature vector field only (the flow velocity).

    A stripped-down version of compute_geometry for the time-stepping inner
    loop: no frames, no Kähler angle, no second-fundamental-form conversion.
    Returns (H, info) with info holding the induced metric data needed for
    step-size control.
    """
    Fu, Fv, Fuu, Fuv, Fvv = grid_partials(grid)
    model = grid.model
    flat = model.is_flat
    if flat:
        g11 = np.einsum("...a,...a->...", Fu, Fu)
        g12 = np.einsum("...a,...a->...", Fu, Fv)
        g22 = np.einsum("...a,...a->...", Fv, Fv)
    else:
        Gm = _per_chart(model, grid.chart_ids, grid.coords, model.metric)
        GFu = np.einsum("...ab,...b->...a", Gm, Fu)
        GFv = np.einsum("...ab,...b->...a", Gm, Fv)
        g11 = np.einsum("...a,...a->...", Fu, GFu)
        g12 = np.einsum("...a,...a->...", Fu, GFv)
        g22 = np.einsum("...a,...a->...", Fv, GFv)
    det = g11 * g22 - g12**2
    if np.any(det <= floor**4):
        raise DegenerateImmersionError("induced metric degenerate in flow step")
    i11 = g22 / det
    i22 = g11 / det
    i12 = -g12 / det

    Tuu, Tuv, Tvv = Fuu, Fuv, Fvv
    if not flat:
        gamma = _per_chart(model, grid.chart_ids, grid.coords, model.christoffel)
        Tuu = Fuu + np.einsum("...kij,...i,...j->...k", gamma, Fu, Fu)
        Tuv = Fuv + np.einsum("...kij,...i,...j->...k", gamma, Fu, Fv)
        Tvv = Fvv + np.einsum("...kij,...i,...j->...k", gamma, Fv, Fv)
    Htr = (
        i11[..., None] * Tuu + 2 * i12[..., None] * Tuv + i22[..., None] * Tvv
    )
    if flat:
        pu = np.einsum("...a,...a->...", Htr, Fu)
        pv = np.einsum("...a,...a->...", Htr, Fv)
    else:
        pu = np.einsum("...a,...a->...", Htr, GFu)
        pv = np.einsum("...a,...a->...", Htr, GFv)
    cu = i11 * pu + i12 * pv
    cv = i12 * pu + i22 * pv
    H = Htr - cu[..., None] * Fu - cv[..., None] * Fv
    if flat:
        H2 = np.einsum("...a,...a->...", H, H)
    else:
        H2 = np.einsum("...a,...ab,...b->...", H, Gm, H)
    info = {
        "g11": g11,
        "g12": g12,
        "g22": g22,
        "sqrtg": np.sqrt(det),
        "H_norm_sq": H2,
    }
    return H, info


def frame_rotated_scalars(geom: GridGeometry, theta, psi):
    """Derived scalars recomputed after rotating (e1, e2) by theta and
    (v1, v2) by psi (orientation preserved).  Used by invariance tests."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(psi), np.sin(psi)
    f = geom.frame
    e1 = ct * f[..., 0, :] + st * f[..., 1, :]
    e2 = -st * f[..., 0, :] + ct * f[..., 1, :]
    v1 = cp * f[..., 2, :] + sp * f[..., 3, :]
    v2 = -sp * f[..., 2, :] + cp * f[..., 3, :]
    rframe = np.stack([e1, e2, v1, v2], axis=-2)
    h, Hvec, H2, cos_alpha, nablaJ, A2 = _second_fundamental(
        geom.ambient_metric, geom.Fu, geom.Fv, geom.ginv, geom.T, rframe, geom.omega
    )
    return {
        "h": h,
        "H": Hvec,
        "H_norm_sq": H2,
        "cos_alpha": cos_alpha,
        "nablaJ_sq": nablaJ,
        "A_sq": A2,
    }


def nabla_J_squared(h):
    """Four-term |nabla J|^2 from the orthonormal-frame second fundamental
    form h[alpha, i, j] (leading batch dims allowed)."""
    h = np.asarray(h)
    return (
        (h[..., 1, 0, 0] + h[..., 0, 0, 1]) ** 2
        + (h[..., 1, 1, 0] + h[..., 0, 1, 1]) ** 2
        + (h[..., 1, 0, 1] - h[..., 0, 0, 0]) ** 2
        + (h[..., 1, 1, 1] - h[..., 0, 1, 0]) ** 2
    )


def laplace_beltrami(grid: SurfaceGrid, f, geom: GridGeometry | None = None):
    """Surface Laplacian (1/sqrt g) d_a (sqrt g g^{ab} d_b f) of a nodal
    scalar field."""
    if geom is None:
        geom = compute_geometry(grid)
    fu = field_deriv(grid, f, axis=0)
    fv = field_deriv(grid, f, axis=1)
    wu = geom.sqrtg * (geom.ginv[..., 0, 0] * fu + geom.ginv[..., 0, 1] * fv)
    wv = geom.sqrtg * (geom.ginv[..., 1, 0] * fu + geom.ginv[..., 1, 1] * fv)
    div = field_deriv(grid, wu, axis=0) + field_deriv(
        grid, wv, axis=1, pole_parity=-1
    )
    return div / geom.sqrtg


_SPHERE_W_CACHE: dict = {}


def sphere_latitude_weights(nv):
    """Quadrature weights for the staggered colatitude rows of a sphere grid.

    The u-summed integrand divided by sin(v) extends to a smooth even
    function of v, so integrating its cosine interpolant against sin(v)
    yields spectrally accurate weights (the latitude-weighted pole closure).
    Returned weights multiply the raw nodal values f * sqrt(g); they reduce
    to dv * (1 + O(dv^2)) away from the poles.
    """
    if nv in _SPHERE_W_CACHE:
        return _SPHERE_W_CACHE[nv]
    v = (np.arange(nv) + 0.5) * np.pi / nv
    k = np.arange(nv)
    ik = np.where((k % 2 == 0), 2.0 / np.where(k == 1, 1, 1 - k**2), 0.0)
    lam = np.full(nv, 2.0 / nv)
    lam[0] = 1.0 / nv
    w = np.cos(np.outer(v, k)) @ (lam * ik)
    weights = w / np.sin(v)
    _SPHERE_W_CACHE[nv] = weights
    return weights


def quadrature_weights(grid: SurfaceGrid, geom: GridGeometry | None = None):
    """Per-node weights w with sum(f * w) = integrate_scalar(grid, f)."""
    if geom is None:
        geom = compute_geometry(grid)
    if grid.topology == "torus":
        return geom.sqrtg * (grid.du * grid.dv)
    wv = sphere_latitude_weights(grid.nv)
    return geom.sqrtg * wv[None, :] * grid.du


def integrate_scalar(grid: SurfaceGrid, f, geom: GridGeometry | None = None):
    """Surface integral of a nodal scalar field with the grid quadrature.

    Trapezoidal (spectral) in the periodic directions; sphere grids use the
    latitude-weighted pole closure in v.
    """
    if geom is None:
        geom = compute_geometry(grid)
    vals = np.asarray(f) * geom.sqrtg
    if grid.topology == "torus":
        return float(np.sum(vals) * grid.du * grid.dv)
    wv = sphere_latitude_weights(grid.nv)
    return float(np.sum(vals @ wv) * grid.du)


# -- spec-level per-node operations ---------------------------------------


def node_partials(grid: SurfaceGrid, i, j, geom: GridGeometry | None = None):
    if geom is None:
        geom = compute_geometry(grid)
    return (
        geom.Fu[i, j],
        geom.Fv[i, j],
        geom.Fuu[i, j],
        geom.Fuv[i, j],
        geom.Fvv[i, j],
    )


def adapted_frame(grid: SurfaceGrid, i, j, geom: GridGeometry | None = None):
    if geom is None:
        geom = compute_geometry(grid)
    return AdaptedFrame(*geom.frame[i, j])


def second_fundamental_form(grid: SurfaceGrid, i, j, geom: GridGeometry | None = None):
    if geom is None:
        geom = compute_geometry(grid)
    return SecondFundamentalForm(geom.h[i, j]), geom.H[i, j]


def kahler_angle_cos(grid: SurfaceGrid, i, j, geom: GridGeometry | None = None):
    if geom is None:
        geom = compute_geometry(grid)
    return float(geom.cos_alpha[i, j])


# -- snapshot persistence (kflow-grid/1) -----------------------------------

SNAPSHOT_FORMAT = "kflow-grid/1"


def grid_to_dict(grid: SurfaceGrid, t=None):
    doc = {
        "format": SNAPSHOT_FORMAT,
        "topology": grid.topology,
        "nu": grid.nu,
        "nv": grid.nv,
        "model": grid.model.name,
        "chart_ids": grid.chart_ids.tolist(),
        "coords": grid.coords.tolist(),
        "orientation": grid.orientation,
    }
    if hasattr(grid.model, "periods"):
        doc["model_periods"] = grid.model.periods.tolist()
    if grid.period_offsets is not None:
        doc["period_offsets"] = grid.period_offsets.tolist()
    if t is not None:
        doc["t"] = float(t)
    return doc


def grid_from_dict(doc, model: AmbientModel | None = None) -> SurfaceGrid:
    if doc.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"unsupported snapshot format {doc.get('format')!r}")
    if model is None:
        if doc["model"] == "flat-T4" and "model_periods" in doc:
            model = get_model("flat-T4", periods=doc["model_periods"])
        else:
            model = get_model(doc["model"])
    offs = doc.get("period_offsets")
    return SurfaceGrid(
        topology=doc["topology"],
        model=model,
        chart_ids=np.array(doc["chart_ids"], dtype=int),
        coords=np.array(doc["coords"], dtype=float),
        period_offsets=None if offs is None else np.array(offs, dtype=float),
        orientation=doc.get("orientation", 1),
    )


def save_grid(path, grid: SurfaceGrid, t=None):
    with open(path, "w") as fh:
        json.dump(grid_to_dict(grid, t=t), fh)


def load_grid(path, model: AmbientModel | None = None):
    with open(path) as fh:
        doc = json.load(fh)
    t = doc.get("t")
    return grid_from_dict(doc, model=model), t
