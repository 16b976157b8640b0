"""Closed immersed surfaces on structured parametric grids.

A surface is a logically rectangular nu x nv grid of chart points.  Torus
topology is doubly periodic on [0, 2pi)^2; sphere topology uses a staggered
latitude-longitude grid, v_j = (j + 1/2) pi / nv, with ghost values across
the poles obtained by the half-period longitude shift.  All derivatives are
6th-order (7-point) central differences on the coordinates padded once with
3 ghost nodes on each side (pole reflection plus a half-turn in u on
spheres, periodic or quasi-periodic on tori).  A stencil is one einsum of
its 7 coefficients, the grid spacing folded in, with a read-only strided
view of the padded array whose row k is the neighbour at offset k - 3
along u or v (`_taps`), so no shifted copy of the grid is made.
`grid_partials` makes three per lift: [D1; D2] along u gives Fu and Fuu;
D1 along v over every padded row gives V, whose node rows are Fv and whose
u-taps give Fuv (the mixed stencil is separable); D2 along v gives Fvv.
On curved models the coordinates are first lifted into every chart that
occurs, and each node differences the lift into its own chart, so grids may
span several charts.  The surface Laplacian g^ab (f_ab - Gamma^c_ab f_c)
takes a scalar's partials from the same contractions, and the trace
Gamma^c = g^ab Gamma^c_ab from stage 1, which splits it off g^ab T_ab with H.

Flat models additionally support quasi-periodic grids (period_offsets): the
surface closes up to a fixed ambient translation per parameter period.  This
realizes planes and linear holomorphic/Lagrangian test surfaces exactly, and
is how every torus grid in the flat 4-torus closes: the grid is a lift to R⁴
whose offsets are lattice vectors (zero for a surface that does not wind).

The geometry of a grid is computed in two stages, on the whole grid at once
and through the ambient contractions g(u, w) and Gamma(u, w) only, so one
code path serves every model and chart:

* stage 1, `compute_mean_curvature`: partials, induced metric and inverse,
  spacings, T_ab = F_ab + Gamma(F_a, F_b) and the mean curvature vector H;
  this is all the stepper, the quadrature and the density layer need.
  Everything but the partials and the metric is formed on first read;
* stage 2, `compute_geometry`: stage 1 plus the adapted frame, the second
  fundamental form h in it, cos(alpha), |nabla J|^2 and |A|^2, computed
  when a diagnostics record is due, as explicit per-node 2x2 algebra on
  (nu, nv) planes, one `inner` call per inner product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .ambient import AmbientModel, FlatT4, apply_J, get_model
from .errors import DegenerateImmersionError

TWO_PI = 2.0 * np.pi

# 6th-order central stencils on offsets (-3, ..., 3); chosen one order above
# the nominal scheme so that quadrature of FD-derived area elements meets the
# 1e-6 integral tolerances at production grids.
_D1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_D2_NUM, _D2_DEN = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]), 180.0
_D2 = _D2_NUM / _D2_DEN
_OFFS = (-3, -2, -1, 0, 1, 2, 3)
_G = 3  # ghost width: the half-width of the 7-point stencils


def d2_symbol(theta):
    """The factor by which minus the D2 stencil, times h^2, scales a mode of
    phase theta per node: (490 - 540 cos theta + 54 cos 2 theta - 4 cos 3
    theta) / 180, summed in that order from the stencil's numerators."""
    s = -_D2_NUM[_G]
    for k in range(1, _G + 1):
        s = s - 2.0 * _D2_NUM[_G + k] * np.cos(k * theta)
    return s / _D2_DEN


@dataclass
class SurfaceGrid:
    """Structured grid of chart points realizing a closed immersed surface."""

    topology: str  # "torus" | "sphere"
    model: AmbientModel
    chart_ids: np.ndarray  # (nu, nv) int
    coords: np.ndarray  # (nu, nv, 4) float
    period_offsets: np.ndarray | None = None  # (2, 4); flat models only

    def __post_init__(self):
        self.chart_ids = np.asarray(self.chart_ids, dtype=int)
        self.coords = np.asarray(self.coords, dtype=float)
        nodes = self.coords.shape[:2]
        if self.coords.shape != nodes + (4,) or self.chart_ids.shape != nodes:
            raise ValueError(f"coords {self.coords.shape} and chart ids {self.chart_ids.shape} "
                             "do not have the shapes (nu, nv, 4) and (nu, nv)")
        if self.topology not in ("torus", "sphere"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "sphere" and self.nu % 2 != 0:
            raise ValueError("sphere topology needs an even longitude count")
        if self.topology == "sphere" and self.nv < _G:
            raise ValueError(f"sphere topology needs at least {_G} latitude rows")
        n = self.model.n_charts
        if not np.all((self.chart_ids >= 0) & (self.chart_ids < n)):
            raise ValueError(f"chart ids must lie in [0, {n}) on {self.model.name}")
        if self.period_offsets is not None:
            self.period_offsets = np.asarray(self.period_offsets, dtype=float)
            if not self.model.is_flat:
                raise ValueError("period offsets are a flat-model construct")
            if isinstance(self.model, FlatT4) and np.any(self.model.min_image(self.period_offsets)):
                raise ValueError("period offsets that are not lattice vectors do not close the grid")
        elif self.topology == "torus" and isinstance(self.model, FlatT4):
            raise ValueError("a torus grid in flat-T4 is a lift to R⁴ and needs period_offsets")

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

    def copy(self):
        return SurfaceGrid(
            topology=self.topology,
            model=self.model,
            chart_ids=self.chart_ids.copy(),
            coords=self.coords.copy(),
            period_offsets=None
            if self.period_offsets is None
            else self.period_offsets.copy(),
        )


def _pad(grid: SurfaceGrid, x, offsets=None):
    """Nodal array (nu, nv, ...) with _G ghost nodes on each side of both
    axes, the v ghosts filled first.

    Sphere ghosts in v are the nodes across the pole, half a turn away in u:
    the same surface points, so every nodal field pads unchanged.  Torus
    ghosts are periodic; `offsets` (2, 4) shift the ghosts of a
    quasi-periodic grid, the u offset first.
    """
    nu, nv, g = grid.nu, grid.nv, _G
    shift = lambda k, n, axis: 0.0 if offsets is None else (k // n) * offsets[axis]
    P = np.empty((nu + 2 * g, nv + 2 * g) + x.shape[2:])
    P[g:-g, g:-g] = x
    for j in (*range(-g, 0), *range(nv, nv + g)):
        if grid.topology == "sphere":
            P[g:-g, g + j] = np.roll(x[:, -1 - j if j < 0 else 2 * nv - 1 - j], nu // 2, axis=0)
        else:
            P[g:-g, g + j] = x[:, j % nv] + shift(j, nv, 1)
    for i in (*range(-g, 0), *range(nu, nu + g)):
        P[g + i] = P[g + i % nu] + shift(i, nu, 0)
    return P


def _taps(a, axis):
    """Read-only (7, rows, m) strided view of the padded array `a` whose
    row k holds, at every centre, `a` at offset k - 3 along `axis`: the tap
    stride is one padded row along u (axis 0) and one node along v (axis
    1).  The centres are the entries at least _G from both ends of `axis`,
    so the last tap ends on the last entry of `a`; the columns and
    components of a row, which must be contiguous, are merged into m."""
    shape = list(a.shape)
    shape[axis] -= 2 * _G
    if shape[axis] < 1:
        raise IndexError(f"stencil taps need more than {2 * _G} entries along axis {axis}, not {a.shape[axis]}")
    if not a[0].flags.c_contiguous:
        raise ValueError("the rows of a tapped array must be contiguous")
    m = int(np.prod(shape[1:]))
    return np.lib.stride_tricks.as_strided(
        a, (7, shape[0], m), (a.strides[axis], a.strides[0], a.itemsize), writeable=False
    )


def _lift_partials(P, du, dv):
    """(Fu, Fv, Fuu, Fuv, Fvv) at the nodes of one padded lift P, by the
    three contractions of the module docstring."""
    g = _G
    nodes = (P.shape[0] - 2 * g, P.shape[1] - 2 * g) + P.shape[2:]
    Fu, Fuu = np.einsum("dk,kij->dij", np.stack([_D1 / du, _D2 / du**2]), _taps(P[:, g:-g], 0))
    V = np.einsum("k,kij->ij", _D1 / dv, _taps(P, 1))  # every padded row
    Fvv = np.einsum("k,kij->ij", _D2 / dv**2, _taps(P[g:-g], 1))
    Fuv = np.einsum("k,kij->ij", _D1 / du, _taps(V, 0))
    return tuple(F.reshape(nodes) for F in (Fu, V[g:-g], Fuu, Fuv, Fvv))


def grid_partials(grid: SurfaceGrid):
    """First and second parameter derivatives (Fu, Fv, Fuu, Fuv, Fvv) of F
    at every node, each node differenced in its own chart.  The grid is
    lifted into every chart that occurs; lift entries far from every node
    of the chart may be non-finite, but the stencils of its nodes never
    reach them.  Flat grids, flat-T4 ones included, have one lift, whose
    ghosts carry the period offsets."""
    charts = grid.chart_ids
    present = np.flatnonzero(np.bincount(charts.ravel()))
    out = None
    with np.errstate(invalid="ignore", over="ignore"):
        for c in present:
            x = grid.coords if len(present) == 1 else grid.model.to_chart(grid.coords, charts, c)
            vals = _lift_partials(_pad(grid, x, offsets=grid.period_offsets), grid.du, grid.dv)
            if out is None:
                out = vals
            else:
                for o, v in zip(out, vals):
                    np.copyto(o, v, where=(charts == c)[..., None])
    return out


# Smallest admissible length of a frame vector before normalization, and of
# the square root of the smaller eigenvalue of the induced metric.
NONDEGENERACY_FLOOR = 1e-6


@dataclass(frozen=True)
class MeanCurvature:
    """Stage 1 of a grid's geometry, as (nu, nv, ...) arrays: what the
    stepper, the quadrature and the density layer need.  Only the partials
    and the metric entries are formed at once; T, H, the inverse's entries
    and the spacings follow on first read; the quadrature reads neither T nor H."""

    grid: SurfaceGrid
    Fu: np.ndarray
    Fv: np.ndarray
    g11: np.ndarray  # induced metric entries and determinant
    g12: np.ndarray
    g22: np.ndarray
    det: np.ndarray
    F2: tuple  # (Fuu, Fuv, Fvv); T is formed over them in place

    @cached_property
    def T(self):
        """(T_uu, T_uv, T_vv), T_ab = F_ab + Gamma(F_a, F_b)."""
        model, x = self.grid.model, self.grid.coords
        if not model.is_flat:  # Gamma = 0
            for F2, a, b in zip(self.F2, (self.Fu, self.Fu, self.Fv), (self.Fu, self.Fv, self.Fv)):
                F2 += model.connection(x, a, b)
        return self.F2

    @cached_property
    def _trace(self):
        """g^ab T_ab = H + Gamma^u Fu + Gamma^v Fv split into (H, (Gamma^u,
        Gamma^v)): the normal part, and the trace Gamma^c = g^ab Gamma^c_ab of
        the induced Christoffel symbols, the tangential part's coordinates."""
        (i11, i12, i22), T = self.inv, self.T
        model, x, Fu, Fv = self.grid.model, self.grid.coords, self.Fu, self.Fv
        Htr = i11[..., None] * T[0] + 2 * i12[..., None] * T[1] + i22[..., None] * T[2]
        pu, pv = model.inner(x, Htr, Fu), model.inner(x, Htr, Fv)
        cu, cv = i11 * pu + i12 * pv, i12 * pu + i22 * pv
        return Htr - cu[..., None] * Fu - cv[..., None] * Fv, (cu, cv)

    @property
    def H(self):  # (nu, nv, 4) mean curvature vector: the flow velocity
        return self._trace[0]

    @cached_property
    def H_norm_sq(self):
        return self.grid.model.inner(self.grid.coords, self.H, self.H)

    @cached_property
    def inv(self):
        """The inverse metric's entries (g^uu, g^uv, g^vv)."""
        return self.g22 / self.det, -self.g12 / self.det, self.g11 / self.det

    @cached_property
    def sqrtg(self):
        return np.sqrt(self.det)

    @property
    def hu(self):
        """Effective spacing du / sqrt(g^uu) (hv likewise)."""
        return self.grid.du / np.sqrt(self.inv[0])

    @property
    def hv(self):
        return self.grid.dv / np.sqrt(self.inv[2])


@dataclass(frozen=True)
class GridGeometry:
    """Stage 2 of a grid's geometry: stage 1 plus the adapted frame and the
    quantities read off it.  H and H_norm_sq are taken from the frame's h,
    like nablaJ_sq, so that the pinching inequality compares quantities of
    one construction; stage1.H is the flow velocity."""

    grid: SurfaceGrid
    stage1: MeanCurvature
    frame: np.ndarray  # (nu, nv, 4, 4): rows e1, e2, v1, v2
    h: np.ndarray  # (nu, nv, 2, 2, 2)
    H: np.ndarray  # (nu, nv, 4)
    H_norm_sq: np.ndarray
    cos_alpha: np.ndarray
    sin_sq_alpha: np.ndarray  # from the normal components of J e1: no cancellation
    nablaJ_sq: np.ndarray
    A_sq: np.ndarray

    @property
    def sqrtg(self):
        return self.stage1.sqrtg


def compute_mean_curvature(grid: SurfaceGrid) -> MeanCurvature:
    """Stage 1: the partials and the induced metric, checked for
    degeneracy here; the inverse, the spacings, T_ab = F_ab + Gamma(F_a, F_b)
    and the mean curvature vector H follow on first read."""
    Fu, Fv, Fuu, Fuv, Fvv = grid_partials(grid)
    x, model = grid.coords, grid.model
    g11 = model.inner(x, Fu, Fu)
    g12 = model.inner(x, Fu, Fv)
    g22 = model.inner(x, Fv, Fv)
    det = g11 * g22 - g12**2
    if np.any(det <= NONDEGENERACY_FLOOR**4):
        raise DegenerateImmersionError("induced metric degenerate in flow step")
    return MeanCurvature(grid, Fu, Fv, g11, g12, g22, det, (Fuu, Fuv, Fvv))


def _normalize(model, x, v, degenerate):
    """v / |v|, or DegenerateImmersionError(degenerate) if |v| < NONDEGENERACY_FLOOR."""
    n = np.sqrt(model.inner(x, v, v))
    if np.any(n < NONDEGENERACY_FLOOR):
        raise DegenerateImmersionError(degenerate)
    return v / n[..., None]


def _adapted_frames(model, x, Fu, Fv):
    """Orthonormal frames at every node: the (nu, nv, 4) arrays e1, e2
    (Gram-Schmidt on Fu, Fv), v1 and v2 (normal, positively oriented)."""
    e1 = _normalize(model, x, Fu, "tangent vector below nondegeneracy floor")
    e2 = Fv - model.inner(x, e1, Fv)[..., None] * e1
    e2 = _normalize(model, x, e2, "Gram-Schmidt pivot below floor")

    # Normal seed: the coordinate basis vector least aligned with the tangent
    # plane (tie-break lowest index via argmin), one (nu, nv) plane per
    # basis vector b_c.
    basis = np.eye(4)
    be1 = [model.inner(x, b, e1) for b in basis]  # <b_c, e1>
    be2 = [model.inner(x, b, e2) for b in basis]
    align = [(p1**2 + p2**2) / model.inner(x, b, b) for p1, p2, b in zip(be1, be2, basis)]
    seed = np.argmin(align, axis=0)
    v1raw = basis[seed] - np.choose(seed, be1)[..., None] * e1 - np.choose(seed, be2)[..., None] * e2
    v1 = _normalize(model, x, v1raw, "normal seed degenerate")

    # v2 is fixed by the ambient orientation, <v2, X> = vol(e1, e2, v1, X).
    # The volume form is omega^2/2, whose cofactor expansion with
    # omega(a, b) = <Ja, b> gives v2 without the metric's inverse or
    # determinant.
    omega = lambda a, b: model.inner(x, apply_J(a), b)[..., None]
    v2 = omega(e1, e2) * apply_J(v1) - omega(e1, v1) * apply_J(e2) + omega(e2, v1) * apply_J(e1)
    return e1, e2, v1, _normalize(model, x, v2, "oriented normal degenerate")


def _second_fundamental(model, x, stage1: MeanCurvature, e1, e2, v1, v2):
    """h[alpha, i, j] in the frame (e1, e2, v1, v2), H, |H|^2, cos(alpha),
    sin^2(alpha), |nabla J|^2 and |A|^2 (the order of the GridGeometry
    fields), by explicit per-node 2x2 algebra on (nu, nv) planes."""
    i11, i12, i22 = stage1.inv
    # e_i = C[a, i] F_a with C = g^-1 M, M[a, i] = <F_a, e_i>; C[i] is the
    # column (C[u, i], C[v, i])
    M = [(model.inner(x, stage1.Fu, e), model.inner(x, stage1.Fv, e)) for e in (e1, e2)]
    C = [(i11 * mu + i12 * mv, i12 * mu + i22 * mv) for mu, mv in M]
    # h[n, i, j] = htilde[n, a, b] C[a, i] C[b, j] with htilde[n, a, b] = <T_ab, v_n>
    h = np.empty(x.shape[:-1] + (2, 2, 2))
    Ha = []  # H^n = g^ab htilde[n, a, b]
    for n, v in enumerate((v1, v2)):
        huu, huv, hvv = (model.inner(x, Tab, v) for Tab in stage1.T)
        Ha.append(i11 * huu + 2 * i12 * huv + i22 * hvv)
        for i, j in ((0, 0), (0, 1), (1, 1)):
            (ui, vi), (uj, vj) = C[i], C[j]
            h[..., n, i, j] = h[..., n, j, i] = huu * ui * uj + huv * (ui * vj + vi * uj) + hvv * vi * vj
    # J e1 is a unit vector: omega(e1, e2) = cos(alpha), and its normal
    # components omega(e1, v1), omega(e1, v2) give sin^2(alpha)
    je1 = apply_J(e1)
    sin_sq_alpha = model.inner(x, je1, v1) ** 2 + model.inner(x, je1, v2) ** 2
    A2 = sum(h[..., n, i, j] ** 2 for n, i, j in np.ndindex(2, 2, 2))
    H = Ha[0][..., None] * v1 + Ha[1][..., None] * v2
    return h, H, Ha[0] ** 2 + Ha[1] ** 2, model.inner(x, je1, e2), sin_sq_alpha, nabla_J_squared(h), A2


def compute_geometry(grid: SurfaceGrid, stage1: MeanCurvature | None = None) -> GridGeometry:
    """Stage 2: stage 1 plus the adapted frame, the second fundamental form
    h in it, cos(alpha) = omega(e1, e2), sin^2(alpha), |nabla J|^2 and
    |A|^2.  `stage1`, when given, is the stage 1 of this grid, already
    computed; it is built on rather than recomputed."""
    if stage1 is None:
        stage1 = compute_mean_curvature(grid)
    g11, g12, g22 = stage1.g11, stage1.g12, stage1.g22
    lam_min = 0.5 * (g11 + g22) - np.hypot(0.5 * (g11 - g22), g12)
    if np.any(lam_min < NONDEGENERACY_FLOOR**2):
        raise DegenerateImmersionError("induced metric not SPD above floor")
    model, x = grid.model, grid.coords
    frame = _adapted_frames(model, x, stage1.Fu, stage1.Fv)
    values = _second_fundamental(model, x, stage1, *frame)
    return GridGeometry(grid, stage1, np.stack(frame, axis=-2), *values)


def frame_rotated_scalars(geom: GridGeometry, theta, psi):
    """Derived scalars recomputed after rotating (e1, e2) by theta and
    (v1, v2) by psi (orientation preserved).  Used by invariance tests."""
    def rotate(a, b, phi):
        c, s = np.cos(phi), np.sin(phi)
        return c * a + s * b, -s * a + c * b

    f = geom.frame
    rows = (*rotate(f[..., 0, :], f[..., 1, :], theta), *rotate(f[..., 2, :], f[..., 3, :], psi))
    values = _second_fundamental(geom.grid.model, geom.grid.coords, geom.stage1, *rows)
    return dict(zip((field.name for field in fields(GridGeometry)[3:]), values))


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


def laplace_beltrami(grid: SurfaceGrid, f, geom: MeanCurvature | GridGeometry | None = None):
    """Surface Laplacian g^ab (d_a d_b f - Gamma^c_ab d_c f) of a nodal
    scalar field.  The five partials of f come from one padded copy of f
    through the stencils of `grid_partials`; Gamma^c = g^ab Gamma^c_ab is
    stage 1's, the tangential part of g^ab T_ab that H drops."""
    if geom is None:
        geom = compute_mean_curvature(grid)
    stage1 = geom.stage1 if isinstance(geom, GridGeometry) else geom
    P = _pad(grid, np.asarray(f, dtype=float)[..., None])
    fu, fv, fuu, fuv, fvv = (d[..., 0] for d in _lift_partials(P, grid.du, grid.dv))
    (i11, i12, i22), (_, (cu, cv)) = stage1.inv, stage1._trace
    return i11 * fuu + 2 * i12 * fuv + i22 * fvv - cu * fu - cv * fv


@lru_cache
def sphere_latitude_weights(nv):
    """Quadrature weights for the staggered colatitude rows of a sphere grid.

    The u-summed integrand divided by sin(v) extends to a smooth even
    function of v, so integrating its cosine interpolant against sin(v)
    yields spectrally accurate weights (the latitude-weighted pole closure).
    Returned weights multiply the raw nodal values f * sqrt(g); they reduce
    to dv * (1 + O(dv^2)) away from the poles.
    """
    v = (np.arange(nv) + 0.5) * np.pi / nv
    k = np.arange(nv)
    ik = np.where((k % 2 == 0), 2.0 / np.where(k == 1, 1, 1 - k**2), 0.0)
    lam = np.full(nv, 2.0 / nv)
    lam[0] = 1.0 / nv
    w = np.cos(np.outer(v, k)) @ (lam * ik)
    return w / np.sin(v)


def quadrature_weights(grid: SurfaceGrid, geom: MeanCurvature | GridGeometry | None = None):
    """Per-node weights w with sum(f * w) = integrate_scalar(grid, f)."""
    if geom is None:
        geom = compute_mean_curvature(grid)
    if grid.topology == "torus":
        return geom.sqrtg * (grid.du * grid.dv)
    wv = sphere_latitude_weights(grid.nv)
    return geom.sqrtg * wv[None, :] * grid.du


def integrate_scalar(grid: SurfaceGrid, f, geom: MeanCurvature | GridGeometry | None = None):
    """Surface integral of a nodal scalar field with the grid quadrature.

    Trapezoidal (spectral) in the periodic directions; sphere grids use the
    latitude-weighted pole closure in v.
    """
    if geom is None:
        geom = compute_mean_curvature(grid)
    vals = np.asarray(f) * geom.sqrtg
    if grid.topology == "torus":
        return float(np.sum(vals) * grid.du * grid.dv)
    wv = sphere_latitude_weights(grid.nv)
    return float(np.sum(vals @ wv) * grid.du)


# -- snapshot persistence (kflow-grid/1) -----------------------------------

SNAPSHOT_FORMAT = "kflow-grid/1"


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
    )


def save_grid(path, grid: SurfaceGrid, t=None):
    """Write the snapshot json.dumps would give, with the coordinates
    dumped one u-row at a time so they never exist as one list of floats."""
    doc = {
        "format": SNAPSHOT_FORMAT,
        "topology": grid.topology,
        "nu": grid.nu,
        "nv": grid.nv,
        "model": grid.model.name,
        "chart_ids": grid.chart_ids.tolist(),
        "coords": None,
    }
    if hasattr(grid.model, "periods"):
        doc["model_periods"] = grid.model.periods.tolist()
    if grid.period_offsets is not None:
        doc["period_offsets"] = grid.period_offsets.tolist()
    if t is not None:
        doc["t"] = float(t)
    head, _, tail = json.dumps(doc).partition('"coords": null')
    with open(path, "w") as fh:
        fh.write(head + '"coords": [')
        fh.writelines((", " if i else "") + json.dumps(r.tolist()) for i, r in enumerate(grid.coords))
        fh.write("]" + tail)


def load_grid(path, model: AmbientModel | None = None):
    with open(path) as fh:
        doc = json.load(fh)
    t = doc.get("t")
    return grid_from_dict(doc, model=model), t
