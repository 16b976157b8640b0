"""Scalar functionals and inequality checks recorded along the flow.

A DiagnosticsRecord collects the integral quantities of one surface state:
area, symplectic area, the angle functional V = int sin^2(a)/cos(a) dmu,
the Dirichlet-type quantities int |H|^2 dmu and sup |A|, and the running
time integral of int |H| dmu.  The check_* functions verify the expected
identities and decay bounds on a recorded series:

* symplectic area is conserved (a Stokes identity for the continuous flow,
  so the observed drift measures discretization error only);
* V(t) <= V(0) exp(-lam t), with the fitted decay rate at least lam;
* unit-interval bounds int_t^{t+1} int |H|^2 <= V(0) exp(-lam t);
* the cumulative bound
  int_0^T int |H| <= sqrt(V(0) Area(0)) / (1 - e^{-lam/2}) for lam > 0.

Here lam is the ambient Einstein constant (Ric = lam g, i.e. scalar
curvature / 4); passing the full scalar curvature instead makes the
pointwise identity below fail by exactly (3/4) scal sin^2(a) cos(a).

evolution_residual verifies the pointwise evolution law

    (d/dt - Laplacian) cos(a) = |dJ|^2 cos(a) + lam sin^2(a) cos(a)

on three consecutive snapshots, where |dJ|^2 is the four-term curvature
combination from the immersion layer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .immersion import (
    GridGeometry,
    SurfaceGrid,
    compute_geometry,
    integrate_scalar,
    laplace_beltrami,
)

COS_ALPHA_FLOOR = 1e-8
EPS_CHECK = 0.05  # relative slack of the V-decay, L2 and L1 bounds

SERIES_HEADER = (
    "t",
    "area",
    "symp_area",
    "min_cos_alpha",
    "V",
    "L2H",
    "supA",
    "cumL1H",
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    area: float
    symp_area: float
    min_cos_alpha: float
    V: float
    L2H: float
    supA: float
    cumL1H: float
    # int |H| dmu at this instant; feeds the trapezoid advancing cumL1H.
    # Not part of the series schema.
    l1H: float = 0.0


@dataclass(frozen=True)
class SeriesSummary:
    C0: float
    fitted_decay_rate: float | None
    decay_bound_ok: bool
    symp_drift: float | None
    l1_bound_value: float | None
    l1_bound_ok: bool | None
    l2_unit_interval_ok: bool


def record(
    grid: SurfaceGrid,
    t: float,
    geom: GridGeometry | None = None,
    prev: DiagnosticsRecord | None = None,
) -> DiagnosticsRecord:
    """Compute one DiagnosticsRecord from the current geometry.

    `prev` supplies the trapezoid state for the running integral of
    int |H| dmu; omit it for the first record.
    """
    if geom is None:
        geom = compute_geometry(grid)
    ones = np.ones(geom.cos_alpha.shape)
    area = integrate_scalar(grid, ones, geom)
    symp_area = integrate_scalar(grid, geom.cos_alpha, geom)
    min_cos = float(np.min(geom.cos_alpha))
    if min_cos > COS_ALPHA_FLOOR:
        V = integrate_scalar(grid, geom.sin_sq_alpha / geom.cos_alpha, geom)
    else:
        V = float("nan")
    l2h = integrate_scalar(grid, geom.H_norm_sq, geom)
    l1h = integrate_scalar(grid, np.sqrt(geom.H_norm_sq), geom)
    supA = float(np.sqrt(np.max(geom.A_sq)))
    if prev is None:
        cum = 0.0
    else:
        cum = prev.cumL1H + 0.5 * (t - prev.t) * (prev.l1H + l1h)
    return DiagnosticsRecord(
        t=float(t),
        area=float(area),
        symp_area=float(symp_area),
        min_cos_alpha=min_cos,
        V=float(V),
        L2H=float(l2h),
        supA=supA,
        cumL1H=float(cum),
        l1H=float(l1h),
    )


# -- series checks --------------------------------------------------------


def check_symplectic_area(series) -> float | None:
    """Max relative drift of symplectic area, or None when the initial
    symplectic area vanishes (Lagrangian data: drift is undefined)."""
    s0 = series[0].symp_area
    if abs(s0) < 1e-12 * max(series[0].area, 1.0):
        return None
    return max(abs(r.symp_area - s0) for r in series) / abs(s0)


def check_angle_decay(series, R: float):
    """Verify V(t) <= C0 exp(-R t) (1 + EPS_CHECK) and fit the decay rate.

    Returns (fitted_rate, decay_bound_ok).  fitted_rate is None when V is
    at floor level everywhere (already holomorphic data).
    """
    C0 = series[0].V
    ok = all(
        r.V <= C0 * np.exp(-R * (r.t - series[0].t)) * (1.0 + EPS_CHECK)
        for r in series
    )
    ts = np.array([r.t for r in series])
    vs = np.array([r.V for r in series])
    mask = vs > 1e-12
    if np.count_nonzero(mask) < 2:
        return None, ok
    slope = np.polyfit(ts[mask], np.log(vs[mask]), 1)[0]
    return float(-slope), ok


def check_l2_unit_intervals(series, R: float) -> bool:
    """For every record time t, trapezoid int_t^{t'} int |H|^2 dmu dt with
    t' = min(t + 1, T_end) must be <= C0 exp(-R t) (1 + EPS_CHECK).

    Windows are clipped to the end of the run: the continuous bound holds
    for any t' <= t + 1, so a partial window is a valid (weaker) check when
    the run is shorter than one time unit.
    """
    C0 = series[0].V
    t0 = series[0].t
    ts = np.array([r.t for r in series])
    l2 = np.array([r.L2H for r in series])
    # cumulative trapezoid of L2H over the record grid
    cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(ts) * (l2[1:] + l2[:-1]))])
    for i, t in enumerate(ts):
        t_hi = min(t + 1.0, ts[-1])
        window = np.interp(t_hi, ts, cum) - cum[i]
        if window > C0 * np.exp(-R * (t - t0)) * (1.0 + EPS_CHECK):
            return False
    return True


def check_l1_bound(series, R: float):
    """Cumulative bound int_0^T int |H| dmu dt <= sqrt(C0 Area(0)) / (1 - e^{-R/2}).

    Returns (bound_value, ok); (None, None) when R <= 0, where the bound
    degenerates.
    """
    if R <= 0:
        return None, None
    C0 = series[0].V
    bound = np.sqrt(C0) * np.sqrt(series[0].area) / (1.0 - np.exp(-R / 2.0))
    return float(bound), bool(series[-1].cumL1H <= bound * (1.0 + EPS_CHECK))


def summarize(series, R: float) -> SeriesSummary:
    rate, decay_ok = check_angle_decay(series, R)
    bound, l1_ok = check_l1_bound(series, R)
    return SeriesSummary(
        C0=series[0].V,
        fitted_decay_rate=rate,
        decay_bound_ok=decay_ok,
        symp_drift=check_symplectic_area(series),
        l1_bound_value=bound,
        l1_bound_ok=l1_ok,
        l2_unit_interval_ok=check_l2_unit_intervals(series, R),
    )


# -- pointwise evolution residual -----------------------------------------


def three_point_weights(tp, tm, tn):
    """Weights (wp, wm, wn) of the central difference wp f(tp) + wm f(tm) +
    wn f(tn) for df/dt at tm, second order on nonuniform steps."""
    h1, h2 = tm - tp, tn - tm
    if h1 <= 0 or h2 <= 0:
        raise ValueError("snapshot times must be strictly increasing")
    return -h2 / (h1 * (h1 + h2)), (h2 - h1) / (h1 * h2), h1 / (h2 * (h1 + h2))


def evolution_residual(
    prev: tuple[SurfaceGrid, float],
    mid: tuple[SurfaceGrid, float],
    nxt: tuple[SurfaceGrid, float],
):
    """Residual of (d/dt - Lap) cos(a) = |dJ|^2 cos(a) + R sin^2(a) cos(a)
    at the middle of three consecutive states.

    Each argument is a (grid, t) pair with identical grid shape; the time
    derivative is the per-node central difference (nonuniform steps
    supported), which is the Lagrangian derivative along the flow: the
    nodes move by dF/dt = H, with no tangential part.

    Returns (residual_field, max_norm, l2_norm).
    """
    (gp, tp), (gm, tm), (gn, tn) = prev, mid, nxt
    wp, wm, wn = three_point_weights(tp, tm, tn)
    geom_m = compute_geometry(gm)
    ca_m = geom_m.cos_alpha
    dcos_dt = wp * compute_geometry(gp).cos_alpha + wm * ca_m + wn * compute_geometry(gn).cos_alpha
    lap = laplace_beltrami(gm, ca_m, geom_m)
    lam = gm.model.einstein_constant
    rhs = geom_m.nablaJ_sq * ca_m + lam * (1.0 - ca_m**2) * ca_m
    res = dcos_dt - lap - rhs
    l2 = np.sqrt(integrate_scalar(gm, res**2, geom_m))
    return res, float(np.max(np.abs(res))), float(l2)


# -- series file I/O ------------------------------------------------------


def write_series(path, series):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SERIES_HEADER)
        for r in series:
            w.writerow([repr(getattr(r, name)) for name in SERIES_HEADER])


def read_series(path):
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != SERIES_HEADER:
            raise ValueError(f"unexpected series header {header!r}")
        for row in reader:
            out.append(DiagnosticsRecord(**{k: float(v) for k, v in zip(SERIES_HEADER, row)}))
    return out
