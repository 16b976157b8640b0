"""Gaussian parabolic density: closed-form plane oracles, cutoff properties,
calibration, the regularity monitor, the row-blocked density sums against
whole-matrix oracles, their memory bound, and the flow identity
for dPhi/dt."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kflow import density
from kflow.ambient import ChartPoint, FlatT4, get_model
from kflow.density import (
    DensityQuery,
    calibrate_r0,
    cutoff,
    density_derivative_check,
    make_query,
    monitor_regularity,
    parabolic_density,
)
from kflow.errors import CalibrationError, CurvedModelError
from kflow.flow import FlowConfig, FlowState, step
from kflow.immersion import compute_mean_curvature, integrate_scalar, quadrature_weights
from kflow.surfaces import build_surface

C2 = get_model("flat-C2")
CP2 = get_model("Fubini-Study-CP2")
T4 = FlatT4()

TAU = 0.01
R_CUT = 8 * np.sqrt(TAU)  # Gaussian tail below 1e-6 at the cutoff


def _plane_grid(n=192, extent=4.0, origin=(0.0, 0.0, 0.0, 0.0), holomorphic=True):
    b_dir = (0.0, 1.0, 0.0, 0.0) if holomorphic else (0.0, 0.0, 1.0, 0.0)
    return build_surface(
        "plane",
        C2,
        origin=origin,
        a_dir=(1.0, 0.0, 0.0, 0.0),
        b_dir=b_dir,
        extent=(extent, extent),
        nu=n,
        nv=n,
    )


def _center(extent=4.0):
    return ChartPoint(0, np.array([extent / 2, extent / 2, 0.0, 0.0]))


class TestPlaneOracles:
    def test_plane_through_center_has_unit_density(self):
        grid = _plane_grid()
        q = DensityQuery(x0=_center(), t0=TAU, r=R_CUT)
        assert abs(parabolic_density(grid, 0.0, q) - 1.0) < 1e-6

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_offset_plane_gaussian_factor(self, ratio):
        d = ratio * np.sqrt(TAU)
        grid = _plane_grid(origin=(0.0, 0.0, d, 0.0))
        q = DensityQuery(x0=_center(), t0=TAU, r=R_CUT)
        want = np.exp(-d * d / (4 * TAU))
        assert abs(parabolic_density(grid, 0.0, q) - want) < 1e-6

    def test_two_transverse_planes_sum_to_two(self):
        x0 = _center()
        q = DensityQuery(x0=x0, t0=TAU, r=R_CUT)
        p1 = _plane_grid()
        # second plane spans (x2, y2) and passes through x0
        p2 = build_surface(
            "plane",
            C2,
            origin=(x0.x[0], x0.x[1], -2.0, -2.0),
            a_dir=(0.0, 0.0, 1.0, 0.0),
            b_dir=(0.0, 0.0, 0.0, 1.0),
            extent=(4.0, 4.0),
            nu=192,
            nv=192,
        )
        total = parabolic_density(p1, 0.0, q) + parabolic_density(p2, 0.0, q)
        assert abs(total - 2.0) < 1e-6

    def test_parabolic_rescaling_invariance(self):
        grid = _plane_grid(origin=(0.0, 0.0, np.sqrt(TAU), 0.0))
        q = DensityQuery(x0=_center(), t0=TAU, r=R_CUT)
        phi = parabolic_density(grid, 0.0, q)
        c = 2.5  # rescale space by c and time by c^2
        scaled = grid.copy()
        scaled.coords[...] = c * grid.coords
        qs = DensityQuery(
            x0=ChartPoint(0, c * q.x0.x), t0=c * c * TAU, r=c * R_CUT
        )
        assert abs(parabolic_density(scaled, 0.0, qs) - phi) < 1e-8


def test_cutoff_shape():
    r = 0.3
    s = np.array([0.0, 0.5 * r, r, 1.5 * r, 2 * r, 3 * r])
    phi = cutoff(s, r)
    assert np.allclose(phi[:3], 1.0)
    assert phi[4] == 0.0 and phi[5] == 0.0
    assert 0.0 < phi[3] < 1.0


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(0.0, 5.0))
def test_cutoff_bounds_and_derivative(r, s):
    phi = float(cutoff(s, r))
    assert 0.0 <= phi <= 1.0
    eps = 1e-6 * r
    slope = (cutoff(s + eps, r) - cutoff(s - eps, r)) / (2 * eps)
    assert abs(slope) <= (15.0 / 8.0) / r + 1e-6


def _clip_cutoff(s, r):
    """The cutoff as np.clip and three powers over every entry."""
    s = np.asarray(s, dtype=float)
    w = np.clip((s - r) / r, 0.0, 1.0)
    return 1.0 - (10.0 * w**3 - 15.0 * w**4 + 6.0 * w**5)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [0.38, 1.0, 4.25])
def test_cutoff_matches_clip_oracle_bit_for_bit(r):
    rng = np.random.default_rng(7)
    s = rng.uniform(0.0, 3.0 * r, size=(37, 53))
    assert _same_bits(cutoff(s, r), _clip_cutoff(s, r))
    edges = np.array(
        [0.0, r, 2 * r, np.nextafter(2 * r, 0.0), np.nextafter(2 * r, np.inf),
         np.nextafter(r, 0.0), np.nextafter(r, np.inf), np.inf, -np.inf, np.nan]
    )
    got = cutoff(edges, r)
    assert _same_bits(got, _clip_cutoff(edges, r))
    assert np.isnan(got[-1])
    for x in edges:
        assert _same_bits(cutoff(float(x), r), _clip_cutoff(float(x), r))
        assert _same_bits(cutoff(np.float64(x), r), _clip_cutoff(np.float64(x), r))
        assert _same_bits(cutoff(np.array(x), r), _clip_cutoff(np.array(x), r))
    assert float(cutoff(1.5 * r, r)) == float(_clip_cutoff(1.5 * r, r))


def test_make_query_validation():
    x0 = ChartPoint(0, np.zeros(4))
    with pytest.raises(ValueError):
        make_query(C2, x0, t0=1.0, r=0.0)
    with pytest.raises(ValueError):
        make_query(CP2, x0, t0=1.0, r=0.8)  # 2r exceeds injectivity bound
    with pytest.raises(ValueError):
        make_query(C2, x0, t0=1.0, r=np.inf)
    # calibrate_r0's cap on CP2, the r0 of the shipped perturbed-cp1 run
    assert make_query(CP2, x0, t0=1.0, r=0.75).r == 0.75
    q = make_query(CP2, x0, t0=1.0, r=0.5)
    assert q.r == 0.5


def test_parabolic_density_requires_future_query_time():
    grid = _plane_grid(n=32)
    q = DensityQuery(x0=_center(), t0=0.5, r=0.3)
    with pytest.raises(ValueError):
        parabolic_density(grid, 0.5, q)


class TestCalibration:
    def test_unit_sphere_returns_surface_scale_cap(self):
        grid = build_surface("round-sphere", C2, radius=1.0, nu=32, nv=16)
        r0 = calibrate_r0(grid, eps0=0.1, seed=0)
        # smooth data never reaches 1 + eps0/2: the cap sqrt(area) is returned
        assert r0 == pytest.approx(np.sqrt(4 * np.pi), rel=1e-6)

    def test_calibrated_radius_passes_monitor(self):
        grid = build_surface("round-sphere", C2, radius=1.0, nu=32, nv=16)
        r0 = calibrate_r0(grid, eps0=0.1, seed=0)
        report = monitor_regularity([(grid, 0.0)], r0, eps0=0.1)
        assert report.n_exceedances == 0
        assert report.max_phi <= 1.1


def _oracle_distances(grid, xs, cs):
    """(len(xs), nodes) distances, elementwise and independent of
    `lift`/`sq_distances`: on CP² the angle between the homogeneous lines
    (1 inserted in each point's chart slot), on the flat models the norm
    of the minimal-image coordinate difference."""
    model, ys, ds = grid.model, grid.coords.reshape(-1, 4), grid.chart_ids.reshape(-1)
    if model.is_flat:
        d = ys[None] - xs[:, None]
        if hasattr(model, "periods"):
            d = d - np.round(d / model.periods) * model.periods
        return np.linalg.norm(d, axis=-1)

    def unit_lines(x, charts):
        z = x[:, 0::2] + 1j * x[:, 1::2]
        h = np.array([np.insert(zk, c, 1.0) for zk, c in zip(z, np.broadcast_to(charts, len(x)))])
        return h / np.linalg.norm(h, axis=-1, keepdims=True)

    cos = np.abs(np.sum(unit_lines(xs, cs)[:, None] * np.conj(unit_lines(ys, ds))[None], axis=-1))
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _oracle_kernel(d, r, tau):
    """The truncated heat kernel written on distances, as an oracle."""
    return cutoff(d, r) * np.exp(-(d**2) / (4.0 * tau)) / (4.0 * np.pi * tau)


def _unblocked_densities(grid, xs, cs, w, r, tau):
    """Whole-matrix oracle: one (len(xs), nodes) distance and kernel array."""
    return _oracle_kernel(_oracle_distances(grid, xs, cs), r, tau) @ w


def _unblocked_calibrate_r0(grid, eps0, seed=0, n_offsurface=100):
    """calibrate_r0 with the node distance matrix cached whole, as an oracle."""
    model = grid.model
    stage1 = compute_mean_curvature(grid)
    floor = 4.0 * float(max(stage1.hu.max(), stage1.hv.max()))
    area = integrate_scalar(grid, np.ones(grid.chart_ids.shape), stage1)
    r_max = min(model.injectivity_radius_bound / 2.0, float(np.sqrt(area)))
    if r_max <= floor:
        raise CalibrationError("empty radius range")
    rng = np.random.default_rng(seed)
    flat_idx = rng.integers(0, grid.nu * grid.nv, size=n_offsurface)
    dirs = rng.normal(size=(n_offsurface, 4))
    fracs = rng.uniform(0.0, 1.0, size=n_offsurface)
    w = quadrature_weights(grid, stage1).reshape(-1)
    all_x = grid.coords.reshape(-1, 4)
    all_c = grid.chart_ids.reshape(-1)
    D_nodes = _oracle_distances(grid, all_x, all_c)
    base_x, base_c = all_x[flat_idx], all_c[flat_idx]
    unit = dirs / model.norm(base_x, dirs)[:, None]

    def ok(r):
        tau = r * r
        best = (_oracle_kernel(D_nodes, r, tau) @ w).max()
        off_x, off_c = model.exp(base_x, base_c, unit * (fracs * r)[:, None])
        best = max(best, _unblocked_densities(grid, off_x, off_c, w, r, tau).max())
        return best <= 1.0 + eps0 / 2.0

    if not ok(floor):
        raise CalibrationError("exceeds at the floor")
    if ok(r_max):
        return r_max
    lo, hi = floor, r_max
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-3 * floor:
            break
    return lo


def _torus_graph(amplitude=0.3, nu=32, nv=24):
    """Torus graph with a mixed term, shifted: its lift spans a whole
    period in x1 and x2, so distances need the minimum image."""
    grid = build_surface("torus-graph", T4, amplitude=amplitude, nu=nu, nv=nv)
    u, v = grid.coords[..., 0].copy(), grid.coords[..., 1].copy()
    grid.coords[..., 2] += 0.4 * np.sin(u + v)
    grid.coords[..., :2] += (2.0, 2.5)
    return grid


_BLOCK_GRIDS = {
    "flat-sphere": (
        lambda: build_surface(
            "round-sphere", C2, radius=0.8, center=(0.1, 0.2, 0.3, 0.4), nu=40, nv=20
        ),
        0.4,
    ),
    # the product form of flat C² cancels here unless it measures the
    # coordinates from a point near the surface
    "far-flat-sphere": (
        lambda: build_surface(
            "round-sphere", C2, radius=0.8, center=(1e4, 0.0, 0.0, 0.0), nu=40, nv=20
        ),
        0.05,
    ),
    "torus-graph": (_torus_graph, 0.8),
    "three-chart-cp2": (
        lambda: build_surface(
            "perturbed-cp1", CP2, delta=0.05, line_coeffs=(2.0, 1.5), nu=48, nv=24
        ),
        0.3,
    ),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_GRIDS))
def test_blocked_densities_match_unblocked_oracle(name):
    make, r = _BLOCK_GRIDS[name]
    grid = make()
    if name == "three-chart-cp2":
        assert len(np.unique(grid.chart_ids)) == 3
    n = grid.nu * grid.nv
    rows = density._BLOCK_ENTRIES // n // 16 * 16
    xs, cs = grid.coords.reshape(-1, 4), grid.chart_ids.reshape(-1)
    w = quadrature_weights(grid).reshape(-1)
    every, odd = np.arange(n), np.arange(1, n, 2)
    # every node and an odd subset as row blocks, both ending in a partial
    # block; the node set (centres None) as node tiles, partial on the
    # 800-node spheres
    for idx in (every, odd):
        assert len(idx) > rows and len(idx) % rows
    if name.endswith("flat-sphere"):
        assert n > density._TILE_ROWS and n % density._TILE_ROWS
    for idx, centres in ((every, (xs, cs)), (odd, (xs[odd], cs[odd])), (every, (None, None))):
        got = density._densities(grid, *centres, w, r, r * r)
        want = _unblocked_densities(grid, xs[idx], cs[idx], w, r, r * r)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("name", sorted(_BLOCK_GRIDS))
def test_nan_node_gives_nan_densities(name):
    """A NaN node is in no mask of the kernel, so every density reads NaN,
    as the cutoff of a NaN distance does.  The NaN node lies in the first
    node tile.  CP² lifts node by node, so there the node sums of later
    tiles see it only through the transposed tile sums; the flat lifts are
    measured from the nodes' mean, which the NaN node makes NaN."""
    make, r = _BLOCK_GRIDS[name]
    grid = make()
    xs, cs = grid.coords.reshape(-1, 4).copy(), grid.chart_ids.reshape(-1)
    w = quadrature_weights(grid).reshape(-1)
    grid.coords[3, 2, 1] = np.nan
    assert 3 * grid.nv + 2 < density._TILE_ROWS < len(w)
    with np.errstate(invalid="ignore"):
        for centres in ((xs[::7], cs[::7]), (None, None)):
            assert np.isnan(density._densities(grid, *centres, w, r, r * r)).all()


@pytest.mark.parametrize("name", sorted(_BLOCK_GRIDS))
def test_parabolic_density_is_one_centre_of_the_sums(name):
    make, r = _BLOCK_GRIDS[name]
    grid = make()
    w = quadrature_weights(grid).reshape(-1)
    k = grid.nu * grid.nv // 3
    x0 = ChartPoint(int(grid.chart_ids.reshape(-1)[k]), grid.coords.reshape(-1, 4)[k])
    got = parabolic_density(grid, 0.0, DensityQuery(x0=x0, t0=r * r, r=r))
    want = density._densities(grid, x0.x[None], [x0.chart_id], w, r, r * r)[0]
    assert got == want
    assert abs(got - _unblocked_densities(grid, x0.x[None], [x0.chart_id], w, r, r * r)[0]) <= 1e-13 * got


@pytest.mark.parametrize(
    "make, eps0",
    [
        (_BLOCK_GRIDS["flat-sphere"][0], 0.1),
        (_BLOCK_GRIDS["three-chart-cp2"][0], 0.1),
        (_torus_graph, 0.1),
        # a threshold 1 + eps0/2 = 0.45, between the maximal densities at
        # the floor (0.44) and at the cap (0.46), makes the bisection run
        (lambda: build_surface("torus-graph", T4, amplitude=0.5, nu=40, nv=32), -1.1),
    ],
)
def test_calibrate_r0_matches_unblocked_copy(make, eps0):
    grid = make()
    r0 = calibrate_r0(grid, eps0, seed=1)
    assert r0 == _unblocked_calibrate_r0(grid, eps0, seed=1)
    if eps0 < 0:
        assert r0 < T4.injectivity_radius_bound / 2  # below the cap


def test_calibrate_r0_forms_each_node_pair_once(monkeypatch):
    """A flat 40x20 sphere is calibrated at the cap after two probes.  Each
    probe sums the node densities over node tiles i <= j, at most
    n (n + b) / 2 kernel entries, and 100 off-surface centres against the n
    nodes; forming every node pair twice would take n^2 + 100 n a probe."""
    grid = _BLOCK_GRIDS["flat-sphere"][0]()
    n, b = grid.nu * grid.nv, density._TILE_ROWS
    entries = []
    sq_distances = grid.model.sq_distances

    def counted(a, c):
        d2 = sq_distances(a, c)
        entries.append(d2.size)
        return d2

    monkeypatch.setattr(grid.model, "sq_distances", counted)
    r0 = calibrate_r0(grid, eps0=0.1)
    assert r0 == pytest.approx(np.sqrt(4 * np.pi * 0.8**2), rel=1e-3)  # the cap sqrt(area)
    assert sum(entries) <= 2 * (n * (n + b) // 2 + 100 * n)


def test_calibration_and_monitor_memory_is_bounded():
    """A flat 64x32 sphere: the whole-matrix evaluation peaked at about
    320 MB; row blocks and node tiles with the kernel written over their
    squared distances keep the traced peak near 5 MB (5.1 MB measured; the
    calibration alone 4.5 MB, and 5.6 MB when its on-surface probe ran in
    row blocks; 16 MB when each block formed distances and kernel as
    separate arrays)."""
    grid = build_surface("round-sphere", C2, radius=1.0, nu=64, nv=32)
    tracemalloc.start()
    try:
        r0 = calibrate_r0(grid, eps0=0.1)
        monitor_regularity([(grid, 0.0)], r0, eps0=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48e6


class TestMonitor:
    def test_row_budget_and_fields(self):
        grid = build_surface("round-sphere", C2, radius=1.0, nu=64, nv=32)
        report = monitor_regularity([(grid, 0.0), (grid, 0.1)], r0=0.5, eps0=0.1)
        assert len(report.rows) <= 2 * 500
        assert report.rows[0].t0 == pytest.approx(0.25)
        assert report.rows[-1].t0 == pytest.approx(0.1 + 0.25)
        assert report.r0 == 0.5 and report.eps0 == 0.1
        assert report.max_phi == max(r.phi for r in report.rows)

    def test_smooth_sphere_has_no_exceedance(self):
        grid = build_surface("round-sphere", C2, radius=1.0, nu=32, nv=16)
        report = monitor_regularity([(grid, 0.0)], r0=0.4, eps0=0.1)
        assert report.n_exceedances == 0


def test_extinction_center_density_peaks_at_4_over_e():
    """Static sphere of radius R seen from its center: Phi(tau) =
    (R^2/tau) e^{-R^2/(4 tau)}, maximized at tau = R^2/4 with value 4/e.
    This is the White-style exceedance signal near an extinction point."""
    R = 0.5
    grid = build_surface("round-sphere", C2, radius=R, nu=64, nv=32)
    center = ChartPoint(0, np.zeros(4))
    tau_star = R * R / 4
    q = DensityQuery(x0=center, t0=tau_star, r=2 * R)
    phi = parabolic_density(grid, 0.0, q)
    assert phi == pytest.approx(4 / np.e, rel=1e-4)
    assert phi > 1.1  # flags as an exceedance at eps0 = 0.1
    # smaller and larger kernel scales both sit below the peak
    for tau in (tau_star / 4, 4 * tau_star):
        assert parabolic_density(grid, 0.0, DensityQuery(x0=center, t0=tau, r=2 * R)) < phi


class TestDerivativeIdentity:
    def test_curved_model_rejected(self):
        grid = build_surface("perturbed-cp1", CP2, delta=0.0, nu=16, nv=8)
        q = DensityQuery(x0=ChartPoint(0, np.zeros(4)), t0=1.0, r=0.5)
        with pytest.raises(CurvedModelError):
            density_derivative_check((grid, 0.0), (grid, 0.01), (grid, 0.02), q)

    def test_shrinking_sphere_discrepancy_small(self):
        grid = build_surface("round-sphere", C2, radius=1.0, nu=64, nv=32)
        cfg = FlowConfig(t_end=1.0)
        s0 = FlowState(grid=grid.copy(), t=0.0, step_index=0)
        s1 = step(s0, cfg)
        s2 = step(s1, cfg)
        q = DensityQuery(
            x0=ChartPoint(0, np.array([0.0, 0.0, 1.02, 0.0])), t0=0.3, r=0.45
        )
        disc = density_derivative_check(
            (s0.grid, s0.t), (s1.grid, s1.t), (s2.grid, s2.t), q
        )
        assert abs(disc) < 5e-3
