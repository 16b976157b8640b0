"""Discrete surface geometry against analytic oracles: induced metric,
quadrature, mean curvature, Kähler angle, Laplacian, snapshot IO."""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kflow import immersion
from kflow.ambient import FlatT4, apply_J, get_model
from kflow.errors import DegenerateImmersionError
from kflow.immersion import (
    _D1,
    _D2,
    SNAPSHOT_FORMAT,
    GridGeometry,
    SurfaceGrid,
    _taps,
    compute_geometry,
    compute_mean_curvature,
    frame_rotated_scalars,
    grid_partials,
    integrate_scalar,
    laplace_beltrami,
    load_grid,
    nabla_J_squared,
    quadrature_weights,
    save_grid,
    sphere_latitude_weights,
)
from kflow.surfaces import build_surface

C2 = get_model("flat-C2")
T4 = get_model("flat-T4")
CP2 = get_model("Fubini-Study-CP2")


def _gram(model, x):
    """The metric's (..., 4, 4) Gram matrix: `inner` on coordinate basis vectors."""
    basis = np.eye(4)
    return model.inner(x[..., None, None, :], basis[:, None, :], basis)


def _tilted_plane(theta, nu=16, nv=16):
    """Plane spanned by dx1 and cos(theta) dy1 + sin(theta) dx2:
    constant Kähler angle with cos(alpha) = cos(theta)."""
    return build_surface(
        "plane",
        C2,
        a_dir=(1.0, 0.0, 0.0, 0.0),
        b_dir=(0.0, np.cos(theta), 0.0, np.sin(theta)),
        nu=nu,
        nv=nv,
    )


class TestPlane:
    def test_holomorphic_line_is_minimal_and_holomorphic(self):
        geom = compute_geometry(build_surface("plane", C2, nu=16, nv=16))
        assert np.abs(geom.H).max() < 1e-11
        assert np.abs(geom.cos_alpha - 1.0).max() < 1e-12
        assert np.abs(geom.nablaJ_sq).max() < 1e-10

    def test_lagrangian_plane_has_zero_cos_alpha(self):
        geom = compute_geometry(_tilted_plane(np.pi / 2))
        assert np.abs(geom.cos_alpha).max() < 1e-12

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.2])
    def test_tilted_plane_kahler_angle(self, theta):
        grid = _tilted_plane(theta)
        geom = compute_geometry(grid)
        assert np.abs(geom.cos_alpha - np.cos(theta)).max() < 1e-11
        assert abs(geom.cos_alpha[3, 5] - np.cos(theta)) < 1e-11

    def test_area_is_extent_product(self):
        grid = build_surface("plane", C2, extent=(1.5, 0.8), nu=16, nv=16)
        area = integrate_scalar(grid, np.ones((16, 16)))
        assert abs(area - 1.5 * 0.8) < 1e-12

    def test_induced_metric_of_unit_spans(self):
        geom = compute_geometry(build_surface("plane", C2, nu=16, nv=16))
        du = 2 * np.pi / 16
        oracle = np.array([[1.0, 0.0], [0.0, 1.0]]) * (1 / (2 * np.pi)) ** 2
        s = geom.stage1
        assert np.abs(_sym2(s.g11, s.g12, s.g22) - oracle).max() < 1e-13
        assert np.abs(geom.sqrtg - (1 / (2 * np.pi)) ** 2).max() < 1e-13
        del du


class TestRoundSphere:
    grid = build_surface("round-sphere", C2, radius=0.7, nu=64, nv=32)
    geom = compute_geometry(grid)

    def test_area(self):
        area = integrate_scalar(self.grid, np.ones((64, 32)), self.geom)
        assert abs(area - 4 * np.pi * 0.7**2) / (4 * np.pi * 0.7**2) < 1e-7

    def test_mean_curvature_magnitude(self):
        # |H| = 2/R for the round sphere
        assert np.abs(np.sqrt(self.geom.H_norm_sq) - 2 / 0.7).max() < 1e-5

    def test_mean_curvature_points_inward(self):
        center = self.grid.coords - np.array([0, 0, 0, 0])
        inward = -center / 0.7
        Hhat = self.geom.H / np.sqrt(self.geom.H_norm_sq)[..., None]
        assert np.abs(Hhat - inward).max() < 1e-5

    def test_second_fundamental_norm(self):
        # umbilic: |A|^2 = 2/R^2
        assert np.abs(self.geom.A_sq - 2 / 0.7**2).max() < 1e-4

    def test_fast_path_matches_full_geometry(self):
        stage1 = compute_mean_curvature(self.grid)
        assert np.abs(stage1.H - self.geom.H).max() < 1e-12
        assert np.abs(stage1.sqrtg - self.geom.sqrtg).max() < 1e-12
        assert np.abs(stage1.H_norm_sq - self.geom.H_norm_sq).max() < 1e-12

    def test_latitude_weights_integrate_sin(self):
        # weights multiply nodal f*sqrt(g); on the unit sphere sqrt(g) = sin v,
        # so sum(sin(v) * w) must be the exact integral of sin over [0, pi]
        for nv in (16, 32, 48):
            v = (np.arange(nv) + 0.5) * np.pi / nv
            w = sphere_latitude_weights(nv)
            assert abs(np.sin(v) @ w - 2.0) < 1e-10

    def test_quadrature_weights_sum_to_area(self):
        w = quadrature_weights(self.grid, self.geom)
        assert w.shape == (64, 32)
        assert abs(w.sum() - 4 * np.pi * 0.7**2) / (4 * np.pi * 0.7**2) < 1e-7


class TestHolomorphicSphereCP2:
    grid = build_surface("perturbed-cp1", CP2, delta=0.0, nu=64, nv=32)
    geom = compute_geometry(grid)

    def test_holomorphic_and_minimal(self):
        assert np.abs(self.geom.cos_alpha - 1.0).max() < 1e-9
        assert np.sqrt(self.geom.H_norm_sq).max() < 1e-4
        assert self.geom.nablaJ_sq.max() < 1e-7

    def test_area_is_pi(self):
        # degree-1 curve under the potential log(1 + |z|^2): area pi
        area = integrate_scalar(self.grid, np.ones((64, 32)), self.geom)
        assert abs(area - np.pi) / np.pi < 1e-6

    def test_grid_uses_multiple_charts(self):
        assert len(np.unique(self.grid.chart_ids)) > 1


def test_curvature_pinching_inequality_perturbed_sphere():
    """|nabla J|^2 >= |H|^2 / 2 pointwise on a symplectic surface."""
    grid = build_surface("perturbed-cp1", CP2, delta=0.08, nu=48, nv=24)
    geom = compute_geometry(grid)
    assert geom.cos_alpha.min() > 0
    assert (geom.nablaJ_sq - 0.5 * geom.H_norm_sq).min() > -1e-10


def test_nabla_J_squared_four_terms():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(5, 2, 2, 2))
    h = 0.5 * (h + np.swapaxes(h, -1, -2))  # symmetric in (i, j)
    want = (
        (h[:, 1, 0, 0] + h[:, 0, 0, 1]) ** 2
        + (h[:, 1, 1, 0] + h[:, 0, 1, 1]) ** 2
        + (h[:, 1, 0, 1] - h[:, 0, 0, 0]) ** 2
        + (h[:, 1, 1, 1] - h[:, 0, 1, 0]) ** 2
    )
    assert np.allclose(nabla_J_squared(h), want)


def test_laplace_beltrami_flat_torus_eigenfunctions():
    grid = build_surface("torus-graph", T4, amplitude=0.0, nu=64, nv=64)
    geom = compute_geometry(grid)
    uu = np.arange(64)[:, None] * (2 * np.pi / 64) * np.ones((1, 64))
    vv = np.ones((64, 1)) * np.arange(64)[None, :] * (2 * np.pi / 64)
    f = np.sin(2 * uu) + np.cos(3 * vv)
    lap = laplace_beltrami(grid, f, geom)
    oracle = -4 * np.sin(2 * uu) - 9 * np.cos(3 * vv)
    assert np.abs(lap - oracle).max() < 2e-4


# degree and harmonic in the unit-sphere coordinates x1, x2, x3, the
# ambient (x1, y1, x2) over the radius
_SPHERE_HARMONICS = {
    "x3": (1, lambda x1, x2, x3: x3),
    "3x3^2-1": (2, lambda x1, x2, x3: 3 * x3**2 - 1),
    "x1x3": (2, lambda x1, x2, x3: x1 * x3),
    "x1x2x3": (3, lambda x1, x2, x3: x1 * x2 * x3),
    "Re(x1+ix2)^4": (4, lambda x1, x2, x3: ((x1 + 1j * x2) ** 4).real),
}


@pytest.mark.parametrize("name", sorted(_SPHERE_HARMONICS))
def test_laplace_beltrami_sphere_harmonics(name):
    """A degree-l harmonic on the radius-R round sphere has Lap f =
    -l(l+1) f / R^2, to 1e-4 at every node of 64 x 32, the rows next to the
    poles included, and at order 4 or more to 128 x 64."""
    l, harmonic = _SPHERE_HARMONICS[name]
    R = 1.3
    errs = []
    for nu, nv in ((64, 32), (128, 64)):
        grid = build_surface("round-sphere", C2, radius=R, nu=nu, nv=nv)
        f = harmonic(*np.moveaxis(grid.coords[..., :3] / R, -1, 0))
        errs.append(np.abs(laplace_beltrami(grid, f) + l * (l + 1) / R**2 * f).max())
    assert errs[0] < 1e-4, errs
    assert np.log2(errs[0] / errs[1]) >= 4, errs


def test_laplace_beltrami_cp2_line():
    """The line {Z2 = 0} in CP² is a round sphere of area pi, radius 1/2,
    whose colatitude is the grid's v: f = cos v has Lap f = -8 f.  The
    error at every node, over three charts, falls at order 4 or more."""
    errs = []
    for nu, nv in ((32, 16), (64, 32), (128, 64)):
        grid = build_surface("perturbed-cp1", CP2, delta=0.0, nu=nu, nv=nv)
        f = np.cos((np.arange(nv) + 0.5) * np.pi / nv) * np.ones((nu, 1))
        errs.append(np.abs(laplace_beltrami(grid, f) + 8 * f).max())
    assert min(np.log2(np.divide(errs[:-1], errs[1:]))) >= 4, errs


def test_frame_rotation_leaves_scalars_invariant():
    grid = build_surface("perturbed-cp1", CP2, delta=0.05, nu=32, nv=16)
    geom = compute_geometry(grid)
    rng = np.random.default_rng(7)
    for _ in range(5):
        rot = frame_rotated_scalars(geom, rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        for key in ("H_norm_sq", "cos_alpha", "nablaJ_sq", "A_sq"):
            assert np.abs(rot[key] - getattr(geom, key)).max() < 1e-10


def test_adapted_frame_is_orthonormal():
    grid = build_surface("perturbed-cp1", CP2, delta=0.05, nu=32, nv=16)
    geom = compute_geometry(grid)
    G = _gram(CP2, grid.coords)
    gram = np.einsum("...ia,...ab,...jb->...ij", geom.frame, G, geom.frame)
    assert np.abs(gram - np.eye(4)).max() < 1e-10


# The former construction of v2: <v2, X> = sqrt(det G) eps(e1, e2, v1, X),
# raised with the inverse metric (kept here as an oracle).
_EPS4 = np.zeros((4, 4, 4, 4))
for _perm in itertools.permutations(range(4)):
    _EPS4[_perm] = np.linalg.det(np.eye(4)[list(_perm)])


def _frame_test_grids():
    cp2 = build_surface("perturbed-cp1", CP2, delta=0.05, line_coeffs=(2.0, 1.5), nu=32, nv=16)
    assert len(np.unique(cp2.chart_ids)) == 3
    return [cp2, _shifted_torus(), build_surface("round-sphere", C2, radius=0.8, nu=32, nv=16)]


@pytest.mark.parametrize("index", range(3))
def test_v2_matches_eps4_oracle(index):
    grid = _frame_test_grids()[index]
    geom = compute_geometry(grid)
    e1, e2, v1, v2 = np.moveaxis(geom.frame, -2, 0)
    G = _gram(grid.model, grid.coords)
    w = np.sqrt(np.linalg.det(G))[..., None] * np.einsum("abcd,...a,...b,...c->...d", _EPS4, e1, e2, v1)
    want = np.einsum("...da,...a->...d", np.linalg.inv(G), w)
    want /= np.sqrt(np.einsum("...a,...ab,...b->...", want, G, want))[..., None]
    assert np.abs(v2 - want).max() < 1e-14


@pytest.mark.parametrize("index", range(3))
def test_frame_is_positively_oriented(index):
    """sqrt(det G) eps(e1, e2, v1, v2) = +1: the frame has the ambient's
    complex orientation."""
    grid = _frame_test_grids()[index]
    geom = compute_geometry(grid)
    G = _gram(grid.model, grid.coords)
    vol = np.sqrt(np.linalg.det(G)) * np.linalg.det(geom.frame)
    assert np.abs(vol - 1.0).max() < 1e-13


def test_snapshot_roundtrip(tmp_path):
    grid = build_surface("perturbed-cp1", CP2, delta=0.03, nu=16, nv=8)
    path = tmp_path / "snap.json"
    save_grid(path, grid, t=0.625)
    grid2, t = load_grid(path, model=CP2)
    assert t == 0.625
    assert grid2.topology == grid.topology
    assert np.array_equal(grid2.chart_ids, grid.chart_ids)
    assert np.abs(grid2.coords - grid.coords).max() == 0.0
    assert json.loads(path.read_text())["format"] == SNAPSHOT_FORMAT


def _snapshot_doc(grid, t):
    """The whole snapshot as one dict, in the key order of the format."""
    doc = {
        "format": SNAPSHOT_FORMAT,
        "topology": grid.topology,
        "nu": grid.nu,
        "nv": grid.nv,
        "model": grid.model.name,
        "chart_ids": grid.chart_ids.tolist(),
        "coords": grid.coords.tolist(),
    }
    if hasattr(grid.model, "periods"):
        doc["model_periods"] = grid.model.periods.tolist()
    if grid.period_offsets is not None:
        doc["period_offsets"] = grid.period_offsets.tolist()
    doc["t"] = float(t)
    return doc


def _snapshot_grids():
    """A flat sphere, a CP² grid on all three charts, and a T⁴ plane with
    lattice periods, closed by lattice offsets."""
    t4 = FlatT4(periods=(2 * np.pi, 2 * np.pi, 3.0, 3.0))
    grids = [
        build_surface("round-sphere", C2, nu=16, nv=8),
        build_surface("perturbed-cp1", CP2, delta=0.05, line_coeffs=(2.0, 1.5), nu=16, nv=8),
        build_surface(
            "plane", t4, a_dir=(2 * np.pi, 0.0, 0.0, 0.0), b_dir=(0.0, 2 * np.pi, 3.0, 0.0),
            nu=8, nv=6,
        ),
    ]
    assert set(np.unique(grids[1].chart_ids)) == {0, 1, 2}
    assert grids[2].period_offsets is not None
    return grids


# t = 0.0 is every run's first snapshot
@pytest.mark.parametrize("t", [0.0, 0.625], ids=["t-zero", "t"])
@pytest.mark.parametrize("index", range(3), ids=["sphere", "cp2-three-charts", "t4-offsets"])
def test_save_grid_bytes_are_json_dumps_of_the_document(tmp_path, index, t):
    grid = _snapshot_grids()[index]
    path = tmp_path / "snap.json"
    save_grid(path, grid, t=t)
    assert path.read_bytes() == json.dumps(_snapshot_doc(grid, t)).encode()


@pytest.mark.parametrize("bad", [3, -1])
def test_surface_grid_rejects_chart_ids_out_of_range(bad):
    grid = build_surface("perturbed-cp1", CP2, delta=0.0, nu=8, nv=4)
    chart_ids = grid.chart_ids.copy()
    chart_ids[0, 0] = bad
    with pytest.raises(ValueError, match=r"chart ids must lie in \[0, 3\)"):
        SurfaceGrid(topology="sphere", model=CP2, chart_ids=chart_ids, coords=grid.coords)


def test_surface_grid_rejects_t4_offsets_off_the_lattice():
    t4 = FlatT4(periods=(2 * np.pi, 2 * np.pi, 3.0, 3.0))
    with pytest.raises(ValueError, match="not lattice vectors"):
        build_surface("plane", t4, b_dir=(0.0, 1.0, 0.3, 0.0), nu=8, nv=6)


def test_snapshot_with_orientation_key_loads(tmp_path):
    """Snapshots written before the dead "orientation" field was dropped
    still carry the key; they load to the same grid."""
    grid = _snapshot_grids()[1]
    doc = _snapshot_doc(grid, 0.25)
    doc["orientation"] = 1
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    back, t = load_grid(path)
    assert t == 0.25
    assert np.array_equal(back.chart_ids, grid.chart_ids)
    assert np.array_equal(back.coords, grid.coords)
    save_grid(path, back, t=t)
    assert "orientation" not in json.loads(path.read_text())


def test_save_grid_memory_is_bounded(tmp_path):
    """The coordinates are written row by row: on a 128x64 sphere the traced
    peak stays below 1.5 MB (one json.dumps of the whole document: ~5.3 MB)."""
    grid = build_surface("round-sphere", C2, nu=128, nv=64)
    tracemalloc.start()
    try:
        save_grid(tmp_path / "snap.json", grid, t=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


@settings(max_examples=25, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_integrate_scalar_is_linear(a, b):
    grid = build_surface("round-sphere", C2, nu=16, nv=8)
    geom = compute_geometry(grid)
    rng = np.random.default_rng(0)
    f = rng.normal(size=(16, 8))
    g = rng.normal(size=(16, 8))
    lhs = integrate_scalar(grid, a * f + b * g, geom)
    rhs = a * integrate_scalar(grid, f, geom) + b * integrate_scalar(grid, g, geom)
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, np.pi - 0.05))
def test_tilted_plane_angle_property(theta):
    geom = compute_geometry(_tilted_plane(theta, nu=8, nv=8))
    assert np.abs(geom.cos_alpha - np.cos(theta)).max() < 1e-10


# -- oracle: the neighbour-gather stencils replaced by the padded lift -------
# Copied from the former immersion.py and the models' local_coords: every
# neighbour (i + a, j + b) is fancy-indexed and re-expressed in the centre's
# chart.


def _local_coords(model, center_chart, q_x, q_chart):
    """Coordinates of the points q expressed in a centre's chart (CP²)."""
    out = np.empty_like(q_x)
    for c in np.unique(q_chart):
        mask = q_chart == c
        out[mask] = model.to_chart(q_x[mask], int(c), center_chart)
    return out


_INDEX_CACHE: dict = {}


def _neighbor_index(grid: SurfaceGrid, a, b):
    """Logical neighbor (i+a, j+b) -> (iu, jv, wrap_u, wrap_v) index arrays."""
    nu, nv = grid.nu, grid.nv
    key = (grid.topology, nu, nv, a, b)
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    i = np.arange(nu)[:, None] + a
    j = np.broadcast_to(np.arange(nv)[None, :] + b, (nu, nv)).copy()
    i = np.broadcast_to(i, (nu, nv)).copy()
    wu = np.floor_divide(i, nu)
    iu = i - wu * nu
    if grid.topology == "torus":
        wv = np.floor_divide(j, nv)
        jv = j - wv * nv
    else:
        wv = np.zeros_like(j)
        jv = j.copy()
        below = jv < 0
        above = jv >= nv
        jv[below] = -1 - jv[below]
        jv[above] = 2 * nv - 1 - jv[above]
        shift = below | above
        iu[shift] = (iu[shift] + nu // 2) % nu
    _INDEX_CACHE[key] = (iu, jv, wu, wv)
    return iu, jv, wu, wv


def gather_neighbor_coords(grid: SurfaceGrid, a, b):
    """Coordinates of node (i+a, j+b) expressed in node (i, j)'s chart."""
    iu, jv, wu, wv = _neighbor_index(grid, a, b)
    qx = grid.coords[iu, jv]
    model = grid.model
    if model.is_flat:
        out = qx
    else:
        qc = grid.chart_ids[iu, jv]
        cc = grid.chart_ids
        out = np.empty_like(qx)
        for c in np.unique(cc):
            m = cc == c
            out[m] = _local_coords(model, int(c), qx[m], qc[m])
    if grid.period_offsets is not None:
        out = out + wu[..., None] * grid.period_offsets[0]
        out = out + wv[..., None] * grid.period_offsets[1]
    return out


def gathered_partials(grid: SurfaceGrid):
    """The former `grid_partials`: 48 neighbour gathers per call.  Returns
    the five partials and, for each, its number of terms and the sum of
    |c| |x| over them (scaled like the partial), for `_assert_rounding`."""
    du, dv = grid.du, grid.dv
    shape = grid.coords.shape
    sums = [np.zeros(shape) for _ in range(5)]  # Fu, Fv, Fuu, Fuv, Fvv
    mags = [np.zeros(shape) for _ in range(5)]

    def add(k, c, x):
        sums[k] += c * x
        mags[k] += abs(c) * np.abs(x)

    for off, c1, c2 in zip(range(-3, 4), _D1, _D2):
        nb = grid.coords if off == 0 else gather_neighbor_coords(grid, off, 0)
        if c1 != 0.0:
            add(0, c1, nb)
        add(2, c2, nb)
        nb = grid.coords if off == 0 else gather_neighbor_coords(grid, 0, off)
        if c1 != 0.0:
            add(1, c1, nb)
        add(4, c2, nb)
    for oa, ca in zip(range(-3, 4), _D1):
        for ob, cb in zip(range(-3, 4), _D1):
            if ca != 0.0 and cb != 0.0:
                add(3, ca * cb, gather_neighbor_coords(grid, oa, ob))
    scales = (du, dv, du**2, du * dv, dv**2)
    terms = (6, 6, 7, 36, 7)
    return [(s / h, n, m / h) for s, n, m, h in zip(sums, terms, mags, scales)]


def _assert_rounding(got, want, n, mag, name):
    """|got - want| <= 4 n eps sum|c||x| at every entry: the two differ
    only in the order and grouping of the n products of a stencil sum."""
    assert np.isfinite(got).all(), name
    bound = 4 * n * np.finfo(float).eps * mag
    assert np.all(np.abs(got - want) <= bound), (name, np.max(np.abs(got - want) - bound))


def _shifted_torus(nu=32, nv=24):
    """Torus graph with a mixed term, shifted so that its lift starts
    mid-period; its ghosts carry the lattice offsets."""
    grid = build_surface("torus-graph", T4, amplitude=0.3, nu=nu, nv=nv)
    u, v = grid.coords[..., 0].copy(), grid.coords[..., 1].copy()
    grid.coords[..., 2] += 0.4 * np.sin(u + v)
    grid.coords[..., :2] += (2.0, 2.5)
    return grid


def _bumped_plane():
    """Quasi-periodic plane with a periodic bump, so that every second
    derivative is nonzero."""
    grid = build_surface(
        "plane", C2, a_dir=(1.0, 0.2, 0.0, 0.3), b_dir=(0.0, 1.0, 0.5, 0.0),
        extent=(1.5, 0.8), nu=16, nv=12,
    )
    u = np.arange(16)[:, None] * (2 * np.pi / 16)
    v = np.arange(12)[None, :] * (2 * np.pi / 12)
    grid.coords[..., 3] += 0.1 * np.sin(u) * np.cos(2 * v)
    return grid


def _small_t4_torus(n):
    """An n x n torus in T⁴ with random nodes: every stencil wraps the
    grid, twice when n = 2, and its ghosts carry the lattice offsets."""
    model = FlatT4(periods=(2.0, 3.0, 2.5, 4.0))
    rng = np.random.default_rng(n)
    offsets = np.array([[2.0, 0.0, 2.5, 0.0], [0.0, -3.0, 0.0, 4.0]])
    return SurfaceGrid("torus", model, np.zeros((n, n), dtype=int),
                       rng.normal(size=(n, n, 4)), period_offsets=offsets)


def _small_sphere():
    """The smallest sphere grid the stencils support: 4 x 3, every ghost
    column reflected across a pole, perturbed off the round sphere."""
    grid = build_surface("round-sphere", C2, radius=0.8, nu=4, nv=3)
    grid.coords += 0.05 * np.random.default_rng(7).normal(size=grid.coords.shape)
    return grid


_ORACLE_GRIDS = {
    "plane": _bumped_plane,
    "torus-graph": _shifted_torus,
    "round-sphere": lambda: build_surface(
        "round-sphere", C2, radius=0.8, center=(0.1, 0.2, 0.3, 0.4), nu=64, nv=32
    ),
    "cp1": lambda: build_surface("perturbed-cp1", CP2, delta=0.0, nu=32, nv=16),
    "perturbed-cp1": lambda: build_surface(
        "perturbed-cp1", CP2, delta=0.05, line_coeffs=(2.0, 1.5), nu=32, nv=16
    ),
    "sphere-4x3": _small_sphere,
    "t4-2x2": lambda: _small_t4_torus(2),
    "t4-4x4": lambda: _small_t4_torus(4),
}


@pytest.mark.parametrize("family", sorted(_ORACLE_GRIDS))
def test_sliced_partials_match_gathered_oracle(family):
    grid = _ORACLE_GRIDS[family]()
    if family == "perturbed-cp1":
        assert len(np.unique(grid.chart_ids)) == 3
    got = grid_partials(grid)
    for name, g, (want, n, mag) in zip(("Fu", "Fv", "Fuu", "Fuv", "Fvv"), got, gathered_partials(grid)):
        _assert_rounding(g, want, n, mag, name)


@pytest.mark.parametrize("axis", [0, 1])
def test_stencil_taps_are_shifted_views_inside_their_buffer(axis):
    """Tap k is the array shifted by k along the axis, also on a strided
    slice, whose neighbours outside the slice are never read."""
    padded = np.random.default_rng(0).normal(size=(10, 12, 2))
    a = padded[:, 3:-3] if axis == 0 else padded[2:-1]
    taps = _taps(a, axis)
    n = a.shape[axis] - 6
    for k in range(7):
        shifted = np.take(a, np.arange(k, k + n), axis=axis)
        assert np.array_equal(taps[k], shifted.reshape(len(shifted), -1))
    assert not taps.flags.writeable
    with pytest.raises(IndexError):
        _taps(np.take(a, np.arange(6), axis=axis), axis)  # no centre: tap 6 would leave it
    with pytest.raises(ValueError, match="contiguous"):
        _taps(padded[:, :, ::2], axis)


def test_sphere_grid_needs_three_latitude_rows():
    with pytest.raises(ValueError, match="latitude rows"):
        build_surface("round-sphere", C2, nu=4, nv=2)


# -- stage 2 against the broadcast-einsum construction it replaced -----------


def _broadcast_adapted_frames(model, x, Fu, Fv):
    """Adapted frames with the normal seed chosen by a (..., 4, 4) broadcast
    over the coordinate basis."""

    def normalize(v):
        return v / np.sqrt(model.inner(x, v, v))[..., None]

    e1 = normalize(Fu)
    e2 = normalize(Fv - model.inner(x, e1, Fv)[..., None] * e1)
    basis = np.eye(4)
    xb = x[..., None, :]
    be1 = model.inner(xb, basis, e1[..., None, :])
    be2 = model.inner(xb, basis, e2[..., None, :])
    seed = np.argmin((be1**2 + be2**2) / model.inner(xb, basis, basis), axis=-1)[..., None]
    pick = lambda a: np.take_along_axis(a, seed, -1)
    v1 = normalize(basis[seed[..., 0]] - pick(be1) * e1 - pick(be2) * e2)
    omega = lambda a, b: model.inner(x, apply_J(a), b)[..., None]
    v2 = omega(e1, e2) * apply_J(v1) - omega(e1, v1) * apply_J(e2)
    v2 = normalize(v2 + omega(e2, v1) * apply_J(e1))
    return np.stack([e1, e2, v1, v2], axis=-2)


_STAGE2_FIELDS = ("h", "H", "H_norm_sq", "cos_alpha", "sin_sq_alpha", "nablaJ_sq", "A_sq")


def _sym2(a, b, c):
    """The symmetric 2x2 matrices [[a, b], [b, c]]."""
    return np.stack([a, b, b, c], axis=-1).reshape(a.shape + (2, 2))


def _broadcast_second_fundamental(model, x, stage1, frame):
    """The stage-2 fields from h on (`_STAGE2_FIELDS`), by broadcast einsums
    over (..., 2, 2, 4) stacks, and for each field the sum of the absolute
    values of the terms its entries are formed from.  In those sums
    Euclidean norms stand in for ambient inner products: every model's
    metric is at most the identity, and so is the rounding of an inner
    product relative to |u||w|."""
    normals = frame[..., 2:, :]
    F = np.stack([stage1.Fu, stage1.Fv], axis=-2)
    M = model.inner(x[..., None, None, :], F[..., :, None, :], frame[..., None, :2, :])
    ginv = _sym2(*stage1.inv)
    C = ginv @ M
    Tuu, Tuv, Tvv = stage1.T
    T = np.stack([Tuu, Tuv, Tuv, Tvv], axis=-2).reshape(Tuu.shape[:-1] + (1, 2, 2, 4))
    htilde = model.inner(x[..., None, None, None, :], T, normals[..., :, None, None, :])
    h = np.einsum("...nab,...ai,...bj->...nij", htilde, C, C, optimize=True)
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    Halpha = np.einsum("...ab,...nab->...n", ginv, htilde)
    je1 = apply_J(frame[..., 0, :])
    values = (
        h,
        np.einsum("...n,...nd->...d", Halpha, normals),
        np.einsum("...n,...n->...", Halpha, Halpha),
        model.inner(x, je1, frame[..., 1, :]),
        model.inner(x, je1, frame[..., 2, :]) ** 2 + model.inner(x, je1, frame[..., 3, :]) ** 2,
        nabla_J_squared(h),
        np.einsum("...nij->...", h**2),
    )

    norm = lambda v: np.linalg.norm(v, axis=-1)
    fn = norm(frame)
    ginv = np.abs(ginv)
    mC = ginv @ (norm(F)[..., :, None] * fn[..., None, :2])
    mht = norm(T) * fn[..., 2:, None, None]
    mh = np.einsum("...nab,...ai,...bj->...nij", mht, mC, mC)
    mHa = np.einsum("...ab,...nab->...n", ginv, mht)
    pair = lambda a, b: (mh[..., a[0], a[1], a[2]] + mh[..., b[0], b[1], b[2]]) ** 2
    mags = (
        mh,
        np.einsum("...n,...n->...", mHa, fn[..., 2:])[..., None],
        np.sum(mHa**2, axis=-1),
        fn[..., 0] * fn[..., 1],
        fn[..., 0] ** 2 * (fn[..., 2] ** 2 + fn[..., 3] ** 2),
        pair((1, 0, 0), (0, 0, 1)) + pair((1, 1, 0), (0, 1, 1)) + pair((1, 0, 1), (0, 0, 0)) + pair((1, 1, 1), (0, 1, 0)),
        np.sum(mh**2, axis=(-3, -2, -1)),
    )
    return values, mags


_STAGE2_GRIDS = {
    "flat-sphere-32x16": lambda: build_surface("round-sphere", C2, radius=0.8, nu=32, nv=16),
    "t4-graph-32x32": lambda: _shifted_torus(nu=32, nv=32),
    "cp1-three-charts": lambda: build_surface(
        "perturbed-cp1", CP2, delta=0.05, line_coeffs=(2.0, 1.5), nu=32, nv=16
    ),
}

# The explicit 2x2 algebra and the broadcast einsums evaluate the same sums
# in another order and grouping, on inner products that may round
# differently: every entry must agree within _STAGE2_ULPS * eps times the
# sum of the absolute values of its terms.
_STAGE2_ULPS = 16


def _assert_stage2_fields(got, want, mags, what):
    for name, g, w, m in zip(_STAGE2_FIELDS, got, want, mags):
        assert np.isfinite(g).all() and g.shape == w.shape, (what, name)
        excess = np.abs(g - w) - _STAGE2_ULPS * np.finfo(float).eps * m
        assert np.all(excess <= 0), (what, name, excess.max())


@pytest.mark.parametrize("family", sorted(_STAGE2_GRIDS))
def test_stage2_matches_broadcast_oracle(family):
    """Every GridGeometry field, and frame_rotated_scalars at random
    angles, against the broadcast-einsum construction."""
    grid = _STAGE2_GRIDS[family]()
    if family == "cp1-three-charts":
        assert len(np.unique(grid.chart_ids)) == 3
    model, x = grid.model, grid.coords
    geom = compute_geometry(grid)
    stage1 = geom.stage1
    checked = {"grid", "stage1", "frame", *_STAGE2_FIELDS}
    assert checked == {f.name for f in dataclasses.fields(GridGeometry)}
    assert geom.grid is grid
    assert geom.sqrtg is stage1.sqrtg

    frame = _broadcast_adapted_frames(model, x, stage1.Fu, stage1.Fv)
    bound = _STAGE2_ULPS * np.finfo(float).eps * np.linalg.norm(frame, axis=-1)[..., None]
    assert np.all(np.abs(geom.frame - frame) <= bound), np.max(np.abs(geom.frame - frame) - bound)
    want, mags = _broadcast_second_fundamental(model, x, stage1, geom.frame)
    _assert_stage2_fields([getattr(geom, name) for name in _STAGE2_FIELDS], want, mags, "geometry")

    rng = np.random.default_rng(11)
    f = geom.frame
    for theta, psi in rng.uniform(0, 2 * np.pi, size=(4, 2)):
        rot = frame_rotated_scalars(geom, theta, psi)
        c, s, cp, sp = np.cos(theta), np.sin(theta), np.cos(psi), np.sin(psi)
        rframe = np.stack(
            [
                c * f[..., 0, :] + s * f[..., 1, :],
                -s * f[..., 0, :] + c * f[..., 1, :],
                cp * f[..., 2, :] + sp * f[..., 3, :],
                -sp * f[..., 2, :] + cp * f[..., 3, :],
            ],
            axis=-2,
        )
        want, mags = _broadcast_second_fundamental(model, x, stage1, rframe)
        _assert_stage2_fields([rot[name] for name in _STAGE2_FIELDS], want, mags, ("rotated", theta, psi))


# -- stage 1 forms T and H on first read -------------------------------------


def test_quadrature_weights_leave_H_unformed(monkeypatch):
    grid = build_surface("perturbed-cp1", CP2, delta=0.05, line_coeffs=(2.0, 1.5), nu=32, nv=16)
    built = []

    def recording(g):
        built.append(compute_mean_curvature(g))
        return built[-1]

    monkeypatch.setattr(immersion, "compute_mean_curvature", recording)
    lazy = quadrature_weights(grid)
    assert len(built) == 1
    assert not {"T", "_trace", "H_norm_sq"} & set(vars(built[0]))
    eager = compute_mean_curvature(grid)
    eager.H_norm_sq  # forms T, H and |H|^2 first
    assert lazy.tobytes() == quadrature_weights(grid, eager).tobytes()


def test_degenerate_metric_raises_before_H_is_read(monkeypatch):
    grid = build_surface("round-sphere", C2, nu=16, nv=8)
    grid.coords[:] = grid.coords[:1, :1]  # every node at one point: g = 0

    def unread(self):
        raise AssertionError("H read")

    monkeypatch.setattr(immersion.MeanCurvature, "H", property(unread))
    with pytest.raises(DegenerateImmersionError):
        compute_mean_curvature(grid)
    with pytest.raises(DegenerateImmersionError):
        quadrature_weights(grid)
