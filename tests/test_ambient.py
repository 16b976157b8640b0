"""Ambient-model structure tests: metric/complex-structure compatibility,
curvature normalization, geodesics, and chart handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kflow.ambient import (
    ChartPoint,
    FlatT4,
    J_STANDARD,
    apply_J,
    get_model,
    to_complex,
    from_complex,
)
from kflow.errors import LogDivergenceError

MODELS = ["flat-C2", "flat-T4", "Fubini-Study-CP2"]


@pytest.fixture(params=MODELS)
def model(request):
    return get_model(request.param)


def _points(model, n=25, seed=0):
    rng = np.random.default_rng(seed)
    return np.array([model.random_point(rng).x for _ in range(n)])


def test_J_squared_is_minus_identity():
    assert np.allclose(J_STANDARD @ J_STANDARD, -np.eye(4))


@pytest.mark.parametrize("shape", [(4,), (5, 4), (3, 2, 4)])
def test_apply_J_is_the_matrix_J(shape):
    """The signed swap equals v @ J^T for finite v, up to the sign of
    zero (a swapped -0.0 where the matrix product sums to +0.0)."""
    v = np.random.default_rng(2).normal(size=shape)
    v[..., 1] = 0.0
    got, want = apply_J(v), v @ J_STANDARD.T
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(apply_J([1, 2, 3, 4]), [-2.0, 1.0, -4.0, 3.0])
    assert np.array_equal(apply_J(apply_J(v)), -v)


def test_complex_coordinate_roundtrip():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(7, 4))
    assert np.allclose(from_complex(to_complex(x)), x)


def test_metric_symmetric_positive_definite(model):
    G = model.metric(_points(model))
    assert np.allclose(G, np.swapaxes(G, -1, -2))
    assert np.linalg.eigvalsh(G).min() > 0


def test_metric_hermitian_compatibility(model):
    """g(JU, JV) = g(U, V) at random points."""
    G = model.metric(_points(model))
    GJ = np.einsum("ca,...cd,db->...ab", J_STANDARD, G, J_STANDARD)
    assert np.abs(GJ - G).max() < 1e-13


def test_flat_models_have_zero_connection_and_curvature():
    for name in ("flat-C2", "flat-T4"):
        m = get_model(name)
        xs = _points(m)
        assert np.abs(m.christoffel(xs)).max() == 0.0
        riem, ric, scal = m.curvature(xs)
        assert np.abs(riem).max() == 0.0 and np.abs(scal).max() == 0.0


class TestFubiniStudy:
    cp2 = get_model("Fubini-Study-CP2")

    def test_metric_identity_at_chart_origin(self):
        G = self.cp2.metric(np.zeros((1, 4)))[0]
        assert np.abs(G - np.eye(4)).max() < 1e-14

    def test_connection_vanishes_at_origin(self):
        gamma = self.cp2.christoffel(np.zeros((1, 4)))[0]
        assert np.abs(gamma).max() < 1e-10

    def test_einstein_with_stored_scalar_curvature(self):
        xs = _points(self.cp2, n=10)
        _, ric, _ = self.cp2.curvature(xs)
        G = self.cp2.metric(xs)
        R = self.cp2.scalar_curvature
        assert np.abs(ric - (R / 4.0) * G).max() < 1e-6

    def test_einstein_constant_is_quarter_scalar(self):
        assert self.cp2.einstein_constant == pytest.approx(self.cp2.scalar_curvature / 4)

    def test_scalar_curvature_constant_across_points_and_charts(self):
        """Every chart has the same formulas, so points suffice."""
        _, _, scal = self.cp2.curvature(_points(self.cp2, n=8))
        assert np.abs(scal - self.cp2.scalar_curvature).max() < 1e-5

    def test_chart_transition_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.3, 0.9, size=(10, 4))
        for a in range(3):
            for b in range(3):
                back = self.cp2.to_chart(self.cp2.to_chart(x, a, b), b, a)
                assert np.abs(back - x).max() < 1e-12

    def test_distance_symmetry_and_self(self):
        xs = _points(self.cp2, n=10, seed=5)
        ys = _points(self.cp2, n=10, seed=6)
        d1 = self.cp2.distance(xs, 0, ys, 0)
        d2 = self.cp2.distance(ys, 0, xs, 0)
        assert np.abs(d1 - d2).max() < 1e-14
        # arccos near 1 loses half the digits; sqrt(eps) is the attainable floor
        assert np.abs(self.cp2.distance(xs, 0, xs, 0)).max() < 1e-7

    def test_closed_geodesic_period(self):
        """Geodesics from the origin close up after length pi."""
        xs, cs = self.cp2.exp(np.zeros((1, 4)), 0, np.array([[np.pi, 0, 0, 0]]))
        back = self.cp2.distance(xs, int(cs[0]), np.zeros((1, 4)), 0)
        assert float(back[0]) < 1e-8

    def test_exp_preserves_speed_times_arc(self):
        """d(p, exp_p(s v)) = s |v| below the injectivity bound."""
        p = np.zeros((1, 4))
        v = np.array([[0.6, 0.8, 0.0, 0.0]])  # unit at the origin
        for s in (0.3, 0.9, 1.4):
            xs, cs = self.cp2.exp(p, 0, s * v)
            d = float(self.cp2.distance(xs, int(cs[0]), p, 0)[0])
            assert abs(d - s) < 1e-8


def _exp_point(model, p, v):
    """exp(p, v) as a ChartPoint."""
    xs, cs = model.exp(p.x[None], p.chart_id, v[None])
    return ChartPoint(int(cs[0]), xs[0])


def test_exp_log_roundtrip(model):
    rng = np.random.default_rng(11)
    for _ in range(6):
        p = model.random_point(rng)
        v = rng.normal(size=4)
        v = 0.3 * v / model.norm(p.x, v)
        w = model.log(p, _exp_point(model, p, v))
        assert np.linalg.norm(w - v) < 1e-8


def test_log_norm_equals_distance(model):
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = model.random_point(rng)
        v = rng.normal(size=4)
        v = 0.4 * v / model.norm(p.x, v)
        q = _exp_point(model, p, v)
        w = model.log(p, q)
        d = float(model.distance(p.x, p.chart_id, q.x, q.chart_id))
        assert abs(model.norm(p.x, w) - d) < 1e-8


def test_cp2_log_rejects_points_beyond_injectivity_bound():
    """The chart-0 and chart-1 origins, [1:0:0] and [0:1:0], lie pi/2 apart,
    on each other's cut locus and beyond the bound 1.5."""
    cp2 = get_model("Fubini-Study-CP2")
    p, q = ChartPoint(0, np.zeros(4)), ChartPoint(1, np.zeros(4))
    assert float(cp2.distance(p.x, 0, q.x, 1)) == pytest.approx(np.pi / 2, abs=1e-12)
    with pytest.raises(LogDivergenceError):
        cp2.log(p, q)
    # just inside the bound the log still inverts exp
    v = np.array([1.49, 0.0, 0.0, 0.0])
    assert np.abs(cp2.log(p, _exp_point(cp2, p, v)) - v).max() < 1e-8


def test_t4_min_image():
    t4 = FlatT4(periods=(2 * np.pi, 2 * np.pi, 1.0, 1.0))
    d = t4.min_image(np.array([6.0, -6.0, 0.9, -0.9]))
    assert np.allclose(d, [6.0 - 2 * np.pi, 2 * np.pi - 6.0, -0.1, 0.1])


def _norm_of_min_image(model, x1, x2):
    """Flat distance as np.linalg.norm of the whole (..., 4) minimal-image
    difference: the oracle of `_FlatModel.distance`."""
    d = np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)
    if hasattr(model, "periods"):
        d = d - np.round(d / model.periods) * model.periods
    return np.linalg.norm(d, axis=-1)


@pytest.mark.parametrize(
    "model",
    [get_model("flat-C2"), FlatT4(periods=(2 * np.pi, 2 * np.pi, 3.0, 3.0))],
    ids=["flat-C2", "flat-T4"],
)
@pytest.mark.parametrize(
    "shape1, shape2",
    [((40, 1), (1, 300)), ((16, 8), ()), ((), ())],
    ids=["centres-by-nodes", "grid-to-point", "point-to-point"],
)
def test_flat_distance_is_bitwise_norm_of_min_image(model, shape1, shape2):
    """Coordinates up to two periods from 0, so the differences of every
    component go well beyond +-p/2 and must be reduced."""
    rng = np.random.default_rng(11)
    scale = 2.0 * getattr(model, "periods", np.full(4, np.pi))
    x1 = rng.uniform(-1.0, 1.0, size=shape1 + (4,)) * scale
    x2 = rng.uniform(-1.0, 1.0, size=shape2 + (4,)) * scale
    got = model.distance(x1, 0, x2, 0)
    want = _norm_of_min_image(model, x1, x2)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def _sq_distance_batches(name, rng):
    """(model, x1, charts1, x2, charts2): the first ten points of x2 are
    those of x1, so the block holds coincident pairs."""
    if name == "flat-C2-far":
        centre = np.array([1e4, 0.0, 0.0, 0.0])
        x1 = centre + rng.uniform(-1.0, 1.0, size=(50, 4))
        x2 = centre + rng.uniform(-1.0, 1.0, size=(60, 4))
        model, c1, c2 = get_model("flat-C2"), np.zeros(50, int), np.zeros(60, int)
    elif name == "flat-T4-across-periods":
        model = FlatT4(periods=(2 * np.pi, 2 * np.pi, 3.0, 3.0))
        x1 = rng.uniform(-0.2, 0.2, size=(40, 4))
        # images of x1 shifted by periods, and points just below one period
        shifted = x1[10:30] + model.periods * rng.integers(-2, 3, size=(20, 4))
        below = model.periods - rng.uniform(0.0, 0.2, size=(30, 4))
        x2 = np.concatenate([shifted, below])
        c1, c2 = np.zeros(40, int), np.zeros(50, int)
    else:
        model = get_model("Fubini-Study-CP2")
        x1 = rng.uniform(-1.0, 1.0, size=(45, 4))
        x2 = rng.uniform(-1.0, 1.0, size=(50, 4))
        c1, c2 = np.arange(45) % 3, np.arange(50) % 3
    return model, x1, c1, np.concatenate([x1[:10], x2]), np.concatenate([c1[:10], c2])


@pytest.mark.parametrize("name", ["flat-C2-far", "flat-T4-across-periods", "Fubini-Study-CP2"])
def test_sq_distances_of_lifts_equal_squared_distance(name):
    """The block form against the elementwise distance, squared, on batches
    of diameter at most 4: within 1e-14 absolute (observed: 3.6e-15 on flat
    C² at 1e4 from the origin, 1.4e-15 on T⁴, 1.1e-15 on CP²), coincident
    points included."""
    model, x1, c1, x2, c2 = _sq_distance_batches(name, np.random.default_rng(5))
    origin = x2.mean(axis=0)
    got = model.sq_distances(model.lift(x1, c1, origin), model.lift(x2, c2, origin))
    want = model.distance(x1[:, None], c1[:, None], x2[None], c2[None]) ** 2
    assert got.shape == want.shape == (len(x1), len(x2))
    assert np.abs(got - want).max() < 1e-14
    assert np.all(got >= 0.0)
    if name == "flat-T4-across-periods":  # the shifted images coincide
        assert np.abs(np.diag(got[10:30, 10:30])).max() < 1e-14
    if name == "Fubini-Study-CP2":  # one point in another chart
        c_other = (c1 + 1) % 3
        x_other = model.to_chart(x1, c1, c_other)
        same = model.sq_distances(model.lift(x1, c1, None), model.lift(x_other, c_other, None))
        assert np.abs(np.diag(same)).max() < 1e-14


class TestChartIdsChecked:
    """Every CP² chart id is checked where it enters the model."""

    cp2 = get_model("Fubini-Study-CP2")
    x = np.array([0.3, -0.2, 0.1, 0.4])

    def test_log(self):
        with pytest.raises(ValueError, match=r"\[3\]"):
            self.cp2.log(ChartPoint(3, self.x), ChartPoint(0, self.x))

    def test_distance(self):
        with pytest.raises(ValueError, match=r"\[3\]"):
            self.cp2.distance(self.x, 3, self.x, 2)

    def test_to_chart(self):
        with pytest.raises(ValueError, match=r"\[7\]"):
            self.cp2.to_chart(self.x, 7, 0)
        with pytest.raises(ValueError, match=r"\[-1, 5\]"):
            self.cp2.to_chart(np.stack([self.x] * 3), 0, np.array([5, 1, -1]))

    def test_lift(self):
        with pytest.raises(ValueError, match=r"\[3\]"):
            self.cp2.lift(np.stack([self.x] * 2), np.array([0, 3]), None)

    def test_tangent_to_chart(self):
        with pytest.raises(ValueError, match=r"\[7\]"):
            self.cp2.tangent_to_chart(self.x, self.x, 7, 0)
        with pytest.raises(ValueError, match=r"\[-1, 5\]"):
            self.cp2.tangent_to_chart(np.stack([self.x] * 3), np.stack([self.x] * 3), 0, np.array([5, 1, -1]))
        with pytest.raises(ValueError, match=r"\[3\]"):
            self.cp2.common_chart(np.stack([self.x] * 2)[:, None], np.array([[0], [3]]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2), st.integers(0, 10**6))
def test_fs_distance_bounded_by_half_pi(chart, seed):
    """CP2 diameter: no two points are farther than pi/2 apart."""
    cp2 = get_model("Fubini-Study-CP2")
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-2.0, 2.0, size=(2, 4))
    d = float(cp2.distance(x, chart, y, chart))
    assert 0.0 <= d <= np.pi / 2 + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_recharted_keeps_point_fixed(seed):
    """Re-charting leaves a point within the transition radius as it is and
    moves any other to its pivot chart, where max|z| <= 1, without moving
    the underlying point."""
    cp2 = get_model("Fubini-Study-CP2")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.4, 2.4, size=(1, 4))
    chart = np.zeros(1, dtype=int)
    x2, c2 = cp2.recharted(x, chart)
    if np.max(np.abs(to_complex(x))) <= cp2.transition_radius:
        assert x2 is x and c2 is chart
        return
    assert float(cp2.distance(x, 0, x2, c2)[0]) < 1e-7
    assert np.max(np.abs(to_complex(x2))) <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_from_homogeneous_chart_rule(seed):
    """Without a chart every point goes to its pivot chart; with one a point
    stays in it exactly while its coordinates there are within the
    transition radius.  Either way the point itself does not move."""
    cp2 = get_model("Fubini-Study-CP2")
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    x, c = cp2.from_homogeneous(h)
    assert np.array_equal(c, np.argmax(np.abs(h), axis=-1))
    assert np.max(np.abs(to_complex(x))) <= 1.0 + 1e-12
    for chart in range(3):
        in_chart = cp2.to_chart(x, c, chart)
        near = np.max(np.abs(to_complex(in_chart)), axis=-1) <= cp2.transition_radius
        y, cy = cp2.from_homogeneous(h, chart)
        assert np.array_equal(cy, np.where(near, chart, c))
        assert np.abs(cp2.distance(x, c, y, cy)).max() < 1e-7


@pytest.mark.parametrize("name", ["flat-C2", "flat-T4"])
def test_flat_models_never_rechart(name):
    model = get_model(name)
    x = np.full((3, 4), 1e3)
    chart = np.zeros(3, dtype=int)
    x2, c2 = model.recharted(x, chart)
    assert x2 is x and c2 is chart


# -- per-point chart ids ----------------------------------------------------


class TestPerPointCharts:
    """Chart operations called with one chart id per point equal the calls
    made chart by chart on the same batch, bit for bit."""

    cp2 = get_model("Fubini-Study-CP2")

    @staticmethod
    def _batch(n=30, seed=21, scale=0.8):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-scale, scale, size=(n, 4))
        charts = np.arange(n) % 3  # every chart occurs
        return rng, xs, charts

    def _per_chart(self, charts, fn):
        """Oracle: fn(mask, chart) evaluated one chart at a time."""
        out = None
        for c in range(3):
            m = charts == c
            val = fn(m, c)
            if out is None:
                out = np.empty(charts.shape + val.shape[1:], dtype=val.dtype)
            out[m] = val
        return out

    def test_to_chart(self):
        _, xs, charts = self._batch()
        for target in range(3):
            got = self.cp2.to_chart(xs, charts, target)
            want = self._per_chart(charts, lambda m, c: self.cp2.to_chart(xs[m], c, target))
            assert np.array_equal(got, want)
        # per-point targets too: the inverse transition restores the batch
        back = self.cp2.to_chart(self.cp2.to_chart(xs, charts, 0), 0, charts)
        assert np.abs(back - xs).max() < 1e-14

    def test_tangent_to_chart(self):
        """The differential of to_chart: a central difference of to_chart,
        an isometry of the metric, inverted by the map back, and the
        identity on flat models."""
        rng, xs, charts = self._batch()
        v = rng.normal(size=xs.shape)
        for target in (0, 1, 2, charts[::-1]):
            got = self.cp2.tangent_to_chart(xs, v, charts, target)
            e = 1e-6
            fd = (self.cp2.to_chart(xs + e * v, charts, target) - self.cp2.to_chart(xs - e * v, charts, target)) / (2 * e)
            assert np.all(np.abs(got - fd).max(axis=-1) < 1e-6 * np.abs(got).max(axis=-1))
            y = self.cp2.to_chart(xs, charts, target)
            np.testing.assert_allclose(self.cp2.inner(y, got, got), self.cp2.inner(xs, v, v), rtol=1e-12)
            back = self.cp2.tangent_to_chart(y, got, target, charts)
            assert np.abs(back - v).max() < 1e-12 * np.abs(v).max()
        for name in ("flat-C2", "flat-T4"):
            assert get_model(name).tangent_to_chart(xs, v, 0, 0) is v

    def test_common_chart(self):
        """Each column's chart is the one where the column's largest
        coordinate norm is smallest."""
        _, xs, charts = self._batch(scale=2.4)
        xs, charts = xs.reshape(5, 6, 4), charts.reshape(5, 6)
        reach = [np.linalg.norm(self.cp2.to_chart(xs, charts, c), axis=-1).max(axis=0) for c in range(3)]
        assert np.array_equal(self.cp2.common_chart(xs, charts), np.argmin(reach, axis=0))

    def test_recharted(self):
        _, xs, charts = self._batch(scale=2.4)
        got_x, got_c = self.cp2.recharted(xs, charts)
        want_x = self._per_chart(charts, lambda m, c: self.cp2.recharted(xs[m], c)[0])
        want_c = self._per_chart(charts, lambda m, c: self.cp2.recharted(xs[m], c)[1])
        assert np.array_equal(got_c, want_c) and np.array_equal(got_x, want_x)
        assert len(np.unique(got_c)) == 3

    def test_from_homogeneous(self):
        rng, _, charts = self._batch()
        h = 2.0 * rng.normal(size=(len(charts), 3)) + 2j * rng.normal(size=(len(charts), 3))
        got_x, got_c = self.cp2.from_homogeneous(h, charts)
        want_x = self._per_chart(charts, lambda m, c: self.cp2.from_homogeneous(h[m], c)[0])
        want_c = self._per_chart(charts, lambda m, c: self.cp2.from_homogeneous(h[m], c)[1])
        assert np.array_equal(got_c, want_c) and np.array_equal(got_x, want_x)
        kept = got_c == charts
        assert kept.any() and not kept.all()

    def test_exp(self):
        rng, xs, charts = self._batch()
        v = 0.7 * rng.normal(size=xs.shape)
        got_x, got_c = self.cp2.exp(xs, charts, v)
        want_x = self._per_chart(charts, lambda m, c: self.cp2.exp(xs[m], c, v[m])[0])
        want_c = self._per_chart(charts, lambda m, c: self.cp2.exp(xs[m], c, v[m])[1])
        assert np.array_equal(got_x, want_x) and np.array_equal(got_c, want_c)

    def test_norm(self):
        """The norm reads no chart id: on a batch spread over the three
        charts it is the square root of the pointwise inner product."""
        rng, xs, _ = self._batch()
        v = rng.normal(size=xs.shape)
        assert np.array_equal(self.cp2.norm(xs, v), np.sqrt(self.cp2.inner(xs, v, v)))

    def test_distance_matrix_matches_chart_pair_loop(self):
        _, xs, cs = self._batch(n=12, seed=22)
        _, ys, charts = self._batch(n=40, seed=23)
        got = self.cp2.distance(xs[:, None, :], cs[:, None], ys[None], charts[None])
        want = np.empty((len(xs), len(ys)))
        for c1 in range(3):
            m1 = cs == c1
            for c2 in range(3):
                m2 = charts == c2
                want[np.ix_(m1, m2)] = self.cp2.distance(
                    xs[m1][:, None, :], c1, ys[m2][None, :, :], c2
                )
        assert got.shape == (12, 40)
        assert np.abs(got - want).max() < 1e-14


# -- closed-form Fubini-Study connection, curvature and geodesics ----------


def _fd_christoffel(model, x, h=1e-4):
    """Levi-Civita symbols from a 4th-order central difference of the metric."""
    dg = np.empty(x.shape[:-1] + (4, 4, 4))
    for c in range(4):
        e = np.zeros(4)
        e[c] = h
        dg[..., c, :, :] = (
            -model.metric(x + 2 * e)
            + 8 * model.metric(x + e)
            - 8 * model.metric(x - e)
            + model.metric(x - 2 * e)
        ) / (12 * h)
    term = (
        np.einsum("...ilj->...lij", dg)
        + np.einsum("...jli->...lij", dg)
        - np.einsum("...lij->...lij", dg)
    )
    return 0.5 * np.einsum("...kl,...lij->...kij", np.linalg.inv(model.metric(x)), term)


def _fd_riemann(model, x, h=1e-3):
    """R_{abcd} from a 4th-order central difference of model.christoffel."""
    dgamma = np.empty(x.shape[:-1] + (4, 4, 4, 4))
    for c in range(4):
        e = np.zeros(4)
        e[c] = h
        dgamma[..., c, :, :, :] = (
            -model.christoffel(x + 2 * e)
            + 8 * model.christoffel(x + e)
            - 8 * model.christoffel(x - e)
            + model.christoffel(x - 2 * e)
        ) / (12 * h)
    gamma = model.christoffel(x)
    rup = (
        np.einsum("...aubc->...ucab", dgamma)
        - np.einsum("...buac->...ucab", dgamma)
        + np.einsum("...uam,...mbc->...ucab", gamma, gamma)
        - np.einsum("...ubm,...mac->...ucab", gamma, gamma)
    )
    return np.einsum("...ud,...ucab->...abcd", model.metric(x), rup)


# `chart` only picks the sample: the tensors are the same formulas in every chart.
@pytest.mark.parametrize("chart", [0, 1, 2])
def test_fs_christoffel_matches_fd_of_metric(chart):
    cp2 = get_model("Fubini-Study-CP2")
    x = np.random.default_rng(20 + chart).uniform(-1.5, 1.5, size=(30, 4))
    assert np.abs(cp2.christoffel(x) - _fd_christoffel(cp2, x)).max() <= 1e-9


@pytest.mark.parametrize("chart", [0, 1, 2])
def test_fs_riemann_matches_fd_of_christoffel(chart):
    cp2 = get_model("Fubini-Study-CP2")
    x = np.random.default_rng(30 + chart).uniform(-1.5, 1.5, size=(20, 4))
    riemann, _, _ = cp2.curvature(x)
    assert np.abs(riemann - _fd_riemann(cp2, x)).max() <= 1e-8


def test_fs_scalar_curvature_is_24_in_every_chart():
    cp2 = get_model("Fubini-Study-CP2")
    assert abs(cp2.scalar_curvature - 24.0) <= 1e-12
    x = np.random.default_rng(40).uniform(-2.0, 2.0, size=(50, 4))
    _, _, scal = cp2.curvature(x)
    assert np.abs(scal - 24.0).max() <= 1e-12


def test_fs_exp_log_roundtrip_across_chart_changes():
    """Round trip to 1e-12 for |v| up to 1.4, from base points near the
    transition radius so that many geodesics end in another chart."""
    cp2 = get_model("Fubini-Study-CP2")
    rng = np.random.default_rng(50)
    changed = 0
    for k in range(60):
        chart = k % 3
        z = rng.normal(size=4)
        x = rng.uniform(0.0, 1.9) * z / np.max(np.abs(to_complex(z)))
        v = rng.normal(size=4)
        v = rng.uniform(0.05, 1.4) * v / cp2.norm(x, v)
        xs, cs = cp2.exp(x[None], chart, v[None])
        changed += int(cs[0] != chart)
        p = ChartPoint(chart, x)
        w = cp2.log(p, ChartPoint(int(cs[0]), xs[0]))
        assert np.abs(w - v).max() <= 1e-12
        assert np.max(np.abs(to_complex(xs[0]))) <= cp2.transition_radius
    assert changed >= 10


def test_fs_exp_matches_rk4_geodesic_ode():
    """exp against RK4 integration of x'' = -Gamma(x', x') in one chart."""
    cp2 = get_model("Fubini-Study-CP2")
    rng = np.random.default_rng(60)
    x0 = rng.uniform(-0.5, 0.5, size=(12, 4))
    v0 = rng.normal(size=(12, 4))
    v0 *= rng.uniform(0.2, 1.0, size=(12, 1)) / cp2.norm(x0, v0)[:, None]

    def rhs(x, u):
        return u, -np.einsum("...kij,...i,...j->...k", cp2.christoffel(x), u, u)

    x, u = x0.copy(), v0.copy()
    n = 400
    dt = 1.0 / n
    for _ in range(n):
        k1 = rhs(x, u)
        k2 = rhs(x + 0.5 * dt * k1[0], u + 0.5 * dt * k1[1])
        k3 = rhs(x + 0.5 * dt * k2[0], u + 0.5 * dt * k2[1])
        k4 = rhs(x + dt * k3[0], u + dt * k3[1])
        x = x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        u = u + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    xs, cs = cp2.exp(x0, 0, v0)
    assert np.all(cs == 0)
    assert np.abs(xs - x).max() <= 1e-8


# The former Fubini-Study tensor code, kept as an oracle for the closed-form
# contractions that `metric` and `christoffel` are now built from.
_C_BASIS = np.array([[1.0, 1.0j, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0j]])


def _fs_metric_oracle(x):
    """Real block form of the Hermitian metric (delta D - zbar z^T) / D²,
    D = 1 + |z|²: each complex entry contributes [[Re, Im], [-Im, Re]]."""
    z = to_complex(x)
    denom = 1.0 + np.sum(np.abs(z) ** 2, axis=-1)
    g_c = (np.eye(2) * denom[..., None, None] - np.conj(z)[..., :, None] * z[..., None, :])
    g_c = g_c / denom[..., None, None] ** 2
    out = np.empty(x.shape[:-1] + (4, 4))
    for k in range(2):
        for l in range(2):
            out[..., 2 * k, 2 * l] = g_c[..., k, l].real
            out[..., 2 * k, 2 * l + 1] = g_c[..., k, l].imag
            out[..., 2 * k + 1, 2 * l] = -g_c[..., k, l].imag
            out[..., 2 * k + 1, 2 * l + 1] = g_c[..., k, l].real
    return out


def _fs_christoffel_oracle(x):
    """Gamma(C_b, C_c)^k = -(C_kb s_c + C_kc s_b) / D with s = zbar . C, in
    real components, indexed [..., k, b, c]."""
    z = to_complex(x)
    s = np.conj(z) @ _C_BASIS
    denom = (1.0 + np.sum(np.abs(z) ** 2, axis=-1))[..., None, None, None]
    t = _C_BASIS[:, :, None] * s[..., None, None, :]
    w = -(t + np.swapaxes(t, -1, -2)) / denom
    return np.stack([w.real, w.imag], axis=-3).reshape(w.shape[:-3] + (4, 4, 4))


@pytest.mark.parametrize(
    "name, chart", [("Fubini-Study-CP2", 0), ("Fubini-Study-CP2", 1), ("Fubini-Study-CP2", 2),
                    ("flat-C2", 0), ("flat-T4", 0)]
)
def test_contractions_match_tensors(name, chart):
    """inner and connection, and the metric and christoffel tensors built
    from them, match the contractions of independently coded tensors."""
    model = get_model(name)
    rng = np.random.default_rng(5 + chart)
    x = 1.5 * rng.uniform(-1.0, 1.0, size=(200, 4))
    u, w = rng.normal(size=(2, 200, 4))
    if model.is_flat:
        G, Gamma = np.broadcast_to(np.eye(4), (200, 4, 4)), np.zeros((200, 4, 4, 4))
    else:
        G, Gamma = _fs_metric_oracle(x), _fs_christoffel_oracle(x)
    assert np.abs(model.metric(x) - G).max() <= 1e-14 * np.abs(G).max()
    assert np.abs(model.christoffel(x) - Gamma).max() <= 1e-14 * np.abs(Gamma).max()
    g = np.einsum("...a,...ab,...b->...", u, G, w)
    gamma = np.einsum("...kij,...i,...j->...k", Gamma, u, w)
    assert np.abs(model.inner(x, u, w) - g).max() <= 1e-14 * np.abs(g).max()
    assert np.abs(model.connection(x, u, w) - gamma).max() <= 1e-14 * np.abs(gamma).max()
