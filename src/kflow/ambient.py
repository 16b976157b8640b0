"""Kähler-Einstein ambient 4-manifolds evaluated in coordinate charts.

Three models are shipped: flat C² (one global chart), the flat 4-torus with
lattice periods, and CP² with the Fubini-Study metric covered by the three
standard affine charts.  All evaluators are vectorized over a leading batch
shape; points carry real chart coordinates ordered (x1, y1, x2, y2) with
z_k = x_k + i y_k.  Every chart argument is one chart id or an integer array
of per-point ids that broadcasts against the batch shape, so callers never
group points by chart.

Every chart decision is the model's.  CP² has one chart rule,
`FubiniStudyCP2.from_homogeneous`, shared by `exp`, the perturbed-cp1 builder and
`recharted`: a point keeps its chart while its coordinates there are within
`transition_radius`, and otherwise takes its pivot chart.

Sign convention (used by every orientation-sensitive computation in the
package): omega(U, V) := g(JU, V), so that <U, V> = omega(U, JV) holds
identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, LogDivergenceError

# Complex structure of multiplication by i in coordinates (x1, y1, x2, y2);
# column k is J applied to the k-th coordinate basis vector.
J_STANDARD = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)

@dataclass(frozen=True)
class ChartPoint:
    """A point of the ambient manifold in a named coordinate chart."""

    chart_id: int
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))


def apply_J(v):
    """J v for components v on the last axis (multiplication by i): the
    signed swap (x1, y1, x2, y2) -> (-y1, x1, -y2, x2)."""
    v = np.asarray(v)
    out = np.empty(v.shape, np.result_type(v, 1.0))
    np.negative(v[..., 1::2], out=out[..., 0::2])
    out[..., 1::2] = v[..., 0::2]
    return out


def _dot(u, w):
    """Euclidean dot product of the components on the last axis."""
    return np.einsum("...a,...a->...", u, w)


def to_complex(x):
    x = np.asarray(x)
    return np.stack([x[..., 0] + 1j * x[..., 1], x[..., 2] + 1j * x[..., 3]], axis=-1)


def from_complex(z):
    z = np.asarray(z)
    return np.stack(
        [z[..., 0].real, z[..., 0].imag, z[..., 1].real, z[..., 1].imag], axis=-1
    )


class AmbientModel:
    """Evaluator for one Kähler-Einstein 4-manifold.

    Immutable after construction; all methods are pure functions of
    (model, inputs) and safe for concurrent use.
    """

    name: str
    n_charts: int
    injectivity_radius_bound: float
    is_flat: bool

    # -- chart bookkeeping ------------------------------------------------

    def to_chart(self, x, chart_from, chart_to):
        raise NotImplementedError

    def recharted(self, x, chart):
        """(coords, charts) of a batch after the model's chart rule; the
        input itself while no point needs another chart."""
        raise NotImplementedError

    # -- contractions ------------------------------------------------------
    #
    # Both take chart coordinates x and tangent components u, w (all
    # broadcast against each other) and are the same formulas in every chart.

    def connection(self, x, u, w):
        """Gamma(u, w)^k = Gamma^k_ij u^i w^j."""
        raise NotImplementedError

    def inner(self, x, u, w):
        """g(u, w) = g_ij u^i w^j."""
        raise NotImplementedError

    # -- tensors ----------------------------------------------------------
    #
    # Like the contractions, the same formulas in every chart: they take
    # coordinates alone.

    def metric(self, x):
        raise NotImplementedError

    def christoffel(self, x):
        raise NotImplementedError

    def curvature(self, x):
        """(riemann R_{abcd}, ricci, scalar) at each point of the batch."""
        raise NotImplementedError

    def symplectic_form(self, x):
        """omega_{ab} = g(J e_a, e_b)."""
        return np.einsum("ca,...cb->...ab", J_STANDARD, self.metric(x))

    # -- geodesics --------------------------------------------------------

    def exp(self, x, chart, v):
        """Batched geodesic exponential at time 1: returns (coords, charts)."""
        raise NotImplementedError

    def log(self, p: ChartPoint, q: ChartPoint) -> np.ndarray:
        """Components, in p's chart, of the tangent vector v at p with
        exp(p, v) = q."""
        raise NotImplementedError

    def distance(self, x1, chart1, x2, chart2):
        raise NotImplementedError

    def lift(self, x, chart, origin):
        """Rows (n, k) of n points for `sq_distances`; the flat models measure
        coordinates from `origin`, a point near both batches of one call."""
        raise NotImplementedError

    def sq_distances(self, a, b):
        """(len(a), len(b)) squared distances of two lifted batches, by one
        matrix product where the model allows it."""
        raise NotImplementedError

    # -- misc -------------------------------------------------------------

    @property
    def scalar_curvature(self):
        raise NotImplementedError

    @property
    def einstein_constant(self):
        """Constant lam with Ric = lam * g (scalar curvature / 4 in real
        dimension four).  This, not the full scalar curvature, is the
        constant entering the Kähler-angle evolution equation and the decay
        bounds built on it."""
        return self.scalar_curvature / 4.0

    def random_point(self, rng) -> ChartPoint:
        raise NotImplementedError

    def norm(self, x, v):
        return np.sqrt(self.inner(x, v, v))


class _FlatModel(AmbientModel):
    """Shared behaviour of the two flat models (identity metric, zero
    connection and curvature, straight geodesics)."""

    is_flat = True
    n_charts = 1

    @property
    def scalar_curvature(self):
        return 0.0

    def connection(self, x, u, w):
        return 0.0

    def inner(self, x, u, w):
        return _dot(u, w)

    def metric(self, x):
        x = np.asarray(x)
        return np.broadcast_to(np.eye(4), x.shape[:-1] + (4, 4)).copy()

    def christoffel(self, x):
        x = np.asarray(x)
        return np.zeros(x.shape[:-1] + (4, 4, 4))

    def curvature(self, x):
        x = np.asarray(x)
        lead = x.shape[:-1]
        return (
            np.zeros(lead + (4, 4, 4, 4)),
            np.zeros(lead + (4, 4)),
            np.zeros(lead),
        )

    # One chart: points are coordinates in R⁴, to_chart copies, and no node
    # ever changes chart.

    def to_chart(self, x, chart_from, chart_to):
        return np.asarray(x, dtype=float).copy()

    def recharted(self, x, chart):
        return x, chart

    def exp(self, x, chart, v):
        x = np.asarray(x, dtype=float)
        return x + np.asarray(v, dtype=float), np.zeros(x.shape[:-1], dtype=int)

    def distance(self, x1, chart1, x2, chart2):
        """|x2 - x1|, to the nearest lattice image on T⁴."""
        d = np.asarray(x2, dtype=float) - np.asarray(x1, dtype=float)
        if hasattr(self, "min_image"):
            d = self.min_image(d)
        return np.linalg.norm(d, axis=-1)

    def lift(self, x, chart, origin):
        return np.asarray(x, dtype=float) - origin


class FlatC2(_FlatModel):
    """C² with the Euclidean metric and the standard complex structure."""

    name = "flat-C2"
    injectivity_radius_bound = np.inf

    def log(self, p, q):
        return q.x - p.x

    def lift(self, x, chart, origin):
        """Rows (y, |y|², 1) of y = x - origin."""
        y = super().lift(x, chart, origin)
        return np.concatenate([y, _dot(y, y)[..., None], np.ones_like(y[..., :1])], axis=-1)

    def sq_distances(self, a, b):
        """|a|² + |b|² - 2 a·b as one product, of the rows (-2y, 1, |y|²) of
        a with the lifts of b.  It cancels where |y| is large against the
        distance, hence coordinates from an origin near both batches."""
        d2 = (a[:, [0, 1, 2, 3, 5, 4]] * [-2.0, -2.0, -2.0, -2.0, 1.0, 1.0]) @ b.T
        return np.maximum(d2, 0.0, out=d2)

    def random_point(self, rng) -> ChartPoint:
        return ChartPoint(0, rng.uniform(-2.0, 2.0, size=4))


class FlatT4(_FlatModel):
    """Flat 4-torus R⁴/Λ with a rectangular lattice of periods.  Points keep
    coordinates in R⁴ and surfaces are lifts closed by period offsets in Λ;
    only `log` and `distance` reduce by the lattice."""

    name = "flat-T4"

    def __init__(self, periods=(2 * np.pi,) * 4):
        self.periods = np.asarray(periods, dtype=float)
        if self.periods.shape != (4,) or not np.all(self.periods > 0):
            raise ValueError(f"lattice periods must be four positive numbers, not {periods!r}")
        self.injectivity_radius_bound = float(self.periods.min() / 2.0)

    def min_image(self, d, k=slice(None)):
        """Representative of a coordinate difference (of coordinate k alone) closest to zero."""
        d = np.asarray(d, dtype=float)
        return d - np.round(d / self.periods[k]) * self.periods[k]

    def log(self, p, q):
        return self.min_image(q.x - p.x)

    def sq_distances(self, a, b):
        """Sum of the squared nearest-image component differences: a product
        cannot see the lattice."""
        return sum(self.min_image(np.subtract.outer(a[:, k], b[:, k]), k) ** 2 for k in range(4))

    def random_point(self, rng) -> ChartPoint:
        return ChartPoint(0, rng.uniform(0.0, 1.0, size=4) * self.periods)


class FubiniStudyCP2(AmbientModel):
    """CP² with the Fubini-Study metric in the three standard affine charts.

    The metric comes from the Kähler potential log(1 + |z|²) with the real
    normalization g(U, V) = Re(g_{i jbar} u^i conj(v^j)), which makes the
    metric at each chart origin the identity.  Connection, curvature,
    geodesics and distance are closed forms: the Kähler connection
    Gamma^k_ij = -(delta^k_i zbar_j + delta^k_j zbar_i) / (1 + |z|²), and
    geodesics as horizontal great circles of the unit sphere S⁵ in C³ pushed
    down by the Hopf map.  The (constant) scalar curvature is computed from
    the connection on first use and stored; tests compare against this
    stored value, never a literature constant.
    """

    name = "Fubini-Study-CP2"
    n_charts = 3
    is_flat = False
    transition_radius = 2.0  # max |z_i| a point keeps its chart up to
    injectivity_radius_bound = 1.5  # conservative; true value is pi/2 here

    # -- charts in homogeneous coordinates ---------------------------------
    #
    # Chart c holds the points with h_c != 0 as z = (h without slot c) / h_c.
    # Slots are selected by chart id, so an id other than 0, 1, 2 would pick
    # a wrong slot: every id is checked where it enters, in _homogeneous
    # (source charts) and _split (target charts).

    @staticmethod
    def _checked(chart):
        """`chart` as an array, once its ids are known to be 0, 1 or 2."""
        chart = np.asarray(chart)
        bad = (chart != 0) & (chart != 1) & (chart != 2)
        if bad.any():
            raise ValueError(f"CP2 chart ids are 0, 1 or 2, not {np.unique(chart[bad]).tolist()}")
        return chart

    @classmethod
    def _homogeneous(cls, z, chart, pivot=1.0):
        """Insert `pivot` in slot `chart`, filling the others with z in
        order; pivot 0 lifts a velocity."""
        chart = cls._checked(chart)
        z1, z2 = z[..., 0], z[..., 1]
        first, last = np.where(chart == 0, pivot, z1), np.where(chart == 2, pivot, z2)
        middle = np.where(chart == 1, pivot, np.where(chart == 0, z1, z2))
        return np.stack([first, middle, last], axis=-1)

    @classmethod
    def _split(cls, h, chart):
        """(pivot slot (..., 1), other two slots (..., 2)) of h in `chart`."""
        chart = cls._checked(chart)
        h0, h1, h2 = h[..., 0], h[..., 1], h[..., 2]
        pivot = np.where(chart == 0, h0, np.where(chart == 1, h1, h2))
        rest = np.stack([np.where(chart == 0, h1, h0), np.where(chart == 2, h1, h2)], axis=-1)
        return pivot[..., None], rest

    def _affine(self, h, chart):
        """Complex chart coordinates of homogeneous points."""
        pivot, rest = self._split(h, chart)
        return rest / pivot

    def _push_down(self, h, dh, chart):
        """Chart components of the homogeneous velocity dh at h."""
        pivot, rest = self._split(h, chart)
        dpivot, drest = self._split(dh, chart)
        return from_complex((drest * pivot - rest * dpivot) / pivot**2)

    def from_homogeneous(self, h, chart=None):
        """(coords, charts) of homogeneous points h.  A point stays in
        `chart` while its coordinates there are within transition_radius;
        every other point, and every point when no chart is given, goes to
        its pivot chart (the largest |h_k|, where max|z| <= 1)."""
        charts = np.argmax(np.abs(h), axis=-1)
        if chart is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                near = np.max(np.abs(self._affine(h, chart)), axis=-1) <= self.transition_radius
            charts = np.where(near, chart, charts)
        return from_complex(self._affine(h, charts)), charts

    def to_chart(self, x, chart_from, chart_to):
        h = self._homogeneous(to_complex(x), chart_from)
        with np.errstate(divide="ignore", invalid="ignore"):
            return from_complex(self._affine(h, chart_to))

    def recharted(self, x, chart):
        """The input while every coordinate is within transition_radius;
        otherwise every point moves to its pivot chart."""
        z = to_complex(x)
        if np.max(np.abs(z)) <= self.transition_radius:
            return x, chart
        return self.from_homogeneous(self._homogeneous(z, chart))

    # -- contractions ------------------------------------------------------
    #
    # With z = x + i y, the Hermitian products zbar . u = x.u + i (Jx).u give
    #   g(u, w) = u.w / (1 + |z|²) - ((x.u)(x.w) + (Jx.u)(Jx.w)) / (1 + |z|²)²
    #   Gamma(u, w) = -((x.w) u + (Jx.w) Ju + (x.u) w + (Jx.u) Jw) / (1 + |z|²)
    # where . is the Euclidean dot product of real components.

    @staticmethod
    def _hermitian(x, u, w):
        """(Re, Im) of zbar . u and of zbar . w, and 1 + |z|²."""
        jx = apply_J(x)
        return _dot(x, u), _dot(jx, u), _dot(x, w), _dot(jx, w), 1.0 + _dot(x, x)

    def connection(self, x, u, w):
        xu, jxu, xw, jxw, d = self._hermitian(x, u, w)
        out = xw[..., None] * u + jxw[..., None] * apply_J(u)
        out += xu[..., None] * w + jxu[..., None] * apply_J(w)
        return -out / d[..., None]

    def inner(self, x, u, w):
        xu, jxu, xw, jxw, d = self._hermitian(x, u, w)
        return _dot(u, w) / d - (xu * xw + jxu * jxw) / d**2

    # -- tensors: the contractions with coordinate basis vectors ----------

    def metric(self, x):
        basis = np.eye(4)
        return self.inner(np.asarray(x)[..., None, None, :], basis[:, None, :], basis)

    def christoffel(self, x):
        """Gamma^k_ij indexed [..., k, i, j]."""
        basis = np.eye(4)
        gamma = self.connection(np.asarray(x)[..., None, None, :], basis[:, None, :], basis)
        return np.moveaxis(gamma, -1, -3)

    def curvature(self, x):
        x = np.asarray(x, dtype=float)
        gamma = self.christoffel(x)
        # Differentiating Gamma^k_ij = -(x_j d_ki + (Jx)_j J_ki + x_i d_kj
        # + (Jx)_i J_kj) / (1 + |z|²) gives d_a Gamma^k_ij indexed [..., a, k, i, j].
        t = np.einsum("aj,ki->akij", np.eye(4), np.eye(4))
        t += np.einsum("ja,ki->akij", J_STANDARD, J_STANDARD)
        d = (1.0 + np.sum(x * x, axis=-1))[..., None, None, None, None]
        dx = 2.0 * x[..., :, None, None, None] * gamma[..., None, :, :, :]
        dgamma = -(t + np.swapaxes(t, -1, -2) + dx) / d
        # R(e_a, e_b) e_c = Rup[..., u, c, a, b] e_u
        rup = (
            np.einsum("...aubc->...ucab", dgamma)
            - np.einsum("...buac->...ucab", dgamma)
            + np.einsum("...uam,...mbc->...ucab", gamma, gamma)
            - np.einsum("...ubm,...mac->...ucab", gamma, gamma)
        )
        g = self.metric(x)
        riemann = np.einsum("...ud,...ucab->...abcd", g, rup)
        ricci = np.einsum("...ucua->...ac", rup)
        scalar = np.einsum("...ac,...ac->...", np.linalg.inv(g), ricci)
        return riemann, ricci, scalar

    @cached_property
    def scalar_curvature(self):
        origin = np.zeros((1, 4))
        _, _, scal = self.curvature(origin)
        return float(scal[0])

    # -- geodesics --------------------------------------------------------

    def exp(self, x, chart, v):
        """Batched geodesic exponential.  (x, v) lifts to psi = h/|h| on S⁵
        and the horizontal xi = (dh - psi <dh, psi>)/|h| with |xi| = |v|_g;
        the great circle cos|xi| psi + sin|xi| xi/|xi| projects back, to
        `chart` where the chart rule keeps it there."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        v = np.atleast_2d(np.asarray(v, dtype=float))
        h = self._homogeneous(to_complex(x), chart)
        dh = self._homogeneous(to_complex(v), chart, pivot=0.0)
        hn = np.linalg.norm(h, axis=-1, keepdims=True)
        psi = h / hn
        xi = (dh - psi * np.sum(dh * np.conj(psi), axis=-1, keepdims=True)) / hn
        theta = np.linalg.norm(xi, axis=-1, keepdims=True)
        return self.from_homogeneous(np.cos(theta) * psi + np.sinc(theta / np.pi) * xi, chart)

    def log(self, p, q):
        """Closed-form inverse of exp: the great circle from psi_p to the
        phase of psi_q nearest it, xi = d (psi_q - cos d psi_p) / sin d,
        pushed down to p's chart."""
        h_p = self._homogeneous(to_complex(p.x), p.chart_id)
        h_q = self._homogeneous(to_complex(q.x), q.chart_id)
        psi_p = h_p / np.linalg.norm(h_p)
        psi_q = h_q / np.linalg.norm(h_q)
        inner = np.vdot(psi_p, psi_q)
        cos_d = abs(inner)
        dist = float(np.arccos(min(cos_d, 1.0)))
        if dist >= self.injectivity_radius_bound:
            raise LogDivergenceError(
                f"points at distance {dist:.4f} >= injectivity bound"
            )
        w = psi_q * (np.conj(inner) / cos_d) - cos_d * psi_p
        d = np.arctan2(np.linalg.norm(w), cos_d)
        return self._push_down(psi_p, w / np.sinc(d / np.pi), p.chart_id)

    def distance(self, x1, chart1, x2, chart2):
        h1 = self._homogeneous(to_complex(np.asarray(x1, dtype=float)), chart1)
        h2 = self._homogeneous(to_complex(np.asarray(x2, dtype=float)), chart2)
        # einsum forms <h1, conj h2> without a broadcast (..., 3) product
        inner = np.abs(np.einsum("...k,...k->...", h1, np.conj(h2)))
        n1 = np.linalg.norm(h1, axis=-1)
        n2 = np.linalg.norm(h2, axis=-1)
        return np.arccos(np.clip(inner / (n1 * n2), -1.0, 1.0))

    def lift(self, x, chart, origin):
        """Unit lifts psi = h/|h| in C³ of the homogeneous coordinates."""
        h = self._homogeneous(to_complex(np.asarray(x, dtype=float)), chart)
        return h / np.linalg.norm(h, axis=-1, keepdims=True)

    def sq_distances(self, a, b):
        """d = arccos min(1, |<psi_a, psi_b>|) from one complex product,
        conjugating the (usually smaller) batch a."""
        d = np.abs(a.conj() @ b.T)
        d = np.arccos(np.minimum(d, 1.0, out=d), out=d)
        return np.square(d, out=d)

    def random_point(self, rng) -> ChartPoint:
        chart = int(rng.integers(0, 3))
        x = rng.uniform(-0.8, 0.8, size=4)
        return ChartPoint(chart, x)


_MODELS = {
    "flat-C2": FlatC2,
    "flat-T4": FlatT4,
    "Fubini-Study-CP2": FubiniStudyCP2,
}


def get_model(name, **params) -> AmbientModel:
    """Model `name` with `params`; a bad name or parameter is a ConfigError."""
    if not isinstance(name, str) or name not in _MODELS:
        raise ConfigError(f"unknown ambient model {name!r}; choices: {sorted(_MODELS)}")
    try:
        return _MODELS[name](**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model_params for {name}: {exc}") from exc

