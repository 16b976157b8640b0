"""Reference values and property checks computed without kflow.

Every function here works on plain arrays read back from a run's files.
The closed forms are those of the continuum problem:

* a round 2-sphere in C² moving by mean curvature (dF/dt = H, |H| = 2/r)
  shrinks as r(t) = sqrt(r0² - 4t);
* for a centre X0 on a round sphere of radius R, the area of the sphere at
  chordal distance < s from X0 is pi s² for every s <= 2R, so the truncated
  Gaussian density with kernel scale tau = r² reduces to the 1-D integral
  int_0^{2R} phi(s) exp(-s²/4tau) s/(2tau) ds;
* Fubini–Study CP² normalised by the Kähler potential log(1 + |z|²) has
  holomorphic sectional curvature 4, hence Ric = 6 g: lambda = 6;
* along the flow near a holomorphic curve, V(t) <= V(0) exp(-lambda t), the
  symplectic area is constant, min cos(alpha) stays positive and does not
  decrease, and |dJ|² >= |H|²/2 holds pointwise.
"""

from __future__ import annotations

import numpy as np

FUBINI_STUDY_EINSTEIN = 6.0

SPHERE_LAW_RTOL = 5e-3
DENSITY_ATOL = 1e-6
EINSTEIN_ATOL = 1e-6
V_DECAY_SLACK = 1.05
SYMPLECTIC_DRIFT_MAX = 1e-4
# min cos(alpha) may only fall by discretization noise between records.
COS_ALPHA_NOISE = 1e-5
PINCHING_ATOL = 1e-12

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)


def shrinking_sphere_radius(r0, t):
    return np.sqrt(r0 * r0 - 4.0 * t)


def sphere_law_error(coords, center, r0, t):
    """Largest relative deviation of the node radii |F - c| of one snapshot
    from the exact radius at time t."""
    radii = np.linalg.norm(np.asarray(coords) - np.asarray(center), axis=-1)
    exact = shrinking_sphere_radius(r0, t)
    return float(np.max(np.abs(radii - exact)) / exact)


def cutoff(s, r):
    """The density cutoff: 1 on [0, r], 0 beyond 2r, C² quintic between."""
    w = np.clip((np.asarray(s, dtype=float) - r) / r, 0.0, 1.0)
    return 1.0 - w**3 * (10.0 - 15.0 * w + 6.0 * w * w)


def round_sphere_density(R, r):
    """Truncated Gaussian density at a point of a round sphere of radius R,
    kernel radius r and scale tau = r²."""
    tau = r * r
    flat_end = min(r, 2.0 * R)
    # phi = 1 on [0, flat_end]: the Gaussian part integrates in closed form.
    value = -np.expm1(-flat_end**2 / (4.0 * tau))
    hi = min(2.0 * r, 2.0 * R)
    if hi > r:
        s = 0.5 * (hi - r) * _GAUSS_NODES + 0.5 * (hi + r)
        f = cutoff(s, r) * np.exp(-s * s / (4.0 * tau)) * s / (2.0 * tau)
        value += 0.5 * (hi - r) * float(f @ _GAUSS_WEIGHTS)
    return float(value)


def v_decay_violations(ts, vs, lam=FUBINI_STUDY_EINSTEIN, slack=V_DECAY_SLACK):
    """Number of records with V(t) > V(0) exp(-lam (t - t0)) * slack."""
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    bound = vs[0] * np.exp(-lam * (ts - ts[0])) * slack
    return int(np.count_nonzero(~(vs <= bound)))


def symplectic_drift(symp_areas):
    s = np.asarray(symp_areas, dtype=float)
    return float(np.max(np.abs(s - s[0])) / abs(s[0]))


def cos_alpha_decreases(mins, noise=COS_ALPHA_NOISE):
    """Number of records where min cos(alpha) fell by more than `noise`."""
    m = np.asarray(mins, dtype=float)
    return int(np.count_nonzero(np.diff(m) < -noise))


def pinching_gap(nabla_j_sq, h_norm_sq):
    """min over nodes of |dJ|² - |H|²/2 (must not be negative)."""
    return float(np.min(np.asarray(nabla_j_sq) - 0.5 * np.asarray(h_norm_sq)))
