"""Identity batteries: ambient structure checks, pointwise surface
inequalities, and density closed-form oracles.

Each check returns (name, passed, detail).  `run_battery("quick")` keeps
everything under a minute; "full" adds the evolution-residual refinement
study with printed observed orders.
"""

from __future__ import annotations

import numpy as np

from .ambient import ChartPoint, J_STANDARD, get_model
from .density import DensityQuery, parabolic_density
from .diagnostics import evolution_residual
from .flow import FlowConfig, FlowState, step
from .immersion import compute_geometry, frame_rotated_scalars
from .surfaces import perturbed_cp1, plane, torus_graph


def _sample_points(model, n=40, seed=7):
    """n random coordinate samples.  The tensors are the same formulas in
    every chart, so each check evaluates them once."""
    rng = np.random.default_rng(seed)
    return np.array([model.random_point(rng).x for _ in range(n)])


def check_complex_structure(model):
    """J^2 = -Id, metric compatibility, and the two-form identities."""
    xs = _sample_points(model)
    G = model.metric(xs)
    J = np.broadcast_to(J_STANDARD, G.shape)
    omega = model.symplectic_form(xs)
    err = max(
        np.abs(J_STANDARD @ J_STANDARD + np.eye(4)).max(),
        # g(JU, JV) = g(U, V)
        np.abs(np.einsum("...ca,...cd,...db->...ab", J, G, J) - G).max(),
        # omega(U, V) = g(JU, V), antisymmetric
        np.abs(omega + np.swapaxes(omega, -1, -2)).max(),
        np.abs(np.einsum("...ca,...cb->...ab", J, G) - omega).max(),
        # <U, V> = omega(U, JV)
        np.abs(np.einsum("...ab,...bc->...ac", omega, J) - G).max(),
    )
    return f"{model.name}: complex structure / compatibility", err < 1e-12, f"max err {err:.2e}"


def check_nabla_J_order(model):
    """Covariant derivative of J vanishes (Kähler); the finite-difference
    approximation must converge to zero at order >= 1.8 in the step."""
    xs = _sample_points(model, n=20)
    errs = []
    for h in (0.02, 0.01):
        dg = np.empty(xs.shape[:-1] + (4, 4, 4))
        for c, e in enumerate(h * np.eye(4)):
            dg[..., c, :, :] = (
                -model.metric(xs + 2 * e)
                + 8 * model.metric(xs + e)
                - 8 * model.metric(xs - e)
                + model.metric(xs - 2 * e)
            ) / (12 * h)
        ginv = np.linalg.inv(model.metric(xs))
        term = (
            np.einsum("...ilj->...lij", dg)
            + np.einsum("...jli->...lij", dg)
            - np.einsum("...lij->...lij", dg)
        )
        gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, term)
        # nabla_a J^b_c = Gamma^b_{a d} J^d_c - Gamma^d_{a c} J^b_d
        nj = np.einsum("...bad,dc->...abc", gamma, J_STANDARD) - np.einsum(
            "...dac,bd->...abc", gamma, J_STANDARD
        )
        errs.append(np.abs(nj).max())
    if errs[0] < 1e-11:
        return f"{model.name}: parallel J", True, f"residual {errs[0]:.2e} (exact)"
    order = float(np.log(errs[0] / errs[1]) / np.log(2.0))  # the step halves
    return (
        f"{model.name}: parallel J (FD order)",
        order >= 1.8,
        f"residuals {errs[0]:.2e} -> {errs[1]:.2e}, order {order:.2f}",
    )


def check_einstein(model):
    xs = _sample_points(model, n=10)
    _, ricci, _ = model.curvature(xs)
    err = np.abs(ricci - (model.scalar_curvature / 4.0) * model.metric(xs)).max()
    return f"{model.name}: Einstein (Ric = R/4 g)", err < 1e-10, f"max residual {err:.2e}"


def check_exp_log_roundtrip(model):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        p = model.random_point(rng)
        v = rng.normal(size=4)
        v = 0.3 * v / model.norm(p.x, v)
        xs, cs = model.exp(p.x[None], p.chart_id, v[None])
        q = ChartPoint(int(cs[0]), xs[0])
        w = model.log(p, q)
        worst = max(worst, float(np.linalg.norm(w - v)))
    return f"{model.name}: exp/log round trip", worst < 1e-12, f"max |log(exp(v)) - v| {worst:.2e}"


def check_curvature_bound(grid):
    """|dJ|^2 >= |H|^2 / 2 at every node (the four-term identity)."""
    geom = compute_geometry(grid)
    gap = float(np.min(geom.nablaJ_sq - 0.5 * geom.H_norm_sq))
    name = f"{grid.model.name}: |dJ|^2 >= |H|^2/2"
    return name, gap > -1e-12, f"min gap {gap:.2e}"


def check_frame_invariance(grid):
    n_rotations = 50
    geom = compute_geometry(grid)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(n_rotations):
        th, ps = rng.uniform(0, 2 * np.pi, size=2)
        rot = frame_rotated_scalars(geom, th, ps)
        nj, ca, h2 = rot["nablaJ_sq"], rot["cos_alpha"], rot["H_norm_sq"]
        scale = max(np.abs(geom.nablaJ_sq).max(), 1.0)
        worst = max(
            worst,
            np.abs(nj - geom.nablaJ_sq).max() / scale,
            np.abs(ca - geom.cos_alpha).max(),
            np.abs(h2 - geom.H_norm_sq).max() / max(np.abs(geom.H_norm_sq).max(), 1.0),
        )
    return (
        f"{grid.model.name}: frame invariance ({n_rotations} rotations)",
        worst < 1e-10,
        f"max relative change {worst:.2e}",
    )


def check_density_oracles():
    c2 = get_model("flat-C2")
    tau, ext = 0.01, 4.0
    r = 8 * np.sqrt(tau)
    x0 = ChartPoint(0, np.zeros(4))
    q = DensityQuery(x0=x0, t0=tau, r=r)
    g1 = plane(c2, origin=(-ext / 2, -ext / 2, 0, 0), extent=(ext, ext), nu=192, nv=192)
    p1 = parabolic_density(g1, 0.0, q)
    errs = [abs(p1 - 1.0)]
    d = np.sqrt(tau)
    g2 = plane(c2, origin=(-ext / 2, -ext / 2, d, 0), extent=(ext, ext), nu=192, nv=192)
    errs.append(abs(parabolic_density(g2, 0.0, q) - np.exp(-d * d / (4 * tau))))
    g3 = plane(
        c2,
        origin=(0, 0, -ext / 2, -ext / 2),
        a_dir=(0, 0, 1, 0),
        b_dir=(0, 0, 0, 1),
        extent=(ext, ext),
        nu=192,
        nv=192,
    )
    errs.append(abs(p1 + parabolic_density(g3, 0.0, q) - 2.0))
    lam = 2.5
    gs = g1.copy()
    gs.coords *= lam
    qs = DensityQuery(x0=x0, t0=lam * lam * tau, r=lam * r)
    errs.append(abs(parabolic_density(gs, 0.0, qs) - p1))
    err = max(errs)
    return "density: plane/offset/transverse/rescaling oracles", err < 1e-6, f"max err {err:.2e}"


def _residual_refinement(make_grid, sizes):
    """Max evolution residual across a grid-refinement sequence; returns
    (residuals, observed orders)."""
    res = []
    for n in sizes:
        grid = make_grid(n)
        st = FlowState(grid=grid.copy())
        cfg = FlowConfig(t_end=1.0)
        snaps = [(st.grid.copy(), st.t)]
        for _ in range(2):
            st = step(st, cfg)
            snaps.append((st.grid.copy(), st.t))
        _, rmax, _ = evolution_residual(*snaps)
        res.append(rmax)
    orders = [np.log2(a / b) for a, b in zip(res, res[1:])]
    return res, orders


def check_residual_refinement_torus():
    t4 = get_model("flat-T4")
    res, orders = _residual_refinement(
        lambda n: torus_graph(t4, amplitude=0.2, nu=n, nv=n), (32, 64, 128)
    )
    ok = min(orders) >= 1.8
    return (
        "evolution residual refinement (torus graph)",
        ok,
        "residuals " + ", ".join(f"{r:.2e}" for r in res) + f"; orders {orders[0]:.2f}, {orders[1]:.2f}",
    )


def check_residual_refinement_sphere():
    cp2 = get_model("Fubini-Study-CP2")
    res, orders = _residual_refinement(
        lambda n: perturbed_cp1(cp2, delta=0.05, nu=n, nv=n // 2), (64, 128, 256)
    )
    ok = min(orders) >= 1.8
    return (
        "evolution residual refinement (perturbed degree-1 curve)",
        ok,
        "residuals " + ", ".join(f"{r:.2e}" for r in res) + f"; orders {orders[0]:.2f}, {orders[1]:.2f}",
    )


def run_battery(level="quick"):
    results = []
    models = [get_model(n) for n in ("flat-C2", "flat-T4", "Fubini-Study-CP2")]
    for m in models:
        results.append(check_complex_structure(m))
        results.append(check_nabla_J_order(m))
        results.append(check_einstein(m))
        results.append(check_exp_log_roundtrip(m))
    t4 = get_model("flat-T4")
    cp2 = get_model("Fubini-Study-CP2")
    tg = torus_graph(t4, amplitude=0.2, nu=32, nv=32)
    pc = perturbed_cp1(cp2, delta=0.05, nu=32, nv=16)
    for g in (tg, pc):
        results.append(check_curvature_bound(g))
    results.append(check_frame_invariance(tg))
    results.append(check_density_oracles())
    if level == "full":
        results.append(check_residual_refinement_torus())
        results.append(check_residual_refinement_sphere())
    return results
