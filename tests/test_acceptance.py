"""End-to-end acceptance suite.

Each test covers one release criterion and emits a single pass/fail line with
the measured quantity, so a full run doubles as a report.
"""

import os
import time

import numpy as np
import pytest

from condsim.baselines import BaselineConfig, assemble_delassus, solve_apgd, solve_pgs
from condsim.contacts import (
    augment_dynamics,
    contact_jacobian_matrix,
    detect_contacts,
    nodalize,
)
from condsim.dynamics import assemble_step, integrate
from condsim.harness import (
    RunConfig,
    analytic_box_slide,
    bench_scaling,
    build_scene,
    external_force,
    load_scenario,
    run,
)
from condsim.solver import (
    SolverConfig,
    contact_solve_oneshot,
    inverse_contact,
    project,
    scc_residual,
    solve_vfpi,
    step_matrix_frobenius,
    surrogate_gamma,
)
from condsim.sparse import spmv

from conftest import ALL_SCENARIOS, build_augmented, random_contact_set, random_spd, scenario_path

THETA_TH = 1e-4


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bundled_runs():
    """All bundled scenarios under the reference solver configuration."""
    cfg = RunConfig(
        solver="cond", operator="strict", residual_tol=THETA_TH,
        chebyshev=True, kv=1e5, max_iters=4000,
    )
    out = {}
    for name in ALL_SCENARIOS:
        out[name] = run(load_scenario(scenario_path(name)), cfg)
    return out


def test_01_diagonalization_equivalence():
    """Surrogate Delassus operator is exactly gamma-diagonal."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst_off, worst_diag = 0.0, 0.0
    for _ in range(100):
        n_c = int(rng.integers(1, 65))
        nodal = random_contact_set(rng, n_nodes=2 * n_c + 2, n_contacts=n_c)
        n = nodal.n_orig
        a = random_spd(rng, n, density=0.1)
        aug = build_augmented(a, rng.standard_normal(n), nodal)
        w = step_matrix_frobenius(aug)
        gamma = surrogate_gamma(w, aug)
        jc = contact_jacobian_matrix(aug).toarray()
        dense = jc @ (w[:, None] * jc.T)
        m = len(nodal)
        for i in range(m):
            bi = dense[3 * i : 3 * i + 3]
            diag = bi[:, 3 * i : 3 * i + 3]
            off = bi.copy()
            off[:, 3 * i : 3 * i + 3] = 0.0
            worst_off = max(worst_off, float(np.abs(off).max()) if off.size else 0.0)
            worst_diag = max(
                worst_diag, float(np.abs(diag - gamma[i] * np.eye(3)).max())
            )
    dt = time.perf_counter() - t0
    ok = worst_off <= 1e-12 and worst_diag <= 1e-12 and dt < 5.0
    report("diagonalization-equivalence", ok,
           f"off-diag {worst_off:.2e}, diag {worst_diag:.2e}, {dt:.1f}s")


def test_02_dynamics_consistency(bundled_runs):
    """Converged steps satisfy the momentum balance with the contact impulses."""
    worst = 0.0
    gate = 10.0 * THETA_TH * (1.0 + 1e-9)
    checked = 0
    for name, res in bundled_runs.items():
        for r in res.rows:
            if r.converged:
                checked += 1
                worst = max(worst, r.consistency)
    ok = checked > 0 and worst <= gate
    report("dynamics-consistency", ok,
           f"{checked} converged steps, worst force residual {worst:.3e} <= {gate:.1e}")


def test_03_strict_scc_exactness():
    """One-shot strict solves satisfy the contact conditions exactly."""
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        m = 100
        g = rng.uniform(0.1, 5.0, m)
        eta = rng.standard_normal((m, 3))
        phi = rng.standard_normal(m) * 0.1
        mu = rng.uniform(0.0, 1.5, m)
        lam = contact_solve_oneshot(g, eta, phi, mu, "strict")
        v_c = g[:, None] * lam + eta  # surrogate contact velocity
        worst = max(worst, float(scc_residual(v_c, lam, phi, mu).max()))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 1.0
    report("strict-scc-exactness", ok, f"worst residual {worst:.2e}, {dt:.2f}s")


def test_04_proximal_matches_convex_model():
    """Proximal solutions solve the convex contact problem and match baselines."""
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    worst_kkt, worst_rel = 0.0, 0.0
    for _ in range(20):
        n_c = int(rng.integers(1, 9))
        nodal = random_contact_set(rng, n_nodes=n_c + 4, n_contacts=n_c)
        n = nodal.n_orig
        n_c = len(nodal)
        a = random_spd(rng, n)
        aug = build_augmented(a, rng.standard_normal(n), nodal)
        cfg = SolverConfig(operator="proximal", residual_tol=1e-10,
                           max_iters=5000, chebyshev=True)
        _, lam, rep = solve_vfpi(aug, cfg, np.zeros(n))
        assert rep.converged
        lam = lam.ravel()

        prob = assemble_delassus(aug)
        ac = prob.a_c
        grad = ac @ lam + prob.b_c + np.kron(prob.phi, [1.0, 0.0, 0.0])
        alpha = 1.0 / np.linalg.eigvalsh(ac).max()
        proj = np.concatenate([
            project((lam - alpha * grad)[3 * i : 3 * i + 3], prob.mu[i], "proximal")
            for i in range(n_c)
        ])
        worst_kkt = max(worst_kkt, float(np.abs(proj - lam).max()))

        lam_p, rp = solve_pgs(prob, BaselineConfig(residual_tol=1e-10, max_iters=5000))
        lam_a, ra = solve_apgd(prob, BaselineConfig(residual_tol=1e-10, max_iters=10000))
        assert rp.converged and ra.converged
        scale = max(1.0, np.linalg.norm(lam))
        worst_rel = max(
            worst_rel,
            np.linalg.norm(lam_p.ravel() - lam) / scale,
            np.linalg.norm(lam_a.ravel() - lam) / scale,
        )
    dt = time.perf_counter() - t0
    ok = worst_kkt <= 1e-5 and worst_rel <= 1e-3 and dt < 30.0
    report("proximal-convex-equivalence", ok,
           f"KKT {worst_kkt:.2e}, baseline mismatch {worst_rel:.2e}, {dt:.1f}s")


def test_05_virtual_gain_convergence():
    """Box-slide trajectory error shrinks monotonically as the tie gain grows."""
    t0 = time.perf_counter()
    s = load_scenario(scenario_path("box_slide"))
    s.raw["duration"] = 0.5
    oracle = np.asarray(analytic_box_slide(
        {"m": 0.5, "mu": 0.2, "g": 9.81, "F_y": 2.0, "T": 0.5, "t_k": 0.01}
    ))[1:]  # drop the t = 0 sample; recorded positions start after step one
    errs = []
    for kv in (1e3, 1e4, 1e5):
        cfg = RunConfig(residual_tol=1e-9, chebyshev=True, kv=kv,
                        max_iters=20000, record_positions=True)
        res = run(s, cfg)
        ys = np.array([q[1] for q in res.positions])
        errs.append(float(np.abs(ys - oracle).max()))
    dt = time.perf_counter() - t0
    ratio = errs[0] / errs[2]
    ok = errs[0] > errs[1] > errs[2] and ratio >= 25.0 and dt < 20.0
    report("virtual-gain-convergence", ok,
           f"errors {errs[0]:.3e} > {errs[1]:.3e} > {errs[2]:.3e} m, "
           f"ratio {ratio:.0f} >= 25, {dt:.1f}s")


def test_06_contact_update_nonexpansive():
    """The proximal contact-update map is non-expansive at alpha = 1/sigma_max."""
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(10):
        nodal = random_contact_set(rng, n_nodes=8, n_contacts=4)
        n = nodal.n_orig
        a = random_spd(rng, n)
        b = rng.standard_normal(n)
        aug = build_augmented(a, b, nodal)
        alpha = 1.0 / np.linalg.eigvalsh(a.toarray()).max()
        w = np.full(n, alpha)
        gamma = surrogate_gamma(w, aug)
        mu = nodal.mu
        phi = np.zeros(len(nodal))

        def update(v):
            from condsim.contacts import ContactMap

            v_star = v - alpha * (spmv(a, v) - b)
            lam = contact_solve_oneshot(
                gamma, ContactMap(aug).jc(v_star), phi, mu, "proximal")
            return v_star + alpha * ContactMap(aug).jc_t(lam)

        for _ in range(10):
            v1 = rng.standard_normal(n)
            v2 = rng.standard_normal(n)
            d_in = np.linalg.norm(v1 - v2)
            d_out = np.linalg.norm(update(v1) - update(v2))
            worst = max(worst, d_out - d_in)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 5.0
    report("contact-update-nonexpansive", ok,
           f"max expansion {worst:.2e} over 100 pairs, {dt:.1f}s")


def test_07_impulse_map_monotone():
    """The one-shot impulse map is monotone in the relative velocity."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = np.inf
    for _ in range(10):
        m = 100
        g = rng.uniform(0.1, 5.0, m)
        mu = rng.uniform(0.0, 1.5, m)
        phi = rng.standard_normal(m) * 0.1
        eta1 = rng.standard_normal((m, 3))
        eta2 = rng.standard_normal((m, 3))
        lam1 = contact_solve_oneshot(g, eta1, phi, mu, "proximal")
        lam2 = contact_solve_oneshot(g, eta2, phi, mu, "proximal")
        # xi is the normal-cone element left over by the projection
        phi_vec = np.zeros((m, 3))
        phi_vec[:, 0] = phi
        xi1 = -(eta1 + phi_vec) / g[:, None] - lam1
        xi2 = -(eta2 + phi_vec) / g[:, None] - lam2
        inner = np.sum((xi1 - xi2) * (lam1 - lam2), axis=1)
        worst = min(worst, float(inner.min()))
    dt = time.perf_counter() - t0
    ok = worst >= -1e-12 and dt < 1.0
    report("impulse-map-monotone", ok,
           f"min inner product {worst:.2e} over 1000 pairs, {dt:.2f}s")


def test_08_chebyshev_ablation():
    """Chebyshev acceleration cuts mean iteration counts on the lattice drag."""
    t0 = time.perf_counter()
    s = load_scenario(scenario_path("lattice_drag"))
    means = {}
    for cheb in (True, False):
        cfg = RunConfig(residual_tol=1e-6, chebyshev=cheb, kv=1e5, max_iters=4000)
        res = run(s, cfg)
        means[cheb] = float(np.mean([r.iters for r in res.rows]))
    dt = time.perf_counter() - t0
    ratio = means[False] / means[True]
    ok = ratio >= 1.5 and dt < 60.0
    report("chebyshev-ablation", ok,
           f"mean iters {means[True]:.1f} accelerated vs {means[False]:.1f} plain, "
           f"ratio {ratio:.2f} >= 1.5, {dt:.1f}s")


def test_09_scalability(monkeypatch):
    """Near-linear solver-time scaling, and steeper growth for the baselines."""
    t0 = time.perf_counter()
    s = load_scenario(scenario_path("lattice_drag"))
    cond_cfg = RunConfig(residual_tol=THETA_TH, chebyshev=True, kv=1e5, max_iters=4000)
    cond = bench_scaling(s, [300, 600, 1200, 2400, 4800], cond_cfg, steps_cap=5)
    base_exps = {}
    for name in ("pgs", "apgd"):
        cfg = RunConfig(solver=name, residual_tol=THETA_TH, kv=1e5, max_iters=4000)
        base_exps[name] = bench_scaling(s, [300, 600, 1200], cfg, steps_cap=3).exponent
    dt = time.perf_counter() - t0
    ok = (
        cond.exponent <= 1.3
        and cond.r_squared >= 0.95
        and all(e > cond.exponent for e in base_exps.values())
        and dt < 300.0
    )
    report("scalability", ok,
           f"cond exponent {cond.exponent:.3f} (R^2 {cond.r_squared:.3f}), "
           f"pgs {base_exps['pgs']:.3f}, apgd {base_exps['apgd']:.3f}, {dt:.0f}s")


def test_10_anisotropic_friction():
    """Anisotropic sliding matches a dense-sampled maximal-dissipation oracle."""
    t0 = time.perf_counter()
    s = load_scenario(scenario_path("anisotropic_slide"))
    cfg = RunConfig(operator="strict-anisotropic", residual_tol=1e-7,
                    chebyshev=True, kv=1e3, max_iters=4000, record_positions=True)
    res = run(s, cfg)
    assert all(r.converged for r in res.rows)
    curve = abs(res.positions[-1][0] - res.positions[-1][1])
    assert curve > 0.1  # anisotropy must actually bend the path

    m, dt_k, g = 0.5, 0.01, 9.81
    a_x, a_y = 0.1 * m * g, 0.3 * m * g
    theta = np.linspace(0.0, 2.0 * np.pi, 20001)
    boundary = np.stack([a_x * np.cos(theta), a_y * np.sin(theta)], axis=1)
    qs = np.vstack([[0.0, 0.0], [p[:2] for p in res.positions]])
    v = np.array([1.0, 1.0])
    worst = 0.0
    for k in range(s.n_steps):
        # one-step prediction from the simulated state
        f_stick = -(m / dt_k) * v
        if (f_stick[0] / a_x) ** 2 + (f_stick[1] / a_y) ** 2 <= 1.0:
            f = f_stick
        else:
            # maximal dissipation over the friction-ellipse boundary
            diss = -boundary @ v - (dt_k / (2.0 * m)) * np.sum(boundary**2, axis=1)
            f = boundary[np.argmax(diss)]
        q_pred = qs[k] + dt_k * (v + (dt_k / (2.0 * m)) * f)
        worst = max(worst, float(np.abs(qs[k + 1] - q_pred).max()))
        v = 2.0 * (qs[k + 1] - qs[k]) / dt_k - v

    rng = np.random.default_rng(10)
    worst_iso = max(
        float(np.abs(
            project(x, 0.4, "strict-anisotropic", 0.4) - project(x, 0.4)
        ).max())
        for x in rng.standard_normal((200, 3)) * 3.0
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and worst_iso <= 1e-10 and elapsed < 30.0
    report("anisotropic-friction", ok,
           f"trajectory error {worst:.2e} m, isotropic reduction {worst_iso:.2e}, "
           f"{elapsed:.1f}s")


def test_11_invertible_contact():
    """Forward and inverse regularized contact solves agree in impulse norm."""
    t0 = time.perf_counter()
    s = load_scenario(scenario_path("lattice_invertible"))
    scene = build_scene(s)
    state, bodies = scene.state, scene.bodies
    n = state.v.shape[0]
    cfg = SolverConfig(operator="proximal", residual_tol=1e-12,
                       chebyshev=True, max_iters=20000, omega=1e-3)
    worst, contact_steps = 0.0, 0
    for step in range(5):
        f_ext = external_force(scene, step * s.step_size, n)
        asm = assemble_step(state, bodies, scene.constraints, f_ext)
        raw = detect_contacts(state, bodies, scene.geometry)
        nodal = nodalize(raw, state, scene.k_v, scene.mu, scene.mu2, scene.stab)
        aug = augment_dynamics(asm, nodal)
        v_hat, lam, rep = solve_vfpi(aug, cfg, np.zeros(aug.n))
        if len(nodal):
            lam_inv = inverse_contact(aug, v_hat, 1e-3, "proximal")
            nf, ni = np.linalg.norm(lam), np.linalg.norm(lam_inv)
            worst = max(worst, abs(nf - ni) / max(nf, 1e-30))
            contact_steps += 1
        state = integrate(state, v_hat[: asm.n], bodies)
    dt = time.perf_counter() - t0
    ok = contact_steps > 0 and worst <= 1e-6 and dt < 30.0
    report("invertible-contact", ok,
           f"impulse-norm round-trip error {worst:.2e} over {contact_steps} contact steps, {dt:.1f}s")


def test_12_penetration_bound(bundled_runs):
    """Maximum penetration stays under 0.05 mm in every bundled scenario."""
    worst_name, worst = "", 0.0
    for name, res in bundled_runs.items():
        pen = max((r.max_pen_m for r in res.rows), default=0.0)
        if pen > worst:
            worst_name, worst = name, pen
        assert not res.any_diverged, name
    ok = worst <= 5e-5
    report("penetration-bound", ok,
           f"worst {worst:.2e} m ({worst_name}) <= 5e-5 m across "
           f"{len(bundled_runs)} scenarios")


def test_13_small_step_contraction():
    """At a 1 ms step the strict iteration contracts from any initialization."""
    t0 = time.perf_counter()
    s = load_scenario(scenario_path("lattice_drag"))
    s.raw["lattice"]["nx"] = 5
    s.raw["lattice"]["ny"] = 5
    s.raw["step_size"] = 1e-3
    s.raw["duration"] = 0.01
    scene = build_scene(s)
    state, bodies = scene.state, scene.bodies
    n = state.v.shape[0]
    asm = assemble_step(state, bodies, scene.constraints, external_force(scene, 0.0, n))
    raw = detect_contacts(state, bodies, scene.geometry)
    nodal = nodalize(raw, state, scene.k_v, scene.mu, scene.mu2, scene.stab)
    assert len(nodal) >= 1
    aug = augment_dynamics(asm, nodal)
    cfg = SolverConfig(operator="strict", residual_tol=0.0, max_iters=200)
    rng = np.random.default_rng(13)
    worst = -np.inf
    for _ in range(10):
        warm = rng.standard_normal(aug.n)
        _, _, rep = solve_vfpi(aug, cfg, warm)
        tr = np.array(rep.residual_trace)
        slack = np.diff(tr) - (1e-14 + 1e-12 * tr[:-1])
        worst = max(worst, float(slack.max()))
    dt = time.perf_counter() - t0
    ok = worst <= 0.0 and dt < 30.0
    report("small-step-contraction", ok,
           f"max residual increase {worst:.2e} over 10 inits x 200 iters, {dt:.1f}s")
