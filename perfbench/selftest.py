"""Self-test of the benchmark's checks: each accepts the program's real
output and rejects a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Runs short instances of the three workloads (about half a minute in all)
and exits 1 if any check accepts a corrupted output or rejects a real one.
"""

from __future__ import annotations

import copy
import sys
from types import SimpleNamespace

import numpy as np

import oracles as O
import run as R
import workloads as W

SEED = 0


def shifted(q: np.ndarray, step: int, delta) -> np.ndarray:
    out = q.copy()
    out[step] += delta
    return out


def main() -> int:
    harness, solver, contacts = R.load_condsim()
    failures = []

    def expect(label: str, passed: bool, want: bool) -> None:
        ok = passed == want
        print(f"[{'ok' if ok else 'WRONG'}] {label}: check {'passes' if passed else 'fails'}")
        if not ok:
            failures.append(label)

    # box_slide: closed-form slide and resting height
    w = W.WORKLOADS["box_slide"]
    p = W.box_params(SEED)
    res = harness.run(harness.Scenario(W.scenario(w, SEED)), harness.RunConfig(**w.run_config))
    q = np.array([x[:3] for x in res.positions])
    u = np.array([np.cos(p["angle"]), np.sin(p["angle"]), 0.0])
    expect("box_slide real trajectory", O.check_box_slide(q, p)[0].all(), True)
    expect("box_slide real height", O.check_cube_on_floor(q)[0].all(), True)
    expect("box_slide shifted along the push past the bound",
           O.check_box_slide(shifted(q, -1, 2 * O.BOX_SLIDE_TOL * u), p)[0].all(), False)
    expect("box_slide drifted across the push",
           O.check_box_slide(shifted(q, 10, 2 * O.BOX_SLIDE_TOL * np.array([-u[1], u[0], 0])), p)[0].all(),
           False)
    expect("box_slide checked against a 1% larger friction coefficient",
           O.check_box_slide(q, {**p, "mu": 1.01 * p["mu"]})[0].all(), False)
    expect("box_slide cube sunk into the floor",
           O.check_cube_on_floor(shifted(q, 20, [0, 0, -2 * O.CUBE_HEIGHT_TOL]))[0].all(), False)

    # the round verdict counts a step the program flags as unconverged
    rows = copy.deepcopy(res.rows)
    rows[5].converged = False
    verdict = R.check_round(w, p, SimpleNamespace(rows=rows, positions=res.positions), [])
    expect("box_slide round with one unconverged step counts it failed",
           verdict["failed"] == 0, False)
    expect("box_slide unconverged step is not an oracle failure", verdict["check_failed"] == 0, True)

    # anisotropic_slide: one-step maximal-dissipation predictor
    w = W.WORKLOADS["anisotropic_slide"]
    p = W.aniso_params(SEED)
    res = harness.run(harness.Scenario(W.scenario(w, SEED)), harness.RunConfig(**w.run_config))
    q = np.array([x[:3] for x in res.positions])
    expect("anisotropic_slide real trajectory", O.check_aniso_slide(q, p)[0].all(), True)
    expect("anisotropic_slide position shifted past the bound",
           O.check_aniso_slide(shifted(q, 30, [2 * O.ANISO_PREDICT_TOL, 0, 0]), p)[0].all(), False)
    expect("anisotropic_slide checked against the transposed friction ellipse",
           O.check_aniso_slide(q, {**p, "mu": p["mu2"], "mu2": p["mu"]})[0].all(), False)
    expect("anisotropic_slide checked against an isotropic cone",
           O.check_aniso_slide(q, {**p, "mu2": p["mu"]})[0].all(), False)

    # lattice: non-penetration from node positions and the solver boundary
    w = W.WORKLOADS["lattice_19k"]
    raw = W.lattice_scenario(SEED, 3, side=10)
    seen = []
    real = harness.solve_vfpi

    def spy(aug, *args, **kwargs):
        out = real(aug, *args, **kwargs)
        seen.append(R.boundary_arrays(aug, out[0], out[1]))
        return out

    harness.solve_vfpi = spy
    try:
        res = harness.run(harness.Scenario(raw), harness.RunConfig(**w.run_config))
    finally:
        harness.solve_vfpi = real
    radius = raw["lattice"]["node_radius"]
    z = np.array(res.positions)[:, 2::3]
    tol = w.run_config["residual_tol"]
    expect("lattice real node heights", O.check_nodes_above_floor(z, radius)[0].all(), True)
    sunk = z.copy()
    sunk[-1, 7] = radius - 2 * O.PENETRATION_TOL
    expect("lattice node below the floor", O.check_nodes_above_floor(sunk, radius)[0].all(), False)

    arrays = seen[-1]
    expect("lattice real solver boundary", O.check_contact_step(**arrays, tol=tol)["ok"], True)
    lam = arrays["lam"]
    sliding = int(np.argmax(np.linalg.norm(lam[:, 1:], axis=1) / lam[:, 0]))

    def corrupted(key, **change):
        got = O.check_contact_step(**{**arrays, **change}, tol=tol)
        print(f"      {key} = {got[key]:.3e}")
        return got["ok"]

    outside = lam.copy()
    outside[sliding, 1:] *= 1.0 + 1e-6
    expect("lattice impulse outside the friction cone", corrupted("cone", lam=outside), False)
    pulling = lam.copy()
    pulling[sliding, 0] = -1e-3
    pulling[sliding, 1:] = 0.0
    expect("lattice pulling normal impulse", corrupted("cone", lam=pulling), False)
    b = arrays["b"].copy()
    b[0] += 2 * O.BALANCE_FACTOR * tol
    expect("lattice momentum imbalance", corrupted("balance", b=b), False)
    expect("lattice approaching contact (v_n + phi < 0)",
           corrupted("gap_violation", phi=arrays["phi"] - 2 * O.GAP_TOL), False)
    pressed = int(np.argmax(lam[:, 0]))
    phi = arrays["phi"].copy()
    phi[pressed] += 2 * O.COMPLEMENTARITY_TOL / lam[pressed, 0]
    expect("lattice pushing while separating (complementarity)",
           corrupted("complementarity", phi=phi), False)

    print(f"{len(failures)} wrong verdicts" + (f": {failures}" if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
