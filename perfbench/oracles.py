"""Checks of a round's outputs, computed apart from the program.

Every check returns one boolean per simulated step (``True`` = the step
passed) plus the worst value it saw, so a failed check counts failed steps.
The functions take plain arrays, which lets the self-test feed them corrupted
outputs. Only numpy and scipy are used; nothing here imports condsim.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from workloads import CUBE_HALF, CUBE_MASS, DT, G

# box_slide: planar position against the closed-form slide, m
BOX_SLIDE_TOL = 5e-5
# anisotropic_slide: position against the one-step maximal-dissipation predictor, m
ANISO_PREDICT_TOL = 2e-5
# lattice_19k: node below the floor (the acceptance suite's penetration bound), m
PENETRATION_TOL = 5e-5
# box_slide, anisotropic_slide: cube centre off its resting height, m (the soft
# kv = 1e3 tie of anisotropic_slide lets the cube sink about 6e-5 m)
CUBE_HEIGHT_TOL = 1e-4
# lattice_19k: ||A v - b - J_c^T lam|| over the residual tolerance; the solver
# promises this factor (SolverConfig.consistency_factor) when it converges
BALANCE_FACTOR = 10.0
# lattice_19k: impulse outside the friction cone, relative to |lam|
CONE_RTOL = 1e-9
# lattice_19k: Signorini complementarity, normal gap velocity in m/s and the
# product lam_n * (v_n + phi) in W
GAP_TOL = 1e-4
COMPLEMENTARITY_TOL = 1e-4


def box_closed_form(force: float, mu: float, steps: int) -> np.ndarray:
    """Distance slid along the push after each step, from rest under a
    constant push and constant Coulomb friction mu m g.

    The integrator's midpoint rule is exact for constant acceleration, so the
    continuous solution 0.5 a t^2 is also the discrete one.
    """
    a = (force - mu * CUBE_MASS * G) / CUBE_MASS
    if a <= 0.0:
        raise ValueError("push does not overcome static friction")
    t = DT * np.arange(1, steps + 1)
    return 0.5 * a * t * t


def check_box_slide(positions: np.ndarray, params: dict) -> tuple[np.ndarray, float]:
    """``positions``: (steps, 3) cube centre after each step. The slide must
    follow the closed form along the push and stay on its line across it."""
    start = np.asarray(params["start"], dtype=float)
    u = np.array([np.cos(params["angle"]), np.sin(params["angle"])])
    d = positions[:, :2] - start
    along = d @ u
    across = d @ np.array([-u[1], u[0]])
    err = np.maximum(
        np.abs(along - box_closed_form(params["force"], params["mu"], len(positions))),
        np.abs(across),
    )
    return err <= BOX_SLIDE_TOL, float(err.max())


def _ellipse_boundary(a_x: float, a_y: float, samples: int = 20001) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * np.pi, samples)
    return np.stack([a_x * np.cos(theta), a_y * np.sin(theta)], axis=1)


def check_aniso_slide(positions: np.ndarray, params: dict) -> tuple[np.ndarray, float]:
    """``positions``: (steps, 3) cube centre after each step.

    From each simulated state, predict the next position with the friction
    force that dissipates most over a dense sampling of the friction-ellipse
    boundary (or the sticking force when it lies inside the ellipse), as the
    acceptance suite's anisotropic-friction criterion does.
    """
    m, g = CUBE_MASS, G
    a_x, a_y = params["mu"] * m * g, params["mu2"] * m * g
    boundary = _ellipse_boundary(a_x, a_y)
    qs = np.vstack([params["start"], positions[:, :2]])
    v = np.array(params["velocity"], dtype=float)
    err = np.empty(len(positions))
    for k in range(len(positions)):
        f_stick = -(m / DT) * v
        if (f_stick[0] / a_x) ** 2 + (f_stick[1] / a_y) ** 2 <= 1.0:
            f = f_stick
        else:
            diss = -boundary @ v - (DT / (2.0 * m)) * np.sum(boundary**2, axis=1)
            f = boundary[np.argmax(diss)]
        q_pred = qs[k] + DT * (v + (DT / (2.0 * m)) * f)
        err[k] = np.abs(qs[k + 1] - q_pred).max()
        v = 2.0 * (qs[k + 1] - qs[k]) / DT - v
    return err <= ANISO_PREDICT_TOL, float(err.max())


def check_cube_on_floor(positions: np.ndarray) -> tuple[np.ndarray, float]:
    """The cube's centre stays at its resting height on the floor: it neither
    sinks nor lifts off."""
    err = np.abs(positions[:, 2] - CUBE_HALF)
    return err <= CUBE_HEIGHT_TOL, float(err.max())


def check_nodes_above_floor(node_z: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """``node_z``: (steps, nodes) node heights after each step; the floor is
    z = 0 and each node is a sphere of ``radius``."""
    depth = np.maximum(0.0, radius - node_z).max(axis=1)
    return depth <= PENETRATION_TOL, float(depth.max())


def contact_jacobian(frames: np.ndarray, col_i: np.ndarray, col_j: np.ndarray, n: int) -> sp.csr_matrix:
    """J_c with one 3x3 rotation block per contact at its node's columns
    (minus the block at the second node of a node-node contact)."""
    n_c = len(col_i)
    rows = np.repeat(np.arange(3 * n_c), 3)
    cols = (col_i[:, None, None] + np.arange(3)[None, None, :]).repeat(3, axis=1).ravel()
    vals = frames.ravel()
    has_j = col_j >= 0
    if has_j.any():
        rows_j = rows.reshape(n_c, 9)[has_j].ravel()
        cols_j = (col_j[has_j, None, None] + np.arange(3)[None, None, :]).repeat(3, axis=1).ravel()
        rows = np.concatenate([rows, rows_j])
        cols = np.concatenate([cols, cols_j])
        vals = np.concatenate([vals, -frames[has_j].ravel()])
    return sp.csr_matrix((vals, (rows, cols)), shape=(3 * n_c, n))


def check_contact_step(a: sp.spmatrix, b: np.ndarray, v: np.ndarray, lam: np.ndarray,
                       jc: sp.spmatrix, phi: np.ndarray, mu: np.ndarray, tol: float) -> dict:
    """Method properties of one solved contact step, at the solver boundary.

    ``a``, ``b``: the augmented system; ``v``: the solver's velocity; ``lam``:
    (n_c, 3) contact-frame impulses (normal first); ``phi``: normal
    stabilization terms; ``tol``: the run's residual tolerance. Returns the
    worst value of each property and whether all hold.
    """
    balance = float(np.linalg.norm(a @ v - b - jc.T @ lam.ravel()))
    scale = np.maximum(1.0, np.abs(lam).max(axis=1))
    cone = float(np.max(np.maximum(
        -lam[:, 0], np.linalg.norm(lam[:, 1:], axis=1) - mu * lam[:, 0]
    ) / scale, initial=0.0))
    gap = (jc @ v).reshape(-1, 3)[:, 0] + phi
    gap_violation = float(np.max(-gap, initial=0.0))
    complementarity = float(np.max(np.abs(lam[:, 0] * gap), initial=0.0))
    ok = (
        balance <= BALANCE_FACTOR * tol
        and cone <= CONE_RTOL
        and gap_violation <= GAP_TOL
        and complementarity <= COMPLEMENTARITY_TOL
    )
    return {
        "ok": bool(ok),
        "balance": balance,
        "cone": cone,
        "gap_violation": gap_violation,
        "complementarity": complementarity,
    }
