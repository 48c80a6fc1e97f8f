"""Impulse fixed-point baselines on the explicit Delassus operator.

Projected Gauss-Seidel and accelerated projected gradient descent, both on
the convex cone-complementarity program

    min 0.5 lam^T A_c lam + lam^T (b_c + phi_c)   s.t.  lam_m in friction cone

with A_c = Jc A^-1 Jc^T assembled from a dense Cholesky factor of A. Both
project onto each contact's isotropic cone (the proximal model), whatever
operator the V-FPI runs. These exist for head-to-head comparison at desk
scale only; they refuse systems beyond ``DENSE_FACTOR_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .contacts import AugmentedDynamics, contact_jacobian_matrix
from .errors import CapacityError, DimensionMismatchError, NotPositiveDefiniteError
from .solver import _project_batch, project

DENSE_FACTOR_CAP = 4096
PGS_INNER_ITERS = 8  # projected-gradient steps per contact and sweep


@dataclass(eq=False)
class BaselineConfig:
    residual_tol: float = 1e-4  # velocity-space, consistent with the V-FPI residual
    max_iters: int = 2000
    warm_start: np.ndarray | None = None


@dataclass
class BaselineReport:
    iterations: int = 0
    residual_trace: list = field(default_factory=list)
    converged: bool = False
    objective_trace: list = field(default_factory=list)
    consistency: float = float("nan")  # the force residual, which the baselines do not check


@dataclass(eq=False)
class DelassusProblem:
    a_c: np.ndarray  # dense, symmetric
    b_c: np.ndarray
    phi: np.ndarray  # per-contact normal stabilization
    mu: np.ndarray
    factor: tuple  # scipy.linalg.cho_factor of A
    jc: "np.ndarray"  # dense (3 n_c, n) for velocity recovery maps
    b: np.ndarray


def factor_spd(a: sp.csc_matrix) -> tuple:
    """Dense lower Cholesky factor of a symmetric positive definite matrix,
    as ``scipy.linalg.cho_factor`` returns it."""
    if a.shape[0] > DENSE_FACTOR_CAP:
        raise CapacityError(
            f"factor_spd: dim {a.shape[0]} exceeds dense capacity {DENSE_FACTOR_CAP}"
        )
    try:
        return cho_factor(a.toarray(), lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def assemble_delassus(aug: AugmentedDynamics) -> DelassusProblem:
    """Build A_c, b_c and the A factor."""
    factor = factor_spd(aug.a)
    jc = contact_jacobian_matrix(aug).toarray()
    ainv_jt = cho_solve(factor, jc.T)
    a_c = jc @ ainv_jt
    b_c = jc @ cho_solve(factor, aug.b)
    nodal = aug.contacts
    return DelassusProblem(
        0.5 * (a_c + a_c.T),
        b_c,
        nodal.phi,
        nodal.mu,
        factor,
        jc,
        aug.b.copy(),
    )


def _phi_full(p: DelassusProblem) -> np.ndarray:
    out = np.zeros_like(p.b_c)
    out[0::3] = p.phi
    return out


def _grad(p: DelassusProblem, lam: np.ndarray) -> np.ndarray:
    return p.a_c @ lam + p.b_c + _phi_full(p)


def _objective(p: DelassusProblem, lam: np.ndarray) -> float:
    return float(0.5 * lam @ p.a_c @ lam + lam @ (p.b_c + _phi_full(p)))


def _velocity_residual(p: DelassusProblem, dlam: np.ndarray) -> float:
    """Impulse change mapped to velocity space: ||A^-1 Jc^T dlam||."""
    return float(np.linalg.norm(cho_solve(p.factor, p.jc.T @ dlam)))


def solve_pgs(p: DelassusProblem, cfg: BaselineConfig | None = None):
    """Projected Gauss-Seidel sweeps with per-contact inner projected-gradient
    solves of the 3x3 cone-constrained subproblem."""
    cfg = cfg or BaselineConfig()
    n_c = p.mu.shape[0]
    lam = np.zeros(3 * n_c) if cfg.warm_start is None else cfg.warm_start.astype(float).copy()
    report = BaselineReport()
    a = p.a_c
    rhs = p.b_c + _phi_full(p)
    for sweep in range(1, cfg.max_iters + 1):
        lam_old = lam.copy()
        for m in range(n_c):
            sl = slice(3 * m, 3 * m + 3)
            amm = a[sl, sl]
            trace = np.trace(amm)
            if trace <= 0.0:
                trace = 1e-12
            step = 1.0 / (trace + 1e-12 * trace)
            r_m = rhs[sl] + a[sl] @ lam - amm @ lam[sl]
            lm = lam[sl].copy()
            for _ in range(PGS_INNER_ITERS):
                g = amm @ lm + r_m
                lm = project(lm - step * g, p.mu[m], "proximal")
            lam[sl] = lm
        res = _velocity_residual(p, lam - lam_old)
        report.residual_trace.append(res)
        report.iterations = sweep
        if res < cfg.residual_tol:
            report.converged = True
            break
    return lam.reshape(n_c, 3), report


def _power_iteration_lmax(a: np.ndarray, iters: int = 50, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(a.shape[0])
    x /= np.linalg.norm(x)
    val = 1.0
    for _ in range(iters):
        y = a @ x
        val = float(np.linalg.norm(y))
        if val == 0.0:
            return 1.0
        x = y / val
    return val


def solve_apgd(p: DelassusProblem, cfg: BaselineConfig | None = None):
    """Nesterov-accelerated projected gradient with gradient-based restart."""
    cfg = cfg or BaselineConfig()
    n_c = p.mu.shape[0]
    lam = np.zeros(3 * n_c) if cfg.warm_start is None else cfg.warm_start.astype(float).copy()
    report = BaselineReport()
    a = p.a_c
    lmax = _power_iteration_lmax(a)
    step = 1.0 / max(lmax, 1e-12)
    y = lam.copy()
    t_acc = 1.0
    report.objective_trace.append(_objective(p, lam))
    for it in range(1, cfg.max_iters + 1):
        g = _grad(p, y)
        lam_new = _project_batch((y - step * g).reshape(n_c, 3), p.mu, None, "proximal").ravel()
        # adaptive restart when the momentum fights the gradient mapping
        if (y - lam_new) @ (lam_new - lam) > 0:
            y = lam.copy()
            t_acc = 1.0
            g = _grad(p, y)
            lam_new = _project_batch((y - step * g).reshape(n_c, 3), p.mu, None, "proximal").ravel()
            report.objective_trace.append(_objective(p, lam_new))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        y = lam_new + ((t_acc - 1.0) / t_next) * (lam_new - lam)
        res = _velocity_residual(p, lam_new - lam)
        report.residual_trace.append(res)
        lam, t_acc = lam_new, t_next
        report.iterations = it
        if res < cfg.residual_tol:
            report.converged = True
            break
    return lam.reshape(n_c, 3), report


def recover_velocity(p: DelassusProblem, lam: np.ndarray) -> np.ndarray:
    """v_hat = A^-1 (b + Jc^T lam)."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.shape[0] != p.jc.shape[0]:
        raise DimensionMismatchError("recover_velocity: impulse length mismatch")
    return cho_solve(p.factor, p.b + p.jc.T @ lam)
