"""Velocity fixed-point contact solver with a diagonal surrogate system.

Each iteration takes a preconditioned residual step, solves every contact
independently against a scalar surrogate Delassus entry, and re-injects the
projected impulses:

    v* = v - W (A v - b)
    lambda_m = ProjectFC(-(gamma_m + omega_m)^-1 (eta_m + phi_m))
    v <- v* + W Jc^T lambda

The step matrix W is diagonal with the three entries of every contacted node
tied to a common value w_i, the same W under every operator. A contact's rows
of Jc are its frame R times the +I block of node i (and the -I block of node
j for a D-contact), so its diagonal block of Jc W Jc^T is R (w_i + w_j) I R^T
= (w_i + w_j) I: tying each node alone already makes it scalar, and nothing
needs the two nodes of a D-contact to share a value. Each contact side owns
its node (``NodalContactSet`` rejects a shared one), so the off-diagonal
blocks vanish and the per-contact solves are exact one-shot projections.

The stiff tie (gain kv) between a rigid body and its virtual contact nodes
slows this iteration. Every system runs one loop, safeguarded, restarted
type-II Anderson acceleration (``_anderson``): systems with virtual nodes
keep up to AA_WINDOW differences, tie-free systems none, which is the plain
iteration, optionally with Chebyshev weighting and under-relaxation (Anderson
over the Chebyshev step did not converge).

An iterate whose step norm falls below the tolerance tol converges only if it
also passes the force check ||A v - b - Jc^T lambda|| <= 10 tol, with the
factor 10 as CONSISTENCY_FACTOR.

Impulse projection operators: "strict" (normal clamp then tangential disk
clamp, exact complementarity), "proximal" (Euclidean cone projection, convex
relaxation), "strict-anisotropic" (normal clamp, then minimum-distance
projection onto the friction ellipse by monotone Newton on its secular
equation). The operator picks the projection and nothing else; ``project``
applies it to one contact's impulse. Each projection is positively
homogeneous, so rows whose squares would overflow or underflow are projected
scaled by a power of two, except on the strict array path
(``_project_batch``); rows in the normal range keep their bits.

Per solve, W's set-up gathers A's diagonal at the positions its pattern
caches and takes A's row norms from the pattern, whose size chooses the
kernel (``sparse``); so does the product operator of every iteration
(``solve_vfpi``). Per iteration, batches of at most
SCALAR_BATCH_MAX contacts under "strict" or "strict-anisotropic" take eta,
the one-shot solve and Jc^T lambda in one pass over Python floats per
contact, with the bits of the numpy chain that other batches take
(``contact_pass``). The chain runs over component-major (3, n_c) rows:
``ContactMap`` holds its frames and columns with the components in the
order 0, 2, 1, so that einsum sums each entry of Jc v in the order of the
float pass, and the strict projection keeps each impulse component a
contiguous row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .contacts import AugmentedDynamics, ContactMap
from .errors import DivergenceError, InvalidMatrixError
from .sparse import spmv

# up to this many contacts a loop over Python floats projects, and runs the
# whole contact pass, faster than numpy, whose fixed cost per call dominates
# on short arrays; the crossover lies between 16 and 24 contacts (timings in
# CHANGES.md)
SCALAR_BATCH_MAX = 16
CONSISTENCY_FACTOR = 10.0  # of the force check in the module docstring
# Anderson acceleration on systems with virtual nodes: differences kept before
# a restart, and the safeguard's scale D and decay exponent epsilon (see
# ``_anderson``). A window of 5 that slides instead of restarting stalls on the
# bundled anisotropic_slide's first step; timings in CHANGES.md.
AA_WINDOW = 10
AA_BOUND = 1e6
AA_DECAY = 1e-6
# Tikhonov weight of the Anderson least-squares solve, as a multiple of the
# mean diagonal trace(M)/k of its Gram matrix M
AA_REG = 1e-12
# Chebyshev weighting on tie-free systems: iterations before the weights
# start (l_s), and the under-relaxation u of each step
CHEBY_START = 10
UNDER_RELAX = 0.9
OPERATORS = ("strict", "proximal", "strict-anisotropic")
# A float or proximal row whose tangential squares leave [_TINY, inf) is
# projected scaled by a power of two near its largest magnitude
# (``_exponent``). The ellipse's Newton iteration runs where its semi-axes
# lie in [_AXIS_MIN, _AXIS_MAX] and the point's ellipse norm squared is below
# _FAR; beyond that, the point lies at least 2^50 semi-axes away, and the
# far-field limit of the closest point (``_aniso_far``) agreed with Newton to
# 3e-13 relative at 2^45 to 2^55 semi-axes.
_TINY = sys.float_info.min  # the smallest normal float
_SQRT_TINY = math.sqrt(_TINY)
_AXIS_MIN, _AXIS_MAX = 2.0**-480, 2.0**480
_FAR = 2.0**100


@dataclass
class SolverConfig:
    """V-FPI settings. W is always the node-tied Frobenius step matrix
    (``step_matrix_frobenius``), and ``residual_tol`` is the tol of the
    convergence test in the module docstring."""

    operator: str = "strict"  # one of OPERATORS
    residual_tol: float = 1e-4
    max_iters: int = 500  # caps map evaluations, Anderson candidates included
    # Chebyshev weighting (from iteration CHEBY_START on, each step
    # under-relaxed by UNDER_RELAX) acts on tie-free systems only; systems
    # with virtual nodes run an Anderson window instead
    chebyshev: bool = False
    omega: float = 0.0  # uniform contact regularization (invertible mode)


@dataclass
class SolverReport:
    iterations: int = 0
    residual_trace: list = field(default_factory=list)
    converged: bool = False
    consistency: float = float("nan")
    aa_rejected: int = 0  # Anderson candidates rejected by the safeguard


def project(lam_star: np.ndarray, mu: float, operator: str = "strict", mu2: float | None = None) -> np.ndarray:
    """One contact's (3,) trial impulse projected by ``operator``, through the
    batch path; ``mu2`` is the second friction coefficient of
    "strict-anisotropic" (``mu`` when None)."""
    row = np.asarray(lam_star, dtype=float).reshape(1, 3)
    mu2 = None if mu2 is None else np.array([float(mu2)])
    return _project_batch(row, np.array([float(mu)]), mu2, operator)[0]


def _exponent(*row: float) -> int | None:
    """The ``math.frexp`` exponent e of the row's largest magnitude, which
    2^-e scales into [0.5, 1): 0 for a row already there or all zero, and
    None for a row with a non-finite entry, which no scaling helps."""
    if all(map(math.isfinite, row)):
        return math.frexp(max(map(abs, row)))[1]
    return None


def _ldexp_row(row, e: int) -> tuple:
    """The row times 2^e, exact wherever no entry leaves the normal range."""
    return tuple(math.ldexp(x, e) for x in row)


def _strict_row(ln: float, t1: float, t2: float, mu: float) -> tuple:
    """Normal clamp, then radial clamp of the tangential part, on Python
    floats with the vectorized "strict" path's arithmetic. A row whose
    tangential squares overflow or underflow is projected scaled by a power
    of two (the projection is positively homogeneous), so its tangent is
    neither lost nor kept outside the cone."""
    ln = max(0.0, ln) if ln == ln else ln  # -0.0 -> +0.0 as in the batch path, NaN stays
    sq = t1 * t1 + t2 * t2
    if not _TINY <= sq < math.inf and (t1 or t2):
        e = _exponent(ln, t1, t2)
        if e:
            return _ldexp_row(_strict_row(*_ldexp_row((ln, t1, t2), -e), mu), e)
    limit = mu * ln
    tn = math.sqrt(sq)
    if tn > limit:
        scale = 0.0 if tn == 0.0 else limit / tn
        t1 *= scale
        t2 *= scale
    return ln, t1, t2


def _aniso_row(ln: float, t1: float, t2: float, mu1: float, mu2: float) -> tuple:
    """Normal clamp, then minimum-distance projection onto the friction
    ellipse, on Python floats. Outside the ellipse with semi-axes a = mu1 ln,
    b = mu2 ln, the closest point is (a^2 x0/(a^2+t), b^2 y0/(b^2+t)) at the
    root t > 0 of the convex, decreasing
    F(t) = (a x0/(a^2+t))^2 + (b y0/(b^2+t))^2 - 1. Newton from t0, where F >= 0,
    rises monotonically to it (D. Eberly, "Distance from a Point to an Ellipse,
    an Ellipsoid, or a Hyperellipsoid", Geometric Tools, 2013).

    Newton's squares stay in the float range while the semi-axes lie in
    [_AXIS_MIN, _AXIS_MAX] and the point within 2^50 semi-axes. A finite row
    outside that is scaled by a power of two (the projection is positively
    homogeneous), and a point still that far away takes ``_aniso_far``."""
    if ln <= 0.0:
        return 0.0, 0.0, 0.0
    a, b = mu1 * ln, mu2 * ln
    x0, y0 = abs(t1), abs(t2)
    if a == 0.0 or b == 0.0:  # the ellipse is a segment on one axis, or a point
        return ln, math.copysign(min(x0, a), t1), math.copysign(min(y0, b), t2)
    try:
        q = (x0 / a) ** 2 + (y0 / b) ** 2
    except OverflowError:
        q = math.inf
    if q <= 1.0:
        return ln, t1, t2
    if not (q < _FAR and _AXIS_MIN <= a <= _AXIS_MAX and _AXIS_MIN <= b <= _AXIS_MAX):
        e = _exponent(ln, t1, t2)  # None keeps NaN and infinite rows on the iteration
        if e:
            return _ldexp_row(_aniso_row(*_ldexp_row((ln, t1, t2), -e), mu1, mu2), e)
        if e == 0:
            return _aniso_far(ln, t1, t2, a, b)
    a2, b2, ax, by = a * a, b * b, a * x0, b * y0
    t = max(ax - a2, by - b2)
    try:
        while True:  # a2 + t, b2 + t and the squared ratios serve F and F' alike
            da, db = a2 + t, b2 + t
            ra, rb = ax / da, by / db
            ra, rb = ra * ra, rb * rb
            f = ra + rb - 1.0
            if f <= 0.0:
                break
            t_next = t + f / (2.0 * (ra / da + rb / db))
            if not t_next > t:
                break
            t = t_next
    except ZeroDivisionError:  # 0/0 where max() passed over a NaN tangent
        return ln, math.nan, math.nan
    return ln, math.copysign(a2 * x0 / da, t1), math.copysign(b2 * y0 / db, t2)


def _aniso_far(ln: float, t1: float, t2: float, a: float, b: float) -> tuple:
    """The closest point on the ellipse with semi-axes a, b to a point far
    outside it: as t grows, F(t) = 0 gives t -> hypot(a x0, b y0), and the
    point (a^2 x0 / t, b^2 y0 / t) lies on the ellipse. The error is of
    the order of the ellipse's size over the point's distance."""
    u, v = a * abs(t1), b * abs(t2)
    h = math.hypot(u, v)
    if h == 0.0:  # both products underflow: the ellipse is a point beside the distance
        return ln, math.copysign(0.0, t1), math.copysign(0.0, t2)
    return ln, math.copysign(a * (u / h), t1), math.copysign(b * (v / h), t2)


def _rescale_proximal(out: np.ndarray, lam_star: np.ndarray, mu: np.ndarray, tn: np.ndarray) -> None:
    """Project again the proximal rows whose tangent norm ``tn`` squared
    left the float range, scaled by a power of two near their largest
    magnitude: the projection is positively homogeneous, so
    P(x) = 2^e P(2^-e x). Two reductions settle the common case. Rows with a
    non-finite entry, a zero tangent or a largest magnitude already in
    [0.5, 1) keep the values in ``out``."""
    if not tn.size or _SQRT_TINY <= np.minimum.reduce(tn) and np.maximum.reduce(tn) < math.inf:
        return
    rows = np.flatnonzero((tn < _SQRT_TINY) | (tn == math.inf))
    x = lam_star[rows]
    e = np.frexp(np.abs(x).max(axis=1))[1]  # 0 for a non-finite or zero row
    keep = (e != 0) & x[:, 1:].any(axis=1)
    if keep.any():
        rows, e = rows[keep], e[keep, None]
        out[rows] = np.ldexp(_project_batch(np.ldexp(x[keep], -e), mu[rows], None, "proximal"), e)


def _project_batch(lam_star: np.ndarray, mu: np.ndarray, mu2, operator: str) -> np.ndarray:
    """Vectorized projection of (n_c, 3) trial impulses. The float rows
    rescale themselves where their squares leave the float range, and so do
    the rows of a proximal array (``_rescale_proximal``). The strict array
    path, which the solver runs every iteration on more than
    SCALAR_BATCH_MAX contacts, makes no such check: its two reductions cost
    2.4 of 11 us per call at 36 contacts, a fixed cost that bent test_09's
    log-log curve. A row there whose tangential squares overflow loses its
    tangent, and a tangent below 1e-154 may stay outside the cone."""
    if operator == "strict":
        if lam_star.shape[0] <= SCALAR_BATCH_MAX:
            rows = zip(lam_star.tolist(), mu.tolist())
            return np.array([_strict_row(*row, m) for row, m in rows]).reshape(-1, 3)
        out = lam_star.copy(order="K")
        ln, t1, t2 = out.T
        # + 0.0 turns -0.0 into +0.0, whichever zero np.maximum keeps on a tie
        np.maximum(ln, 0.0, out=ln)
        ln += 0.0
        limit = mu * ln
        tn = np.sqrt(t1 * t1 + t2 * t2)  # the bits of np.linalg.norm over 2 entries
        over = tn > limit
        if over.any():  # often none: every contact sticks
            # rows over the limit scale down to it, and a zero tangent over a
            # negative limit to 0; the other rows scale by 1.0, which keeps
            # their bits, so both tangent components scale in one call
            scale = np.subtract(1.0, over)
            np.divide(limit, tn, scale, where=over & (tn > 0))
            out.T[1:] *= scale
        return out
    if operator == "proximal":
        out = lam_star.copy(order="K")
        tn = np.linalg.norm(out[:, 1:], axis=1)
        inside = tn <= mu * out[:, 0]
        polar = mu * tn <= -out[:, 0]
        boundary = ~(inside | polar)
        ln = (out[:, 0] + mu * tn) / (1.0 + mu * mu)
        safe_tn = np.where(tn > 0, tn, 1.0)
        tang = (mu * ln / safe_tn)[:, None] * out[:, 1:]
        out[boundary, 0] = ln[boundary]
        out[boundary, 1:] = tang[boundary]
        out[polar] = 0.0
        _rescale_proximal(out, lam_star, mu, tn)
        return out
    if operator == "strict-anisotropic":
        mu2 = mu if mu2 is None else np.asarray(mu2, dtype=float)
        rows = zip(lam_star.tolist(), mu.tolist(), mu2.tolist())
        return np.array([_aniso_row(*row, m1, m2) for row, m1, m2 in rows]).reshape(-1, 3)
    raise ValueError(f"unknown operator {operator!r}")


def step_matrix_frobenius(aug: AugmentedDynamics) -> np.ndarray:
    """The (n,) diagonal of W minimizing ||I - W A||_F for the system's A,
    with the three entries of every contacted node tied to one value: their
    diagonal sum over their row-norm sum. Tying each node alone makes every
    contact's block of Jc W Jc^T scalar, (w_i + w_j) I for a D-contact, so W
    is the same under every operator (module docstring).

    The diagonal is gathered at the ``diag_pos`` of the system's
    ``sparse.Pattern``, and the row norms come from that pattern: the
    bincount on a small system, the chunked CSR view of A^T on a large one,
    the same bits on a bitwise symmetric A (``sparse``).

    The returned W is read-only, which tells ``surrogate_gamma`` that its
    ties hold."""
    a = aug.a
    rns = aug.pattern.row_norms_sq(a)
    if np.any(rns <= 0.0):
        raise InvalidMatrixError("zero row norm in step-matrix computation")
    diag = a.data[aug.pattern.diag_pos]
    w = diag / rns
    idx = aug.contacts.columns.node_idx
    w[idx] = (diag[idx].sum(axis=1) / rns[idx].sum(axis=1))[:, None]
    w.flags.writeable = False
    return w


def surrogate_gamma(w: np.ndarray, aug: AugmentedDynamics, omega: float = 0.0) -> np.ndarray:
    """Per-contact scalar Delassus entries (n_c,), all > 0, by element
    extraction only from the (n,) diagonal ``w`` of W.

    A writeable ``w``, a W from outside ``step_matrix_frobenius``, must tie
    the three entries of every contacted node, or ``InvalidMatrixError`` is
    raised. A read-only ``w`` is taken as the W that
    ``step_matrix_frobenius`` returns read-only, tied as it was made: the
    check would cost most of this call (8.9 of 12.8 us on the box)."""
    columns = aug.contacts.columns
    if w.flags.writeable:
        _check_tie(w, columns.node_idx)
    gamma = w[columns.col_i]
    if columns.any_j:
        gamma[columns.has_j] += w[columns.j_cols]
    return gamma + omega


def _check_tie(w: np.ndarray, node_idx: np.ndarray) -> None:
    """Guard for a W from outside ``step_matrix_frobenius``: the three
    entries of every contacted node (its triple in ``node_idx``) must
    coincide."""
    trip = w[node_idx]
    if not (np.all(trip[:, 0] == trip[:, 1]) and np.all(trip[:, 0] == trip[:, 2])):
        raise InvalidMatrixError("step matrix violates the per-node ties")


def contact_solve_oneshot(
    gamma: np.ndarray,
    eta: np.ndarray,
    phi: np.ndarray,
    mu: np.ndarray,
    operator: str = "strict",
    mu2=None,
) -> np.ndarray:
    """Independent per-contact solves of the diagonal surrogate problem.

    ``phi`` holds the per-contact normal stabilization terms; it only touches
    the normal component.
    """
    lam_star = -eta
    lam_star[:, 0] -= phi
    lam_star /= gamma[:, None]
    return _project_batch(lam_star, mu, mu2, operator)


def contact_pass(aug: AugmentedDynamics, gamma: np.ndarray, operator: str):
    """The contact half of one V-FPI map: a function of v* that returns lam
    and J_c^T lam, as ``ContactMap.jc``, ``contact_solve_oneshot`` and
    ``ContactMap.jc_t`` give them. That chain passes the contacts'
    components as (3, n_c) rows: eta and lam are the (n_c, 3) transposes of
    C-ordered arrays, which the one-shot solve and the strict projection
    keep.

    Batches that project on Python floats anyway, at most SCALAR_BATCH_MAX
    contacts under "strict" or "strict-anisotropic", take one pass over
    floats instead (``_float_pass``): each call of the chain costs
    microseconds of numpy overhead on a few contacts, more than its
    arithmetic. A zero gamma, where a float division raises, takes the
    chain. Both read their indices from the set's ``ContactColumns``."""
    if gamma.shape[0] <= SCALAR_BATCH_MAX and operator in ("strict", "strict-anisotropic"):
        g = gamma.tolist()
        if 0.0 not in g:
            return _float_pass(aug, g, operator)
    jmap = ContactMap(aug)
    nodal = aug.contacts

    def chain(v_star):
        lam = contact_solve_oneshot(gamma, jmap.jc(v_star), nodal.phi, nodal.mu, operator, nodal.mu2)
        return lam, jmap.jc_t(lam)

    return chain


def _float_pass(aug: AugmentedDynamics, gamma: list, operator: str):
    """``contact_pass`` in one loop over the contacts on Python floats, bit
    for bit the chain's arrays, NaN signs aside. Per contact it reads v* at
    column i (minus column j's for a D-contact), rotates into the frame F,
    scales by gamma, projects with ``_strict_row`` or ``_aniso_row`` and
    rotates back. The sums repeat the order of ``ContactMap``'s einsums
    over its permuted component-major frames, and their +0.0 start, which
    turns a -0.0 sum into +0.0: J_c v's entry a is
    0 + ((F_a0 r0 + F_a2 r2) + F_a1 r1), and J_c^T lam's is
    0 + ((F_0a l0 + F_1a l1) + F_2a l2). v* is gathered and J_c^T lam
    scattered in the order of ``ContactColumns.gather``; the frames and
    parameters become floats once, here."""
    nodal = aug.contacts
    idx = nodal.columns.gather
    rows = list(zip(
        nodal.frames.reshape(-1, 9).tolist(), nodal.columns.j_flags, nodal.phi.tolist(), gamma, nodal.mu.tolist(),
        nodal.mu2.tolist(),
    ))
    aniso = operator == "strict-anisotropic"
    n = aug.n

    def float_pass(v_star):
        v = iter(v_star[idx].tolist())
        lam, f_c = [], []
        for (f00, f01, f02, f10, f11, f12, f20, f21, f22), d, p, g, m, m2 in rows:
            r0, r1, r2 = next(v), next(v), next(v)
            if d:
                r0 -= next(v)
                r1 -= next(v)
                r2 -= next(v)
            e0 = 0.0 + ((f00 * r0 + f02 * r2) + f01 * r1)
            e1 = 0.0 + ((f10 * r0 + f12 * r2) + f11 * r1)
            e2 = 0.0 + ((f20 * r0 + f22 * r2) + f21 * r1)
            if aniso:
                l0, l1, l2 = _aniso_row((-e0 - p) / g, -e1 / g, -e2 / g, m, m2)
            else:
                l0, l1, l2 = _strict_row((-e0 - p) / g, -e1 / g, -e2 / g, m)
            lam += (l0, l1, l2)
            w0 = 0.0 + ((f00 * l0 + f10 * l1) + f20 * l2)
            w1 = 0.0 + ((f01 * l0 + f11 * l1) + f21 * l2)
            w2 = 0.0 + ((f02 * l0 + f12 * l1) + f22 * l2)
            f_c += (w0, w1, w2, 0.0 - w0, 0.0 - w1, 0.0 - w2) if d else (w0, w1, w2)
        out = np.zeros(n)
        out[idx] = f_c
        return np.array(lam).reshape(-1, 3), out

    return float_pass


def chebyshev_nu(l: int, l_s: int, rho: float, nu_prev: float) -> float:
    """Three-branch Chebyshev weight schedule."""
    if l < l_s:
        return 1.0
    if l == l_s:
        return 2.0 / (2.0 - rho * rho)
    return 4.0 / (4.0 - rho * rho * nu_prev)


def chebyshev_update(v_ss: np.ndarray, v_prevprev: np.ndarray, nu: float) -> np.ndarray:
    return nu * (v_ss - v_prevprev) + v_prevprev


def estimate_rho(norm_l: float, norm_lm1: float, prev_rho: float = 0.0) -> float:
    """Spectral-radius proxy: clamped ratio of successive update norms."""
    if norm_lm1 <= 0.0:
        return prev_rho
    return min(norm_l / norm_lm1, 1.0)


def scc_residual(v_contact: np.ndarray, lam: np.ndarray, phi: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Per-contact violation of the complementarity contact conditions.

    ``v_contact`` is the (n_c, 3) contact-frame velocity, ``lam`` the
    contact-frame impulse. Zero means the normal complementarity, cone
    containment and slip alignment all hold.
    """
    v_contact = np.atleast_2d(v_contact)
    lam = np.atleast_2d(lam)
    phi = np.atleast_1d(phi)
    mu = np.atleast_1d(mu)
    ln = lam[:, 0]
    lt = lam[:, 1:]
    vn = v_contact[:, 0] + phi
    vt = v_contact[:, 1:]
    ltn = np.linalg.norm(lt, axis=1)
    res = np.abs(np.minimum(ln, 0.0))
    res = np.maximum(res, np.abs(np.minimum(vn, 0.0)))
    norm = np.maximum(1.0, np.maximum(np.abs(ln), np.abs(vn)))
    res = np.maximum(res, np.abs(ln * vn) / norm)
    res = np.maximum(res, np.maximum(0.0, ltn - mu * ln))
    # slip alignment: delta lt + mu ln vt = 0 with delta the slip multiplier
    vtn = np.linalg.norm(vt, axis=1)
    slip = vtn > 0
    delta = np.zeros_like(ln)
    safe_ltn = np.where(ltn > 0, ltn, 1.0)
    delta[slip] = (vtn * mu * ln / safe_ltn)[slip]
    align = np.linalg.norm(delta[:, None] * lt + (mu * ln)[:, None] * vt, axis=1)
    scale = np.maximum(1.0, (np.abs(mu * ln) * np.maximum(vtn, ltn)))
    res = np.maximum(res, align / scale)
    return res


def _anderson(step_map, a, b: np.ndarray, v: np.ndarray, window: int, cfg: SolverConfig, report: SolverReport):
    """The V-FPI loop: safeguarded type-II Anderson acceleration of v = G(v)
    (Walker & Ni, SIAM J. Numer. Anal. 2011; Zhang, O'Donoghue & Boyd, SIAM
    J. Optim. 2020) over at most ``window`` differences. Window 0 is the
    plain iteration x <- G(x).

    ``step_map(x, r)`` returns G(x), its lam and J_c^T lam from r = A x - b,
    with A x from ``spmv(a, x)``. With f = G(x) - x, the rows of dG and dF
    hold the differences of G and f between successive kept iterates since
    the last restart, and M = dF dF^T gains one row and column per kept
    iterate. The candidate is G(x) - gamma dG with (M + lambda I) gamma = dF f,
    lambda = AA_REG trace(M)/k over k differences; a zero M or a failed solve
    gives G(x). The candidate is kept if its ||f|| <= AA_BOUND ||f_0||
    (n_AA + 1)^-(1 + AA_DECAY), n_AA counting kept candidates; else the
    history is cleared and G(x) taken. A full history restarts from the
    newest iterate: the buffers wrap, and the next difference overwrites
    row 0. Each evaluation of G is one iteration.

    Each kept G(x) whose ||f|| falls below tol gets the force check of the
    module docstring, once; its A G(x) - b feeds the next evaluation when no
    candidate is formed, which is then at G(x) itself. Sets the report's
    iteration count and force residual; returns G(x) and its lam.
    """
    trace = report.residual_trace
    d_g = np.empty((window, v.shape[0]))
    d_f = np.empty_like(d_g)
    gram = np.empty((window, window))
    k = n_aa = 0  # differences held (rows 0..k-1), kept candidates
    g = r_g = None  # the newest kept G(x), and A g - b once its force check ran
    x, r = v, None  # the next evaluation point, and A x - b where known
    while True:
        g_x, lam_x, f_c_x = step_map(x, spmv(a, x) - b if r is None else r)
        f_x = g_x - x
        norm_f = math.sqrt(f_x.dot(f_x))
        trace.append(norm_f)
        # a NaN residual fails the comparison too
        if k and not norm_f <= AA_BOUND * trace[0] * (n_aa + 1) ** -(1.0 + AA_DECAY):
            report.aa_rejected += 1
            k = 0
        else:
            if window and g is not None:
                n_aa += k > 0
                k %= window
                np.subtract(g_x, g, out=d_g[k])
                np.subtract(f_x, f, out=d_f[k])
                gram[k, : k + 1] = gram[: k + 1, k] = d_f[: k + 1] @ d_f[k]
                k += 1
            g, f, lam, f_c, r_g = g_x, f_x, lam_x, f_c_x, None
            if not math.isfinite(norm_f):
                report.iterations = len(trace)
                raise DivergenceError("non-finite iterate in V-FPI", trace)
            if norm_f < cfg.residual_tol:
                r_g = spmv(a, g) - b
                report.consistency = float(np.linalg.norm(r_g - f_c))
                if report.consistency <= CONSISTENCY_FACTOR * cfg.residual_tol:
                    report.converged = True
                    break
        if len(trace) >= cfg.max_iters:
            break
        x, r = (_aa_candidate(g, f, d_g[:k], d_f[:k], gram[:k, :k]), None) if k else (g, r_g)
    report.iterations = len(trace)
    if r_g is None:
        report.consistency = float(np.linalg.norm(spmv(a, g) - b - f_c))
    return g, lam


def _aa_candidate(g: np.ndarray, f: np.ndarray, d_g: np.ndarray, d_f: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """G(x) - gamma dG with gamma from the Tikhonov-regularized normal
    equations (M + lambda I) gamma = dF f; G(x) itself when M is zero or not
    finite, or its Cholesky factorization fails."""
    k = gram.shape[0]
    reg = AA_REG * gram.trace() / k
    if not 0.0 < reg < math.inf:
        return g
    m = gram.copy()
    m.flat[:: k + 1] += reg
    _, gamma, info = lapack.dposv(m, d_f @ f)  # Cholesky solve; info > 0: not positive definite
    return g - gamma @ d_g if info == 0 else g


def solve_vfpi(aug: AugmentedDynamics, cfg: SolverConfig, warm: np.ndarray):
    """Run the velocity fixed-point iteration on an augmented system.

    Every system runs the one loop of ``_anderson``: with an AA_WINDOW
    history if it has virtual nodes, else with an empty window and, with
    ``cfg.chebyshev``, the Chebyshev weighting and under-relaxation on each
    plain step. Returns (v_hat, lam, report). Each map evaluation's
    contact half is ``contact_pass``, built once per solve.

    Every product goes through the operator of the system's
    ``sparse.Pattern``: ``sparse.BincountMatvec`` on a small system, the CSR
    view ``a.T`` on a large one, A x in the same bits either way.
    """
    a, b = aug.a, aug.b
    n_c = len(aug.contacts)
    w = step_matrix_frobenius(aug)
    if n_c:
        contacts = contact_pass(aug, surrogate_gamma(w, aug, cfg.omega), cfg.operator)
    report = SolverReport()
    trace = report.residual_trace

    def plain_map(x, r):
        v_star = x - w * r
        if not n_c:
            return v_star, np.zeros((0, 3)), 0.0
        lam, f_c = contacts(v_star)
        return v_star + w * f_c, lam, f_c

    x_prev, rho, nu = None, 0.0, 1.0

    def chebyshev_map(x, r):
        nonlocal x_prev, rho, nu
        l = len(trace) + 1  # the iteration this evaluation makes
        if l > 2:
            rho = estimate_rho(trace[-1], trace[-2], rho)
        g, lam, f_c = plain_map(x, r)
        v_ss = UNDER_RELAX * g + (1.0 - UNDER_RELAX) * x
        nu = chebyshev_nu(l, CHEBY_START, rho, nu)
        x_prev, g = x, chebyshev_update(v_ss, x_prev, nu) if l > 1 else v_ss
        return g, lam, f_c

    tied = aug.n > aug.n_orig
    step_map = chebyshev_map if cfg.chebyshev and not tied else plain_map
    window = AA_WINDOW if tied else 0
    v, lam = _anderson(step_map, aug.pattern.operator(a), b, warm.astype(float), window, cfg, report)
    return v, lam, report


def inverse_contact(aug: AugmentedDynamics, v_hat: np.ndarray, omega: float, operator: str = "proximal") -> np.ndarray:
    """Recover contact impulses from a converged velocity via the regularized
    (invertible) contact model: the one-shot solve with the regularization
    scalar omega in place of every surrogate Delassus entry."""
    nodal = aug.contacts
    gamma = np.full(len(nodal), float(omega))
    return contact_solve_oneshot(gamma, ContactMap(aug).jc(v_hat), nodal.phi, nodal.mu, operator, nodal.mu2)
