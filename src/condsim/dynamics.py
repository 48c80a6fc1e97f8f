"""Per-step linearized implicit dynamics.

Builds the symmetric positive definite system ``A v_hat = b`` from point
masses, rigid bodies and distance springs, using the midpoint velocity
discretization: one implicit linear solve per step, with

    A = (2/t) M + (t/2) (Je^T K Je + E)
    b = (2/t) M v - C v - Je^T K e + f_ext

All right-hand-side terms are kept at force level (Newtons); contact impulses
later enter the same balance as forces. Gravity goes straight into f_ext and
its potential Hessian is dropped.

Scene data is kept as arrays: 3-DOF nodes (particles and lattice nodes) and
springs are rows of index and parameter arrays, so the step layers walk them in
batched passes. Only the few rigid bodies are records.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateConstraintError, InvalidStateError

EPS_DAMPING_FLOOR = 1e-6  # N s/m, keeps E positive definite without visible damping


def triples(offsets) -> np.ndarray:
    """(k, 3) indices of the three consecutive entries starting at each offset."""
    return np.asarray(offsets, dtype=int).reshape(-1, 1) + np.arange(3)


@dataclass
class RigidBody:
    """A 6-DOF rigid body.

    It uses 7 coordinates (position + unit quaternion, scalar first) but 6
    velocity DOF (linear, then angular), starting at ``q_offset``/``v_offset``.
    """

    mass: float
    q_offset: int
    v_offset: int
    inertia: np.ndarray  # body-frame 3x3
    contact_points: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))  # body frame
    contact_radius: float = 0.0


@dataclass
class Bodies:
    """Every body of a scene.

    Row m of the node arrays is one 3-DOF point mass (a particle or a lattice
    node) whose coordinates and velocity start at ``node_q[m]``/``node_v[m]``.
    A node with ``node_radius[m] > 0`` carries a sphere contact proxy.
    """

    node_q: np.ndarray  # (n,) int
    node_v: np.ndarray  # (n,) int
    node_mass: np.ndarray  # (n,) kg
    node_radius: np.ndarray  # (n,) m, 0 means no proxy
    rigid: list = field(default_factory=list)  # RigidBody records


@dataclass
class SystemState:
    """Generalized coordinates and velocities for one scene."""

    q: np.ndarray
    v: np.ndarray
    step_index: int = 0
    dt: float = 0.01


@dataclass
class DampingPolicy:
    """Constant diagonal damping, or the diagonal surrogate of the geometric
    stiffness (absolute column sums), both floored at ``eps_floor``."""

    variant: str = "constant"  # "constant" | "geometric-projection"
    value: float = 0.0
    eps_floor: float = EPS_DAMPING_FLOOR


@dataclass
class Springs:
    """Distance springs with potential 0.5 k e^2, e = |p_i - p_j| - rest.

    Row m joins the 3-DOF nodes at coordinate offsets ``qi[m]``/``qj[m]``
    (velocity offsets ``vi[m]``/``vj[m]``) with stiffness ``k[m]`` in N/m.
    All springs share the scene's damping policy.
    """

    qi: np.ndarray
    qj: np.ndarray
    vi: np.ndarray
    vj: np.ndarray
    k: np.ndarray
    rest: np.ndarray
    damping: DampingPolicy = field(default_factory=DampingPolicy)


@dataclass
class AssembledDynamics:
    a: sp.csc_matrix
    b: np.ndarray
    n: int


def _spring_geometry(springs: Springs, q: np.ndarray):
    """Length (m,) and unit direction p_i - p_j (m, 3) of every spring."""
    d = q[triples(springs.qi)] - q[triples(springs.qj)]
    dist = np.linalg.norm(d, axis=1)
    if np.any(dist < 1e-12):
        raise DegenerateConstraintError("distance spring endpoints coincide")
    return dist, d / dist[:, None]


def spring_eval(springs: Springs, q: np.ndarray):
    """Return (e, J): errors (m,) and Jacobian rows (m, 6) over the stacked
    coordinates (node i, node j) of every spring."""
    dist, dhat = _spring_geometry(springs, q)
    return dist - springs.rest, np.hstack([dhat, -dhat])


def spring_damping(springs: Springs, q: np.ndarray) -> np.ndarray:
    """Diagonal damping (m, 6) of every spring over its 6 coordinates."""
    policy = springs.damping
    if policy.variant == "constant":
        return np.full((springs.k.shape[0], 6), float(policy.value))
    if policy.variant == "geometric-projection":
        # abs column sums of the geometric stiffness k e [[h, -h], [-h, h]],
        # h = (I - dhat dhat^T) / |d| the Hessian of the distance, plus the floor
        dist, dhat = _spring_geometry(springs, q)
        h = (np.eye(3) - dhat[:, :, None] * dhat[:, None, :]) / dist[:, None, None]
        ke = np.abs(springs.k * (dist - springs.rest))
        cols = 2.0 * ke[:, None] * np.abs(h).sum(axis=1)
        return np.tile(cols, 2) + policy.eps_floor
    raise ValueError(f"unknown damping variant {policy.variant!r}")


def _quat_to_rot(quat: np.ndarray) -> np.ndarray:
    w, x, y, z = quat
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def world_inertia(body: RigidBody, q: np.ndarray) -> np.ndarray:
    rot = _quat_to_rot(q[body.q_offset + 3 : body.q_offset + 7])
    return rot @ body.inertia @ rot.T


def _rigid_mass(body: RigidBody, q: np.ndarray) -> np.ndarray:
    """6x6 mass block diag(m I, world inertia)."""
    block = np.zeros((6, 6))
    block[:3, :3] = body.mass * np.eye(3)
    block[3:, 3:] = world_inertia(body, q)
    return block


def assemble_step(state: SystemState, bodies: Bodies, springs: Springs, f_ext: np.ndarray | None = None) -> AssembledDynamics:
    """Assemble A and b for one implicit step."""
    if not (np.all(np.isfinite(state.q)) and np.all(np.isfinite(state.v))):
        raise InvalidStateError("state contains non-finite values")
    n = state.v.shape[0]
    t = state.dt
    b = np.zeros(n)
    if f_ext is not None:
        b += f_ext

    # node masses: a diagonal
    node_idx = triples(bodies.node_v)
    coef = (2.0 / t) * bodies.node_mass
    b[node_idx] += coef[:, None] * state.v[node_idx]
    rows, cols, vals = [node_idx.ravel()], [node_idx.ravel()], [np.repeat(coef, 3)]

    for body in bodies.rigid:
        idx = np.arange(body.v_offset, body.v_offset + 6)
        block = (2.0 / t) * _rigid_mass(body, state.q)
        rows.append(np.repeat(idx, 6))
        cols.append(np.tile(idx, 6))
        vals.append(block.ravel())
        b[idx] += block @ state.v[idx]
        # gyroscopic term of C v
        omega = state.v[idx[3:]]
        b[idx[3:]] -= np.cross(omega, world_inertia(body, state.q) @ omega)

    e, jac = spring_eval(springs, state.q)
    blocks = springs.k[:, None, None] * (jac[:, :, None] * jac[:, None, :])
    diag = np.arange(6)
    blocks[:, diag, diag] += spring_damping(springs, state.q)
    blocks *= 0.5 * t
    idx = np.hstack([triples(springs.vi), triples(springs.vj)])  # (m, 6)
    rows.append(np.repeat(idx, 6, axis=1).ravel())
    cols.append(np.tile(idx, 6).ravel())
    vals.append(blocks.ravel())
    force = (springs.k[:, None] * jac) * e[:, None]
    np.subtract.at(b, idx, force)

    a = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsc()
    return AssembledDynamics(a, b, n)


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, av = a[0], a[1:]
    bw, bv = b[0], b[1:]
    return np.concatenate(
        [[aw * bw - av @ bv], aw * bv + bw * av + np.cross(av, bv)]
    )


def _quat_exp(rotvec: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(rotvec))
    if angle < 1e-12:
        return np.concatenate([[1.0], 0.5 * rotvec])
    axis = rotvec / angle
    return np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis])


def integrate(state: SystemState, v_hat: np.ndarray, bodies: Bodies, dt: float | None = None) -> SystemState:
    """Advance the configuration by the representative velocity.

    Nodes translate; rigid orientations update by the exponential map of
    the angular velocity. The stored next-step velocity is ``2 v_hat - v``.
    """
    t = state.dt if dt is None else dt
    q = state.q.copy()
    q[triples(bodies.node_q)] += t * v_hat[triples(bodies.node_v)]
    for body in bodies.rigid:
        q[body.q_offset : body.q_offset + 3] += t * v_hat[body.v_offset : body.v_offset + 3]
        omega = v_hat[body.v_offset + 3 : body.v_offset + 6]
        dq = _quat_exp(t * omega)
        quat = _quat_mul(dq, q[body.q_offset + 3 : body.q_offset + 7])
        q[body.q_offset + 3 : body.q_offset + 7] = quat / np.linalg.norm(quat)
    v_next = 2.0 * v_hat - state.v
    return replace(state, q=q, v=v_next, step_index=state.step_index + 1)


def kinetic_energy(state: SystemState, bodies: Bodies) -> float:
    """0.5 v^T M v in joules."""
    v = state.v[triples(bodies.node_v)]
    total = 0.5 * float(bodies.node_mass @ np.einsum("ij,ij->i", v, v))
    for body in bodies.rigid:
        seg = state.v[body.v_offset : body.v_offset + 6]
        total += 0.5 * float(seg @ _rigid_mass(body, state.q) @ seg)
    return total
