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

Every velocity offset is a multiple of 3, so A is a matrix of 3x3 node
blocks: a mass block per node, a rigid body's 6x6 mass block as 2x2 blocks,
and per spring K = (t/2) k u u^T plus its diagonal damping on both of its
node-diagonal blocks and -K on its two off-diagonal blocks. The sparsity
pattern depends only on the offsets, so it is built once per scene
(``BlockPattern``) and cached on the ``Springs``; each step sums the 9
entries of every block into the pattern's CSC data with one ``np.bincount``.
Entries (r, s) and (s, r) of the mirrored blocks sum the same floats in the
same order, so A is bitwise symmetric; only a rigid body's world inertia
R I R^T is symmetric just to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateConstraintError, DimensionMismatchError, InvalidStateError

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
    pattern: BlockPattern | None = field(default=None, repr=False, compare=False)  # set by assemble_step


@dataclass
class AssembledDynamics:
    a: sp.csc_matrix
    b: np.ndarray
    n: int


def _spring_coords(springs: Springs) -> np.ndarray:
    """(2, m, 3) coordinate indices of the two ends of every spring."""
    return triples(np.concatenate([springs.qi, springs.qj])).reshape(2, -1, 3)


def _spring_geometry(q: np.ndarray, coords: np.ndarray):
    """Length (m,) and unit direction p_i - p_j (m, 3) of every spring, from
    the coordinate indices of ``_spring_coords``."""
    ends = q[coords]
    d = ends[0] - ends[1]
    dist = np.linalg.norm(d, axis=1)
    if np.any(dist < 1e-12):
        raise DegenerateConstraintError("distance spring endpoints coincide")
    return dist, d / dist[:, None]


def spring_eval(springs: Springs, q: np.ndarray):
    """Return (e, J): errors (m,) and Jacobian rows (m, 6) over the stacked
    coordinates (node i, node j) of every spring."""
    dist, dhat = _spring_geometry(q, _spring_coords(springs))
    return dist - springs.rest, np.hstack([dhat, -dhat])


def spring_damping(springs: Springs, q: np.ndarray) -> np.ndarray:
    """Diagonal damping (m, 6) of every spring over its 6 coordinates."""
    policy = springs.damping
    if policy.variant == "constant":
        return np.full((springs.k.shape[0], 6), float(policy.value))
    if policy.variant == "geometric-projection":
        # abs column sums of the geometric stiffness k e [[h, -h], [-h, h]],
        # h = (I - dhat dhat^T) / |d| the Hessian of the distance, plus the floor
        dist, dhat = _spring_geometry(q, _spring_coords(springs))
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


def _rigid_v(bodies: Bodies) -> np.ndarray:
    return np.array([body.v_offset for body in bodies.rigid], dtype=int)


def _unique_blocks(rows: np.ndarray, cols: np.ndarray, nb: int):
    """``np.unique(cols * nb + rows, return_inverse=True)`` for block keys.

    About half the terms sit on the diagonal and repeat a node's block, so
    those are deduplicated by a count over the nb block rows, and only the
    off-diagonal keys are sorted; the two sorted, disjoint key lists are then
    merged.
    """
    on_diag = rows == cols
    present = np.bincount(rows[on_diag], minlength=nb) > 0
    diag_keys = np.flatnonzero(present) * (nb + 1)
    off_keys, off_block = np.unique((cols * nb + rows)[~on_diag], return_inverse=True)
    diag_at = np.arange(diag_keys.shape[0]) + np.searchsorted(off_keys, diag_keys)
    is_off = np.ones(diag_keys.shape[0] + off_keys.shape[0], dtype=bool)
    is_off[diag_at] = False
    blocks = np.empty(is_off.shape[0], dtype=off_keys.dtype)
    blocks[diag_at] = diag_keys
    blocks[is_off] = off_keys
    term_block = np.empty(rows.shape[0], dtype=int)
    term_block[on_diag] = diag_at[np.cumsum(present)[rows[on_diag]] - 1]
    term_block[~on_diag] = np.flatnonzero(is_off)[off_block]
    return blocks, term_block


@dataclass
class BlockPattern:
    """The CSC pattern of A as 3x3 node blocks, for one layout of offsets.

    A is the sum of terms that are each one 3x3 block: one mass block per
    node, the four 3x3 quarters (a, b) of every rigid body's 6x6 mass block
    in order 2 a + b, then the (i, i) blocks of all springs, their (j, j),
    (i, j) and (j, i) blocks. ``target[T (3 r + s) + t]`` is the position in
    the CSC ``data`` of entry (r, s) of term t of the T terms, so that one
    ``np.bincount`` sums a (3, 3, T) array of terms into ``data``;
    ``force_index`` does the same for the (6, m) spring forces in b.
    ``coords`` caches the springs' coordinate indices (``_spring_coords``),
    which change only with the spring ends.
    """

    n: int
    node_v: np.ndarray
    rigid_v: np.ndarray
    vi: np.ndarray
    vj: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    target: np.ndarray
    force_index: np.ndarray
    coords: np.ndarray

    @classmethod
    def build(cls, n: int, bodies: Bodies, springs: Springs) -> BlockPattern:
        offsets = [np.array(o, dtype=int) for o in (bodies.node_v, _rigid_v(bodies), springs.vi, springs.vj)]
        if n % 3 or any(np.any(o % 3) for o in offsets):
            raise DimensionMismatchError("block assembly needs n and velocity offsets that are multiples of 3")
        nb = n // 3
        bn, br, bi, bj = (o // 3 for o in offsets)
        # (block row, block column) of every term, in the order documented above
        rows = np.concatenate([bn, (br[:, None] + [0, 0, 1, 1]).ravel(), bi, bj, bi, bj])
        cols = np.concatenate([bn, (br[:, None] + [0, 1, 0, 1]).ravel(), bi, bj, bj, bi])
        blocks, term_block = _unique_blocks(rows, cols, nb)  # column-major order
        bcol, brow = np.divmod(blocks, nb)
        per_col = np.bincount(bcol, minlength=nb)
        first = np.concatenate([[0], np.cumsum(per_col)])  # block CSC indptr
        # Scalar column 3 c + s lists the blocks of block column c in order,
        # three rows each; so block k, the j-th of its block column, sits at
        # slot[s, k] = 3 first[c] + s per_col[c] + j counted in blocks, and
        # its entry (r, s) at data position 3 slot[s, k] + r.
        rs = np.arange(3)[:, None]  # r or s, down axis 0
        slot = np.arange(blocks.shape[0]) + 2 * first[bcol] + rs * per_col[bcol]
        block_at = np.empty(slot.size, dtype=int)
        block_at[slot.ravel()] = np.tile(np.arange(blocks.shape[0]), 3)
        indices = np.take((3 * brow[:, None] + rs.T).astype(np.int32), block_at, axis=0).ravel()
        indptr = np.append(9 * first[:-1, None] + 3 * per_col[:, None] * rs.T, 3 * slot.size).astype(np.int32)
        # every step's matrix shares these two arrays
        indices.flags.writeable = indptr.flags.writeable = False
        return cls(
            n, *offsets, indices, indptr,
            target=(3 * np.take(slot, term_block, axis=1) + rs[:, :, None]).ravel(),
            force_index=np.concatenate([offsets[2] + rs, offsets[3] + rs]).ravel(),
            coords=_spring_coords(springs),
        )

    def fits(self, n: int, bodies: Bodies, springs: Springs) -> bool:
        """Whether this pattern was built for these sizes and offsets."""
        return (
            self.n == n
            and np.array_equal(self.node_v, bodies.node_v)
            and np.array_equal(self.rigid_v, _rigid_v(bodies))
            and np.array_equal(self.vi, springs.vi)
            and np.array_equal(self.vj, springs.vj)
            and np.array_equal(self.coords[0, :, 0], springs.qi)
            and np.array_equal(self.coords[1, :, 0], springs.qj)
        )


def block_pattern(n: int, bodies: Bodies, springs: Springs) -> BlockPattern:
    """The pattern cached on ``springs``, rebuilt when it does not fit."""
    if springs.pattern is None or not springs.pattern.fits(n, bodies, springs):
        springs.pattern = BlockPattern.build(n, bodies, springs)
    return springs.pattern


def assemble_step(state: SystemState, bodies: Bodies, springs: Springs, f_ext: np.ndarray | None = None) -> AssembledDynamics:
    """Assemble A and b for one implicit step.

    A is summed as 3x3 blocks into the fixed CSC pattern of ``block_pattern``.
    """
    if not (np.all(np.isfinite(state.q)) and np.all(np.isfinite(state.v))):
        raise InvalidStateError("state contains non-finite values")
    n = state.v.shape[0]
    t = state.dt
    b = np.zeros(n)
    if f_ext is not None:
        b += f_ext
    pattern = block_pattern(n, bodies, springs)
    dist, dhat = _spring_geometry(state.q, pattern.coords)
    n_nodes, n_rigid, m = bodies.node_v.shape[0], len(bodies.rigid), springs.k.shape[0]
    terms = np.empty((3, 3, n_nodes + 4 * n_rigid + 4 * m))  # entry (r, s) of every term
    diag = np.arange(3)

    # node masses: diagonal blocks
    node_idx = triples(bodies.node_v)
    coef = (2.0 / t) * bodies.node_mass
    b[node_idx] += coef[:, None] * state.v[node_idx]
    terms[:, :, :n_nodes] = 0.0
    terms[diag, diag, :n_nodes] = coef

    quarters = terms[:, :, n_nodes : n_nodes + 4 * n_rigid].reshape(3, 3, n_rigid, 4)
    for k, body in enumerate(bodies.rigid):
        idx = np.arange(body.v_offset, body.v_offset + 6)
        block = (2.0 / t) * _rigid_mass(body, state.q)
        quarters[:, :, k] = block.reshape(2, 3, 2, 3).transpose(1, 3, 0, 2).reshape(3, 3, 4)
        b[idx] += block @ state.v[idx]
        # gyroscopic term of C v
        omega = state.v[idx[3:]]
        b[idx[3:]] -= np.cross(omega, world_inertia(body, state.q) @ omega)

    # stiffness K = k u u^T plus the damping on (i, i) and (j, j), -K on (i, j) and (j, i)
    u = np.ascontiguousarray(dhat.T)
    stiff = springs.k * (u[:, None] * u[None, :])
    blocks = terms[:, :, n_nodes + 4 * n_rigid :].reshape(3, 3, 4, m)
    blocks[:, :, :2] = stiff[:, :, None]
    if springs.damping.variant == "constant":
        for r in range(3):
            blocks[r, r, :2] += float(springs.damping.value)
    else:
        blocks[diag, diag, :2] += spring_damping(springs, state.q).T.reshape(2, 3, m).transpose(1, 0, 2)
    blocks[:, :, :2] *= 0.5 * t
    blocks[:, :, 2:] = ((-0.5 * t) * stiff)[:, :, None]
    force = (springs.k * u) * (dist - springs.rest)
    b -= np.bincount(pattern.force_index, np.concatenate([force, -force]).ravel(), minlength=n)

    data = np.bincount(pattern.target, terms.ravel(), minlength=pattern.indices.shape[0])
    return AssembledDynamics(sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=(n, n)), b, n)


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
