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
node-diagonal blocks and -K on its two off-diagonal blocks; geometric
damping (``spring_damping``) reuses the step's spring geometry. The sparsity
pattern depends only on the offsets, so it is built once per scene
(``BlockPattern``) and cached on the ``Springs``: a block-level CSR matrix
orders the touched blocks, and scipy's BSR-to-CSR expansion writes the
entries; A's pattern and blocks are symmetric, so that CSR is A's CSC. Each
step computes the 6 components k u_r u_s, r <= s, of every spring, sums them
per component with ``np.bincount`` over the node-diagonal blocks and over the
unordered node pairs, and fills the CSC data with one gather. On a scene
with springs the components go one at a time through one weight vector of
node-diagonal terms, refilled per component, so a step never holds all six
at once. Mirrored entries read the same sum, and a rigid body's world
inertia R I R^T is symmetrized once, so A is bitwise symmetric.
The pattern also keeps one ``csc_matrix`` template over its index arrays,
from which each read of ``AssembledDynamics.a`` makes the step's matrix, and
the positions of A's diagonal entries in ``data``, from which the solver's
step matrix gathers the diagonal (``sparse``).

The few rigid bodies are walked one by one, on Python floats where numpy's
fixed cost per call on 3- and 4-vectors would dominate: the gyroscopic term
w x (I_w w) and the quaternion update repeat the array formulas' operation
order, and leave dot products, cos and sin to numpy, so their bits are the
array formulas' bits. Each body's world inertia is built once per state and
kept on it (``SystemState.inertia``): ``kinetic_energy`` at the end of a
step builds it, and ``assemble_step`` of the next step reads it.

A scene's layout is fixed when its records are made: ``RigidBody``,
``Bodies`` and ``Springs`` are frozen, and their arrays are read-only from
construction (``_read_only``). Each per-scene layout is therefore built once,
on first use, with no key: the node ``triples`` are cached properties of the
``Bodies``, which ``assemble_step``, ``integrate`` and ``kinetic_energy``
read, and the pattern on the ``Springs`` checks only that it was built for
these bodies and this n. ``dataclasses.replace`` makes a new record, which
builds its own layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateConstraintError, DimensionMismatchError, InvalidMatrixError, InvalidStateError
from .sparse import csc_template, norm_chunks, with_data

EPS_DAMPING_FLOOR = 1e-6  # N s/m, keeps E positive definite without visible damping
MIN_SPRING_LENGTH = 1e-12  # m, a shorter spring has no direction


_XYZ = np.arange(3)


def triples(offsets) -> np.ndarray:
    """(k, 3) indices of the three consecutive entries starting at each
    offset, read-only."""
    out = np.asarray(offsets, dtype=int).reshape(-1, 1) + _XYZ
    out.flags.writeable = False
    return out


def _read_only(values, dtype=int) -> np.ndarray:
    """``values`` itself if it already is a read-only array of ``dtype`` that
    owns its memory, else a read-only copy of it as one."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable and values.base is None:
        return values
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _read_only_fields(record, dtype, *names) -> None:
    """From a frozen record's ``__post_init__``: put ``_read_only`` arrays of
    ``dtype`` in place of its fields ``names``."""
    for name in names:
        object.__setattr__(record, name, _read_only(getattr(record, name), dtype))


@dataclass(frozen=True, eq=False)
class RigidBody:
    """A 6-DOF rigid body.

    It uses 7 coordinates (position + unit quaternion, scalar first) but 6
    velocity DOF (linear, then angular), starting at ``q_offset``/``v_offset``.
    Its arrays are read-only.
    """

    mass: float
    q_offset: int
    v_offset: int
    inertia: np.ndarray  # body-frame 3x3
    contact_points: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))  # body frame
    contact_radius: float = 0.0

    def __post_init__(self):
        _read_only_fields(self, float, "inertia", "contact_points")


@dataclass(frozen=True, eq=False)
class Bodies:
    """Every body of a scene.

    Row m of the node arrays is one 3-DOF point mass (a particle or a lattice
    node) whose coordinates and velocity start at ``node_q[m]``/``node_v[m]``.
    A node with ``node_radius[m] > 0`` carries a sphere contact proxy. The
    node arrays are read-only, and ``rigid`` is a tuple. The node
    ``triples`` and the ``contacts.ProxyTable`` in ``proxies`` are built on
    first use and die with the bodies.
    """

    node_q: np.ndarray  # (n,) int
    node_v: np.ndarray  # (n,) int
    node_mass: np.ndarray  # (n,) kg
    node_radius: np.ndarray  # (n,) m, 0 means no proxy
    rigid: tuple = ()  # RigidBody records
    proxies: object = field(default=None, init=False, repr=False)  # set by contacts.proxy_table

    def __post_init__(self):
        _read_only_fields(self, int, "node_q", "node_v")
        _read_only_fields(self, float, "node_mass", "node_radius")
        object.__setattr__(self, "rigid", tuple(self.rigid))

    # Made on first use: on a scene's first step that falls after the block
    # pattern's build, whose temporaries set a lattice run's peak memory.
    @cached_property
    def q_triples(self) -> np.ndarray:
        """(n, 3) coordinate indices of every node."""
        return triples(self.node_q)

    @cached_property
    def v_triples(self) -> np.ndarray:
        """(n, 3) velocity indices of every node."""
        return triples(self.node_v)


@dataclass(eq=False)
class SystemState:
    """Generalized coordinates and velocities for one scene.

    ``inertia`` keeps each rigid body's world inertia on the state it came
    from: ``kinetic_energy`` at the end of one step and ``assemble_step`` of
    the next read the same one. A state made by ``integrate`` or
    ``dataclasses.replace`` starts without it."""

    q: np.ndarray
    v: np.ndarray
    dt: float = 0.01
    _inertia: dict = field(default_factory=dict, init=False, repr=False)

    def inertia(self, body: RigidBody) -> np.ndarray:
        """``world_inertia(body, self.q)``, read-only, built once per body
        while the bits of its quaternion in ``q`` stay the same."""
        quat = self.q[body.q_offset + 3 : body.q_offset + 7].tobytes()
        kept = self._inertia.get(body)
        if kept is None or kept[0] != quat:
            inertia = world_inertia(body, self.q)
            inertia.flags.writeable = False
            kept = self._inertia[body] = (quat, inertia)
        return kept[1]


@dataclass
class DampingPolicy:
    """Constant diagonal damping, or the diagonal surrogate of the geometric
    stiffness (absolute column sums) floored at ``EPS_DAMPING_FLOOR``."""

    variant: str = "constant"  # "constant" | "geometric-projection"
    value: float = 0.0


@dataclass(frozen=True, eq=False)
class Springs:
    """Distance springs with potential 0.5 k e^2, e = |p_i - p_j| - rest.

    Row m joins the 3-DOF nodes at coordinate offsets ``qi[m]``/``qj[m]``
    (velocity offsets ``vi[m]``/``vj[m]``) with stiffness ``k[m]`` in N/m.
    All springs share the scene's damping policy. The arrays are read-only.
    """

    qi: np.ndarray
    qj: np.ndarray
    vi: np.ndarray
    vj: np.ndarray
    k: np.ndarray
    rest: np.ndarray
    damping: DampingPolicy = field(default_factory=DampingPolicy)
    pattern: BlockPattern | None = field(default=None, init=False, repr=False)  # set by block_pattern

    def __post_init__(self):
        _read_only_fields(self, int, "qi", "qj", "vi", "vj")
        _read_only_fields(self, float, "k", "rest")


@dataclass(eq=False)
class AssembledDynamics:
    """A and b of one step, as ``assemble_step`` builds them: A is its CSC
    ``data`` over ``pattern``, and each read of ``a`` makes a new
    ``csc_matrix`` of them from the pattern's template. A tie-free step
    reads it once, in ``contacts.augment_dynamics``; a step with virtual
    nodes never does, since the augmented matrix is filled from the
    arrays."""

    b: np.ndarray
    n: int
    data: np.ndarray
    pattern: BlockPattern

    @property
    def a(self) -> sp.csc_matrix:
        return with_data(self.pattern.template, self.data)


def _spring_coords(springs: Springs) -> np.ndarray:
    """(2, m, 3) coordinate indices of the two ends of every spring."""
    return triples(np.concatenate([springs.qi, springs.qj])).reshape(2, -1, 3)


def _spring_geometry(q: np.ndarray, coords: np.ndarray):
    """Length (m,) and unit direction p_i - p_j (3, m) of every spring, from
    the coordinate indices of ``_spring_coords``."""
    d = q[coords[0]] - q[coords[1]]
    dist = np.linalg.norm(d, axis=1)
    if np.any(dist < MIN_SPRING_LENGTH):
        raise DegenerateConstraintError("distance spring endpoints coincide")
    return dist, np.divide(d.T, dist, out=np.empty(d.shape[::-1]))


def spring_damping(springs: Springs, dist: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Diagonal damping (m, 6) of every spring over its 6 coordinates under
    the geometric-projection policy, from ``_spring_geometry``'s dist and u."""
    if springs.damping.variant != "geometric-projection":
        raise ValueError(f"unknown damping variant {springs.damping.variant!r}")
    # abs column sums of the geometric stiffness k e [[h, -h], [-h, h]],
    # h = (I - dhat dhat^T) / |d| the Hessian of the distance, plus the floor
    h = (np.eye(3) - u.T[:, :, None] * u.T[:, None, :]) / dist[:, None, None]
    ke = np.abs(springs.k * (dist - springs.rest))
    cols = 2.0 * ke[:, None] * np.abs(h).sum(axis=1)
    return np.tile(cols, 2) + EPS_DAMPING_FLOOR


def _quat_to_rot(quat: np.ndarray) -> np.ndarray:
    w, x, y, z = quat.tolist()
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def world_inertia(body: RigidBody, q: np.ndarray) -> np.ndarray:
    """R I R^T, symmetrized so that its two triangles hold the same floats."""
    rot = _quat_to_rot(q[body.q_offset + 3 : body.q_offset + 7])
    m = rot @ body.inertia @ rot.T
    return 0.5 * (m + m.T)


def _rigid_mass(body: RigidBody, inertia: np.ndarray) -> np.ndarray:
    """6x6 mass block diag(m I, world inertia)."""
    block = np.zeros((6, 6))
    block[_XYZ, _XYZ] = body.mass
    block[3:, 3:] = inertia
    return block


def _cross(a: list, b: list) -> list:
    """a x b of two 3-vectors of floats, in ``np.cross``'s operation order."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


# Component c of a symmetric 3x3 block is its entry (_R[c], _S[c]), r <= s.
_R, _S = np.triu_indices(3)
_DIAG = np.flatnonzero(_R == _S)
_COMP = np.empty((3, 3), dtype=int)
_COMP[_R, _S] = _COMP[_S, _R] = np.arange(6)
_QUARTERS = 6 * (_R[:, None] + [0, 3]) + _S[:, None] + [0, 3]  # a 6x6 block's two diagonal quarters, flat


@dataclass(eq=False)
class BlockPattern:
    """The CSC pattern of A as 3x3 node blocks, for one layout of offsets.

    Each step computes the 6 components, the entries (r, s) with r <= s, of
    every term, sums them into one vector ``vals`` and fills the CSC ``data``
    with one ``np.take(vals, gather)``; ``gather`` has one index per stored
    entry. ``vals`` holds, in this order:

    - per component, one ``np.bincount`` over the node-diagonal terms into
      the n/3 block rows, by the block ids ``diag_block``: one mass block per
      node, the two diagonal quarters of every rigid body's 6x6 mass block,
      then the (i, i) blocks of all springs and their (j, j) blocks;
    - per component, one ``np.bincount`` over the springs' -K terms into the
      unordered node pairs, by the pair ids ``pair`` (``n_pairs`` pairs);
      blocks (i, j) and (j, i) both read their pair's sums, and a rigid
      body's zero off-diagonal quarters are a pair that no spring joins.

    Entry (r, s) of every block reads component (min(r, s), max(r, s)); with
    ``world_inertia`` symmetrized, A is bitwise symmetric. A spring must
    therefore join two distinct blocks, neither of them a rigid body's
    angular velocity. The spring ends in ``diag_block`` also sum the spring
    forces into b.
    ``coords`` caches the springs' coordinate indices (``_spring_coords``),
    and ``bodies`` are the bodies it was built for.

    ``build`` gives every block its (3, 3) array of ``vals`` indices, lets a
    ``csr_matrix`` of block numbers sort the blocks, and expands them with
    ``bsr_matrix.tocsr``, whose ``indices``, ``indptr`` and ``data`` are
    ``indices``, ``indptr`` and ``gather``. That CSR is the CSC of A only
    because the pattern is symmetric and each block's mirror reads its
    transposed gather.

    ``template`` is the ``sparse.csc_template`` over ``indices`` and
    ``indptr`` from which every step's matrix is made, ``diag_pos`` the
    positions of A's diagonal entries in ``data``, and ``norm_chunks`` the
    row chunks of ``sparse.column_norms_sq`` (``sparse``). A DOF that no
    node, rigid body or spring covers has an empty row and no diagonal
    entry, and ``build`` rejects it.
    """

    n: int
    bodies: Bodies
    indices: np.ndarray
    indptr: np.ndarray
    gather: np.ndarray
    diag_block: np.ndarray
    pair: np.ndarray
    n_pairs: int
    coords: np.ndarray
    template: sp.csc_matrix
    diag_pos: np.ndarray
    norm_chunks: tuple
    # the contacts.TieLayout of the last virtual-node sources augmented on it
    ties: object = field(default=None, repr=False)

    @classmethod
    def build(cls, n: int, bodies: Bodies, springs: Springs) -> BlockPattern:
        offsets = [bodies.node_v, np.array([body.v_offset for body in bodies.rigid], dtype=int), springs.vi, springs.vj]
        if n % 3 or any(np.any(o % 3) for o in offsets):
            raise DimensionMismatchError("block assembly needs n and velocity offsets that are multiples of 3")
        for o, width, what in zip(offsets, (3, 6, 3, 3), ("node", "rigid body", "spring end i", "spring end j")):
            outside = o[(o < 0) | (o + width > n)]
            if outside.size:
                raise DimensionMismatchError(f"{what} velocity offset {outside[0]} lies outside the {n}-DOF state")
        nb = n // 3
        bn, br, bi, bj = (o // 3 for o in offsets)
        if np.any(bi == bj) or np.any(np.isin(np.concatenate([bi, bj]), br + 1)):
            raise DimensionMismatchError("a spring must join two distinct blocks of translational velocity")
        diag_block = np.concatenate([bn, (br[:, None] + [0, 1]).ravel(), bi, bj])
        pair_keys, pair = np.unique(
            np.concatenate([br * (nb + 1) + 1, np.minimum(bi, bj) * nb + np.maximum(bi, bj)]), return_inverse=True
        )
        lo, hi = np.divmod(pair_keys, nb)
        del pair_keys
        n_pairs = lo.shape[0]
        # block k: the diagonal blocks d, each pair (lo, hi), then its mirror
        # (hi, lo); component c of block k sits in vals at base + c * stride
        d = np.flatnonzero(np.bincount(diag_block, minlength=nb))
        k = np.arange(d.shape[0] + 2 * n_pairs)
        blocks = sp.csr_matrix((k, (np.concatenate([d, lo, hi]), np.concatenate([d, hi, lo]))), shape=(nb, nb))
        base = np.concatenate([d, 6 * nb + np.tile(np.arange(n_pairs), 2)])[blocks.data]
        stride = np.repeat([nb, n_pairs], [d.shape[0], 2 * n_pairs])[blocks.data]
        del lo, hi, d, k
        comp = stride[:, None, None] * _COMP
        comp += base[:, None, None]
        del base, stride
        # The CSR arrays of the expanded matrix B are the CSC arrays of B^T,
        # and B^T = B: the pattern is symmetric, a pair and its mirror share
        # base and stride, and _COMP is symmetric. A block whose mirror is not
        # its transpose must give the mirror the transposed gather.
        expanded = sp.bsr_matrix((comp, blocks.indices, blocks.indptr), shape=(n, n)).tocsr()
        indices, indptr, gather = expanded.indices, expanded.indptr, expanded.data
        del comp, expanded
        diag_pos = _block_diagonal_positions(blocks, indptr)
        del blocks
        # every step's matrix shares these two arrays
        indices.flags.writeable = indptr.flags.writeable = False
        return cls(
            n, bodies, indices, indptr, gather, diag_block, pair[br.shape[0]:], n_pairs, coords=_spring_coords(springs),
            template=csc_template(indices, indptr, n), diag_pos=diag_pos, norm_chunks=norm_chunks(indices, indptr),
        )


def _block_diagonal_positions(blocks: sp.csr_matrix, indptr: np.ndarray) -> np.ndarray:
    """``sparse.diagonal_positions`` of the expansion of the block CSR
    ``blocks``, whose row pointers are ``indptr``, from the blocks alone:
    if block row r's diagonal block is its p-th, entry (3r + c, 3r + c) is
    the (3p + c)-th of row 3r + c. A block row without its diagonal block
    raises ``InvalidMatrixError``, as there."""
    nb = blocks.shape[0]
    rank = np.flatnonzero(blocks.indices == np.repeat(np.arange(nb), np.diff(blocks.indptr)))
    if rank.shape[0] != nb:
        present = np.zeros(nb, dtype=bool)
        present[blocks.indices[rank]] = True
        raise InvalidMatrixError(f"column {3 * int(np.argmin(present))} stores no diagonal entry")
    rank -= blocks.indptr[:-1]
    return (indptr[:-1].reshape(nb, 3) + (3 * rank[:, None] + _XYZ)).ravel()


def block_pattern(n: int, bodies: Bodies, springs: Springs) -> BlockPattern:
    """The pattern cached on ``springs``, built on first use and again for
    other bodies or another n."""
    if springs.pattern is None or springs.pattern.bodies is not bodies or springs.pattern.n != n:
        object.__setattr__(springs, "pattern", BlockPattern.build(n, bodies, springs))
    return springs.pattern


def _spring_sums(q: np.ndarray, springs: Springs, pattern: BlockPattern, fixed: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """``vals`` of a step with springs (``BlockPattern``), given the
    components ``fixed`` of the node and rigid-quarter terms, with the spring
    forces subtracted from b. Springs add -(t/2) K on the blocks (i, j) and
    (j, i) of their node pair and (t/2) (K + damping) on (i, i) and (j, j),
    with K = k u u^T.

    Component c of every node-diagonal term fills one weight vector w, in
    the order of ``pattern.diag_block``, one component at a time, so the
    step never holds all six at once; w and the spring geometry die on
    return, before ``assemble_step`` gathers A's data."""
    nb, n_fixed, m = b.shape[0] // 3, fixed.shape[1], springs.k.shape[0]
    dist, u = _spring_geometry(q, pattern.coords)
    if springs.damping.variant == "constant":
        damp = [float(springs.damping.value)] * 6
    else:
        damp = spring_damping(springs, dist, u).T  # x, y, z of end i, then of end j
    vals = np.empty(6 * (nb + pattern.n_pairs))
    diag_sums, pair_sums = vals[: 6 * nb].reshape(6, nb), vals[6 * nb :].reshape(6, pattern.n_pairs)
    w = np.empty(n_fixed + 2 * m)
    ii, jj = w[n_fixed : n_fixed + m], w[n_fixed + m :]
    for c, (r, s) in enumerate(zip(_R, _S)):
        w[:n_fixed] = fixed[c]
        np.multiply(u[r], u[s], out=ii)
        ii *= springs.k
        pair_sums[c] = np.bincount(pattern.pair, (-0.5 * t) * ii, minlength=pattern.n_pairs)
        jj[:] = ii
        if r == s:
            ii += damp[r]
            jj += damp[3 + r]
        ii *= 0.5 * t
        jj *= 0.5 * t
        diag_sums[c] = np.bincount(pattern.diag_block, w, minlength=nb)
    # forces in b, per coordinate summed over the ends like the diagonal blocks
    ends = pattern.diag_block[n_fixed:]
    stretch = dist - springs.rest
    for r in range(3):
        force = (springs.k * u[r]) * stretch
        b[r::3] -= np.bincount(ends, np.concatenate([force, -force]), minlength=nb)
    return vals


def assemble_step(state: SystemState, bodies: Bodies, springs: Springs, f_ext: np.ndarray | None = None) -> AssembledDynamics:
    """Assemble A and b for one implicit step.

    A's CSC data is gathered from per-block component sums, as laid out by
    the pattern of ``block_pattern``.
    """
    if not (np.isfinite(state.q).all() and np.isfinite(state.v).all()):
        raise InvalidStateError("state contains non-finite values")
    n = state.v.shape[0]
    t = state.dt
    b = np.zeros(n)
    if f_ext is not None:
        b += f_ext
    pattern = block_pattern(n, bodies, springs)
    n_nodes, n_rigid, m = bodies.node_v.shape[0], len(bodies.rigid), springs.k.shape[0]
    fixed = np.empty((6, n_nodes + 2 * n_rigid))  # component c of every node and rigid-quarter term

    # node masses
    node_idx = bodies.v_triples
    coef = (2.0 / t) * bodies.node_mass
    b[node_idx] += coef[:, None] * state.v[node_idx]
    fixed[:, :n_nodes] = 0.0
    fixed[_DIAG, :n_nodes] = coef

    for k, body in enumerate(bodies.rigid):
        vo = body.v_offset
        inertia = state.inertia(body)
        block = (2.0 / t) * _rigid_mass(body, inertia)
        fixed[:, n_nodes + 2 * k : n_nodes + 2 * k + 2] = block.take(_QUARTERS)
        b[vo : vo + 6] += block @ state.v[vo : vo + 6]
        # gyroscopic term of C v
        omega = state.v[vo + 3 : vo + 6]
        b[vo + 3 : vo + 6] -= _cross(omega.tolist(), (inertia @ omega).tolist())

    if m:
        vals = _spring_sums(state.q, springs, pattern, fixed, b, t)
    else:
        sums = [np.bincount(pattern.diag_block, w, minlength=n // 3) for w in fixed]
        vals = np.concatenate(sums + [np.zeros(6 * pattern.n_pairs)])  # rigid bodies' zero quarters
    data = np.take(vals, pattern.gather)
    return AssembledDynamics(b, n, data, pattern)


def _turn(quat: np.ndarray, rotvec: np.ndarray) -> np.ndarray:
    """The unit quaternion exp(rotvec) quat, (w, x, y, z).

    The product is on floats in the operation order of the array formulas
    (``np.cross`` for its vector part); the dot products and cos/sin stay
    numpy's, whose rounding (BLAS's fused multiply-adds) plain floats would
    not repeat."""
    angle = math.sqrt(rotvec.dot(rotvec))  # np.linalg.norm's arithmetic
    if angle < 1e-12:
        aw, av = 1.0, 0.5 * rotvec
    else:
        aw, av = np.cos(angle / 2), np.sin(angle / 2) * (rotvec / angle)
    bw, *bv = quat.tolist()
    a = av.tolist()
    vec = [aw * y + bw * x + c for x, y, c in zip(a, bv, _cross(a, bv))]
    out = np.array([aw * bw - av.dot(quat[1:]), *vec])
    return out / math.sqrt(out.dot(out))


def integrate(state: SystemState, v_hat: np.ndarray, bodies: Bodies) -> SystemState:
    """Advance the configuration by the representative velocity over the
    state's step ``dt``.

    Nodes translate; rigid orientations update by the exponential map of
    the angular velocity. The stored next-step velocity is ``2 v_hat - v``.
    """
    t = state.dt
    q = state.q.copy()
    q[bodies.q_triples] += t * v_hat[bodies.v_triples]
    for body in bodies.rigid:
        qo, vo = body.q_offset, body.v_offset
        q[qo : qo + 3] += t * v_hat[vo : vo + 3]
        q[qo + 3 : qo + 7] = _turn(q[qo + 3 : qo + 7], t * v_hat[vo + 3 : vo + 6])
    v_next = 2.0 * v_hat - state.v
    return replace(state, q=q, v=v_next)


def kinetic_energy(state: SystemState, bodies: Bodies) -> float:
    """0.5 v^T M v in joules."""
    v = state.v[bodies.v_triples]
    total = 0.5 * float(bodies.node_mass @ np.einsum("ij,ij->i", v, v))
    for body in bodies.rigid:
        seg = state.v[body.v_offset : body.v_offset + 6]
        total += 0.5 * float(seg @ _rigid_mass(body, state.inertia(body)) @ seg)
    return total
