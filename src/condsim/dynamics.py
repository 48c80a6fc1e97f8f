"""Per-step linearized implicit dynamics.

Builds the symmetric positive definite system ``A v_hat = b`` from point
masses, rigid bodies and distance springs, using the midpoint velocity
discretization: one implicit linear solve per step, with

    A = (2/t) M + (t/2) (Je^T K Je + E)
    b = (2/t) M v - C v - Je^T K e + f_ext

All right-hand-side terms are kept at force level (Newtons); contact impulses
later enter the same balance as forces. Gravity goes straight into f_ext and
its potential Hessian is dropped.

Scene data is kept as arrays: 3-DOF nodes (particles and lattice nodes),
rigid bodies and springs are rows of index and parameter arrays, so the step
layers walk them in batched passes.

Every velocity offset is a multiple of 3, so A is a matrix of 3x3 node
blocks: a mass block per node, a rigid body's 6x6 mass block as 2x2 blocks,
and per spring K = (t/2) k u u^T plus its diagonal damping on both of its
node-diagonal blocks and -K on its two off-diagonal blocks; geometric
damping (``spring_damping``) reuses the step's spring geometry. The sparsity
pattern depends only on the offsets, so it is built once per scene
(``BlockPattern``) and cached on the ``Springs``: the block-level CSR of the
touched blocks is written in closed form from the sorted node-pair keys,
with no sort of the blocks, and scipy's BSR-to-CSR expansion writes the
entries; A's pattern and blocks are symmetric, so that CSR is A's CSC. Each
step computes the 6 components k u_r u_s, r <= s, of every spring, sums them
per component with ``np.bincount`` over the node-diagonal blocks and over the
unordered node pairs, and fills the CSC data with one gather. On a scene
with springs the components go one at a time through one weight vector of
node-diagonal terms, refilled per component, so a step never holds all six
at once. The springs' geometry runs over component-major (3, m) rows,
from coordinate indices cached on the pattern as (2, 3, m)
(``_spring_geometry``). Mirrored entries read the same sum, and a rigid
body's world inertia R I R^T is symmetrized once, so A is bitwise symmetric.
The block pattern keeps A's CSC ``sparse.Pattern``: its template, from
which each read of ``AssembledDynamics.a`` makes the step's matrix, the
positions of A's diagonal entries, from which the solver's step matrix
gathers the diagonal, and the kernels its size chooses (``sparse``).

The rigid bodies (``RigidBodies``) go through stacked ``np.matmul`` and
elementwise products with the bits of one body's own. A state's rotations,
world inertias and mass blocks are built once, in one pass, and kept on it
(``SystemState.rigid_pose``). Only the quaternion update walks the bodies,
on Python floats (``_turn``), where numpy's fixed cost per call dominates.

A scene's layout is fixed when its records are made: ``RigidBodies``,
``Bodies``, ``Springs`` and ``SystemState`` are frozen, and their arrays are
read-only from construction (``_read_only``). Each per-scene layout is
therefore built once, on first use, with no key: the node ``triples`` and
the rigid bodies' index rows are cached properties of their records, which
``assemble_step``, ``integrate`` and ``kinetic_energy`` read, and the pattern
on the ``Springs`` checks only that it was built for these bodies and this
n. ``dataclasses.replace`` makes a new record, which builds its own layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateConstraintError, DimensionMismatchError, InvalidMatrixError, InvalidStateError
from .sparse import Pattern, with_data

EPS_DAMPING_FLOOR = 1e-6  # N s/m, keeps E positive definite without visible damping
MIN_SPRING_LENGTH = 1e-12  # m, a shorter spring has no direction
INDEX_LOOP_ROWS = 256  # rows from which _index_rows fills its columns one call each


_XYZ = np.arange(3)


def triples(offsets) -> np.ndarray:
    """(k, 3) indices of the three consecutive entries starting at each
    offset, read-only."""
    return _index_rows(np.asarray(offsets, dtype=int).reshape(-1), 3)


def _read_only(values, dtype=int) -> np.ndarray:
    """``values`` itself if it already is a read-only array of ``dtype`` that
    owns its memory, else a read-only copy of it as one: a caller that hands
    over such an array must not make it writeable again."""
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


def _index_rows(offsets: np.ndarray, width: int) -> np.ndarray:
    """(k, width) indices of the ``width`` entries from each offset on,
    read-only. A broadcast sum runs numpy's inner loop once per row, over
    ``width`` entries, so from INDEX_LOOP_ROWS rows on the columns are
    filled one call each instead; below, those ``width`` calls cost more
    than the sum (timings in CHANGES.md)."""
    if offsets.shape[0] < INDEX_LOOP_ROWS:
        out = offsets[:, None] + np.arange(width)
    else:
        out = np.empty((offsets.shape[0], width), dtype=offsets.dtype)
        for c in range(width):
            np.add(offsets, c, out=out[:, c])
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class RigidBodies:
    """Every 6-DOF rigid body of a scene as read-only arrays, row k body k: 7
    coordinates (position, unit quaternion w first) from ``q_off[k]``, 6
    velocities (linear, angular) from ``v_off[k]``, the ``points`` of ``point_body`` k."""

    mass: np.ndarray  # (r,) kg
    q_off: np.ndarray  # (r,) int
    v_off: np.ndarray  # (r,) int
    inertia: np.ndarray  # (r, 3, 3) body frame
    points: np.ndarray  # (P, 3) body frame
    point_body: np.ndarray  # (P,) int
    contact_radius: np.ndarray  # (r,) m

    def __post_init__(self):
        _read_only_fields(self, float, "mass", "inertia", "points", "contact_radius")
        _read_only_fields(self, int, "q_off", "v_off", "point_body")

    @cached_property
    def q_idx(self) -> np.ndarray:
        """(r, 7) coordinate indices of every body: position, then quaternion."""
        return _index_rows(self.q_off, 7)

    @cached_property
    def v_idx(self) -> np.ndarray:
        """(r, 6) velocity indices of every body: linear, then angular."""
        return _index_rows(self.v_off, 6)

    @cached_property
    def point_groups(self) -> tuple:
        """Per count of points: its bodies, their (g, count) point rows and points, read-only;
        one stacked product per group rounds as each body's own, at its count of rows."""
        counts = np.bincount(self.point_body, minlength=self.mass.shape[0])
        order = np.argsort(self.point_body, kind="stable")
        starts = np.cumsum(counts) - counts
        groups = []
        for count in np.unique(counts[counts > 0]).tolist():
            bodies = np.flatnonzero(counts == count)
            rows = order[starts[bodies, None] + np.arange(count)]
            points = self.points[rows]
            bodies.flags.writeable = rows.flags.writeable = points.flags.writeable = False
            groups.append((bodies, rows, points))
        return tuple(groups)


@dataclass(frozen=True, eq=False)
class Bodies:
    """Every body of a scene: the 3-DOF nodes and the ``rigid`` bodies.

    Row m of the node arrays is one 3-DOF point mass (a particle or a lattice
    node) whose coordinates and velocity start at ``node_q[m]``/``node_v[m]``.
    A node with ``node_radius[m] > 0`` carries a sphere contact proxy. The
    arrays are read-only; the node ``triples`` and the ``contacts.ProxyTable``
    in ``proxies`` are built on first use and die with the bodies.
    """

    node_q: np.ndarray  # (n,) int
    node_v: np.ndarray  # (n,) int
    node_mass: np.ndarray  # (n,) kg
    node_radius: np.ndarray  # (n,) m, 0 means no proxy
    rigid: RigidBodies
    proxies: object = field(default=None, init=False, repr=False)  # set by contacts.proxy_table

    def __post_init__(self):
        _read_only_fields(self, int, "node_q", "node_v")
        _read_only_fields(self, float, "node_mass", "node_radius")

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


# Entry c of the row-major rotation matrix of a unit quaternion (w, x, y, z)
# is 2 (p + s) or 2 (p - s) off the diagonal and 1 - 2 (p + s) on it, such as
# 2 (x y - w z) and 1 - 2 (y y + z z), where p and s are the products of the
# quaternion entries in column c of rows 0, 1 and of rows 2, 3 of
# _ROT_PAIRS. It is computed as _ROT_COEF[0, c] p + _ROT_COEF[1, c] s +
# _ROT_ONE[c]: the scaling by -2 or 2 is exact, the sum rounds once, as
# there, and adding -0.0 keeps every float, -0.0 included.
_ROT_PAIRS = np.array(
    [[2, 1, 1, 1, 1, 2, 1, 2, 1], [2, 2, 3, 2, 1, 3, 3, 3, 1], [3, 0, 0, 0, 3, 0, 0, 0, 2], [3, 3, 2, 3, 3, 1, 2, 1, 2]]
)
_ROT_COEF = 2.0 * np.array([[-1, 1, 1, 1, -1, 1, 1, 1, -1], [-1, -1, 1, 1, -1, -1, -1, 1, -1]])
_ROT_ONE = np.where(np.eye(3).ravel() == 1.0, 1.0, -0.0)
# a 6x6 mass block's linear quarter m I, from the mass m
_LINEAR = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def _pose(rigid: RigidBodies, q: np.ndarray) -> tuple:
    """``SystemState.rigid_pose``'s arrays, built in one batched pass."""
    pairs = q[rigid.q_idx[:, 3:]].take(_ROT_PAIRS, axis=1)
    terms = pairs[:, 0::2] * pairs[:, 1::2]
    terms *= _ROT_COEF
    rot = terms[:, 0] + terms[:, 1]
    rot += _ROT_ONE
    rot = rot.reshape(-1, 3, 3)
    m = rot @ rigid.inertia @ rot.transpose(0, 2, 1)
    inertia = 0.5 * (m + m.transpose(0, 2, 1))
    mass = rigid.mass[:, None, None] * _LINEAR
    mass[:, 3:, 3:] = inertia
    rot.flags.writeable = inertia.flags.writeable = mass.flags.writeable = False
    return rot, inertia, mass


@dataclass(frozen=True, eq=False)
class SystemState:
    """Generalized coordinates and velocities for one scene: frozen, with
    read-only ``q`` and ``v`` (``_read_only``), so its ``rigid_pose`` holds."""

    q: np.ndarray
    v: np.ndarray
    dt: float = 0.01
    _kept_pose: tuple = field(default=(None,), init=False, repr=False)  # (record, *its pose)

    def __post_init__(self):
        _read_only_fields(self, float, "q", "v")

    def rigid_pose(self, rigid: RigidBodies) -> tuple:
        """``rigid``'s rotations, world inertias R I R^T (symmetrized) and
        mass blocks diag(m I, R I R^T) at this state, (r, ...) each and
        read-only; built on first use and again for another record."""
        if self._kept_pose[0] is not rigid:
            object.__setattr__(self, "_kept_pose", (rigid, *_pose(rigid, self.q)))
        return self._kept_pose[1:]


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
        return with_data(self.pattern.csc.template, self.data)


def _spring_coords(springs: Springs) -> np.ndarray:
    """(2, 3, m) coordinate indices of the two ends of every spring,
    component-major: [e, c, k] is coordinate c of end e of spring k."""
    coords = np.stack([springs.qi, springs.qj])[:, None] + _XYZ[:, None]
    coords.flags.writeable = False
    return coords


def _spring_geometry(q: np.ndarray, coords: np.ndarray):
    """Length (m,) and unit direction p_i - p_j (3, m) of every spring, from
    the component-major coordinate indices of ``_spring_coords``. The length
    sums the squares in the order of ``np.linalg.norm`` over a spring's
    (3,) difference, so it has its bits."""
    d = q[coords[0]] - q[coords[1]]
    d0, d1, d2 = d
    dist = np.sqrt((d0 * d0 + d1 * d1) + d2 * d2)
    if np.any(dist < MIN_SPRING_LENGTH):
        raise DegenerateConstraintError("distance spring endpoints coincide")
    d /= dist
    return dist, d


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


# columns c+1, then c+2, and c+2, then c+1, of a 3-vector, for c = 0, 1, 2
_NEXT_PREV, _PREV_NEXT = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of (k, 3) arrays; ``np.cross``'s arithmetic (component
    c is a[c+1] b[c+2] - a[c+2] b[c+1]) at a lower fixed cost per call."""
    terms = a.take(_NEXT_PREV, axis=1) * b.take(_PREV_NEXT, axis=1)
    return terms[:, :3] - terms[:, 3:]


# Component c of a symmetric 3x3 block is its entry (_R[c], _S[c]), r <= s.
_R, _S = np.triu_indices(3)
_DIAG = np.flatnonzero(_R == _S)
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
    the world inertias symmetrized (``SystemState.rigid_pose``), A is
    bitwise symmetric. A spring must therefore join two distinct blocks, neither of them a rigid body's
    angular velocity. The spring ends in ``diag_block`` also sum the spring
    forces into b.
    ``coords`` caches the springs' component-major (2, 3, m) coordinate
    indices (``_spring_coords``), and ``bodies`` are the bodies it was
    built for.

    ``build`` lays out the block-level CSR from the sorted unique pair keys
    in closed form (``_block_rows``): per block row its lower blocks, its
    diagonal block, then its upper blocks, each block with its (3, 3) array
    of ``vals`` indices. It expands them with ``bsr_matrix.tocsr``, whose
    ``indices`` and ``indptr`` make ``csc``, A's ``sparse.Pattern``, and
    whose ``data`` is ``gather``. That CSR is the CSC of A only because the
    pattern is symmetric and each block's mirror reads its transposed
    gather. The diagonal positions follow from each block row's count of
    lower blocks. A DOF that no node, rigid body or spring covers would have
    an empty row and no diagonal entry, and ``build`` rejects it before it
    lays out any block.
    """

    n: int
    bodies: Bodies
    csc: Pattern
    gather: np.ndarray
    diag_block: np.ndarray
    pair: np.ndarray
    n_pairs: int
    coords: np.ndarray

    @classmethod
    def build(cls, n: int, bodies: Bodies, springs: Springs) -> BlockPattern:
        offsets = [bodies.node_v, bodies.rigid.v_off, springs.vi, springs.vj]
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
        covered = np.bincount(diag_block, minlength=nb)
        if not covered.all():
            raise InvalidMatrixError(f"column {3 * int(np.argmin(covered))} stores no diagonal entry")
        del covered
        pair_keys, pair = np.unique(
            np.concatenate([br * (nb + 1) + 1, np.minimum(bi, bj) * nb + np.maximum(bi, bj)]), return_inverse=True
        )
        del bn, bi, bj
        lo, hi = np.divmod(pair_keys, nb)
        del pair_keys
        n_pairs = lo.shape[0]
        comp, cols, bptr, n_lower = _block_rows(nb, lo, hi)
        del lo, hi
        # The CSR arrays of the expanded matrix B are the CSC arrays of B^T,
        # and B^T = B: the pattern is symmetric, a pair and its mirror share
        # base and stride, and entries (r, s) and (s, r) of a block read one
        # component. A block whose mirror is not its transpose must give the
        # mirror the transposed gather.
        blocks = sp.bsr_matrix((comp, cols, bptr), shape=(n, n))
        del comp, cols, bptr  # the blocks keep comp and their own copies of the index arrays
        expanded = blocks.tocsr()
        del blocks
        indices, indptr = expanded.indices, expanded.indptr
        gather = expanded.data.astype(np.int64, copy=False)  # each step takes through it faster than through int32
        del expanded
        # entry (3r + c, 3r + c) follows row 3r + c's 3 n_lower[r] entries
        # of lower blocks and c of its diagonal block
        diag_pos = (indptr[:-1].reshape(nb, 3) + (3 * n_lower[:, None] + _XYZ)).ravel()
        del n_lower
        csc = Pattern.build(indices, indptr, diag_pos)
        return cls(n, bodies, csc, gather, diag_block, pair[br.shape[0]:], n_pairs, _spring_coords(springs))


def _block_rows(nb: int, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The block-level CSR of A's node blocks, from the pairs (lo, hi),
    lo < hi, of the sorted unique pair keys, every block row holding its
    diagonal block: the (B, 3, 3) ``vals`` indices of the blocks, in
    scipy's index dtype for their range, their columns and row pointers,
    and the count of lower blocks per row.

    Block row r holds its lower blocks (r, lo) of the pairs with hi = r by
    ascending lo, which a stable sort on hi keeps from the key order, then
    (r, r), then its upper blocks (r, hi) of the pairs with lo = r, in key
    order: ascending columns, as scipy sorts them. Component c of a block
    sits in vals at base + c * stride: base r and stride nb for (r, r),
    base 6 nb + p and stride n_pairs for both blocks of pair p. Each
    component is written in one pass over the blocks, component-major, and
    the result is transposed once."""
    n_pairs = lo.shape[0]
    lower = np.argsort(hi, kind="stable")  # the pairs in the order of their lower blocks
    n_lower, n_upper = np.bincount(hi, minlength=nb), np.bincount(lo, minlength=nb)
    bptr = np.zeros(nb + 1, dtype=int)
    np.cumsum(n_lower + n_upper + 1, out=bptr[1:])
    diag_at = bptr[:-1] + n_lower
    # row r's first lower block sits at bptr[r] and its first upper block at
    # diag_at[r] + 1; less the lower (upper) blocks of the rows before r, that
    # is where the k-th lower (upper) block over all rows sits, less k
    first_lower = bptr[:-1] - (np.cumsum(n_lower) - n_lower)
    first_upper = diag_at + 1 - (np.cumsum(n_upper) - n_upper)
    del n_upper
    ids = np.arange(n_pairs)
    lower_at = first_lower[hi[lower]] + ids
    upper_at = first_upper[lo] + ids
    del first_lower, first_upper
    n_blocks = int(bptr[-1])
    # int32 wherever it holds every vals index, so the expansion writes half the bytes
    dtype = sp.get_index_dtype(maxval=6 * (nb + n_pairs))
    comp = np.empty((3, 3, n_blocks), dtype=dtype)  # component-major: comp[r, s] over the blocks
    cols, base, stride = np.empty(n_blocks, dtype=dtype), comp[0, 0], np.full(n_blocks, n_pairs, dtype=dtype)
    cols[diag_at] = base[diag_at] = np.arange(nb)
    stride[diag_at] = nb
    del diag_at
    cols[upper_at], base[upper_at] = hi, 6 * nb + ids
    del upper_at, ids
    cols[lower_at], base[lower_at] = lo[lower], 6 * nb + lower
    del lower_at, lower, base
    for c in range(1, 6):
        r, s = _R[c], _S[c]
        np.add(comp[_R[c - 1], _S[c - 1]], stride, out=comp[r, s])
        if r != s:
            comp[s, r] = comp[r, s]
    del stride
    comp = comp.reshape(9, n_blocks).T.copy().reshape(n_blocks, 3, 3)
    return comp, cols, bptr, n_lower


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
    rigid = bodies.rigid
    n_nodes, n_rigid, m = bodies.node_v.shape[0], rigid.mass.shape[0], springs.k.shape[0]
    fixed = np.empty((6, n_nodes + 2 * n_rigid))  # component c of every node and rigid-quarter term

    # node masses
    node_idx = bodies.v_triples
    coef = (2.0 / t) * bodies.node_mass
    b[node_idx] += coef[:, None] * state.v[node_idx]
    fixed[:, :n_nodes] = 0.0
    fixed[_DIAG, :n_nodes] = coef

    # rigid bodies: the two diagonal quarters of their mass blocks, their
    # momenta, and the gyroscopic term w x (I_w w) of C v
    _, inertia, mass = state.rigid_pose(rigid)
    block = (2.0 / t) * mass
    fixed[:, n_nodes:] = block.reshape(-1, 36)[:, _QUARTERS].transpose(1, 0, 2).reshape(6, -1)
    seg, rows = state.v[rigid.v_idx], b[rigid.v_idx]
    rows += (block @ seg[:, :, None])[:, :, 0]
    omega = seg[:, 3:]
    rows[:, 3:] -= _cross(omega, (inertia @ omega[:, :, None])[:, :, 0])
    b[rigid.v_idx] = rows

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
    cross = [a[1] * bv[2] - a[2] * bv[1], a[2] * bv[0] - a[0] * bv[2], a[0] * bv[1] - a[1] * bv[0]]
    vec = [aw * y + bw * x + c for x, y, c in zip(a, bv, cross)]
    out = np.array([aw * bw - av.dot(quat[1:]), *vec])
    return out / math.sqrt(out.dot(out))


def integrate(state: SystemState, v_hat: np.ndarray, bodies: Bodies) -> SystemState:
    """Advance the configuration by the representative velocity over the
    state's step ``dt``.

    Nodes and rigid bodies translate; rigid orientations update by the
    exponential map of the angular velocity, body by body (``_turn``). The
    stored next-step velocity is ``2 v_hat - v``.
    """
    t = state.dt
    rigid = bodies.rigid
    step = t * v_hat
    q = state.q.copy()
    q[bodies.q_triples] += step[bodies.v_triples]
    rows, moves = q[rigid.q_idx], step[rigid.v_idx]
    rows[:, :3] += moves[:, :3]
    for row, rotvec in zip(rows, moves[:, 3:]):
        row[3:] = _turn(row[3:], rotvec)
    q[rigid.q_idx] = rows
    v_next = 2.0 * v_hat - state.v
    q.flags.writeable = v_next.flags.writeable = False
    return SystemState(q, v_next, t)


def kinetic_energy(state: SystemState, bodies: Bodies) -> float:
    """0.5 v^T M v in joules: the nodes' sum, then each rigid body's in turn."""
    v = state.v[bodies.v_triples]
    seg = state.v[bodies.rigid.v_idx][:, None, :]
    energies = 0.5 * (seg @ state.rigid_pose(bodies.rigid)[2] @ seg.transpose(0, 2, 1)).ravel()
    return sum(energies.tolist(), 0.5 * float(bodies.node_mass @ np.einsum("ij,ij->i", v, v)))
