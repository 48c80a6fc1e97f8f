"""Collision detection, contact nodalization and dynamics augmentation.

Contacts are detected against analytic primitives (half-spaces, static
spheres) and between dynamic sphere proxies. Every contact is then placed on a
3-DOF Cartesian node: lattice/particle contacts act on their own node, rigid
surface points spawn a one-step massless virtual node tied to the body by a
viscous gain ``k_v``. The augmented system keeps the block structure

    [ A_o + k_v Jv^T Jv   -k_v Jv^T ]
    [ -k_v Jv              k_v I    ]

which stays symmetric positive definite, and the contact Jacobian reduces to a
stack of rotation blocks over nodes. Each contact side owns its node, which
``ContactColumns`` checks once per contact layout.

Contacts stay arrays from detection to the solver: ``detect_contacts`` returns
one ``DetectedContacts`` record with a row per contact, and ``nodalize`` turns
it into the per-contact column, frame, mu and phi arrays of a
``NodalContactSet`` in batched numpy. Frames come from detection: a ``Plane``
builds its frame once, when it is made, and its contacts take that frame;
only contacts on static spheres and between proxies call ``contact_frames``
on the step. ``nodalize`` reads the frames and derives none. No Python object is made per contact:
``NodalContactSet.contacts`` views the arrays as one numpy record array. Jv
stays arrays too, never a matrix: per virtual node, its source's velocity
offset, whether the source is a rigid body, and the lever arm r from the
body's origin, applied by ``NodalContactSet.virtual_velocity`` and the tie
fill of ``augment_dynamics``.

A step's contact arrays split into a layout, built once and cached on scene
objects, and values computed per step. What invalidates a layout is named
with each:

- ``ProxyTable``, on ``Bodies.proxies``: the proxied nodes' coordinate
  triples, every proxy's radius and row of (velocity offset, rigid
  coordinate offset, body), and the primitives' frame table. The bodies
  and the ``Geometry`` are frozen records, so nothing invalidates it; it
  is built again only for another ``Geometry`` object. Per step,
  ``detect_contacts`` computes the proxy centers (rigid points turned by the
  state's ``rigid_pose``), distances, frames, points, depths and keys.
- ``ContactLayout``, on the ``ProxyTable``: keyed on the bytes of the
  detected sides' ``v_off``/``q_off`` plus n, mu and mu2, so a change of the
  contact set or of those parameters rebuilds it. It holds the columns,
  the virtual sides with their sources and rigid flags, the rigid sides'
  index triples, the mu/mu2 arrays and the ``ContactColumns``. Per step,
  ``nodalize`` computes the lever arms, relative normal velocities and phi.
- ``ContactColumns``, on the layout: the columns, the contacted nodes,
  checked once for a column carrying two contact sides, their triples for
  W's ties, and the gather indices of ``ContactMap`` and of the solver's
  float pass; every ``NodalContactSet`` holds one.
- ``TieLayout``, on A_o's ``BlockPattern`` (below). The T rows of a step's
  lever arms are built once per ``NodalContactSet`` (``tie_rows``), for the
  warm start and ``augment_dynamics`` alike.

A miss builds a layout through the same ``build`` that a hit reuses, and
the layouts die with the scene; every cached array is read-only.

``augment_dynamics`` writes the block matrix above as A_o plus k_v T^T T with
T = [Jv, -I]. A ``TieLayout`` holds the augmented CSC pattern and, for each
value of A_o and each product of two entries of a T row, the entry it adds
into. It is built once per set of virtual-node sources and cached on A_o's
``BlockPattern``, so a step fills the augmented matrix's values with one
``np.bincount`` and makes the matrix from the layout's ``csc_template``
(``sparse``). The layout also extends the pattern's diagonal positions to
the augmented matrix, and ``AugmentedDynamics`` carries them for the step
matrix of the solver. Each product is k_v (t_p t_q), and every entry sums A_o's
value first and then the products row by row, so entries (p, q) and (q, p)
receive the same floats in the same order: the augmented A is bitwise
symmetric wherever A_o is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .dynamics import (
    AssembledDynamics,
    BlockPattern,
    Bodies,
    RigidBodies,
    SystemState,
    _cross,
    triples,
)
from .errors import DimensionMismatchError, InvalidMatrixError, InvalidStateError
from .sparse import BINCOUNT_NNZ_MAX, csc_template, entry_columns, with_data

DEFAULT_MARGIN = 1e-4  # m, contact activation distance
_UNSET = np.zeros((3, 3))  # stands in for a static sphere's frame until its contacts get theirs


@dataclass(frozen=True, eq=False)
class Plane:
    """A static half-space. Its contact frame, rows (n, t1, t2) from
    ``contact_frames``, is computed once when the plane is made, and
    ``normal`` is the frame's unit row n; both are read-only. A zero normal
    raises ``InvalidStateError``."""

    point: np.ndarray
    normal: np.ndarray
    frame: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        frame = contact_frames(self.normal)[0]
        frame.flags.writeable = False
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "normal", frame[0])


@dataclass(eq=False)
class StaticSphere:
    center: np.ndarray
    radius: float


@dataclass(frozen=True, eq=False)
class Geometry:
    """Static primitives, as tuples; the dynamic proxies live on ``Bodies``."""

    planes: tuple = ()
    spheres: tuple = ()
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        object.__setattr__(self, "planes", tuple(self.planes))
        object.__setattr__(self, "spheres", tuple(self.spheres))


@dataclass(eq=False)
class DetectedContacts:
    """Detector output, one row per contact in detection order.

    Side 0 is a dynamic proxy; side 1 is another proxy or a static primitive.
    ``frame`` holds each contact's frame, rows (n, t1, t2) as built by
    ``contact_frames``, with the normal n pointing from side 1 toward side 0.
    ``key`` names the contact's provenance (its proxies and primitive) by one
    int64 that stays the same from step to step, for warm-start matching.
    """

    point: np.ndarray  # (k, 3)
    frame: np.ndarray  # (k, 3, 3)
    depth: np.ndarray  # (k,), >= 0
    v_off: np.ndarray  # (k, 2) per side: velocity offset, -1 if static
    q_off: np.ndarray  # (k, 2) per side: rigid body's coordinate offset, -1 if not rigid
    key: np.ndarray  # (k,) int64
    # the ProxyTable that detected them, whose ContactLayout ``nodalize``
    # reuses; a class attribute, not a field, so a record made by hand or
    # field by field has none, and ``nodalize`` builds its layout afresh
    proxies = None

    def __len__(self) -> int:
        return self.depth.shape[0]


# the fields of ``NodalContactSet.contacts``
_RECORD = np.dtype(
    [("col_i", int), ("frame", float, (3, 3)), ("mu", float), ("phi_n", float), ("col_j", int), ("mu2", float)]
)


@dataclass(eq=False)
class ContactColumns:
    """One contact set's columns ``col_i``/``col_j`` and their index
    arrays: ``nodes``, the contacted node columns, ascending, and their ``triples`` in
    ``node_idx`` (W's node ties); the D-contacts ``has_j`` and their
    ``j_cols``; ``ContactMap``'s gathers ``idx_i``/``idx_j``; and, built on
    first use, since only small batches read them, the float pass's order
    of v* entries, ``gather``, with ``has_j`` as Python bools in
    ``j_flags``. Every array is read-only.

    ``build`` rejects a column that carries two contact sides with
    ``InvalidMatrixError``: J_c W J_c^T would have off-diagonal blocks
    there, and the one-shot contact solves would not be exact."""

    col_i: np.ndarray
    col_j: np.ndarray
    nodes: np.ndarray
    node_idx: np.ndarray
    has_j: np.ndarray
    any_j: bool
    j_cols: np.ndarray
    idx_i: np.ndarray
    idx_j: np.ndarray

    @classmethod
    def build(cls, col_i: np.ndarray, col_j: np.ndarray) -> ContactColumns:
        has_j = col_j >= 0
        j_cols = col_j[has_j]
        nodes = np.sort(np.concatenate([col_i, j_cols]))
        shared = nodes[1:][nodes[1:] == nodes[:-1]]
        if shared.size:
            raise InvalidMatrixError(f"column {shared[0]} carries more than one contact side")
        node_idx, idx_i, idx_j = triples(nodes), triples(col_i), triples(j_cols)
        for a in (nodes, has_j, j_cols):
            a.flags.writeable = False
        return cls(col_i, col_j, nodes, node_idx, has_j, bool(j_cols.shape[0]), j_cols, idx_i, idx_j)

    @cached_property
    def gather(self) -> np.ndarray:
        """Per contact its columns i, then j for a D-contact."""
        both = np.concatenate([self.idx_i, triples(self.col_j)], axis=1)
        live = np.ones(both.shape, dtype=bool)
        live[:, 3:] = self.has_j[:, None]
        gather = both[live]
        gather.flags.writeable = False
        return gather

    @cached_property
    def j_flags(self) -> list:
        return self.has_j.tolist()


@dataclass(eq=False)
class NodalContactSet:
    """Nodalized contacts, whose columns are those of its ``ContactColumns``:
    ``nodalize`` passes its layout's, and a set made by hand builds its own
    with ``ContactColumns.build``.

    Virtual node k has the columns n_orig + 3k to n_orig + 3k + 2. Its row
    block of Jv is [I, -[r]x] at a rigid body's velocity offset ``src[k]``
    (``rigid[k]``, lever arm ``lever[k]``), or I at an original node's
    (``lever[k]`` zero); ``tie_rows`` holds its T rows, built once per set
    for the warm start and ``augment_dynamics``."""

    n_orig: int  # original velocity dimension
    k_v: float
    columns: ContactColumns = field(repr=False)
    # per contact: frames and parameters; columns.col_j is -1 for an S-contact
    frames: np.ndarray  # (n_c, 3, 3)
    mu: np.ndarray
    mu2: np.ndarray  # mu where the scene sets no mu2
    phi: np.ndarray
    # per virtual node: source velocity offset, rigid flag and (n_v, 3) lever arm
    src: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    rigid: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    lever: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    def __len__(self) -> int:
        return self.columns.col_i.shape[0]

    @property
    def n_virtual(self) -> int:
        return self.src.shape[0]

    @cached_property
    def tie_rows(self) -> np.ndarray:
        """(n_v, 3, 4) entries of every virtual node's T rows (``_tie_rows``)."""
        return _tie_rows(self.lever)

    def virtual_velocity(self, v: np.ndarray) -> np.ndarray:
        """Jv v for original velocities v: every virtual node's source
        velocity, plus w x r on a rigid body, as the sums of its Jv rows. A
        node source's lever entries are zero, so the columns they read may
        be clipped at the end of v."""
        cols = self.src[:, None, None] + _T_COL
        return np.einsum("kab,kab->ka", self.tie_rows[:, :, :3], np.take(v, cols, mode="clip")).ravel()

    @property
    def contacts(self) -> np.recarray:
        """The set's arrays as one record array, with no object per contact.
        Only the benchmark's boundary check reads it; it goes once that check
        reads the arrays (ROADMAP item 9)."""
        return np.rec.fromarrays(
            [self.columns.col_i, self.frames, self.mu, self.phi, self.columns.col_j, self.mu2], dtype=_RECORD
        )


@dataclass
class StabilizationParams:
    beta_err: float = 0.2
    e_rest: float = 0.0
    v_rest_threshold: float = 0.01


@dataclass(eq=False)
class AugmentedDynamics:
    """One step's contact-augmented system. ``diag_pos`` holds the
    positions of A's diagonal entries in ``a.data``, as the block pattern or
    the tie layout caches them (``sparse.diagonal_positions``),
    ``entry_cols`` the column of every entry where the tie layout caches it
    (``TieLayout``), and ``norm_chunks`` the row chunks of
    ``sparse.column_norms_sq`` where the block pattern caches them
    (tie-free systems)."""

    a: sp.csc_matrix
    b: np.ndarray
    n: int  # total (original + virtual) velocity dimension
    n_orig: int
    contacts: NodalContactSet
    diag_pos: np.ndarray
    entry_cols: np.ndarray | None = None
    norm_chunks: tuple | None = None

    # per contact: column offsets i and j (-1 for none) and (n_c, 3, 3) frames
    @property
    def col_i(self) -> np.ndarray:
        return self.contacts.columns.col_i

    @property
    def col_j(self) -> np.ndarray:
        return self.contacts.columns.col_j

    @property
    def frames(self) -> np.ndarray:
        return self.contacts.frames


def contact_frames(normals: np.ndarray) -> np.ndarray:
    """(k, 3, 3) orthonormal right-handed frames with rows (n, t1, t2) for
    (k, 3) normals.

    t1 is the projection of the global axis least aligned with n, which makes
    the frame deterministic under tiny normal perturbations.
    """
    n = np.asarray(normals, dtype=float).reshape(-1, 3)
    norm = _row_norms(n)
    if not ((norm >= 1e-12) & (norm < np.inf)).all():
        raise InvalidStateError("contact normal is zero or not finite")
    n = np.where(np.abs(norm - 1.0)[:, None] > 1e-9, n / norm[:, None], n)
    e = np.zeros(n.shape)
    e[np.arange(n.shape[0]), np.abs(n).argmin(axis=1)] = 1.0
    t1 = _cross(_cross(n, e), n)
    t1 /= _row_norms(t1)[:, None]
    t2 = _cross(n, t1)
    return np.concatenate([n, t1, t2], axis=1).reshape(-1, 3, 3)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)``'s arithmetic at a lower fixed cost per call."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _surface_points(state: SystemState, rigid: RigidBodies) -> np.ndarray:
    """World positions of every rigid surface point, in the record's order,
    one stacked product per ``RigidBodies.point_groups`` group."""
    rot = state.rigid_pose(rigid)[0]
    pos = state.q[rigid.q_idx[:, :3]]
    out = np.empty(rigid.points.shape)
    for bodies, rows, points in rigid.point_groups:
        out[rows] = points @ rot[bodies].transpose(0, 2, 1) + pos[bodies, None]
    return out


@dataclass(eq=False)
class ProxyTable:
    """What ``detect_contacts`` reads of a scene's layout, built on its
    first detection and cached on ``Bodies.proxies``.

    The proxies are the proxied nodes (``node_radius`` > 0), then every
    rigid surface point. ``coords`` holds the proxied nodes' coordinate
    triples and ``radii`` every proxy's radius; ``proxy`` has one row of
    (velocity offset, rigid coordinate offset, body) per proxy, the last
    two -1 for a node, plus a last row of -1 for a static side; ``frames``
    holds each primitive's frame, a plane's own, then a placeholder per
    static sphere; ``reach`` is twice the largest radius, for the pair
    search that ``search`` turns on. Every array is read-only.

    ``geometry`` is the ``Geometry`` it was built for. ``layout`` is the
    ``ContactLayout`` of the last contact sides nodalized on it."""

    geometry: Geometry
    coords: np.ndarray
    radii: np.ndarray
    proxy: np.ndarray
    frames: np.ndarray
    search: bool
    reach: float
    layout: ContactLayout | None = field(default=None, repr=False)

    @classmethod
    def build(cls, bodies: Bodies, geometry: Geometry) -> ProxyTable:
        proxied = (bodies.node_radius > 0).nonzero()[0]
        n_nodes, rigid, body = proxied.shape[0], bodies.rigid, bodies.rigid.point_body
        radii = np.concatenate([bodies.node_radius[proxied], rigid.contact_radius[body]])
        proxy = np.full((radii.shape[0] + 1, 3), -1)
        proxy[:n_nodes, 0] = bodies.node_v[proxied]
        proxy[n_nodes:-1] = np.stack([rigid.v_off[body], rigid.q_off[body], body], axis=1)
        frames = np.array([p.frame for p in geometry.planes] + [_UNSET] * len(geometry.spheres)).reshape(-1, 3, 3)
        # a lattice proxies every node: it shares the bodies' triples
        coords = bodies.q_triples if n_nodes == bodies.node_q.shape[0] else bodies.q_triples[proxied]
        for a in (coords, radii, proxy, frames):
            a.flags.writeable = False
        n_proxies = radii.shape[0]
        search = n_proxies > 1 and bool(n_nodes or rigid.mass.shape[0] > 1)
        return cls(geometry, coords, radii, proxy, frames, search, 2.0 * radii.max() if n_proxies else 0.0)


def proxy_table(bodies: Bodies, geometry: Geometry) -> ProxyTable:
    """The ``ProxyTable`` cached on ``bodies``, built on first use and again
    for another ``Geometry`` object."""
    if bodies.proxies is None or bodies.proxies.geometry is not geometry:
        object.__setattr__(bodies, "proxies", ProxyTable.build(bodies, geometry))
    return bodies.proxies


def detect_contacts(state: SystemState, bodies: Bodies, geometry: Geometry) -> DetectedContacts:
    """One contact per (proxy, primitive) or (proxy, proxy) pair within margin.

    The proxies are the node spheres, then the rigid surface points
    (``ProxyTable``); contacts with the static primitives come out proxy by
    proxy, planes before spheres, then the proxy pairs sorted by (first,
    second) proxy. With s primitives and p proxies, proxy e on primitive k
    has key e (s + p) + k, and the pair (e, f) has key e (s + p) + s + f. A
    plane contact takes its plane's frame; the others get theirs from
    ``contact_frames``. The record carries the table, whose contact layout
    ``nodalize`` reuses.
    """
    table = proxy_table(bodies, geometry)
    margin = geometry.margin
    planes, spheres = geometry.planes, geometry.spheres
    centers = np.concatenate([state.q[table.coords], _surface_points(state, bodies.rigid)])
    radii, proxy = table.radii, table.proxy
    n_planes, n_prims, n_proxies = len(planes), len(planes) + len(spheres), centers.shape[0]
    stride = n_prims + n_proxies

    # signed distances of every (primitive, proxy), and the normals of the
    # sphere ones; the contacts come out row-major over (proxy, primitive)
    sd_cols = [(centers - plane.point) @ plane.normal - radii for plane in planes]
    normal_cols = []
    for sphere in spheres:
        d = centers - sphere.center
        dist = np.linalg.norm(d, axis=1)
        apart = dist > 1e-12
        sd_cols.append(np.where(apart, dist - sphere.radius - radii, np.inf))
        normal_cols.append(d / np.where(apart, dist, 1.0)[:, None])
    signed = np.array(sd_cols).reshape(n_prims, n_proxies)
    first, k = np.nonzero(signed.T < margin)
    frame = table.frames[k]
    if spheres:
        on_sphere = (k >= n_planes).nonzero()[0]
        if on_sphere.size:
            normal = np.array(normal_cols)[k[on_sphere] - n_planes, first[on_sphere]]
            frame[on_sphere] = contact_frames(normal)
    # row 0 of a frame is its normal, bit for bit
    point = centers[first] - radii[first, None] * frame[:, 0]
    second = np.full(first.shape[0], -1)
    key = first * stride + k
    sd = signed[k, first]

    # dynamic-dynamic pairs of different bodies via a KD-tree over proxy centers
    # proxies of one rigid body never pair, so without node proxies a
    # single body needs no tree; the pairs are sorted below, so the cheaper
    # unbalanced, uncompacted tree finds the same result
    if table.search:
        tree = cKDTree(centers, balanced_tree=False, compact_nodes=False)
        pairs = tree.query_pairs(r=table.reach + margin, output_type="ndarray")
        e, f = pairs[np.argsort(pairs[:, 0] * stride + pairs[:, 1])].T
        d = centers[e] - centers[f]
        # the stacked 1x3 @ 3x1 products round as np.linalg.norm does on one vector
        dist = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
        pair_sd = dist - radii[e] - radii[f]
        body = proxy[:, 2]
        hit = (pair_sd < margin) & (dist > 1e-12) & ((body[e] < 0) | (body[e] != body[f]))
        if hit.any():
            e, f, pair_sd = e[hit], f[hit], pair_sd[hit]
            normal = d[hit] / dist[hit, None]
            pair_point = centers[f] + (radii[f] + 0.5 * pair_sd)[:, None] * normal
            first, second, key, sd, frame, point = (
                np.concatenate(col)
                for col in zip(
                    (first, second, key, sd, frame, point),
                    (e, f, e * stride + n_prims + f, pair_sd, contact_frames(normal), pair_point),
                )
            )

    sides = proxy[np.array([first, second]).T]
    detected = DetectedContacts(
        point=point,
        frame=frame,
        depth=np.maximum(0.0, -sd) + 0.0,  # + 0.0 turns -0.0 at exact touch into 0.0
        v_off=sides[..., 0],
        q_off=sides[..., 1],
        key=key,
    )
    detected.proxies = table
    return detected


def stabilization_term(depth, v_n_prev, params: StabilizationParams, dt: float):
    """Penetration compensation plus restitution, in m/s, elementwise over
    depths and previous normal velocities, for a step of dt.

    The Signorini row later enforces ``v_n + phi_n >= 0``, so a negative value
    demands a separating velocity.
    """
    phi = -(params.beta_err / dt) * np.asarray(depth, dtype=float)
    restitution = params.e_rest * np.minimum(0.0, v_n_prev)
    return np.where(np.abs(v_n_prev) > params.v_rest_threshold, phi + restitution, phi)


@dataclass(eq=False)
class ContactLayout:
    """What ``nodalize`` derives from the contact sides alone, for one set of
    detected sides, n, mu and mu2 (``key``: the bytes of the sides'
    ``v_off`` and ``q_off``, then n, mu and mu2, as ``TieLayout`` keys on
    its sources' bytes). It is built on the first step that detects these
    sides and cached on the detection's ``ProxyTable``.

    Per contact: the columns, as a ``ContactColumns``, and the ``mu``/``mu2``
    arrays. Per contact side, side 0 then side 1 of
    each contact: ``moving`` (a dynamic side) and ``vel_idx``, the velocity
    triples it reads; the ``rigid_side`` sides, with their contacts
    ``rigid_contact`` and the triples of their bodies' origins
    (``rigid_q``) and angular velocities (``rigid_w``); and the
    ``virtual`` sides, one per virtual node, with its source ``src`` and
    ``rigid`` flag. Every array is read-only."""

    key: tuple
    columns: ContactColumns
    mu: np.ndarray
    mu2: np.ndarray
    moving: np.ndarray
    vel_idx: np.ndarray
    rigid_side: np.ndarray
    rigid_contact: np.ndarray
    rigid_q: np.ndarray
    rigid_w: np.ndarray
    virtual: np.ndarray
    src: np.ndarray
    rigid: np.ndarray

    @classmethod
    def build(cls, key: tuple, v_off: np.ndarray, q_off: np.ndarray) -> ContactLayout:
        """Over the contact sides in contact order, the first side on an
        original node keeps that node; every later side on it, and every
        rigid side, gets a fresh virtual node, numbered in the same order."""
        n, mu, mu2 = key[2:]
        n_c = v_off.shape[0]
        v_off = v_off.ravel()  # per contact side, side 0 then side 1
        q_off = q_off.ravel()
        on_node = ((v_off >= 0) & (q_off < 0)).nonzero()[0]
        keeps = on_node[np.unique(v_off[on_node], return_index=True)[1]]  # first side on each node
        virt = v_off >= 0
        virt[keeps] = False
        virtual = virt.nonzero()[0]
        cols = np.full(2 * n_c, -1)
        cols[keeps] = v_off[keeps]
        cols[virtual] = n + 3 * np.arange(virtual.shape[0])
        cols = cols.reshape(n_c, 2)
        rigid_side = (q_off >= 0).nonzero()[0]
        arrays = (
            cols, np.full(n_c, mu), np.full(n_c, mu2), v_off[:, None] >= 0, triples(np.maximum(v_off, 0)),
            rigid_side, rigid_side // 2, triples(q_off.take(rigid_side)), triples(v_off.take(rigid_side) + 3),
            virtual, v_off[virtual], q_off[virtual] >= 0,
        )
        for a in arrays:
            a.flags.writeable = False
        return cls(key, ContactColumns.build(cols[:, 0], cols[:, 1]), *arrays[1:])


def _contact_layout(detected: DetectedContacts, n: int, mu: float, mu2: float | None) -> ContactLayout:
    """The ``ContactLayout`` cached on the detection's ``ProxyTable``,
    rebuilt when its key differs; a detection without a table gets a new
    one."""
    key = (detected.v_off.tobytes(), detected.q_off.tobytes(), n, float(mu), float(mu if mu2 is None else mu2))
    table = detected.proxies
    layout = None if table is None else table.layout
    if layout is None or layout.key != key:
        layout = ContactLayout.build(key, detected.v_off, detected.q_off)
        if table is not None:
            table.layout = layout
    return layout


def nodalize(
    detected: DetectedContacts,
    state: SystemState,
    k_v: float,
    mu: float = 0.5,
    mu2: float | None = None,
    stab: StabilizationParams | None = None,
) -> NodalContactSet:
    """Place every detected contact on a 3-DOF node, spawning virtual nodes
    on rigid surface points. Virtual nodes live for this step only.

    Diagonalization requires every node to carry at most one contact. Over
    the contact sides in contact order, the first side on an original node
    keeps that node; every later side on it, and every rigid side, gets a
    fresh virtual node, numbered in the same order and tied to its source by
    Jv. Those columns come from the sides' ``ContactLayout``; this step
    computes the lever arms, the relative normal velocities and phi.
    """
    stab = stab or StabilizationParams()
    n = state.v.shape[0]
    n_c = len(detected)
    layout = _contact_layout(detected, n, mu, mu2)
    frames = detected.frame
    rigid = layout.rigid_side
    # per contact side: lever arm from the body origin, and velocity v + w x r
    lever = np.zeros((2 * n_c, 3))
    lever[rigid] = detected.point.take(layout.rigid_contact, axis=0) - state.q.take(layout.rigid_q)
    vel = np.where(layout.moving, state.v.take(layout.vel_idx), 0.0)
    vel[rigid] += _cross(state.v.take(layout.rigid_w), lever.take(rigid, axis=0))
    vel = vel.reshape(n_c, 2, 3)
    v_n = np.einsum("mi,mi->m", frames[:, 0], vel[:, 0] - vel[:, 1])
    phi = stabilization_term(detected.depth, v_n, stab, state.dt)

    return NodalContactSet(
        n, k_v, layout.columns, frames, layout.mu, layout.mu2, phi, layout.src, layout.rigid, lever[layout.virtual]
    )


# Row a of a virtual node's tie T = [Jv, -I] as 4 entries: the source's
# column src + a (value 1), the two columns src + _T_COL[a, 1:] of -[r]x,
# whose values are _T_SIGN * r[_T_LEVER], and the virtual node's own column
# (value -1). A node source has only the first and the last.
_T_COL = np.array([[0, 4, 5], [1, 3, 5], [2, 3, 4]])
_T_LEVER = np.array([[0, 2, 1, 0], [0, 2, 0, 0], [0, 1, 0, 0]])
_T_SIGN = np.array([[0, 1, -1, 0], [0, -1, 1, 0], [0, 1, -1, 0]], dtype=float)
_T_UNIT = np.array([1.0, 0.0, 0.0, -1.0])


def _tie_rows(lever: np.ndarray) -> np.ndarray:
    """(n_v, 3, 4) entries of every virtual node's T rows."""
    return _T_UNIT + _T_SIGN * lever[:, _T_LEVER]


@dataclass(eq=False)
class TieLayout:
    """The CSC pattern of the augmented A for one A_o pattern and one set of
    virtual-node sources.

    The values of a step are A_o's CSC data followed by the 16 products
    t_p t_q of the 4 entries of every T row (``_tie_rows``), row by row;
    ``pos`` names the augmented entry each of them adds into. Products with
    a node source's two missing entries go to the extra entry nnz, which is
    cut off. ``src`` and ``rigid`` are the sources it was built for.
    ``template`` is the augmented pattern's ``sparse.csc_template``, and
    ``diag_pos`` the positions of its diagonal entries. ``entry_cols`` is
    the pattern's ``sparse.entry_columns`` where the solver multiplies
    through ``sparse.BincountMatvec`` (at most ``BINCOUNT_NNZ_MAX``
    entries), else None.
    """

    src: np.ndarray
    rigid: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    pos: np.ndarray
    template: sp.csc_matrix
    diag_pos: np.ndarray
    entry_cols: np.ndarray | None

    @classmethod
    def build(cls, pattern: BlockPattern, src: np.ndarray, rigid: np.ndarray) -> TieLayout:
        """Merge the tie entries into the CSC ``indices``/``indptr`` of A_o's
        ``BlockPattern``, whose (column, row) keys are sorted: only the tie
        keys are sorted, and those that A_o lacks are inserted. Virtual rows
        sort after every original row, so a source column only gains a
        tail, and the virtual columns come last. A_o's diagonal entries move
        with A_o's entries, and each virtual column's is a tie entry."""
        indices, indptr = pattern.indices, pattern.indptr
        n_o, n_v = indptr.shape[0] - 1, src.shape[0]
        n = n_o + 3 * n_v
        cols = np.empty((n_v, 3, 4), dtype=np.int64)
        cols[:, :, :3] = src[:, None, None] + _T_COL
        cols[:, :, 3] = n_o + np.arange(3 * n_v).reshape(n_v, 3)
        live = np.ones((n_v, 3, 4), dtype=bool)  # the T row entries that exist
        live[~rigid, :, 1:3] = False
        live = (live[..., :, None] & live[..., None, :]).ravel()
        keys = (cols[..., None, :] * n + cols[..., :, None]).ravel()  # product (p, q): row p, column q
        a_keys = np.repeat(np.arange(n_o, dtype=np.int64) * n, np.diff(indptr)) + indices
        tie, tie_of = np.unique(keys[live], return_inverse=True)
        at = np.searchsorted(a_keys, tie)
        new = np.searchsorted(a_keys, tie, side="right") == at
        # a tie key sits after A_o's entries below it and the new keys before it
        tie_at = at + np.cumsum(new) - new
        nnz = a_keys.shape[0] + int(new.sum())
        pos = np.full(keys.shape[0], nnz)
        pos[live] = tie_at[tie_of]
        kept = np.ones(nnz, dtype=bool)  # the augmented entries that A_o holds
        kept[tie_at[new]] = False
        kept = np.flatnonzero(kept)
        new_col, new_row = np.divmod(tie[new], n)
        indptr = np.concatenate([indptr, np.full(3 * n_v, indptr[-1])]) + np.searchsorted(new_col, np.arange(n + 1))
        indices = np.insert(indices, at[new], new_row)
        indptr = indptr.astype(indices.dtype)  # scipy would convert an int64 indptr on every step
        indices.flags.writeable = indptr.flags.writeable = False
        virtual = np.arange(n_o, n, dtype=np.int64)
        diag_pos = np.concatenate([kept[pattern.diag_pos], tie_at[np.searchsorted(tie, virtual * n + virtual)]])
        return cls(
            src.copy(), rigid.copy(), indices, indptr, np.concatenate([kept, pos]),
            csc_template(indices, indptr, n), diag_pos, entry_columns(indptr) if nnz <= BINCOUNT_NNZ_MAX else None,
        )

    def fits(self, nodal: NodalContactSet) -> bool:
        """Whether this layout was built for these sources and rigid flags
        (compared as bytes: ``np.array_equal`` costs ten times more here)."""
        return self.src.tobytes() == nodal.src.tobytes() and self.rigid.tobytes() == nodal.rigid.tobytes()


def augment_dynamics(asm: AssembledDynamics, nodal: NodalContactSet) -> AugmentedDynamics:
    """Append virtual-node coordinates and the viscous tie blocks.

    With T = [Jv, -I] the augmented matrix is A_o (padded with zeros) plus
    k_v T^T T: each row of T adds the outer product of its entries. The
    ``TieLayout`` cached on A_o's ``BlockPattern`` places them, keyed on the
    virtual nodes' sources and rigid flags; the step's matrix is made from
    the layout's template, and carries the layout's diagonal positions and
    entry columns. A step without virtual nodes returns A_o with the
    pattern's diagonal positions and row chunks.
    """
    n_o = asm.n
    if asm.b.shape[0] != n_o:
        raise DimensionMismatchError("augment_dynamics: b length mismatch")
    pattern, layout = asm.pattern, asm.pattern.ties
    if nodal.n_virtual == 0:
        return AugmentedDynamics(asm.a, asm.b.copy(), n_o, n_o, nodal, pattern.diag_pos, norm_chunks=pattern.norm_chunks)
    if layout is None or not layout.fits(nodal):
        layout = pattern.ties = TieLayout.build(pattern, nodal.src, nodal.rigid)
    t = nodal.tie_rows
    vals = np.concatenate([asm.data, (nodal.k_v * (t[..., :, None] * t[..., None, :])).ravel()])
    n, nnz = layout.indptr.shape[0] - 1, layout.indices.shape[0]
    a = with_data(layout.template, np.bincount(layout.pos, vals, minlength=nnz + 1)[:nnz])
    return AugmentedDynamics(
        a, np.concatenate([asm.b, np.zeros(n - n_o)]), n, n_o, nodal, layout.diag_pos, layout.entry_cols
    )


def contact_jacobian_matrix(aug: AugmentedDynamics) -> sp.csr_matrix:
    """Explicit sparse J_c, mostly for oracles and the baselines: row block m
    holds frame m at column offset col_i[m], and its negative at col_j[m]."""
    n_c = aug.col_i.shape[0]
    has_j = aug.col_j >= 0
    vals = aug.frames.reshape(n_c, 9)  # entry (a, b) of a frame: row 3 m + a, column offset + b
    rows = np.repeat(np.arange(3 * n_c).reshape(n_c, 3), 3, axis=1)
    b = np.tile(np.arange(3), 3)
    return sp.csr_matrix(
        (
            np.concatenate([vals, -vals[has_j]]).ravel(),
            (
                np.concatenate([rows, rows[has_j]]).ravel(),
                np.concatenate([aug.col_i[:, None] + b, aug.col_j[has_j, None] + b]).ravel(),
            ),
        ),
        shape=(3 * n_c, aug.n),
    )


class ContactMap:
    """J_c and J_c^T of one augmented system, with the gather/scatter indices
    of the contact set's ``ContactColumns``, built once per layout, so that
    an iterative solver can apply them cheaply."""

    def __init__(self, aug: AugmentedDynamics):
        columns = aug.contacts.columns
        self.n = aug.n
        self.frames = aug.frames
        self.idx_i, self.has_j, self.any_j, self.idx_j = columns.idx_i, columns.has_j, columns.any_j, columns.idx_j

    def jc(self, v: np.ndarray) -> np.ndarray:
        """J_c v as (n_c, 3) contact-frame velocities."""
        rel = v[self.idx_i]
        if self.any_j:
            rel[self.has_j] -= v[self.idx_j]
        return np.einsum("mab,mb->ma", self.frames, rel)

    def jc_t(self, lam: np.ndarray) -> np.ndarray:
        """J_c^T lam over the augmented coordinates. Every contact side owns
        its node (``NodalContactSet``), so plain writes scatter it."""
        out = np.zeros(self.n)
        world = np.einsum("mba,mb->ma", self.frames, lam)
        out[self.idx_i] = world
        if self.any_j:
            out[self.idx_j] = 0.0 - world[self.has_j]  # the bits of 0 - x: a zero reads +0.0
        return out
