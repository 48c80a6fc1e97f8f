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
``NodalContactSet`` in batched numpy. Frames come from detection: the
``Geometry`` builds every plane's frame once, when it is made, and a plane's
contacts take that frame; only contacts on static spheres and between
proxies call ``contact_frames`` on the step. ``nodalize`` reads the frames
and derives none. No Python object is made per contact:
``NodalContactSet.contacts`` views the arrays as one numpy record array. Jv
stays arrays too, never a matrix: per virtual node, its source's tie
columns, whether the source is a rigid body, and the lever arm r from the
body's origin, applied by ``NodalContactSet.virtual_velocity`` and the tie
fill of ``augment_dynamics``.

A step's contact arrays split into a layout, built once and cached on scene
objects, and values computed per step. What invalidates a layout is named
with each:

- ``ProxyTable``, on ``Bodies.proxies``: the proxied nodes' coordinate
  triples and every proxy's radius and row of (velocity offset, rigid
  coordinate offset, body), built from the bodies alone. The bodies are a
  frozen record, so nothing invalidates it. Per step, ``detect_contacts``
  computes the proxy centers (rigid points turned by the state's
  ``rigid_pose``), distances, frames, points, depths and keys against the
  ``Geometry``'s arrays.
- ``ContactLayout``, on the ``ProxyTable``: keyed on the bytes of the
  detected sides' ``v_off``/``q_off`` plus n, so only a change of the
  contact set rebuilds it. It holds the columns, the virtual sides with
  their sources' tie columns and rigid flags, the rigid sides' index
  triples and the ``ContactColumns``. Per step, ``nodalize`` computes the
  mu/mu2 arrays, the lever arms, relative normal velocities and phi.
- ``ContactColumns``, on the layout: the columns, checked once for a
  column carrying two contact sides, the contacted nodes' triples for W's
  ties, and the gather indices of ``ContactMap`` and of the solver's float
  pass; every ``NodalContactSet`` holds one.
- ``TieLayout``, on the layout (below): built for the first A_o pattern
  that the layout's virtual nodes are augmented on, and again for another.
  The T rows of a step's lever arms are built once per ``NodalContactSet``
  (``tie_rows``), for the warm start and ``augment_dynamics`` alike.

A miss builds a layout through the same ``build`` that a hit reuses, and
the layouts die with the scene; every cached array is read-only.

``augment_dynamics`` writes the block matrix above as A_o plus k_v T^T T with
T = [Jv, -I]. The virtual nodes, and so the augmented pattern, are a
function of the contact set alone: a ``TieLayout``, built once per
``ContactLayout``, holds the augmented matrix's ``sparse.Pattern`` and, for
each value of A_o and each product of two entries of a T row, the entry it
adds into. A step fills the augmented matrix's values with one
``np.bincount`` and makes the matrix from the pattern's template; the
pattern also carries the diagonal positions and the kernels that its size
chooses for the solver, and ``AugmentedDynamics`` carries the pattern. Each
product is k_v (t_p t_q), and every entry sums A_o's
value first and then the products row by row, so entries (p, q) and (q, p)
receive the same floats in the same order: the augmented A is bitwise
symmetric wherever A_o is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .dynamics import (
    AssembledDynamics,
    Bodies,
    RigidBodies,
    SystemState,
    _cross,
    _read_only,
    triples,
)
from .errors import DimensionMismatchError, InvalidMatrixError, InvalidStateError
from .sparse import Pattern, with_data

DEFAULT_MARGIN = 1e-4  # m, contact activation distance
# the order in which ``ContactMap`` holds the components of its frames'
# second axis and of its columns, so that einsum's sums repeat the order of
# the (n_c, 3, 3) products
_JC_ORDER = np.array([0, 2, 1])
_JC_ORDER.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Geometry:
    """The static primitives as read-only arrays, row k primitive k: the
    half-spaces through ``plane_point`` with outward normals
    ``plane_normal``, and the spheres of ``sphere_center`` and
    ``sphere_radius``. The dynamic proxies live on ``Bodies``.

    ``frames`` holds every primitive's contact frame, rows (n, t1, t2) from
    ``contact_frames``: each plane's, built once when the geometry is made,
    then a zero placeholder per sphere, whose contacts get theirs on the
    step. ``plane_normal`` is the planes' unit rows n of those frames. A
    zero or non-finite normal raises ``InvalidStateError``, and unpaired
    rows ``DimensionMismatchError``."""

    plane_point: np.ndarray = ()  # (k, 3)
    plane_normal: np.ndarray = ()  # (k, 3)
    sphere_center: np.ndarray = ()  # (s, 3)
    sphere_radius: np.ndarray = ()  # (s,)
    margin: float = DEFAULT_MARGIN
    frames: np.ndarray = field(init=False, repr=False)  # (k + s, 3, 3)

    def __post_init__(self):
        for name in ("plane_point", "plane_normal", "sphere_center"):
            object.__setattr__(self, name, _read_only(np.reshape(getattr(self, name), (-1, 3)), float))
        object.__setattr__(self, "sphere_radius", _read_only(self.sphere_radius, float))
        if self.plane_point.shape != self.plane_normal.shape or self.sphere_radius.shape != self.sphere_center.shape[:1]:
            raise DimensionMismatchError("every plane needs one point and one normal, every sphere one center and one radius")
        frames = np.concatenate([contact_frames(self.plane_normal), np.zeros((self.sphere_radius.shape[0], 3, 3))])
        normal = frames[: self.plane_normal.shape[0], 0].copy()
        frames.flags.writeable = normal.flags.writeable = False
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "plane_normal", normal)


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
    arrays: ``node_idx``, the ``triples`` of the contacted node columns in
    ascending order (W's node ties); the D-contacts ``has_j`` and their
    ``j_cols``; ``ContactMap``'s gathers ``idx_i``/``idx_j``, component-major
    (3, n_c) and (3, n_j) with the rows in the component order ``_JC_ORDER``;
    and, built on first use, since only small batches read them, the float
    pass's order of v* entries, ``gather``, with ``has_j`` as Python bools
    in ``j_flags``. Every array is read-only.

    ``build`` rejects a column that carries two contact sides with
    ``InvalidMatrixError``: J_c W J_c^T would have off-diagonal blocks
    there, and the one-shot contact solves would not be exact."""

    col_i: np.ndarray
    col_j: np.ndarray
    node_idx: np.ndarray
    has_j: np.ndarray
    any_j: bool
    j_cols: np.ndarray
    idx_i: np.ndarray
    idx_j: np.ndarray

    @classmethod
    def build(cls, col_i: np.ndarray, col_j: np.ndarray) -> ContactColumns:
        col_i, col_j = _read_only(col_i), _read_only(col_j)
        has_j = col_j >= 0
        j_cols = col_j[has_j]
        nodes = np.sort(np.concatenate([col_i, j_cols]))
        shared = nodes[1:][nodes[1:] == nodes[:-1]]
        if shared.size:
            raise InvalidMatrixError(f"column {shared[0]} carries more than one contact side")
        node_idx, idx_i, idx_j = triples(nodes), _JC_ORDER[:, None] + col_i, _JC_ORDER[:, None] + j_cols
        for a in (has_j, j_cols, idx_i, idx_j):
            a.flags.writeable = False
        return cls(col_i, col_j, node_idx, has_j, bool(j_cols.shape[0]), j_cols, idx_i, idx_j)

    @cached_property
    def gather(self) -> np.ndarray:
        """Per contact its columns i, then j for a D-contact."""
        both = np.concatenate([triples(self.col_i), triples(self.col_j)], axis=1)
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
    ``nodalize`` passes its ``ContactLayout``'s, and the layout itself as
    ``layout``; a set made by hand builds its own with
    ``ContactColumns.build`` and has no virtual nodes.

    Virtual node k has the columns n_orig + 3k to n_orig + 3k + 2. Its row
    block of Jv is [I, -[r]x] at a rigid body's velocity offset (lever arm
    ``lever[k]``), or I at an original node's (``lever[k]`` zero), as the
    layout's ``tie_cols[k]`` and ``rigid[k]`` say; ``tie_rows`` holds its T
    rows, built once per set for the warm start and ``augment_dynamics``."""

    n_orig: int  # original velocity dimension
    k_v: float
    columns: ContactColumns = field(repr=False)
    # per contact: frames and parameters; columns.col_j is -1 for an S-contact
    frames: np.ndarray  # (n_c, 3, 3)
    mu: np.ndarray
    mu2: np.ndarray  # mu where the scene sets no mu2
    phi: np.ndarray
    lever: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))  # (n_v, 3)
    layout: ContactLayout | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.columns.col_i.shape[0]

    @property
    def n_virtual(self) -> int:
        return self.lever.shape[0]

    @cached_property
    def tie_rows(self) -> np.ndarray:
        """(n_v, 3, 4) entries of every virtual node's T rows (``_tie_rows``)."""
        return _tie_rows(self.lever)

    def virtual_velocity(self, v: np.ndarray) -> np.ndarray:
        """Jv v for original velocities v: every virtual node's source
        velocity, plus w x r on a rigid body, as the sums of its Jv rows. A
        node source's lever entries are zero, so the columns they read may
        be clipped at the end of v."""
        return np.einsum("kab,kab->ka", self.tie_rows[:, :, :3], np.take(v, self.layout.tie_cols, mode="clip")).ravel()

    @property
    def contacts(self) -> np.recarray:
        """The set's arrays as one record array, with no object per contact.
        Only the benchmark's boundary check reads it; it goes once that check
        reads the arrays (ROADMAP item 11, ``boundary_arrays``)."""
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
    """One step's contact-augmented system. ``pattern`` is A's
    ``sparse.Pattern``, A_o's on a tie-free step and the tie layout's
    otherwise: the solver gathers A's diagonal at its ``diag_pos`` and takes
    A's product operator and row norms from it."""

    a: sp.csc_matrix
    b: np.ndarray
    n: int  # total (original + virtual) velocity dimension
    n_orig: int
    contacts: NodalContactSet
    pattern: Pattern

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
    norm = np.linalg.norm(n, axis=1)
    if not ((norm >= 1e-12) & (norm < np.inf)).all():
        raise InvalidStateError("contact normal is zero or not finite")
    n = np.where(np.abs(norm - 1.0)[:, None] > 1e-9, n / norm[:, None], n)
    e = np.zeros(n.shape)
    e[np.arange(n.shape[0]), np.abs(n).argmin(axis=1)] = 1.0
    t1 = _cross(_cross(n, e), n)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = _cross(n, t1)
    return np.concatenate([n, t1, t2], axis=1).reshape(-1, 3, 3)


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
    """What ``detect_contacts`` reads of a scene's bodies, built from them
    alone on their first detection and cached on ``Bodies.proxies``.

    The proxies are the proxied nodes (``node_radius`` > 0), then every
    rigid surface point. ``coords`` holds the proxied nodes' coordinate
    triples and ``radii`` every proxy's radius; ``proxy`` has one row of
    (velocity offset, rigid coordinate offset, body) per proxy, the last
    two -1 for a node, plus a last row of -1 for a static side; ``reach``
    is twice the largest radius, for the pair search that ``search`` turns
    on. Every array is read-only. ``layout`` is the ``ContactLayout`` of the
    last contact sides nodalized on it."""

    coords: np.ndarray
    radii: np.ndarray
    proxy: np.ndarray
    search: bool
    reach: float
    layout: ContactLayout | None = field(default=None, repr=False)

    @classmethod
    def build(cls, bodies: Bodies) -> ProxyTable:
        proxied = (bodies.node_radius > 0).nonzero()[0]
        n_nodes, rigid, body = proxied.shape[0], bodies.rigid, bodies.rigid.point_body
        radii = np.concatenate([bodies.node_radius[proxied], rigid.contact_radius[body]])
        proxy = np.full((radii.shape[0] + 1, 3), -1)
        proxy[:n_nodes, 0] = bodies.node_v[proxied]
        proxy[n_nodes:-1] = np.stack([rigid.v_off[body], rigid.q_off[body], body], axis=1)
        # a lattice proxies every node: it shares the bodies' triples
        coords = bodies.q_triples if n_nodes == bodies.node_q.shape[0] else bodies.q_triples[proxied]
        for a in (coords, radii, proxy):
            a.flags.writeable = False
        n_proxies = radii.shape[0]
        search = n_proxies > 1 and bool(n_nodes or rigid.mass.shape[0] > 1)
        return cls(coords, radii, proxy, search, 2.0 * radii.max() if n_proxies else 0.0)


def proxy_table(bodies: Bodies) -> ProxyTable:
    """The ``ProxyTable`` cached on ``bodies``, built on first use."""
    if bodies.proxies is None:
        object.__setattr__(bodies, "proxies", ProxyTable.build(bodies))
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
    table = proxy_table(bodies)
    margin = geometry.margin
    centers = np.concatenate([state.q[table.coords], _surface_points(state, bodies.rigid)])
    radii, proxy = table.radii, table.proxy
    n_planes, n_prims, n_proxies = geometry.plane_point.shape[0], geometry.frames.shape[0], centers.shape[0]
    spheres = n_prims > n_planes
    stride = n_prims + n_proxies

    # signed distances of every (primitive, proxy), planes then spheres, and
    # the normals of the sphere ones; the contacts come out row-major over
    # (proxy, primitive)
    signed = ((centers - geometry.plane_point[:, None]) @ geometry.plane_normal[:, :, None])[..., 0] - radii
    if spheres:
        d = centers - geometry.sphere_center[:, None]
        dist = np.linalg.norm(d, axis=2)
        apart = dist > 1e-12
        signed = np.concatenate([signed, np.where(apart, dist - geometry.sphere_radius[:, None] - radii, np.inf)])
        normals = d / np.where(apart, dist, 1.0)[..., None]
    first, k = np.nonzero(signed.T < margin)
    frame = geometry.frames[k]
    if spheres:
        on_sphere = (k >= n_planes).nonzero()[0]
        if on_sphere.size:
            frame[on_sphere] = contact_frames(normals[k[on_sphere] - n_planes, first[on_sphere]])
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
        # imported here: scipy.spatial keeps about 7 MB resident that rigid-only runs never use
        from scipy.spatial import cKDTree

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
    detected sides and n (``key``: the bytes of the sides' ``v_off`` and
    ``q_off``, then n). It is built on the first step that detects these
    sides and cached on the detection's ``ProxyTable``.

    Per contact: the columns, as a ``ContactColumns``. Per contact side,
    side 0 then side 1 of each contact: ``moving`` (a dynamic side) and
    ``vel_idx``, the velocity triples it reads; the ``rigid_side`` sides,
    with their contacts ``rigid_contact`` and the triples of their bodies'
    origins (``rigid_q``) and angular velocities (``rigid_w``); and the
    ``virtual`` sides, one per virtual node, with its ``rigid`` flag and
    ``tie_cols``, the source's columns of its T rows, src + ``_T_COL``.
    Every array is read-only. ``ties`` is the ``TieLayout`` of these
    virtual nodes on the last A_o pattern that ``augment_dynamics`` met."""

    key: tuple
    columns: ContactColumns
    moving: np.ndarray
    vel_idx: np.ndarray
    rigid_side: np.ndarray
    rigid_contact: np.ndarray
    rigid_q: np.ndarray
    rigid_w: np.ndarray
    virtual: np.ndarray
    tie_cols: np.ndarray
    rigid: np.ndarray
    ties: TieLayout | None = field(default=None, repr=False)

    @classmethod
    def build(cls, key: tuple, v_off: np.ndarray, q_off: np.ndarray) -> ContactLayout:
        """Over the contact sides in contact order, the first side on an
        original node keeps that node; every later side on it, and every
        rigid side, gets a fresh virtual node, numbered in the same order."""
        n = key[2]
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
            v_off[:, None] >= 0, triples(np.maximum(v_off, 0)),
            rigid_side, rigid_side // 2, triples(q_off.take(rigid_side)), triples(v_off.take(rigid_side) + 3),
            virtual, v_off[virtual][:, None, None] + _T_COL, q_off[virtual] >= 0,
        )
        for a in arrays:
            a.flags.writeable = False
        return cls(key, ContactColumns.build(cols[:, 0], cols[:, 1]), *arrays)


def _contact_layout(detected: DetectedContacts, n: int) -> ContactLayout:
    """The ``ContactLayout`` cached on the detection's ``ProxyTable``,
    rebuilt when its key differs; a detection without a table gets a new
    one."""
    key = (detected.v_off.tobytes(), detected.q_off.tobytes(), n)
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
    computes the mu/mu2 arrays, the lever arms, the relative normal
    velocities and phi.
    """
    stab = stab or StabilizationParams()
    n = state.v.shape[0]
    n_c = len(detected)
    layout = _contact_layout(detected, n)
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

    mu, mu2 = np.full(n_c, float(mu)), np.full(n_c, float(mu if mu2 is None else mu2))
    return NodalContactSet(n, k_v, layout.columns, frames, mu, mu2, phi, lever[layout.virtual], layout)


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


@dataclass(frozen=True, eq=False)
class TieLayout:
    """The augmented A's CSC ``sparse.Pattern`` ``csc`` for one
    ``ContactLayout``'s virtual nodes on the A_o pattern ``base``.

    The values of a step are A_o's CSC data followed by the 16 products
    t_p t_q of the 4 entries of every T row (``_tie_rows``), row by row;
    the read-only ``pos`` names the augmented entry each of them adds into.
    Products with a node source's two missing entries go to the extra entry
    nnz, which is cut off.
    """

    base: Pattern
    pos: np.ndarray
    csc: Pattern

    @classmethod
    def build(cls, base: Pattern, tie_cols: np.ndarray, rigid: np.ndarray) -> TieLayout:
        """Merge the tie entries into the CSC ``indices``/``indptr`` of
        ``base``, whose (column, row) keys are sorted: only the tie keys are
        sorted, and those that A_o lacks are inserted. Virtual rows sort
        after every original row, so a source column only gains a tail, and
        the virtual columns come last. A_o's diagonal entries move with
        A_o's entries, and each virtual column's is a tie entry."""
        indices, indptr = base.indices, base.indptr
        n_o, n_v = indptr.shape[0] - 1, tie_cols.shape[0]
        n = n_o + 3 * n_v
        cols = np.empty((n_v, 3, 4), dtype=np.int64)
        cols[:, :, :3] = tie_cols
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
        virtual = np.arange(n_o, n, dtype=np.int64)
        diag_pos = np.concatenate([kept[base.diag_pos], tie_at[np.searchsorted(tie, virtual * n + virtual)]])
        pos = np.concatenate([kept, pos])
        pos.flags.writeable = False
        return cls(base, pos, Pattern.build(indices, indptr, diag_pos))


def augment_dynamics(asm: AssembledDynamics, nodal: NodalContactSet) -> AugmentedDynamics:
    """Append virtual-node coordinates and the viscous tie blocks.

    With T = [Jv, -I] the augmented matrix is A_o (padded with zeros) plus
    k_v T^T T: each row of T adds the outer product of its entries. The
    ``TieLayout`` cached on the set's ``ContactLayout`` places them; it is
    built once per contact layout, and again for another A_o pattern. The
    step's matrix is made from the tie layout's template and carries its
    pattern. A step without virtual nodes returns A_o with A_o's pattern.
    """
    n_o = asm.n
    if asm.b.shape[0] != n_o:
        raise DimensionMismatchError("augment_dynamics: b length mismatch")
    if nodal.n_virtual == 0:
        return AugmentedDynamics(asm.a, asm.b.copy(), n_o, n_o, nodal, asm.pattern.csc)
    layout = nodal.layout
    ties = layout.ties
    if ties is None or ties.base is not asm.pattern.csc:
        ties = layout.ties = TieLayout.build(asm.pattern.csc, layout.tie_cols, layout.rigid)
    t = nodal.tie_rows
    vals = np.concatenate([asm.data, (nodal.k_v * (t[..., :, None] * t[..., None, :])).ravel()])
    csc = ties.csc
    n, nnz = csc.indptr.shape[0] - 1, csc.indices.shape[0]
    a = with_data(csc.template, np.bincount(ties.pos, vals, minlength=nnz + 1)[:nnz])
    return AugmentedDynamics(a, np.concatenate([asm.b, np.zeros(n - n_o)]), n, n_o, nodal, csc)


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
    an iterative solver can apply them cheaply.

    Both products run over component-major arrays: ``frames`` holds entry
    (a, b) of contact m's frame at [a, k, m], with b = ``_JC_ORDER[k]``, as
    ``idx_i``/``idx_j`` hold its columns. ``einsum`` then sums each entry
    of J_c v along k, 0 + ((F_a0 r0 + F_a2 r2) + F_a1 r1), the bits of the
    float pass and of the (n_c, 3, 3) ``"mab,mb->ma"`` sum, and each entry
    of J_c^T lam along a, 0 + ((F_0b l0 + F_1b l1) + F_2b l2), those of
    ``"mba,mb->ma"``; its rows come out in ``_JC_ORDER``, the order the
    scatter indices keep."""

    def __init__(self, aug: AugmentedDynamics):
        columns = aug.contacts.columns
        self.n = aug.n
        self.frames = aug.frames.transpose(1, 2, 0).take(_JC_ORDER, axis=1)
        self.idx_i, self.has_j, self.any_j, self.idx_j = columns.idx_i, columns.has_j, columns.any_j, columns.idx_j

    def jc(self, v: np.ndarray) -> np.ndarray:
        """J_c v as (n_c, 3) contact-frame velocities, the transpose of a
        (3, n_c) array."""
        rel = v[self.idx_i]
        if self.any_j:
            rel[:, self.has_j] -= v[self.idx_j]
        return np.einsum("abm,bm->am", self.frames, rel).T

    def jc_t(self, lam: np.ndarray) -> np.ndarray:
        """J_c^T lam over the augmented coordinates, for (n_c, 3) impulses;
        the transpose of a (3, n_c) array, as ``jc`` and the strict array
        projection give them, reads without a copy. Every contact side owns
        its node (``NodalContactSet``), so plain writes scatter it."""
        out = np.zeros(self.n)
        world = np.einsum("bam,bm->am", self.frames, lam.T)
        out[self.idx_i] = world
        if self.any_j:
            out[self.idx_j] = 0.0 - world[:, self.has_j]  # the bits of 0 - x: a zero reads +0.0
        return out
