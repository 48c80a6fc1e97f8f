"""Collision detection, contact nodalization and dynamics augmentation.

Contacts are detected against analytic primitives (half-spaces, static
spheres) and between dynamic sphere proxies. Every contact is then placed on a
3-DOF Cartesian node: lattice/particle contacts act on their own node, rigid
surface points spawn a one-step massless virtual node tied to the body by a
viscous gain ``k_v``. The augmented system keeps the block structure

    [ A_o + k_v Jv^T Jv   -k_v Jv^T ]
    [ -k_v Jv              k_v I    ]

which stays symmetric positive definite, and the contact Jacobian reduces to a
stack of rotation blocks over nodes.

``nodalize`` resolves node slots in one Python pass over the raw contacts and
then computes lever arms, velocities, the stabilization terms phi and Jv for
all contacts in batched numpy, returning per-contact column, frame, mu and
phi arrays next to the ``Contact`` records. ``augment_dynamics`` writes the
block matrix above as A_o plus k_v T^T T with T = [Jv, -I]: A_o's entries and
the outer products of T's rows form one triplet set, summed into CSC by a
single ``tocsc``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .dynamics import Bodies, RigidBody, SystemState, _quat_to_rot, triples
from .errors import DimensionMismatchError, InvalidStateError

DEFAULT_MARGIN = 1e-4  # m, contact activation distance


@dataclass
class Plane:
    point: np.ndarray
    normal: np.ndarray


@dataclass
class StaticSphere:
    center: np.ndarray
    radius: float


@dataclass
class Geometry:
    """Static primitives; the dynamic proxies live on ``Bodies``."""

    planes: list = field(default_factory=list)
    spheres: list = field(default_factory=list)
    margin: float = DEFAULT_MARGIN


@dataclass
class RawContact:
    """Detector output before nodalization.

    ``first``/``second`` identify the provenance of each side:
    ("node", v_offset), ("rigid", index into ``Bodies.rigid``, point index)
    or ("static",).
    The normal points from the second side toward the first.
    """

    point: np.ndarray
    normal: np.ndarray
    depth: float
    first: tuple
    second: tuple = ("static",)


@dataclass
class Contact:
    """One nodalized contact with its frame and parameters."""

    kind: str  # "S" | "D"
    slot_i: tuple  # ("orig", v_offset) or ("virt", index)
    frame: np.ndarray  # rows (n, t1, t2)
    mu: float
    depth: float
    phi_n: float = 0.0
    slot_j: tuple | None = None
    mu2: float | None = None
    key: tuple | None = None  # provenance, for warm-start matching


@dataclass
class NodalContactSet:
    contacts: list  # Contact records
    n_virtual: int
    jv: sp.csr_matrix | None  # (3 n_v, n) map original velocity -> point velocity
    k_v: float
    # per contact: column offsets (col_j -1 for S-contacts), frames and parameters
    col_i: np.ndarray
    col_j: np.ndarray
    frames: np.ndarray  # (n_c, 3, 3)
    mu: np.ndarray
    mu2: np.ndarray  # mu where the scene sets no mu2
    phi: np.ndarray


@dataclass
class StabilizationParams:
    beta_err: float = 0.2
    e_rest: float = 0.0
    dt: float = 0.01
    v_rest_threshold: float = 0.01


@dataclass
class AugmentedDynamics:
    a: sp.csc_matrix
    b: np.ndarray
    n: int  # total (original + virtual) velocity dimension
    n_orig: int
    contacts: NodalContactSet

    # per contact: column offsets i and j (-1 for none) and (n_c, 3, 3) frames
    @property
    def col_i(self) -> np.ndarray:
        return self.contacts.col_i

    @property
    def col_j(self) -> np.ndarray:
        return self.contacts.col_j

    @property
    def frames(self) -> np.ndarray:
        return self.contacts.frames


def contact_frame(normal: np.ndarray) -> np.ndarray:
    """Orthonormal right-handed frame with rows (n, t1, t2) of one normal."""
    return contact_frames(normal)[0]


def contact_frames(normals: np.ndarray) -> np.ndarray:
    """(k, 3, 3) orthonormal right-handed frames with rows (n, t1, t2) for
    (k, 3) normals.

    t1 is the projection of the global axis least aligned with n, which makes
    the frame deterministic under tiny normal perturbations.
    """
    n = np.asarray(normals, dtype=float).reshape(-1, 3)
    norm = np.linalg.norm(n, axis=1)
    if np.any(norm < 1e-12):
        raise InvalidStateError("contact normal is zero")
    n = np.where(np.abs(norm - 1.0)[:, None] > 1e-9, n / norm[:, None], n)
    e = np.zeros_like(n)
    e[np.arange(n.shape[0]), np.argmin(np.abs(n), axis=1)] = 1.0
    t1 = _cross(_cross(n, e), n)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = _cross(n, t1)
    return np.stack([n, t1, t2], axis=1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of (k, 3) arrays; ``np.cross``'s arithmetic at a lower
    fixed cost per call."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


def _world_rigid_points(state: SystemState, body: RigidBody) -> np.ndarray:
    pos = state.q[body.q_offset : body.q_offset + 3]
    rot = _quat_to_rot(state.q[body.q_offset + 3 : body.q_offset + 7])
    return pos + body.contact_points @ rot.T


def detect_contacts(state: SystemState, bodies: Bodies, geometry: Geometry) -> list:
    """One raw contact per (proxy, primitive) or (proxy, proxy) pair within margin.

    The proxies are the node spheres, then the rigid surface points; contacts
    with the static primitives come out proxy by proxy, planes before spheres.
    """
    margin = geometry.margin

    # every dynamic proxy sphere: centers, radii and provenance
    proxied = bodies.node_radius > 0
    proxy_v = bodies.node_v[proxied]
    centers = [state.q[triples(bodies.node_q[proxied])]]
    radii = [bodies.node_radius[proxied]]
    rigid_prov = []
    for r, body in enumerate(bodies.rigid):
        centers.append(_world_rigid_points(state, body))
        radii.append(np.full(body.contact_points.shape[0], float(body.contact_radius)))
        rigid_prov.extend(("rigid", r, k) for k in range(body.contact_points.shape[0]))
    centers = np.concatenate(centers)
    radii = np.concatenate(radii)
    n_nodes = proxy_v.shape[0]

    def provenance(e: int) -> tuple:
        return ("node", int(proxy_v[e])) if e < n_nodes else rigid_prov[e - n_nodes]

    # signed distances (proxy, primitive) to every plane and static sphere
    sd_cols, normal_cols = [], []
    for plane in geometry.planes:
        sd_cols.append((centers - plane.point) @ plane.normal - radii)
        normal_cols.append(np.broadcast_to(plane.normal, centers.shape))
    for sphere in geometry.spheres:
        d = centers - sphere.center
        dist = np.linalg.norm(d, axis=1)
        apart = dist > 1e-12
        sd_cols.append(np.where(apart, dist - sphere.radius - radii, np.inf))
        normal_cols.append(d / np.where(apart, dist, 1.0)[:, None])
    out = []
    if sd_cols:
        sd = np.stack(sd_cols, axis=1)
        hit_e, hit_p = np.nonzero(sd < margin)  # row-major: proxy by proxy
        normals = np.stack(normal_cols, axis=1)[hit_e, hit_p]
        points = centers[hit_e] - radii[hit_e, None] * normals
        depths = np.maximum(0.0, -sd[hit_e, hit_p]).tolist()
        out = [
            RawContact(point=points[m], normal=normals[m], depth=depths[m], first=provenance(e))
            for m, e in enumerate(hit_e.tolist())
        ]

    # dynamic-dynamic pairs via a KD-tree over proxy centers
    if centers.shape[0] > 1:
        tree = cKDTree(centers)
        reach = 2.0 * radii.max() + margin
        for i, j in tree.query_pairs(r=reach):
            provi, provj = provenance(i), provenance(j)
            if provi[0] == "rigid" and provj[0] == "rigid" and provi[1] == provj[1]:
                continue  # same body
            pi, ri = centers[i], radii[i]
            pj, rj = centers[j], radii[j]
            d = pi - pj
            dist = float(np.linalg.norm(d))
            sd = dist - ri - rj
            if sd < margin and dist > 1e-12:
                normal = d / dist
                out.append(
                    RawContact(
                        point=pj + (rj + 0.5 * sd) * normal,
                        normal=normal,
                        depth=max(0.0, -sd),
                        first=provi,
                        second=provj,
                    )
                )
    return out


def stabilization_term(depth, v_n_prev, params: StabilizationParams):
    """Penetration compensation plus restitution, in m/s, elementwise over
    depths and previous normal velocities.

    The Signorini row later enforces ``v_n + phi_n >= 0``, so a negative value
    demands a separating velocity.
    """
    phi = -(params.beta_err / params.dt) * np.asarray(depth, dtype=float)
    restitution = params.e_rest * np.minimum(0.0, v_n_prev)
    return np.where(np.abs(v_n_prev) > params.v_rest_threshold, phi + restitution, phi)


def nodalize(
    raw_contacts,
    state: SystemState,
    bodies: Bodies,
    k_v: float,
    mu: float = 0.5,
    mu2: float | None = None,
    stab: StabilizationParams | None = None,
) -> NodalContactSet:
    """Place every raw contact on a 3-DOF node, spawning virtual nodes on
    rigid surface points. Virtual nodes live for this step only.

    Diagonalization requires every node to carry at most one contact, so a
    second contact landing on an already-contacted original node is moved
    onto a fresh virtual node tied to it by the identity map. One Python pass
    resolves these slots; lever arms, velocities, phi and Jv are then built
    for all contacts at once.
    """
    stab = stab or StabilizationParams(dt=state.dt)
    n = state.v.shape[0]
    n_c = len(raw_contacts)
    slots, cols = [], []  # per contact side: node slot and column offset (None, -1 if static)
    v_off, q_off = [], []  # per contact side: velocity offset (-1 if static), rigid q offset (-1)
    virt_side = []  # per virtual node: index of the contact side it carries
    used: set = set()
    for rc in raw_contacts:
        for second, side in enumerate((rc.first, rc.second)):
            tag = side[0]
            if tag == "node":
                v_off.append(side[1])
                q_off.append(-1)
            elif tag == "rigid":
                body = bodies.rigid[side[1]]
                v_off.append(body.v_offset)
                q_off.append(body.q_offset)
            elif tag == "static" and second:
                v_off.append(-1)
                q_off.append(-1)
            else:
                raise ValueError(f"cannot nodalize side {side!r}")
            if tag == "static":
                slots.append(None)
                cols.append(-1)
            elif tag == "node" and side[1] not in used:
                used.add(side[1])
                slots.append(("orig", side[1]))
                cols.append(side[1])
            else:
                slots.append(("virt", len(virt_side)))
                cols.append(n + 3 * len(virt_side))
                virt_side.append(len(v_off) - 1)

    frames = contact_frames([rc.normal for rc in raw_contacts])
    v_off = np.array(v_off, dtype=int)
    q_off = np.array(q_off, dtype=int)
    rigid = np.flatnonzero(q_off >= 0)
    # per contact side: lever arm from the body origin, and velocity v + w x r
    points = np.repeat(np.array([rc.point for rc in raw_contacts], dtype=float).reshape(n_c, 3), 2, axis=0)
    lever = np.zeros((2 * n_c, 3))
    lever[rigid] = points[rigid] - state.q[triples(q_off[rigid])]
    vel = np.where(v_off[:, None] >= 0, state.v[triples(np.maximum(v_off, 0))], 0.0)
    vel[rigid] += _cross(state.v[triples(v_off[rigid] + 3)], lever[rigid])
    vel = vel.reshape(n_c, 2, 3)
    v_n = np.einsum("mi,mi->m", frames[:, 0], vel[:, 0] - vel[:, 1])
    phi = stabilization_term([rc.depth for rc in raw_contacts], v_n, stab)

    jv = None
    if virt_side:
        jv = _virtual_node_map(v_off[virt_side], q_off[virt_side] >= 0, lever[virt_side], n)
    cols = np.array(cols, dtype=int).reshape(n_c, 2)
    # positional arguments: keywords double the cost of a record
    contacts = [
        Contact(
            "S" if slot_j is None else "D", slot_i, frame, mu, rc.depth, phi_n, slot_j, mu2, (rc.first, rc.second)
        )
        for rc, frame, phi_n, slot_i, slot_j in zip(raw_contacts, frames, phi.tolist(), slots[::2], slots[1::2])
    ]
    return NodalContactSet(
        contacts,
        len(virt_side),
        jv,
        k_v,
        col_i=cols[:, 0],
        col_j=cols[:, 1],
        frames=frames,
        mu=np.full(n_c, float(mu)),
        mu2=np.full(n_c, float(mu if mu2 is None else mu2)),
        phi=phi,
    )


# one Jv row block [I, -[r]x] as (row, column) entries, row by row with
# ascending columns: row a holds the identity column a and the two nonzero
# columns of -[r]x, whose values are +-r[_LEVER]
_ROW_COLS = np.array([0, 4, 5, 1, 3, 5, 2, 3, 4])
_LEVER = np.array([0, 2, 1, 0, 2, 0, 0, 1, 0])
_SIGN = np.array([1, 1, -1, 1, -1, 1, 1, 1, -1], dtype=float)
_IDENTITY = np.array([True, False, False] * 3)


def _virtual_node_map(src: np.ndarray, rigid: np.ndarray, lever: np.ndarray, n: int) -> sp.csr_matrix:
    """Jv over the original velocities: per virtual node, the block [I, -[r]x]
    at a rigid body's velocity offset, or I at an original node's."""
    n_v = src.shape[0]
    vals = np.where(_IDENTITY, 1.0, _SIGN * lever[:, _LEVER])
    keep = rigid[:, None] | _IDENTITY
    indptr = np.concatenate([[0], np.cumsum(keep.reshape(3 * n_v, 3).sum(axis=1))])
    return sp.csr_matrix(
        (vals[keep], (src[:, None] + _ROW_COLS)[keep], indptr), shape=(3 * n_v, n)
    )


def augment_dynamics(a_o: sp.csc_matrix, b_o: np.ndarray, nodal: NodalContactSet) -> AugmentedDynamics:
    """Append virtual-node coordinates and the viscous tie blocks.

    With T = [Jv, -I] the augmented matrix is A_o (padded with zeros) plus
    k_v T^T T. Each row of T contributes the outer product of its entries, so
    the whole matrix is one triplet set, summed by a single ``tocsc``.
    """
    n_o = a_o.shape[0]
    if b_o.shape[0] != n_o:
        raise DimensionMismatchError("augment_dynamics: b length mismatch")
    if nodal.n_virtual == 0:
        return AugmentedDynamics(a_o, b_o.copy(), n_o, n_o, nodal)
    jv = nodal.jv
    nv3 = jv.shape[0]
    n = n_o + nv3
    # rows of T padded to a common width; padding repeats a column with value 0
    lens = np.diff(jv.indptr)
    k = np.arange(lens.max())
    pos = jv.indptr[:-1, None] + np.minimum(k, lens[:, None] - 1)
    t_cols = np.column_stack([jv.indices[pos], np.arange(n_o, n)])
    t_vals = np.column_stack([np.where(k < lens[:, None], jv.data[pos], 0.0), np.full(nv3, -1.0)])
    w = t_cols.shape[1]
    a_o = a_o.tocsc()
    rows = np.concatenate([a_o.indices, np.repeat(t_cols, w, axis=1).ravel()])
    cols = np.concatenate([np.repeat(np.arange(n_o), np.diff(a_o.indptr)), np.tile(t_cols, w).ravel()])
    vals = np.concatenate([a_o.data, (nodal.k_v * t_vals[:, :, None] * t_vals[:, None, :]).ravel()])
    a = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    return AugmentedDynamics(a, np.concatenate([b_o, np.zeros(nv3)]), n, n_o, nodal)


def contact_jacobian_matrix(aug: AugmentedDynamics) -> sp.csr_matrix:
    """Explicit sparse J_c, mostly for oracles and the baselines."""
    n_c = len(aug.contacts.contacts)
    rows, cols, vals = [], [], []
    for m in range(n_c):
        r = aug.frames[m]
        for a in range(3):
            for b in range(3):
                rows.append(3 * m + a)
                cols.append(aug.col_i[m] + b)
                vals.append(r[a, b])
                if aug.col_j[m] >= 0:
                    rows.append(3 * m + a)
                    cols.append(aug.col_j[m] + b)
                    vals.append(-r[a, b])
    return sp.csr_matrix((vals, (rows, cols)), shape=(3 * n_c, aug.n))


class ContactMap:
    """J_c and J_c^T of one augmented system, with the gather/scatter indices
    built once so that an iterative solver can apply them cheaply."""

    def __init__(self, aug: AugmentedDynamics):
        self.n = aug.n
        self.frames = aug.frames
        self.idx_i = aug.col_i[:, None] + np.arange(3)
        self.has_j = aug.col_j >= 0
        self.any_j = bool(self.has_j.any())
        self.idx_j = aug.col_j[self.has_j][:, None] + np.arange(3)

    def jc(self, v: np.ndarray) -> np.ndarray:
        """J_c v as (n_c, 3) contact-frame velocities."""
        rel = v[self.idx_i]
        if self.any_j:
            rel[self.has_j] -= v[self.idx_j]
        return np.einsum("mab,mb->ma", self.frames, rel)

    def jc_t(self, lam: np.ndarray, n: int | None = None) -> np.ndarray:
        """J_c^T lam over the augmented coordinates."""
        out = np.zeros(self.n if n is None else n)
        world = np.einsum("mba,mb->ma", self.frames, lam)
        np.add.at(out, self.idx_i, world)
        if self.any_j:
            np.subtract.at(out, self.idx_j, world[self.has_j])
        return out


def apply_jc(aug: AugmentedDynamics, v: np.ndarray) -> np.ndarray:
    """J_c v as (n_c, 3) contact-frame velocities."""
    return ContactMap(aug).jc(v)


def apply_jc_t(aug: AugmentedDynamics, lam: np.ndarray, n: int | None = None) -> np.ndarray:
    """J_c^T lam over the augmented coordinates."""
    return ContactMap(aug).jc_t(lam, n)
