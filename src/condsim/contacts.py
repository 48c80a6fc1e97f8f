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
    contacts: list
    n_virtual: int
    jv: sp.csr_matrix | None  # (3 n_v, n) map original velocity -> point velocity
    k_v: float


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
    contacts: "NodalContactSet" = None
    # per contact: (column offset i, column offset j or -1)
    col_i: np.ndarray = None
    col_j: np.ndarray = None
    frames: np.ndarray = None  # (n_c, 3, 3)


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
    t1 = np.cross(np.cross(n, e), n)
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(n, t1)
    return np.stack([n, t1, t2], axis=1)


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


def stabilization_term(depth: float, v_n_prev: float, params: StabilizationParams) -> float:
    """Penetration compensation plus restitution, in m/s.

    The Signorini row later enforces ``v_n + phi_n >= 0``, so a negative value
    demands a separating velocity.
    """
    phi = -(params.beta_err / params.dt) * depth
    if abs(v_n_prev) > params.v_rest_threshold:
        phi += params.e_rest * min(0.0, v_n_prev)
    return phi


def _slot_and_jv(raw_side, state, bodies, point, jv_rows, next_virtual, used):
    """Resolve one contact side to a node slot, creating a virtual node if needed.

    Diagonalization requires every node to carry at most one contact, so a
    second contact landing on an already-contacted original node is moved onto
    a fresh virtual node tied to it by the identity map.
    """
    if raw_side[0] == "node":
        slot = ("orig", raw_side[1])
        if slot not in used:
            used.add(slot)
            return slot, next_virtual
        jv_rows.append((next_virtual, raw_side[1], np.eye(3)))
        return ("virt", next_virtual), next_virtual + 1
    if raw_side[0] == "rigid":
        body = bodies.rigid[raw_side[1]]
        lever = point - state.q[body.q_offset : body.q_offset + 3]
        lx = np.array(
            [
                [0.0, -lever[2], lever[1]],
                [lever[2], 0.0, -lever[0]],
                [-lever[1], lever[0], 0.0],
            ]
        )
        jv_rows.append((next_virtual, body.v_offset, np.hstack([np.eye(3), -lx])))
        return ("virt", next_virtual), next_virtual + 1
    raise ValueError(f"cannot nodalize side {raw_side!r}")


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
    rigid surface points. Virtual nodes live for this step only."""
    stab = stab or StabilizationParams(dt=state.dt)
    n = state.v.shape[0]
    contacts = []
    jv_rows = []
    n_virtual = 0
    used: set = set()
    frames = contact_frames([rc.normal for rc in raw_contacts])
    for rc, frame in zip(raw_contacts, frames):
        slot_i, n_virtual = _slot_and_jv(rc.first, state, bodies, rc.point, jv_rows, n_virtual, used)
        if rc.second[0] == "static":
            kind, slot_j = "S", None
        else:
            kind = "D"
            slot_j, n_virtual = _slot_and_jv(rc.second, state, bodies, rc.point, jv_rows, n_virtual, used)
        v_n_prev = _normal_velocity(state, bodies, rc, frame)
        phi = stabilization_term(rc.depth, v_n_prev, stab)
        contacts.append(
            Contact(
                kind=kind,
                slot_i=slot_i,
                frame=frame,
                mu=mu,
                mu2=mu2,
                depth=rc.depth,
                phi_n=phi,
                slot_j=slot_j,
                key=(rc.first, rc.second),
            )
        )
    jv = None
    if n_virtual:
        rows, cols, vals = [], [], []
        for virt_idx, v_off, block in jv_rows:
            for r in range(3):
                for c in range(block.shape[1]):
                    rows.append(3 * virt_idx + r)
                    cols.append(v_off + c)
                    vals.append(block[r, c])
        jv = sp.csr_matrix((vals, (rows, cols)), shape=(3 * n_virtual, n))
    return NodalContactSet(contacts, n_virtual, jv, k_v)


def _side_velocity(state, bodies, side, point):
    if side[0] == "node":
        return state.v[side[1] : side[1] + 3]
    if side[0] == "rigid":
        body = bodies.rigid[side[1]]
        lever = point - state.q[body.q_offset : body.q_offset + 3]
        vlin = state.v[body.v_offset : body.v_offset + 3]
        omega = state.v[body.v_offset + 3 : body.v_offset + 6]
        return vlin + np.cross(omega, lever)
    return np.zeros(3)


def _normal_velocity(state, bodies, rc: RawContact, frame) -> float:
    v_rel = _side_velocity(state, bodies, rc.first, rc.point) - _side_velocity(
        state, bodies, rc.second, rc.point
    )
    return float(frame[0] @ v_rel)


def augment_dynamics(a_o: sp.csc_matrix, b_o: np.ndarray, nodal: NodalContactSet) -> AugmentedDynamics:
    """Append virtual-node coordinates and the viscous tie blocks."""
    n_o = a_o.shape[0]
    if b_o.shape[0] != n_o:
        raise DimensionMismatchError("augment_dynamics: b length mismatch")
    if nodal.n_virtual == 0:
        aug = AugmentedDynamics(a_o, b_o.copy(), n_o, n_o, nodal)
    else:
        kv = nodal.k_v
        jv = nodal.jv
        nv3 = 3 * nodal.n_virtual
        top_left = a_o + kv * (jv.T @ jv)
        a = sp.bmat(
            [
                [top_left, -kv * jv.T],
                [-kv * jv, kv * sp.identity(nv3, format="csr")],
            ],
            format="csc",
        )
        b = np.concatenate([b_o, np.zeros(nv3)])
        aug = AugmentedDynamics(a, b, n_o + nv3, n_o, nodal)

    n_c = len(nodal.contacts)
    col_i = np.zeros(n_c, dtype=int)
    col_j = np.full(n_c, -1, dtype=int)
    frames = np.zeros((n_c, 3, 3))
    for m, c in enumerate(nodal.contacts):
        col_i[m] = _slot_col(c.slot_i, n_o)
        if c.slot_j is not None:
            col_j[m] = _slot_col(c.slot_j, n_o)
        frames[m] = c.frame
    aug.col_i, aug.col_j, aug.frames = col_i, col_j, frames
    return aug


def _slot_col(slot, n_orig):
    if slot[0] == "orig":
        return slot[1]
    return n_orig + 3 * slot[1]


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
