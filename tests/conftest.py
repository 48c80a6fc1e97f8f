"""Shared fixtures, references and random-system generators for the test
suite."""

import os
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from condsim.contacts import AugmentedDynamics, ContactColumns, NodalContactSet, contact_frames
from condsim.dynamics import RigidBodies
from condsim.solver import step_matrix_frobenius
from condsim.sparse import Pattern, diagonal_positions

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

ALL_SCENARIOS = [
    "free_fall",
    "resting_particle",
    "particle_stack",
    "box_slide",
    "anisotropic_slide",
    "lattice_invertible",
    "lattice_drag",
]


# a unit quaternion that turns box_slide's cube 0.6 rad about the vertical,
# still on its four contacts
TURNED = np.array([np.cos(0.3), 0.0, 0.0, np.sin(0.3)])


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, name + ".json")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rigid_bodies(*bodies) -> RigidBodies:
    """A ``RigidBodies`` record of the bodies given as tuples (mass, q_off,
    v_off, inertia[, points[, contact radius]]), with no points and radius 0
    by default."""
    defaults = ((), 0.0)
    rows = [(*body, *defaults[len(body) - 4 :]) for body in bodies]
    points = [np.asarray(row[4], dtype=float).reshape(-1, 3) for row in rows]
    return RigidBodies(
        np.array([row[0] for row in rows], dtype=float),
        np.array([row[1] for row in rows], dtype=int),
        np.array([row[2] for row in rows], dtype=int),
        np.array([row[3] for row in rows], dtype=float).reshape(-1, 3, 3),
        np.concatenate([np.zeros((0, 3))] + points),
        np.repeat(np.arange(len(rows)), [p.shape[0] for p in points]),
        np.array([row[5] for row in rows], dtype=float),
    )


def per_body(rigid: RigidBodies) -> list:
    """The rows of a ``RigidBodies`` record as one namespace per body, with
    the fields the per-body references read."""
    return [
        SimpleNamespace(
            mass=float(rigid.mass[k]), q_offset=int(rigid.q_off[k]), v_offset=int(rigid.v_off[k]),
            inertia=rigid.inertia[k], contact_points=rigid.points[rigid.point_body == k],
            contact_radius=float(rigid.contact_radius[k]),
        )
        for k in range(rigid.mass.shape[0])
    ]


# The rigid-body kinematics one body at a time, as the library computed
# them before it held the bodies in one record: the references that the
# record's batched forms must match bit for bit.


def reference_rotation(quat: np.ndarray) -> np.ndarray:
    w, x, y, z = quat.tolist()
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def reference_world_inertia(body, q: np.ndarray) -> np.ndarray:
    """R I R^T, symmetrized so that its two triangles hold the same floats."""
    rot = reference_rotation(q[body.q_offset + 3 : body.q_offset + 7])
    m = rot @ body.inertia @ rot.T
    return 0.5 * (m + m.T)


def reference_rigid_mass(body, inertia: np.ndarray) -> np.ndarray:
    """6x6 mass block diag(m I, world inertia)."""
    block = np.zeros((6, 6))
    block[range(3), range(3)] = body.mass
    block[3:, 3:] = inertia
    return block


def reference_surface_points(state, rigid: RigidBodies) -> np.ndarray:
    """Every rigid surface point in world coordinates, body by body."""
    out = []
    for body in per_body(rigid):
        pos = state.q[body.q_offset : body.q_offset + 3]
        rot = reference_rotation(state.q[body.q_offset + 3 : body.q_offset + 7])
        out.append(pos + body.contact_points @ rot.T)
    return np.concatenate([np.zeros((0, 3))] + out)


def reference_detect(state, bodies, planes, spheres, margin: float) -> dict:
    """Contacts as ``detect_contacts`` orders and keys them, with the static
    primitives checked one at a time, each over every proxy, then every
    proxy pair, one at a time. ``planes`` are (point, normal) and
    ``spheres`` (center, radius) pairs. Returns ``DetectedContacts``' arrays
    by name."""
    rigid = bodies.rigid
    proxied = np.flatnonzero(bodies.node_radius > 0)
    centers = np.concatenate([state.q[bodies.q_triples[proxied]].reshape(-1, 3), reference_surface_points(state, rigid)])
    radii = np.concatenate([bodies.node_radius[proxied], rigid.contact_radius[rigid.point_body]])
    # per proxy, and -1 last for a static side
    v_off = np.concatenate([bodies.node_v[proxied], rigid.v_off[rigid.point_body], [-1]])
    q_off = np.concatenate([np.full(proxied.shape[0], -1), rigid.q_off[rigid.point_body], [-1]])
    body = np.concatenate([np.full(proxied.shape[0], -1), rigid.point_body]).tolist()
    n_prims, n_proxies = len(planes) + len(spheres), centers.shape[0]
    stride = n_prims + n_proxies
    signed, frames = [], []
    for point, normal in planes:
        frame = contact_frames(np.asarray(normal, dtype=float))[0]
        signed.append((centers - np.asarray(point, dtype=float)) @ frame[0] - radii)
        frames.append(np.broadcast_to(frame, (n_proxies, 3, 3)))
    for center, radius in spheres:
        d = centers - np.asarray(center, dtype=float)
        dist = np.linalg.norm(d, axis=1)
        apart = dist > 1e-12
        signed.append(np.where(apart, dist - radius - radii, np.inf))
        frames.append(contact_frames(d / np.where(apart, dist, 1.0)[:, None]))
    rows = []  # (key, signed distance, frame, point, first proxy, second proxy or -1)
    for e in range(n_proxies):
        for k in range(n_prims):
            if signed[k][e] < margin:
                frame = frames[k][e]
                rows.append((e * stride + k, signed[k][e], frame, centers[e] - radii[e] * frame[0], e, -1))
    for e in range(n_proxies):
        for f in range(e + 1, n_proxies):
            d = centers[e] - centers[f]
            dist = np.linalg.norm(d)
            sd = dist - radii[e] - radii[f]
            if sd < margin and dist > 1e-12 and (body[e] < 0 or body[e] != body[f]):
                normal = d / dist
                point = centers[f] + (radii[f] + 0.5 * sd) * normal
                rows.append((e * stride + n_prims + f, sd, contact_frames(normal)[0], point, e, f))
    sides = np.array([r[4:] for r in rows], dtype=int).reshape(-1, 2)
    return {
        "key": np.array([r[0] for r in rows], dtype=np.int64),
        "depth": np.array([max(0.0, -r[1]) + 0.0 for r in rows]),
        "frame": np.array([r[2] for r in rows]).reshape(-1, 3, 3),
        "point": np.array([r[3] for r in rows]).reshape(-1, 3),
        "v_off": v_off[sides],
        "q_off": q_off[sides],
    }


def reference_turn(quat: np.ndarray, rotvec: np.ndarray) -> np.ndarray:
    """The unit quaternion exp(rotvec) quat, (w, x, y, z), in array formulas."""
    angle = float(np.linalg.norm(rotvec))
    if angle < 1e-12:
        dq = np.concatenate([[1.0], 0.5 * rotvec])
    else:
        dq = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * (rotvec / angle)])
    aw, av, bw, bv = dq[0], dq[1:], quat[0], quat[1:]
    out = np.concatenate([[aw * bw - av @ bv], aw * bv + bw * av + np.cross(av, bv)])
    return out / np.linalg.norm(out)


def reference_kinetic_energy(state, bodies) -> float:
    """0.5 v^T M v: the nodes' sum, then body by body."""
    v = state.v[bodies.v_triples]
    total = 0.5 * float(bodies.node_mass @ np.einsum("ij,ij->i", v, v))
    for body in per_body(bodies.rigid):
        seg = state.v[body.v_offset : body.v_offset + 6]
        total += 0.5 * float(seg @ reference_rigid_mass(body, reference_world_inertia(body, state.q)) @ seg)
    return total


def resting_cubes(n: int, steps: int = 20) -> dict:
    """A scenario of ``n`` cubes (0.5 kg, 0.2 m edge, four bottom contact
    points) resting on a plane, 0.5 m apart on a square grid, for ``steps``
    steps of 0.01 s with k_v = 1e5."""
    side = int(np.ceil(np.sqrt(n)))
    corners = [[sx * 0.1, sy * 0.1, -0.1] for sy in (-1, 1) for sx in (-1, 1)]
    cubes = [
        {"type": "rigid", "mass": 0.5, "position": [0.5 * (k % side), 0.5 * (k // side), 0.1],
         "inertia": [0.5 * 0.2**2 / 6.0] * 3, "contact_points": corners}
        for k in range(n)
    ]
    return {
        "name": f"resting_cubes_{n}",
        "duration": steps * 0.01,
        "step_size": 0.01,
        "bodies": cubes,
        "geometry": {"planes": [{"point": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0]}]},
        "contact": {"mu": 0.5, "kv": 1e5},
    }


def skew(r):
    return np.array([[0.0, -r[2], r[1]], [r[2], 0.0, -r[0]], [-r[1], r[0], 0.0]])


def reference_nodalize(detected, state, stab=None):
    """Contact by contact: column offsets of both sides (-1 static), dense Jv,
    phi, and per virtual node its source's velocity offset, rigid flag and
    lever arm (zero for a node source). ``stab`` defaults to
    ``StabilizationParams()``."""
    from condsim.contacts import StabilizationParams

    stab = stab or StabilizationParams()
    n = state.v.shape[0]
    used, blocks, ties, cols, phi = set(), [], [], [], []

    def column(v_off, q_off, point):
        if v_off < 0:
            return -1
        if q_off < 0 and v_off not in used:
            used.add(v_off)
            return v_off
        if q_off < 0:
            blocks.append((v_off, np.eye(3)))
            ties.append((v_off, False, np.zeros(3)))
        else:
            lever = point - state.q[q_off : q_off + 3]
            blocks.append((v_off, np.hstack([np.eye(3), -skew(lever)])))
            ties.append((v_off, True, lever))
        return n + 3 * (len(blocks) - 1)

    def velocity(v_off, q_off, point):
        if v_off < 0:
            return np.zeros(3)
        v = state.v[v_off : v_off + 6]
        if q_off < 0:
            return v[:3]
        return v[:3] + np.cross(v[3:], point - state.q[q_off : q_off + 3])

    for point, frame, depth, v_off, q_off in zip(
        detected.point, detected.frame, detected.depth, detected.v_off.tolist(), detected.q_off.tolist()
    ):
        cols.append([column(v, q, point) for v, q in zip(v_off, q_off)])
        vel = [velocity(v, q, point) for v, q in zip(v_off, q_off)]
        v_n = frame[0] @ (vel[0] - vel[1])
        phi_n = -(stab.beta_err / state.dt) * depth
        if abs(v_n) > stab.v_rest_threshold:
            phi_n += stab.e_rest * min(0.0, v_n)
        phi.append(phi_n)
    jv = np.zeros((3 * len(blocks), n))
    for k, (off, block) in enumerate(blocks):
        jv[3 * k : 3 * k + 3, off : off + block.shape[1]] = block
    src = np.array([t[0] for t in ties], dtype=int)
    rigid = np.array([t[1] for t in ties], dtype=bool)
    lever = np.array([t[2] for t in ties]).reshape(-1, 3)
    return np.array(cols).reshape(-1, 2), jv, np.array(phi), (src, rigid, lever)


def random_spd(rng: np.random.Generator, n: int, density: float = 0.3) -> sp.csc_matrix:
    """Random sparse SPD matrix: B B^T + n I over a sprandn pattern."""
    b = sp.random(n, n, density=density, random_state=np.random.RandomState(int(rng.integers(2**31))))
    m = (b @ b.T) + n * sp.identity(n)
    return m.tocsc()


def contact_set(n: int, col_i=(), frames=(), mu=0.0, col_j=-1, phi=0.0) -> NodalContactSet:
    """Contacts on the particle nodes of an n-DOF system (none by default),
    with no virtual nodes: per contact a column offset, a frame (rows n, t1,
    t2), mu, the second side's column (-1 for a static primitive) and phi. A
    scalar applies to every contact, and mu2 is mu. A node that carries two
    contact sides raises ``InvalidMatrixError``."""
    col_i = np.asarray(col_i, dtype=int).reshape(-1)
    mu = np.full(col_i.shape, mu, dtype=float)
    return NodalContactSet(
        n,
        0.0,
        ContactColumns.build(col_i, np.full(col_i.shape, col_j, dtype=int)),
        frames=np.asarray(frames, dtype=float).reshape(-1, 3, 3),
        mu=mu,
        mu2=mu,
        phi=np.full(col_i.shape, phi, dtype=float),
    )


def random_contact_set(
    rng: np.random.Generator, n_nodes: int | None = None, n_contacts: int | None = None
) -> NodalContactSet:
    """Random nodalized contacts over particle nodes (no virtual nodes).

    Matching the nodalization output, every node carries at most one
    contact; D-contacts link two distinct nodes.
    """
    if n_nodes is None:
        n_nodes = int(rng.integers(4, 20))
    free = list(rng.permutation(n_nodes))
    if n_contacts is None:
        n_contacts = int(rng.integers(1, n_nodes))
    col_i, col_j, normals, mu = [], [], [], []
    while n_contacts > 0 and free:
        col_i.append(3 * free.pop())
        normals.append(rng.standard_normal(3) + np.array([0.0, 0.0, 1e-3]))
        col_j.append(3 * free.pop() if rng.random() < 0.5 and free else -1)
        mu.append(rng.uniform(0.1, 1.0))
        n_contacts -= 1
    return contact_set(3 * n_nodes, col_i, contact_frames(np.reshape(normals, (-1, 3))), mu, col_j)


def build_augmented(a: sp.csc_matrix, b: np.ndarray, nodal: NodalContactSet) -> AugmentedDynamics:
    """Wrap an already-assembled system and particle-node contacts."""
    n, diag_pos = a.shape[0], diagonal_positions(a.indices, a.indptr)
    return AugmentedDynamics(a, b.copy(), n, n, nodal, Pattern.build(a.indices, a.indptr, diag_pos))


def random_contact_augmentation(rng: np.random.Generator):
    """Random SPD system plus contacts plus the (n,) diagonal of its tied
    Frobenius step matrix."""
    nodal = random_contact_set(rng)
    n = nodal.n_orig
    a = random_spd(rng, n)
    b = rng.standard_normal(n)
    aug = build_augmented(a, b, nodal)
    w = step_matrix_frobenius(aug)
    return aug, w
