"""Dynamics assembly and integration tests with finite-difference oracles."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse
from scipy.spatial.transform import Rotation

from condsim.dynamics import (
    EPS_DAMPING_FLOOR,
    Bodies,
    DampingPolicy,
    Springs,
    SystemState,
    assemble_step,
    block_pattern,
    integrate,
    kinetic_energy,
    spring_damping,
    triples,
)
from condsim.errors import DegenerateConstraintError, DimensionMismatchError, InvalidMatrixError, InvalidStateError
from condsim.harness import Scenario, _lattice_edges, build_scene, external_force, load_scenario, validate_scenario

from conftest import (
    per_body,
    reference_rotation,
    reference_kinetic_energy,
    reference_nodalize,
    reference_rigid_mass,
    reference_surface_points,
    reference_turn,
    reference_world_inertia,
    rigid_bodies,
    scenario_path,
)

GRAVITY = np.array([0.0, 0.0, -9.81])
# component c of a symmetric 3x3 block is its c-th upper-triangle entry, row-major
COMPONENT = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def particles(masses, radius=0.0):
    """3-DOF point masses laid out back to back from offset 0."""
    off = 3 * np.arange(len(masses))
    return Bodies(off, off, np.asarray(masses, dtype=float), np.full(len(masses), radius), rigid_bodies())


def rigid_only(*bodies):
    """Rigid bodies given as ``rigid_bodies`` tuples, and no node."""
    none = np.zeros(0, dtype=int)
    return Bodies(none, none, np.zeros(0), np.zeros(0), rigid_bodies(*bodies))


def springs(pairs, stiffness, rest, damping=None):
    """Springs between back-to-back 3-DOF nodes given as (i, j) node pairs."""
    ends = 3 * np.asarray(pairs, dtype=int).reshape(-1, 2)
    m = ends.shape[0]
    return Springs(
        ends[:, 0], ends[:, 1], ends[:, 0], ends[:, 1],
        np.broadcast_to(np.asarray(stiffness, dtype=float), (m,)).copy(),
        np.broadcast_to(np.asarray(rest, dtype=float), (m,)).copy(),
        damping or DampingPolicy(),
    )


NO_SPRINGS = springs(np.zeros((0, 2)), 0.0, 0.0)


def spring_eval(s, q):
    """Oracle: errors (m,) and Jacobian rows (m, 6) over the stacked
    coordinates (node i, node j) of every spring, from its end positions."""
    d = q[triples(s.qi)] - q[triples(s.qj)]
    dist = np.linalg.norm(d, axis=1)
    u = d / dist[:, None]
    return dist - s.rest, np.hstack([u, -u])


def damping(s, q):
    """``spring_damping`` of every spring, given its length and unit
    direction (3, m) as ``assemble_step`` passes them."""
    d = q[triples(s.qi)] - q[triples(s.qj)]
    dist = np.linalg.norm(d, axis=1)
    return spring_damping(s, dist, (d / dist[:, None]).T)


def reference_damping(s, m, q):
    """Diagonal damping (6,) of spring m, densely: the constant policy's
    value, or the abs column sums of the geometric stiffness
    k e [[h, -h], [-h, h]], h = (I - u u^T) / |d|, plus the floor."""
    if s.damping.variant == "constant":
        return np.full(6, float(s.damping.value))
    d = q[s.qi[m] : s.qi[m] + 3] - q[s.qj[m] : s.qj[m] + 3]
    dist = np.linalg.norm(d)
    h = (np.eye(3) - np.outer(d, d) / dist**2) / dist
    geom = s.k[m] * (dist - s.rest[m]) * np.kron([[1.0, -1.0], [-1.0, 1.0]], h)
    return np.abs(geom).sum(axis=0) + EPS_DAMPING_FLOOR


def row(s, m):
    """Spring m alone."""
    sl = slice(m, m + 1)
    return Springs(s.qi[sl], s.qj[sl], s.vi[sl], s.vj[sl], s.k[sl], s.rest[sl], s.damping)


def local_coords(s, m):
    """The 6 coordinates (node i, node j) of spring m."""
    return np.concatenate([np.arange(s.qi[m], s.qi[m] + 3), np.arange(s.qj[m], s.qj[m] + 3)])


def fd_jacobian(s, q, h=1e-6):
    """Central-difference Jacobian (m, 6) of every spring error, spring by spring."""
    jac = np.zeros((s.k.shape[0], 6))
    for m in range(s.k.shape[0]):
        one = row(s, m)
        for k, col in enumerate(local_coords(s, m)):
            qp, qm = q.copy(), q.copy()
            qp[col] += h
            qm[col] -= h
            jac[m, k] = (spring_eval(one, qp)[0][0] - spring_eval(one, qm)[0][0]) / (2 * h)
    return jac


def random_network(rng, n_p, n_s, min_dist):
    """Random positions and random spring pairs no shorter than ``min_dist``."""
    q = rng.uniform(-1.0, 1.0, 3 * n_p)
    pairs = []
    while len(pairs) < n_s:
        i, j = rng.choice(n_p, 2, replace=False)
        if np.linalg.norm(q[3 * i : 3 * i + 3] - q[3 * j : 3 * j + 3]) >= min_dist:
            pairs.append((i, j))
    return q, np.array(pairs)


class TestConstraintEval:
    def test_stretched_spring_example(self):
        s = springs([(0, 1)], 100.0, 1.0)
        q = np.array([0.0, 0.0, 0.0, 2.0, 0.0, 0.0])
        e, j = spring_eval(s, q)
        assert np.allclose(e, [1.0])
        assert np.allclose(j, [[-1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])

    def test_rest_length_zero_error(self):
        s = springs([(0, 1)], 100.0, 2.0)
        q = np.array([0.0, 0.0, 0.0, 2.0, 0.0, 0.0])
        e, _ = spring_eval(s, q)
        assert np.allclose(e, [0.0])

    def test_jacobian_matches_finite_differences(self, rng):
        # 100 springs on a shared-node network, checked in one batched call
        q, pairs = random_network(rng, 30, 100, 1e-2)
        s = springs(pairs, 50.0, 0.7)
        _, j = spring_eval(s, q)
        assert np.allclose(j, fd_jacobian(s, q), atol=1e-6)

    def test_coincident_endpoints(self):
        s = springs([(0, 1)], 100.0, 1.0)
        state = SystemState(np.zeros(6), np.zeros(6), dt=0.01)
        with pytest.raises(DegenerateConstraintError):
            assemble_step(state, particles([1.0, 1.0]), s)


class TestDampingMatrix:
    def test_constant_policy(self):
        # assemble_step adds the constant value itself, (t/2) 5 on the diagonal
        s = springs([(0, 1)], 10.0, 1.0, DampingPolicy("constant", 5.0))
        q = np.array([0.0, 0.0, 0.0, 2.0, 0.0, 0.0])
        a = assemble_step(SystemState(q, np.zeros(6), dt=0.01), particles([1.0, 1.0]), s).a.toarray()
        _, j = spring_eval(s, q)
        assert np.allclose(a, 200.0 * np.eye(6) + 0.005 * (10.0 * np.outer(j[0], j[0]) + 5.0 * np.eye(6)))
        with pytest.raises(ValueError, match="unknown damping variant 'constant'"):
            damping(s, q)

    def test_unknown_variant_rejected(self):
        s = springs([(0, 1)], 10.0, 1.0, DampingPolicy("viscous", 5.0))
        q = np.array([0.0, 0.0, 0.0, 2.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="unknown damping variant 'viscous'"):
            assemble_step(SystemState(q, np.zeros(6), dt=0.01), particles([1.0, 1.0]), s)

    def test_geometric_at_rest_is_floor(self):
        pol = DampingPolicy("geometric-projection")
        s = springs([(0, 1)], 10.0, 2.0, pol)
        q = np.array([0.0, 0.0, 0.0, 2.0, 0.0, 0.0])
        assert np.allclose(damping(s, q), np.full((1, 6), EPS_DAMPING_FLOOR))

    def test_geometric_vs_finite_difference_oracle(self, rng):
        # geometric stiffness G = d(Je^T K e)/dq - Je^T K Je; diagonal entries
        # of the surrogate are abs column sums of G plus the floor
        pol = DampingPolicy("geometric-projection")
        q, pairs = random_network(rng, 8, 10, 0.1)
        s = springs(pairs, 40.0, 0.5, pol)
        h = 1e-6
        got = damping(s, q)
        for m in range(len(pairs)):
            one = row(s, m)

            def force(qv):
                e, j = spring_eval(one, qv)
                return one.k[0] * j[0] * e[0]

            grad = np.zeros((6, 6))
            for k, col in enumerate(local_coords(s, m)):
                qp, qm = q.copy(), q.copy()
                qp[col] += h
                qm[col] -= h
                grad[:, k] = (force(qp) - force(qm)) / (2 * h)
            _, j = spring_eval(one, q)
            geom = grad - one.k[0] * np.outer(j[0], j[0])
            ref = np.abs(geom).sum(axis=0) + EPS_DAMPING_FLOOR
            assert np.allclose(got[m], ref, atol=1e-5)


class TestAssembleStep:
    def test_free_particle(self):
        bodies = particles([1.0])
        state = SystemState(np.zeros(3), np.zeros(3), dt=0.01)
        asm = assemble_step(state, bodies, NO_SPRINGS, f_ext=1.0 * GRAVITY)
        assert np.allclose(asm.a.toarray(), 200.0 * np.eye(3))
        assert np.allclose(asm.b, [0.0, 0.0, -9.81])
        v_hat = np.linalg.solve(asm.a.toarray(), asm.b)
        assert np.allclose(v_hat, [0.0, 0.0, -0.04905])
        nxt = integrate(state, v_hat, bodies)
        assert np.isclose(nxt.v[2], -0.0981)

    def test_spring_at_rest_has_stiffness_but_no_force(self):
        bodies = particles([1.0, 1.0])
        s = springs([(0, 1)], 100.0, 1.0)
        q = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        state = SystemState(q, np.zeros(6), dt=0.01)
        asm = assemble_step(state, bodies, s)
        _, j = spring_eval(s, q)
        expected = 200.0 * np.eye(6) + 0.5 * 0.01 * 100.0 * np.outer(j[0], j[0])
        assert np.allclose(asm.a.toarray(), expected)
        assert np.allclose(asm.b, np.zeros(6))

    def test_random_network_vs_fd_assembly_oracle(self, rng):
        n_p = 20
        masses = rng.uniform(0.5, 2.0, n_p)
        bodies = particles(masses)
        q, pairs = random_network(rng, n_p, 30, 0.0)
        v = rng.standard_normal(3 * n_p)
        s = springs(pairs, rng.uniform(10.0, 100.0, 30), rng.uniform(0.2, 1.0, 30))
        state = SystemState(q, v, dt=0.01)
        asm = assemble_step(state, bodies, s)

        # dense oracle: (2/t) M + (t/2) sum_k K J^T J with J from finite
        # differences; b = (2/t) M v - sum_k K J^T e
        dense = np.diag((2.0 / 0.01) * np.repeat(masses, 3))
        b = (2.0 / 0.01) * np.repeat(masses, 3) * v
        jacs = fd_jacobian(s, q)
        for m, (i, j) in enumerate(pairs):
            idx = local_coords(s, m)
            dense[np.ix_(idx, idx)] += 0.5 * 0.01 * s.k[m] * np.outer(jacs[m], jacs[m])
            e = np.linalg.norm(q[3 * i : 3 * i + 3] - q[3 * j : 3 * j + 3]) - s.rest[m]
            b[idx] -= s.k[m] * jacs[m] * e
        scale = np.abs(dense).max()
        assert np.allclose(asm.a.toarray(), dense, atol=1e-5 * scale)
        assert np.allclose(asm.b, b, atol=1e-5 * np.abs(b).max())

    def test_assembled_matrix_is_spd(self, rng):
        n_p = 8
        bodies = particles(np.ones(n_p))
        for _ in range(5):
            q = rng.uniform(-1.0, 1.0, 3 * n_p)
            pairs = [rng.choice(n_p, 2, replace=False) for _ in range(12)]
            s = springs(pairs, rng.uniform(10.0, 500.0, 12), rng.uniform(0.2, 1.0, 12))
            state = SystemState(q, np.zeros(3 * n_p), dt=0.01)
            asm = assemble_step(state, bodies, s)
            assert np.linalg.eigvalsh(asm.a.toarray()).min() > 0.0

    def test_gyroscopic_term(self):
        inertia = np.diag([0.1, 0.2, 0.3])
        bodies = rigid_only((2.0, 0, 0, inertia))
        q = np.concatenate([np.zeros(3), [1.0, 0.0, 0.0, 0.0]])
        omega = np.array([1.0, 2.0, 3.0])
        state = SystemState(q, np.concatenate([np.zeros(3), omega]), dt=0.01)
        asm = assemble_step(state, bodies, NO_SPRINGS)
        iw = reference_world_inertia(per_body(bodies.rigid)[0], q)
        expected = (2.0 / 0.01) * iw @ omega - np.cross(omega, iw @ omega)
        assert np.allclose(asm.b[3:], expected)

    def test_rejects_non_finite_state(self):
        state = SystemState(np.array([np.nan, 0.0, 0.0]), np.zeros(3), dt=0.01)
        with pytest.raises(InvalidStateError):
            assemble_step(state, particles([1.0]), NO_SPRINGS)


def dense_reference(state, bodies, s, f_ext=None):
    """A and b built densely term by term: node and rigid mass blocks, and
    per spring (t/2)(k J^T J + diag(damping)) from ``spring_eval`` and
    ``reference_damping`` of that spring alone."""
    t, q, v = state.dt, state.q, state.v
    n = v.shape[0]
    mass = np.zeros((n, n))
    for off, m in zip(bodies.node_v, bodies.node_mass):
        mass[off : off + 3, off : off + 3] = m * np.eye(3)
    b = np.zeros(n) if f_ext is None else f_ext.copy()
    for body in per_body(bodies.rigid):
        w, x, y, z = q[body.q_offset + 3 : body.q_offset + 7]
        rot = Rotation.from_quat([x, y, z, w]).as_matrix()
        iw = rot @ body.inertia @ rot.T
        off = body.v_offset
        mass[off : off + 3, off : off + 3] = body.mass * np.eye(3)
        mass[off + 3 : off + 6, off + 3 : off + 6] = iw
        omega = v[off + 3 : off + 6]
        b[off + 3 : off + 6] -= np.cross(omega, iw @ omega)
    a = (2.0 / t) * mass
    b += (2.0 / t) * mass @ v
    for m in range(s.k.shape[0]):
        one = row(s, m)
        e, jac = spring_eval(one, q)
        idx = np.r_[s.vi[m] : s.vi[m] + 3, s.vj[m] : s.vj[m] + 3]
        a[np.ix_(idx, idx)] += 0.5 * t * (s.k[m] * np.outer(jac[0], jac[0]) + np.diag(reference_damping(s, m, q)))
        b[idx] -= s.k[m] * jac[0] * e[0]
    return a, b


def touched_blocks(bodies, s):
    """Distinct (row, column) 3x3 blocks that some mass or spring term writes."""
    blocks = {(o // 3, o // 3) for o in bodies.node_v.tolist()}
    for vo in bodies.rigid.v_off.tolist():
        c = vo // 3
        blocks |= {(c + a, c + b) for a in (0, 1) for b in (0, 1)}
    for i, j in zip(s.vi.tolist(), s.vj.tolist()):
        blocks |= {(i // 3, i // 3), (j // 3, j // 3), (i // 3, j // 3), (j // 3, i // 3)}
    return blocks


def random_layout(rng):
    """Particles and rigid bodies in random order, and springs between random
    translational blocks (particles and rigid bodies' linear blocks), with
    some node pairs repeated and some reversed; a random state on it."""
    kinds = rng.permutation(["node"] * rng.integers(1, 7) + ["rigid"] * rng.integers(0, 4))
    q_off = np.cumsum([0] + [3 if k == "node" else 7 for k in kinds])
    v_off = np.cumsum([0] + [3 if k == "node" else 6 for k in kinds])
    node = np.array([k == "node" for k in kinds])
    rigid = [
        (rng.uniform(0.5, 2.0), int(q), int(v), np.diag(rng.uniform(0.1, 0.3, 3)))
        for q, v in zip(q_off[:-1][~node], v_off[:-1][~node])
    ]
    n_nodes = int(node.sum())
    bodies = Bodies(
        q_off[:-1][node], v_off[:-1][node], rng.uniform(0.5, 2.0, n_nodes), np.zeros(n_nodes), rigid_bodies(*rigid)
    )
    ends = np.arange(len(kinds))
    pairs = [rng.choice(ends, 2, replace=False) for _ in range(rng.integers(0, 10) if len(kinds) > 1 else 0)]
    pairs += [pairs[k][::-1] for k in rng.integers(0, len(pairs), 2)] if pairs else []  # reversed
    pairs += [pairs[k] for k in rng.integers(0, len(pairs), 2)] if pairs else []  # repeated
    pairs = np.array(pairs, dtype=int).reshape(-1, 2)
    m = pairs.shape[0]
    variant = ["constant", "geometric-projection"][rng.integers(2)]
    s = Springs(
        q_off[pairs[:, 0]], q_off[pairs[:, 1]], v_off[pairs[:, 0]], v_off[pairs[:, 1]],
        rng.uniform(10.0, 100.0, m), rng.uniform(0.2, 1.0, m), DampingPolicy(variant, rng.uniform(0.0, 1.0)),
    )
    q = rng.uniform(-1.0, 1.0, q_off[-1])
    for qo in bodies.rigid.q_off.tolist():
        q[qo + 3 : qo + 7] /= np.linalg.norm(q[qo + 3 : qo + 7])
    return SystemState(q, rng.standard_normal(v_off[-1]), dt=0.01), bodies, s


class TestBlockAssembly:
    """A summed as 3x3 blocks into a pattern cached on the Springs, against
    the dense term-by-term reference."""

    @staticmethod
    def check(asm, state, bodies, s, f_ext=None):
        a_ref, b_ref = dense_reference(state, bodies, s, f_ext)
        a = asm.a
        assert np.allclose(a.toarray(), a_ref, rtol=0.0, atol=1e-12 * np.abs(a_ref).max())
        assert np.allclose(asm.b, b_ref, rtol=0.0, atol=1e-12 * np.abs(b_ref).max())
        assert a.nnz == 9 * len(touched_blocks(bodies, s))
        # the pattern is the canonical CSC (sorted, no duplicates) of the
        # touched blocks
        n, p = a.shape[0], s.pattern
        mask = np.zeros((n // 3, n // 3))
        mask[tuple(np.array(sorted(touched_blocks(bodies, s))).T)] = 1.0
        canonical = scipy.sparse.csc_matrix(np.kron(mask, np.ones((3, 3))))
        assert np.array_equal(p.csc.indices, canonical.indices) and np.array_equal(p.csc.indptr, canonical.indptr)
        # with distinct ids in vals, entry (r, s) of every block reads its
        # block's component (min(r, s), max(r, s)): a diagonal block its own
        # sums, a node pair's two blocks one pair's sums, each spring its pair's
        nb, n_pairs = n // 3, p.n_pairs
        ids = np.arange(6 * (nb + n_pairs))[p.gather]
        rows, cols = p.csc.indices, np.repeat(np.arange(n), np.diff(p.csc.indptr))
        comp = COMPONENT[rows % 3, cols % 3]
        bi, bj = rows // 3, cols // 3
        diag = bi == bj
        assert np.array_equal(ids[diag], comp[diag] * nb + bi[diag])
        c, pair = np.divmod(ids[~diag] - 6 * nb, max(n_pairs, 1))
        assert np.array_equal(c, comp[~diag])
        keys = (np.minimum(bi, bj) * nb + np.maximum(bi, bj))[~diag]
        key_pair = set(zip(keys.tolist(), pair.tolist()))
        assert len(key_pair) == len(dict(key_pair)) == len(set(pair.tolist())) == n_pairs
        ends = np.minimum(s.vi, s.vj) // 3 * nb + np.maximum(s.vi, s.vj) // 3
        assert [dict(key_pair)[e] for e in ends.tolist()] == p.pair.tolist()

    def test_random_layouts_vs_dense_reference(self, rng):
        for _ in range(40):
            state, bodies, s = random_layout(rng)
            self.check(assemble_step(state, bodies, s), state, bodies, s)

    def test_mixed_scene_vs_dense_reference(self, rng):
        # particles at velocity offsets 0, 3, 12, 15 and 18 around a rigid
        # body at 6; node 4 has no spring, so its block holds only its mass
        node_v = np.array([0, 3, 12, 15, 18])
        bodies = Bodies(
            node_v + (node_v > 6), node_v, rng.uniform(0.5, 2.0, 5), np.zeros(5),
            rigid_bodies((1.5, 6, 6, np.diag([0.1, 0.2, 0.3]))),
        )
        q = rng.uniform(-1.0, 1.0, 22)
        q[9:13] /= np.linalg.norm(q[9:13])
        state = SystemState(q, rng.standard_normal(21), dt=0.01)
        # (0, 1) twice and (1, 2) reversed as (2, 1) sum into shared blocks
        pairs = [(0, 1), (1, 2), (2, 3), (0, 1), (2, 1)]
        ends = np.array([[bodies.node_v[i], bodies.node_v[j]] for i, j in pairs])
        qends = np.array([[bodies.node_q[i], bodies.node_q[j]] for i, j in pairs])
        s = Springs(
            qends[:, 0], qends[:, 1], ends[:, 0], ends[:, 1],
            rng.uniform(10.0, 100.0, 5), rng.uniform(0.2, 1.0, 5), DampingPolicy("geometric-projection"),
        )
        f_ext = rng.standard_normal(21)
        self.check(assemble_step(state, bodies, s, f_ext), state, bodies, s, f_ext)
        assert len(touched_blocks(bodies, s)) == 5 + 4 + 6

    def test_cached_pattern_follows_layout(self, rng):
        # one Springs, first between the nodes at velocity offsets 0 and 3,
        # under other bodies (other n, node or rigid offsets) builds a new
        # pattern; springs with other ends (velocity or coordinate offsets),
        # made with dataclasses.replace, build their own; a second step on
        # one layout keeps it
        s = springs([(0, 1)], 50.0, 0.5, DampingPolicy("constant", 0.7))
        two_nodes = np.array([0, 3])
        layouts = [
            particles([1.0, 2.0]),
            Bodies(two_nodes, two_nodes, np.ones(2), np.zeros(2), rigid_bodies((2.0, 6, 6, np.diag([0.1, 0.2, 0.3])))),
            particles([1.0, 2.0, 3.0, 4.0]),
            particles([1.0, 2.0, 3.0, 4.0]),
            particles([1.0, 2.0, 3.0, 4.0]),
        ]
        patterns = []
        for k, bodies in enumerate(layouts):
            if k == 3:
                s = dataclasses.replace(s, qj=np.array([9]), vj=np.array([9]))
            if k == 4:
                s = dataclasses.replace(s, qj=np.array([6]))
            n = 3 * len(bodies.node_v) + 6 * bodies.rigid.mass.shape[0]
            q = rng.uniform(-1.0, 1.0, n + bodies.rigid.mass.shape[0])
            for qo in bodies.rigid.q_off.tolist():
                q[qo + 3 : qo + 7] = [1.0, 0.0, 0.0, 0.0]
            state = SystemState(q, rng.standard_normal(n), dt=0.01)
            self.check(assemble_step(state, bodies, s), state, bodies, s)
            patterns.append(s.pattern)
            asm = assemble_step(state, bodies, s)
            assert s.pattern is patterns[-1] and np.shares_memory(asm.a.indices, s.pattern.csc.indices)
        assert len({id(p) for p in patterns}) == len(layouts)

    def test_pattern_follows_edits_of_the_offsets(self, rng):
        # the springs and bodies hold read-only copies of their offsets: an
        # edit in place raises, and an edit of the array passed in never
        # reaches them; records made with dataclasses.replace build their
        # own pattern, even with the same offsets
        bodies = particles([1.0, 2.0, 3.0])
        vi = np.array([0, 3])
        s = Springs(np.array([0, 3]), np.array([3, 6]), vi, np.array([3, 6]), np.full(2, 50.0), np.full(2, 0.5))
        state = SystemState(rng.uniform(-1.0, 1.0, 9), rng.standard_normal(9), dt=0.01)
        self.check(assemble_step(state, bodies, s), state, bodies, s)
        pattern = s.pattern
        for offsets in (s.qi, s.qj, s.vi, s.vj, bodies.node_v):
            with pytest.raises(ValueError, match="read-only"):
                offsets[0] = 3
        vi[0] = 6
        assert s.vi.tolist() == [0, 3]
        self.check(assemble_step(state, bodies, s), state, bodies, s)
        assert s.pattern is pattern
        patterns = [pattern]
        for edit in (
            lambda: (dataclasses.replace(s, vi=s.vi.copy()), bodies),
            lambda: (s, dataclasses.replace(bodies, node_v=bodies.node_v.copy())),
            lambda: (dataclasses.replace(s, qj=np.array([6, 6]), vj=np.array([6, 6])), bodies),
        ):
            s, bodies = edit()
            self.check(assemble_step(state, bodies, s), state, bodies, s)
            assert all(s.pattern is not p for p in patterns)
            patterns.append(s.pattern)

    def test_steady_step_compares_no_offsets(self, monkeypatch):
        # a step on a known layout reads no offset array: the lattice's
        # second step makes no full-array comparison, and records with
        # equal copies of the offsets build their own pattern
        scene = build_scene(load_scenario(scenario_path("lattice_drag")))
        state, bodies, s = scene.state, scene.bodies, scene.constraints
        first = assemble_step(state, bodies, s)
        pattern = s.pattern

        def compared(*args, **kwargs):
            raise AssertionError("a steady step compared arrays")

        monkeypatch.setattr(np, "array_equal", compared)
        monkeypatch.setattr(np, "array_equiv", compared)
        second = assemble_step(state, bodies, s)
        assert s.pattern is pattern and np.array_equal.__name__ == "compared"
        assert (second.data == first.data).all()
        monkeypatch.undo()
        assert assemble_step(state, bodies, dataclasses.replace(s, vj=s.vj.copy())).pattern is not pattern
        assert assemble_step(state, dataclasses.replace(bodies, node_v=bodies.node_v.copy()), s).pattern is not pattern

    def test_mirrored_blocks_are_bitwise_equal(self, rng):
        # three springs on one node pair in mixed orientation: (i, j) and
        # (j, i) must still read the same sums, so A == A^T exactly
        for _ in range(200):
            s = springs(
                [(0, 1), (1, 0), (0, 1), (1, 2)], rng.uniform(10.0, 100.0, 4), rng.uniform(0.2, 1.0, 4),
                DampingPolicy("constant", 0.3),
            )
            state = SystemState(rng.uniform(-1.0, 1.0, 9), rng.standard_normal(9), dt=0.01)
            a = assemble_step(state, particles(rng.uniform(0.5, 2.0, 3)), s).a.toarray()
            assert np.array_equal(a, a.T)

    def test_lattice_is_bitwise_symmetric(self):
        scene = build_scene(load_scenario(scenario_path("lattice_drag")))
        a = assemble_step(scene.state, scene.bodies, scene.constraints).a
        assert (a != a.T).nnz == 0

    def test_turned_rigid_body_is_bitwise_symmetric(self):
        # the world inertia R I R^T of a turned cube is symmetrized once, so
        # its two triangles read the same floats
        scene = build_scene(load_scenario(scenario_path("box_slide")))
        quat = np.array([0.9, 0.1, -0.3, 0.2])
        state = dataclasses.replace(scene.state, q=np.concatenate([scene.state.q[:3], quat / np.linalg.norm(quat)]))
        a = assemble_step(state, scene.bodies, scene.constraints).a
        assert (a != a.T).nnz == 0

    def test_pattern_holds_nothing_longer_than_nnz(self):
        # the step gathers A's data from per-block sums: no cached map is as
        # long as the 9 entries of every spring's four blocks
        scene = build_scene(load_scenario(scenario_path("lattice_drag")))
        s = scene.constraints
        assemble_step(scene.state, scene.bodies, s)
        nnz = s.pattern.csc.indices.shape[0]
        for record in (s.pattern, s.pattern.csc):
            arrays = {k: v for k, v in vars(record).items() if isinstance(v, np.ndarray)}
            assert {k for k, v in arrays.items() if v.size > nnz} == set()

    @pytest.mark.parametrize("vi, vj", [(3, 3), (0, 9)])
    def test_spring_must_join_two_translational_blocks(self, vi, vj):
        # one node's block to itself, or a node to a rigid body's rotation
        bodies = Bodies(np.array([0, 3]), np.array([0, 3]), np.ones(2), np.zeros(2), rigid_bodies((1.0, 6, 6, np.eye(3))))
        s = Springs(np.array([0]), np.array([3]), np.array([vi]), np.array([vj]), np.ones(1), np.ones(1))
        q = np.concatenate([[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            assemble_step(SystemState(q, np.zeros(12)), bodies, s)

    def test_velocity_offset_outside_the_state_is_named(self):
        # spring end j at offset 6 of a two-particle, 6-DOF scene
        s = Springs(np.array([0]), np.array([3]), np.array([0]), np.array([6]), np.ones(1), np.ones(1))
        q = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatchError, match="offset 6 lies outside the 6-DOF state"):
            assemble_step(SystemState(q, np.zeros(6)), particles([1.0, 1.0]), s)


    def test_pattern_caches_the_diagonal_positions(self, rng):
        bodies = particles([1.0, 2.0, 3.0])
        s = springs([(0, 1), (1, 2)], 100.0, 1.0)
        state = SystemState(rng.standard_normal(9), rng.standard_normal(9))
        asm = assemble_step(state, bodies, s)
        assert np.array_equal(asm.data[asm.pattern.csc.diag_pos], asm.a.diagonal())

    def test_uncovered_dof_rejected(self, rng):
        # DOF 3-5 carry no node, rigid body or spring: an empty row of A,
        # which no step matrix can scale
        bodies = Bodies(np.array([0]), np.array([0]), np.ones(1), np.zeros(1), rigid_bodies())
        state = SystemState(rng.standard_normal(6), rng.standard_normal(6))
        with pytest.raises(InvalidMatrixError, match="column 3 stores no diagonal entry"):
            assemble_step(state, bodies, springs(np.zeros((0, 2)), 0.0, 0.0))


def six_row_assembly(state, bodies, s, f_ext=None):
    """A's data and b as ``assemble_step`` computed them before it summed the
    components one at a time: every node-diagonal term's six components in
    one (6, n_nodes + 2 n_rigid + 2 m) array, one ``np.bincount`` per row,
    and the springs' ends read through one (2, m, 3) copy of their
    coordinates. It reads the index arrays of the pattern on ``s``."""
    t, q, v = state.dt, state.q, state.v
    n = v.shape[0]
    b = np.zeros(n)
    if f_ext is not None:
        b += f_ext
    p = block_pattern(n, bodies, s)
    r_idx, s_idx = np.triu_indices(3)
    on_diag = np.flatnonzero(r_idx == s_idx)
    quarters = 6 * (r_idx[:, None] + [0, 3]) + s_idx[:, None] + [0, 3]
    n_nodes, n_rigid, m = bodies.node_v.shape[0], bodies.rigid.mass.shape[0], s.k.shape[0]
    diag = np.empty((6, n_nodes + 2 * n_rigid + 2 * m))
    node_idx = triples(bodies.node_v)
    coef = (2.0 / t) * bodies.node_mass
    b[node_idx] += coef[:, None] * v[node_idx]
    diag[:, :n_nodes] = 0.0
    diag[on_diag, :n_nodes] = coef
    for k, body in enumerate(per_body(bodies.rigid)):
        vo = body.v_offset
        inertia = reference_world_inertia(body, q)
        block = (2.0 / t) * reference_rigid_mass(body, inertia)
        diag[:, n_nodes + 2 * k : n_nodes + 2 * k + 2] = block.take(quarters)
        b[vo : vo + 6] += block @ v[vo : vo + 6]
        omega = v[vo + 3 : vo + 6]
        b[vo + 3 : vo + 6] -= np.cross(omega, inertia @ omega)
    if m:
        ends = q[p.coords.transpose(0, 2, 1)]
        d = ends[0] - ends[1]
        dist = np.linalg.norm(d, axis=1)
        u = d.T / dist
        ii, jj = diag[:, n_nodes + 2 * n_rigid :].reshape(6, 2, m).transpose(1, 0, 2)
        for c in range(6):
            np.multiply(u[r_idx[c]], u[s_idx[c]], out=ii[c])
        ii *= s.k
        pair_sums = [np.bincount(p.pair, (-0.5 * t) * w, minlength=p.n_pairs) for w in ii]
        jj[:] = ii
        if s.damping.variant == "constant":
            damp = [float(s.damping.value)] * 6
        else:
            damp = spring_damping(s, dist, u).T
        for r, c in enumerate(on_diag):
            ii[c] += damp[r]
            jj[c] += damp[3 + r]
        ii *= 0.5 * t
        jj *= 0.5 * t
        spring_ends = p.diag_block[n_nodes + 2 * n_rigid :]
        stretch = dist - s.rest
        for r in range(3):
            force = (s.k * u[r]) * stretch
            b[r::3] -= np.bincount(spring_ends, np.concatenate([force, -force]), minlength=n // 3)
    else:
        pair_sums = [np.zeros(6 * p.n_pairs)]
    vals = np.concatenate([np.bincount(p.diag_block, w, minlength=n // 3) for w in diag] + pair_sums)
    return np.take(vals, p.gather), b


def assert_same_bits(x, y):
    assert x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


class TestComponentSums:
    """With springs, ``assemble_step`` sums the six components one at a time
    through one weight vector, and takes the spring vectors without a copy
    of their ends; A's data and b keep the bits of ``six_row_assembly``.
    ``TestBlockAssembly`` checks only to 1e-12 against the dense reference."""

    @staticmethod
    def check(state, bodies, s, f_ext):
        asm = assemble_step(state, bodies, s, f_ext)
        data, b = six_row_assembly(state, bodies, s, f_ext)
        assert_same_bits(asm.data, data)
        assert_same_bits(asm.b, b)

    def test_random_layouts_with_springs_under_both_damping_variants(self, rng):
        layouts = 0
        while layouts < 30:
            state, bodies, s = random_layout(rng)
            if not s.k.shape[0]:
                continue
            layouts += 1
            f_ext = rng.standard_normal(state.v.shape[0])
            for variant in ("constant", "geometric-projection"):
                s = dataclasses.replace(s, damping=DampingPolicy(variant, rng.uniform(0.0, 1.0)))
                self.check(state, bodies, s, f_ext)

    def test_lattice(self):
        scene = build_scene(load_scenario(scenario_path("lattice_drag")))
        state, f_ext = scene.state, external_force(scene, 0.0)
        for variant in ("constant", "geometric-projection"):
            springs = dataclasses.replace(scene.constraints, damping=DampingPolicy(variant, 2.0))
            self.check(state, scene.bodies, springs, f_ext)

    def test_spring_free_rigid_scenes(self, rng):
        layouts = 0
        while layouts < 20:
            state, bodies, _ = random_layout(rng)
            if not bodies.rigid.mass.size:
                continue
            layouts += 1
            self.check(state, bodies, springs(np.zeros((0, 2)), 0.0, 0.0), rng.standard_normal(state.v.shape[0]))


MIXED = {
    "step_size": 0.01,
    "duration": 0.01,
    "gravity": [0.0, 0.0, -9.81],
    "bodies": [
        {"type": "particle", "mass": 1.5, "position": [0.0, 0.0, 1.0],
         "velocity": [0.1, -0.2, 0.3], "radius": 0.05},
        {"type": "rigid", "mass": 2.0, "position": [1.0, 0.5, 0.3],
         "velocity": [0.4, 0.0, -0.1], "angular_velocity": [0.5, -1.0, 2.0],
         "orientation": [0.9, 0.1, -0.3, 0.2], "inertia": [0.1, 0.2, 0.3],
         "contact_points": [[0.1, 0.1, -0.1], [-0.1, 0.1, -0.1]]},
        {"type": "particle", "mass": 0.5, "position": [0.7, 0.2, 1.1], "velocity": [0.0, 0.3, 0.0]},
        {"type": "particle", "mass": 0.8, "position": [0.1, 0.9, 1.4], "velocity": [-0.2, 0.0, 0.1]},
    ],
    "springs": [
        {"i": 0, "j": 2, "stiffness": 120.0, "rest": 0.5},
        {"i": 2, "j": 3, "stiffness": 80.0},
    ],
    "damping": {"variant": "constant", "value": 0.3},
    "forces": [
        {"force": [1.0, 2.0, 0.0], "body": 1},
        {"force": [0.6, 0.0, -0.4], "bodies": [0, 2, 3], "per_node": False},
        {"force": [9.0, 9.0, 9.0], "bodies": [0], "start": 0.5},
    ],
}


class TestMixedScene:
    """Particles, springs and a rigid cube built through build_scene, against
    a dense oracle assembled term by term from the scenario itself."""

    # (q offset, v offset) of each listed body: particle, rigid, particle, particle
    Q_OFF, V_OFF = (0, 3, 10, 13), (0, 3, 9, 12)

    def scene(self):
        validate_scenario(MIXED)
        return build_scene(Scenario(MIXED))

    def dense_mass(self):
        m = np.zeros((15, 15))
        for spec, off in zip(MIXED["bodies"], self.V_OFF):
            m[off : off + 3, off : off + 3] = spec["mass"] * np.eye(3)
            if spec["type"] == "rigid":
                w, x, y, z = spec["orientation"]
                rot = Rotation.from_quat([x, y, z, w]).as_matrix()
                m[off + 3 : off + 6, off + 3 : off + 6] = rot @ np.diag(spec["inertia"]) @ rot.T
        return m

    def test_layout(self):
        scene = self.scene()
        assert scene.state.q.shape == (16,) and scene.state.v.shape == (15,)
        assert list(scene.bodies.node_q) == [0, 10, 13]
        assert list(scene.bodies.node_v) == [0, 9, 12]
        assert list(scene.bodies.node_radius) == [0.05, 0.0, 0.0]
        rigid = scene.bodies.rigid
        assert rigid.q_off.tolist() == [3] and rigid.v_off.tolist() == [3] and rigid.point_body.tolist() == [0, 0]
        assert np.isclose(np.linalg.norm(scene.state.q[6:10]), 1.0)

    def test_assemble_matches_dense_oracle(self):
        scene = self.scene()
        state, t = scene.state, MIXED["step_size"]
        n = state.v.shape[0]
        asm = assemble_step(state, scene.bodies, scene.constraints, external_force(scene, 0.0))

        mass = self.dense_mass()
        a = (2.0 / t) * mass
        b = (2.0 / t) * mass @ state.v
        for spec, off in zip(MIXED["bodies"], self.V_OFF):
            b[off : off + 3] += spec["mass"] * np.array(MIXED["gravity"])
        cube = self.V_OFF[1]
        b[cube : cube + 3] += MIXED["forces"][0]["force"]
        for body in (0, 2, 3):
            b[self.V_OFF[body] : self.V_OFF[body] + 3] += np.array(MIXED["forces"][1]["force"]) / 3
        iw = mass[cube + 3 : cube + 6, cube + 3 : cube + 6]
        omega = state.v[cube + 3 : cube + 6]
        b[cube + 3 : cube + 6] -= np.cross(omega, iw @ omega)
        for spec in MIXED["springs"]:
            qi, qj = self.Q_OFF[spec["i"]], self.Q_OFF[spec["j"]]
            pi = np.array(MIXED["bodies"][spec["i"]]["position"])
            pj = np.array(MIXED["bodies"][spec["j"]]["position"])
            assert np.allclose(state.q[qi : qi + 3], pi) and np.allclose(state.q[qj : qj + 3], pj)
            d = pi - pj
            dist = np.linalg.norm(d)
            jac = np.concatenate([d, -d]) / dist
            vi, vj = self.V_OFF[spec["i"]], self.V_OFF[spec["j"]]
            idx = np.r_[vi : vi + 3, vj : vj + 3]
            k = spec["stiffness"]
            a[np.ix_(idx, idx)] += 0.5 * t * (k * np.outer(jac, jac) + MIXED["damping"]["value"] * np.eye(6))
            b[idx] -= k * jac * (dist - spec.get("rest", dist))
        assert np.allclose(asm.a.toarray(), a, rtol=0.0, atol=1e-12 * np.abs(a).max())
        assert np.allclose(asm.b, b, rtol=0.0, atol=1e-12 * np.abs(b).max())

    def test_virtual_node_change_keeps_the_spring_pattern(self, monkeypatch):
        # contacts on the cube's points, then also on particle 0 twice (an
        # identity-tied virtual node) and between particle 0 and the cube: a
        # new contact layout each time, whose tie layout is built into the
        # cached spring pattern
        from condsim import contacts, dynamics

        builds, build = [], dynamics.BlockPattern.build

        def counting_build(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(dynamics.BlockPattern, "build", counting_build)
        scene = self.scene()
        state = scene.state
        n = state.v.shape[0]
        cube, particle, static = (3, 3), (0, -1), (-1, -1)
        first = [(cube, static), (cube, static)]
        second = [(cube, static), (particle, static), (particle, cube), (cube, static)]
        layouts = []
        for sides in (first, second):
            sides = np.array(sides)
            k = sides.shape[0]
            detected = contacts.DetectedContacts(
                point=state.q[3:6] + np.linspace(-0.1, 0.1, 3 * k).reshape(k, 3),
                frame=contacts.contact_frames(np.tile([0.0, 0.0, 1.0], (k, 1))),
                depth=np.zeros(k),
                v_off=sides[:, :, 0],
                q_off=sides[:, :, 1],
                key=np.arange(k, dtype=np.int64),
            )
            asm = assemble_step(state, scene.bodies, scene.constraints, external_force(scene, 0.0))
            nodal = contacts.nodalize(detected, state, 1e4)
            aug = contacts.augment_dynamics(asm, nodal)
            layouts.append(nodal.layout.ties)
            _, jv, _, _ = reference_nodalize(detected, state)
            kv = nodal.k_v
            ref = np.block([[asm.a.toarray() + kv * jv.T @ jv, -kv * jv.T], [-kv * jv, kv * np.eye(jv.shape[0])]])
            assert np.abs(aug.a.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()
            assert (aug.a != aug.a.T).nnz == 0
        assert len(builds) == 1 and layouts[0] is not layouts[1]
        assert all(layout.base is scene.constraints.pattern.csc for layout in layouts)

    def test_kinetic_energy_is_half_vMv(self):
        scene = self.scene()
        v = scene.state.v
        ref = 0.5 * v @ self.dense_mass() @ v
        assert np.isclose(kinetic_energy(scene.state, scene.bodies), ref, rtol=1e-13)


class TestLatticeEdges:
    @pytest.mark.parametrize("diagonals", [False, True])
    def test_count_and_uniqueness(self, diagonals):
        nx, ny, nz = 3, 4, 2
        edges = _lattice_edges(nx, ny, nz, diagonals)
        axis = (nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1)
        faces = (nx - 1) * (ny - 1) * nz + (nx - 1) * ny * (nz - 1) + nx * (ny - 1) * (nz - 1)
        assert len(edges) == axis + (2 * faces if diagonals else 0)
        pairs = {tuple(sorted(e)) for e in edges.tolist()}
        assert len(pairs) == len(edges)
        # every edge joins grid neighbours one step apart along one axis, or
        # along two axes when face diagonals are on
        k, j, i = np.unravel_index(np.arange(nx * ny * nz), (nz, ny, nx))
        grid = np.stack([i, j, k], axis=1)
        steps = np.abs(grid[edges[:, 0]] - grid[edges[:, 1]])
        assert steps.max() == 1
        assert set(steps.sum(axis=1)) == ({1, 2} if diagonals else {1})


class TestIntegrate:
    def test_particle_translation(self):
        state = SystemState(np.zeros(3), np.zeros(3), dt=0.1)
        nxt = integrate(state, np.array([1.0, 0.0, 0.0]), particles([1.0]))
        assert np.allclose(nxt.q, [0.1, 0.0, 0.0])

    def test_rigid_quarter_turn(self):
        q = np.concatenate([np.zeros(3), [1.0, 0.0, 0.0, 0.0]])
        state = SystemState(q, np.zeros(6), dt=0.5)
        v_hat = np.concatenate([np.zeros(3), [0.0, 0.0, np.pi]])
        nxt = integrate(state, v_hat, rigid_only((1.0, 0, 0, np.eye(3))))
        quat = nxt.q[3:7]
        s = np.sin(np.pi / 4)
        assert np.isclose(np.linalg.norm(quat), 1.0)
        assert np.allclose(np.abs(quat), [np.cos(np.pi / 4), 0.0, 0.0, s], atol=1e-12)

    def test_steady_state_velocity_identity(self):
        v = np.array([0.3, -0.1, 0.2])
        state = SystemState(np.zeros(3), v.copy(), dt=0.01)
        nxt = integrate(state, v, particles([1.0]))
        assert np.array_equal(nxt.v, v)

    def test_ballistic_step_exact(self):
        # with no contacts/springs a step gives v_next = v + t*g exactly
        bodies = particles([1.5])
        v0 = np.array([1.0, 2.0, 3.0])
        state = SystemState(np.zeros(3), v0.copy(), dt=0.01)
        asm = assemble_step(state, bodies, NO_SPRINGS, f_ext=1.5 * GRAVITY)
        v_hat = np.linalg.solve(asm.a.toarray(), asm.b)
        nxt = integrate(state, v_hat, bodies)
        assert np.allclose(nxt.v, v0 + 0.01 * GRAVITY, atol=1e-14)

    def test_quaternion_norm_over_many_steps(self, rng):
        bodies = rigid_only((1.0, 0, 0, np.eye(3)))
        q = np.concatenate([np.zeros(3), [1.0, 0.0, 0.0, 0.0]])
        state = SystemState(q, np.zeros(6), dt=0.01)
        for _ in range(10_000):
            v_hat = np.concatenate([np.zeros(3), rng.standard_normal(3)])
            state = integrate(state, v_hat, bodies)
        assert abs(np.linalg.norm(state.q[3:7]) - 1.0) <= 1e-9


class TestRigidKinematics:
    """The rigid record's terms, stacked over its rows and on floats in the
    quaternion update, against the per-body references they replace (the
    ``reference_*`` of conftest), bit for bit, on random states."""

    @staticmethod
    def random_body(rng):
        half = rng.standard_normal((3, 3))
        inertia = half @ half.T + 0.01 * np.eye(3)
        quat = rng.standard_normal(4)
        q = np.concatenate([rng.standard_normal(3), quat / np.linalg.norm(quat)])
        return (rng.uniform(0.1, 10.0), 0, 0, inertia), q

    @staticmethod
    def random_record(rng, r, n_points):
        """r bodies back to back, each with ``n_points`` random surface
        points (one count for all, or one per body), and a random state on
        them."""
        counts = np.broadcast_to(n_points, (r,))
        bodies = []
        for k, count in enumerate(counts.tolist()):
            half = rng.standard_normal((3, 3))
            bodies.append((rng.uniform(0.1, 10.0), 7 * k, 6 * k, half @ half.T + 0.01 * np.eye(3),
                           rng.uniform(-0.2, 0.2, (count, 3)), 0.01))
        q = rng.standard_normal((r, 7))
        q[:, 3:] /= np.linalg.norm(q[:, 3:], axis=1)[:, None]
        v = rng.standard_normal(6 * r) * 10.0 ** rng.uniform(-3, 3, 6 * r)
        return SystemState(q.ravel(), v, dt=0.01), rigid_only(*bodies)

    def records(self, rng, n_points=4):
        """Random records of 1 to 64 bodies."""
        for r in (1, 2, 3, 5, 8, 13, 31, 64):
            yield self.random_record(rng, r, n_points)

    def test_gyroscopic_term_matches_the_array_formula(self, rng):
        for _ in range(500):
            body, q = self.random_body(rng)
            v = rng.standard_normal(6) * 10.0 ** rng.uniform(-3, 3, 6)
            state = SystemState(q, v, dt=0.01)
            bodies = rigid_only(body)
            (row,) = per_body(bodies.rigid)
            block = np.zeros((6, 6))
            block[:3, :3] = row.mass * np.eye(3)
            block[3:, 3:] = reference_world_inertia(row, q)
            block = (2.0 / 0.01) * block
            ref = np.zeros(6)
            ref[np.arange(6)] += block @ v
            ref[3:] -= np.cross(v[3:], reference_world_inertia(row, q) @ v[3:])
            asm = assemble_step(state, bodies, NO_SPRINGS)
            assert np.array_equal(asm.b, ref)

    def test_quaternion_update_matches_the_array_formula(self, rng):
        for k in range(1000):
            body, q = self.random_body(rng)
            # angular speeds across the small-angle branch at 1e-12 rad per step
            v_hat = rng.standard_normal(6) * 10.0 ** rng.uniform(-12 if k % 2 else -3, 3)
            state = SystemState(q, rng.standard_normal(6), dt=0.01)
            nxt = integrate(state, v_hat, rigid_only(body))
            assert np.array_equal(nxt.q[:3], q[:3] + 0.01 * v_hat[:3])
            assert np.array_equal(nxt.q[3:], reference_turn(q[3:], 0.01 * v_hat[3:]))

    def test_pose_matches_per_body(self, rng):
        for state, bodies in self.records(rng):
            rot, world, mass = state.rigid_pose(bodies.rigid)
            assert state.rigid_pose(bodies.rigid)[0] is rot
            for k, body in enumerate(per_body(bodies.rigid)):
                quat = state.q[body.q_offset + 3 : body.q_offset + 7]
                inertia = reference_world_inertia(body, state.q)
                assert_same_bits(rot[k], reference_rotation(quat))
                assert_same_bits(world[k], inertia)
                assert_same_bits(mass[k], reference_rigid_mass(body, inertia))

    def test_mass_quarters_and_b_match_per_body(self, rng):
        for state, bodies in self.records(rng):
            f_ext = rng.standard_normal(state.v.shape[0])
            TestComponentSums.check(state, bodies, springs(np.zeros((0, 2)), 0.0, 0.0), f_ext)

    @pytest.mark.parametrize("n_points", [4, "mixed"])
    def test_surface_points_match_per_body(self, rng, n_points):
        # equal counts turn in one stacked product; mixed counts, with
        # bodies of no point, in one per count
        from condsim.contacts import _surface_points

        for r in (1, 2, 3, 5, 8, 13, 31, 64):
            counts = 4 if n_points == 4 else rng.integers(0, 6, r)
            state, bodies = self.random_record(rng, r, counts)
            assert_same_bits(_surface_points(state, bodies.rigid), reference_surface_points(state, bodies.rigid))

    def test_turn_matches_per_body(self, rng):
        for state, bodies in self.records(rng):
            v_hat = rng.standard_normal(state.v.shape[0])
            nxt = integrate(state, v_hat, bodies)
            for body in per_body(bodies.rigid):
                qo, vo = body.q_offset, body.v_offset
                assert_same_bits(nxt.q[qo : qo + 3], state.q[qo : qo + 3] + 0.01 * v_hat[vo : vo + 3])
                assert_same_bits(nxt.q[qo + 3 : qo + 7], reference_turn(state.q[qo + 3 : qo + 7], 0.01 * v_hat[vo + 3 : vo + 6]))

    def test_kinetic_energy_matches_per_body(self, rng):
        for state, bodies in self.records(rng):
            assert kinetic_energy(state, bodies) == reference_kinetic_energy(state, bodies)


class TestKineticEnergy:
    def test_particle(self):
        state = SystemState(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert np.isclose(kinetic_energy(state, particles([2.0])), 1.0)

    def test_zero_velocity(self):
        assert kinetic_energy(SystemState(np.zeros(3), np.zeros(3)), particles([2.0])) == 0.0

    def test_rigid_vs_dense_oracle(self, rng):
        inertia = np.diag([0.1, 0.2, 0.3])
        q = np.concatenate([np.zeros(3), [1.0, 0.0, 0.0, 0.0]])
        omega = rng.standard_normal(3)
        vlin = rng.standard_normal(3)
        state = SystemState(q, np.concatenate([vlin, omega]))
        ref = 0.5 * 2.0 * vlin @ vlin + 0.5 * omega @ inertia @ omega
        assert np.isclose(kinetic_energy(state, rigid_only((2.0, 0, 0, inertia))), ref, atol=1e-12)

    def test_world_inertia_built_once_per_state(self, monkeypatch):
        """``kinetic_energy`` at the end of a step, and ``assemble_step`` and
        ``detect_contacts`` of the next, read the rigid pose kept on their
        state; a quaternion cannot be edited in place, and a replaced state
        builds its own pose."""
        from condsim import dynamics, harness

        calls, original = [], dynamics._pose
        monkeypatch.setattr(dynamics, "_pose", lambda *args: calls.append(1) or original(*args))
        s = load_scenario(scenario_path("box_slide"))
        harness.run(Scenario({**s.raw, "duration": 10 * s.step_size}), harness.RunConfig())
        assert len(calls) == 11  # the scene's state, then one per integrated state
        body = rigid_only((2.0, 0, 0, np.diag([0.1, 0.2, 0.3])))
        state = SystemState(np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), np.arange(1.0, 7.0))
        first = kinetic_energy(state, body)
        assert kinetic_energy(state, body) == first and len(calls) == 12
        turned = [0.0, 0.0, 0.0, np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0]  # a quarter turn about x swaps I_yy and I_zz
        with pytest.raises(ValueError, match="read-only"):
            state.q[:] = turned
        assert kinetic_energy(state, body) == first and len(calls) == 12
        assert kinetic_energy(dataclasses.replace(state, q=turned), body) != first and len(calls) == 13
