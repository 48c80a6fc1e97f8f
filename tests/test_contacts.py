"""Contact detection, nodalization and augmentation tests."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from condsim import contacts
from condsim.contacts import (
    DetectedContacts,
    Geometry,
    Plane,
    StabilizationParams,
    ContactMap,
    StaticSphere,
    augment_dynamics,
    contact_frames,
    contact_jacobian_matrix,
    detect_contacts,
    nodalize,
    stabilization_term,
)
from condsim.dynamics import Bodies, DampingPolicy, Springs, SystemState, assemble_step
from condsim.errors import InvalidMatrixError, InvalidStateError
from condsim.harness import RunConfig, _warm_velocity, build_scene, load_scenario

from conftest import (
    TURNED,
    build_augmented,
    contact_set,
    random_contact_set,
    random_spd,
    reference_nodalize,
    resting_cubes,
    rigid_bodies,
    scenario_path,
    skew,
)

vec3 = st.tuples(
    st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
)


FLOOR = Plane(np.zeros(3), np.array([0.0, 0.0, 1.0]))


def particle_scene(positions, radius=0.5, dt=0.01, **geometry):
    """Particles at ``positions`` with proxy radius ``radius`` (one for all,
    or one per particle), and a ``Geometry`` of the keyword arguments."""
    off = 3 * np.arange(len(positions))
    bodies = Bodies(off, off, np.ones(len(positions)), np.full(len(positions), radius), rigid_bodies())
    q = np.concatenate([np.asarray(p, dtype=float) for p in positions])
    state = SystemState(q, np.zeros(q.shape[0]), dt=dt)
    return state, bodies, Geometry(**geometry)


def no_springs():
    none = np.zeros(0, dtype=int)
    return Springs(none, none, none, none, np.zeros(0), np.zeros(0))


def cube_scene(points, inertia=1.0, radius=0.0):
    """A 0.5 kg rigid body at height 0.1 carrying ``points`` of contact
    radius ``radius`` over a floor."""
    none = np.zeros(0, dtype=int)
    rigid = rigid_bodies((0.5, 0, 0, inertia * np.eye(3), points, radius))
    bodies = Bodies(none, none, np.zeros(0), np.zeros(0), rigid)
    q = np.concatenate([[0.0, 0.0, 0.1], [1.0, 0.0, 0.0, 0.0]])
    state = SystemState(q, np.zeros(6), dt=0.01)
    return state, bodies, Geometry(planes=[FLOOR])


class TestContactFrame:
    def test_z_normal_example(self):
        r = contact_frames(np.array([0.0, 0.0, 1.0]))[0]
        assert np.allclose(r, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    @settings(max_examples=200, deadline=None)
    @given(vec3)
    def test_orthonormal_right_handed(self, n):
        n = np.array(n)
        if np.linalg.norm(n) < 1e-3:
            return
        r = contact_frames(n)[0]
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(r), 1.0, atol=1e-12)
        assert np.allclose(r[0], n / np.linalg.norm(n), atol=1e-12)

    def test_deterministic_under_tiny_perturbation(self):
        a = contact_frames(np.array([1.0, 0.0, 0.0]))
        b = contact_frames(np.array([1.0 + 1e-12, 0.0, 0.0]) / np.linalg.norm([1.0 + 1e-12, 0.0, 0.0]))
        assert np.array_equal(a, b)

    def test_zero_normal_rejected(self):
        with pytest.raises(InvalidStateError):
            contact_frames(np.zeros(3))
        with pytest.raises(InvalidStateError):
            contact_frames(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))

    def test_batch_matches_per_normal_reference(self, rng):
        def reference(normal):  # one frame at a time, as nodalization built them
            n = np.asarray(normal, dtype=float)
            norm = np.linalg.norm(n)
            if abs(norm - 1.0) > 1e-9:
                n = n / norm
            e = np.zeros(3)
            e[int(np.argmin(np.abs(n)))] = 1.0
            t1 = np.cross(np.cross(n, e), n)
            t1 /= np.linalg.norm(t1)
            return np.vstack([n, t1, np.cross(n, t1)])

        axes = np.vstack([np.eye(3), -np.eye(3), 2.5 * np.eye(3), [[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]])
        unit = rng.standard_normal((200, 3))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        normals = np.vstack([axes, unit, rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-3, 3, (200, 1))])
        frames = contact_frames(normals)
        assert frames.shape == (normals.shape[0], 3, 3)
        for normal, frame in zip(normals, frames):
            assert np.abs(frame - reference(normal)).max() <= 1e-15
            assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-12
            assert np.array_equal(contact_frames(normal)[0], frame)


class TestPlaneFrame:
    def test_plane_holds_its_frame(self):
        for normal in ([0.0, 0.0, 1.0], [0.0, 0.6, -0.8], [3.0, -1.0, 2.0]):
            plane = Plane(np.zeros(3), np.array(normal))
            assert np.array_equal(plane.frame, contact_frames(np.array(normal))[0])
            assert np.array_equal(plane.normal, plane.frame[0])
            assert np.isclose(np.linalg.norm(plane.normal), 1.0, rtol=0.0, atol=1e-15)
            with pytest.raises(ValueError, match="read-only"):
                plane.frame[0, 0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                plane.normal = np.array([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("normal", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]], ids=["zero", "nan"])
    def test_normal_without_direction_rejected(self, normal):
        with pytest.raises(InvalidStateError):
            Plane(np.zeros(3), np.array(normal))

    @pytest.mark.parametrize("name", ["box_slide", "anisotropic_slide", "particle_stack", "lattice_drag"])
    def test_every_step_frame_is_contact_frames_of_its_normal(self, monkeypatch, name):
        # 50 steps through harness.run, each scene on one floor: a floor
        # contact's normal is the floor's, a pair's runs between the two
        # particle centres, and nodalize's frames are contact_frames of those
        # normals bit for bit; a plane-only step makes no contact_frames call
        from condsim import harness

        s = load_scenario(scenario_path(name))
        s = harness.Scenario({**s.raw, "duration": 50 * s.step_size})
        scene = build_scene(s, RunConfig())
        (floor,) = scene.geometry.planes
        proxied = np.flatnonzero(scene.bodies.node_radius > 0)
        stride = 1 + proxied.shape[0] + scene.bodies.rigid.points.shape[0]
        frames_of, nodalize_of, calls, steps = contacts.contact_frames, contacts.nodalize, [], []

        def counting_frames(*args, **kwargs):
            calls.append(1)
            return frames_of(*args, **kwargs)

        def checking(detected, state, *args, **kwargs):
            nodal = nodalize_of(detected, state, *args, **kwargs)
            normals = np.tile(floor.normal, (len(nodal), 1))
            pair = detected.v_off[:, 1] >= 0
            e, f = np.divmod(detected.key[pair], stride)
            for m, a, b in zip(np.flatnonzero(pair), proxied[e], proxied[f - 1]):
                d = state.q[scene.bodies.node_q[a] + np.arange(3)] - state.q[scene.bodies.node_q[b] + np.arange(3)]
                normals[m] = d / np.linalg.norm(d)
            assert np.array_equal(nodal.frames, frames_of(normals))
            steps.append((len(calls), int(pair.sum())))
            calls.clear()
            return nodal

        monkeypatch.setattr(contacts, "contact_frames", counting_frames)
        monkeypatch.setattr(harness, "build_scene", lambda *args: scene)
        monkeypatch.setattr(harness, "nodalize", checking)
        harness.run(s, RunConfig())
        assert len(steps) == 50
        assert [n_calls for n_calls, _ in steps] == [int(n_pairs > 0) for _, n_pairs in steps]
        assert any(n_pairs for _, n_pairs in steps) == (name == "particle_stack")


class TestDetectContacts:
    def test_sphere_proxy_on_plane(self):
        state, bodies, geom = particle_scene([[0.0, 0.0, 0.4]], radius=0.5, planes=[FLOOR])
        raw = detect_contacts(state, bodies, geom)
        assert len(raw) == 1
        assert np.isclose(raw.depth[0], 0.1)
        assert np.allclose(raw.point[0], [0.0, 0.0, -0.1])
        assert np.allclose(raw.frame[0, 0], [0.0, 0.0, 1.0])

    def test_separated_particle_no_contact(self):
        state, bodies, geom = particle_scene([[0.0, 0.0, 1.0]], radius=0.0, planes=[FLOOR])
        raw = detect_contacts(state, bodies, geom)
        assert len(raw) == 0
        assert raw.point.shape == (0, 3) and raw.v_off.shape == (0, 2) and raw.key.dtype == np.int64

    def test_proxy_on_static_sphere(self):
        state, bodies, geom = particle_scene([[0.0, 0.0, 1.4]], radius=0.5, spheres=[StaticSphere(np.zeros(3), 1.0)])
        raw = detect_contacts(state, bodies, geom)
        assert len(raw) == 1
        assert np.isclose(raw.depth[0], 0.1)
        assert np.allclose(raw.point[0], [0.0, 0.0, 0.9])
        assert np.allclose(raw.frame[0, 0], [0.0, 0.0, 1.0])
        # node at velocity offset 0 on a static primitive
        assert raw.v_off.tolist() == [[0, -1]] and raw.q_off.tolist() == [[-1, -1]]

    def test_order_is_proxy_by_proxy_planes_first(self):
        # two proxies, each touching the floor and a sphere; a proxy without
        # a radius is skipped
        state, bodies, geom = particle_scene(
            [[0.0, 0.0, 0.4], [5.0, 0.0, 0.0], [3.0, 0.0, 0.4]], radius=[0.5, 0.0, 0.5],
            planes=[FLOOR], spheres=[StaticSphere(np.array([1.5, 0.0, 0.4]), 1.2)],
        )
        raw = detect_contacts(state, bodies, geom)
        assert [(v, tuple(np.round(normal, 12))) for v, normal in zip(raw.v_off[:, 0], raw.frame[:, 0])] == [
            (0, (0.0, 0.0, 1.0)),
            (0, (-1.0, 0.0, 0.0)),
            (6, (0.0, 0.0, 1.0)),
            (6, (1.0, 0.0, 0.0)),
        ]
        # 2 primitives and 2 proxies: key = proxy * 4 + primitive
        assert raw.key.tolist() == [0, 1, 4, 5]

    def test_dynamic_pair(self):
        state, bodies, geom = particle_scene([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0]], radius=0.5)
        raw = detect_contacts(state, bodies, geom)
        assert len(raw) == 1
        assert raw.v_off.tolist() == [[0, 3]] and raw.q_off.tolist() == [[-1, -1]]
        assert np.isclose(raw.depth[0], 0.1)
        assert np.allclose(raw.frame[0, 0], [-1.0, 0.0, 0.0])  # from the second proxy toward the first
        assert np.allclose(raw.point[0], [0.45, 0.0, 0.0])

    def test_pairs_sorted_by_proxy_after_primitives(self):
        # a row of touching particles on the floor, listed out of x order:
        # the floor contacts proxy by proxy, then the pairs (0, 2), (0, 3),
        # (1, 3) in (first, second) order
        state, bodies, geom = particle_scene([[0.9 * k, 0.0, 0.45] for k in (2, 0, 3, 1)], radius=0.5, planes=[FLOOR])
        raw = detect_contacts(state, bodies, geom)
        assert raw.v_off.tolist() == [[0, -1], [3, -1], [6, -1], [9, -1], [0, 6], [0, 9], [3, 9]]
        # 1 primitive and 4 proxies: proxy e on the floor has key 5 e, pair (e, f) 5 e + 1 + f
        assert raw.key.tolist() == [0, 5, 10, 15, 3, 4, 9]

    def test_points_of_one_body_never_pair(self):
        # cube points 0.01 apart with radius 0.05 overlap, but belong to one body
        state, bodies, geom = cube_scene([[0.0, 0.0, -0.1], [0.01, 0.0, -0.1]], radius=0.05)
        raw = detect_contacts(state, bodies, geom)
        assert raw.v_off.tolist() == [[0, -1], [0, -1]] and raw.q_off.tolist() == [[0, -1], [0, -1]]

    def test_dense_clouds_match_all_pairs(self, rng):
        # random clouds of overlapping proxies with random radii (some
        # without a proxy) and one floor: the tree's pairs against every
        # pair checked directly, in key order
        for _ in range(10):
            k = int(rng.integers(2, 200))
            positions = rng.uniform(0.0, 1.0, (k, 3))
            radius = rng.uniform(0.0, 0.12, k) * (rng.random(k) < 0.9)
            state, bodies, geom = particle_scene(positions, radius, planes=[FLOOR])
            raw = detect_contacts(state, bodies, geom)
            proxied = np.flatnonzero(bodies.node_radius > 0)
            centers, radii = state.q.reshape(-1, 3)[proxied], bodies.node_radius[proxied]
            stride = 1 + proxied.shape[0]
            ref = []
            for e in range(proxied.shape[0]):
                for f in range(e + 1, proxied.shape[0]):
                    d = centers[e] - centers[f]
                    dist = np.linalg.norm(d)
                    if dist - radii[e] - radii[f] < geom.margin and dist > 1e-12:
                        depth = radii[e] + radii[f] - dist
                        ref.append((e * stride + 1 + f, 3 * proxied[e], 3 * proxied[f], depth, d / dist))
            pair = raw.v_off[:, 1] >= 0
            assert raw.key[pair].tolist() == [r[0] for r in ref]
            assert raw.v_off[pair].tolist() == [[r[1], r[2]] for r in ref]
            if ref:
                assert np.allclose(raw.depth[pair], np.maximum(0.0, [r[3] for r in ref]), rtol=0.0, atol=1e-15)
                assert np.allclose(raw.frame[pair, 0], [r[4] for r in ref], rtol=0.0, atol=1e-15)


def bundled_scene(name: str):
    scene = build_scene(load_scenario(scenario_path(name)), RunConfig())
    return scene.state, scene.bodies, scene.geometry


class TestPairSearchGate:
    @pytest.fixture
    def tree_builds(self, monkeypatch):
        """Counts the KD-trees that ``detect_contacts`` builds."""
        built = []
        tree = contacts.cKDTree

        def counting_tree(*args, **kwargs):
            built.append(1)
            return tree(*args, **kwargs)

        monkeypatch.setattr(contacts, "cKDTree", counting_tree)
        return built

    def test_single_rigid_body_skips_the_tree(self, tree_builds):
        state, bodies, geom = bundled_scene("box_slide")
        raw = detect_contacts(state, bodies, geom)
        assert not tree_builds and len(raw) == 4
        # a second rigid body without contact points adds no proxy but turns
        # the pair search on; it must find nothing that changes the result
        rigid = bodies.rigid
        two = rigid_bodies((rigid.mass[0], rigid.q_off[0], rigid.v_off[0], rigid.inertia[0], rigid.points,
                            rigid.contact_radius[0]), (1.0, 0, 0, np.eye(3)))
        searched = detect_contacts(state, dataclasses.replace(bodies, rigid=two), geom)
        assert len(tree_builds) == 1
        for name in ("point", "frame", "depth", "v_off", "q_off", "key"):
            assert np.array_equal(getattr(raw, name), getattr(searched, name)), name

    def test_node_proxies_still_pair(self, tree_builds):
        raw = detect_contacts(*bundled_scene("particle_stack"))
        assert len(tree_builds) == 1
        # five stacked particles: one floor contact and four neighbour pairs
        assert len(raw) == 5 and int((raw.v_off[:, 1] >= 0).sum()) == 4


class TestStabilization:
    def test_penetration_compensation(self):
        p = StabilizationParams(beta_err=0.2, e_rest=0.0)
        assert np.isclose(stabilization_term(0.01, 0.0, p, 0.01), -0.2)

    def test_restitution_branch(self):
        p = StabilizationParams(beta_err=0.2, e_rest=0.5, v_rest_threshold=0.01)
        assert np.isclose(stabilization_term(0.0, -1.0, p, 0.01), -0.5)

    def test_resting_below_threshold(self):
        p = StabilizationParams(beta_err=0.2, e_rest=0.5, v_rest_threshold=0.01)
        assert stabilization_term(0.0, -0.001, p, 0.01) == 0.0


class TestNodalize:
    def test_particle_contact_stays_on_node(self):
        state, bodies, geom = particle_scene([[0.0, 0.0, 0.4]], radius=0.5, planes=[FLOOR])
        raw = detect_contacts(state, bodies, geom)
        nodal = nodalize(raw, state, k_v=1e5)
        assert nodal.n_virtual == 0
        assert nodal.columns.col_i.tolist() == [0] and nodal.columns.col_j.tolist() == [-1]

    def test_rigid_vertex_spawns_virtual_node(self):
        state, bodies, geom = cube_scene([[0.1, 0.1, -0.1]])
        raw = detect_contacts(state, bodies, geom)
        assert len(raw) == 1
        nodal = nodalize(raw, state, k_v=1e5)
        assert nodal.n_virtual == 1
        assert nodal.columns.col_i.tolist() == [6]  # the first virtual node, after the body's 6 DOF
        # tied to the body at velocity offset 0 by the world lever arm r of
        # the vertex, so its Jv row block is [I3, -[r]x]
        lever = np.array([0.1, 0.1, -0.1])
        assert nodal.src.tolist() == [0] and nodal.rigid.tolist() == [True]
        assert np.allclose(nodal.lever, [lever])
        jv = np.array([nodal.virtual_velocity(e) for e in np.eye(6)]).T
        assert np.allclose(jv, np.hstack([np.eye(3), -skew(lever)]))

    def test_second_contact_on_same_node_moves_to_virtual(self):
        # particle wedged between two planes: diagonalization needs one
        # contact per node, so the second contact gets an identity-tied
        # virtual node
        ceiling = Plane(np.array([0.0, 0.0, 0.8]), np.array([0.0, 0.0, -1.0]))
        state, bodies, geom = particle_scene([[0.0, 0.0, 0.4]], radius=0.5, planes=[FLOOR, ceiling])
        raw = detect_contacts(state, bodies, geom)
        assert len(raw) == 2
        nodal = nodalize(raw, state, k_v=1e5)
        assert nodal.columns.col_i.tolist() == [0, 3]  # the node, then a virtual node at column 3
        assert nodal.n_virtual == 1
        assert nodal.src.tolist() == [0] and nodal.rigid.tolist() == [False]
        assert np.array_equal(nodal.lever, np.zeros((1, 3)))
        jv = np.array([nodal.virtual_velocity(e) for e in np.eye(3)]).T
        assert np.array_equal(jv, np.eye(3))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_at_most_one_contact_per_node(self, seed):
        g = np.random.default_rng(seed)
        nodal = random_contact_set(g)
        used = np.concatenate([nodal.columns.col_i, nodal.columns.col_j[nodal.columns.col_j >= 0]]).tolist()
        assert len(used) == len(set(used))


class TestAugmentDynamics:
    def test_scalar_toy(self):
        # 1-D system, one virtual coordinate, k_v = 10: the augmented block
        # structure is [[A_o + k_v, -k_v], [-k_v, k_v]]
        a_o = sp.csc_matrix(np.array([[1.0]]))
        jv = sp.csr_matrix(np.array([[1.0]]))
        kv = 10.0
        top = a_o + kv * (jv.T @ jv)
        full = sp.bmat([[top, -kv * jv.T], [-kv * jv, kv * sp.identity(1)]]).toarray()
        assert np.allclose(full, [[11.0, -10.0], [-10.0, 10.0]])
        # characteristic polynomial x^2 - 21 x + 10 -> (21 +- sqrt(401)) / 2
        eigs = np.sort(np.linalg.eigvalsh(full))
        ref = np.sort([(21 - np.sqrt(401)) / 2, (21 + np.sqrt(401)) / 2])
        assert np.allclose(eigs, ref, atol=1e-12)
        assert eigs.min() > 0.0

    def test_no_virtual_nodes_identity(self, rng):
        a = random_spd(rng, 9)
        b = rng.standard_normal(9)
        aug = build_augmented(a, b, contact_set(9))
        assert aug.n == 9
        assert np.allclose(aug.a.toarray(), a.toarray())
        assert np.allclose(aug.b, b)

    def test_augmented_system_stays_spd(self, rng):
        state, bodies, geom = cube_scene(
            [[0.1, 0.1, -0.1], [-0.1, 0.1, -0.1], [0.1, -0.1, -0.1]], inertia=rng.uniform(0.01, 1.0)
        )
        raw = detect_contacts(state, bodies, geom)
        nodal = nodalize(raw, state, k_v=1e5)
        asm = assemble_step(state, bodies, no_springs())
        aug = augment_dynamics(asm, nodal)
        assert asm.pattern.ties.fits(nodal)
        assert aug.b[6:].max() == 0.0 and aug.b[6:].min() == 0.0
        assert np.linalg.eigvalsh(aug.a.toarray()).min() > 0.0

    def test_virtual_elimination_recovers_original_dynamics(self, rng):
        # solving the augmented system and eliminating the virtual block must
        # reproduce A_o v_o = b_o + Jv^T f_tie with the tie force equal to the
        # impulse routed through the virtual node (no spurious force injection)
        state, bodies, geom = cube_scene([[0.1, 0.1, -0.1], [-0.1, -0.1, -0.1]], inertia=0.01)
        raw = detect_contacts(state, bodies, geom)
        nodal = nodalize(raw, state, k_v=1e4)
        asm = assemble_step(state, bodies, no_springs(), rng.standard_normal(6))
        a_dense, b_o = asm.a.toarray(), asm.b.copy()
        aug = augment_dynamics(asm, nodal)
        assert asm.pattern.ties.fits(nodal)

        lam = rng.standard_normal((len(nodal), 3))
        rhs = aug.b + ContactMap(aug).jc_t(lam)
        sol = np.linalg.solve(aug.a.toarray(), rhs)
        v_o, v_v = sol[:6], sol[6:]
        _, jv, _, _ = reference_nodalize(raw, state)
        tie_force = nodal.k_v * (v_v - jv @ v_o)  # viscous tie on the body
        residual = a_dense @ v_o - (b_o + jv.T @ tie_force)
        assert np.linalg.norm(residual) <= 1e-8 * max(1.0, np.linalg.norm(b_o))
        # the tie transmits exactly the contact impulse on each virtual node
        lam_world = np.einsum("mba,mb->ma", aug.frames, lam)
        assert np.allclose(tie_force, lam_world.ravel(), atol=1e-6)


class TestTieLayout:
    @pytest.fixture
    def layout_builds(self, monkeypatch):
        """Counts the ``TieLayout`` builds of ``augment_dynamics``."""
        built = []
        build = contacts.TieLayout.build

        def counting_build(*args, **kwargs):
            built.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(contacts.TieLayout, "build", counting_build)
        return built

    @pytest.mark.parametrize("name, builds", [("box_slide", 1), ("anisotropic_slide", None), ("particle_stack", None)])
    def test_every_step_is_bitwise_symmetric(self, monkeypatch, layout_builds, name, builds):
        # 50 steps through harness.run; box_slide's cube keeps its 4
        # contacts, so its layout is built once and reused
        from condsim import harness

        solve, seen = harness.solve_vfpi, []

        def checking(aug, *args, **kwargs):
            seen.append((aug.n > aug.n_orig, (aug.a != aug.a.T).nnz))
            return solve(aug, *args, **kwargs)

        monkeypatch.setattr(harness, "solve_vfpi", checking)
        s = load_scenario(scenario_path(name))
        harness.run(harness.Scenario({**s.raw, "duration": 50 * s.step_size}), RunConfig())
        assert len(seen) == 50 and all(tied for tied, _ in seen)
        assert [asym for _, asym in seen] == [0] * 50
        if builds is not None:
            assert len(layout_builds) == builds

    def test_changed_sources_rebuild_the_layout(self, layout_builds):
        scene = build_scene(load_scenario(scenario_path("box_slide")), RunConfig())
        state = dataclasses.replace(scene.state, q=np.concatenate([scene.state.q[:3], TURNED]))
        raw = detect_contacts(state, scene.bodies, scene.geometry)
        fewer = DetectedContacts(**{f.name: getattr(raw, f.name)[1:] for f in dataclasses.fields(raw)})
        pattern, layouts = None, []
        for detected, builds in ((raw, 1), (raw, 1), (fewer, 2), (raw, 3)):
            asm = assemble_step(state, scene.bodies, scene.constraints)
            nodal = nodalize(detected, state, scene.k_v, scene.mu, scene.mu2, scene.stab)
            aug = augment_dynamics(asm, nodal)
            assert len(layout_builds) == builds
            assert pattern in (None, asm.pattern)
            pattern = asm.pattern
            layouts.append(pattern.ties)
            _, jv, _, _ = reference_nodalize(detected, state)
            kv = nodal.k_v
            ref = np.block([[asm.a.toarray() + kv * jv.T @ jv, -kv * jv.T], [-kv * jv, kv * np.eye(jv.shape[0])]])
            assert np.abs(aug.a.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()
            assert (aug.a != aug.a.T).nnz == 0
        assert layouts[0] is layouts[1] and len({id(x) for x in layouts}) == 3


def dropped(name: str) -> dict:
    """A bundled scenario with every body 3 cm higher, for 0.3 s: box_slide's
    cube has no contact on its first steps and 4 once it lands, and
    particle_stack's column has its 4 D-contacts, then the floor's too."""
    raw = load_scenario(scenario_path(name)).raw
    bodies = [{**body, "position": [*body["position"][:2], body["position"][2] + 0.03]} for body in raw["bodies"]]
    return {**raw, "duration": 0.3, "bodies": bodies}


def bits(a) -> np.ndarray:
    """An array's entries as int64 bit patterns (8-byte types through
    ``.view(np.int64)``, narrower ones widened), so that equal arrays have
    the same bits, -0.0 and NaN included."""
    a = np.ascontiguousarray(a)
    return a.view(np.int64) if a.dtype.itemsize == 8 else a.astype(np.int64)


class TestContactLayout:
    """The proxy table and the contact layout are built on a scene's first
    step and reused while the contact sides stay the same; every step's
    arrays are those that a fresh scene builds for that step."""

    NODAL = ("frames", "mu", "mu2", "phi", "src", "rigid", "lever", "tie_rows")
    COLUMNS = ("col_i", "col_j", "nodes")

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts the ``ProxyTable`` and ``ContactLayout`` builds."""
        built = {"ProxyTable": 0, "ContactLayout": 0}
        for name in built:
            cls = getattr(contacts, name)

            def counting(*args, _build=cls.build, _name=name, **kwargs):
                built[_name] += 1
                return _build(*args, **kwargs)

            monkeypatch.setattr(cls, "build", counting)
        return built

    @staticmethod
    def run_steps(monkeypatch, raw: dict) -> list:
        """Per step of a ``harness.run``: simulation time, state, detection
        and augmented system."""
        from condsim import harness

        steps, nodalize_, augment = [], harness.nodalize, harness.augment_dynamics

        def nodalizing(detected, state, *args, **kwargs):
            steps.append([len(steps) * raw["step_size"], state, detected])
            return nodalize_(detected, state, *args, **kwargs)

        def augmenting(asm, nodal):
            aug = augment(asm, nodal)
            steps[-1].append(aug)
            return aug

        monkeypatch.setattr(harness, "nodalize", nodalizing)
        monkeypatch.setattr(harness, "augment_dynamics", augmenting)
        harness.run(harness.Scenario(raw), RunConfig())
        return steps

    @pytest.mark.parametrize("name", ["particle_stack", "box_slide"])
    def test_every_step_matches_a_fresh_scene(self, monkeypatch, builds, name):
        raw = dropped(name)
        steps = self.run_steps(monkeypatch, raw)
        sides = [(d.v_off.tobytes(), d.q_off.tobytes()) for _, _, d, _ in steps]
        changes = 1 + sum(a != b for a, b in zip(sides, sides[1:]))
        # the contact set changes, and only its changes rebuild the layout
        assert 1 < changes < len(steps)
        assert builds == {"ProxyTable": 1, "ContactLayout": changes}
        self.check_fresh(raw, steps)

    def test_resting_cubes_match_a_fresh_scene(self, monkeypatch, builds):
        # 16 cubes of ``resting_cubes``: the pair search runs, and every
        # cube's four corners take virtual nodes on the record's rigid rows
        raw = resting_cubes(16)
        steps = self.run_steps(monkeypatch, raw)
        assert len(steps) == 20 and builds["ProxyTable"] == 1
        assert all(len(aug.contacts) == aug.contacts.n_virtual == 64 for _, _, _, aug in steps)
        self.check_fresh(raw, steps)

    def check_fresh(self, raw: dict, steps: list) -> None:
        """Every step's contact set, augmented A and b have the bits of those
        that a fresh scene of ``raw`` builds from the step's state."""
        from condsim import harness

        for t, state, _, aug in steps:
            scene = build_scene(harness.Scenario(raw), RunConfig())
            fresh = SystemState(state.q.copy(), state.v.copy(), state.dt)
            asm = assemble_step(fresh, scene.bodies, scene.constraints, harness.external_force(scene, t))
            nodal = nodalize(detect_contacts(fresh, scene.bodies, scene.geometry), fresh, scene.k_v, scene.mu,
                             scene.mu2, scene.stab)
            ref = augment_dynamics(asm, nodal)
            for field in self.NODAL:
                assert np.array_equal(bits(getattr(aug.contacts, field)), bits(getattr(nodal, field))), (t, field)
            for field in self.COLUMNS:
                assert np.array_equal(getattr(aug.contacts.columns, field), getattr(nodal.columns, field)), (t, field)
            for x, y in ((aug.a.data, ref.a.data), (aug.a.indices, ref.a.indices), (aug.a.indptr, ref.a.indptr),
                         (aug.b, ref.b), (aug.diag_pos, ref.diag_pos)):
                assert np.array_equal(bits(x), bits(y)), t

    def test_one_layout_per_contact_set(self, monkeypatch, builds):
        raw = load_scenario(scenario_path("box_slide")).raw
        steps = self.run_steps(monkeypatch, raw)
        sets = {(d.v_off.tobytes(), d.q_off.tobytes()) for _, _, d, _ in steps}
        assert len(steps) == 300
        assert builds == {"ProxyTable": 1, "ContactLayout": len(sets)}
        # every step of one contact set shares its layout's arrays
        layouts = {id(aug.contacts.columns) for _, _, _, aug in steps}
        assert len(layouts) == len(sets)

    def test_changed_key_rebuilds_the_layout(self, builds):
        state, bodies, geometry = bundled_scene("particle_stack")
        detected = detect_contacts(state, bodies, geometry)
        first = nodalize(detected, state, 1e5, mu=0.2)
        assert nodalize(detected, state, 1e5, mu=0.2).columns.col_i is first.columns.col_i
        for kwargs in ({"mu": 0.3}, {"mu": 0.2, "mu2": 0.4}):
            nodal = nodalize(detected, state, 1e5, **kwargs)
            assert nodal.mu[0] == kwargs["mu"] and nodal.mu2[0] == kwargs.get("mu2", kwargs["mu"])
        assert builds == {"ProxyTable": 1, "ContactLayout": 3}
        # a record made field by field carries no table: its layout is new
        fields = {f.name: getattr(detected, f.name) for f in dataclasses.fields(detected)}
        copied = DetectedContacts(**fields)
        assert copied.proxies is None and nodalize(copied, state, 1e5, mu=0.2).columns.col_i is not first.columns.col_i
        # as many contacts, with the floor's on particle 1: node 3 then
        # carries its floor side first, and every later side on nodes 3,
        # 6 and 9 takes a virtual node
        nodalize(detected, state, 1e5, mu=0.2)
        v_off = detected.v_off.copy()
        v_off[0, 0] = 3
        moved = DetectedContacts(**{**fields, "v_off": v_off})
        moved.proxies = detected.proxies
        nodal = nodalize(moved, state, 1e5, mu=0.2)
        assert builds["ContactLayout"] == 6 and moved.proxies.layout.columns is nodal.columns
        assert nodal.columns.col_i.tolist() == [3, 0, 18, 21, 24] and nodal.columns.col_j.tolist() == [-1, 15, 6, 9, 12]

    def test_tie_rows_built_once_per_step(self, monkeypatch):
        """``augment_dynamics`` and the warm start read the set's tie rows."""
        from condsim import harness

        calls, original = [], contacts._tie_rows
        monkeypatch.setattr(contacts, "_tie_rows", lambda lever: calls.append(1) or original(lever))
        s = load_scenario(scenario_path("box_slide"))
        harness.run(harness.Scenario({**s.raw, "duration": 5 * s.step_size}), RunConfig())
        assert len(calls) == 5

    def test_changed_scene_rebuilds_the_table(self, builds):
        # a scene cannot be edited; records made with dataclasses.replace
        # build their own tables, and the old bodies keep theirs
        state, bodies, geometry = bundled_scene("particle_stack")
        table = contacts.proxy_table(bodies, geometry)
        assert contacts.proxy_table(bodies, geometry) is table
        with pytest.raises(ValueError):
            bodies.node_radius[0] = 0.0
        fewer = dataclasses.replace(bodies, node_radius=np.where(np.arange(5) == 0, 0.0, bodies.node_radius))
        # the floor contact and the pair (0, 1) went with particle 0's proxy
        assert len(detect_contacts(state, fewer, geometry)) == 3
        sphere = dataclasses.replace(geometry, spheres=geometry.spheres + (StaticSphere(np.zeros(3), 1.0),))
        detect_contacts(state, fewer, sphere)
        assert builds["ProxyTable"] == 3 and fewer.proxies.frames.shape == (2, 3, 3)
        assert bodies.proxies is table and len(detect_contacts(state, bodies, geometry)) == 5


def mixed_scene(rng):
    """Two particles (velocity offsets 0 and 3) and two rotated rigid bodies
    with random velocities, and detected contacts of every kind."""

    def quat():
        q = rng.standard_normal(4)
        return q / np.linalg.norm(q)

    rigid = [
        (0.5, 6, 6, np.eye(3), rng.uniform(-0.1, 0.1, (4, 3)), 0.01),
        (0.7, 13, 12, np.eye(3), rng.uniform(-0.1, 0.1, (4, 3)), 0.01),
    ]
    bodies = Bodies(np.array([0, 3]), np.array([0, 3]), np.ones(2), np.full(2, 0.05), rigid_bodies(*rigid))
    q = np.concatenate([rng.standard_normal(9), quat(), rng.standard_normal(3), quat()])
    state = SystemState(q, rng.standard_normal(18), dt=0.01)

    # per side: (velocity offset, rigid coordinate offset)
    node0, node3, body0, body1, static = (0, -1), (3, -1), (6, 6), (12, 13), (-1, -1)
    sides = np.array(
        [
            (body0, static),  # rigid surface points on a static primitive
            (body0, static),
            (node0, static),  # stays on its node
            (node0, static),  # second contact on node 0: identity virtual node
            (node3, body1),  # rigid-node D-contact
            (body0, body1),  # rigid-rigid D-contact
            (node3, body0),  # node 3 again, as the first side of a D-contact
        ]
    )
    k = sides.shape[0]
    normal = rng.standard_normal((k, 3))
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    detected = DetectedContacts(
        point=rng.standard_normal((k, 3)),
        frame=contact_frames(normal),
        depth=rng.uniform(0.0, 0.01, k),
        v_off=sides[:, :, 0],
        q_off=sides[:, :, 1],
        key=np.arange(k, dtype=np.int64),
    )
    return state, bodies, detected


def mixed_springs(rng):
    """Springs of ``mixed_scene`` between the particles and the bodies'
    translational blocks, so that A_o has off-diagonal blocks."""
    # (coordinate offset, velocity offset) of particle 0, particle 1, body 0, body 1
    p0, p1, b0, b1 = (0, 0), (3, 3), (6, 6), (13, 12)
    ends = np.array([(p0, b0), (p1, b1), (p0, p1), (b0, b1)])
    return Springs(
        ends[:, 0, 0], ends[:, 1, 0], ends[:, 0, 1], ends[:, 1, 1],
        rng.uniform(10.0, 100.0, 4), rng.uniform(0.2, 1.0, 4), DampingPolicy("geometric-projection"),
    )


class TestMixedSceneReference:
    STAB = StabilizationParams(beta_err=0.2, e_rest=0.5, v_rest_threshold=0.5)

    def test_nodalize_matches_per_contact_reference(self, rng):
        for _ in range(10):
            state, bodies, raw = mixed_scene(rng)
            nodal = nodalize(raw, state, k_v=1e4, mu=0.3, mu2=0.6, stab=self.STAB)
            cols, _, phi, (src, rigid, lever) = reference_nodalize(raw, state, self.STAB)
            assert nodal.n_virtual == 8
            assert np.array_equal(nodal.columns.col_i, cols[:, 0])
            assert np.array_equal(nodal.columns.col_j, cols[:, 1])
            assert np.array_equal(nodal.src, src) and np.array_equal(nodal.rigid, rigid)
            assert np.array_equal(nodal.lever, lever)
            assert np.allclose(nodal.phi, phi, rtol=1e-12, atol=1e-15)
            assert np.array_equal(nodal.mu, np.full(7, 0.3))
            assert np.array_equal(nodal.mu2, np.full(7, 0.6))
            # the record view carries the same values
            records = nodal.contacts
            for field, values in (("col_i", cols[:, 0]), ("col_j", cols[:, 1]), ("mu", nodal.mu),
                                  ("mu2", nodal.mu2), ("phi_n", nodal.phi), ("frame", nodal.frames)):
                assert np.array_equal(records[field], values), field

    def test_virtual_velocity_is_dense_jv_times_v(self, rng):
        # the warm start extends v to the virtual nodes by Jv v
        for _ in range(10):
            state, bodies, raw = mixed_scene(rng)
            nodal = nodalize(raw, state, k_v=1e4, stab=self.STAB)
            _, jv, _, _ = reference_nodalize(raw, state, self.STAB)
            aug = augment_dynamics(assemble_step(state, bodies, mixed_springs(rng)), nodal)
            for v in (state.v, rng.standard_normal(18)):
                ref = jv @ v
                assert np.abs(nodal.virtual_velocity(v) - ref).max() <= 1e-12 * np.abs(ref).max()
                warm = _warm_velocity(v, aug, 18)
                assert np.array_equal(warm[:18], v) and np.array_equal(warm[18:], nodal.virtual_velocity(v))

    def test_augment_matches_dense_blocks(self, rng):
        for _ in range(10):
            state, bodies, raw = mixed_scene(rng)
            kv = 10.0 ** rng.uniform(2, 6)
            nodal = nodalize(raw, state, k_v=kv, stab=self.STAB)
            _, jv, _, _ = reference_nodalize(raw, state, self.STAB)
            asm = assemble_step(state, bodies, mixed_springs(rng), rng.standard_normal(18))
            a_o, b_o = asm.a.toarray(), asm.b.copy()
            assert np.abs(a_o[0:3, 6:9]).min() > 0.0 and np.abs(a_o[6:9, 12:15]).min() > 0.0
            aug = augment_dynamics(asm, nodal)
            assert asm.pattern.ties.fits(nodal)
            ref = np.block(
                [[a_o + kv * jv.T @ jv, -kv * jv.T], [-kv * jv, kv * np.eye(jv.shape[0])]]
            )
            assert isinstance(aug.a, sp.csc_matrix) and aug.a.has_canonical_format
            assert (aug.n, aug.n_orig) == (18 + 24, 18)
            assert np.abs(aug.a.toarray() - ref).max() <= 1e-12 * np.abs(ref).max()
            assert np.array_equal(aug.b, np.concatenate([b_o, np.zeros(24)]))
            assert aug.col_i is nodal.columns.col_i and aug.col_j is nodal.columns.col_j and aug.frames is nodal.frames


class TestContactJacobian:
    def test_block_apply_matches_explicit_matrix(self, rng):
        for _ in range(10):
            nodal = random_contact_set(rng)
            n = nodal.n_orig
            a = random_spd(rng, n)
            aug = build_augmented(a, np.zeros(n), nodal)
            jc = contact_jacobian_matrix(aug)
            v = rng.standard_normal(n)
            assert np.allclose(ContactMap(aug).jc(v).ravel(), jc @ v, atol=1e-12)
            lam = rng.standard_normal((len(nodal), 3))
            assert np.allclose(ContactMap(aug).jc_t(lam), jc.T @ lam.ravel(), atol=1e-12)

    def test_repeated_node_rejected(self, rng):
        # a node carrying two contact sides would couple their one-shot
        # solves, so the contact set refuses it
        nodal = random_contact_set(rng, n_nodes=6, n_contacts=4)
        twice = [0, 1, 2, 3, 0]
        # one contact's node listed twice, and a chain of D-contacts 0-3, 3-6
        # that puts two sides on node 3
        for args, named in (
            ((nodal.n_orig, nodal.columns.col_i[twice], nodal.frames[twice], nodal.mu[twice], nodal.columns.col_j[twice]), r"column \d+"),
            ((9, [0, 3], nodal.frames[:2], 0.5, [3, 6]), "column 3"),
        ):
            with pytest.raises(InvalidMatrixError, match=f"{named} carries more than one contact side"):
                contact_set(*args)
