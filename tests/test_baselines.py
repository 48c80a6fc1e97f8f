"""Impulse-space baseline tests: Delassus assembly, PGS and APGD."""

import numpy as np
import pytest
import scipy.sparse as sp

from condsim.baselines import (
    BaselineConfig,
    _objective,
    assemble_delassus,
    recover_velocity,
    solve_apgd,
    solve_pgs,
)
from condsim.contacts import contact_frames, contact_jacobian_matrix
from condsim.errors import CapacityError
from condsim.solver import SolverConfig, _project_batch, solve_vfpi
from conftest import build_augmented, contact_set, random_contact_set, random_spd


def single_contact_aug(a_scale=1.0, b=None, mu=0.0):
    a = sp.csc_matrix(a_scale * np.eye(3))
    frame = contact_frames(np.array([0.0, 0.0, 1.0]))
    b = np.zeros(3) if b is None else b
    return build_augmented(a, b, contact_set(3, [0], frame, mu))


def pgs_style_problem(b_n):
    """One frictionless contact with A_c = 2 I3 and chosen normal b_c."""
    frame = contact_frames(np.array([0.0, 0.0, 1.0]))[0]
    b = frame.T @ np.array([0.5 * b_n, 0.0, 0.0])
    return assemble_delassus(single_contact_aug(0.5, b, mu=0.0))


class TestAssembleDelassus:
    def test_identity_system(self):
        p = assemble_delassus(single_contact_aug(1.0))
        assert np.allclose(p.a_c, np.eye(3), atol=1e-12)

    def test_scaled_system(self):
        p = assemble_delassus(single_contact_aug(2.0))
        assert np.allclose(p.a_c, 0.5 * np.eye(3), atol=1e-12)

    def test_random_vs_dense_oracle(self, rng):
        nodal = random_contact_set(rng, n_nodes=8, n_contacts=4)
        n = nodal.n_orig
        a = random_spd(rng, n)
        b = rng.standard_normal(n)
        aug = build_augmented(a, b, nodal)
        p = assemble_delassus(aug)
        jc = contact_jacobian_matrix(aug).toarray()
        a_inv = np.linalg.inv(a.toarray())
        assert np.allclose(p.a_c, jc @ a_inv @ jc.T, atol=1e-8)
        assert np.allclose(p.b_c, jc @ a_inv @ b, atol=1e-8)

    def test_capacity_error(self, rng):
        nodal = random_contact_set(rng, n_nodes=1400, n_contacts=1)
        n = nodal.n_orig
        a = sp.identity(n, format="csc")
        aug = build_augmented(a, np.zeros(n), nodal)
        with pytest.raises(CapacityError):
            assemble_delassus(aug)


class TestPgs:
    def test_single_contact_closes(self):
        p = pgs_style_problem(-4.0)
        lam, rep = solve_pgs(p, BaselineConfig(residual_tol=1e-10))
        assert rep.converged
        assert np.isclose(lam[0, 0], 2.0, atol=1e-8)
        v_hat = recover_velocity(p, lam.ravel())
        v_n = (p.jc @ v_hat)[0]
        assert abs(v_n) <= 1e-8

    def test_open_contact(self):
        p = pgs_style_problem(1.0)
        lam, rep = solve_pgs(p, BaselineConfig(residual_tol=1e-10))
        assert rep.converged
        assert np.allclose(lam, 0.0, atol=1e-12)

    def test_matches_cond_proximal(self, rng):
        for _ in range(5):
            nodal = random_contact_set(rng, n_nodes=8, n_contacts=4)
            n = nodal.n_orig
            a = random_spd(rng, n)
            b = rng.standard_normal(n)
            aug = build_augmented(a, b, nodal)
            lam_pgs, rep = solve_pgs(assemble_delassus(aug), BaselineConfig(residual_tol=1e-10, max_iters=5000))
            assert rep.converged
            cfg = SolverConfig(operator="proximal", residual_tol=1e-10, max_iters=5000, chebyshev=True)
            _, lam_cond, crep = solve_vfpi(aug, cfg, np.zeros(n))
            assert crep.converged
            scale = max(1.0, np.linalg.norm(lam_cond))
            assert np.linalg.norm(lam_pgs - lam_cond) <= 1e-4 * scale


class TestApgd:
    def test_single_contact_closes(self):
        p = pgs_style_problem(-4.0)
        lam, rep = solve_apgd(p, BaselineConfig(residual_tol=1e-10))
        assert rep.converged
        assert np.isclose(lam[0, 0], 2.0, atol=1e-8)

    def test_warm_start_at_optimum_terminates_fast(self):
        p = pgs_style_problem(-4.0)
        lam_opt = np.array([2.0, 0.0, 0.0])
        _, rep = solve_apgd(p, BaselineConfig(residual_tol=1e-10, warm_start=lam_opt))
        assert rep.converged
        assert rep.iterations <= 2

    def test_objective_matches_long_pg_oracle(self, rng):
        for _ in range(5):
            nodal = random_contact_set(rng, n_nodes=6, n_contacts=3)
            n = nodal.n_orig
            a = random_spd(rng, n)
            aug = build_augmented(a, rng.standard_normal(n), nodal)
            p = assemble_delassus(aug)
            lam, rep = solve_apgd(p, BaselineConfig(residual_tol=1e-12, max_iters=10000))
            assert rep.converged
            # plain projected gradient run far past convergence
            ac = p.a_c
            step = 0.9 / np.linalg.eigvalsh(ac).max()
            x = np.zeros_like(lam.ravel())
            rhs = p.b_c + np.kron(p.phi, [1.0, 0.0, 0.0])
            for _ in range(20000):
                g = ac @ x + rhs
                x = _project_batch((x - step * g).reshape(-1, 3), p.mu, None, "proximal").ravel()
            assert abs(_objective(p, lam.ravel()) - _objective(p, x)) <= 1e-8 * max(
                1.0, abs(_objective(p, x))
            )

    def test_objective_non_increasing_at_restarts(self, rng):
        nodal = random_contact_set(rng, n_nodes=8, n_contacts=4)
        n = nodal.n_orig
        a = random_spd(rng, n)
        aug = build_augmented(a, rng.standard_normal(n), nodal)
        _, rep = solve_apgd(assemble_delassus(aug), BaselineConfig(residual_tol=1e-12, max_iters=5000))
        trace = np.array(rep.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10)

    def test_agrees_with_pgs(self, rng):
        for _ in range(5):
            nodal = random_contact_set(rng, n_nodes=8, n_contacts=4)
            n = nodal.n_orig
            a = random_spd(rng, n)
            aug = build_augmented(a, rng.standard_normal(n), nodal)
            p = assemble_delassus(aug)
            lam_a, rep_a = solve_apgd(p, BaselineConfig(residual_tol=1e-10, max_iters=10000))
            lam_p, rep_p = solve_pgs(p, BaselineConfig(residual_tol=1e-10, max_iters=5000))
            assert rep_a.converged and rep_p.converged
            scale = max(1.0, np.linalg.norm(lam_p))
            assert np.linalg.norm(lam_a - lam_p) <= 1e-3 * scale


class TestRecoverVelocity:
    def test_zero_impulse(self, rng):
        nodal = random_contact_set(rng, n_nodes=5, n_contacts=2)
        n = nodal.n_orig
        a = random_spd(rng, n)
        b = rng.standard_normal(n)
        p = assemble_delassus(build_augmented(a, b, nodal))
        v = recover_velocity(p, np.zeros(3 * len(nodal)))
        assert np.allclose(v, np.linalg.solve(a.toarray(), b), atol=1e-9)

    def test_definition_identity(self, rng):
        nodal = random_contact_set(rng, n_nodes=5, n_contacts=2)
        n = nodal.n_orig
        a = random_spd(rng, n)
        p = assemble_delassus(build_augmented(a, rng.standard_normal(n), nodal))
        lam = rng.standard_normal(3 * len(nodal))
        v = recover_velocity(p, lam)
        assert np.allclose(p.jc @ v, p.a_c @ lam + p.b_c, atol=1e-8)
