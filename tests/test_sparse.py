"""Sparse/dense kernel tests against dense numpy oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from condsim.baselines import factor_spd
from condsim.contacts import augment_dynamics, detect_contacts, nodalize
from condsim.dynamics import assemble_step
from condsim.errors import DimensionMismatchError, NotPositiveDefiniteError
from condsim.harness import RunConfig, build_scene, external_force, load_scenario
from condsim.sparse import row_norms_sq, spmv
from condsim.testing import random_spd

from conftest import scenario_path


def dense(vals) -> sp.csc_matrix:
    return sp.csc_matrix(np.array(vals, dtype=float))


class TestSpmv:
    def test_identity(self):
        a = sp.identity(3, format="csc")
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spmv(a, x), x)

    def test_hand_2x2(self):
        a = dense([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(spmv(a, np.ones(2)), [3.0, 3.0])

    def test_random_vs_dense_oracle(self, rng):
        a = random_spd(rng, 50, density=0.1)
        x = rng.standard_normal(50)
        assert np.allclose(spmv(a, x), a.toarray() @ x, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            spmv(sp.identity(3, format="csc"), np.zeros(4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=2**31 - 1))
    def test_symmetry_bilinear(self, n, seed):
        # x^T A y == y^T A x for symmetric A
        g = np.random.default_rng(seed)
        a = random_spd(g, n)
        x, y = g.standard_normal(n), g.standard_normal(n)
        lhs = spmv(a, x) @ y
        rhs = spmv(a, y) @ x
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestTransposeView:
    """The tie-free loop of ``solve_vfpi`` multiplies by ``a.T``, the CSC
    arrays of A read as CSR: exact wherever A is bitwise symmetric, which
    the assembled and the augmented matrices both are."""

    def test_lattice_products_are_bitwise_equal(self, rng):
        scene = build_scene(load_scenario(scenario_path("lattice_drag")), RunConfig())
        a = assemble_step(scene.state, scene.bodies, scene.constraints).a
        assert (a != a.T).nnz == 0
        x = rng.standard_normal(a.shape[0])
        assert np.array_equal(spmv(a.T, x), spmv(a, x))

    def test_rigid_products_agree_to_rounding(self, rng):
        # box_slide's cube turned about the vertical, still on its 4
        # contacts, ties rigid-body virtual nodes; particle_stack's stacked
        # particles tie node-sourced ones. Every tie product k_v (t_p t_q)
        # lands on (p, q) and (q, p) in one order, so A is bitwise symmetric.
        for name in ("box_slide", "particle_stack"):
            scene = build_scene(load_scenario(scenario_path(name)), RunConfig())
            state = scene.state
            if name == "box_slide":
                state.q[3:7] = [np.cos(0.3), 0.0, 0.0, np.sin(0.3)]
            f_ext = external_force(scene, 0.0, state.v.shape[0])
            asm = assemble_step(state, scene.bodies, scene.constraints, f_ext)
            detected = detect_contacts(state, scene.bodies, scene.geometry)
            nodal = nodalize(detected, state, scene.k_v, scene.mu, scene.mu2, scene.stab)
            assert nodal.n_virtual > 0, name
            a = augment_dynamics(asm, nodal).a
            assert (a != a.T).nnz == 0, name
            x = rng.standard_normal(a.shape[0])
            assert np.array_equal(spmv(a.T, x), spmv(a, x)), name


class TestFactorSolve:
    def test_scaled_identity(self):
        f = factor_spd(dense(4.0 * np.eye(2)))
        assert np.allclose(np.diag(f[0]), [2.0, 2.0])
        assert np.allclose(cho_solve(f, np.array([4.0, 8.0])), [1.0, 2.0])

    def test_hand_2x2(self):
        f = factor_spd(dense([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(cho_solve(f, np.array([3.0, 3.0])), [1.0, 1.0])

    def test_identity_unit_vector(self):
        f = factor_spd(sp.identity(4, format="csc"))
        e = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(cho_solve(f, e), e)

    def test_diagonal(self):
        f = factor_spd(dense(np.diag([2.0, 4.0])))
        assert np.allclose(cho_solve(f, np.array([2.0, 4.0])), [1.0, 1.0])

    def test_random_vs_dense_oracle(self, rng):
        a = random_spd(rng, 30)
        b = rng.standard_normal(30)
        x = cho_solve(factor_spd(a), b)
        x_ref = np.linalg.solve(a.toarray(), b)
        assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            factor_spd(dense([[1.0, 2.0], [2.0, 1.0]]))

    def test_solve_roundtrip(self, rng):
        a = random_spd(rng, 20)
        x = rng.standard_normal(20)
        got = cho_solve(factor_spd(a), spmv(a, x))
        assert np.linalg.norm(got - x) <= 1e-8 * np.linalg.norm(x)

    def test_multiple_rhs(self, rng):
        a = random_spd(rng, 12)
        b = rng.standard_normal((12, 4))
        x = cho_solve(factor_spd(a), b)
        assert np.allclose(a.toarray() @ x, b, atol=1e-9)


class TestRowNorms:
    def test_identity(self):
        assert np.allclose(row_norms_sq(sp.identity(3, format="csc")), np.ones(3))

    def test_hand_2x2(self):
        assert np.allclose(row_norms_sq(dense([[2.0, 1.0], [1.0, 2.0]])), [5.0, 5.0])

    def test_random_vs_dense_oracle(self, rng):
        a = random_spd(rng, 40, density=0.2)
        ref = (a.toarray() ** 2).sum(axis=1)
        assert np.allclose(row_norms_sq(a), ref, atol=1e-12 * max(1.0, ref.max()))

    def test_non_symmetric_rows_not_columns(self):
        # row sums differ from column sums; an empty last row still gets a 0
        a = dense([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(row_norms_sq(a), [5.0, 9.0, 0.0])
        b = sp.random(30, 30, density=0.2, format="csc", random_state=np.random.RandomState(7))
        ref = (b.toarray() ** 2).sum(axis=1)
        assert np.allclose(row_norms_sq(b), ref, rtol=1e-14, atol=0.0)
