"""Unit tests for the velocity fixed-point solver building blocks."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from condsim import solver
from condsim.baselines import factor_spd
from condsim.contacts import (
    ContactMap,
    augment_dynamics,
    contact_frames,
    contact_jacobian_matrix,
    detect_contacts,
    nodalize,
)
from condsim.dynamics import assemble_step, triples
from condsim.errors import DivergenceError, InvalidMatrixError
from condsim.harness import RunConfig, build_scene, external_force, load_scenario
from condsim.solver import (
    SCALAR_BATCH_MAX,
    SolverConfig,
    _project_batch,
    chebyshev_nu,
    chebyshev_update,
    contact_solve_oneshot,
    estimate_rho,
    inverse_contact,
    project,
    scc_residual,
    solve_vfpi,
    step_matrix_frobenius,
    surrogate_gamma,
)
from condsim.sparse import row_norms_sq, spmv

from conftest import (
    build_augmented,
    contact_set,
    random_contact_augmentation,
    random_contact_set,
    random_spd,
    scenario_path,
)

UP = contact_frames(np.array([0.0, 0.0, 1.0]))[0]  # the frame of a contact with normal +z

lam3 = st.tuples(
    st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
)


def in_cone(lam, mu, tol=1e-12):
    return lam[0] >= -tol and np.linalg.norm(lam[1:]) <= mu * lam[0] + tol


def random_cone_point(g, mu):
    ln = g.uniform(0.0, 5.0)
    ang = g.uniform(0.0, 2 * np.pi)
    rad = g.uniform(0.0, mu * ln)
    return np.array([ln, rad * np.cos(ang), rad * np.sin(ang)])


class TestProjectStrict:
    def test_radial_clamp(self):
        assert np.allclose(project(np.array([1.0, 0.5, 0.0]), 0.2), [1.0, 0.2, 0.0])

    def test_open_contact(self):
        assert np.allclose(project(np.array([-1.0, 0.3, 0.4]), 0.2), np.zeros(3))

    def test_interior_unchanged(self):
        lam = np.array([1.0, 0.1, 0.0])
        assert np.array_equal(project(lam, 0.2), lam)

    @settings(max_examples=200, deadline=None)
    @given(lam3, st.floats(0.05, 1.5))
    def test_in_cone_and_idempotent(self, lam, mu):
        out = project(np.array(lam), mu)
        assert in_cone(out, mu)
        assert np.allclose(project(out, mu), out, atol=1e-12)


    def test_batch_paths_agree(self, rng):
        # few contacts take the Python-float loop, many the vectorized path;
        # both must give the same bits, signed zeros and NaN included
        lam = 2.0 * rng.standard_normal((60, 3))
        lam[:6] = [[-0.0, 0.0, -0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0],
                   [np.nan, 1.0, 0.0], [2.0, -0.0, 0.0], [-0.0, 1.0, -1.0]]
        mu = rng.uniform(0.0, 1.0, 60)
        whole = _project_batch(lam, mu, None, "strict")
        step = SCALAR_BATCH_MAX
        parts = np.concatenate([
            _project_batch(lam[k:k + step], mu[k:k + step], None, "strict")
            for k in range(0, 60, step)
        ])
        assert np.array_equal(whole, parts, equal_nan=True)
        assert np.array_equal(np.signbit(whole), np.signbit(parts))
        for m in range(60):
            assert np.array_equal(project(lam[m], mu[m]), whole[m], equal_nan=True)


class TestProjectProximal:
    def test_boundary_case(self):
        assert np.allclose(project(np.array([0.0, 1.0, 0.0]), 1.0, "proximal"), [0.5, 0.5, 0.0])

    def test_polar_cone(self):
        assert np.allclose(project(np.array([-1.0, 0.0, 0.0]), 0.5, "proximal"), np.zeros(3))

    def test_matches_nearest_point_by_sampling(self, rng):
        # Euclidean projection: no sampled cone point may be closer
        for _ in range(100):
            lam_star = 5.0 * rng.standard_normal(3)
            mu = rng.uniform(0.1, 1.5)
            out = project(lam_star, mu, "proximal")
            assert in_cone(out, mu)
            d_out = np.linalg.norm(out - lam_star)
            for _ in range(50):
                cand = random_cone_point(rng, mu)
                assert d_out <= np.linalg.norm(cand - lam_star) + 1e-10

    @settings(max_examples=200, deadline=None)
    @given(lam3, lam3, st.floats(0.05, 1.5))
    def test_non_expansive(self, a, b, mu):
        pa = project(np.array(a), mu, "proximal")
        pb = project(np.array(b), mu, "proximal")
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(np.array(a) - np.array(b)) + 1e-12


class TestProjectAnisotropic:
    def test_isotropy_reduces_to_strict(self, rng):
        for _ in range(100):
            lam = 5.0 * rng.standard_normal(3)
            mu = rng.uniform(0.1, 1.5)
            assert np.allclose(
                project(lam, mu, "strict-anisotropic", mu), project(lam, mu), atol=1e-10
            )

    def test_nonpositive_normal_gives_zero(self):
        assert np.allclose(project(np.array([-0.3, 1.0, 2.0]), 0.2, "strict-anisotropic", 0.5), 0.0)

    def test_matches_dense_ellipse_sampling_oracle(self, rng):
        angles = np.linspace(0.0, 2 * np.pi, 4001)
        for _ in range(50):
            lam = np.abs(rng.standard_normal()) * np.array([1.0, 0.0, 0.0]) + np.concatenate(
                [[0.0], 3.0 * rng.standard_normal(2)]
            )
            lam[0] = abs(lam[0]) + 0.1
            mu1, mu2 = rng.uniform(0.1, 1.0, 2)
            out = project(lam.copy(), mu1, "strict-anisotropic", mu2)
            a, b = mu1 * lam[0], mu2 * lam[0]
            if (lam[1] / a) ** 2 + (lam[2] / b) ** 2 <= 1.0:
                assert np.allclose(out, lam)
                continue
            boundary = np.stack([a * np.cos(angles), b * np.sin(angles)], axis=1)
            dists = np.linalg.norm(boundary - lam[1:], axis=1)
            assert out[0] == lam[0]
            assert np.linalg.norm(out[1:] - lam[1:]) <= dists.min() + 1e-4

    @settings(max_examples=1000, deadline=None)
    @given(
        st.floats(-2.0, 2.0),  # log10 of ln
        st.floats(-2.0, 0.3),  # log10 of mu1
        st.floats(-3.0, 3.0),  # log10 of mu2 / mu1
        st.one_of(
            st.floats(0.0, 2 * np.pi).map(lambda ang: (np.cos(ang), np.sin(ang))),
            st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]),
        ),
        st.floats(-12.0, 6.0),  # log10 of the distance outside, over max(a, b)
    )
    def test_outside_point_projects_along_the_normal(self, e_ln, e_mu, e_ratio, direction, e_out):
        # the closest point x to p lies on the ellipse, and p - x is a
        # non-negative multiple of the outward normal (x/a^2, y/b^2)
        ln, mu1 = 10.0**e_ln, 10.0**e_mu
        mu2 = mu1 * 10.0**e_ratio
        a, b = mu1 * ln, mu2 * ln
        c, s = direction
        on = np.array([a * c, b * s])
        normal = np.array([c / a, s / b])
        p = on + 10.0**e_out * max(a, b) * normal / np.linalg.norm(normal)
        assume((p[0] / a) ** 2 + (p[1] / b) ** 2 > 1.0)
        out = project(np.array([ln, p[0], p[1]]), mu1, "strict-anisotropic", mu2)
        assert out[0] == ln
        x = out[1:]
        assert abs((x[0] / a) ** 2 + (x[1] / b) ** 2 - 1.0) <= 1e-12
        d = p - x
        nx = np.array([x[0] / a**2, x[1] / b**2])
        assert abs(d[0] * nx[1] - d[1] * nx[0]) <= 1e-10 * np.linalg.norm(p) * np.linalg.norm(nx)
        assert d @ nx >= 0.0

    def test_degenerate_ellipse_projects_onto_segment(self):
        # a zero friction coefficient leaves a segment on the other axis (or a
        # point), and projecting onto it must not divide by zero
        lam = np.array([[2.0, 0.3, -0.5], [2.0, -3.0, 0.1], [2.0, 0.3, -5.0], [-1.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mu1, mu2 in ((0.0, 0.5), (0.5, 0.0), (0.0, 0.0)):
                out = _project_batch(lam, np.full(4, mu1), np.full(4, mu2), "strict-anisotropic")
                ln = np.maximum(lam[:, 0], 0.0)
                expect = np.column_stack(
                    [ln, np.clip(lam[:, 1], -mu1 * ln, mu1 * ln), np.clip(lam[:, 2], -mu2 * ln, mu2 * ln)]
                )
                assert np.array_equal(out, expect)
                for row, e in zip(lam, expect):
                    assert np.array_equal(project(row, mu1, "strict-anisotropic", mu2), e)


class TestExtremeMagnitudes:
    """Rows whose squares overflow or underflow are projected scaled by a
    power of two; every projection is positively homogeneous."""

    def test_the_four_rows(self):
        # entries 1e300 apart: the small ones are lost to rounding, not the
        # large ones
        big, tiny = np.array([1.0, 1e300, 1.0]), np.array([1e-300, 1e-300, 0.0])
        out = project(big, 0.5)  # the radial clamp of (1e300, 1) to 0.5
        assert out[0] == 1.0 and abs(out[1] - 0.5) <= 1e-16 and 0.0 <= out[2] <= 1e-300
        ln = (1.0 + 0.5e300) / 1.25  # the proximal boundary point
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out = project(big, 0.5, "proximal")
        assert np.allclose(out, [ln, 0.5 * ln, 0.5 * ln * 1e-300], rtol=1e-14, atol=0.0)
        # a point 2e300 semi-axes out: the ellipse's far-field limit, (a, ~0)
        out = project(big, 0.5, "strict-anisotropic", 0.3)
        assert out[0] == 1.0 and abs(out[1] - 0.5) <= 1e-16 and 0.0 <= out[2] <= 1e-300
        out = project(tiny, 0.5, "strict-anisotropic", 0.3)
        assert np.allclose(out, [1e-300, 0.5e-300, 0.0], rtol=1e-15, atol=0.0)
        assert np.allclose(project(tiny, 0.5), [1e-300, 0.5e-300, 0.0], rtol=1e-15, atol=0.0)

    def test_tangent_below_a_vanished_normal(self):
        # the squares underflow to 0, yet the tangent lies outside the cone
        for operator in ("strict", "strict-anisotropic"):
            assert np.array_equal(project([0.0, 1e-200, -1e-200], 0.5, operator, 0.3), [0.0, 0.0, 0.0])
        assert np.array_equal(project([1e-300, 1e-170, 0.0], 0.5)[1:], [0.5e-300, 0.0])

    @staticmethod
    def _inside(out, mu1, mu2, operator):
        """Each row in its cone or ellipse up to rounding, checked on the
        row scaled into [0.5, 1) by a power of two."""
        e = np.frexp(np.abs(out).max(axis=1))[1]
        x = np.ldexp(out, -e[:, None])
        ln, t1, t2 = x.T
        if operator == "strict-anisotropic":
            excess = (t1 * mu2) ** 2 + (t2 * mu1) ** 2 - (mu1 * mu2 * ln) ** 2
        else:
            excess = t1 * t1 + t2 * t2 - (mu1 * ln) ** 2
        return np.all(ln >= 0.0) and np.all(excess <= 1e-12 * np.maximum(ln * ln, 1e-300))

    def test_random_rows_near_the_float_limits(self, rng):
        # 20,000 rows of entries near 1e+-300: none raises, and the results
        # are finite, and in the cone or ellipse on every path that rescales:
        # all but the strict array path, whose rows go through floats here too
        n = 20_000
        mag = 10.0 ** (rng.choice([-300.0, 300.0], (n, 3)) + rng.uniform(-8.0, 8.0, (n, 3)))
        lam = rng.choice([-1.0, 1.0], (n, 3)) * mag
        mu1, mu2 = rng.uniform(0.05, 1.0, n), rng.uniform(0.05, 1.0, n)
        for operator in solver.OPERATORS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out = _project_batch(lam, mu1, mu2, operator)
            assert np.isfinite(out).all(), operator
            if operator != "strict":  # the strict array path does not rescale
                assert self._inside(out, mu1, mu2 if operator == "strict-anisotropic" else mu1, operator), operator
        floats = np.concatenate([
            _project_batch(lam[k:k + SCALAR_BATCH_MAX], mu1[k:k + SCALAR_BATCH_MAX], None, "strict")
            for k in range(0, n, SCALAR_BATCH_MAX)
        ])
        assert np.isfinite(floats).all() and self._inside(floats, mu1, mu1, "strict")

    def test_homogeneous_on_normal_rows(self, rng):
        # scaling a normal-range row by 2^k scales its projection by 2^k,
        # on every path that rescales (the strict rows as floats)
        lam = rng.standard_normal((SCALAR_BATCH_MAX, 3))
        mu1, mu2 = rng.uniform(0.05, 1.0, SCALAR_BATCH_MAX), rng.uniform(0.05, 1.0, SCALAR_BATCH_MAX)
        for operator in solver.OPERATORS:
            ref = _project_batch(lam, mu1, mu2, operator)
            for k in (-900, 900):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    out = _project_batch(np.ldexp(lam, k), mu1, mu2, operator)
                assert np.allclose(np.ldexp(out, -k), ref, rtol=1e-12, atol=1e-12), (operator, k)


class TestStepMatrixFrobenius:
    def test_identity_no_contacts(self):
        w = step_matrix_frobenius(build_augmented(sp.identity(4, format="csc"), np.zeros(4), contact_set(4)))
        assert np.allclose(w, np.ones(4))

    def test_contacted_node_tie(self):
        a = sp.csc_matrix(np.diag([2.0, 2.0, 2.0]))
        aug = build_augmented(a, np.zeros(3), contact_set(3, [0], UP, 0.5))
        w = step_matrix_frobenius(aug)
        assert np.allclose(w, 0.5)  # (2+2+2) / (4+4+4)

    def test_locally_minimizes_frobenius_norm(self, rng):
        a = random_spd(rng, 12)
        w = step_matrix_frobenius(build_augmented(a, np.zeros(12), contact_set(12)))
        dense = a.toarray()

        def fro(wv):
            return np.linalg.norm(np.eye(12) - np.diag(wv) @ dense)

        base = fro(w)
        for i in range(12):
            for fac in (0.9, 1.1):
                trial = w.copy()
                trial[i] *= fac
                assert fro(trial) >= base - 1e-12

    def test_tied_group_scan(self, rng):
        nodal = random_contact_set(rng, n_nodes=6, n_contacts=3)
        n = nodal.n_orig
        a = random_spd(rng, n)
        aug = build_augmented(a, np.zeros(n), nodal)
        w = step_matrix_frobenius(aug)
        dense = a.toarray()

        def fro(wv):
            return np.linalg.norm(np.eye(n) - np.diag(wv) @ dense)

        base = fro(w)
        for col in aug.contacts.columns.node_idx[:, 0]:
            for fac in (0.9, 1.1):
                trial = w.copy()
                trial[col : col + 3] *= fac
                assert fro(trial) >= base - 1e-12

    def test_matches_per_group_loop(self, rng):
        # reference: one contacted node at a time, the sum of its three
        # diagonal entries over the sum of their row norms, left to right
        for _ in range(20):
            nodal = random_contact_set(rng)
            n = nodal.n_orig
            a = random_spd(rng, n)
            aug = build_augmented(a, np.zeros(n), nodal)
            nodes = sorted({*nodal.columns.col_i.tolist(), *nodal.columns.col_j[nodal.columns.col_j >= 0].tolist()})
            diag, rns = a.diagonal(), row_norms_sq(a)
            ref = diag / rns
            for col in nodes:
                idx = slice(col, col + 3)
                ref[idx] = sum(diag[idx].tolist()) / sum(rns[idx].tolist())
            assert np.array_equal(step_matrix_frobenius(aug), ref)
            assert aug.contacts.columns.node_idx[:, 0].tolist() == nodes

    def test_one_w_under_every_operator(self, rng, monkeypatch):
        # the operator picks the projection only: solve_vfpi hands
        # surrogate_gamma the same W under each, D-contacts included
        nodal = random_contact_set(rng, n_nodes=12, n_contacts=6)
        assert np.any(nodal.columns.col_j >= 0)
        n = nodal.n_orig
        aug = build_augmented(random_spd(rng, n), rng.standard_normal(n), nodal)
        seen = []

        def spy(w, aug, omega=0.0):
            seen.append(w.copy())
            return surrogate_gamma(w, aug, omega)

        monkeypatch.setattr(solver, "surrogate_gamma", spy)
        for operator in solver.OPERATORS:
            solve_vfpi(aug, SolverConfig(operator=operator, max_iters=3), np.zeros(n))
        assert len(seen) == len(solver.OPERATORS)
        for w in seen[1:]:
            assert np.array_equal(w, seen[0])


class TestSurrogateGamma:
    def _aug(self, n, col_j=-1):
        return build_augmented(sp.identity(n, format="csc"), np.zeros(n), contact_set(n, [0], UP, 0.5, col_j))

    def test_s_contact(self):
        aug = self._aug(3)
        w = np.full(3, 2.0)
        assert np.allclose(surrogate_gamma(w, aug), [2.0])

    def test_d_contact(self):
        aug = self._aug(6, col_j=3)
        w = np.concatenate([np.full(3, 2.0), np.full(3, 3.0)])
        assert np.allclose(surrogate_gamma(w, aug), [5.0])

    def test_matches_brute_force_triple_product(self, rng):
        for _ in range(20):
            nodal = random_contact_set(rng)
            n = nodal.n_orig
            a = random_spd(rng, n)
            aug = build_augmented(a, np.zeros(n), nodal)
            w = step_matrix_frobenius(aug)
            gamma = surrogate_gamma(w, aug)
            jc = contact_jacobian_matrix(aug).toarray()
            prod = jc @ np.diag(w) @ jc.T
            ref = np.kron(np.diag(gamma), np.eye(3))
            assert np.abs(prod - ref).max() <= 1e-12

    def test_the_solver_skips_the_check_on_its_own_w(self, rng, monkeypatch):
        # step_matrix_frobenius ties W as it makes it and returns it
        # read-only; surrogate_gamma checks only a writeable W
        aug, w = random_contact_augmentation(rng)
        assert not w.flags.writeable
        checked = []
        monkeypatch.setattr(solver, "_check_tie", lambda *args: checked.append(args))
        solve_vfpi(aug, SolverConfig(max_iters=3), np.zeros(aug.n))
        assert checked == []
        assert np.array_equal(surrogate_gamma(w, aug), surrogate_gamma(np.array(w), aug))
        assert len(checked) == 1

    def test_tie_violation_rejected(self):
        # an S-contact node, then a D-contact's second node, out of tie
        for aug, w in ((self._aug(3), [1.0, 2.0, 3.0]), (self._aug(6, col_j=3), [2.0, 2.0, 2.0, 3.0, 3.0, 4.0])):
            with pytest.raises(InvalidMatrixError, match="violates the per-node ties"):
                surrogate_gamma(np.array(w), aug)


def _bits(x: np.ndarray) -> np.ndarray:
    """The bits of x with every NaN made the one quiet NaN: a sum of a NaN
    and another NaN keeps whichever operand the compiled code reads first,
    and C compilers may swap the operands of a commutative float sum."""
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


class TestOneShot:
    def test_resting_normal(self):
        gamma = np.array([1.0])
        lam = contact_solve_oneshot(
            gamma, np.array([[-9.81, 0.0, 0.0]]), np.zeros(1), np.array([0.5])
        )
        assert np.allclose(lam, [[9.81, 0.0, 0.0]])

    def test_separating_open(self):
        gamma = np.array([1.0])
        lam = contact_solve_oneshot(
            gamma, np.array([[0.5, 0.0, 0.0]]), np.zeros(1), np.array([0.5])
        )
        assert np.allclose(lam, 0.0)

    def test_strict_satisfies_scc_exactly(self, rng):
        for _ in range(50):
            n_c = 8
            gamma = rng.uniform(0.1, 2.0, n_c)
            eta = rng.standard_normal((n_c, 3))
            phi = -np.abs(rng.standard_normal(n_c)) * 0.1
            mu = rng.uniform(0.1, 1.0, n_c)
            lam = contact_solve_oneshot(gamma, eta, phi, mu, "strict")
            v = gamma[:, None] * lam + eta  # surrogate contact velocity
            assert scc_residual(v, lam, phi, mu).max() <= 1e-10

    def test_matches_per_contact_bisection_oracle(self, rng):
        # independent oracle for one strict contact: the normal impulse from
        # scalar complementarity, the tangential impulse by minimizing the
        # surrogate quadratic over the disk via dense direction sampling
        for _ in range(200):
            g = float(rng.uniform(0.1, 2.0))
            eta = rng.standard_normal(3)
            phi = float(-abs(rng.standard_normal()) * 0.1)
            mu = float(rng.uniform(0.1, 1.0))
            lam = contact_solve_oneshot(
                np.array([g]), eta.reshape(1, 3), np.array([phi]), np.array([mu])
            ).ravel()
            ln_ref = max(0.0, -(eta[0] + phi) / g)
            assert abs(lam[0] - ln_ref) <= 1e-12
            # tangential minimizer of 0.5 g |lt|^2 + lt . eta_t over the disk
            tn = np.linalg.norm(eta[1:])
            if tn == 0.0:
                lt_ref = np.zeros(2)
            else:
                radius = min(tn / g, mu * ln_ref)
                lt_ref = -radius * eta[1:] / tn
            assert np.linalg.norm(lam[1:] - lt_ref) <= 1e-8


    SPECIAL = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300])

    @classmethod
    def _special_system(cls, g, n_c):
        """(aug, gamma, v*) over n_c contacts, about half of them D-contacts,
        with NaN, signed zeros, infinities and magnitudes near 1e+-300 among
        normal entries of v*, phi and gamma. Contact 0 has the +z frame,
        whose entries are all >= 0, over a v* of -0.0: its products and
        sums are all -0.0, where einsum's sums start from +0.0."""
        col_j = np.where(g.random(n_c) < 0.5, 6 * np.arange(n_c) + 3, -1)
        frames = contact_frames(g.standard_normal((n_c, 3)))
        frames[0] = UP
        phi = -0.1 * np.abs(g.standard_normal(n_c))
        hit = g.random(n_c) < 0.3
        phi[hit] = g.choice(cls.SPECIAL, hit.sum())
        nodal = contact_set(6 * n_c, 6 * np.arange(n_c), frames, 0.0, col_j, 0.0)
        nodal = dataclasses.replace(nodal, mu=g.uniform(0.05, 1.0, n_c), mu2=g.uniform(0.05, 1.0, n_c), phi=phi)
        aug = build_augmented(sp.identity(6 * n_c, format="csc"), np.zeros(6 * n_c), nodal)
        v = g.standard_normal(6 * n_c)
        hit = g.random(6 * n_c) < 0.3
        v[hit] = g.choice(cls.SPECIAL, hit.sum())
        v[:6] = [-0.0, -0.0, -0.0, 0.0, 0.0, 0.0]
        gamma = g.uniform(0.1, 2.0, n_c)
        hit = g.random(n_c) < 0.2
        gamma[hit] = g.choice(np.array([1e-300, 1e300, np.inf, np.nan]), hit.sum())
        return aug, gamma, v

    @staticmethod
    def _chain(aug, gamma, v, operator):
        """ContactMap.jc, the array scaling, _project_batch, ContactMap.jc_t."""
        nodal, jmap = aug.contacts, ContactMap(aug)
        lam_star = -jmap.jc(v)
        lam_star[:, 0] -= nodal.phi
        lam_star /= gamma[:, None]
        lam = _project_batch(lam_star, nodal.mu, nodal.mu2, operator)
        return lam, jmap.jc_t(lam)

    @pytest.mark.parametrize("operator, sizes", [
        ("strict", (1, 2, 4, 15, SCALAR_BATCH_MAX, SCALAR_BATCH_MAX + 1)),
        ("strict-anisotropic", (1, 4, SCALAR_BATCH_MAX, SCALAR_BATCH_MAX + 1, 40)),
        ("proximal", (1, SCALAR_BATCH_MAX, SCALAR_BATCH_MAX + 1)),
    ])
    def test_one_pass_matches_array_scaling(self, rng, operator, sizes):
        # the contact pass (one pass over floats on small strict batches,
        # the array chain otherwise) gives the chain's bits: lam and J_c^T lam
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for n_c in sizes:
                for _ in range(40):
                    aug, gamma, v = self._special_system(rng, n_c)
                    got = solver.contact_pass(aug, gamma, operator)(v)
                    for x, y in zip(got, self._chain(aug, gamma, v, operator)):
                        assert x.shape == y.shape
                        assert np.array_equal(_bits(x), _bits(y)), (operator, n_c)

    def test_float_pass_on_small_strict_batches_only(self, rng):
        aug, gamma, _ = self._special_system(rng, SCALAR_BATCH_MAX)
        for operator in solver.OPERATORS:
            pass_ = solver.contact_pass(aug, gamma, operator)
            assert (pass_.__name__ == "float_pass") == (operator != "proximal"), operator
        aug, gamma, _ = self._special_system(rng, SCALAR_BATCH_MAX + 1)
        for operator in solver.OPERATORS:
            assert solver.contact_pass(aug, gamma, operator).__name__ == "chain", operator

    def test_zero_gamma_takes_the_array_scaling(self):
        # floats raise on a division by zero; numpy's IEEE division does not
        aug = build_augmented(sp.identity(6, format="csc"), np.zeros(6), contact_set(6, [0, 3], [UP, UP], 0.5))
        v = np.array([0.0, 0.0, -1.0, 0.0, 0.0, -1.0])  # eta_n = -1 at both contacts
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for operator in ("strict", "strict-anisotropic"):
                pass_ = solver.contact_pass(aug, np.array([0.0, 1.0]), operator)
                assert pass_.__name__ == "chain"
                lam, f_c = pass_(v)
                assert lam[0, 0] == np.inf and np.array_equal(lam[1], [1.0, 0.0, 0.0])


def _same(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal shapes, values and zero signs."""
    return x.shape == y.shape and np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


class TestComponentMajorChain:
    """The array contact pass over component-major arrays against copies of
    the (n_c, 3) formulas it replaced, bit for bit: the two einsums, the
    scatter and the 0.0 - world of the second sides."""

    @staticmethod
    def _system(g, n_c):
        """(aug, v*, lam) over n_c contacts, about half of them D-contacts,
        with signed zeros among the frame entries, v* and lam. Contact 0 has
        the +z frame, whose entries are all >= 0, over a v* of -0.0, so its
        products and sums are all -0.0, where einsum's sums start from +0.0."""
        col_j = np.where(g.random(n_c) < 0.5, 6 * np.arange(n_c) + 3, -1)
        col_j[:2] = [-1, 3]  # both kinds of contact in every set
        frames = contact_frames(g.standard_normal((n_c, 3)))
        frames[g.random(frames.shape) < 0.1] = 0.0
        frames[g.random(frames.shape) < 0.1] = -0.0
        frames[0] = UP
        nodal = contact_set(6 * n_c, 6 * np.arange(n_c), frames, 0.0, col_j, 0.0)
        nodal = dataclasses.replace(
            nodal, mu=g.uniform(0.05, 1.0, n_c), mu2=g.uniform(0.05, 1.0, n_c), phi=-0.1 * np.abs(g.standard_normal(n_c))
        )
        aug = build_augmented(sp.identity(6 * n_c, format="csc"), np.zeros(6 * n_c), nodal)
        v, lam = g.standard_normal(6 * n_c), g.standard_normal((n_c, 3))
        for x in (v, lam):
            x[g.random(x.shape) < 0.15] = 0.0
            x[g.random(x.shape) < 0.15] = -0.0
        v[:6] = [-0.0, -0.0, -0.0, 0.0, 0.0, 0.0]
        return aug, v, lam

    @staticmethod
    def _jc(aug, v):
        cols = aug.contacts.columns
        rel = v[triples(cols.col_i)]
        rel[cols.has_j] -= v[triples(cols.j_cols)]
        return np.einsum("mab,mb->ma", aug.frames, rel)

    @staticmethod
    def _jc_t(aug, lam):
        cols = aug.contacts.columns
        out = np.zeros(aug.n)
        world = np.einsum("mba,mb->ma", aug.frames, np.ascontiguousarray(lam))
        out[triples(cols.col_i)] = world
        out[triples(cols.j_cols)] = 0.0 - world[cols.has_j]
        return out

    SIZES = (17, 36, 300)

    @pytest.mark.parametrize("n_c", SIZES)
    def test_products_match_the_row_major_formulas(self, rng, n_c):
        for _ in range(20):
            aug, v, lam = self._system(rng, n_c)
            jmap = ContactMap(aug)
            eta = jmap.jc(v)
            assert _same(eta, self._jc(aug, v))
            assert eta.T.flags.c_contiguous
            for layout in (np.ascontiguousarray(lam), np.asfortranarray(lam)):
                assert _same(jmap.jc_t(layout), self._jc_t(aug, lam))

    @pytest.mark.parametrize("operator", solver.OPERATORS)
    @pytest.mark.parametrize("n_c", SIZES)
    def test_contact_pass_matches_the_row_major_chain(self, rng, n_c, operator):
        for _ in range(20):
            aug, v, _ = self._system(rng, n_c)
            nodal = aug.contacts
            gamma = rng.uniform(0.1, 2.0, n_c)
            lam_star = -self._jc(aug, v)
            lam_star[:, 0] -= nodal.phi
            lam_star /= gamma[:, None]
            lam = _project_batch(lam_star, nodal.mu, nodal.mu2, operator)
            got = solver.contact_pass(aug, gamma, operator)(v)
            assert _same(got[0], lam) and _same(got[1], self._jc_t(aug, lam)), operator

    @pytest.mark.parametrize("operator", solver.OPERATORS)
    @pytest.mark.parametrize("n_c", SIZES)
    def test_projection_keeps_its_bits_in_either_layout(self, rng, n_c, operator):
        for _ in range(20):
            aug, v, lam = self._system(rng, n_c)
            nodal = aug.contacts
            gamma = rng.uniform(0.1, 2.0, n_c)
            eta = 3.0 * lam
            c_order, f_order = np.ascontiguousarray(eta), np.asfortranarray(eta)
            ref = contact_solve_oneshot(gamma, c_order, nodal.phi, nodal.mu, operator, nodal.mu2)
            got = contact_solve_oneshot(gamma, f_order, nodal.phi, nodal.mu, operator, nodal.mu2)
            assert _same(got, ref)
            if operator != "strict-anisotropic":  # the float rows build a new C array
                assert got.T.flags.c_contiguous
            assert _same(_project_batch(f_order, nodal.mu, nodal.mu2, operator),
                         _project_batch(c_order, nodal.mu, nodal.mu2, operator))
            for m in range(3):  # one row of each layout: contiguous, and strided
                ref = project(c_order[m], nodal.mu[m], operator, nodal.mu2[m])
                assert _same(project(f_order[m], nodal.mu[m], operator, nodal.mu2[m]), ref)


    @staticmethod
    def _strict(lam_star, mu):
        """The strict array projection as it scaled only the rows over the
        limit, through their indices."""
        out = lam_star.copy()
        ln, t1, t2 = out.T
        np.maximum(ln, 0.0, out=ln)
        ln += 0.0
        limit = mu * ln
        tn = np.sqrt(t1 * t1 + t2 * t2)
        over = np.flatnonzero(tn > limit)
        tn = tn[over]
        scale = np.divide(limit[over], tn, out=np.zeros_like(tn), where=tn > 0)
        t1[over] *= scale
        t2[over] *= scale
        return out

    def test_strict_scaling_matches_the_indexed_rows(self, rng):
        # sticking and sliding rows, signed zeros, infinite and NaN entries,
        # tangents whose squares underflow, and negative friction
        # coefficients, where a zero tangent lies over a negative limit; the
        # infinities make 0 * inf and inf / inf, which both formulas meet
        with np.errstate(invalid="ignore"):
            self._check_strict_scaling(rng)

    def _check_strict_scaling(self, rng):
        for n_c in self.SIZES:
            for _ in range(20):
                lam = rng.standard_normal((n_c, 3)) * rng.choice([1e-170, 1.0, 1e3], (n_c, 1))
                for value in (0.0, -0.0, np.inf, -np.inf, np.nan):
                    lam[rng.random(lam.shape) < 0.04] = value
                mu = rng.uniform(-0.5, 1.0, n_c)
                mu[rng.random(n_c) < 0.1] = 0.0
                ref = self._strict(lam, mu)
                for layout in (np.ascontiguousarray(lam), np.asfortranarray(lam)):
                    got = _project_batch(layout, mu, None, "strict")
                    assert np.array_equal(got, ref, equal_nan=True)
                    assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestChebyshev:
    def test_before_start(self):
        assert chebyshev_nu(3, 10, 0.7, 1.0) == 1.0

    def test_at_start_zero_rho(self):
        assert chebyshev_nu(10, 10, 0.0, 1.0) == 1.0

    def test_after_start(self):
        assert np.isclose(chebyshev_nu(11, 10, 0.9, 1.0), 4.0 / (4.0 - 0.81))

    def test_update_formula(self):
        v_ss = np.array([2.0, 0.0])
        v_pp = np.array([1.0, 1.0])
        assert np.allclose(chebyshev_update(v_ss, v_pp, 1.5), [2.5, -0.5])

    def test_estimate_rho(self):
        assert estimate_rho(0.5, 1.0) == 0.5
        assert estimate_rho(2.0, 1.0) == 1.0
        assert estimate_rho(0.0, 1.0) == 0.0
        assert estimate_rho(1.0, 0.0, prev_rho=0.3) == 0.3


class TestSccResidual:
    def test_open_contact(self):
        r = scc_residual(np.array([0.3, 0.0, 0.0]), np.zeros(3), np.zeros(1), np.array([0.2]))
        assert r.max() <= 1e-15

    def test_stick(self):
        r = scc_residual(
            np.zeros(3), np.array([1.0, 0.1, 0.0]), np.zeros(1), np.array([0.2])
        )
        assert r.max() <= 1e-15

    def test_slip_opposing_at_boundary(self):
        r = scc_residual(
            np.array([0.0, 0.7, 0.0]),
            np.array([1.0, -0.2, 0.0]),
            np.zeros(1),
            np.array([0.2]),
        )
        assert r.max() <= 1e-12

    def test_penetrating_velocity_flagged(self):
        r = scc_residual(np.array([-0.4, 0.0, 0.0]), np.zeros(3), np.zeros(1), np.array([0.2]))
        assert r.max() >= 0.4 - 1e-12


class TestSolveVfpi:
    def test_contact_free_matches_direct_solve(self, rng):
        a = random_spd(rng, 20)
        b = rng.standard_normal(20)
        aug = build_augmented(a, b, contact_set(20))
        cfg = SolverConfig(residual_tol=1e-10, max_iters=5000, chebyshev=True)
        v, lam, rep = solve_vfpi(aug, cfg, np.zeros(20))
        ref = cho_solve(factor_spd(a), b)
        assert rep.converged
        assert np.linalg.norm(v - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))

    def test_resting_particle_equilibrium(self):
        a = sp.csc_matrix(200.0 * np.eye(3))
        b = np.array([0.0, 0.0, -9.81])
        aug = build_augmented(a, b, contact_set(3, [0], UP, 0.0))
        cfg = SolverConfig(residual_tol=1e-12, max_iters=200)
        v, lam, rep = solve_vfpi(aug, cfg, np.zeros(3))
        assert rep.converged
        assert np.allclose(v, 0.0, atol=1e-10)
        assert np.isclose(lam[0, 0], 9.81, atol=1e-8)

    def test_residual_trace_length_matches_iterations(self, rng):
        a = random_spd(rng, 9)
        aug = build_augmented(a, rng.standard_normal(9), contact_set(9))
        _, _, rep = solve_vfpi(aug, SolverConfig(residual_tol=1e-8, max_iters=500), np.zeros(9))
        assert len(rep.residual_trace) == rep.iterations

    def test_divergence_raises_with_trace(self, rng, monkeypatch):
        a = random_spd(rng, 6)
        aug = build_augmented(a, rng.standard_normal(6), contact_set(6))
        # W = 1e3 I steps far past 2 / lambda_max(A), so the iterates blow up
        monkeypatch.setattr(solver, "step_matrix_frobenius", lambda *args: np.full(6, 1e3))
        cfg = SolverConfig(max_iters=5000)
        with pytest.raises(DivergenceError) as exc, np.errstate(over="ignore", invalid="ignore"):
            solve_vfpi(aug, cfg, np.zeros(6))
        assert len(exc.value.residual_trace) > 0

    def test_consistency_at_convergence(self, rng):
        from condsim.sparse import spmv

        for _ in range(10):
            nodal = random_contact_set(rng)
            n = nodal.n_orig
            a = random_spd(rng, n)
            b = rng.standard_normal(n)
            aug = build_augmented(a, b, nodal)
            cfg = SolverConfig(operator="proximal", residual_tol=1e-8, max_iters=3000, chebyshev=True)
            v, lam, rep = solve_vfpi(aug, cfg, np.zeros(n))
            assert rep.converged
            res = np.linalg.norm(spmv(a, v) - b - ContactMap(aug).jc_t(lam))
            assert res <= 10 * cfg.residual_tol


def first_step(name: str, kv: float):
    """Augmented system of a bundled rigid-cube scenario's first step, with
    the cube's 4 floor contacts on virtual nodes tied to it with gain kv."""
    s = load_scenario(scenario_path(name))
    scene = build_scene(s, RunConfig(kv=kv))
    state, bodies = scene.state, scene.bodies
    asm = assemble_step(state, bodies, scene.constraints, external_force(scene, 0.0))
    raw = detect_contacts(state, bodies, scene.geometry)
    nodal = nodalize(raw, state, scene.k_v, scene.mu, scene.mu2, scene.stab)
    aug = augment_dynamics(asm, nodal)
    assert aug.n > aug.n_orig and len(nodal) == 4
    return aug


class TestAnderson:
    TOL = 1e-8

    @pytest.fixture(scope="class")
    def plain(self):
        """The box_slide cube, pushed past static friction; the same system
        with the tie gate off runs the un-accelerated loop."""
        aug = first_step("box_slide", kv=1e3)
        untied = dataclasses.replace(aug, n_orig=aug.n)
        cfg = SolverConfig(residual_tol=1e-11, max_iters=200_000)
        v, lam, rep = solve_vfpi(untied, cfg, np.zeros(aug.n))
        assert rep.converged
        return aug, v, lam, rep

    def test_converges_to_the_plain_fixed_point(self, plain):
        aug, v_ref, lam_ref, rep_ref = plain
        cfg = SolverConfig(residual_tol=self.TOL, max_iters=2000)
        v, lam, rep = solve_vfpi(aug, cfg, np.zeros(aug.n))
        assert rep.converged and rep.aa_rejected == 0
        assert len(rep.residual_trace) == rep.iterations < rep_ref.iterations / 10
        force = np.linalg.norm(spmv(aug.a, v) - aug.b - ContactMap(aug).jc_t(lam))
        assert force <= 10 * self.TOL
        assert np.linalg.norm(v - v_ref) <= 1e-8
        assert np.linalg.norm(lam - lam_ref) <= 1e-8 * np.linalg.norm(lam_ref)

    def test_chebyshev_does_not_apply(self, plain):
        aug = plain[0]
        runs = [
            solve_vfpi(aug, SolverConfig(residual_tol=self.TOL, chebyshev=cheb), np.zeros(aug.n))
            for cheb in (False, True)
        ]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][2].residual_trace == runs[1][2].residual_trace

    def test_safeguard_rejecting_every_candidate(self, plain, monkeypatch):
        aug, v_ref, lam_ref, _ = plain
        monkeypatch.setattr(solver, "AA_BOUND", 0.0)
        cfg = SolverConfig(residual_tol=self.TOL, max_iters=200_000)
        v, lam, rep = solve_vfpi(aug, cfg, np.zeros(aug.n))
        assert rep.converged and rep.aa_rejected > 0
        # each rejected candidate is followed by a plain step, which starts
        # the next history; the first evaluation and the first plain step
        # have no candidate before them
        assert rep.iterations == 2 + 2 * rep.aa_rejected
        assert np.linalg.norm(v - v_ref) <= 1e-7
        assert np.linalg.norm(lam - lam_ref) <= 1e-7 * np.linalg.norm(lam_ref)

    def test_consistency_belongs_to_the_returned_velocity(self):
        # on the launched anisotropic_slide cube's first step ||f|| falls
        # below tol long before the force check passes, so some of these caps
        # stop the solve after a failed force check on an earlier iterate
        aug = first_step("anisotropic_slide", kv=1e5)
        for cap in range(10, 40):
            cfg = SolverConfig(residual_tol=1e-4, max_iters=cap)
            v, lam, rep = solve_vfpi(aug, cfg, np.zeros(aug.n))
            force = np.linalg.norm(spmv(aug.a, v) - aug.b - ContactMap(aug).jc_t(lam))
            assert rep.consistency == pytest.approx(force, rel=1e-12)

    def test_non_finite_iterate_raises(self, plain):
        aug = plain[0]
        warm = np.zeros(aug.n)
        warm[aug.n_orig] = np.nan  # a virtual-node velocity
        with pytest.raises(DivergenceError) as exc:
            solve_vfpi(aug, SolverConfig(), warm)
        assert len(exc.value.residual_trace) > 0


def record_anderson(g_of_x, x0, max_iters, nan_calls=(), window=solver.AA_WINDOW):
    """Run ``solver._anderson`` with ``window`` on the map x -> g_of_x(x) for
    ``max_iters`` evaluations: with A = I, b = 0 and a zero contact force the
    force check fails wherever G(x) is nonzero. Returns every (x, G(x)) the
    solver evaluated, in order, the report and the returned G; the calls
    listed in ``nan_calls`` return NaN, which the safeguard must reject."""
    n = x0.shape[0]
    calls = []

    def step_map(x, r):
        g = np.full(n, np.nan) if len(calls) in nan_calls else g_of_x(x)
        calls.append((x.copy(), g))
        return g, None, np.zeros(n)

    report = solver.SolverReport()
    cfg = SolverConfig(residual_tol=1e-8, max_iters=max_iters)
    g = solver._anderson(step_map, sp.identity(n, format="csc"), np.zeros(n), x0, window, cfg, report)[0]
    return calls, report, g


class TestAndersonHistory:
    def test_candidates_match_lstsq_through_wraps_and_a_rejection(self):
        # a mildly nonlinear contraction in 40 unknowns: the differences stay
        # well conditioned, so the regularized Gram solve must agree with a
        # least-squares solve of the same differences
        rng = np.random.default_rng(5)
        n, window = 40, solver.AA_WINDOW
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        c = rng.standard_normal(n)

        def g_of_x(x):
            return 0.9 * q @ x + c + 0.1 * np.sin(x)

        reject = 2 * window + 5  # a candidate on 4 differences, after two restarts
        calls, report, _ = record_anderson(g_of_x, np.zeros(n), 4 * window, nan_calls=(reject,))
        assert report.aa_rejected == 1 and report.iterations == len(calls) == 4 * window
        # the reference keeps the history as lists of kept (G, f)
        hist = [(calls[0][1], calls[0][1] - calls[0][0])]
        candidates = 0
        for i, (x, g) in enumerate(calls[1:], start=1):
            g_last, f_last = hist[-1]
            if len(hist) > 1:
                d_g, d_f = (np.diff(np.array(h), axis=0) for h in zip(*hist))
                y = g_last - np.linalg.lstsq(d_f.T, f_last, rcond=None)[0] @ d_g
                assert np.linalg.norm(x - y) <= 1e-8 * np.linalg.norm(y - g_last), i
                candidates += 1
            else:
                assert np.array_equal(x, g_last), i
            if i == reject:
                hist = hist[-1:]
                continue
            hist = (hist if len(hist) <= window else hist[-1:]) + [(g, g - x)]
        # every call after the first was a candidate but the first plain step
        # and the one after the rejection
        assert candidates == len(calls) - 3

    @pytest.mark.parametrize("x0", [np.ones(6), np.zeros(6)])
    def test_repeated_iterate_takes_the_plain_step(self, x0):
        # a constant map: from x0 = c every difference is zero and M = 0; from
        # x0 = 0 the iterate repeats after one step and M gets a zero row. The
        # force check (||A g - b|| = ||c||) keeps the solve going.
        c = np.ones(6)
        calls, report, g = record_anderson(lambda x: c.copy(), x0, 12)
        assert report.iterations == len(calls) == 12 and not report.converged
        assert report.aa_rejected == 0
        assert all(np.array_equal(x, c) for x, _ in calls[1:])
        assert np.array_equal(g, c)

    def test_empty_window_is_the_plain_iteration(self):
        rng = np.random.default_rng(11)
        n = 12
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        c = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        calls, report, g = record_anderson(lambda x: 0.9 * q @ x + c, x0, 30, window=0)
        assert report.iterations == len(calls) == 30 and report.aa_rejected == 0
        assert np.array_equal(calls[0][0], x0)
        assert all(np.array_equal(x, calls[i][1]) for i, (x, _) in enumerate(calls[1:]))
        assert np.array_equal(g, calls[-1][1])

    def test_empty_window_raises_on_a_non_finite_step(self):
        # with no history there is no candidate to reject: NaN is divergence
        with pytest.raises(DivergenceError) as exc:
            record_anderson(lambda x: 0.5 * x, np.ones(4), 20, nan_calls=(3,), window=0)
        assert len(exc.value.residual_trace) == 4


class TestSpmvAccounting:
    """Products with A counted through ``solver.spmv``, the name perfbench's
    tracer replaces."""

    @staticmethod
    def counted(monkeypatch):
        points = []

        def spmv_at(a, x):
            points.append(x.tobytes())
            return spmv(a, x)

        monkeypatch.setattr(solver, "spmv", spmv_at)
        return points

    @pytest.mark.parametrize("chebyshev", [False, True])
    @pytest.mark.parametrize("max_iters", [3, 3000])
    def test_tie_free_solve_applies_a_once_per_iterate(self, monkeypatch, rng, chebyshev, max_iters):
        # converged solves end on a passed force check, capped ones on the
        # cap (the plain step need not contract on a random system)
        points = self.counted(monkeypatch)
        converged = []
        for _ in range(5):
            nodal = random_contact_set(rng)
            n = nodal.n_orig
            aug = build_augmented(random_spd(rng, n), rng.standard_normal(n), nodal)
            cfg = SolverConfig(residual_tol=1e-8, max_iters=max_iters, chebyshev=chebyshev)
            points.clear()
            _, _, rep = solve_vfpi(aug, cfg, np.zeros(n))
            converged.append(rep.converged)
            assert len(points) == rep.iterations + 1
        assert any(converged) == (max_iters > 3)

    def test_tied_solve_never_applies_a_twice_at_one_point(self, monkeypatch):
        # the launched anisotropic_slide cube's force check fails at many
        # iterates whose ||f|| is already below tol; caps stop some solves
        # right after such a failure
        aug = first_step("anisotropic_slide", kv=1e5)
        points = self.counted(monkeypatch)
        for cap in (12, 25, 40, 500):
            points.clear()
            _, _, rep = solve_vfpi(aug, SolverConfig(residual_tol=1e-4, max_iters=cap), np.zeros(aug.n))
            assert len(set(points)) == len(points) >= rep.iterations + 1


class TestInverseContact:
    def test_zero_contact_velocity(self, rng):
        nodal = random_contact_set(rng, n_nodes=4, n_contacts=2)
        n = nodal.n_orig
        a = random_spd(rng, n)
        aug = build_augmented(a, np.zeros(n), nodal)
        assert not aug.contacts.phi.any()
        lam = inverse_contact(aug, np.zeros(n), omega=1e-3)
        assert np.allclose(lam, 0.0)

    def test_separating_velocity_gives_zero(self):
        a = sp.identity(3, format="csc")
        aug = build_augmented(a, np.zeros(3), contact_set(3, [0], UP, 0.5))
        v = np.array([0.0, 0.0, 1.0])  # moving along the normal, separating
        lam = inverse_contact(aug, v, omega=1e-3)
        assert np.allclose(lam, 0.0)
