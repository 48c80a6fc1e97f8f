"""Sparse/dense kernel tests against dense numpy oracles."""

import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from condsim import sparse
from condsim.baselines import factor_spd
from condsim.contacts import DetectedContacts, augment_dynamics, detect_contacts, nodalize
from condsim.dynamics import assemble_step
from condsim.errors import DimensionMismatchError, InvalidMatrixError, NotPositiveDefiniteError
from condsim.harness import RunConfig, build_scene, external_force, load_scenario
from condsim.solver import step_matrix_frobenius
from condsim.sparse import (
    BINCOUNT_NNZ_MAX,
    BincountMatvec,
    column_norms_sq,
    csc_template,
    diagonal_positions,
    entry_columns,
    norm_chunks,
    row_norms_sq,
    spmv,
    with_data,
)

from conftest import ALL_SCENARIOS, TURNED, build_augmented, contact_set, perfbench_workloads, random_spd, scenario_path


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
    """``solve_vfpi`` multiplies a system above BINCOUNT_NNZ_MAX entries by
    ``a.T``, the CSC arrays of A read as CSR: exact wherever A is bitwise
    symmetric, which the assembled and the augmented matrices both are."""

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
                state = dataclasses.replace(state, q=np.concatenate([state.q[:3], TURNED]))
            f_ext = external_force(scene, 0.0)
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


def cube_on_lattice(side: int) -> dict:
    """The benchmark's dragged ``side`` x ``side`` x 3 lattice (seed 3) with
    its rigid cube resting on the middle of the top layer: four contacts
    between the cube's corners and lattice nodes, on virtual nodes."""
    workloads = perfbench_workloads()
    mid = 0.05 * (side // 2)
    return {**workloads.lattice_scenario(3, 1, side=side), "bodies": [workloads._cube((mid, mid, 0.24))]}


def solved_systems(monkeypatch, name: str, steps: int) -> list:
    """The augmented system of every solve in the first ``steps`` steps of
    the bundled scenario ``name``, or of ``cube_on_lattice(5)``, under
    ``RunConfig()``."""
    from condsim import harness

    solve, seen = harness.solve_vfpi, []

    def keeping(aug, *args, **kwargs):
        seen.append(aug)
        return solve(aug, *args, **kwargs)

    monkeypatch.setattr(harness, "solve_vfpi", keeping)
    raw = cube_on_lattice(5) if name == "cube_on_lattice" else load_scenario(scenario_path(name)).raw
    harness.run(harness.Scenario({**raw, "duration": steps * raw["step_size"]}), RunConfig())
    assert len(seen) == steps
    return seen


def rebuilt_layout_systems() -> list:
    """box_slide's turned cube augmented on its 4 contacts, on 3 of them,
    then on all 4 again: each change of the contact set rebuilds the
    contact layout and its tie layout."""
    scene = build_scene(load_scenario(scenario_path("box_slide")), RunConfig())
    state = dataclasses.replace(scene.state, q=np.concatenate([scene.state.q[:3], TURNED]))
    raw = detect_contacts(state, scene.bodies, scene.geometry)
    fewer = DetectedContacts(**{f.name: getattr(raw, f.name)[1:] for f in dataclasses.fields(raw)})
    fewer.proxies = raw.proxies
    out, layouts = [], []
    for detected in (raw, fewer, raw):
        asm = assemble_step(state, scene.bodies, scene.constraints)
        nodal = nodalize(detected, state, scene.k_v, scene.mu, scene.mu2, scene.stab)
        out.append(augment_dynamics(asm, nodal))
        layouts.append(nodal.layout.ties)
    assert len({id(x) for x in layouts}) == 3
    return out


STEPPED = [("lattice_drag", 5), ("box_slide", 20), ("particle_stack", 20)]


class TestDiagonalPositions:
    """``step_matrix_frobenius`` gathers A's diagonal at the positions that
    the system's pattern caches, the block pattern's or the tie layout's."""

    @pytest.mark.parametrize("name, steps", STEPPED)
    def test_gather_is_the_diagonal(self, monkeypatch, name, steps):
        for aug in solved_systems(monkeypatch, name, steps):
            assert np.array_equal(aug.a.data[aug.pattern.diag_pos], aug.a.diagonal())

    def test_after_layout_rebuilds(self):
        for aug in rebuilt_layout_systems():
            assert aug.n > aug.n_orig
            assert np.array_equal(aug.a.data[aug.pattern.diag_pos], aug.a.diagonal())

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_block_pattern_reads_the_scan_positions(self, name):
        # BlockPattern.build takes them from its block CSR, not from a scan
        scene = build_scene(load_scenario(scenario_path(name)), RunConfig())
        csc = assemble_step(scene.state, scene.bodies, scene.constraints).pattern.csc
        assert np.array_equal(csc.diag_pos, diagonal_positions(csc.indices, csc.indptr))

    def test_found_in_any_pattern(self):
        a = sp.csc_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 4.0]]))
        assert np.array_equal(diagonal_positions(a.indices, a.indptr), [0, 3, 6])
        aug = build_augmented(a, np.zeros(3), contact_set(3))
        assert np.array_equal(aug.a.data[aug.pattern.diag_pos], [2.0, 3.0, 4.0])

    def test_missing_diagonal_entry_rejected(self):
        a = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(InvalidMatrixError, match="column 1 stores no diagonal entry"):
            diagonal_positions(a.indices, a.indptr)


class TestColumnNorms:
    """Large systems take their row norms through the CSR view of A^T, bit
    for bit the bincount wherever A is bitwise symmetric."""

    @pytest.mark.parametrize("name, steps", STEPPED)
    def test_bitwise_equal_to_bincount(self, monkeypatch, name, steps):
        for aug in solved_systems(monkeypatch, name, steps):
            assert np.array_equal(column_norms_sq(aug.a), row_norms_sq(aug.a))

    def test_after_layout_rebuilds(self):
        for aug in rebuilt_layout_systems():
            assert np.array_equal(column_norms_sq(aug.a), row_norms_sq(aug.a))

    def test_last_bit_asymmetry_shows(self):
        # the symmetry precondition: one ulp more on every strictly upper
        # entry makes row and column sums differ
        scene = build_scene(load_scenario(scenario_path("lattice_drag")), RunConfig())
        a = assemble_step(scene.state, scene.bodies, scene.constraints).a
        rows = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))  # the column of each entry
        upper = a.indices < rows
        skewed = a.copy()
        skewed.data[upper] = np.nextafter(skewed.data[upper], np.inf)
        assert (skewed != skewed.T).nnz > 0
        assert not np.array_equal(column_norms_sq(skewed), row_norms_sq(skewed))
        assert np.allclose(column_norms_sq(skewed), row_norms_sq(skewed), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("rows", [1, 4, None])
    def test_chunks_give_the_bits_of_one_product(self, monkeypatch, rows):
        # chunks of one row; of four rows, whose boundaries fall inside the
        # 3-row blocks; one chunk of every row
        scene = build_scene(load_scenario(scenario_path("lattice_drag")), RunConfig())
        a = assemble_step(scene.state, scene.bodies, scene.constraints).a
        n = a.shape[0]
        whole = sp.csr_matrix((a.data**2, a.indices, a.indptr), shape=a.shape[::-1]) @ np.ones(n)
        monkeypatch.setattr(sparse, "NORM_CHUNK_ROWS", n if rows is None else rows)
        chunks = norm_chunks(a.indices, a.indptr)
        assert len(chunks) == (1 if rows is None else -(-n // rows))
        for out in (column_norms_sq(a), column_norms_sq(a, chunks)):
            assert np.array_equal(out.view(np.int64), whole.view(np.int64))


class TestNormChunks:
    """Each row chunk's CSR template is made over its slice of the pattern's
    own ``indices``: scipy's constructor would copy a slice of a larger
    array. Patterns with many chunks: the block pattern of lattice_drag and
    the tie layout of a cube on a lattice, at 64 rows per chunk."""

    @staticmethod
    def patterns(monkeypatch, name):
        monkeypatch.setattr(sparse, "NORM_CHUNK_ROWS", 64)
        patterns = [aug.pattern for aug in solved_systems(monkeypatch, name, 1)]
        assert all(len(p.norm_chunks) > 2 for p in patterns)
        return patterns

    @pytest.mark.parametrize("name", ["lattice_drag", "cube_on_lattice"])
    def test_templates_share_the_pattern_indices(self, monkeypatch, name):
        for p in self.patterns(monkeypatch, name):
            for _, lo, hi, t in p.norm_chunks:
                assert np.shares_memory(t.indices, p.indices)
                assert t.indices.ctypes.data == p.indices[lo:].ctypes.data and t.indices.shape == (hi - lo,)

    @pytest.mark.parametrize("name", ["lattice_drag", "cube_on_lattice"])
    def test_building_copies_no_slice(self, monkeypatch, name):
        # in four chunks, each slice is under half of indices, which scipy's
        # constructor would copy; the chunks keep only their row pointers
        for p in self.patterns(monkeypatch, name):
            monkeypatch.setattr(sparse, "NORM_CHUNK_ROWS", -(-p.indptr.shape[0] // 4))
            tracemalloc.start()
            chunks = norm_chunks(p.indices, p.indptr)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            kept = sum(t.indptr.nbytes for *_, t in chunks)
            largest = max(hi - lo for _, lo, hi, _ in chunks) * p.indices.itemsize
            assert len(chunks) == 4 and peak < kept + largest // 2


class TestBincountMatvec:
    """Small systems multiply through one bincount over A's entries, bit for
    bit scipy's CSC product."""

    @pytest.mark.parametrize("name", ["box_slide", "anisotropic_slide", "particle_stack"])
    def test_bitwise_equal_to_scipy(self, monkeypatch, rng, name):
        for aug in solved_systems(monkeypatch, name, 10):
            assert aug.n > aug.n_orig
            op = BincountMatvec(aug.a)
            for _ in range(50):
                x = rng.standard_normal(aug.n) * 10.0 ** rng.uniform(-3.0, 3.0, aug.n)
                assert np.array_equal(spmv(op, x).view(np.int64), spmv(aug.a, x).view(np.int64))

    def test_the_tie_layout_keeps_the_columns(self, monkeypatch):
        # the solver builds its BincountMatvec over the columns of the tie
        # layout's pattern instead of finding them every solve; a rebuilt
        # layout has its own
        for aug in solved_systems(monkeypatch, "particle_stack", 3) + rebuilt_layout_systems():
            assert aug.a.nnz <= BINCOUNT_NNZ_MAX
            assert np.array_equal(aug.pattern.entry_cols, entry_columns(aug.a.indptr))
            x = np.arange(aug.n, dtype=float)
            assert np.array_equal(BincountMatvec(aug.a, aug.pattern.entry_cols) @ x, aug.a @ x)


class TestSizeRule:
    """Every system's ``sparse.Pattern`` chooses its kernels by its number
    of entries alone, with or without ties: up to BINCOUNT_NNZ_MAX the
    solver multiplies through ``BincountMatvec`` and takes the bincount's
    row norms, above it the CSR view ``a.T`` and the chunked
    ``column_norms_sq``. Both give the bits of ``a @ x`` and
    ``row_norms_sq``."""

    # per system: its first two steps carry virtual nodes, it is small
    CASES = {
        "free_fall": (False, True),
        "box_slide": (True, True),
        "lattice_drag": (False, False),
        "cube_on_lattice": (True, False),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_the_pattern_picks_the_kernels(self, monkeypatch, rng, name):
        from condsim import solver

        tied, small = self.CASES[name]
        ops = []
        monkeypatch.setattr(solver, "spmv", lambda a, x: ops.append(a) or spmv(a, x))
        monkeypatch.setattr(sparse, "NORM_CHUNK_ROWS", 64)
        systems = solved_systems(monkeypatch, name, 2)
        if small:
            assert ops and all(type(op) is BincountMatvec for op in ops)
        else:
            assert ops and all(op.format == "csr" for op in ops)
        for aug in systems:
            a, p = aug.a, aug.pattern
            assert (aug.n > aug.n_orig, a.nnz <= BINCOUNT_NNZ_MAX) == (tied, small)
            assert (p.entry_cols is None, p.norm_chunks is None) == (not small, small)
            # either kernel set gives the bits of a @ x, of the bincount's
            # row norms and so of W
            if small:
                other = dataclasses.replace(p, entry_cols=None, norm_chunks=norm_chunks(p.indices, p.indptr))
            else:
                other = dataclasses.replace(p, entry_cols=entry_columns(p.indptr), norm_chunks=None)
            x = rng.standard_normal(aug.n)
            for q in (p, other):
                assert np.array_equal(spmv(q.operator(a), x).view(np.int64), (a @ x).view(np.int64))
                assert np.array_equal(q.row_norms_sq(a).view(np.int64), row_norms_sq(a).view(np.int64))
            w = step_matrix_frobenius(dataclasses.replace(aug, pattern=other))
            assert np.array_equal(step_matrix_frobenius(aug).view(np.int64), w.view(np.int64))
            if small:
                continue
            # a large pattern squares at most NORM_CHUNK_ROWS rows at a time,
            # through templates that share its index arrays
            spans = [(r0, lo, hi, t.shape[0]) for r0, lo, hi, t in p.norm_chunks]
            assert [lo for _, lo, _, _ in spans] == [0] + [hi for _, _, hi, _ in spans[:-1]]
            assert spans[-1][2] == a.nnz
            assert all(rows <= sparse.NORM_CHUNK_ROWS for *_, rows in spans)
            assert [r0 for r0, *_ in spans] == list(range(0, aug.n, sparse.NORM_CHUNK_ROWS))
            for _, lo, hi, t in p.norm_chunks:
                assert np.shares_memory(t.indices, a.indices)
                assert not t.indices.flags.writeable and not np.any(t.data)
                assert np.shares_memory(with_data(t, np.ones(hi - lo)).indices, a.indices)


class TestTemplate:
    """Each step's matrix is made from its layout's template: it shares the
    read-only index arrays and owns its values."""

    def test_step_matrices_do_not_share_values(self):
        # two steps assembled on one block pattern
        scene = build_scene(load_scenario(scenario_path("lattice_drag")), RunConfig())
        one, two = (assemble_step(scene.state, scene.bodies, scene.constraints) for _ in range(2))
        assert one.pattern is two.pattern
        first, second = one.a, two.a
        assert first.data is not second.data
        before = second.data.copy()
        first.data[:] = -1.0
        assert np.array_equal(second.data, before)
        csc = one.pattern.csc
        template = csc.template
        assert not np.any(template.data) and not template.data.flags.writeable
        for a in (first, second, template):
            assert np.shares_memory(a.indices, csc.indices)
            assert np.shares_memory(a.indptr, csc.indptr)
            assert not a.indices.flags.writeable and not a.indptr.flags.writeable
            with pytest.raises(ValueError):
                a.indices[0] = 0

    def test_augmented_matrices_do_not_share_values(self):
        # two steps augmented on one cached tie layout
        scene = build_scene(load_scenario(scenario_path("box_slide")), RunConfig())
        state = scene.state
        nodal = nodalize(detect_contacts(state, scene.bodies, scene.geometry), state, scene.k_v, scene.mu)
        one, two = (augment_dynamics(assemble_step(state, scene.bodies, scene.constraints), nodal) for _ in range(2))
        layout = nodal.layout.ties.csc
        assert one.pattern is two.pattern is layout
        assert np.shares_memory(one.a.indices, layout.indices) and np.shares_memory(two.a.indices, layout.indices)
        assert one.a.data is not two.a.data
        before = two.a.data.copy()
        one.a.data[:] = 0.0
        assert np.array_equal(two.a.data, before)
        assert not np.any(layout.template.data)
        assert not one.a.indices.flags.writeable and not one.a.indptr.flags.writeable

    def test_with_data_keeps_the_template(self):
        template = csc_template(np.array([0, 1, 0, 1], dtype=np.int32), np.array([0, 2, 4], dtype=np.int32), 2)
        a = with_data(template, np.array([2.0, 1.0, 1.0, 2.0]))
        b = with_data(template, np.array([4.0, 0.0, 0.0, 4.0]))
        assert np.array_equal(a.toarray(), [[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(b.toarray(), [[4.0, 0.0], [0.0, 4.0]])
        assert np.array_equal(template.toarray(), np.zeros((2, 2)))


class TestPublicScipy:
    """The library keeps to scipy's public API: a private module, kernel or
    method may change or vanish in any scipy release."""

    PRIVATE = re.compile(r"scipy\.sparse\._|_sparsetools|_matmul_vector|_with_data")

    def test_no_private_scipy_in_the_package(self):
        src = Path(__file__).resolve().parent.parent / "src" / "condsim"
        files = sorted(src.glob("*.py"))
        assert files
        hits = [
            f"{path.name}:{k}: {line.strip()}"
            for path in files
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if self.PRIVATE.search(line)
        ]
        assert hits == []

    @pytest.mark.parametrize("line", [
        "from scipy.sparse._sputils import get_index_dtype",
        "import scipy.sparse._sparsetools as st",
        "y = a._matmul_vector(x)",
        "b = a._with_data(values)",
    ])
    def test_pattern_catches(self, line):
        assert self.PRIVATE.search(line)
