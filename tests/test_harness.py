"""Scenario loading, simulation runs, CSV reporting and CLI tests."""

import dataclasses
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import condsim
from condsim.cli import main
from condsim.errors import DivergenceError, ScenarioValidationError, UnsupportedRegimeError
from condsim.harness import (
    CSV_COLUMNS,
    CSV_HEADER,
    MetricsRow,
    RunConfig,
    Scenario,
    analytic_box_slide,
    load_scenario,
    parse_csv,
    report_csv,
    run,
    scenario_with_size,
    validate_scenario,
)
from condsim.solver import SCALAR_BATCH_MAX

from conftest import ALL_SCENARIOS, scenario_path

MINIMAL = {
    "step_size": 0.01,
    "duration": 0.1,
    "bodies": [{"type": "particle", "mass": 1.0, "position": [0.0, 0.0, 1.0], "radius": 0.1}],
    "geometry": {"planes": [{"point": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0]}]},
}


class TestValidation:
    def test_minimal_scenario(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text(json.dumps(MINIMAL))
        s = load_scenario(str(path))
        assert len(s.raw["bodies"]) == 1
        assert s.n_steps == 10

    def test_missing_step_size_names_field(self):
        bad = dict(MINIMAL)
        del bad["step_size"]
        with pytest.raises(ScenarioValidationError, match="step_size"):
            validate_scenario(bad)

    def test_unknown_key_rejected(self):
        bad = dict(MINIMAL)
        bad["stepsize"] = 0.01
        with pytest.raises(ScenarioValidationError, match="stepsize"):
            validate_scenario(bad)

    def test_non_integer_step_count(self):
        bad = dict(MINIMAL)
        bad["duration"] = 0.015
        with pytest.raises(ScenarioValidationError, match="integer step count"):
            validate_scenario(bad)

    def test_zero_step_count_rejected(self, tmp_path, capsys):
        # 1e-10 / 1.0 lies within the integer tolerance of 0 steps: it used to
        # run no step, print steps=0 and exit 0, or write a header-only CSV
        bad = {**MINIMAL, "duration": 1e-10, "step_size": 1.0}
        named = (
            "duration/step_size must be an integer step count of at least 1, "
            "got 1e-10 for duration=1e-10 step_size=1.0"
        )
        with pytest.raises(ScenarioValidationError, match=re.escape(named)):
            validate_scenario(bad)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(bad))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("duration, step_size", [(1e308, 1e-10), (10**400, 0.01)], ids=["float", "integer"])
    def test_overflowing_step_count_exit_2(self, tmp_path, capsys, duration, step_size):
        # the step count overflows a float: round(inf), or the division by an
        # integer too large for a float, raised a bare OverflowError, and the
        # run exited 1 with a traceback
        bad = {**MINIMAL, "duration": duration, "step_size": step_size}
        named = (
            "duration/step_size must be an integer step count of at least 1, "
            f"got inf for duration={duration} step_size={step_size}"
        )
        with pytest.raises(ScenarioValidationError, match=re.escape(named)):
            validate_scenario(bad)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(bad))
        assert main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    @pytest.mark.parametrize(
        "free, inertia",
        [(True, [0.0, 0.0, 0.0]), (False, [-0.002, 0.002, 0.002]), (False, [0.002, 0.002, 0.0])],
        ids=["free-body-zero", "box_slide-negative", "box_slide-one-zero"],
    )
    def test_non_positive_inertia_exit_2(self, tmp_path, capsys, free, inertia):
        # a free body with zero inertia used to end in an InvalidMatrixError
        # traceback (exit 1); box_slide with a negative moment ran 300 steps
        # and exited 0
        if free:
            data = {"step_size": 0.01, "duration": 0.02, "bodies": [{"type": "rigid", "mass": 1.0}]}
        else:
            data = load_scenario(scenario_path("box_slide")).raw
        data["bodies"][0]["inertia"] = inertia
        named = r"scenario invalid at bodies/0/inertia/(\d): \S+ is less than or equal to the minimum of 0"
        with pytest.raises(ScenarioValidationError, match=named) as exc:
            validate_scenario(data)
        assert inertia[int(re.search(named, str(exc.value)).group(1))] <= 0
        path = tmp_path / "body.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--scenario", str(path)]) == 2
        assert re.fullmatch(f"error: {named}\n", capsys.readouterr().err)

    @pytest.mark.parametrize("where", [("lattice", "nz"), ("forces", 0, "body"), ("springs", 0, "i")],
                             ids=["lattice-nz", "force-body", "spring-i"])
    def test_integer_written_as_float_exit_2(self, tmp_path, capsys, where):
        # "integer" takes no 3.0: these once passed validation, then the
        # run ended in a TypeError traceback (exit 1)
        name = {"lattice": "lattice_drag", "forces": "box_slide"}.get(where[0])
        data = load_scenario(scenario_path(name)).raw if name else json.loads(json.dumps(TestFrozenScene.RAW))
        node = data
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = float(node[where[-1]])
        named = f"scenario invalid at {'/'.join(map(str, where))}: {node[where[-1]]!r} is not of type 'integer'"
        with pytest.raises(ScenarioValidationError, match=re.escape(named)):
            validate_scenario(data)
        path = tmp_path / "float.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"step_size": 0.01,\n  "duration": }')
        with pytest.raises(ScenarioValidationError, match="line 2"):
            load_scenario(str(path))

    def test_all_bundled_scenarios_validate(self):
        for name in ALL_SCENARIOS:
            load_scenario(scenario_path(name))

    def test_box_slide_fixture_parameters(self):
        s = load_scenario(scenario_path("box_slide"))
        body = s.raw["bodies"][0]
        assert body["mass"] == 0.5
        assert s.raw["contact"]["mu"] == 0.2
        pts = np.array(body["contact_points"])
        assert pts.shape == (4, 3)  # four bottom-face vertices of the 0.2 m cube
        assert np.allclose(np.abs(pts), 0.1)

    @pytest.mark.parametrize(
        "where, literal",
        [(("contact", "mu"), "NaN"), (("step_size",), "Infinity"), (("forces", 0, "force", 2), "-Infinity")],
    )
    def test_non_standard_number_literal_exit_2(self, tmp_path, capsys, where, literal):
        # json reads these literals and NaN passes every schema bound: box_slide
        # with "mu": NaN used to run 300 "converged" steps, "step_size":
        # Infinity none, and both exited 0
        data = load_scenario(scenario_path("box_slide")).raw
        node = data
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = "@"
        path = tmp_path / "box.json"
        path.write_text(json.dumps(data).replace('"@"', literal))
        value = float(literal.lower().replace("infinity", "inf"))
        named = f"scenario invalid at {'/'.join(map(str, where))}: {value!r} is not a finite number"
        with pytest.raises(ScenarioValidationError, match=re.escape(named)):
            load_scenario(str(path))
        assert main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    @pytest.mark.parametrize(
        "where, value, loc",
        [
            (("contact", "mu"), float("nan"), "contact/mu"),
            (("step_size",), float("inf"), "step_size"),
            (("forces", 0, "force", 2), -float("inf"), "forces/0/force/2"),
        ],
        ids=["nan-mu", "inf-step_size", "-inf-force"],
    )
    def test_non_finite_number_in_a_dict_is_named(self, where, value, loc):
        # NaN passes every schema bound: box_slide's dict with mu NaN used to
        # run 300 "converged" steps to 3.6e-11 J, and step_size inf none
        data = load_scenario(scenario_path("box_slide")).raw
        node = data
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        named = f"scenario invalid at {loc}: {value!r} is not a finite number"
        with pytest.raises(ScenarioValidationError, match=re.escape(named)):
            validate_scenario(data)
        with pytest.raises(ScenarioValidationError, match=re.escape(named)):
            run(Scenario(data), RunConfig())

    @pytest.mark.parametrize(
        "where, value, loc",
        [
            (("geometry", "planes", 0, "normal"), [0, 0, 0], "geometry/planes/0/normal"),
            (("bodies", 0, "orientation"), [0.0, 0.0, 0.0, 0.0], "bodies/0/orientation"),
            (("geometry", "planes", 0, "normal"), [0.0, 1e-13, 0.0], "geometry/planes/0/normal"),
        ],
        ids=["zero-normal", "zero-orientation", "tiny-normal"],
    )
    def test_vector_without_direction_is_named(self, tmp_path, capsys, where, value, loc):
        # box_slide with a zero floor normal used to run 300 steps on a NaN
        # plane, the cube falling through to z = -44 m with exit 0; a zero
        # orientation ended in an InvalidStateError traceback
        data = load_scenario(scenario_path("box_slide")).raw
        node = data
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        named = f"scenario invalid at {loc}: {value!r} has no direction"
        with pytest.raises(ScenarioValidationError, match=re.escape(named)):
            validate_scenario(data)
        path = tmp_path / "box.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_a_run_checks_its_scenario_once(self, monkeypatch):
        # the checks are most of box_slide's set-up time, so loading and
        # running a scenario makes them once, when the Scenario is made
        from condsim import harness

        calls, check = [], harness._check_targets

        def counting(data):
            calls.append(1)
            return check(data)

        monkeypatch.setattr(harness, "_check_targets", counting)
        s = load_scenario(scenario_path("box_slide"))
        assert len(calls) == 1
        one_step = Scenario({**s.raw, "duration": s.step_size})
        assert len(calls) == 2
        run(one_step, RunConfig())
        assert len(calls) == 2

    def test_lattice_force_without_lattice(self):
        bad = dict(MINIMAL)
        bad["forces"] = [{"force": [1.0, 0.0, 0.0], "lattice": "top"}]
        named = "forces/0/lattice targets the lattice, but the scenario has none"
        with pytest.raises(ScenarioValidationError, match=named):
            validate_scenario(bad)
        # a Scenario built without validate_scenario still fails by name
        with pytest.raises(ScenarioValidationError, match=named):
            run(Scenario(bad), RunConfig())


def no_steps(*args, **kwargs):
    raise AssertionError("a scene was built for settings that cannot run")


class TestRunConfigChecks:
    """run rejects settings it cannot run before it builds the scene."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("solver", "pgz"),
            ("operator", "bogus"),
            ("kv", -1.0),
            ("kv", 0.0),
            ("kv", float("nan")),
            ("kv", float("inf")),
            ("residual_tol", -1.0),
            ("residual_tol", 0.0),
            ("residual_tol", float("nan")),
            ("residual_tol", float("inf")),
            ("max_iters", 0),
            ("max_iters", -5),
            ("seed", -1),
        ],
    )
    def test_rejected_before_the_first_step(self, monkeypatch, field, value):
        # free_fall has no contacts: an unknown operator used to pass it,
        # "pgz" used to run APGD, and max_iters 0 or -5 one V-FPI iteration
        # per step
        from condsim import harness

        monkeypatch.setattr(harness, "build_scene", no_steps)
        with pytest.raises(ScenarioValidationError, match=f"{field}.*{re.escape(repr(value))}"):
            run(load_scenario(scenario_path("free_fall")), RunConfig(**{field: value}))

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize(
        "flag, value", [("--kv", "-1"), ("--kv", "0"), ("--kv", "nan"), ("--residual-tol", "-1"), ("--residual-tol", "nan")]
    )
    def test_cli_exit_2(self, monkeypatch, capsys, command, flag, value):
        # box_slide with --kv -1 used to exit 0 after 300 "converged" steps
        # 44 m deep, --kv 0 and nan with an uncaught traceback (exit 1), and
        # --residual-tol -1 and nan with every step unconverged
        from condsim import harness

        monkeypatch.setattr(harness, "build_scene", no_steps)
        args = [command, "--scenario", scenario_path("lattice_drag"), flag, value]
        if command == "bench":
            args += ["--sizes", "300"]
        assert main(args) == 2
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {field} must be finite and > 0, got {float(value)!r}\n"


class TestRunPhysics:
    def test_free_fall(self):
        s = load_scenario(scenario_path("free_fall"))
        res = run(s, RunConfig())
        assert len(res.rows) == 100
        assert all(r.contacts == 0 for r in res.rows)
        assert abs(res.state.v[2] + 9.81) <= 1e-9

    def test_resting_particle(self):
        s = load_scenario(scenario_path("resting_particle"))
        res = run(s, RunConfig())
        assert max(r.max_pen_m for r in res.rows) <= 1e-6
        assert np.linalg.norm(res.state.v) <= 1e-9

    def test_particle_stack_settles(self):
        s = load_scenario(scenario_path("particle_stack"))
        cfg = RunConfig(residual_tol=1e-8, chebyshev=True, max_iters=2000)
        res = run(s, cfg)
        assert np.linalg.norm(res.state.v) < 1e-6
        # settled within 50 steps and stays: ke = 0.5 * 0.1 * |v_i|^2 summed
        for r in res.rows[49:]:
            assert r.ke_J <= 0.5 * 0.1 * 1e-12

    def test_proximal_slide_separates_at_mu_times_slip(self, monkeypatch):
        """The proximal operator is the convex relaxation: its Euclidean cone
        projection makes a sliding contact open at v_n = mu ||v_t||, so the
        sliding cube of box_slide lifts off the floor by design."""
        from condsim import harness

        solve_vfpi, velocities = harness.solve_vfpi, []

        def solve(*args, **kwargs):
            out = solve_vfpi(*args, **kwargs)
            velocities.append(out[0][:3].copy())  # the cube's linear velocity
            return out

        monkeypatch.setattr(harness, "solve_vfpi", solve)
        s = load_scenario(scenario_path("box_slide"))
        cfg = RunConfig(operator="proximal", residual_tol=1e-6, chebyshev=True, kv=1e5)
        res = run(Scenario({**s.raw, "duration": 3 * s.step_size}), cfg)
        mu = s.raw["contact"]["mu"]
        for step in (1, 2):
            assert res.rows[step].contacts == 4 and res.rows[step].converged
            vx, vy, vz = velocities[step]
            assert vz == pytest.approx(mu * np.hypot(vx, vy), rel=1e-2), step

    def test_bit_reproducibility(self, tmp_path):
        # wall-clock columns vary; everything numerical must match bit for bit
        s = load_scenario(scenario_path("resting_particle"))
        wall_clock = {c: 0.0 for c in CSV_COLUMNS if c.endswith("_ms")}
        paths = []
        for k in range(2):
            res = run(s, RunConfig())
            p = tmp_path / f"run{k}.csv"
            report_csv([dataclasses.replace(r, **wall_clock) for r in res.rows], str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_warm_start_reduces_iterations(self):
        # resting contact should converge almost instantly once warm
        s = load_scenario(scenario_path("resting_particle"))
        res = run(s, RunConfig())
        later = [r.iters for r in res.rows[5:]]
        assert np.mean(later) <= res.rows[0].iters

    def test_first_step_warm_starts_from_scene_velocity(self):
        # the cube is launched at [1, 1, 0] m/s; from a zero warm start its
        # first strict solve took 240 Anderson evaluations, from the scene's
        # velocity it takes 7
        s = load_scenario(scenario_path("anisotropic_slide"))
        first = Scenario({**s.raw, "duration": s.step_size})
        res = run(first, RunConfig(operator="strict", kv=1e5, residual_tol=1e-4))
        assert res.rows[0].converged
        assert res.rows[0].iters <= 20

    def test_baseline_warm_start_keeps_each_contact_impulse(self, monkeypatch):
        # a particle wedged between a floor and a ceiling has two contacts on
        # the same node, one per plane; each must warm-start from its own
        # previous impulse, not from the other plane's
        from condsim import harness

        scenario = Scenario({
            "step_size": 0.01,
            "duration": 0.03,
            "bodies": [{"type": "particle", "mass": 1.0, "position": [0.0, 0.0, 0.4], "radius": 0.5}],
            "geometry": {"planes": [
                {"point": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0]},
                {"point": [0.0, 0.0, 0.8], "normal": [0.0, 0.0, -1.0]},
            ]},
        })
        solve_pgs, warm, lams = harness.bl.solve_pgs, [], []

        def recording(prob, bcfg):
            warm.append(bcfg.warm_start)
            lam, rep = solve_pgs(prob, bcfg)
            lams.append(lam.copy())
            return lam, rep

        monkeypatch.setattr(harness.bl, "solve_pgs", recording)
        run(scenario, RunConfig(solver="pgs"))
        assert len(lams) == 3 and warm[0] is None
        assert lams[0].shape == (2, 3) and not np.array_equal(lams[0][0], lams[0][1])
        for step in (1, 2):
            assert np.array_equal(warm[step].reshape(2, 3), lams[step - 1])

    def test_warm_impulses_match_by_key(self):
        from condsim.harness import _warm_impulses

        prev_lam = np.arange(6.0).reshape(2, 3) + 1.0
        assert _warm_impulses(np.array([5]), np.zeros(0, dtype=np.int64), np.zeros((0, 3))) is None
        # key 9 and 5 persist in another order, key 1 is new
        warm = _warm_impulses(np.array([5, 1, 9]), np.array([9, 5]), prev_lam)
        assert warm.tolist() == [4.0, 5.0, 6.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0]

    def test_exact_touch_reports_positive_zero_penetration(self, tmp_path):
        # a particle of radius 0.5 at z = 0.5 touches the floor at depth 0
        scenario = Scenario({**MINIMAL, "duration": 0.01, "bodies": [
            {"type": "particle", "mass": 1.0, "position": [0.0, 0.0, 0.5], "radius": 0.5}
        ]})
        res = run(scenario, RunConfig())
        assert res.rows[0].contacts == 1
        path = tmp_path / "touch.csv"
        report_csv(res.rows, str(path))
        row = path.read_text().splitlines()[1].split(",")
        assert row[CSV_HEADER.split(",").index("max_pen_m")] == "0"


def lattice_steps(steps: int) -> Scenario:
    """The bundled ``lattice_drag`` cut to ``steps`` steps."""
    s = load_scenario(scenario_path("lattice_drag"))
    return Scenario({**s.raw, "duration": steps * s.step_size})


class TestStepMemory:
    """``run`` holds one step's arrays at a time: a step's systems die before
    the next step assembles."""

    # tracemalloc peak, in bytes, of a 2-step lattice_drag run (numpy reports
    # its buffers to tracemalloc): about 1.93e6 while each step's system lived
    # until the next step had assembled, about 1.45e6 since (CHANGES.md)
    PEAK_BOUND = 1_700_000

    def test_step_freed_before_next_assembly(self, monkeypatch):
        from condsim import harness

        refs, alive = [], []  # per step: weakrefs to its AssembledDynamics and data; which live at its start
        original = harness.assemble_step

        def spy(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            asm = original(*args, **kwargs)
            refs.extend([weakref.ref(asm), weakref.ref(asm.data)])
            return asm

        monkeypatch.setattr(harness, "assemble_step", spy)
        gc.disable()  # freed by reference counting, not by a collection that happens to run
        try:
            res = run(lattice_steps(3), RunConfig())
        finally:
            gc.enable()
        assert len(res.rows) == 3
        assert alive == [[], [False] * 2, [False] * 4]

    def test_scene_caches_die_with_the_scene(self, monkeypatch):
        """The node triples, rigid index rows, gravity vector, block pattern
        and its CSC pattern, proxy table, contact layout and its tie layout
        that a run's scene caches, and the rigid pose of its first state,
        are freed with it: a second
        run on a new scene finds them dead, with gc disabled, so nothing but
        the scene held them, and no back-reference of a cache to the records
        it was built for makes a cycle. On particle_stack (node contacts)
        and box_slide (a rigid body)."""
        from condsim import harness

        refs, reused, original = [], [], harness._step

        def spy(scene, state, *args, **kwargs):
            out = original(scene, state, *args, **kwargs)
            bodies, pattern, table = scene.bodies, scene.constraints.pattern, scene.bodies.proxies
            cached = (bodies.q_triples, bodies.v_triples, bodies.rigid.q_idx, bodies.rigid.v_idx, scene.gravity_force,
                      pattern, pattern.csc, table, table.layout, table.layout.ties, table.layout.columns)
            if not refs:
                refs.extend(weakref.ref(x) for x in cached + state.rigid_pose(bodies.rigid)[:1])
            elif len(reused) < 2:  # the first run's later steps
                reused.append(all(ref() is x for ref, x in zip(refs, cached)))
            return out

        monkeypatch.setattr(harness, "_step", spy)
        for name in ("particle_stack", "box_slide"):
            refs.clear()
            reused.clear()
            s = load_scenario(scenario_path(name))
            scenario = Scenario({**s.raw, "duration": 3 * s.step_size})
            gc.disable()
            try:
                run(scenario, RunConfig())
                run(scenario, RunConfig())
                alive = [ref() is not None for ref in refs]
            finally:
                gc.enable()
            assert reused == [True, True] and alive == [False] * 12, name

    def test_traced_peak_of_a_lattice_run(self):
        scenario = lattice_steps(2)
        run(scenario, RunConfig())  # first-use caches stay out of the traced run
        tracemalloc.start()
        try:
            run(scenario, RunConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BOUND, peak


def load_bench_tracing():
    """perfbench/tracing.py, which is a script directory, not a package."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchHooks:
    def test_tracer_sees_every_layer(self):
        """The benchmark's tracer replaces layers by name; a layer that moves
        or is no longer looked up by that name must fail here. The contact
        layers (``jc``, ``contact_solve_oneshot``, ``jc_t``) run on batches
        of more than ``SCALAR_BATCH_MAX`` contacts, as on the 100 of
        ``lattice_drag``; the few contacts of ``box_slide`` take the solver's
        one pass over floats instead."""
        from condsim import harness, solver
        from condsim.contacts import ContactMap

        tracing = load_bench_tracing()
        for owner, layers in ((harness, tracing.STEP_LAYERS),
                              (solver, tracing.SOLVER_SETUP + tracing.SOLVER_PER_ITERATION),
                              (ContactMap, tracing.CONTACT_MAP_PER_ITERATION)):
            for attr, _ in layers:
                assert callable(getattr(owner, attr, None)), attr
        original = harness.solve_vfpi
        tracer, rounds = tracing.Tracer(), {}
        for scenario in ("box_slide", "lattice_drag"):
            s = load_scenario(scenario_path(scenario))
            with tracer.attached(harness, solver, ContactMap):
                res = run(Scenario({**s.raw, "duration": 2 * s.step_size}), RunConfig())
            assert harness.solve_vfpi is original
            assert len(res.rows) == 2
            rounds[scenario] = tracer.round, res.rows
            spanned = [span[0] for span in tracer.spans if span[1] == tracer.round]
            assert spanned.count("solver.solve_vfpi") == 2
            for _, name in tracing.STEP_LAYERS + tracing.SOLVER_SETUP:
                assert name in spanned, (scenario, name)
        box, rows = rounds["box_slide"]
        for step, row in enumerate(rows):
            # one A v per map evaluation, and at least one more for the stop test
            assert tracer.calls[(box, step)]["sparse.spmv"][0] > row.iters, step
        lattice, rows = rounds["lattice_drag"]
        for step, row in enumerate(rows):
            assert row.contacts > SCALAR_BATCH_MAX
            calls = tracer.calls[(lattice, step)]
            for _, name in tracing.SOLVER_PER_ITERATION + tracing.CONTACT_MAP_PER_ITERATION:
                assert calls[name][0] >= row.iters, (step, name)

    @pytest.mark.parametrize("trace", [0, 1])
    @pytest.mark.parametrize("workload", ["lattice_19k", "box_slide", "anisotropic_slide"])
    def test_entry_point_runs(self, workload, trace):
        """One round of each workload through ``perfbench/run.py``, traced
        and not: a change that breaks what the benchmark reads of the
        program fails here. The run writes only to the ignored
        ``perfbench/out/``."""
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0",
             "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        last = json.loads(out.stdout.splitlines()[-1])
        assert last["correct"] is True and last["failed"] == 0, last
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if trace else "end_to_end"]
        assert set(last["metrics"]) == {m["name"] for m in declared}

    @pytest.fixture
    def bench(self, monkeypatch):
        """perfbench/run.py, imported as a module."""
        bench_dir = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
        monkeypatch.syspath_prepend(bench_dir)  # run.py imports its siblings by name
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")  # run.py sets these on import; restored afterwards
        spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(bench_dir, "run.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    # perfbench's check_round digests (sha256 of every step's positions and
    # iteration counts) of the rigid workloads; the same at 1 and 2 BLAS
    # threads. lattice_19k's depends on the thread count, so
    # LATTICE_DIGESTS holds it at one thread.
    RIGID_DIGESTS = {
        ("box_slide", 3): "ea55e56a9070d9faff70eac44994d6a673d709af281dcd27a49b492b5d62d9e7",
        ("box_slide", 7): "e73255d0bd9fbd0f67852d086f147d94b416c503e6b90010cd2da8d2a9968948",
        ("box_slide", 53): "02ca648bec0d0934e0901e43a9c76b64dda656414eef5673123f871fc9f085a8",
        ("anisotropic_slide", 3): "e4515d21c3f393bd77394a954d280d357a29b593adf935612d1080de16305575",
        ("anisotropic_slide", 7): "d0878fcaf8737af7375eb224d5e42ca7c12148a5bf355889f3d2feb82e3f8667",
        ("anisotropic_slide", 53): "8264a415694b2f111e7172f7b0e1fe0d0d668db05d927c15b88a531d552ac69f",
    }

    @pytest.mark.parametrize("workload, seed", sorted(RIGID_DIGESTS))
    def test_rigid_workload_digest(self, bench, tmp_path, workload, seed):
        """A round of a rigid benchmark workload keeps its trajectory and
        iteration counts bit for bit: a change that moves either must
        record the new digests."""
        w = bench.W.WORKLOADS[workload]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(bench.W.scenario(w, seed)))
        res = run(load_scenario(str(path)), RunConfig(**w.run_config))
        out = bench.check_round(w, bench.oracle_params(w, seed), res, [])
        assert out["failed"] == 0, out
        assert out["digest"] == self.RIGID_DIGESTS[(workload, seed)]

    LATTICE_DIGESTS = {
        3: "be57a8f4ca11c34d4a409a4fbd2a6035781ed7ab6082dc98adcd35051f15174c",
        53: "a50e369b396831dc0445bdf691907e869f30be8dc7f916bb871ec8b5682924e4",
    }
    LATTICE_ROUNDS = """
import json, os, sys, tempfile
sys.path.insert(0, "perfbench")
import run as bench
mods, w = bench.load_condsim(), bench.W.WORKLOADS["lattice_19k"]
for seed in map(int, sys.argv[1:]):
    with tempfile.TemporaryDirectory() as tmp:
        path = bench.write_json(os.path.join(tmp, "scenario.json"), bench.W.scenario(w, seed))
        out = bench.run_round(mods, w, path, bench.oracle_params(w, seed))
    print(json.dumps([seed, out["failed"], out["digest"]]))
"""

    def test_lattice_workload_digest(self):
        """A round of ``lattice_19k`` keeps its trajectory and iteration
        counts bit for bit at one BLAS thread, checked as the benchmark
        checks it (``perfbench/run.py::run_round``), in a process of its
        own so that the thread count holds from numpy's first import."""
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        seeds = sorted(self.LATTICE_DIGESTS)
        out = subprocess.run(
            [sys.executable, "-c", self.LATTICE_ROUNDS, *map(str, seeds)],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        got = [json.loads(line) for line in out.stdout.splitlines()]
        assert got == [[seed, 0, self.LATTICE_DIGESTS[seed]] for seed in seeds]

    def test_boundary_check_accepts_a_lattice_step(self, bench, tmp_path, monkeypatch):
        """The benchmark checks every lattice solve through
        ``perfbench/run.py::boundary_arrays`` and ``oracles.check_contact_step``;
        a change to the contact records they read must fail here."""
        from condsim import harness

        oracles, workloads = bench.oracles, bench.W

        w = workloads.WORKLOADS["lattice_19k"]
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(workloads.lattice_scenario(1, 1, side=4)))
        solve_vfpi, solves = harness.solve_vfpi, []

        def solve(aug, *args, **kwargs):
            out = solve_vfpi(aug, *args, **kwargs)
            solves.append((aug, out[0], out[1]))
            return out

        monkeypatch.setattr(harness, "solve_vfpi", solve)
        cfg = RunConfig(**w.run_config)
        run(load_scenario(str(path)), cfg)
        assert len(solves) == 1
        aug, v, lam = solves[0]
        assert len(aug.contacts.contacts) == 16
        arrays = bench.boundary_arrays(aug, v, lam)
        # the phi and mu it reads through the record view are the set's own, bit for bit
        for key in ("phi", "mu"):
            assert arrays[key].tobytes() == getattr(aug.contacts, key).tobytes(), key
        check = oracles.check_contact_step(**arrays, tol=cfg.residual_tol)
        assert check["ok"], check


def box_slide_records():
    """Every array-holding record of one box_slide step, built from a fresh
    scene: two calls give equal values in distinct objects."""
    from condsim import baselines
    from condsim.contacts import augment_dynamics, detect_contacts, nodalize
    from condsim.dynamics import assemble_step
    from condsim.harness import build_scene

    s = load_scenario(scenario_path("box_slide"))
    scene = build_scene(s)
    state, bodies = scene.state, scene.bodies
    asm = assemble_step(state, bodies, scene.constraints)
    detected = detect_contacts(state, bodies, scene.geometry)
    nodal = nodalize(detected, state, scene.k_v, scene.mu, scene.mu2, scene.stab)
    aug = augment_dynamics(asm, nodal)
    return {
        "Geometry": scene.geometry, "DetectedContacts": detected,
        "NodalContactSet": nodal, "AugmentedDynamics": aug, "TieLayout": nodal.layout.ties, "Pattern": aug.pattern,
        "ProxyTable": bodies.proxies, "ContactLayout": bodies.proxies.layout,
        "ContactColumns": nodal.columns,
        "RigidBodies": bodies.rigid, "Bodies": bodies,
        "SystemState": state, "Springs": scene.constraints,
        "AssembledDynamics": asm, "BlockPattern": asm.pattern, "DelassusProblem": baselines.assemble_delassus(aug),
        "Scene": scene, "RunResult": run(Scenario({**s.raw, "duration": s.step_size})),
    }


class TestIdentityComparison:
    def test_array_records_compare_by_identity(self):
        # the generated __eq__ compared the array fields and raised "The
        # truth value of an array ... is ambiguous", e.g. for
        # ``pattern in [other_pattern]``
        first, second = box_slide_records(), box_slide_records()
        for name, x in first.items():
            y = second[name]
            assert type(x).__name__ == name
            assert x == x and not x == y and x != y, name
            assert x in [y, x] and x not in [y], name

    def test_value_records_compare_by_value(self):
        from condsim.contacts import StabilizationParams
        from condsim.solver import SolverConfig

        assert SolverConfig(operator="proximal") == SolverConfig(operator="proximal") != SolverConfig()
        assert RunConfig(kv=1e4) == RunConfig(kv=1e4) != RunConfig()
        assert StabilizationParams(e_rest=0.5) == StabilizationParams(e_rest=0.5) != StabilizationParams()
        row = MetricsRow(0, 1.0, 2.0, 3, 4.0, 5.0, 6, 7.0)
        assert row == dataclasses.replace(row) != dataclasses.replace(row, iters=4)


class TestFrozenScene:
    """``build_scene``'s records are frozen and their arrays read-only, so a
    scene's layout cannot change once it is built; ``dataclasses.replace``
    makes a new record, which builds its own layouts."""

    RAW = {
        "step_size": 0.01,
        "duration": 0.01,
        "bodies": [
            {"type": "particle", "mass": 1.0, "position": [0.0, 0.0, 0.05], "radius": 0.1},
            {"type": "rigid", "mass": 2.0, "position": [1.0, 0.0, 0.05],
             "contact_points": [[0.0, 0.0, -0.1], [0.1, 0.0, -0.1]]},
            {"type": "particle", "mass": 1.0, "position": [0.5, 0.0, 0.5]},
        ],
        "springs": [{"i": 0, "j": 2, "stiffness": 100.0}],
        "geometry": {"planes": [{"point": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 1.0]}],
                     "spheres": [{"center": [0.0, 0.0, -5.0], "radius": 1.0}]},
        "forces": [{"force": [1.0, 0.0, 0.0], "body": 1}],
    }
    # the array fields of each record
    ARRAYS = {
        "Scene": {"gravity"},
        "Bodies": {"node_q", "node_v", "node_mass", "node_radius"},
        "RigidBodies": {"mass", "q_off", "v_off", "inertia", "points", "point_body", "contact_radius"},
        "SystemState": {"q", "v"},
        "Springs": {"qi", "qj", "vi", "vj", "k", "rest"},
        "Geometry": {"plane_point", "plane_normal", "sphere_center", "sphere_radius", "frames"},
    }

    def records(self):
        from condsim.harness import build_scene

        scene = build_scene(Scenario(self.RAW))
        return {"Scene": scene, "Bodies": scene.bodies, "RigidBodies": scene.bodies.rigid, "SystemState": scene.state,
                "Springs": scene.constraints, "Geometry": scene.geometry}

    def test_fields_cannot_be_assigned(self):
        records = self.records()
        for name, record in records.items():
            for f in dataclasses.fields(record):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, f.name, getattr(record, f.name))
        scene = records["Scene"]
        assert isinstance(scene.force_entries, tuple) and len(scene.force_entries) == 1
        geometry = scene.geometry
        assert geometry.plane_point.shape == geometry.plane_normal.shape == geometry.sphere_center.shape == (1, 3)
        assert geometry.sphere_radius.shape == (1,) and geometry.frames.shape == (2, 3, 3)
        assert scene.bodies.rigid.mass.shape == (1,)

    def test_arrays_are_read_only_copies(self):
        # every array of the records, and of the scene's force entries, is
        # read-only; an array passed in is copied, so writing into it
        # afterwards cannot reach the record
        records = self.records()
        for name, record in records.items():
            fields = {f.name: f.init for f in dataclasses.fields(record) if isinstance(getattr(record, f.name), np.ndarray)}
            assert set(fields) == self.ARRAYS[name], name
            for field, init in fields.items():
                with pytest.raises(ValueError, match="read-only"):
                    getattr(record, field)[...] = 0
                if not init:  # built by the record itself
                    continue
                passed = np.array(getattr(record, field))
                made = dataclasses.replace(record, **{field: passed})
                kept = getattr(made, field)
                assert not kept.flags.writeable and not np.shares_memory(kept, passed), (name, field)
                passed[...] = 7
                assert np.array_equal(kept, getattr(record, field)), (name, field)
        scene = records["Scene"]
        (entry,) = scene.force_entries
        passed = [np.array(a) for a in entry[2:]]
        (made,) = dataclasses.replace(scene, force_entries=[(*entry[:2], *passed)]).force_entries
        for a, kept in zip(entry[2:], made[2:]):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
            assert not kept.flags.writeable and not any(np.shares_memory(kept, p) for p in passed)
        # the rigid pose a state builds, and the index rows the rigid record
        # builds, are read-only too
        rigid = scene.bodies.rigid
        for a in (*scene.state.rigid_pose(rigid), rigid.q_idx, rigid.v_idx, *rigid.point_groups[0]):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_hand_built_contact_columns_are_read_only(self):
        # a contact set made by hand holds read-only copies of its columns,
        # so its contacted nodes and gathers cannot go stale
        from condsim.contacts import ContactColumns

        col_i, col_j = np.array([0, 3]), np.array([-1, 6])
        c = ContactColumns.build(col_i, col_j)
        for a in (c.col_i, c.col_j, c.node_idx, c.has_j, c.j_cols, c.idx_i, c.idx_j, c.gather):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 9
        col_i[0] = 9
        assert c.col_i.tolist() == [0, 3] and c.node_idx[:, 0].tolist() == [0, 3, 6]

    def test_replaced_records_build_their_own_layouts(self):
        from condsim.contacts import detect_contacts
        from condsim.dynamics import assemble_step

        scene = self.records()["Scene"]
        state, bodies, springs, geometry = scene.state, scene.bodies, scene.constraints, scene.geometry
        pattern = assemble_step(state, bodies, springs).pattern
        table = detect_contacts(state, bodies, geometry).proxies
        new_bodies, new_springs, new_geometry = (dataclasses.replace(r) for r in (bodies, springs, geometry))
        assert new_bodies.proxies is None and new_springs.pattern is None
        # the springs' pattern, built again under other bodies
        own = assemble_step(state, bodies, new_springs).pattern
        assert own is not pattern and springs.pattern is pattern
        assert assemble_step(state, new_bodies, new_springs).pattern is not own
        # the bodies' proxy table, built again for replaced bodies; it holds
        # nothing of the geometry, so another geometry keeps it
        made = detect_contacts(state, new_bodies, geometry).proxies
        assert made is not table and bodies.proxies is table and np.array_equal(made.proxy, table.proxy)
        assert detect_contacts(state, new_bodies, new_geometry).proxies is made and new_bodies.proxies is made
        # the state's rigid pose, built again for another rigid record and
        # for a replaced state
        rot = state.rigid_pose(bodies.rigid)[0]
        assert state.rigid_pose(bodies.rigid)[0] is rot
        new_rigid = dataclasses.replace(bodies.rigid)
        rebuilt = state.rigid_pose(new_rigid)[0]
        assert rebuilt is not rot and state.rigid_pose(new_rigid)[0] is rebuilt
        new_state = dataclasses.replace(state)
        assert new_state.rigid_pose(new_rigid)[0] is not rebuilt
        assert np.array_equal(new_state.rigid_pose(new_rigid)[0], rot)
        # the scene's gravity vector
        replaced = dataclasses.replace(scene)
        assert replaced.gravity_force is not scene.gravity_force
        assert np.array_equal(replaced.gravity_force, scene.gravity_force)


class TestAnalyticBoxSlide:
    BASE = {"m": 0.5, "mu": 0.2, "g": 9.81, "T": 1.0, "t_k": 0.01}

    def test_static_below_friction_limit(self):
        p = dict(self.BASE, F_y=0.5 * 0.2 * 0.5 * 9.81)
        ys = analytic_box_slide(p)
        assert np.allclose(ys, 0.0)

    def test_frictionless_uniform_acceleration(self):
        p = dict(self.BASE, mu=0.0, F_y=2.0)
        ys = analytic_box_slide(p)
        # same midpoint discretization by hand
        a = 2.0 / 0.5
        v, y = 0.0, 0.0
        for _ in range(100):
            y += 0.01 * (v + 0.5 * a * 0.01)
            v += a * 0.01
        assert np.isclose(ys[-1], y, atol=1e-12)

    def test_lift_off_rejected(self):
        p = dict(self.BASE, F_y=2.0, F_z=10.0)
        with pytest.raises(UnsupportedRegimeError):
            analytic_box_slide(p)


class TestCsv:
    def rows(self):
        return [
            MetricsRow(0, 0.25, 1.5, 12, 1.23456789012345678e-5, 0.0, 4, 0.5),
            MetricsRow(1, 0.5, 2.0, 9, 9.87654321e-7, 1e-9, 4, 0.25),
        ]

    def test_empty_rows_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        report_csv([], str(p))
        assert p.read_text() == CSV_HEADER + "\n"

    def test_two_rows_three_lines(self, tmp_path):
        p = tmp_path / "two.csv"
        report_csv(self.rows(), str(p))
        text = p.read_text()
        assert text.count("\n") == 3
        assert "\r" not in text

    def test_round_trip_bit_exact(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        report_csv(self.rows(), str(p1))
        report_csv(parse_csv(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_17_significant_digits(self, tmp_path):
        p = tmp_path / "digits.csv"
        value = 1.0 / 3.0
        report_csv([MetricsRow(0, value, 0.0, 0, 0.0, 0.0, 0, 0.0)], str(p))
        got = parse_csv(str(p))[0].dyn_ms
        assert got == value  # exact float round trip

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("step,nope\n")
        with pytest.raises(ScenarioValidationError):
            parse_csv(str(p))


class TestScenarioWithSize:
    def test_dof_rescaling(self):
        s = load_scenario(scenario_path("lattice_drag"))
        for target in (300, 1200):
            scaled = scenario_with_size(s, target)
            lat = scaled.raw["lattice"]
            dof = 3 * lat["nx"] * lat["ny"] * lat["nz"]
            assert 0.5 * target <= dof <= 2.0 * target

    def test_requires_lattice(self):
        s = load_scenario(scenario_path("free_fall"))
        with pytest.raises(ScenarioValidationError):
            scenario_with_size(s, 300)


class TestBenchScaling:
    def test_growing_sizes_pass(self, monkeypatch):
        # test_09's sizes, and a single size, which fits nothing
        from types import SimpleNamespace

        from condsim import harness

        row = SimpleNamespace(solve_ms=1.0, dyn_ms=1.0, iters=1)
        monkeypatch.setattr(harness, "run", lambda sc, cfg: SimpleNamespace(rows=[row]))
        s = load_scenario(scenario_path("lattice_drag"))
        res = harness.bench_scaling(s, [300, 600, 1200, 2400, 4800], steps_cap=1)
        assert [p.n for p in res.points] == [324, 576, 1296, 2304, 4761]
        one = harness.bench_scaling(s, [300], steps_cap=1)
        assert [p.n for p in one.points] == [324] and one.exponent is None

    def test_sizes_that_cannot_fit_rejected(self):
        from condsim import harness

        s = load_scenario(scenario_path("lattice_drag"))
        for sizes, cap, named in (([], None, "got []"), ([300, -1], None, "each at least 1, got [300, -1]"),
                                  ([1200, 600], None, "1200 and 600 give lattices of 1296 and 576 DOF"),
                                  ([300, 600], 0, "scenario invalid at duration")):
            with pytest.raises(ScenarioValidationError, match=re.escape(named)):
                harness.bench_scaling(s, sizes, steps_cap=cap)
    def test_step_medians_over_interleaved_runs(self, monkeypatch):
        """Sizes run in turn; a size's time is the mean over steps of each
        step's median over the runs, so one slow run does not move it."""
        from types import SimpleNamespace

        from condsim import harness

        calls = []

        def fake_run(sc, cfg):
            side = sc.raw["lattice"]["nx"]
            calls.append(side)
            slow = 100.0 if len(calls) == 1 else 1.0  # the very first run is slow
            return SimpleNamespace(rows=[
                SimpleNamespace(solve_ms=slow * side * (step + 1), dyn_ms=1.0, iters=step) for step in range(3)
            ])

        monkeypatch.setattr(harness, "run", fake_run)
        s = load_scenario(scenario_path("lattice_drag"))
        res = harness.bench_scaling(s, [300, 1200], steps_cap=3)
        sides = [scenario_with_size(s, n).raw["lattice"]["nx"] for n in (300, 1200)]
        assert calls == sides * harness.BENCH_REPEATS
        for side, point in zip(sides, res.points):
            assert point.solve_s == pytest.approx(side * 2.0 / 1e3)  # steps 1, 2, 3 in units of side
            assert point.mean_iters == 1.0
        assert res.exponent == pytest.approx(np.log(sides[1] / sides[0]) / np.log(res.points[1].n / res.points[0].n))


class TestCli:
    # prints which of the modules a rigid run does not need are loaded after
    # the command line is imported and box_slide runs two steps
    IMPORTS_OF_A_RIGID_RUN = """
import sys
import condsim.cli
from condsim import harness

s = harness.load_scenario(sys.argv[1])
harness.run(harness.Scenario({**s.raw, "duration": 2 * s.step_size}), harness.RunConfig())
print([name for name in ("jsonschema", "scipy.spatial") if name in sys.modules])
"""

    def test_rigid_run_loads_neither_jsonschema_nor_scipy_spatial(self):
        """Each would add megabytes of resident memory that a rigid run never
        uses. In a fresh interpreter, since test modules import both."""
        src = os.path.dirname(condsim.__path__[0])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", self.IMPORTS_OF_A_RIGID_RUN, scenario_path("box_slide")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_run_writes_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["run", "--scenario", scenario_path("free_fall"), "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER
        assert len(parse_csv(str(out))) == 100

    def test_invalid_scenario_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"duration": 1.0}))
        assert main(["run", "--scenario", str(bad)]) == 2

    @pytest.mark.parametrize(
        "entries, named",
        [
            ({"springs": [{"i": 0, "j": 5, "stiffness": 10.0}]}, "springs/0/j names body 5"),
            ({"forces": [{"force": [1.0, 0.0, 0.0], "body": 5}]}, "forces/0/body names body 5"),
            ({"springs": [{"i": 1, "j": 1, "stiffness": 10.0}]}, "springs/0 joins body 1 to itself"),
            ({"springs": [{"i": 0, "j": 2, "stiffness": 10.0}]}, "springs/0 joins bodies 0 and 2"),
            ({"forces": [{"force": [1.0, 0.0, 0.0]}]}, "forces/0 targets no body"),
            ({"forces": [{"force": [1.0, 0.0, 0.0], "bodies": []}]}, "forces/0 targets no body"),
            ({"forces": [{"force": [1.0, 0.0, 0.0], "lattice": "all"}]}, "forces/0/lattice targets the lattice"),
        ],
        ids=[
            "spring-missing-body",
            "force-missing-body",
            "spring-to-itself",
            "spring-coincident-ends",
            "force-without-target",
            "force-empty-bodies",
            "lattice-force-without-lattice",
        ],
    )
    def test_malformed_target_exit_2(self, tmp_path, capsys, entries, named):
        # bodies 0 and 2 start at the origin, body 1 a metre away
        bodies = [
            {"type": "particle", "mass": 1.0},
            {"type": "particle", "mass": 1.0, "position": [1.0, 0.0, 0.0]},
            {"type": "particle", "mass": 1.0},
        ]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"step_size": 0.01, "duration": 0.02, "bodies": bodies, **entries}))
        assert main(["run", "--scenario", str(bad)]) == 2
        assert named in capsys.readouterr().err

    def test_baseline_over_dense_capacity_exit_2(self, monkeypatch, capsys):
        from condsim import baselines

        monkeypatch.setattr(baselines, "DENSE_FACTOR_CAP", 2)
        assert main(["run", "--scenario", scenario_path("resting_particle"), "--solver", "pgs"]) == 2
        assert capsys.readouterr().err == "error: factor_spd: dim 3 exceeds dense capacity 2\n"

    def test_missing_file_exit_4(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == 4

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_max_iter_below_one_exit_2(self, capsys, command, max_iter):
        args = [command, "--scenario", scenario_path("lattice_drag"), "--max-iter", max_iter]
        if command == "bench":
            args += ["--sizes", "300"]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: max_iters must be at least 1, got {max_iter}\n"

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_negative_seed_exit_2(self, capsys, command):
        # --seed -1 used to end in numpy's "expected non-negative integer"
        # traceback, exit 1
        args = [command, "--scenario", scenario_path("lattice_drag"), "--seed", "-1"]
        if command == "bench":
            args += ["--sizes", "300"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"

    def test_bench_sizes_must_ascend(self):
        code = main(
            ["bench", "--scenario", scenario_path("lattice_drag"), "--sizes", "600,300"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "sizes, named",
        [
            ("300,301", "bench sizes 300 and 301 give lattices of 324 and 324 DOF; each size must give a larger"),
            ("-30,0,3", "bench needs one or more sizes, each at least 1, got [-30, 0, 3]"),
            ("0", "bench needs one or more sizes, each at least 1, got [0]"),
            ("", "bench needs one or more sizes, each at least 1, got []"),
        ],
        ids=["one-lattice", "below-one", "zero", "empty"],
    )
    def test_bench_sizes_that_cannot_fit_exit_2(self, monkeypatch, capsys, sizes, named):
        # each of these used to run and exit 0: 300,301 fitted two 324-DOF
        # lattices (exponent -0.63, R^2 0), -30,0,3 three 9-DOF ones, and ""
        # printed only the header
        from condsim import harness

        monkeypatch.setattr(harness, "run", lambda *args: pytest.fail("a bench size ran"))
        assert main(["bench", "--scenario", scenario_path("lattice_drag"), f"--sizes={sizes}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and named in err

    def test_run_prints_unconverged_and_diverged_totals(self, capsys):
        assert main(["run", "--scenario", scenario_path("box_slide")]) == 0
        assert "steps=300 unconverged=0 diverged=0" in capsys.readouterr().out
        assert main(["run", "--scenario", scenario_path("box_slide"), "--max-iter", "1"]) == 0
        totals = capsys.readouterr().out.splitlines()[0].split()
        assert totals[0] == "steps=300" and totals[2] == "diverged=0"
        assert totals[1].startswith("unconverged=") and int(totals[1].split("=")[1]) > 0

    def test_failed_fallback_exits_diverged(self, monkeypatch, capsys):
        # every solve diverges, and the contact-free CG fallback reports info=1
        import scipy.sparse.linalg

        from condsim import harness

        def diverge(*args, **kwargs):
            raise DivergenceError("forced")

        monkeypatch.setattr(harness, "solve_vfpi", diverge)
        monkeypatch.setattr(scipy.sparse.linalg, "cg", lambda a, b, **kwargs: (np.zeros_like(b), 1))
        with pytest.raises(DivergenceError, match="contact-free fallback did not converge"):
            run(load_scenario(scenario_path("free_fall")))
        assert main(["run", "--scenario", scenario_path("free_fall")]) == 3
        assert capsys.readouterr().err == "error: contact-free fallback did not converge\n"

    def test_diverged_step_takes_the_flagged_fallback(self, monkeypatch, capsys):
        # the fifth solve diverges; the contact-free CG step stands in for it
        from condsim import harness

        solve, calls = harness.solve_vfpi, []

        def diverge_fifth(*args, **kwargs):
            calls.append(None)
            if len(calls) == 5:
                raise DivergenceError("forced")
            return solve(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_vfpi", diverge_fifth)
        res = run(load_scenario(scenario_path("free_fall")))
        assert [r.step for r in res.rows if r.diverged] == [4]
        assert res.any_diverged and not res.rows[4].converged
        # a diverged V-FPI solve reports no iterations, residual or force check
        assert (res.rows[4].iters, res.rows[4].residual) == (0, 0.0) and np.isnan(res.rows[4].consistency)
        assert abs(res.state.v[2] + 9.81) <= 1e-9
        calls.clear()
        assert main(["run", "--scenario", scenario_path("free_fall")]) == 3
        captured = capsys.readouterr()
        assert "diverged=1" in captured.out
        assert captured.err == "warning: divergence fallback used on at least one step\n"

    def test_baseline_non_finite_velocity_takes_the_flagged_fallback(self, monkeypatch, capsys):
        # the third PGS step recovers a NaN velocity; its row keeps the
        # baseline's iteration count, and the contact-free CG step stands in
        import scipy.sparse.linalg

        from condsim import harness

        solve_pgs, recover, cg = harness.bl.solve_pgs, harness.bl.recover_velocity, scipy.sparse.linalg.cg
        iters, fallbacks = [], []

        def counting_pgs(prob, bcfg):
            lam, rep = solve_pgs(prob, bcfg)
            iters.append(rep.iterations)
            return lam, rep

        def nan_on_third(prob, lam):
            v = recover(prob, lam)
            return np.full_like(v, np.nan) if len(iters) == 3 else v

        def counting_cg(*args, **kwargs):
            fallbacks.append(None)
            return cg(*args, **kwargs)

        monkeypatch.setattr(harness.bl, "solve_pgs", counting_pgs)
        monkeypatch.setattr(harness.bl, "recover_velocity", nan_on_third)
        monkeypatch.setattr(scipy.sparse.linalg, "cg", counting_cg)
        res = run(load_scenario(scenario_path("resting_particle")), RunConfig(solver="pgs"))
        assert [r.step for r in res.rows if r.diverged] == [2]
        assert res.rows[2].iters == iters[2] > 0
        assert len(fallbacks) == 1 and res.any_diverged
        iters.clear()
        assert main(["run", "--scenario", scenario_path("resting_particle"), "--solver", "pgs"]) == 3
        assert "diverged=1" in capsys.readouterr().out

    @pytest.mark.parametrize("solver", ["pgs", "apgd"])
    def test_baseline_rejects_anisotropic_operator(self, capsys, solver):
        # the baselines project onto the isotropic cone only, whatever the operator
        s = load_scenario(scenario_path("anisotropic_slide"))
        named = f"solver '{solver}' does not support operator 'strict-anisotropic'"
        with pytest.raises(ScenarioValidationError, match=named):
            run(s, RunConfig(solver=solver, operator="strict-anisotropic"))
        args = ["run", "--scenario", s.path, "--solver", solver, "--operator", "strict-anisotropic"]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_operator_takes_the_library_name(self, tmp_path):
        path = scenario_path("anisotropic_slide")
        out, ref = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert main(["run", "--scenario", path, "--operator", "strict-anisotropic", "--out", str(out)]) == 0
        report_csv(run(load_scenario(path), RunConfig(operator="strict-anisotropic")).rows, str(ref))
        keep = [k for k, c in enumerate(CSV_COLUMNS) if not c.endswith("_ms")]

        def numbers(p):
            return [[line.split(",")[k] for k in keep] for line in p.read_text().splitlines()]

        assert numbers(out) == numbers(ref)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", path, "--operator", "anisotropic"])
        assert exc.value.code == 2

    def test_bench_writes_one_row_per_size_and_a_fit(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        args = ["bench", "--scenario", scenario_path("lattice_drag"), "--sizes", "300,600", "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,solve_s,mean_dyn_s,mean_iters"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [324, 576]
        assert capsys.readouterr().out.startswith("fit: exponent=")

    def test_bench_sizes_must_be_integers(self, capsys):
        assert main(["bench", "--scenario", scenario_path("lattice_drag"), "--sizes", "300,abc"]) == 2
        assert "--sizes must be comma-separated integers, got '300,abc'" in capsys.readouterr().err

    def test_console_script_installed(self, tmp_path):
        """The declared ``condsim`` console script works as an installed launcher.

        Reads the ``[project.scripts]`` target from pyproject.toml and starts it
        in a fresh interpreter the way an installer's generated launcher does,
        so the check does not depend on the package being installed.
        """
        import os
        import subprocess
        import sys

        tomllib = pytest.importorskip("tomllib")
        root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["condsim"]
        module, attr = target.split(":")
        launcher = (
            f"import sys\nfrom {module} import {attr}\n"
            f"sys.argv[0] = 'condsim'\nsys.exit({attr}())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )

        def launch(*args):
            return subprocess.run([sys.executable, "-c", launcher, *args],
                                  capture_output=True, text=True, env=env)

        proc = launch("run", "--scenario", scenario_path("free_fall"))
        assert proc.returncode == 0, proc.stderr
        assert "steps=100" in proc.stdout
        missing = launch("run", "--scenario", str(tmp_path / "nope.json"))
        assert missing.returncode == 4, missing.stderr
