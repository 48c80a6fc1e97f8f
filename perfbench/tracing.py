"""Outside-in tracing of simulation rounds.

``Tracer.attached`` replaces the layer functions that ``harness.run`` and
``solver.solve_vfpi`` look up by name (and ``ContactMap.jc``/``jc_t`` on the
class) with timing wrappers, and puts the originals back on exit. Step-level
calls become spans ``(name, round, step, parent, start, end)``; the step
number is the shared identifier and advances on every ``external_force``
call, the first layer of each step in ``harness.run``. Per-iteration calls
are aggregated into a count and a total time per step. Everything stays in
memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

# (module attribute, span name) of the step-level layers called by harness.run
STEP_LAYERS = (
    ("external_force", "harness.external_force"),
    ("assemble_step", "dynamics.assemble_step"),
    ("detect_contacts", "contacts.detect_contacts"),
    ("nodalize", "contacts.nodalize"),
    ("augment_dynamics", "contacts.augment_dynamics"),
    ("solve_vfpi", "solver.solve_vfpi"),
    ("integrate", "dynamics.integrate"),
    ("kinetic_energy", "dynamics.kinetic_energy"),
)
# layers called once per solve from inside solve_vfpi: W and gamma set-up
SOLVER_SETUP = (
    ("step_matrix_frobenius", "solver.step_matrix_frobenius"),
    ("surrogate_gamma", "solver.surrogate_gamma"),
)
# layers called every V-FPI iteration, aggregated per step
SOLVER_PER_ITERATION = (
    ("spmv", "sparse.spmv"),
    ("contact_solve_oneshot", "solver.contact_solve_oneshot"),
)
CONTACT_MAP_PER_ITERATION = (("jc", "contacts.jc"), ("jc_t", "contacts.jc_t"))


@contextlib.contextmanager
def replaced(owner, name: str, value):
    """Set ``owner.name`` to ``value`` for the duration of the block."""
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield original
    finally:
        setattr(owner, name, original)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, round, step, parent, start, end)
        # (round, step) -> {name: [count, seconds]} of the per-iteration layers
        self.calls = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.current = defaultdict(lambda: [0, 0.0])  # the step being traced
        self.iterations = {}  # (round, step) -> SolverReport.iterations
        self.round_s = {}  # round -> wall time of harness.run
        self.round = -1
        self.step = -1

    def _span(self, name, fn, parent=None, advance=False):
        spans = self.spans

        def wrapped(*args, **kwargs):
            if advance:
                self.step += 1
                self.current = self.calls[(self.round, self.step)]
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, self.round, self.step, parent, t0, perf_counter()))

        return wrapped

    def _solve(self, fn):
        span = self._span("solver.solve_vfpi", fn)

        def wrapped(*args, **kwargs):
            out = span(*args, **kwargs)
            self.iterations[(self.round, self.step)] = out[2].iterations
            return out

        return wrapped

    def _counted(self, name, fn):
        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            slot = self.current[name]
            slot[0] += 1
            slot[1] += perf_counter() - t0
            return out

        return wrapped

    @contextlib.contextmanager
    def attached(self, harness, solver, contact_map_cls):
        """Trace one round; ``harness``/``solver`` are the condsim modules."""
        self.round += 1
        self.step = -1
        with contextlib.ExitStack() as stack:
            for attr, name in STEP_LAYERS:
                fn = getattr(harness, attr)
                if attr == "solve_vfpi":
                    wrapped = self._solve(fn)
                else:
                    wrapped = self._span(name, fn, advance=attr == "external_force")
                stack.enter_context(replaced(harness, attr, wrapped))
            for attr, name in SOLVER_SETUP:
                fn = getattr(solver, attr)
                stack.enter_context(replaced(solver, attr, self._span(name, fn, "solver.solve_vfpi")))
            for attr, name in SOLVER_PER_ITERATION:
                stack.enter_context(replaced(solver, attr, self._counted(name, getattr(solver, attr))))
            for attr, name in CONTACT_MAP_PER_ITERATION:
                fn = getattr(contact_map_cls, attr)
                stack.enter_context(replaced(contact_map_cls, attr, self._counted(name, fn)))
            yield self

    def record_setup(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, None, None, None, start, end))

    def per_layer(self) -> dict:
        """Per-layer figures over every traced step (units in the names)."""
        per_step = defaultdict(float)  # (name, round, step) -> seconds
        setup = defaultdict(list)
        for name, rnd, step, parent, t0, t1 in self.spans:
            if rnd is None:
                setup[name].append(t1 - t0)
            else:
                per_step[(name, rnd, step)] += t1 - t0
        steps = sorted(self.iterations)
        if not steps:
            raise ValueError("no traced step")

        def step_median_ms(names):
            return 1e3 * statistics.median(
                sum(per_step[(n, r, s)] for n in names) for r, s in steps
            )

        out = {
            "harness.load_scenario_ms": 1e3 * statistics.median(setup["harness.load_scenario"]),
            "harness.build_scene_ms": 1e3 * statistics.median(setup["harness.build_scene"]),
        }
        for _, name in STEP_LAYERS:
            out[f"{name}_ms"] = step_median_ms([name])
        setup_names = [name for _, name in SOLVER_SETUP]
        out["solver.setup_ms"] = step_median_ms(setup_names)
        iters = sum(self.iterations.values())
        loop_s = sum(
            per_step[("solver.solve_vfpi", r, s)] - sum(per_step[(n, r, s)] for n in setup_names)
            for r, s in steps
        )
        out["solver.iters_per_step"] = iters / len(steps)
        out["solver.iter_us"] = 1e6 * loop_s / max(iters, 1)
        totals = defaultdict(lambda: [0, 0.0])
        for per_name in self.calls.values():
            for name, (count, secs) in per_name.items():
                totals[name][0] += count
                totals[name][1] += secs
        for _, name in SOLVER_PER_ITERATION + CONTACT_MAP_PER_ITERATION:
            count, secs = totals[name]
            out[f"{name}_us"] = 1e6 * secs / max(count, 1)
        out["sparse.spmv_calls_per_step"] = totals["sparse.spmv"][0] / len(steps)
        # harness.run's own time: the round minus every step-level span in it
        layer_s = sum(
            t1 - t0 for name, rnd, _, parent, t0, t1 in self.spans
            if rnd is not None and parent is None
        )
        out["harness.run_self_ms"] = 1e3 * (sum(self.round_s.values()) - layer_s) / len(steps)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [list(s) for s in self.spans],
                    "calls": [
                        [r, s, name, *v]
                        for (r, s), per_name in self.calls.items()
                        for name, v in per_name.items()
                    ],
                    "iterations": [[r, s, n] for (r, s), n in self.iterations.items()],
                    "round_s": self.round_s,
                },
                fh,
            )
