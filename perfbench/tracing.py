"""Spans around calls into each layer's public functions, and the
per-layer metrics derived from them.

`Tracer.install()` replaces a public function with a timing wrapper in
every `knotfield` module namespace that binds it, because callers look
the name up there (`orbit` is bound in `knotfield.orbits`,
`knotfield.states` and `knotfield.cli`, for example).  Two methods are
wrapped on their classes.  `extract_from_samples` gets a differently named
span per namespace: called from `knotfield.extraction` it is the chart
extraction's marching, from `knotfield.evolution` the box-chart tracking.
Field evaluations are counted by a proxy around the `ComplexField` that
`parse_field_spec` hands out.  `Tracer.uninstall()` puts every original
back and reports whether each name is the original object again.

A span's self time is its duration minus the durations of the traced
spans directly inside it.  Field evaluations are transparent: they are
timed, but not subtracted from the span that made them, so the self time
of `extract` is its grid sampling.  The bookkeeping a wrapper does after
a call (counting neighbours, reading PD codes) is subtracted from the
enclosing span too, so it does not show up as that layer's self time.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from collections import defaultdict
from time import perf_counter



class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child_seconds]
        self.busy = defaultdict(float)  # seconds
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.peak = defaultdict(float)
        self.pd_seen = set()
        self._patches = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, after=None, on_error=None, transparent=False):
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, perf_counter() - t0, transparent)
                if on_error is not None:
                    self._hook(on_error, exc, args)
                raise
            self._close(frame, perf_counter() - t0, transparent)
            if after is not None:
                self._hook(after, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, dt, transparent):
        self.stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.busy[name] += dt
        self.self_time[name] += dt - frame[1]
        if self.stack and not transparent:
            self.stack[-1][1] += dt

    def _hook(self, hook, value, args):
        t0 = perf_counter()
        hook(value, args)
        if self.stack:
            self.stack[-1][1] += perf_counter() - t0

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "knotfield" and not modname.startswith("knotfield."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        # The package re-exports some functions under their module's name
        # (knotfield.wirtinger is a function there), so fetch the modules.
        (cli, diagram, evolution, extraction, fields, kernels, mosaic, moves, orbits,
         project, states, wirtinger) = (importlib.import_module(f"knotfield.{name}") for name in (
            "cli", "diagram", "evolution", "extraction", "fields", "kernels", "mosaic",
            "moves", "orbits", "project", "states", "wirtinger"))

        c = self.count
        pk = self.peak

        def expanded(result, _args):
            c["kernels.expand.neighbors"] += len(result)

        def orbit_done(result, _args):
            c["orbits.members"] += result.size
            c["orbits.new_members"] += result.size - 1

        def orbit_failed(exc, _args):
            seen = getattr(exc, "seen", None)
            if seen is not None:
                c["orbits.budget_exceeded"] += 1
                c["orbits.new_members"] += seen - 1

        def bracket_done(_result, args):
            k = len(args[0].crossings)
            c["diagram.bracket.states"] += 2 ** k
            pk["diagram.bracket.max_crossings"] = max(pk["diagram.bracket.max_crossings"], k)

        def jones_done(_result, args):
            code = args[0].pd_code()
            if code in self.pd_seen:
                c["diagram.jones.repeats"] += 1
            self.pd_seen.add(code)

        def extracted(result, _args):
            pk["extraction.residual_max"] = max(pk["extraction.residual_max"], result.residual)

        def marched(result, _args):
            c["extraction.vertices"] += sum(
                len(comp) - (1 if result.is_closed(i) else 0)
                for i, comp in enumerate(result.components))

        def verified(result, _args):
            c["project.crossings_raw"] += result.crossings_raw
            c["project.crossings_reduced"] += result.crossings_reduced

        def evolved(result, _args):
            drift = max(s.norm_drift() for s in result)
            pk["evolution.norm_drift_max"] = max(pk["evolution.norm_drift_max"], drift)

        def tracked(result, _args):
            c["evolution.track.gaps"] += sum(1 for s in result.snapshots if s.curve is None)

        plain = [
            ("kernels.expand", kernels.expand, expanded, None),
            ("orbits.orbit", orbits.orbit, orbit_done, orbit_failed),
            ("orbits.compile_instances", orbits.compile_instances, None, None),
            ("mosaic.encode", mosaic.encode, None, None),
            ("mosaic.trace_components", mosaic.trace_components, None, None),
            ("moves.apply", moves.apply, None, None),
            ("diagram.to_diagram", diagram.to_diagram, None, None),
            ("diagram.bracket", diagram.bracket, bracket_done, None),
            ("diagram.jones", diagram.jones, jones_done, None),
            ("wirtinger.wirtinger", wirtinger.wirtinger, None, None),
            ("wirtinger.rank", wirtinger.abelianization_rank, None, None),
            ("extraction.extract", extraction.extract, extracted, None),
            ("project.project_diagram", project.project_diagram, None, None),
            ("project.reduce_diagram", project.reduce_diagram, None, None),
            ("project.verify", project.verify_knot_type, verified, None),
            ("evolution.step", evolution.step, None, None),
            ("evolution.run", evolution.run, evolved, None),
            ("evolution.initial", evolution.initial_knot_state, None, None),
            ("evolution.track", evolution.track_nodal, tracked, None),
            ("cli.main", cli.main, None, None),
        ]
        for name, fn, after, on_error in plain:
            self._patch_everywhere(fn, self._wrap(name, fn, after, on_error))

        from_samples = extraction.extract_from_samples
        self._patch(extraction, "extract_from_samples",
                    self._wrap("extraction.from_samples", from_samples, marched))
        self._patch(evolution, "extract_from_samples",
                    self._wrap("evolution.box_extract", from_samples))

        self._patch(orbits.Orbit, "witness_for",
                    self._wrap("orbits.witness", orbits.Orbit.witness_for))
        self._patch(states.DiagonalObservable, "eigenvalue_for",
                    self._wrap("states.invariant", states.DiagonalObservable.eigenvalue_for))

        spec = fields.parse_field_spec

        def counted(f):
            evaluator = f.evaluator

            def evaluate(z, w):
                if getattr(z, "ndim", 0) == 0:
                    c["fields.eval.scalar_calls"] += 1
                else:
                    c["fields.eval.array_calls"] += 1
                    c["fields.eval.points"] += z.size
                return evaluator(z, w)

            timed = self._wrap("fields.eval", evaluate, transparent=True)
            return dataclasses.replace(f, evaluator=timed)

        self._patch_everywhere(spec, lambda s: counted(spec(s)))

    def uninstall(self):
        """Restore every wrapped name; return the names that did not restore."""
        bad = []
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if getattr(owner, attr) is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._patches.clear()
        return bad

    # -- metrics -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything traced so far, as {name: (value, unit)}."""
        ms = {k: v * 1e3 for k, v in self.busy.items()}
        self_ms = {k: v * 1e3 for k, v in self.self_time.items()}
        calls = self.calls
        c = self.count

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "kernels.expand.calls": (calls["kernels.expand"], "count"),
            "kernels.expand.neighbors": (c["kernels.expand.neighbors"], "count"),
            "kernels.expand.busy_ms": (ms.get("kernels.expand", 0.0), "ms"),
            "kernels.expand.us_per_state": (
                ratio(ms.get("kernels.expand", 0.0) * 1e3, calls["kernels.expand"]), "us"),
            "orbits.orbit.calls": (calls["orbits.orbit"], "count"),
            "orbits.orbit.busy_ms": (ms.get("orbits.orbit", 0.0), "ms"),
            "orbits.orbit.self_ms": (self_ms.get("orbits.orbit", 0.0), "ms"),
            "orbits.members": (c["orbits.members"], "count"),
            "orbits.new_ratio": (
                ratio(c["orbits.new_members"], c["kernels.expand.neighbors"]), "ratio"),
            "orbits.compile_instances.calls": (calls["orbits.compile_instances"], "count"),
            "orbits.compile_instances.busy_ms": (ms.get("orbits.compile_instances", 0.0), "ms"),
            "orbits.witness.busy_ms": (ms.get("orbits.witness", 0.0), "ms"),
            "orbits.budget_exceeded": (c["orbits.budget_exceeded"], "count"),
            "mosaic.encode.calls": (calls["mosaic.encode"], "count"),
            "mosaic.encode.busy_ms": (ms.get("mosaic.encode", 0.0), "ms"),
            "mosaic.trace_components.busy_ms": (ms.get("mosaic.trace_components", 0.0), "ms"),
            "moves.apply.calls": (calls["moves.apply"], "count"),
            "moves.apply.busy_ms": (ms.get("moves.apply", 0.0), "ms"),
            "states.invariant.busy_ms": (ms.get("states.invariant", 0.0), "ms"),
            "states.invariant.self_ms": (self_ms.get("states.invariant", 0.0), "ms"),
            "diagram.to_diagram.busy_ms": (ms.get("diagram.to_diagram", 0.0), "ms"),
            "diagram.bracket.calls": (calls["diagram.bracket"], "count"),
            "diagram.bracket.busy_ms": (ms.get("diagram.bracket", 0.0), "ms"),
            "diagram.bracket.states": (c["diagram.bracket.states"], "count"),
            "diagram.bracket.max_crossings": (self.peak["diagram.bracket.max_crossings"], "count"),
            "diagram.bracket.us_per_state": (
                ratio(ms.get("diagram.bracket", 0.0) * 1e3, c["diagram.bracket.states"]), "us"),
            "diagram.jones.calls": (calls["diagram.jones"], "count"),
            "diagram.jones.repeat_ratio": (
                ratio(c["diagram.jones.repeats"], calls["diagram.jones"]), "ratio"),
            "wirtinger.wirtinger.busy_ms": (ms.get("wirtinger.wirtinger", 0.0), "ms"),
            "wirtinger.rank.busy_ms": (ms.get("wirtinger.rank", 0.0), "ms"),
            "fields.eval.array_calls": (c["fields.eval.array_calls"], "count"),
            "fields.eval.points": (c["fields.eval.points"], "count"),
            "fields.eval.scalar_calls": (c["fields.eval.scalar_calls"], "count"),
            "fields.eval.busy_ms": (ms.get("fields.eval", 0.0), "ms"),
            "extraction.extract.calls": (calls["extraction.extract"], "count"),
            "extraction.extract.busy_ms": (ms.get("extraction.extract", 0.0), "ms"),
            "extraction.sampling_ms": (self_ms.get("extraction.extract", 0.0), "ms"),
            "extraction.from_samples.busy_ms": (ms.get("extraction.from_samples", 0.0), "ms"),
            "extraction.extract.retries": (
                calls["extraction.from_samples"] - calls["extraction.extract"], "count"),
            "extraction.vertices": (c["extraction.vertices"], "count"),
            "extraction.newton_evals_per_vertex": (
                ratio(c["fields.eval.scalar_calls"], c["extraction.vertices"]), "ratio"),
            "extraction.residual_max": (self.peak["extraction.residual_max"], "abs"),
            "project.project_diagram.busy_ms": (ms.get("project.project_diagram", 0.0), "ms"),
            "project.reduce_diagram.busy_ms": (ms.get("project.reduce_diagram", 0.0), "ms"),
            "project.verify.busy_ms": (ms.get("project.verify", 0.0), "ms"),
            "project.crossings_raw": (c["project.crossings_raw"], "count"),
            "project.crossings_reduced": (c["project.crossings_reduced"], "count"),
            "evolution.step.calls": (calls["evolution.step"], "count"),
            "evolution.step.busy_ms": (ms.get("evolution.step", 0.0), "ms"),
            "evolution.step.ms_per_call": (
                ratio(ms.get("evolution.step", 0.0), calls["evolution.step"]), "ms"),
            "evolution.initial.busy_ms": (ms.get("evolution.initial", 0.0), "ms"),
            "evolution.track.busy_ms": (ms.get("evolution.track", 0.0), "ms"),
            "evolution.track.self_ms": (self_ms.get("evolution.track", 0.0), "ms"),
            "evolution.box_extract.calls": (calls["evolution.box_extract"], "count"),
            "evolution.box_extract.busy_ms": (ms.get("evolution.box_extract", 0.0), "ms"),
            "evolution.track.gaps": (c["evolution.track.gaps"], "count"),
            "evolution.norm_drift_max": (self.peak["evolution.norm_drift_max"], "ratio"),
            "cli.main.busy_ms": (ms.get("cli.main", 0.0), "ms"),
            "cli.self_ms": (self_ms.get("cli.main", 0.0), "ms"),
        }
        return out
