"""Spans and counters recorded around calls into hiddenscale's modules.

The wrappers are installed from here: on module attributes, on the names
``cli`` imported by value, and on ``Expr`` / ``UniformSolution`` methods; the
program itself is not edited.  Module-level functions get one span per call
(name, start, end, parent, pass id, spec).  Methods that run millions of
times (``Expr`` arithmetic, uniform-solution evaluation, text printing) keep
only call counts and busy time.

Counters go to the current pass's ``Counter``.  Keys ending in ``.s`` hold
seconds; the rest are counts.  The busy time of an aggregated method includes
the methods it calls, but a method calling itself is timed once.  A span's
self time is its duration minus the time its direct children (spans and
outermost aggregated calls) cover.
"""

from __future__ import annotations

import collections
import functools
import inspect
from time import perf_counter

import numpy as np

# ROADMAP's symbolic stages: series, (filter), paint, flow system, orbits,
# assembly.  Their time is also kept per spec.
STAGES = ("pertseries.build_bare_series", "ftflow.most_divergent_filter",
          "ftflow.paint", "ftflow.derive_ft_system", "ftflow.integrate_orbits",
          "ftflow.assemble_uniform")


class Tracer:
    def __init__(self):
        self.on = False
        self.op = ("", "")          # (command, spec) of the running operation
        self.pass_id = -1
        self.counts = collections.Counter()
        self.spans = []             # [name, start, end, parent, pass, spec]
        self.child_s = []           # seconds covered by each span's children
        self.stack = []             # indices of open spans
        self.agg_depth = 0          # open aggregated calls

    def begin_pass(self, pass_id: int):
        self.pass_id = pass_id
        self.counts = collections.Counter()
        self.on = True

    def end_pass(self) -> collections.Counter:
        """Stop recording; return the pass's counters plus cli self time."""
        self.on = False
        for i, sp in enumerate(self.spans):
            if sp[4] == self.pass_id and sp[0].startswith("cli."):
                self.counts["cli.self_s"] += (sp[2] - sp[1]) - self.child_s[i]
        return self.counts

    def add(self, key, value=1):
        if self.on:
            self.counts[key] += value

    def op_key(self, suffix: str) -> str:
        """Counter attributed to the running operation, e.g. its rhs calls."""
        return f"{self.op[0]}.{self.op[1]}.{suffix}"

    def span(self, name, fn, post=None):
        """One span per call; ``post(counts, result)`` adds counters."""
        tr = self
        per_spec = name in STAGES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            idx = len(tr.spans)
            parent = tr.stack[-1] if tr.stack else None
            tr.spans.append([name, 0.0, 0.0, parent, tr.pass_id, tr.op[1]])
            tr.child_s.append(0.0)
            tr.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.stack.pop()
                tr.spans[idx][1:3] = [t0, t1]
                if parent is not None and tr.agg_depth == 0:
                    tr.child_s[parent] += t1 - t0
                c = tr.counts
                c[name + ".calls"] += 1
                c[name + ".s"] += t1 - t0
                if per_spec or parent is None:
                    c[f"{name}.{tr.op[1]}.s"] += t1 - t0
            if post is not None:
                post(c, result)
            return result
        return wrapper

    def aggregate(self, name, fn):
        """Count calls and busy time only."""
        tr = self
        calls, secs = name + ".calls", name + ".s"
        inside = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            tr.counts[calls] += 1
            if inside[0]:
                return fn(*args, **kwargs)
            inside[0] = True
            tr.agg_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inside[0] = False
                tr.agg_depth -= 1
                tr.counts[secs] += dt
                if tr.agg_depth == 0 and tr.stack:
                    tr.child_s[tr.stack[-1]] += dt
        return wrapper


def rk4_steps(interval, step, t_eval) -> int:
    """Steps the fixed-step RK4 is asked for: each output interval is cut
    into max(1, round(width/step)) equal substeps."""
    if t_eval is not None:
        grid = np.asarray(t_eval, dtype=float)
    else:
        t0, t1 = float(interval[0]), float(interval[1])
        grid = np.linspace(t0, t1, max(1, int(round((t1 - t0) / step))) + 1)
    return int(np.sum(np.maximum(1, np.rint(np.diff(grid) / step))))


def install(tr: Tracer):
    """Wrap hiddenscale's public functions and hot methods with ``tr``."""
    from hiddenscale import (cli, exprcore, filament, ftflow, numlab, pertsym,
                             specfile, switchback, textform)

    def wrap(owner, attr, name, post=None):
        setattr(owner, attr, tr.span(name, getattr(owner, attr), post))

    wrap(specfile, "parse_spec", "specfile.parse_spec")
    wrap(cli, "ode_problem", "specfile.ode_problem")
    wrap(cli, "build_bare_series", "pertseries.build_bare_series")

    def flow_kinds(c, flows):
        for f in flows.flows.values():
            c["ftflow.flows." + f.kind] += 1
            if f.kind == "numeric":
                c[tr.op_key("numeric_flows")] += 1
    for name in STAGES[1:]:
        attr = name.split(".")[1]
        wrap(ftflow, attr, name,
             flow_kinds if attr == "integrate_orbits" else None)
    wrap(pertsym, "solve_determining", "pertsym.solve_determining")
    wrap(pertsym, "burgers_ft_solve", "pertsym.burgers_ft_solve")
    for attr in ("switchback_series", "most_divergent_sum",
                 "terrible_hidden_scale"):
        wrap(switchback, attr, "switchback." + attr)
    wrap(filament, "derive", "filament.derive")

    # numlab.solve_ivp: one span name per method; the rhs the caller passes
    # in is wrapped to count its calls
    ivp = numlab.solve_ivp
    ivp_sig = inspect.signature(ivp)
    ivp_spans = {}

    @functools.wraps(ivp)
    def solve_ivp(*args, **kwargs):
        if not tr.on:
            return ivp(*args, **kwargs)
        bound = ivp_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        name = "numlab.solve_ivp." + a["method"]
        rhs, n_rhs = a["rhs"], [0]

        def counted(t, y):
            n_rhs[0] += 1
            return rhs(t, y)
        a["rhs"] = counted
        tr.add("numlab.solve_ivp.all.calls")
        if a["method"] == "rk4-fixed":
            steps = rk4_steps(a["interval"], a["step"], a["t_eval"])
            tr.add(name + ".steps", steps)
            tr.add(tr.op_key("rk4_steps"), steps)
        if name not in ivp_spans:
            ivp_spans[name] = tr.span(name, ivp)
        try:
            return ivp_spans[name](*bound.args, **bound.kwargs)
        finally:
            tr.add(name + ".rhs_calls", n_rhs[0])
            tr.add(tr.op_key("rhs_calls"), n_rhs[0])
    numlab.solve_ivp = solve_ivp

    # shooting iterations: IVP solves started inside one shooting call
    shoot = tr.span("numlab.solve_bvp_shooting", numlab.solve_bvp_shooting)

    @functools.wraps(numlab.solve_bvp_shooting)
    def solve_bvp_shooting(*args, **kwargs):
        before = tr.counts["numlab.solve_ivp.all.calls"]
        try:
            return shoot(*args, **kwargs)
        finally:
            n = tr.counts["numlab.solve_ivp.all.calls"] - before
            tr.add("numlab.solve_bvp_shooting.iterations", n)
            tr.add(tr.op_key("shoot_iterations"), n)
    numlab.solve_bvp_shooting = solve_bvp_shooting

    def drift(c, field):
        c["numlab.solve_burgers_mol.richardson_drift"] += \
            field["richardson_drift"]
    wrap(numlab, "solve_burgers_mol", "numlab.solve_burgers_mol", drift)

    def pipeline(c, result):
        c[tr.op_key("pipeline_calls")] += 1
    wrap(cli, "hidden_scale_pipeline", "cli.hidden_scale_pipeline", pipeline)

    def sweep_point(c, result):
        if tr.op[0] == "cli.run_sweep":
            c["cli.run_sweep.validate_calls"] += 1
            c[tr.op_key("validate_calls")] += 1
    wrap(cli, "run_derive", "cli.run_derive")
    wrap(cli, "run_validate", "cli.run_validate", sweep_point)
    wrap(cli, "run_sweep", "cli.run_sweep")

    Expr = exprcore.Expr
    for attr, name in (("__mul__", "mul"), ("__add__", "add"),
                       ("diff", "diff"), ("subs_param", "subs_param"),
                       ("collect_order", "collect_order"), ("eval", "eval")):
        w = tr.aggregate("exprcore.Expr." + name, getattr(Expr, attr))
        setattr(Expr, attr, w)
        if attr in ("__mul__", "__add__"):     # __rmul__ / __radd__ aliases
            setattr(Expr, "__r" + attr[2:], w)
    ftflow.UniformSolution.evaluate = tr.aggregate(
        "ftflow.evaluate", ftflow.UniformSolution.evaluate)
    textform.expr_text = tr.aggregate("textform.expr_text", textform.expr_text)
