"""Layer spans for the traced pass, installed from outside the program.

Wrappers replace the public functions of each padiff layer at every
place a caller looks them up (a module global, an imported name or a
class attribute).  Each wrapped call appends a span [name, start, end,
parent] to an in-memory list; counters ride on the same wrappers.  A
layer's time is the self time of its spans: duration minus the time
covered by child spans.  Work done by the hooks that count outputs is
itself recorded as a "trace.hook" child span, so it never lands in a
layer's self time.

PadicNumber operations are too frequent to wrap.  The padic layer is
described by coefficient counts read from returned sections, iterates
and witness maps, and by a short kernel pass over operands taken from
those same outputs.
"""

from __future__ import annotations

import statistics
from collections import Counter
from fractions import Fraction
from functools import wraps
from time import perf_counter

KERNEL_POOL = 128
KERNEL_PASSES = 15

# layer metric -> span names whose self time it sums
SELF_TIMES = {
    "cli.self_s": ("cli.main",),
    "radii.iterates_self_s": ("radii.iterates",),
    "radii.reads_s": ("radii.column_radii", "radii.top_radius"),
    "radii.kernel_candidates_s": ("radii.kernel_candidates",),
    "radii.reconcile_s": ("radii.boundary_multiset",),
    "diffmod.solve_horizontal_s": ("diffmod.solve_horizontal",),
    # wedge and invert never run on the rank-1 exact_inverse workload; alone
    # they would read exactly 0 there, so each shares a metric with a kin
    "diffmod.other_s": ("diffmod.h0_basis", "diffmod.wedge"),
    "linalg.solve_regular_s": ("linalg.solve_regular",),
    "linalg.smith_s": ("linalg.smith_normal_form",),
    "linalg.kernel_basis_s": ("linalg.kernel_basis",),
    "linalg.matmul_s": ("linalg.matmul", "linalg.matvec"),
    "pipeline.self_s": ("pipeline.verify_conjecture", "pipeline.construct_submodule",
                        "pipeline.verify_dwork_bound", "pipeline.transfer_check"),
    "series.mul_s": ("series.mul",),
    "series.addsub_s": ("series.addsub",),
    "series.derive_s": ("series.derive",),
    "series.divide_s": ("series.divide", "series.invert"),
    "series.gauss_norm_s": ("series.gauss_norm",),
}

# metric -> span names timed in full (inclusive of child spans)
INCLUSIVE = {
    "corpus.build_s": ("corpus.build",),
    "radii.iterates_s": ("radii.iterates",),
}

# stage metric -> span names timed in full when called by verify_conjecture
STAGES = {
    "pipeline.h0_s": ("diffmod.h0_basis",),
    "pipeline.boundary_s": ("radii.boundary_multiset",),
    "pipeline.witness_s": ("pipeline.construct_submodule",),
    "pipeline.checks_s": ("pipeline.verify_dwork_bound", "pipeline.transfer_check"),
}

COUNTS = (
    "radii.iterate_mats", "radii.candidates_tried", "radii.columns_echelonized",
    "radii.flags_window_edge", "radii.flags_indeterminate",
    "diffmod.section_coeffs", "diffmod.echelon_steps",
    "linalg.solve_regular_coeffs", "linalg.smith_calls", "linalg.field_solve_calls",
    "series.mul_calls", "series.mul_terms",
    "series.gauss_norm_calls", "series.gauss_norm_distinct",
    "padic.exact_coeffs", "padic.capped_coeffs", "padic.exact_bits_max",
)

LAYERS = ("cli", "corpus", "pipeline", "radii", "diffmod", "linalg", "series")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._gauss_seen: dict = {}        # (id(series), r) -> series, per call
        self._columns_seen: dict = {}      # id(list) -> list, per call
        self._operands: dict = {}          # prime -> ([exact], [capped])
        self._pooled: set = set()          # primes whose operand pools are final
        self._undo: list = []

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """fn recorded as a span; hook(args, result) runs as a trace.hook span."""
        layer = _layer(name)
        spans, stack, counts = self.spans, self.stack, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = perf_counter()
                stack.pop()
                if parent < 0 or _layer(spans[parent][0]) != layer:
                    counts[layer + ".raised"] += 1
                raise
            rec[2] = perf_counter()
            stack.pop()
            if hook is not None:
                self._run_hook(hook, args, result)
            return result

        return traced

    def count_only(self, fn, hook):
        """fn left untimed; hook(args, result) counts its output."""

        @wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._run_hook(hook, args, result)
            return result

        return counted

    def _run_hook(self, hook, args, result) -> None:
        rec = ["trace.hook", perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(rec)
        hook(args, result)
        rec[2] = perf_counter()

    def patch(self, owners, attr: str, replacement) -> None:
        for owner in owners:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- hooks -----------------------------------------------------------

    def _note_coeffs(self, series_list) -> None:
        counts = self.counts
        for s in series_list:
            exact, capped = self._operands.setdefault(s.p, ([], []))
            pool = s.p not in self._pooled
            for c in s.coeffs:
                if c.exact is not None:
                    counts["padic.exact_coeffs"] += 1
                    if c.exact:
                        q = c.exact
                        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
                        if bits > counts["padic.exact_bits_max"]:
                            counts["padic.exact_bits_max"] = bits
                        if pool:
                            exact.append(c)
                else:
                    counts["padic.capped_coeffs"] += 1
                    if c.u and pool:
                        capped.append(c)

    def _h0_hook(self, args, rep) -> None:
        self.counts["diffmod.echelon_steps"] += rep.echelon_steps
        self._note_coeffs(s for sec in rep.sections for s in sec.section)

    def _solve_horizontal_hook(self, args, section) -> None:
        self.counts["diffmod.section_coeffs"] += sum(len(s.coeffs) for s in section)

    def _iterates_hook(self, args, _) -> None:
        mats = args[0].mats
        self.counts["radii.iterate_mats"] += len(mats)
        self._note_coeffs(c for m in mats for row in m.entries for c in row)

    def _witness_hook(self, args, w) -> None:
        found = []
        for mat in (w.phi, w.theta, None if w.submodule is None else w.submodule.matrix):
            if mat is not None:
                found += [c for row in mat.entries for c in row]
        self._note_coeffs(found + list(w.e or []))

    def _flags(self, flags) -> None:
        if "window_edge" in flags:
            self.counts["radii.flags_window_edge"] += 1
        if "indeterminate" in flags:
            self.counts["radii.flags_indeterminate"] += 1

    def _columns_hook(self, args, cols) -> None:
        if id(cols) in self._columns_seen:        # a cached read
            return
        self._columns_seen[id(cols)] = cols
        for c in cols:
            self._flags(c.flags)

    def _top_radius_hook(self, args, sample) -> None:
        self._flags(sample.flags)

    def _candidates_hook(self, args, cands) -> None:
        self.counts["radii.candidates_tried"] += len(cands)

    def _echelonized_hook(self, args, cols) -> None:
        self.counts["radii.columns_echelonized"] += sum(1 for c in cols if c.echelonized)

    def _mul_hook(self, args, result) -> None:
        a, b = args[0], args[1]
        hi = result.order
        ob = b.order
        self.counts["series.mul_calls"] += 1
        self.counts["series.mul_terms"] += sum(max(0, min(ob, hi - i) + 1)
                                               for i in range(len(a.coeffs)))

    def _gauss_hook(self, args, _) -> None:
        s, r = args[0], Fraction(args[1])
        self.counts["series.gauss_norm_calls"] += 1
        key = (id(s), r)
        if key not in self._gauss_seen:
            self._gauss_seen[key] = s
            self.counts["series.gauss_norm_distinct"] += 1

    def _solve_regular_hook(self, args, X) -> None:
        self.counts["linalg.solve_regular_coeffs"] += sum(
            len(c.coeffs) for row in X.entries for c in row)

    def _tally(self, name: str):
        def hook(args, _):
            self.counts[name] += 1
        return hook

    def end_call(self) -> None:
        """Forget object identities once a module's call has returned.

        The first call at each prime fixes that prime's kernel operands:
        evenly spaced picks from the nonzero coefficients it returned.
        """
        self._gauss_seen.clear()
        self._columns_seen.clear()
        for p, pools in self._operands.items():
            if p not in self._pooled:
                for pool in pools:
                    pool[:] = pool[::max(len(pool) // KERNEL_POOL, 1)][:KERNEL_POOL]
                self._pooled.add(p)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from padiff import cli, corpus, diffmod, linalg, pipeline, radii, series

        DM = diffmod.DifferentialModule
        SM = linalg.SeriesMatrix
        TS = series.TruncatedSeries
        PI = radii.PowerIterates
        RW = radii.RadiusWorkbench
        w = self.wrap

        self.patch([cli], "main", w("cli.main", cli.main))
        self.patch([corpus], "build", w("corpus.build", corpus.build))
        for fn, owners in (
            (pipeline.verify_conjecture, [pipeline, cli]),
            (pipeline.construct_submodule, [pipeline, cli]),
            (pipeline.verify_dwork_bound, [pipeline, cli]),
            (pipeline.transfer_check, [pipeline]),
        ):
            hook = self._witness_hook if fn is pipeline.construct_submodule else None
            self.patch(owners, fn.__name__, w("pipeline." + fn.__name__, fn, hook))

        self.patch([PI], "__init__", w("radii.iterates", PI.__init__, self._iterates_hook))
        self.patch([PI], "kernel_candidates",
                   w("radii.kernel_candidates", PI.kernel_candidates, self._candidates_hook))
        self.patch([RW], "column_radii",
                   w("radii.column_radii", RW.column_radii, self._columns_hook))
        self.patch([RW], "top_radius",
                   w("radii.top_radius", RW.top_radius, self._top_radius_hook))
        self.patch([RW], "boundary_multiset",
                   w("radii.boundary_multiset", RW.boundary_multiset))
        self.patch([RW], "_echelonize_columns",
                   self.count_only(RW._echelonize_columns, self._echelonized_hook))

        self.patch([DM], "h0_basis", w("diffmod.h0_basis", DM.h0_basis, self._h0_hook))
        self.patch([DM], "solve_horizontal",
                   w("diffmod.solve_horizontal", DM.solve_horizontal,
                     self._solve_horizontal_hook))
        self.patch([DM], "wedge", w("diffmod.wedge", DM.wedge))

        self.patch([linalg, pipeline], "solve_regular",
                   w("linalg.solve_regular", linalg.solve_regular,
                     self._solve_regular_hook))
        self.patch([linalg], "smith_normal_form",
                   w("linalg.smith_normal_form", linalg.smith_normal_form,
                     self._tally("linalg.smith_calls")))
        self.patch([linalg, radii, pipeline], "kernel_basis",
                   w("linalg.kernel_basis", linalg.kernel_basis))
        self.patch([linalg], "field_solve",
                   self.count_only(linalg.field_solve, self._tally("linalg.field_solve_calls")))
        self.patch([SM], "__matmul__", w("linalg.matmul", SM.__matmul__))
        self.patch([SM], "matvec", w("linalg.matvec", SM.matvec))

        self.patch([TS], "__mul__", w("series.mul", TS.__mul__, self._mul_hook))
        self.patch([TS], "_addsub", w("series.addsub", TS._addsub))
        self.patch([TS], "derive", w("series.derive", TS.derive))
        self.patch([TS], "divide", w("series.divide", TS.divide))
        self.patch([TS], "invert", w("series.invert", TS.invert))
        self.patch([TS], "gauss_norm",
                   w("series.gauss_norm", TS.gauss_norm, self._gauss_hook))

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(spans):
            out[name] += end - start - covered[i]
        return out

    def stage_times(self) -> dict[str, float]:
        spans = self.spans
        out: Counter = Counter()
        by_name = {n: metric for metric, names in STAGES.items() for n in names}
        for name, start, end, parent in spans:
            metric = by_name.get(name)
            if metric and parent >= 0 and spans[parent][0] == "pipeline.verify_conjecture":
                out[metric] += end - start
        return out

    def inclusive(self, names) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n in names)

    def top_level(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def kernel_pass(self) -> dict[str, float]:
        """Microseconds per PadicNumber add and mul on workload operands.

        Operands come from end_call.  A workload without capped
        coefficients is timed on capped copies of its exact ones, and the
        other way round.
        """
        from padiff.padic import PadicNumber

        pairs = {"exact": [], "capped": []}
        for p, (exact, capped) in sorted(self._operands.items()):
            if not capped:
                capped = [PadicNumber.approximate(p, c.v, c.u, c.N) for c in exact]
            if not exact:
                exact = [PadicNumber.from_rational(c.u * p ** max(c.v, 0),
                                                   p ** max(-c.v, 0), p)
                         for c in capped]
            for kind, pool in (("exact", exact), ("capped", capped)):
                pairs[kind] += list(zip(pool, pool[1:] + pool[:1]))
        out = {}
        for kind, ops in pairs.items():
            for op in ("add", "mul"):
                samples = []
                for _ in range(KERNEL_PASSES):
                    t0 = perf_counter()
                    if op == "add":
                        for a, b in ops:
                            a + b
                    else:
                        for a, b in ops:
                            a * b
                    samples.append((perf_counter() - t0) / len(ops) * 1e6)
                out["padic.%s_%s_us" % (op, kind)] = statistics.median(samples)
        return out

    def metrics(self, rounds: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics per round of the workload."""
        selfs = self.self_times()
        stages = self.stage_times()
        out = {}
        for metric in STAGES:
            out[metric] = stages[metric] / rounds
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(selfs[n] for n in names) / rounds
        for metric, names in INCLUSIVE.items():
            out[metric] = self.inclusive(names) / rounds
        for name in COUNTS:
            value = self.counts[name]
            out[name] = value if name == "padic.exact_bits_max" else value / rounds
        for layer in LAYERS:
            out[layer + ".raised"] = self.counts[layer + ".raised"] / rounds
        out.update(self.kernel_pass())
        out["trace.wall_s"] = wall_s / rounds
        out["trace.top_level_s"] = self.top_level() / rounds
        out["trace.hooks_s"] = selfs["trace.hook"] / rounds
        out["trace.spans"] = len(self.spans) / rounds
        return out
