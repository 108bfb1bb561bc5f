"""Spans and counters around the public functions of ``thrcalc``'s layers.

:class:`Tracer` replaces every public function of each layer module with a
wrapper that records a span ``(name, start, end, parent, case)``.  Modules
bind names such as ``from .fgab import solve_left`` at import time, so the
wrapper is put in place of the original in every ``thrcalc`` module that
holds it, and calls within a module go through it too.  Methods are not
wrapped, except the degeneracy filter ``TruncDihedralSet.nondegenerate``, so
time in any other method counts to the layer that calls it.  Mat
constructions are counted, not spanned.  A few wrappers also
run a hook on the call's result to count work (matrix cells, simplices,
chain ranks); the hook is timed as a child span of layer ``trace``, so it
counts against no layer's self time.

Spans stay in memory; :meth:`Tracer.metrics` turns one pass's spans into
the per-layer metrics and :meth:`Tracer.dump` writes them out.
"""

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "fgab",
    "involutive_algebra",
    "mackey",
    "thr_pi0",
    "dihedral",
    "homology",
    "cubes",
    "selftest",
    "cli",
)

# metric name -> span name whose inclusive time it reports
INCLUSIVE = {
    "fgab.solve_left.s": "fgab.solve_left",
    "thr_pi0.ses_check.s": "thr_pi0.ses_check",
    "thr_pi0.alpha_report.s": "thr_pi0.alpha_report",
    "dihedral.nerve_piece.s": "dihedral.dihedral_nerve_piece",
    "dihedral.fixed_subset.s": "dihedral.fixed_subset",
    "dihedral.power_map_check.s": "dihedral.power_map_fixed_iso_check",
    "homology.normalized_chains.s": "homology.normalized_chains",
    "cubes.tfib_recursion.s": "cubes.tfib_recursion_check",
}
LOADERS = (
    "involutive_algebra.load_description",
    "involutive_algebra.ring_from_description",
    "involutive_algebra.monoid_from_description",
)
# metric name -> span name whose calls it counts
CALLS = {
    "fgab.snf.calls": "fgab.snf",
    "fgab.solve_left.calls": "fgab.solve_left",
    "fgab.row_kernel.calls": "fgab.row_kernel",
    "fgab.group.calls": "fgab.group",
    "involutive_algebra.weight_tuples.calls": "involutive_algebra.weight_tuples",
    "mackey.make_mackey.calls": "mackey.make_mackey",
    "homology.normalized_chains.calls": "homology.normalized_chains",
    "homology.homology.calls": "homology.homology",
    "cubes.total_fiber.calls": "cubes.total_fiber",
    "dihedral.nondegenerate.calls": "dihedral.nondegenerate",
}
CRITERIA = tuple(range(1, 11))

METRICS = (
    ("fgab.snf.calls", "count"),
    ("fgab.snf.self_s", "s"),
    ("fgab.snf.cells", "count"),
    ("fgab.snf.max_dim", "count"),
    ("fgab.snf.max_bits", "bits"),
    ("fgab.snf.distinct_ratio", "ratio"),
    ("fgab.solve_left.calls", "count"),
    ("fgab.solve_left.s", "s"),
    ("fgab.row_kernel.calls", "count"),
    ("fgab.group.calls", "count"),
    ("fgab.mat.constructions", "count"),
    ("fgab.self_s", "s"),
    ("involutive_algebra.load.s", "s"),
    ("involutive_algebra.weight_tuples.calls", "count"),
    ("involutive_algebra.self_s", "s"),
    ("mackey.make_mackey.calls", "count"),
    ("mackey.self_s", "s"),
    ("thr_pi0.ses_check.s", "s"),
    ("thr_pi0.alpha_report.s", "s"),
    ("thr_pi0.self_s", "s"),
    ("dihedral.nerve_piece.s", "s"),
    ("dihedral.simplices_enumerated", "count"),
    ("dihedral.nondegenerate_kept", "count"),
    ("dihedral.kept_ratio", "ratio"),
    ("dihedral.nondegenerate.calls", "count"),
    ("dihedral.fixed_subset.s", "s"),
    ("dihedral.power_map_check.s", "s"),
    ("dihedral.self_s", "s"),
    ("homology.normalized_chains.calls", "count"),
    ("homology.normalized_chains.s", "s"),
    ("homology.homology.calls", "count"),
    ("homology.chain_rank_total", "count"),
    ("homology.self_s", "s"),
    ("cubes.total_fiber.calls", "count"),
    ("cubes.tfib_recursion.s", "s"),
    ("cubes.weights_chain", "count"),
    ("cubes.weights_structural", "count"),
    ("cubes.self_s", "s"),
) + tuple((f"selftest.criterion_{n}.s", "s") for n in CRITERIA) + (
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _max_bits(mat):
    return max((abs(x).bit_length() for row in mat.data for x in row), default=0)


class Tracer:
    """Wraps the layers of an imported ``thrcalc`` between :meth:`install`
    and :meth:`uninstall`; :meth:`reset` starts a new pass."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._stack = []
        self._patches = []
        self.mat_constructions = [0]  # bumped by the wrapper of Mat.__init__
        self.pieces = {}  # id -> (key, piece, {q: nondegenerate count})
        self.reset()

    def reset(self):
        """Start a new pass: clear the spans and counters."""
        self.spans.clear()
        self._stack.clear()
        self.mat_constructions[0] = 0
        self.pieces.clear()
        self.snf_cells = self.snf_max_dim = self.snf_max_bits = 0
        self.snf_inputs = set()
        self.enumerated = 0
        self.chain_rank_total = 0
        self.cube_weights = Counter()
        self.criteria = {}

    # -- hooks on results ----------------------------------------------------

    def _after_snf(self, result, args, kwargs):
        m = args[0]
        self.snf_cells += m.rows * m.cols
        self.snf_max_dim = max(self.snf_max_dim, m.rows, m.cols)
        self.snf_max_bits = max(
            self.snf_max_bits, _max_bits(m), *(_max_bits(x) for x in result)
        )
        self.snf_inputs.add((m.rows, m.cols, hash(m.data)))

    def _after_nerve_piece(self, piece, args, kwargs):
        monoid = args[0]
        self.enumerated += sum(len(level) for level in piece.simplices)
        key = (monoid.generators, repr(monoid.w), repr(args[1:]),
               repr(sorted(kwargs.items())))
        # The piece is held until the pass ends, so its id stays unique.
        self.pieces[id(piece)] = (key, piece, {})

    def _after_nondegenerate(self, simplices, args, kwargs):
        entry = self.pieces.get(id(args[0]))
        if entry is not None:
            entry[2].setdefault(args[1], len(simplices))

    def _after_normalized_chains(self, chains, args, kwargs):
        self.chain_rank_total += sum(len(level) for level in chains.basis)

    def _after_cube_report(self, report, args, kwargs):
        self.cube_weights.update(entry.method for entry in report.entries)

    def _after_run_all(self, outcomes, args, kwargs):
        self.criteria = {o.number: o.elapsed for o in outcomes}

    # -- installation ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.case)
            if after is not None:
                start = clock()
                after(result, args, kwargs)
                spans.append(("trace.hook", start, clock(), parent, tracer.case))
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from thrcalc import dihedral, fgab

        hooks = {
            "fgab.snf": self._after_snf,
            "dihedral.dihedral_nerve_piece": self._after_nerve_piece,
            "homology.normalized_chains": self._after_normalized_chains,
            "cubes.p1_report": self._after_cube_report,
            "cubes.pn_report": self._after_cube_report,
            "selftest.run_all": self._after_run_all,
        }
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"thrcalc.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = self._span(name, fn, hooks.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "thrcalc" and not modname.startswith("thrcalc."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(module, attr, wrappers[id(value)])

        mat_init = fgab.Mat.__init__
        constructions = self.mat_constructions

        def counting_init(mat, *args, **kwargs):
            constructions[0] += 1
            mat_init(mat, *args, **kwargs)

        self._patch(fgab.Mat, "__init__", counting_init)

        # The degeneracy filter is a method; wrapped, its time counts to
        # ``dihedral`` instead of the caller.  Other methods are not wrapped.
        self._patch(dihedral.TruncDihedralSet, "nondegenerate", self._span(
            "dihedral.nondegenerate",
            dihedral.TruncDihedralSet.nondegenerate,
            self._after_nondegenerate,
        ))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def metrics(self):
        """The per-layer metrics of the spans and counters of one pass."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time = defaultdict(float)
        by_name = defaultdict(list)
        for index, (name, start, end, parent, _) in enumerate(spans):
            own = end - start - covered[index]
            self_time[name.split(".")[0]] += own
            if name == "fgab.snf":
                self_time["fgab.snf"] += own
            by_name[name].append((start, end))

        def inclusive(*names):
            # Same-name spans are nested or disjoint; count the outermost.
            total = 0.0
            for name in names:
                last_end = float("-inf")
                for start, end in by_name[name]:
                    if start >= last_end:
                        total += end - start
                        last_end = end
            return total

        snf_calls = len(by_name["fgab.snf"])
        distinct = {}
        for key, piece, kept in self.pieces.values():
            if kept:
                d = distinct.setdefault(key, [0, 0])
                d[0] += sum(kept.values())
                d[1] += sum(len(piece.simplices[q]) for q in kept)
        kept_total = sum(sum(kept.values()) for _, _, kept in self.pieces.values())
        enumerated_distinct = sum(d[1] for d in distinct.values())

        out = {
            "fgab.snf.self_s": self_time["fgab.snf"],
            "fgab.snf.cells": self.snf_cells,
            "fgab.snf.max_dim": self.snf_max_dim,
            "fgab.snf.max_bits": self.snf_max_bits,
            "fgab.snf.distinct_ratio": (
                len(self.snf_inputs) / snf_calls if snf_calls else 0.0
            ),
            "fgab.mat.constructions": self.mat_constructions[0],
            "involutive_algebra.load.s": inclusive(*LOADERS),
            "dihedral.simplices_enumerated": self.enumerated,
            "dihedral.nondegenerate_kept": kept_total,
            "dihedral.kept_ratio": (
                sum(d[0] for d in distinct.values()) / enumerated_distinct
                if enumerated_distinct
                else 0.0
            ),
            "homology.chain_rank_total": self.chain_rank_total,
            "cubes.weights_chain": self.cube_weights["chain"],
            "cubes.weights_structural": self.cube_weights["structural"],
            "trace.spans": len(spans),
        }
        for metric, name in CALLS.items():
            out[metric] = len(by_name[name])
        for metric, name in INCLUSIVE.items():
            out[metric] = inclusive(name)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        for n in CRITERIA:
            out[f"selftest.criterion_{n}.s"] = self.criteria.get(n, 0.0)
        return out

    def dump(self, path):
        """Write the current pass's spans as JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "case"],
                    "names": names,
                    "spans": [
                        [index[n], round(s, 9), round(e, 9), p, c]
                        for n, s, e, p, c in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
