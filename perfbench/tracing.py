"""Spans and counters around the public functions of each treespace module.

The tracer wraps functions from outside the program.  A name imported with
``from .x import f`` is a separate binding in the importing module, so the
wrapper replaces every binding of the original object in every loaded
``treespace`` module (and in ``verify.SUITES``), not only the definition.

Spans stay in memory: (pid, id, parent id, name, start ns, end ns).  The
extremal scan's pool workers are forked with the wrappers in place; each
chunk ships its worker spans back on the accumulator it returns, and they
join the parent's list when the chunk is merged.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

# The tracer the forked scan workers find; set only between install() and
# uninstall(), because a worker can reach its tracer through nothing else.
_ACTIVE: "Tracer | None" = None

_CLOSED_FORMS = (
    "nni_size",
    "spr_size",
    "spr_op_count",
    "tbr_op_count",
    "tbr_size",
    "caterpillar_gamma",
    "caterpillar_tbr_size",
    "gamma_complete",
    "complete_tbr_size",
    "perfect_tbr_size",
)

# span name -> (metric stem that sums its calls and time, module)
_SPAN_METRICS = {
    "cli.main": ("cli.main", "cli"),
    "newick_io.parse_newick": ("newick_io.parse", "newick_io"),
    "newick_io.serialize_newick": ("newick_io.serialize", "newick_io"),
    "tree_core.PhyloTree.__init__": ("tree_core.build", "tree_core"),
    "tree_core.PhyloTree.canonical_form": ("tree_core.canonical", "tree_core"),
    "metrics.gamma": ("metrics.gamma", "metrics"),
    **{f"metrics.{f}": ("metrics.closed_form", "metrics") for f in _CLOSED_FORMS},
    "rearrange.op_survey": ("rearrange.survey", "rearrange"),
    "rearrange.enumerate_ops": ("rearrange.enumerate", "rearrange"),
    "rearrange.apply_op": ("rearrange.apply", "rearrange"),
    "generators.all_trees": ("generators.all_trees", "generators"),
    "extremal.extremal_scan": ("extremal.scan", "extremal"),
    "extremal.is_caterpillar": ("extremal.predicate", "extremal"),
    "extremal.is_complete": ("extremal.predicate", "extremal"),
    "extremal._scan_chunk": ("extremal.chunk", "extremal"),
    "verify.formulas_suite": ("verify.formulas", "verify"),
    "verify.redundancy_suite": ("verify.redundancy", "verify"),
    "verify.extremal_suite": ("verify.extremal", "verify"),
    "verify.asymptotic_suite": ("verify.asymptotic", "verify"),
    "verify.complete_tbr_size_sweep": ("verify.sweep", "verify"),
}

MODULES = ("cli", "newick_io", "tree_core", "metrics", "rearrange", "generators", "extremal", "verify")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.import_numpy_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("newick_io.parse_calls", "count", "lower"),
    ("newick_io.parse_s", "s", "lower"),
    ("newick_io.parse_bytes", "bytes", "lower"),
    ("newick_io.serialize_calls", "count", "lower"),
    ("newick_io.serialize_s", "s", "lower"),
    ("tree_core.build_calls", "count", "lower"),
    ("tree_core.build_s", "s", "lower"),
    ("tree_core.canonical_calls", "count", "lower"),
    ("tree_core.canonical_s", "s", "lower"),
    ("metrics.gamma_calls", "count", "lower"),
    ("metrics.gamma_s", "s", "lower"),
    ("metrics.closed_form_calls", "count", "lower"),
    ("metrics.closed_form_s", "s", "lower"),
    ("rearrange.survey_calls", "count", "lower"),
    ("rearrange.survey_s", "s", "lower"),
    ("rearrange.ops", "count", "lower"),
    ("rearrange.outputs", "count", "lower"),
    ("rearrange.useful_ratio", "1", "higher"),
    ("rearrange.enumerate_s", "s", "lower"),
    ("rearrange.apply_calls", "count", "lower"),
    ("rearrange.apply_s", "s", "lower"),
    ("generators.trees_yielded", "count", "lower"),
    ("generators.all_trees_s", "s", "lower"),
    ("extremal.scan_s", "s", "lower"),
    ("extremal.trees_scanned", "count", "higher"),
    ("extremal.worker_cpu_s", "s", "lower"),
    ("extremal.predicate_calls", "count", "lower"),
    ("extremal.predicate_s", "s", "lower"),
    ("verify.formulas_s", "s", "lower"),
    ("verify.redundancy_s", "s", "lower"),
    ("verify.extremal_s", "s", "lower"),
    ("verify.asymptotic_s", "s", "lower"),
    ("verify.sweep_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    *[(f"{m}.self_s", "s", "lower") for m in MODULES],
    ("trace_overhead_ratio", "1", "lower"),
]


class Tracer:
    """Records spans and counters while installed; restores everything after."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int | None, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self._restore_items: list[tuple[dict, object, object]] = []
        self._forms: set | None = None

    # -- recording ----------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int | None, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((os.getpid(), sid, parent, name, start, end))

    def _wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_iterator(self, name: str, fn):
        """Spans cover each step of the iteration, not the generator call."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid, parent = self._open()
                start = time.perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid, parent, name, start)
                self.counts["generators.trees_yielded"] += 1
                yield item

        return traced

    # -- counters fed from results --------------------------------------------

    def _after_parse(self, args, result) -> None:
        self.counts["newick_io.parse_bytes"] += len(args[0].encode("utf-8"))

    def _after_survey(self, args, entries) -> None:
        # The widest kind asked for counts every operation the survey keyed.
        widest = max(entries.values(), key=lambda e: e.report.op_count)
        self.counts["rearrange.ops"] += widest.report.op_count
        self.counts["rearrange.outputs"] += widest.report.neighbourhood_size

    def _after_enumerate(self, args, ops) -> None:
        # The CLI applies these ops and keys the results by canonical form;
        # the distinct forms it asks for until main() returns are the outputs.
        self.counts["rearrange.ops"] += len(ops)
        self._forms = set()

    def _after_canonical(self, args, form) -> None:
        if self._forms is not None:
            self._forms.add(form)

    def _after_main(self, args, code) -> None:
        if self._forms is not None:
            self.counts["rearrange.outputs"] += len(self._forms)
            self._forms = None

    def _after_scan(self, args, result) -> None:
        self.counts["extremal.trees_scanned"] += result.tree_count

    def _after_suite(self, args, result) -> None:
        self.counts["verify.checks"] += result.checks

    # -- installation ---------------------------------------------------------

    def _replace(self, owner, attr: str, wrapped) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        for modname, module in list(sys.modules.items()):
            if modname.startswith("treespace") and module is not owner:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)
                    elif type(value) is dict:  # dispatch tables such as verify.SUITES
                        for k, v in list(value.items()):
                            if v is original:
                                self._restore_items.append((value, k, v))
                                value[k] = wrapped

    def install(self) -> None:
        global _ACTIVE
        from treespace import cli, extremal, generators, metrics, newick_io, rearrange, tree_core, verify

        plain = [
            (cli, "main", self._after_main),
            (newick_io, "parse_newick", self._after_parse),
            (newick_io, "serialize_newick", None),
            (metrics, "gamma", None),
            *[(metrics, f, None) for f in _CLOSED_FORMS],
            (rearrange, "op_survey", self._after_survey),
            (rearrange, "enumerate_ops", self._after_enumerate),
            (rearrange, "apply_op", None),
            (extremal, "extremal_scan", self._after_scan),
            (extremal, "is_caterpillar", None),
            (extremal, "is_complete", None),
            (verify, "formulas_suite", self._after_suite),
            (verify, "redundancy_suite", self._after_suite),
            (verify, "extremal_suite", self._after_suite),
            (verify, "asymptotic_suite", self._after_suite),
            (verify, "complete_tbr_size_sweep", None),
        ]
        for module, attr, after in plain:
            name = f"{module.__name__.removeprefix('treespace.')}.{attr}"
            self._replace(module, attr, self._wrap(name, getattr(module, attr), after))
        tree = tree_core.PhyloTree
        self._replace(tree, "__init__", self._wrap("tree_core.PhyloTree.__init__", tree.__init__))
        self._replace(
            tree,
            "canonical_form",
            self._wrap("tree_core.PhyloTree.canonical_form", tree.canonical_form, self._after_canonical),
        )
        self._replace(generators, "all_trees", self._wrap_iterator("generators.all_trees", generators.all_trees))

        self.scan_chunk = extremal._scan_chunk
        self._replace(extremal, "_scan_chunk", scan_chunk_in_worker)
        merge = extremal._Accumulator.merge

        def merge_with_worker_trace(acc, other):
            spans, counts, cpu_s = other.__dict__.pop("_perfbench_trace")
            self.spans.extend(spans)
            self.counts.update(counts)
            self.counts["extremal.worker_cpu_s"] += cpu_s
            return merge(acc, other)

        self._replace(extremal._Accumulator, "merge", merge_with_worker_trace)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        for table, key, original in self._restore_items:
            table[key] = original
        self._restore.clear()
        self._restore_items.clear()
        _ACTIVE = None

    # -- aggregation -----------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """Totals by layer: ``*_s`` inclusive span time, ``*.self_s`` exclusive.

        Worker spans count like the parent's, so a busy time can exceed the
        wall time when the pool runs two chunks at once.
        """
        child_ns: dict[tuple[int, int], int] = defaultdict(int)
        for pid, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[(pid, parent)] += end - start
        calls: Counter = Counter()
        busy_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for pid, sid, _, name, start, end in self.spans:
            stem, module = _SPAN_METRICS[name]
            calls[stem] += 1
            busy_ns[stem] += end - start
            self_ns[module] += end - start - child_ns[(pid, sid)]
        out: dict[str, float] = {}
        for stem in set(s for s, _ in _SPAN_METRICS.values()):
            out[f"{stem}_calls"] = calls[stem]
            out[f"{stem}_s"] = busy_ns[stem] / 1e9
        for module in MODULES:
            out[f"{module}.self_s"] = self_ns[module] / 1e9
        for key, value in self.counts.items():
            out[key] = value
        ops = self.counts["rearrange.ops"]
        out["rearrange.useful_ratio"] = self.counts["rearrange.outputs"] / ops if ops else 0.0
        return out


def scan_chunk_in_worker(args):
    """Stands in for ``extremal._scan_chunk`` inside a forked pool worker.

    The worker inherited the parent's spans at fork time; it drops them,
    traces one chunk, and returns the chunk's spans and CPU time on the
    accumulator.
    """
    tracer = _ACTIVE
    tracer.spans.clear()
    tracer.counts.clear()
    tracer._stack.clear()
    cpu = time.process_time()
    acc = tracer._wrap("extremal._scan_chunk", tracer.scan_chunk)(args)
    acc._perfbench_trace = (list(tracer.spans), Counter(tracer.counts), time.process_time() - cpu)
    return acc
