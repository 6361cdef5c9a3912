"""Verification suites: brute-force enumeration against every closed form.

Each suite walks a body of trees (exhaustive T_n for small n, random samples
for larger n, or a pure closed-form sweep), evaluates its assertions, and
collects counterexamples instead of raising, so a run always produces a
complete report.  Checks of one form are one table per suite (the closed
forms of a tree, the two op-count slacks, the extremes of T_n), its rows
checked by one loop under one message template; each row evaluates its
closed form once per tree or per n.  The exhaustive suites can share the
shards of T_n between forked workers (:func:`generators.fork_map`); their
parts merge in shard order, so a report does not depend on the number of
workers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from . import metrics
from .errors import RangeError
from .tree_core import PhyloTree

if TYPE_CHECKING:
    import numpy as np

#: Remainder constant for the asymptotic law: the complete-tree TBR
#: neighbourhood stays within C * n^2 of 4 * n^2 * floor(log2 n) for every
#: n up to 2**20.  Pinned by the exhaustive sweep; the supremum approaches
#: 13 from below along n = 2^k.
ASYMPTOTIC_C = 13

#: Smallest n from which complete_tbr_size(n) / (4 n^2 floor(log2 n)) stays
#: at or above one half for good; found by the same sweep (the ratio dips
#: under 0.5 for n in 64..71, the start of the floor(log2 n) = 6 octave).
RATIO_HALF_FROM = 72

#: Leaf counts of the random samples in the formulas suite.
SAMPLE_NS = (8, 9, 10, 11, 12, 16, 32, 64)


class SuiteResult(NamedTuple):
    """One suite's verdict, the number of checks, details and failures."""

    suite: str
    passed: bool
    checks: int
    details: dict
    failures: list[dict]

    def to_json(self) -> dict:
        return self._asdict()


#: Counterexamples kept per suite; the checks go on being counted past it.
MAX_FAILURES = 20


class _Collector:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks = 0
        self.failures: list[dict] = []

    def check(self, ok: bool, message: str, tree: PhyloTree | None = None) -> bool:
        self.checks += 1
        if not ok and len(self.failures) < MAX_FAILURES:
            record = {"message": message}
            if tree is not None:
                from .newick_io import serialize_newick
                record["newick"] = serialize_newick(tree)
            self.failures.append(record)
        return ok

    def merge(self, checks: int, failures: list[dict]) -> None:
        """Add a later part's checks and failures, keeping the first MAX_FAILURES."""
        self.checks += checks
        self.failures.extend(failures[: MAX_FAILURES - len(self.failures)])

    def result(self, details: dict) -> SuiteResult:
        return SuiteResult(
            suite=self.suite,
            passed=not self.failures,
            checks=self.checks,
            details=details,
            failures=self.failures,
        )


def _check_formula_tree(col: _Collector, tree: PhyloTree) -> None:
    from .rearrange import op_survey

    n = tree.n
    nni, spr, tbr = (entry.report for entry in op_survey(tree).values())
    rows = (
        ("|N_TBR|", tbr.neighbourhood_size, metrics.tbr_size(tree)),
        ("|O_TBR|", tbr.op_count, metrics.tbr_op_count(tree)),
        ("|N_SPR|", spr.neighbourhood_size, metrics.spr_size(n)),
        ("|O_SPR|", spr.op_count, metrics.spr_op_count(n)),
        ("|N_NNI|", nni.neighbourhood_size, metrics.nni_size(n)),
    )
    for label, enumerated, formula in rows:
        col.check(enumerated == formula, f"{label} = {enumerated}, formula gives {formula}", tree)


def _check_redundancy_tree(col: _Collector, tree: PhyloTree) -> None:
    from .rearrange import op_survey

    n = tree.n
    nni, spr, tbr = op_survey(tree).values()
    mults = set(tbr.report.multiplicity_histogram)
    col.check(mults <= {1, 4}, f"TBR multiplicities {sorted(mults)} not in {{1, 4}}", tree)
    quadruple = {k for k, c in tbr.repeats.items() if c == 4}
    col.check(
        quadruple == set(nni.output_keys()),
        "multiplicity-4 TBR outputs differ from the NNI neighbourhood",
        tree,
    )
    slack = 3 * (2 * n - 6)
    for kind, report in (("TBR", tbr.report), ("SPR", spr.report)):
        extra = report.op_count - report.neighbourhood_size
        col.check(extra == slack, f"|O_{kind}| - |N_{kind}| = {extra} != {slack}", tree)
    col.check(
        nni.report.multiplicity_histogram == {4: 2 * n - 6},
        f"NNI multiplicity histogram {nni.report.multiplicity_histogram} != {{4: {2 * n - 6}}}",
        tree,
    )


TreeCheck = Callable[[_Collector, PhyloTree], None]


def _exhaustive_range(n_max: int, threads: int) -> range:
    if not 4 <= n_max <= 8:
        raise RangeError(f"exhaustive suites support 4 <= n_max <= 8, got {n_max}")
    if threads < 1:
        raise RangeError(f"threads must be >= 1, got {threads}")
    return range(4, n_max + 1)


def _check_shard(args: tuple[TreeCheck, int, tuple[int, ...]]) -> tuple[int, list[dict], int]:
    """Run a per-tree check over the trees of T_n whose insertion code starts
    with the prefix: (checks, first failures, trees).  A worker's task."""
    from .generators import all_trees

    check, n, prefix = args
    col = _Collector("")
    trees = 0
    for tree in all_trees(n, prefix):
        check(col, tree)
        trees += 1
    return col.checks, col.failures, trees


def _check_exhaustive(col: _Collector, check: TreeCheck, n_max: int, threads: int) -> dict[str, int]:
    """Run ``check`` on every tree of T_4 .. T_{n_max}; the trees checked per n.

    With ``threads`` > 1 the shards of every T_n at once are shared between
    that many forked workers, but never more than T_{n_max} has shards.
    Their parts merge in enumeration order, so the checks and the failures
    kept are those of the serial run.
    """
    from .generators import fork_map, shards

    ns = _exhaustive_range(n_max, threads)
    if threads == 1:
        tasks = [(check, n, ()) for n in ns]
        parts = map(_check_shard, tasks)
    else:
        tasks = [(check, n, prefix) for n in ns for prefix in shards(n)]
        parts = fork_map(_check_shard, tasks, min(threads, len(shards(n_max))))
    trees_checked = dict.fromkeys((f"exhaustive_n{n}" for n in ns), 0)
    for (_, n, _), (checks, failures, trees) in zip(tasks, parts):
        col.merge(checks, failures)
        trees_checked[f"exhaustive_n{n}"] += trees
    return trees_checked


def formulas_suite(n_max: int = 7, samples: int = 0, seed: int = 0, threads: int = 1) -> SuiteResult:
    """Enumerated neighbourhood and operation counts equal the closed forms.

    Exhaustive over T_4 .. T_{n_max}; optionally ``samples`` random trees for
    each n in SAMPLE_NS, checked the same way: the TBR closed forms depend on
    the tree only through Gamma, which is computed per tree.  ``threads`` > 1
    checks the shards of T_4 .. T_{n_max} in that many forked workers (the
    samples stay in this process); the result equals the serial one.
    """
    if samples < 0:
        raise RangeError(f"samples must be >= 0, got {samples}")
    col = _Collector("formulas")
    trees_checked = _check_exhaustive(col, _check_formula_tree, n_max, threads)
    if samples:
        from .generators import random_tree

        for n in SAMPLE_NS:
            for i in range(samples):
                tree = random_tree(n, seed=hash((seed, n, i)) & 0x7FFFFFFF)
                _check_formula_tree(col, tree)
            trees_checked[f"sampled_n{n}"] = samples
    return col.result({"trees": trees_checked})


def redundancy_suite(n_max: int = 7, threads: int = 1) -> SuiteResult:
    """Structure of repeated TBR outputs.

    Every output tree is produced by either 1 or 4 operations; the ones with
    multiplicity 4 are exactly the NNI neighbourhood (each reachable by 4
    distinct NNI operations), so op count minus neighbourhood size is
    3*(2n-6) for TBR and SPR alike.  ``threads`` > 1 checks the shards of
    T_4 .. T_{n_max} in that many forked workers; the result equals the
    serial one.
    """
    col = _Collector("redundancy")
    return col.result({"trees": _check_exhaustive(col, _check_redundancy_tree, n_max, threads)})


def extremal_suite(n_max: int = 8, threads: int = 1) -> SuiteResult:
    """Arg-max and arg-min of the TBR neighbourhood over all of T_n.

    The maximizers must be exactly the caterpillars and the minimizers
    exactly the complete trees, with the extreme values matching their
    closed forms.  ``threads`` > 1 scans T_{n_max} with that many forked
    workers (:func:`extremal.extremal_scan`); the smaller T_n, whose serial
    scans cost less than the forks, are scanned in this process.
    """
    from .extremal import extremal_scan

    col = _Collector("extremal")
    scans = {}
    for n in _exhaustive_range(n_max, threads):
        scan = extremal_scan(n, threads if n == n_max else 1)
        rows = (
            ("max", scan.max_value, "caterpillar formula", metrics.caterpillar_tbr_size(n)),
            ("min", scan.min_value, "complete formula", metrics.complete_tbr_size(n)),
            ("min gamma", scan.min_gamma, "closed form", metrics.gamma_complete(n)),
        )
        for what, value, formula, want in rows:
            col.check(value == want, f"n={n}: scan {what} {value} != {formula} {want}")
        col.check(
            scan.argmax_all_caterpillar,
            f"n={n}: maximizer set is not exactly the caterpillar set",
        )
        col.check(
            scan.argmin_all_complete,
            f"n={n}: minimizer set is not exactly the complete-tree set",
        )
        scans[str(n)] = scan.to_json()
    return col.result({"scans": scans})


def _octaves(start: int, stop: int) -> Iterator[tuple[int, int, int]]:
    """(k, a, b) for each k: offsets a:b of [start, stop] hold the n with floor(log2 n) = k."""
    for k in range(start.bit_length() - 1, stop.bit_length()):
        yield k, max(0, (1 << k) - start), min(stop + 1, 2 << k) - start


def _gamma_coefficients(n: int) -> tuple[int, int]:
    """(P, Q) with gamma_complete(n) = P + Q * n: each term of the closed form
    is linear in n, with coefficients that depend on n only through S_j and
    the bits of n."""
    k = n.bit_length() - 1
    p = q = 0
    for j in range(1, k):
        s, two_j = (n >> j) << j, 1 << j
        alpha = n >> (j - 1) & 1
        # (S_j - 2^j) * (2n - S_j) + alpha_(j-1) * 2^j * (n - 2^j)
        q += 2 * (s - two_j) + alpha * two_j
        p -= s * (s - two_j) + alpha * two_j * two_j
    if not n >> (k - 1) & 1:
        # (alpha_(k-1) - 1) * 2^(k-1) * (n - 2^(k-1))
        q -= 1 << (k - 1)
        p += 1 << (2 * k - 2)
    return p, q


def complete_tbr_size_sweep(limit: int, start: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized complete_tbr_size for every n in [start, limit], start >= 4.

    Returns (ns, sizes) as int64 arrays; safe up to limit = 2**20 without
    overflow.  Gamma is summed as P(n) + Q(n) * n, where P and Q change only
    at the steps of the closed form: where floor(n / 2^j) or bit j-1 of n
    changes, and where an octave's second half starts.  Their values at
    ``start`` come from the scalar closed form, each step's change is
    written at its own offset by a strided slice, and one cumulative sum
    per coefficient fills in the rest.  Cross-checked against the
    pure-integer closed form in the test suite.
    """
    import numpy as np

    ns = np.arange(start, limit + 1, dtype=np.int64)
    # The changes of P and Q from n - 1 to n at each offset, then P and Q.
    p, q = np.zeros_like(ns), np.zeros_like(ns)
    p[0], q[0] = _gamma_coefficients(start)
    for j in range(1, int(limit).bit_length()):
        two_j, four_j, half = 1 << j, 1 << 2 * j, 1 << (j - 1)
        # At n = i * 2^j, i >= 2, S_j grows and alpha_(j-1) falls to 0: Q
        # gains 2^j and P loses (2i - 3) * 4^j.  At i = 2, where the j-th
        # term starts counting, this takes in the octave term's change as n
        # enters octave j + 1.
        a = max(2, start // two_j + 1) * two_j - start
        if a < len(ns):
            q[a::two_j] += two_j
            t = ns[a::two_j] * -(2 << j)  # -(2i - 3) * 4^j = -2^(j+1) * n + 3 * 4^j
            t += 3 * four_j
            p[a::two_j] += t
        # At n = (2i + 1) * 2^(j-1), i >= 2, alpha_(j-1) rises to 1.
        a = max(2, (start - half) // two_j + 1) * two_j + half - start
        if a < len(ns):
            q[a::two_j] += two_j
            p[a::two_j] -= four_j
    for k in range(2, int(limit).bit_length() + 1):
        # The octave term of floor(log2 n) = k is 0 from n = 3 * 2^(k-1) on.
        n = 3 << (k - 1)
        if start < n <= limit:
            q[n - start] += 1 << (k - 1)
            p[n - start] -= 1 << (2 * k - 2)
    np.cumsum(p, out=p)
    np.cumsum(q, out=q)
    q *= ns
    p += q
    # size = 4 * gamma - (4n - 2)(n - 3) = 4 * gamma - (4n - 14) * n - 6
    np.multiply(ns, 4, out=q)
    q -= 14
    q *= ns
    p *= 4
    p -= q
    p -= 6
    return ns, p


#: Sizes per block of the asymptotic sweep, which bounds its memory: a
#: block's int64 arrays (128 KB each) stay in cache, and few are live at once.
SWEEP_BLOCK = 1 << 14


def _sweep_blocks(limit: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(start, ns, sizes) for consecutive blocks of SWEEP_BLOCK sizes covering [4, limit]."""
    for start in range(4, limit + 1, SWEEP_BLOCK):
        ns, sizes = complete_tbr_size_sweep(min(start + SWEEP_BLOCK - 1, limit), start)
        yield start, ns, sizes


def asymptotic_suite(limit: int = 1 << 20) -> SuiteResult:
    """Sweep of the complete-tree size law: 4 n^2 floor(log2 n) + O(n^2).

    Asserts |size - 4 n^2 floor(log2 n)| <= ASYMPTOTIC_C * n^2 over the whole
    sweep, that the size/target ratio stays >= 1/2 from RATIO_HALF_FROM on,
    and that along n = 3 * 2^k the ratio increases towards 1 with the gap
    bounded by 8 / (3 floor(log2 n)).  The sweep runs in blocks of
    SWEEP_BLOCK sizes; each block's sizes come from
    :func:`complete_tbr_size_sweep`, which sums Gamma from coefficients
    written only where the closed form steps, so a block costs O(1) numpy
    work per size whatever its n.
    """
    import numpy as np

    col = _Collector("asymptotic")
    three_fold_ns = [3 << k for k in range(1, int(limit).bit_length()) if 3 << k <= limit]
    ratios: dict[int, float] = {}
    within_c = ratio_half = True
    observed_c = 0.0
    for start, ns, sizes in _sweep_blocks(limit):
        stop = start + len(ns) - 1
        square = ns * ns
        target = np.empty_like(ns)
        for k, a, b in _octaves(start, stop):
            np.multiply(square[a:b], 4 * k, out=target[a:b])
        diff = sizes - target
        np.abs(diff, out=diff)
        within_c = within_c and bool(np.all(diff <= ASYMPTOTIC_C * square))
        observed_c = max(observed_c, float(np.max(diff / square.astype(np.float64))))
        ratio = sizes / target.astype(np.float64)
        if stop >= RATIO_HALF_FROM:
            ratio_half = ratio_half and bool(np.all(ratio[max(0, RATIO_HALF_FROM - start) :] >= 0.5))
        for n in three_fold_ns:
            if start <= n <= stop:
                ratios[n] = float(ratio[n - start])
    col.check(within_c, f"remainder exceeds {ASYMPTOTIC_C} * n^2 somewhere in [4, {limit}]")
    col.check(ratio_half, f"ratio drops below 1/2 at some n >= {RATIO_HALF_FROM}")
    three_fold = [(n, ratios[n]) for n in three_fold_ns]
    for n, r in three_fold:
        col.check(r < 1.0, f"ratio at n={n} is not below 1")
        col.check(
            1.0 - r <= 8.0 / (3.0 * (n.bit_length() - 1)),
            f"ratio gap at n={n} exceeds 8/(3 floor(log2 n))",
        )
    for (n_prev, r_prev), (n_next, r_next) in zip(three_fold, three_fold[1:]):
        col.check(
            r_next > r_prev,
            f"ratio not increasing along 3*2^k: {r_prev} at n={n_prev} vs {r_next} at n={n_next}",
        )
    return col.result(
        {
            "limit": limit,
            "pinned_c": ASYMPTOTIC_C,
            "observed_c": observed_c,
            "ratio_half_from": RATIO_HALF_FROM,
            "three_fold_ratios": [{"n": n, "ratio": r} for n, r in three_fold],
        }
    )
