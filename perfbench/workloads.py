"""Seeded inputs, call sequences and output checks for each benchmark workload.

A workload is one pass: a fixed list of CLI calls built from the workload
seed.  The runner repeats the pass in a closed loop with one client.  Every
call carries a check that recomputes the expected output by a route that is
independent of the one under test, and returns a list of problems (empty
when the output is correct).

The trees come from ``treespace.generators`` and reach the program only as
Newick files written into the run's scratch directory.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from treespace import metrics
from treespace.errors import TreeError
from treespace.generators import caterpillar, complete, random_tree
from treespace.newick_io import parse_newick, serialize_newick
from treespace.tree_core import PhyloTree

# One line per workload; BENCHMARK.json repeats these as the workloads' "why".
WHY = {
    "tbr_survey": "TBR survey with multiplicities on random trees n=32,40, caterpillars n=48,56 and the "
    "complete tree n=64: the rearrange pair loop and output keying do almost all the work",
    "info_stream": "info on files of 40 random trees (n 16..64, planted caterpillars and complete "
    "trees): start-up, parse, gamma and predicates; rearrange never runs",
    "verify_all": "the four verify suites (formulas/redundancy n<=7, extremal n<=8 on 2 workers, "
    "asymptotic): thousands of tiny trees, the process pool and the numpy sweep",
    "emit_neighbours": "neighbourhood --emit-trees, SPR on random n=16,24,28 and TBR on random n=16,22: "
    "enumerate_ops, apply_op surgery, canonical forms and bulk Newick output",
}

# Call sizes are fixed, so that every seed asks for about the same work.
# In each pass the median call's input does not depend on the seed: a
# caterpillar or complete tree here, SPR at n=24 in emit_neighbours.  The
# largest caterpillar sets the peak memory of tbr_survey.
TBR_SURVEY_TREES = (("random", 32), ("random", 40), ("caterpillar", 48), ("caterpillar", 56), ("complete", 64))
INFO_FILES = 10
INFO_TREES_PER_FILE = 40
INFO_PLANTED_PER_SHAPE = 2
INFO_N_RANGE = (16, 64)
EMIT_CALLS = (("spr", 16), ("tbr", 16), ("spr", 24), ("tbr", 22), ("spr", 28))
VERIFY_CALLS = (
    ("formulas", 7, None),
    ("redundancy", 7, None),
    ("extremal", 8, 2),
    ("asymptotic", None, None),
)
ASYMPTOTIC_LIMIT = 1 << 20


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass and how to judge its output.

    ``check(exit_code, stdout, stderr)`` returns the problems found.
    ``trees`` counts the trees the call reads or enumerates: input trees for
    ``info``, distinct neighbours for ``neighbourhood``, all of T_n for the
    exhaustive suites.  ``ops`` counts the rearrangement operations it
    performs (0 when it performs none).  Both are closed-form values that
    the check confirms against the output.
    """

    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str, str], list[str]]
    trees: int
    ops: int = 0


def double_factorial(k: int) -> int:
    """k!! for odd k >= -1, by direct product: the tree count (2n-5)!!."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def nontrivial_splits(tree: PhyloTree) -> frozenset[int]:
    n = tree.n
    return frozenset(m for m in tree.split_masks if 2 <= m.bit_count() <= n - 2)


def newick_splits(text: str, index_of: dict[str, int]) -> frozenset[int]:
    """Non-trivial split masks of one serialized tree, by a parser of its own.

    Accepts exactly the unrooted binary form the CLI writes: a three-way
    root, two children at every other internal node, and each leaf of
    ``index_of`` once.  Raises ValueError otherwise.
    """
    n = len(index_of)
    full = (1 << n) - 1
    stack: list[list[int]] = [[]]
    splits = set()
    seen = 0
    label: list[str] = []
    text = text.strip()
    if not text.endswith(";"):
        raise ValueError("missing ';'")
    for ch in text[:-1]:
        if ch == "(":
            stack.append([])
            continue
        if ch not in ",)":
            label.append(ch)
            continue
        if label:
            name = "".join(label)
            label = []
            if name not in index_of:
                raise ValueError(f"unknown leaf {name!r}")
            bit = 1 << index_of[name]
            if seen & bit:
                raise ValueError(f"leaf {name!r} twice")
            seen |= bit
            stack[-1].append(bit)
        if ch == ")":
            if len(stack) < 2:
                raise ValueError("unbalanced ')'")
            kids = stack.pop()
            if len(kids) != (3 if len(stack) == 1 else 2):
                raise ValueError(f"node with {len(kids)} children")
            mask = 0
            for k in kids:
                mask |= k
            stack[-1].append(mask)
            if 2 <= mask.bit_count() <= n - 2:
                splits.add(mask ^ full if mask & 1 else mask)
    if label or len(stack) != 1 or len(stack[0]) != 1 or seen != full:
        raise ValueError("not one tree over the leaf set")
    return frozenset(splits)


def _load_results(text: str, kind: type = dict):
    """The ``results`` member of a JSON report; ValueError when it is missing."""
    report = json.loads(text)
    if not isinstance(report, dict) or not isinstance(report.get("results"), kind):
        raise ValueError(f"no results {kind.__name__}")
    return report["results"]


# -- checks -------------------------------------------------------------------


def check_tbr_survey(tree: PhyloTree, code: int, out: str, err: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {err.strip()[-200:]}"]
    try:
        results = _load_results(out)
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    n = tree.n
    size = metrics.tbr_size(tree)
    want = {
        "n": n,
        "kind": "tbr",
        "op_count": metrics.tbr_op_count(tree),
        "neighbourhood_size": size,
        "multiplicity_histogram": {"1": size - (2 * n - 6), "4": 2 * n - 6},
    }
    return [f"{k}: got {results.get(k)!r}, want {v!r}" for k, v in want.items() if results.get(k) != v]


def check_info(trees: list[tuple[PhyloTree, str]], code: int, out: str, err: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {err.strip()[-200:]}"]
    try:
        results = _load_results(out, list)
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    if len(results) != len(trees):
        return [f"{len(results)} results for {len(trees)} trees"]
    problems = []
    for i, ((tree, planted), got) in enumerate(zip(trees, results)):
        n = tree.n
        gamma = sum(m.bit_count() * (n - m.bit_count()) for m in nontrivial_splits(tree))
        if got.get("n") != n or got.get("gamma") != gamma:
            problems.append(f"tree {i}: n/gamma {got.get('n')}/{got.get('gamma')}, want {n}/{gamma}")
        try:
            same = parse_newick(got.get("newick")).tree.canonical_form() == tree.canonical_form()
        except (TreeError, TypeError) as exc:
            same = False
            problems.append(f"tree {i}: newick does not parse: {exc}")
        if not same:
            problems.append(f"tree {i}: newick is not the input tree")
        if planted and got.get(f"is_{planted}") is not True:
            problems.append(f"tree {i}: planted {planted} reported is_{planted}={got.get(f'is_{planted}')!r}")
    return problems


def check_verify(suite: str, n_max: int | None, code: int, out: str, err: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {err.strip()[-200:]}"]
    try:
        results = _load_results(out)
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    if results.get("suite") != suite or results.get("passed") is not True or not results.get("checks"):
        problems.append(f"suite/passed/checks = {results.get('suite')}/{results.get('passed')}/{results.get('checks')}")
    details = results.get("details", {})
    if suite in ("formulas", "redundancy"):
        want = {f"exhaustive_n{n}": double_factorial(2 * n - 5) for n in range(4, n_max + 1)}
        if details.get("trees") != want:
            problems.append(f"tree counts {details.get('trees')}, want {want}")
    elif suite == "extremal":
        scans = details.get("scans", {})
        for n in range(4, n_max + 1):
            got = scans.get(str(n), {}).get("tree_count")
            if got != double_factorial(2 * n - 5):
                problems.append(f"n={n}: scanned {got} trees, want {double_factorial(2 * n - 5)}")
    elif details.get("limit") != ASYMPTOTIC_LIMIT:
        problems.append(f"sweep limit {details.get('limit')}, want {ASYMPTOTIC_LIMIT}")
    return problems


def check_emit(tree: PhyloTree, op: str, code: int, out: str, err: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {err.strip()[-200:]}"]
    n = tree.n
    size = metrics.spr_size(n) if op == "spr" else metrics.tbr_size(tree)
    op_count = metrics.spr_op_count(n) if op == "spr" else metrics.tbr_op_count(tree)
    problems = []
    try:
        results = _load_results(err)
    except ValueError as exc:
        results = {}
        problems.append(f"unreadable report: {exc}")
    if results and (results.get("op_count"), results.get("neighbourhood_size")) != (op_count, size):
        problems.append(
            f"op_count/size {results.get('op_count')}/{results.get('neighbourhood_size')}, want {op_count}/{size}"
        )
    lines = out.splitlines()
    if len(lines) != size:
        problems.append(f"{len(lines)} trees emitted, want {size}")
    index_of = {name: i for i, name in enumerate(tree.leaf_order)}
    own = nontrivial_splits(tree)
    forms = set()
    for i, line in enumerate(lines):
        try:
            form = newick_splits(line, index_of)
        except ValueError as exc:
            problems.append(f"line {i + 1}: {exc}")
            break
        if form == own:
            problems.append(f"line {i + 1}: the input tree itself")
            break
        forms.add(form)
    else:
        if len(forms) != len(lines):
            problems.append(f"{len(lines) - len(forms)} repeated trees")
    return problems


# -- workload builders --------------------------------------------------------


def _write(path: Path, trees: list[PhyloTree]) -> str:
    path.write_text("".join(serialize_newick(t) + "\n" for t in trees), encoding="utf-8")
    return str(path)


SHAPES = {"caterpillar": caterpillar, "complete": complete}


def _draw(rng: random.Random, n: int) -> PhyloTree:
    return random_tree(n, seed=rng.randrange(1 << 31))


def tbr_survey(rng: random.Random, workdir: Path, nproc: int) -> list[Call]:
    calls = []
    for shape, n in TBR_SURVEY_TREES:
        tree = _draw(rng, n) if shape == "random" else SHAPES[shape](n)
        label = f"{shape}-{n}"
        path = _write(workdir / f"tbr_survey-{label}.nwk", [tree])
        calls.append(
            Call(
                label=label,
                argv=("neighbourhood", "--op", "tbr", "--multiplicities", path),
                check=partial(check_tbr_survey, tree),
                trees=metrics.tbr_size(tree),
                ops=metrics.tbr_op_count(tree),
            )
        )
    return calls


def info_stream(rng: random.Random, workdir: Path, nproc: int) -> list[Call]:
    lo, hi = INFO_N_RANGE
    calls = []
    for f in range(INFO_FILES):
        planted = ["caterpillar"] * INFO_PLANTED_PER_SHAPE + ["complete"] * INFO_PLANTED_PER_SHAPE
        planted += [""] * (INFO_TREES_PER_FILE - len(planted))
        rng.shuffle(planted)
        trees = []
        for shape in planted:
            n = rng.randint(lo, hi)
            tree = SHAPES[shape](n) if shape else _draw(rng, n)
            trees.append((tree, shape))
        path = _write(workdir / f"info_stream-{f}.nwk", [t for t, _ in trees])
        calls.append(
            Call(label=f"file-{f}", argv=("info", path), check=partial(check_info, trees), trees=len(trees))
        )
    return calls


def verify_all(rng: random.Random, workdir: Path, nproc: int) -> list[Call]:
    calls = []
    for suite, n_max, threads in VERIFY_CALLS:
        argv = ["verify", "--suite", suite]
        if n_max is not None:
            argv += ["--n-max", str(n_max)]
        if threads is not None:
            argv += ["--threads", str(min(threads, nproc))]
        trees = sum(double_factorial(2 * n - 5) for n in range(4, n_max + 1)) if n_max else 0
        calls.append(Call(label=suite, argv=tuple(argv), check=partial(check_verify, suite, n_max), trees=trees))
    return calls


def emit_neighbours(rng: random.Random, workdir: Path, nproc: int) -> list[Call]:
    calls = []
    for op, n in EMIT_CALLS:
        tree = _draw(rng, n)
        path = _write(workdir / f"emit_neighbours-{op}-{n}.nwk", [tree])
        size = metrics.spr_size(n) if op == "spr" else metrics.tbr_size(tree)
        ops = metrics.spr_op_count(n) if op == "spr" else metrics.tbr_op_count(tree)
        calls.append(
            Call(
                label=f"{op}-{n}",
                argv=("neighbourhood", "--op", op, "--emit-trees", path),
                check=partial(check_emit, tree, op),
                trees=size,
                ops=ops,
            )
        )
    return calls


BUILDERS = {
    "tbr_survey": tbr_survey,
    "info_stream": info_stream,
    "verify_all": verify_all,
    "emit_neighbours": emit_neighbours,
}


def build(workload: str, seed: int, workdir: Path, nproc: int) -> list[Call]:
    """The pass for ``workload``: the same seed always gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, workdir, nproc)
