"""Self-test: every output check passes a real output and fails a corrupted one.

    python3 -m pytest perfbench/test_checks.py

Real outputs come from ``treespace.cli.main`` run in-process on small
inputs; each corruption is one a broken program could plausibly print.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from functools import partial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from run import Judge, tail  # noqa: E402
from treespace import cli  # noqa: E402
from treespace.generators import caterpillar, random_tree  # noqa: E402
from treespace.newick_io import serialize_newick  # noqa: E402


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def edit_report(text: str, edit) -> str:
    report = json.loads(text)
    edit(report["results"])
    return json.dumps(report)


def tree_file(tmp_path: Path, tree) -> str:
    path = tmp_path / "tree.nwk"
    path.write_text(serialize_newick(tree) + "\n")
    return str(path)


def assert_fires(check, code: int, out: str, err: str, corruptions: dict) -> None:
    assert check(code, out, err) == []
    for name, (c, o, e) in corruptions.items():
        assert check(c, o, e), f"corruption {name!r} passed the check"


def test_tbr_survey_check(tmp_path):
    tree = random_tree(12, seed=5)
    check = partial(workloads.check_tbr_survey, tree)
    code, out, err = run_cli(["neighbourhood", "--op", "tbr", "--multiplicities", tree_file(tmp_path, tree)])

    def bump(key):
        return edit_report(out, lambda r: r.__setitem__(key, r[key] + 1))

    def histogram(r):
        r["multiplicity_histogram"]["4"] -= 1
        r["multiplicity_histogram"]["1"] += 4

    assert_fires(
        check,
        code,
        out,
        err,
        {
            "op_count": (0, bump("op_count"), err),
            "size": (0, bump("neighbourhood_size"), err),
            "histogram": (0, edit_report(out, histogram), err),
            "exit code": (1, out, err),
            "truncated": (0, out[: len(out) // 2], err),
        },
    )


def test_info_check(tmp_path):
    rng = random.Random(3)
    calls = workloads.info_stream(rng, tmp_path, 1)
    call = calls[0]
    code, out, err = run_cli(call.argv)
    trees = call.check.args[0]
    first_planted = next(i for i, (_, shape) in enumerate(trees) if shape)
    shape = trees[first_planted][1]

    def at(i, key, value):
        return edit_report(out, lambda r: r[i].__setitem__(key, value))

    results = json.loads(out)["results"]
    assert_fires(
        call.check,
        code,
        out,
        err,
        {
            "gamma": (0, at(0, "gamma", results[0]["gamma"] + 1), err),
            "other tree": (0, at(0, "newick", results[1]["newick"]), err),
            "unparseable newick": (0, at(0, "newick", results[0]["newick"][:-2]), err),
            "predicate": (0, at(first_planted, f"is_{shape}", False), err),
            "missing tree": (0, edit_report(out, lambda r: r.pop()), err),
            "exit code": (2, out, err),
        },
    )


@pytest.mark.parametrize(
    "suite, argv",
    [
        ("formulas", ["--n-max", "6"]),
        ("redundancy", ["--n-max", "6"]),
        ("extremal", ["--n-max", "6", "--threads", "1"]),
        ("asymptotic", []),
    ],
)
def test_verify_check(suite, argv):
    n_max = int(argv[1]) if argv else None
    check = partial(workloads.check_verify, suite, n_max)
    code, out, err = run_cli(["verify", "--suite", suite, *argv])

    def recount(r):
        if suite == "extremal":
            r["details"]["scans"]["6"]["tree_count"] -= 1
        elif suite == "asymptotic":
            r["details"]["limit"] //= 2
        else:
            r["details"]["trees"]["exhaustive_n6"] -= 1

    assert_fires(
        check,
        code,
        out,
        err,
        {
            "not passed": (0, edit_report(out, lambda r: r.__setitem__("passed", False)), err),
            "tree count": (0, edit_report(out, recount), err),
            "exit code": (1, out, err),
        },
    )


@pytest.mark.parametrize("op", ["spr", "tbr"])
def test_emit_check(tmp_path, op):
    tree = random_tree(9, seed=2)
    check = partial(workloads.check_emit, tree, op)
    code, out, err = run_cli(["neighbourhood", "--op", op, "--emit-trees", tree_file(tmp_path, tree)])
    lines = out.splitlines(keepends=True)
    assert_fires(
        check,
        code,
        out,
        err,
        {
            "missing line": (0, "".join(lines[1:]), err),
            "repeated line": (0, "".join([lines[1]] + lines[1:]), err),
            "input tree": (0, "".join([serialize_newick(tree) + "\n"] + lines[1:]), err),
            "unparseable line": (0, "".join([lines[0].replace(")", "", 1)] + lines[1:]), err),
            "foreign tree": (0, "".join([serialize_newick(caterpillar(10)) + "\n"] + lines[1:]), err),
            "op count": (0, out, edit_report(err, lambda r: r.__setitem__("op_count", r["op_count"] - 1))),
            "exit code": (2, out, err),
        },
    )


def test_judge_counts_a_corrupted_output_as_a_failure(tmp_path):
    tree = random_tree(10, seed=1)
    call = workloads.Call("t", (), partial(workloads.check_tbr_survey, tree), trees=0)
    code, out, err = run_cli(["neighbourhood", "--op", "tbr", "--multiplicities", tree_file(tmp_path, tree)])
    judge = Judge([call])
    judge(0, code, out, err)
    judge(0, code, out, err)
    judge(0, code, out.replace('"op_count": ', '"op_count": 1'), err)
    assert (judge.attempted, judge.failed) == (3, 1)


def test_tail_needs_ten_calls_beyond():
    assert tail([1.0] * 19) is None
    t = tail([float(i) for i in range(1, 101)])
    assert (t["value"], t["percentile"], t["calls"]) == (90.0, 90.0, 100)
