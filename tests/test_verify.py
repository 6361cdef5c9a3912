"""Verification-suite plumbing: structure, sweep consistency, failure capture."""

import os
from collections import Counter

import numpy as np
import pytest

from treespace import RangeError, extremal, generators, metrics, rearrange, verify
from treespace.extremal import extremal_scan
from treespace.generators import all_trees
from treespace.metrics import complete_tbr_size
from treespace.newick_io import serialize_newick
from treespace.verify import (
    ASYMPTOTIC_C,
    RATIO_HALF_FROM,
    SWEEP_BLOCK,
    asymptotic_suite,
    complete_tbr_size_sweep,
    extremal_suite,
    formulas_suite,
    redundancy_suite,
)


def test_formulas_suite_small():
    result = formulas_suite(n_max=5)
    assert result.passed and result.failures == []
    assert result.details["trees"] == {"exhaustive_n4": 3, "exhaustive_n5": 15}


def test_formulas_suite_samples():
    result = formulas_suite(n_max=4, samples=2, seed=1)
    assert result.passed
    assert result.details["trees"]["sampled_n8"] == 2
    assert result.details["trees"]["sampled_n64"] == 2
    # Five checks per tree, the TBR size and op count included: 3 trees of
    # T_4 plus 2 samples for each of the 8 sampled n (8..12, 16, 32, 64).
    assert result.checks == 5 * (3 + 2 * 8)


@pytest.mark.parametrize("suite,options", [
    (formulas_suite, {"samples": -1}), (extremal_suite, {"threads": 0}),
    (formulas_suite, {"threads": 0}), (redundancy_suite, {"threads": -1}),
])
def test_suite_option_out_of_range(suite, options):
    with pytest.raises(RangeError):
        suite(n_max=4, **options)


def counted_closed_forms(monkeypatch, names: tuple[str, ...]) -> dict[str, int]:
    """Calls of each named closed form of ``metrics``, counted from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(metrics, name)

        def counted(arg, name=name, original=original):
            calls[name] += 1
            return original(arg)

        monkeypatch.setattr(metrics, name, counted)
    return calls


def test_formulas_suite_evaluates_each_closed_form_once(monkeypatch):
    names = ("tbr_size", "tbr_op_count", "spr_size", "spr_op_count", "nni_size")
    calls = counted_closed_forms(monkeypatch, names)
    result = formulas_suite(n_max=5)
    assert result.passed and result.checks == 5 * 18
    assert calls == dict.fromkeys(names, 18)


def test_extremal_suite_evaluates_each_closed_form_once(monkeypatch):
    """Once per n; complete_tbr_size calls gamma_complete itself, so that
    one is not counted."""
    calls = counted_closed_forms(monkeypatch, ("caterpillar_tbr_size", "complete_tbr_size"))
    result = extremal_suite(n_max=5)
    assert result.passed and result.checks == 5 * 2
    assert calls == {"caterpillar_tbr_size": 2, "complete_tbr_size": 2}


@pytest.mark.parametrize("suite,name,messages", [
    (formulas_suite, "tbr_size", ["|N_TBR| = 2, formula gives 3"] * 3),
    (formulas_suite, "tbr_op_count", ["|O_TBR| = 8, formula gives 9"] * 3),
    (formulas_suite, "spr_size", ["|N_SPR| = 2, formula gives 3"] * 3),
    (formulas_suite, "spr_op_count", ["|O_SPR| = 8, formula gives 9"] * 3),
    (formulas_suite, "nni_size", ["|N_NNI| = 2, formula gives 3"] * 3),
    (extremal_suite, "caterpillar_tbr_size", ["n=4: scan max 2 != caterpillar formula 3"]),
    (extremal_suite, "complete_tbr_size", ["n=4: scan min 2 != complete formula 3"]),
    # complete_tbr_size(4) = 4 * gamma_complete(4) - 14 moves by 4.
    (extremal_suite, "gamma_complete", ["n=4: scan min 2 != complete formula 6", "n=4: scan min gamma 4 != closed form 5"]),
], ids=lambda value: getattr(value, "__name__", None))
def test_closed_form_off_by_one_message(monkeypatch, suite, name, messages):
    """Each row's failure message, with its closed form planted +1; T_4 is
    three quartets, so the formulas rows fail once per quartet."""
    original = getattr(metrics, name)
    monkeypatch.setattr(metrics, name, lambda arg: original(arg) + 1)
    assert [f["message"] for f in suite(n_max=4).failures] == messages


def test_slack_messages(monkeypatch):
    """A survey that finds no repeated output counts every operation as an
    output of its own, so op count minus neighbourhood size is 0."""
    monkeypatch.setattr(rearrange.SurveyEntry, "_repeated", Counter())
    failures = redundancy_suite(n_max=4).failures
    assert failures[:3] == [
        {"message": "|O_TBR| - |N_TBR| = 0 != 6", "newick": "(1,(2,3),4);"},
        {"message": "|O_SPR| - |N_SPR| = 0 != 6", "newick": "(1,(2,3),4);"},
        {"message": "NNI multiplicity histogram {1: 8} != {4: 2}", "newick": "(1,(2,3),4);"},
    ]


@pytest.fixture
def fork_calls(monkeypatch):
    """Records (tasks, workers) of every fork_map call and the pid of every
    child forked; the children are real."""
    calls, pids = [], []
    fork_map, fork = generators.fork_map, os.fork

    def counted_map(fn, tasks, workers):
        calls.append((len(tasks), workers))
        return fork_map(fn, tasks, workers)

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(generators, "fork_map", counted_map)
    monkeypatch.setattr(os, "fork", counted_fork)
    return calls, pids


def test_extremal_suite_opens_one_pool(fork_calls):
    """A parallel extremal suite forks one set of workers, for the shards of
    T_{n_max} alone, and scans the smaller T_n in this process; the result
    equals the serial one."""
    calls, pids = fork_calls
    parallel = extremal_suite(n_max=7, threads=3)
    assert calls == [(105, 3)]
    assert len(set(pids)) == len(pids) == 3
    assert parallel == extremal_suite(n_max=7, threads=1)
    assert parallel.passed and len(calls) == 1


@pytest.mark.parametrize("suite", [formulas_suite, redundancy_suite])
def test_exhaustive_suite_forks_once(fork_calls, suite):
    """The shards of every T_n of a call go to one set of workers, sized by
    the shards of the largest T_n."""
    calls, pids = fork_calls
    assert suite(6, threads=3) == suite(6)
    assert calls == [(3 + 15 + 105, 3)] and len(pids) == 3


class PlantedFault(Exception):
    """Raised by a check on the trees of one shard, inside a worker."""


PLANTED_SHARD = (1, 2, 3)


@pytest.mark.parametrize("run", [formulas_suite, extremal_suite, extremal_scan], ids=lambda run: run.__name__)
def test_worker_exception_reaches_the_parent(monkeypatch, run):
    """A check that raises in a worker raises the same exception type in this
    process, and every worker has been reaped by then."""
    bad = set(all_trees(6, PLANTED_SHARD))

    def planted(original):
        def check(*args):
            if args[-1] in bad:
                raise PlantedFault(f"planted in shard {PLANTED_SHARD}")
            return original(*args)

        return check

    monkeypatch.setattr(verify, "_check_formula_tree", planted(verify._check_formula_tree))
    monkeypatch.setattr(extremal, "is_complete", planted(extremal.is_complete))
    with pytest.raises(PlantedFault, match="planted in shard"):
        run(6, threads=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_redundancy_suite_small():
    result = redundancy_suite(n_max=5)
    assert result.passed and result.checks == 5 * 18


@pytest.mark.parametrize("suite", [formulas_suite, redundancy_suite])
def test_suite_independent_of_worker_count(suite):
    assert suite(7, threads=2) == suite(7)


def test_failures_independent_of_worker_count(monkeypatch):
    """With a wrong closed form every tree fails.  The pool forks inside the
    suite call, so its workers see the patch too, and the shards' failures
    merge to the serial run's: the first MAX_FAILURES trees, in enumeration
    order."""
    monkeypatch.setattr(metrics, "nni_size", lambda n: -1)
    serial = formulas_suite(6)
    parallel = formulas_suite(6, threads=2)
    assert not serial.passed and (serial.checks, serial.passed) == (parallel.checks, parallel.passed)
    assert serial.checks == 5 * (3 + 15 + 105)
    assert serial.failures == parallel.failures
    first = [tree for n in (4, 5, 6) for tree in all_trees(n)][: verify.MAX_FAILURES]
    assert [f["newick"] for f in parallel.failures] == [serialize_newick(tree) for tree in first]
    assert all(f["message"].startswith("|N_NNI| = ") for f in parallel.failures)


def test_sweep_matches_exact_closed_form():
    """The sweep equals the pure-integer closed form at every n <= 2^16."""
    ns, sizes = complete_tbr_size_sweep(1 << 16)
    assert ns.tolist() == list(range(4, (1 << 16) + 1))
    assert sizes.tolist() == [complete_tbr_size(n) for n in range(4, (1 << 16) + 1)]


#: n = 2^k and n = 3 * 2^k up to 2^20: where the steps of every j fall
#: together, and where each octave term starts and ends.
STEP_CENTRES = sorted({c << k for c in (1, 3) for k in range(2, 21) if c << k <= 1 << 20})


def test_sweep_matches_closed_form_around_every_step():
    """Around every centre, +-64 sizes: as blocks of their own, whose
    coefficients start from the scalar closed form, and read off one sweep
    from 4 to 2^20, which sums every step below them."""
    limit = 1 << 20
    whole = complete_tbr_size_sweep(limit)[1]
    for centre in STEP_CENTRES:
        lo, hi = max(4, centre - 64), min(centre + 64, limit)
        expected = [complete_tbr_size(n) for n in range(lo, hi + 1)]
        ns, sizes = complete_tbr_size_sweep(hi, lo)
        assert ns.tolist() == list(range(lo, hi + 1))
        assert sizes.tolist() == expected, centre
        assert whole[lo - 4 : hi - 3].tolist() == expected, centre


@pytest.mark.parametrize("start", [5, 7, 3 * (1 << 15) + 1, (1 << 17) + 3, (1 << 20) - 37])
def test_sweep_block_at_odd_offset(start):
    """A block that starts between steps begins from the right coefficients."""
    limit = min(start + 4099, 1 << 20)
    ns, sizes = complete_tbr_size_sweep(limit, start)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [complete_tbr_size(n) for n in range(start, limit + 1)]


def test_blocked_sweep_matches_full_sweep():
    limit = 2 * SWEEP_BLOCK + 12345  # the last block is a partial one
    ns, sizes = complete_tbr_size_sweep(limit)
    blocks = list(verify._sweep_blocks(limit))
    assert [start for start, _, _ in blocks] == [4, 4 + SWEEP_BLOCK, 4 + 2 * SWEEP_BLOCK]
    assert np.array_equal(np.concatenate([b for _, b, _ in blocks]), ns)
    assert np.array_equal(np.concatenate([s for _, _, s in blocks]), sizes)


def test_asymptotic_suite_independent_of_block_size(monkeypatch):
    # Blocks of 37 sizes end inside octaves and leave a partial last block.
    limit = 20000
    whole = asymptotic_suite(limit).to_json()
    monkeypatch.setattr(verify, "SWEEP_BLOCK", 37)
    assert asymptotic_suite(limit).to_json() == whole


def test_asymptotic_suite_small_limit():
    result = asymptotic_suite(limit=1 << 14)
    assert result.passed
    assert result.details["pinned_c"] == ASYMPTOTIC_C
    assert result.details["observed_c"] <= ASYMPTOTIC_C
    ratios = [d["ratio"] for d in result.details["three_fold_ratios"]]
    assert ratios == sorted(ratios)


def test_ratio_threshold_is_tight():
    # Just below the pinned threshold the ratio does dip under one half.
    ns, sizes = complete_tbr_size_sweep(128)
    bits = np.array([int(n).bit_length() - 1 for n in ns])
    ratio = sizes / (4.0 * ns * ns * bits)
    dips = ns[ratio < 0.5]
    assert int(dips.max()) == RATIO_HALF_FROM - 1


def test_collector_captures_counterexamples():
    """A deliberately broken assertion surfaces the offending tree."""
    from treespace.generators import all_trees
    from treespace.verify import _Collector

    col = _Collector("demo")
    tree = next(all_trees(4))
    col.check(False, "forced failure", tree)
    result = col.result({})
    assert not result.passed
    assert result.failures[0]["newick"].endswith(";")
