"""Command-line surface: reports, determinism, exit codes."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treespace
from conftest import reference_newick
from treespace import metrics, rearrange, tree_core
from treespace.cli import FAMILY_CHOICES, OP_CHOICES, SUITE_CHOICES, TABLE_N_CAP, main
from treespace.generators import all_trees, random_tree
from treespace.newick_io import parse_newick, serialize_newick
from treespace.rearrange import OpKind, apply_op, enumerate_ops


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def quartet_file(tmp_path):
    path = tmp_path / "quartet.nwk"
    path.write_text("((1,2),(3,4));\n")
    return str(path)


@pytest.fixture
def cat6_file(tmp_path):
    path = tmp_path / "cat6.nwk"
    path.write_text("(1,2,(3,(4,(5,6))));\n")
    return str(path)


class TestInfo:
    def test_quartet(self, capsys, quartet_file):
        report = run_json(capsys, "info", quartet_file)
        row = report["results"][0]
        assert row["gamma"] == 4 and row["tbr_size"] == 2
        assert row["warnings"] == ["RootSuppressed"]

    def test_caterpillar6(self, capsys, cat6_file):
        row = run_json(capsys, "info", cat6_file)["results"][0]
        assert row["gamma"] == 25
        assert (row["tbr_size"], row["spr_size"], row["nni_size"]) == (34, 30, 6)
        assert row["is_caterpillar"] and not row["is_complete"]

    def test_perfect6_values(self, capsys, tmp_path):
        path = tmp_path / "p6.nwk"
        path.write_text("(1,2,((3,4),(5,6)));\n")
        row = run_json(capsys, "info", str(path))["results"][0]
        assert row["gamma"] == 24 and row["tbr_size"] == 30
        assert row["is_complete"]

    def test_multiple_trees_one_per_line(self, capsys, tmp_path):
        path = tmp_path / "multi.nwk"
        path.write_text("((1,2),(3,4));\n(1,2,(3,(4,5)));\n")
        report = run_json(capsys, "info", str(path))
        assert [row["n"] for row in report["results"]] == [4, 5]

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.nwk"
        path.write_text("((1,2,(3,4));\n")
        code, _, err = run(capsys, "info", str(path))
        assert code == 2
        assert "position" in err

    def test_byte_identical_reports(self, capsys, cat6_file):
        _, out1, _ = run(capsys, "info", cat6_file)
        _, out2, _ = run(capsys, "info", cat6_file)
        assert out1 == out2


class TestNeighbourhood:
    def test_quartet_multiplicities(self, capsys, quartet_file):
        report = run_json(capsys, "neighbourhood", quartet_file, "--op", "tbr", "--multiplicities")
        results = report["results"]
        assert results["neighbourhood_size"] == 2
        assert results["op_count"] == 8
        assert results["multiplicity_histogram"] == {"4": 2}

    def test_caterpillar6_tbr(self, capsys, cat6_file):
        results = run_json(capsys, "neighbourhood", cat6_file, "--op", "tbr")["results"]
        assert results["neighbourhood_size"] == 34 and results["op_count"] == 52

    def test_caterpillar6_nni(self, capsys, cat6_file):
        results = run_json(capsys, "neighbourhood", cat6_file, "--op", "nni", "--multiplicities")["results"]
        assert results["neighbourhood_size"] == 6
        assert results["multiplicity_histogram"] == {"4": 6}

    def test_count_path_builds_no_forms(self, capsys, cat6_file, monkeypatch):
        def refuse(*args):
            raise AssertionError("the count path built a canonical form")

        monkeypatch.setattr(tree_core, "CanonicalForm", refuse)
        results = run_json(capsys, "neighbourhood", cat6_file, "--op", "tbr", "--multiplicities")["results"]
        assert results["multiplicity_histogram"] == {"1": 28, "4": 6}

    def test_emit_trees(self, capsys, quartet_file):
        code, out, err = run(capsys, "neighbourhood", quartet_file, "--op", "tbr", "--emit-trees")
        assert code == 0
        assert sorted(out.strip().splitlines()) == ["(1,(2,3),4);", "(1,(2,4),3);"]
        report = json.loads(err)
        assert report["results"]["neighbourhood_size"] == 2

    def test_emit_ops_round_trip(self, capsys, quartet_file):
        results = run_json(capsys, "neighbourhood", quartet_file, "--emit-ops")["results"]
        assert len(results["ops"]) == 8
        assert all(set(op) == {"bisect_mask", "reconnect_a", "reconnect_b"} for op in results["ops"])

    @pytest.mark.parametrize("text", ["a;", "(a,b);", "(a,b,c);"])
    @pytest.mark.parametrize("emit", [[], ["--emit-trees"]], ids=["report", "emit-trees"])
    def test_too_few_leaves(self, text, emit):
        """Every tree below 4 leaves is refused for its size, before its
        Newick is written into the report's inputs."""
        code, out, err = _call(["neighbourhood", "-", *emit], text.encode() + b"\n")
        assert (code, out) == (2, "") and "need at least 4 leaves" in err, err


EMIT_TREES = [
    *((f"T6-{i}", t) for i, t in enumerate(itertools.islice(all_trees(6), 0, None, 26))),
    *((f"T7-{i}", t) for i, t in enumerate(itertools.islice(all_trees(7), 0, None, 237))),
    ("random16", random_tree(16, seed=3)),
    ("quoted7", parse_newick("(('a b','it''s'),c,(('d e',f),('g''h',i)));").tree),
]


def oracle_emit(tree, kind: OpKind, source: str) -> tuple[str, str]:
    """stdout and stderr of `neighbourhood --emit-trees --multiplicities
    --emit-ops`, built by apply_op's graph surgery and the reference writer."""
    ops = enumerate_ops(tree, kind)
    counts: Counter = Counter()
    newick = {}
    for op in ops:
        result = apply_op(tree, op)
        form = result.canonical_form()
        counts[form] += 1
        newick.setdefault(form, reference_newick(result))
    histogram = Counter(counts.values())
    report = {
        "command": "neighbourhood",
        "inputs": {"source": source, "op": kind.value, "newick": reference_newick(tree)},
        "results": {
            "n": tree.n,
            "op_count": len(ops),
            "neighbourhood_size": len(counts),
            "multiplicity_histogram": {str(m): c for m, c in sorted(histogram.items())},
            "ops": [op.to_json() for op in ops],
        },
        "version": treespace.__version__,
    }
    out = "".join(text + "\n" for text in sorted(newick.values()))
    return out, json.dumps(report, sort_keys=True, indent=2) + "\n"


class TestEmitOracle:
    @pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("label,tree", EMIT_TREES, ids=[label for label, _ in EMIT_TREES])
    def test_matches_apply_op_route(self, capsys, tmp_path, monkeypatch, kind, label, tree):
        path = tmp_path / f"{label}.nwk"
        path.write_text(reference_newick(tree) + "\n")
        expected = oracle_emit(tree, kind, str(path))

        def refuse(*args):
            raise AssertionError("the emit path built a canonical form")

        monkeypatch.setattr(tree_core, "CanonicalForm", refuse)
        code, out, err = run(capsys, "neighbourhood", str(path), "--op", kind.value,
                             "--emit-trees", "--multiplicities", "--emit-ops")
        assert code == 0
        assert (out, err) == expected


@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
@pytest.mark.parametrize("label,tree", EMIT_TREES[-2:], ids=[label for label, _ in EMIT_TREES[-2:]])
def test_emit_reads_no_output_key(capsys, tmp_path, monkeypatch, kind, label, tree):
    """--emit-trees splices each output's text from the survey's sides; it
    never lists the exact output keys."""
    path = tmp_path / f"{label}.nwk"
    path.write_text(reference_newick(tree) + "\n")
    expected = oracle_emit(tree, kind, str(path))

    def refuse(*args):
        raise AssertionError("the emit path read the output keys")

    monkeypatch.setattr(rearrange.SurveyEntry, "output_keys", refuse)
    code, out, err = run(capsys, "neighbourhood", str(path), "--op", kind.value,
                         "--emit-trees", "--multiplicities", "--emit-ops")
    assert code == 0
    assert (out, err) == expected


@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
@pytest.mark.parametrize("label,tree", EMIT_TREES[-2:], ids=[label for label, _ in EMIT_TREES[-2:]])
def test_emit_without_histogram_builds_no_keys(capsys, tmp_path, monkeypatch, kind, label, tree):
    """--emit-trees without --multiplicities takes the operation count from
    the blocks and the size from the spliced texts: it never builds a hash
    key, and its report is the oracle's without the histogram."""
    path = tmp_path / f"{label}.nwk"
    path.write_text(reference_newick(tree) + "\n")
    out_want, err_want = oracle_emit(tree, kind, str(path))
    report = json.loads(err_want)
    del report["results"]["multiplicity_histogram"]

    def refuse(*args):
        raise AssertionError("the emit path built hash keys")

    monkeypatch.setattr(rearrange, "_hash_keys", refuse)
    code, out, err = run(capsys, "neighbourhood", str(path), "--op", kind.value, "--emit-trees", "--emit-ops")
    assert code == 0
    assert (out, err) == (out_want, json.dumps(report, sort_keys=True, indent=2) + "\n")


class TestGenerate:
    def test_caterpillar5_literal(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "caterpillar", "--n", "5")
        assert code == 0 and out.strip() == "(1,2,(3,(4,5)));"

    def test_complete7_info_gamma(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "--family", "complete", "--n", "7")
        path = tmp_path / "c7.nwk"
        path.write_text(out)
        row = run_json(capsys, "info", str(path))["results"][0]
        assert row["gamma"] == 42

    def test_perfect10_rejected(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "perfect", "--n", "10")
        assert code == 2
        assert "2**k" in err

    @pytest.mark.parametrize("family", ["caterpillar", "complete", "perfect"])
    def test_seed_outside_random_rejected(self, capsys, family):
        code, out, err = run(capsys, "generate", "--family", family, "--n", "6", "--seed", "3")
        assert (code, out, err) == (2, "", "error: --seed applies only to the random family\n")

    def test_random_deterministic(self, capsys):
        _, out1, _ = run(capsys, "generate", "--family", "random", "--n", "9", "--seed", "5")
        _, out2, _ = run(capsys, "generate", "--family", "random", "--n", "9", "--seed", "5")
        assert out1 == out2


class TestVerify:
    def test_formulas_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "formulas", "--n-max", "5")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["passed"] is True
        assert report["results"]["details"]["trees"]["exhaustive_n5"] == 15

    def test_redundancy_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "redundancy", "--n-max", "5")
        assert code == 0 and json.loads(out)["results"]["passed"]

    def test_extremal_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "extremal", "--n-max", "6")
        assert code == 0
        scans = json.loads(out)["results"]["details"]["scans"]
        assert scans["6"]["max_value"] == 34 and scans["6"]["min_value"] == 30

    def test_failed_suite_exits_1(self, monkeypatch):
        monkeypatch.setattr(metrics, "nni_size", lambda n: -1)
        code, out, err = _call(["verify", "--suite", "formulas", "--n-max", "4", "--threads", "1"], b"")
        assert (code, err) == (1, "")
        assert json.loads(out)["results"]["passed"] is False

    def test_n_max_over_exhaustive_range(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "redundancy", "--n-max", "9")
        assert code == 2 and "n_max" in err

    @pytest.mark.parametrize("suite,n_max", [("formulas", "0"), ("redundancy", "3"), ("extremal", "-1"),
                                             ("asymptotic", "5")])
    def test_n_max_rejected(self, capsys, suite, n_max):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", n_max)
        assert code == 2 and out == "" and "n_max" in err

    @pytest.mark.parametrize("suite,option,value", [
        ("redundancy", "--samples", "3"), ("asymptotic", "--samples", "0"), ("extremal", "--seed", "1"),
        ("asymptotic", "--threads", "4"),
    ])
    def test_option_of_another_suite_rejected(self, capsys, suite, option, value):
        n_max = () if suite == "asymptotic" else ("--n-max", "4")
        code, out, err = run(capsys, "verify", "--suite", suite, *n_max, option, value)
        assert code == 2 and out == ""
        owner = "the exhaustive suites" if option == "--threads" else "the formulas suite"
        assert err == f"error: {option} applies only to {owner}\n"

    @pytest.mark.parametrize("suite,value", [("formulas", "2"), ("redundancy", "1"), ("extremal", "2")])
    def test_exhaustive_suites_take_threads(self, capsys, suite, value):
        report = run_json(capsys, "verify", "--suite", suite, "--n-max", "4", "--threads", value)
        assert report["results"]["passed"] and report["inputs"]["threads"] == int(value)

    def test_results_do_not_depend_on_threads(self, capsys):
        """--threads changes only how the trees are shared between processes,
        and the report echoes it as given: null when it is left out."""
        reports = {
            threads: run_json(capsys, "verify", "--suite", "formulas", "--n-max", "6", *threads)
            for threads in [(), ("--threads", "1"), ("--threads", "2")]
        }
        assert [r["inputs"]["threads"] for r in reports.values()] == [None, 1, 2]
        results = [r["results"] for r in reports.values()]
        assert results[0] == results[1] == results[2] and results[0]["passed"]

    @pytest.mark.parametrize("suite,n_max,shards", [("formulas", "4", 3), ("extremal", "5", 15), ("redundancy", "6", 105)])
    def test_pool_never_outnumbers_shards(self, capsys, monkeypatch, suite, n_max, shards):
        """A suite forks at most one worker per shard of the largest T_n,
        and the extremal suite forks for that T_n alone.  The stand-in for
        fork_map records the workers asked for and runs the tasks in this
        process, so --threads 100000 starts no process."""
        from treespace import generators

        sizes = []

        def recording_map(fn, tasks, workers):
            sizes.append(workers)
            return [fn(task) for task in tasks]

        monkeypatch.setattr(generators, "fork_map", recording_map)
        report = run_json(capsys, "verify", "--suite", suite, "--n-max", n_max, "--threads", "100000")
        assert report["results"]["passed"]
        assert sizes == [shards]

    @pytest.mark.parametrize("suite,option,value", [
        ("formulas", "--samples", "-1"), ("extremal", "--threads", "0"), ("extremal", "--threads", "-5"),
        ("formulas", "--threads", "0"), ("redundancy", "--threads", "0"),
    ])
    def test_option_value_out_of_range_rejected(self, capsys, suite, option, value):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n-max", "4", option, value)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {option[2:]} must be >= ")


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "info", "/no/such/file.nwk")
        assert code == 2 and "file" in err.lower()

    @pytest.mark.parametrize("lines_read", [1, 0], ids=["after-one-line", "before-any"])
    def test_broken_pipe_exits_quietly(self, tmp_path, lines_read):
        if lines_read:
            # Hundreds of kilobytes of trees, more than the pipe buffers.
            path = tmp_path / "random24.nwk"
            path.write_text(reference_newick(random_tree(24, seed=1)) + "\n")
            argv = ["neighbourhood", str(path), "--emit-trees"]
        else:
            # One short line, still buffered when the command returns.
            argv = ["generate", "--family", "caterpillar", "--n", "5"]
        # Block-buffered stdout, as in a plain shell pipeline.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(treespace.__file__).parents[1])
        proc = subprocess.Popen([sys.executable, "-m", "treespace.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        lines = [proc.stdout.readline() for _ in range(lines_read)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=120)
        assert all(line.startswith(b"(1,") for line in lines)
        assert (code, err) == (0, b"")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_input(self, capsys, tmp_path, monkeypatch, source):
        data = b"(1,2,(3,\xff4));\n"
        path = tmp_path / "latin.nwk"
        path.write_bytes(data)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run(capsys, "info", str(path) if source == "file" else "-")
        assert code == 2 and out == ""
        assert err == "error: input is not UTF-8 text: byte 0xff at offset 8\n"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_byte_order_mark_dropped(self, capsys, tmp_path, monkeypatch, source):
        """A leading UTF-8 byte order mark is not part of the first tree."""
        data = b"\xef\xbb\xbf((a,b),c,(d,e));\n"
        path = tmp_path / "bom.nwk"
        path.write_bytes(data)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        (row,) = run_json(capsys, "info", str(path) if source == "file" else "-")["results"]
        assert row["newick"] == "(a,b,(c,(d,e)));" and row["warnings"] == []

    def test_byte_order_mark_counts_in_offsets(self, capsys, tmp_path):
        path = tmp_path / "bom.nwk"
        path.write_bytes(b"\xef\xbb\xbf(1,2,(3,\xff4));\n")
        code, out, err = run(capsys, "info", str(path))
        assert code == 2 and out == ""
        assert err == "error: input is not UTF-8 text: byte 0xff at offset 11\n"

    def test_byte_order_mark_only_at_the_start(self, capsys, tmp_path):
        """A byte order mark anywhere else stays in the text."""
        path = tmp_path / "bom2.nwk"
        path.write_bytes(b"(a,b,(c,d));\n\xef\xbb\xbf(a,b,(c,d));\n")
        code, out, err = run(capsys, "info", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_deep_nesting_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "deep.nwk"
        path.write_text("(" * 3000 + "a,b,c" + ")" * 3000 + ";\n")
        code, out, err = run(capsys, "info", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_whitespace_labels_round_trip(self, capsys, tmp_path):
        """Labels holding characters that str.splitlines or the parser's
        whitespace skip would act on survive a file, info and a re-parse."""
        labels = ["\x0bb", "c\x0c", "d\x1ce", "\x85f", "g h"]
        text = "('{}','{}',('{}',('{}','{}')));".format(*labels)
        path = tmp_path / "labels.nwk"
        path.write_text(text + "\n", encoding="utf-8")
        (result,) = run_json(capsys, "info", str(path))["results"]
        assert result["n"] == 5
        tree = parse_newick(result["newick"]).tree
        assert tree == parse_newick(text).tree
        assert sorted(tree.leaf_order) == sorted(labels)
        path.write_text(result["newick"] + "\r\n", encoding="utf-8")
        (again,) = run_json(capsys, "info", str(path))["results"]
        assert again["newick"] == result["newick"]

    def test_too_many_leaves(self, capsys, tmp_path):
        import treespace

        path = tmp_path / "big.nwk"
        path.write_text(treespace.serialize_newick(treespace.caterpillar(64)))
        code, out, _ = run(capsys, "info", str(path))
        assert code == 0 and json.loads(out)["results"][0]["n"] == 64


class TestTable:
    def test_tbr_size_caterpillar_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--what", "tbr-size", "--family", "caterpillar",
                           "--n-max", "8", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,value", "4,2", "5,12", "6,34", "7,72", "8,130"]

    def test_tbr_size_complete_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--what", "tbr-size", "--family", "complete",
                           "--n-max", "8", "--format", "csv")
        assert out.splitlines() == ["n,value", "4,2", "5,12", "6,30", "7,64", "8,106"]

    def test_gamma_complete_json(self, capsys):
        report = run_json(capsys, "table", "--what", "gamma", "--family", "complete", "--n-max", "12")
        rows = {r["n"]: r["value"] for r in report["results"]["rows"]}
        assert rows[7] == 42 and rows[12] == 216

    def test_perfect_rows_filtered(self, capsys):
        report = run_json(capsys, "table", "--what", "tbr-size", "--family", "perfect", "--n-max", "16")
        assert [r["n"] for r in report["results"]["rows"]] == [4, 6, 8, 12, 16]

    def test_range_cap(self, capsys):
        code, _, err = run(capsys, "table", "--what", "gamma", "--family", "complete",
                           "--n-max", str(2**20 + 1))
        assert code == 2


# The CLI grammar of the contract fuzz test: per subcommand, each option
# with its valid values and its invalid ones (negative, huge, non-numeric or
# unknown), or None for a flag.  Every call stays small: trees have at most
# 12 leaves, a valid verify --n-max is at most 5 and is always given outside
# the asymptotic suite (whose defaults run to n = 7 or 8), --samples is at
# most 1, --threads is one of -1, 0, 1 and 2, and a table --n-max is at most
# 64 or past the cap.
_NOT_INT = ["x", "1e3", ""]
_GRAMMAR = {
    "info": {"input": (["-"], ["/no/such/file.nwk", "."])},
    "neighbourhood": {
        "input": (["-"], ["/no/such/file.nwk", "."]),
        "--op": (OP_CHOICES, ["xyz"]),
        "--emit-trees": None,
        "--multiplicities": None,
        "--emit-ops": None,
    },
    "generate": {
        "--family": (FAMILY_CHOICES, ["star"]),
        "--n": (["4", "6", "9", "12"], ["-1", "0", "3", "65", str(10**30), *_NOT_INT]),
        "--seed": (["0", "7", "-1", str(2**70)], _NOT_INT),
    },
    "verify": {
        "--suite": (SUITE_CHOICES, ["all"]),
        "--n-max": (["4", "5"], ["-1", "0", "3", "9", str(10**30), *_NOT_INT]),
        "--samples": (["0", "1"], ["-1", *_NOT_INT]),
        "--seed": (["0", "3", "-1", str(2**70)], _NOT_INT),
        "--threads": (["1", "2"], ["-1", "0", *_NOT_INT]),
    },
    "table": {
        "--what": (["gamma", "tbr-size"], ["size"]),
        "--family": (["caterpillar", "complete", "perfect"], ["random"]),
        "--n-max": (["4", "12", "64"], ["-1", "3", str(TABLE_N_CAP + 1), str(10**30), *_NOT_INT]),
        "--format": (["json", "csv"], ["xml"]),
    },
}
_REQUIRED = {"generate": ("--family", "--n"), "verify": ("--suite",), "table": ("--what", "--family", "--n-max")}
_EXTRA = ["--bogus", "-h", "--version", "extra", "--n-max=4", "--"]


@st.composite
def _cli_calls(draw) -> tuple[list[str], bytes]:
    command = draw(st.sampled_from([*_GRAMMAR, "bogus"]))
    argv = [command]
    suite = None
    for option, values in _GRAMMAR.get(command, {}).items():
        if (command, option) == ("verify", "--n-max"):
            present = suite not in (None, "asymptotic") or draw(st.booleans())  # keep the exhaustive suites small
        elif option in _REQUIRED.get(command, ()):
            present = draw(st.integers(0, 9)) < 9  # left out one time in ten
        else:
            present = draw(st.booleans())
        for _ in range(present + (present and draw(st.integers(0, 9)) == 9)):  # repeated one time in ten
            if values is None:
                argv.append(option)
                continue
            valid, invalid = values
            value = draw(st.sampled_from(invalid if draw(st.integers(0, 3)) == 3 else valid))
            argv += [value] if option == "input" else [option, value]
            if option == "--suite":
                suite = value
    if draw(st.integers(0, 3)) == 3:
        argv += draw(st.lists(st.sampled_from(_EXTRA), min_size=1, max_size=2))
    trees = st.builds(
        lambda n, seed: serialize_newick(random_tree(n, seed)).encode(), st.integers(4, 12), st.integers(0, 99)
    )
    lines = st.one_of(trees, st.binary(max_size=40), st.text("(),:;' ab1\t\r\x0b", max_size=30).map(str.encode))
    stdin = draw(st.one_of(trees, st.lists(lines, max_size=3).map(b"\n".join)))
    return argv, stdin


def _call(argv: list[str], stdin: bytes) -> tuple[object, str, str]:
    """main(argv) in-process with ``stdin`` as its input: (exit code, stdout, stderr)."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors, --help, --version
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


class TestContractFuzz:
    @given(_cli_calls())
    @settings(max_examples=100, deadline=None)
    def test_exit_codes_and_determinism(self, call):
        """Every argv and stdin ends in exit code 0, 1 or 2 with no traceback,
        and a second run gives the same bytes."""
        argv, stdin = call
        code, out, err = first = _call(argv, stdin)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err
        assert _call(argv, stdin) == first
