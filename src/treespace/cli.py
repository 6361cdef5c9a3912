"""Command-line interface.

Reports are JSON on stdout (CSV opt-in for tables).  When trees are emitted,
the Newick lines go to stdout and the report moves to stderr so pipelines
compose.  Identical inputs and seed produce byte-identical reports.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import RangeError, TreeError

if TYPE_CHECKING:
    from .tree_core import PhyloTree

TABLE_N_CAP = 1 << 20

# Each subcommand imports the modules it runs when it runs, so a call loads
# only those.  The parser's choices are therefore literals; the tests pin
# them to OpKind, TreeFamily and the verify.<suite>_suite functions.
OP_CHOICES = ("nni", "spr", "tbr")
FAMILY_CHOICES = ("caterpillar", "complete", "perfect", "random")
SUITE_CHOICES = ("asymptotic", "extremal", "formulas", "redundancy")


def _emit(report: dict, stream=None) -> None:
    print(json.dumps(report, sort_keys=True, indent=2), file=stream or sys.stdout)


def _report(command: str, inputs: dict, results, seed: int | None = None) -> dict:
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "version": __version__,
    }
    if seed is not None:
        report["seed"] = seed
    return report


def _read_trees(source: str) -> list[tuple[PhyloTree, tuple[str, ...]]]:
    from .newick_io import parse_newick

    if source == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(source, "rb") as handle:
            data = handle.read()
    try:
        text = data.decode("utf-8-sig")  # drops a leading byte order mark
    except UnicodeDecodeError as exc:
        at = exc.start + len(data) - len(exc.object)  # exc.object lacks the mark
        raise TreeError(f"input is not UTF-8 text: byte {data[at]:#04x} at offset {at}") from None
    docs = []
    # Only "\n" ends a line: str.splitlines would also cut at characters such
    # as "\x0b" or "\x85", which may sit inside a quoted label.
    for line in text.split("\n"):
        line = line.strip()
        if line:
            doc = parse_newick(line)
            docs.append((doc.tree, doc.warnings))
    if not docs:
        raise TreeError("no trees in input")
    return docs


def _tree_info(tree: PhyloTree, warnings: tuple[str, ...]) -> dict:
    from . import metrics
    from .extremal import is_caterpillar, is_complete
    from .newick_io import serialize_newick

    n = tree.n
    return {
        "n": n,
        "gamma": metrics.gamma(tree),
        "nni_size": metrics.nni_size(n),
        "spr_size": metrics.spr_size(n),
        "tbr_size": metrics.tbr_size(tree),
        "spr_op_count": metrics.spr_op_count(n),
        "tbr_op_count": metrics.tbr_op_count(tree),
        "is_caterpillar": is_caterpillar(tree),
        "is_complete": is_complete(tree),
        "newick": serialize_newick(tree),
        "warnings": list(warnings),
    }


def cmd_info(args: argparse.Namespace) -> int:
    results = [_tree_info(tree, warnings) for tree, warnings in _read_trees(args.input)]
    _emit(_report("info", {"source": args.input}, results))
    return 0


def cmd_neighbourhood(args: argparse.Namespace) -> int:
    from .newick_io import serialize_newick
    from .rearrange import OpKind, enumerate_ops, op_survey

    docs = _read_trees(args.input)
    if len(docs) != 1:
        raise TreeError("neighbourhood takes exactly one input tree")
    tree, _ = docs[0]
    kind = OpKind(args.op)
    entry = op_survey(tree, (kind,))[kind]
    inputs = {"source": args.input, "op": kind.value, "newick": serialize_newick(tree)}
    if args.emit_trees:
        # The spliced texts give the size (the key count runs for a histogram only); the op input names the kind.
        newicks = sorted(entry.newicks())
        results = {"n": tree.n, "op_count": entry.op_count, "neighbourhood_size": len(newicks)}
        if args.multiplicities:
            results["multiplicity_histogram"] = entry.report.to_json()["multiplicity_histogram"]
        sys.stdout.write("".join(newick + "\n" for newick in newicks))
    else:
        results = entry.report.to_json()
        if not args.multiplicities:
            del results["multiplicity_histogram"]
    if args.emit_ops:
        results["ops"] = [op.to_json() for op in enumerate_ops(tree, kind)]
    _emit(_report("neighbourhood", inputs, results), stream=sys.stderr if args.emit_trees else None)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .generators import TreeFamily, generate
    from .newick_io import serialize_newick

    if args.seed is not None and args.family != "random":
        raise RangeError("--seed applies only to the random family")
    tree = generate(TreeFamily(args.family), args.n, seed=args.seed)
    print(serialize_newick(tree))
    return 0


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    suite = args.suite
    options = {} if args.n_max is None else {"n_max": args.n_max}
    if suite == "asymptotic" and options:
        raise RangeError("the asymptotic suite takes no n_max")
    # Each option belongs to some suites; elsewhere it would be silently ignored.
    for name in ("samples", "seed"):
        if getattr(args, name) is not None and suite != "formulas":
            raise RangeError(f"--{name} applies only to the formulas suite")
    if args.threads is not None and suite == "asymptotic":
        raise RangeError("--threads applies only to the exhaustive suites")
    samples = args.samples or 0
    if suite == "formulas":
        options.update(samples=samples, seed=args.seed or 0)
    if suite != "asymptotic":
        options["threads"] = _usable_cpus() if args.threads is None else args.threads
    # The suite function is read from the module at call time, so a wrapper
    # installed on verify.<suite>_suite (a profiler, a tracer) sees the call.
    result = getattr(verify, f"{suite}_suite")(**options)
    inputs = {
        "suite": suite,
        "n_max": args.n_max,
        "samples": samples,
        "threads": args.threads,
    }
    _emit(_report("verify", inputs, result.to_json(), seed=args.seed))
    return 0 if result.passed else 1


def cmd_table(args: argparse.Namespace) -> int:
    from . import metrics

    n_max = args.n_max
    if not 4 <= n_max <= TABLE_N_CAP:
        raise RangeError(f"table supports 4 <= n-max <= {TABLE_N_CAP}, got {n_max}")
    what, family = args.what, args.family
    functions = {
        ("gamma", "caterpillar"): metrics.caterpillar_gamma,
        ("gamma", "complete"): metrics.gamma_complete,
        ("gamma", "perfect"): metrics.gamma_complete,
        ("tbr-size", "caterpillar"): metrics.caterpillar_tbr_size,
        ("tbr-size", "complete"): metrics.complete_tbr_size,
        ("tbr-size", "perfect"): metrics.perfect_tbr_size,
    }
    fn = functions[(what, family)]
    rows = []
    for n in range(4, n_max + 1):
        if family == "perfect":
            try:
                metrics.perfect_form(n)
            except TreeError:
                continue
        rows.append((n, fn(n)))
    if args.format == "csv":
        print("n,value")
        for n, value in rows:
            print(f"{n},{value}")
        return 0
    results = {"what": what, "family": family, "rows": [{"n": n, "value": v} for n, v in rows]}
    _emit(_report("table", {"what": what, "family": family, "n_max": n_max}, results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treespace", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="split statistic and neighbourhood sizes of input trees")
    p.add_argument("input", nargs="?", default="-", help="Newick file, one tree per line; '-' for stdin")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("neighbourhood", help="enumerate one rearrangement neighbourhood")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--op", choices=OP_CHOICES, default="tbr")
    p.add_argument("--emit-trees", action="store_true", help="print neighbour trees to stdout, report to stderr")
    p.add_argument("--multiplicities", action="store_true", help="include the output-multiplicity histogram")
    p.add_argument("--emit-ops", action="store_true", help="include JSON records of every operation")
    p.set_defaults(fn=cmd_neighbourhood)

    p = sub.add_parser("generate", help="emit a named tree family as Newick")
    p.add_argument("--family", choices=FAMILY_CHOICES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="seed of the random family (default 0)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITE_CHOICES, required=True)
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument(
        "--samples", type=int, default=None, help="random trees per n in 8..12, 16, 32 and 64 (formulas; default 0)"
    )
    p.add_argument("--seed", type=int, default=None, help="seed of the samples (formulas; default 0)")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes to fork, at most one per shard of the largest T_n; the extremal "
        "suite forks for that T_n alone (formulas, redundancy, extremal; default: the CPUs this process may use)",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", help="closed-form tables per family")
    p.add_argument("--what", choices=["gamma", "tbr-size"], required=True)
    p.add_argument("--family", choices=["caterpillar", "complete", "perfect"], required=True)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early, as `| head` does: nothing to report.
        # Further writes, including the flush at exit, go to /dev/null.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (TreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
