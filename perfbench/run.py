"""CLI-level benchmark for treespace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is the real CLI,
``python -m treespace.cli`` with ``src`` on ``PYTHONPATH``; it receives only
input files generated here from ``--seed``.

``--trace 0`` drives the CLI as a closed loop with one client: each call
starts when the previous one has returned.  The workload's pass (see
``workloads.py``) repeats until ``--seconds`` would be exceeded, and every
output is checked.  Set-up is timed as ``treespace --version`` in fresh
interpreters, sampled at even intervals over the run.

``--trace 1`` runs one pass in-process through ``treespace.cli.main``
untraced and one traced (see ``tracing.py``), checks both, and reports the
per-layer metrics.  Spans are written to ``perfbench/out/`` at the end.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give every metric by name
and unit, the environment stamp and the workload's inputs.  The full run
record goes to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3
# A tail percentile needs this many calls beyond it.
TAIL_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("trees_per_s", "1/s"),
]


def env_stamp() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "treespace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def git_sha() -> str | None:
    """HEAD's commit, read from .git directly; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Subprocesses:
    """Runs the CLI in fresh interpreters and reports time, peak RSS and output."""

    def __init__(self, workdir: Path):
        self.env = {k: v for k, v in os.environ.items() if k != "TREESPACE_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.out_path = workdir / "stdout"
        self.err_path = workdir / "stderr"

    def run(self, argv, python_flags=()) -> tuple[float, float, int, str, str]:
        """(seconds, peak RSS in MB, exit code, stdout, stderr) of one call.

        wait4 reports the largest resident set of the process and of every
        descendant it waited for, so pool workers count.
        """
        cmd = [sys.executable, *python_flags, *argv]
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (
                seconds,
                usage.ru_maxrss / 1024,
                proc.returncode,
                out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"),
            )

    def cli(self, argv):
        return self.run(["-m", "treespace.cli", *argv])


class Judge:
    """Checks every output; an output byte-identical to one already verified
    for the same call passes without re-checking (reports are deterministic)."""

    def __init__(self, calls):
        self.calls = calls
        self.verified: dict[int, tuple[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, index: int, code: int, out: str, err: str) -> None:
        self.attempted += 1
        if code == 0 and self.verified.get(index) == (out, err):
            return
        problems = self.calls[index].check(code, out, err)
        if problems:
            self.failed += 1
            self.problems.extend(f"{self.calls[index].label}: {p}" for p in problems[:5])
        else:
            self.verified[index] = (out, err)


def tail(durations: list[float]) -> dict | None:
    """Highest percentile with TAIL_BEYOND calls beyond it, or None."""
    n = len(durations)
    if n < 2 * TAIL_BEYOND:
        return None
    ranked = sorted(durations)
    return {"value": ranked[n - TAIL_BEYOND - 1], "percentile": 100 * (n - TAIL_BEYOND) / n, "calls": n}


def measured_run(calls, seconds: float, workdir: Path) -> tuple[dict, Judge, dict]:
    procs = Subprocesses(workdir)
    procs.cli(["--version"])  # fills the bytecode cache; users pay that once
    setup: list[float] = []

    def setup_sample() -> None:
        elapsed, _, code, out, err = procs.cli(["--version"])
        if code != 0 or not out.strip():
            raise SystemExit(f"treespace --version failed with exit code {code}: {err.strip()[-300:]}")
        setup.append(elapsed)

    # Set-up samples are spread evenly over the run, so that they meet the
    # same share of a noisy host's slow spells as the workload's calls do.
    judge = Judge(calls)
    durations: list[float] = []
    passes: list[float] = []
    peak_rss = 0.0
    start = time.perf_counter()
    while True:
        pass_s = 0.0
        for index, call in enumerate(calls):
            if len(setup) < SETUP_SAMPLES and time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
                setup_sample()
            elapsed, rss, code, out, err = procs.cli(call.argv)
            judge(index, code, out, err)
            durations.append(elapsed)
            peak_rss = max(peak_rss, rss)
            pass_s += elapsed
        passes.append(pass_s)
        if time.perf_counter() - start + pass_s > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup_sample()

    wall = statistics.median(passes)
    trees = sum(c.trees for c in calls)
    ops = sum(c.ops for c in calls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "call_p50_s": statistics.median(durations),
        "peak_rss_mb": peak_rss,
        "trees_per_s": trees / wall,
    }
    extra = {
        "passes": len(passes),
        "calls": len(durations),
        "call_tail_s": tail(durations),
        "ops_per_s": ops / wall if ops else None,
        "fail_ratio": judge.failed / judge.attempted,
        "pass_s": passes,
        "setup_samples_s": setup,
        "call_s": durations,
    }
    return metrics, judge, extra


def import_breakdown(workdir: Path) -> dict:
    """Median cumulative import time of treespace.cli and of numpy under it."""
    procs = Subprocesses(workdir)
    cli_us, numpy_us = [], []
    for _ in range(IMPORT_SAMPLES):
        _, _, code, _, err = procs.run(["-X", "importtime", "-c", "import treespace.cli"])
        if code != 0:
            raise SystemExit(f"importing treespace.cli failed: {err.strip()[-300:]}")
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum))
        cli_us.append(cumulative["treespace.cli"])
        numpy_us.append(cumulative.get("numpy", 0))
    return {"cli.import_s": statistics.median(cli_us) / 1e6, "cli.import_numpy_s": statistics.median(numpy_us) / 1e6}


def in_process_pass(cli, calls, judge: Judge) -> float:
    wall = 0.0
    for index, call in enumerate(calls):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
        wall += time.perf_counter() - start
        judge(index, code, out.getvalue(), err.getvalue())
    return wall


def traced_run(calls, workload: str, workdir: Path) -> tuple[dict, Judge, dict]:
    from tracing import PER_LAYER, Tracer

    import treespace.cli as cli

    layers = import_breakdown(workdir)
    judge = Judge(calls)
    untraced = in_process_pass(cli, calls, judge)
    tracer = Tracer()
    tracer.install()
    try:
        traced = in_process_pass(cli, calls, judge)
    finally:
        tracer.uninstall()
    layers.update(tracer.per_layer())
    layers["trace_overhead_ratio"] = traced / untraced
    metrics = {name: layers.get(name, 0) for name, _, _ in PER_LAYER}
    spans_path = OUT / f"{workload}-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as f:
        for pid, sid, parent, name, start, end in tracer.spans:
            f.write(json.dumps({"pid": pid, "id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}) + "\n")
    return metrics, judge, {"untraced_s": untraced, "traced_s": traced, "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treespace" / "cli.py").is_file():
        print(f"error: no treespace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = env_stamp()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        calls = workloads.build(args.workload, args.seed, workdir, env["nproc"])
        if args.trace:
            from tracing import PER_LAYER

            units = {name: unit for name, unit, _ in PER_LAYER}
            metrics, judge, extra = traced_run(calls, args.workload, workdir)
        else:
            units = dict(END_TO_END)
            metrics, judge, extra = measured_run(calls, args.seconds, workdir)
    env["loadavg_end"] = os.getloadavg()

    correct = judge.failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "env": env,
        "inputs": [{"label": c.label, "argv": list(c.argv), "trees": c.trees, "ops": c.ops} for c in calls],
        "metrics": metrics,
        "extra": extra,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "problems": judge.problems,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: {workloads.WHY[args.workload]}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# calls per pass: " + ", ".join(c.label for c in calls))
    for problem in judge.problems[:20]:
        print(f"# FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    if not args.trace:
        tail_info = extra["call_tail_s"]
        if tail_info:
            print(f"{'call_tail_s':<28} {tail_info['value']:>14.6g} s  (p{tail_info['percentile']:.1f} of {tail_info['calls']} calls)")
        else:
            print(f"{'call_tail_s':<28} {'n/a':>14} s  ({extra['calls']} calls; a tail needs {2 * TAIL_BEYOND})")
        if extra["ops_per_s"] is not None:
            print(f"{'ops_per_s':<28} {extra['ops_per_s']:>14.6g} 1/s  ({sum(c.ops for c in calls)} ops per pass)")
        print(f"# {extra['passes']} passes, {extra['calls']} calls")
    print(f"{'fail_ratio':<28} {judge.failed / judge.attempted:>14.6g} 1  ({judge.failed} of {judge.attempted} calls)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": judge.attempted,
                "failed": judge.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
