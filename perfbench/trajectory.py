"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/trajectory.py --seeds 10 [--sets 2] [--workload NAME ...] [--write NAME]

Runs ``run.py`` once per workload and seed (seeds 1..N, then N+1..2N for a
second set, and so on), sequentially.  For every end-to-end metric it prints
the median, the quartiles and the spread (quartile distance over median),
and for a second set how far its median moved from the first.  ``--write``
also runs each workload traced once and stores everything as a trajectory
point in ``perfbench/trajectory/NAME.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--write", default=None, help="trajectory point name, e.g. the commit's short SHA")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"seconds": spec["run_seconds"], "seeds_per_set": args.seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            seeds = range(1 + s * args.seeds, 1 + (s + 1) * args.seeds)
            sets.append([run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds])
        entry = {"env_first": sets[0][0]["env"], "sets": []}
        for runs in sets:
            metrics = {name: summary([r["metrics"][name] for r in runs]) for name in bounds}
            for name in ("ops_per_s", "fail_ratio"):
                values = [r["extra"][name] for r in runs]
                if None not in values:
                    metrics[name] = summary(values)
            tails = [r["extra"]["call_tail_s"] for r in runs]
            if None not in tails:
                metrics["call_tail_s"] = summary([t["value"] for t in tails])
                metrics["call_tail_s"]["percentile"] = statistics.median(t["percentile"] for t in tails)
            entry["sets"].append({"seeds": [r["seed"] for r in runs], "metrics": metrics})
        print(f"== {workload}")
        for name, first in entry["sets"][0]["metrics"].items():
            line = f"  {name:<14} median {first['median']:<12.6g} q1 {first['q1']:<12.6g} q3 {first['q3']:<12.6g}"
            if first["spread"] is not None:
                line += f" spread {first['spread']:.4f}"
            if name in bounds:
                line += f" (bound {bounds[name]})"
                if name != "setup_s" and first["spread"] > bounds[name] / 3:
                    line += " WIDE"
                    ok = False
            for later in entry["sets"][1:]:
                m = later["metrics"][name]
                line += f" | next median {m['median']:.6g}"
                if m["spread"] is not None:
                    line += f" spread {m['spread']:.4f}"
                if name in bounds:
                    worse = (m["median"] - first["median"]) / first["median"]
                    if next(x for x in spec["end_to_end"] if x["name"] == name)["better"] == "higher":
                        worse = -worse
                    line += f" worse by {worse:+.4f}"
                    if worse > bounds[name]:
                        line += " DRIFT"
                        ok = False
            print(line, flush=True)
        if args.write:
            entry["traced"] = run_once(workload, 1, spec["run_seconds"], 1)["metrics"]
        point["workloads"][workload] = entry

    if args.write:
        path = HERE / "trajectory" / f"{args.write}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
