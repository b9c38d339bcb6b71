"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload demo --seeds 1-10 --seconds 35 [--json out.json]

For every metric it prints the median of the per-run values, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median. Runs are made one after
another, each a separate ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / med if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": share}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--seconds", default="35")
    ap.add_argument("--json", default=None, help="also write the runs and summary here")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    runs = []
    for seed in range(first, last + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result.update(seed=seed, run_s=time.perf_counter() - start)
        runs.append(result)
        values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed} ({result['run_s']:.0f} s) correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    summary = {
        name: summarize([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]
    }
    for name, s in summary.items():
        print(f"{name:<30} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
              f"iqr/median {s['iqr_share']:.4f}")
    if args.json:
        doc = {"workload": args.workload, "runs": runs, "summary": summary}
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
