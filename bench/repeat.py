"""Repeat bench/run.py over several seeds and summarize each metric.

Run from the root of a checkout:

    python3 bench/repeat.py --workload power_sweep --seeds 1-10 --seconds 25

For each metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median. ``--out``
also writes the summary with every run's result line and provenance.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        prov = next(json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("provenance "))
        runs.append({"seed": seed, "wall_s": wall, "result": result, "provenance": prov})
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if args.trace == 0)
        if "throughput_ops_per_s" in prov:
            shown += (f" raw={prov['throughput_ops_per_s']:.6g}"
                      f" scale={prov['cal_scale_median']:.3g}")
        print(f"seed {seed} wall {wall:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)

    names = runs[0]["result"]["metrics"]
    summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
               for name in names}
    for name, s in summary.items():
        if args.trace == 0:
            print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "summary": summary, "runs": runs},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
