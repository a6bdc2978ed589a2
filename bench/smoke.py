"""Self-check of the benchmark harness at toy size (4x4 surface, 2 trials).

Run from the root of a checkout:

    python3 bench/smoke.py

It checks that every workload prints a result line of the agreed shape
with every metric named in BENCHMARK.json, that the traced run's counts
repeat exactly, that the checks reject a wrong rate or phase, and that
run.py refuses to run without the program next to it. Prints one line
per check and exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

import child
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
EXACT_COUNTS = ("channel.rician_channel.calls_per_distinct_draw",
                "channel.los_channel_matrix.calls_per_distinct_geometry",
                "optimizer.sweeps", "optimizer.sweeps_max", "optimizer.not_converged",
                "optimizer.coordinate_visits", "link.form_bytes_computed",
                "link.build_quadratic_form.calls", "link.rate.calls", "trace.ops")


def run_bench(workload: str, trace: int, seed: int = 5, cwd: str = None):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py") if cwd is None else "bench/run.py",
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=170, cwd=cwd)
    return proc


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def result_shape(proc, expected: list) -> None:
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and bool(lines), f"exit 0 ({proc.stderr.strip()[-300:]})")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] is True and result["failed"] == 0
          and isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"all {result['attempted']} ops correct")
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    check(got == [(m["name"], m["unit"]) for m in expected], "metric names and units")
    check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
          "metric values are numbers")
    return result


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(workloads.WORKLOADS), "BENCHMARK.json lists every workload")

    for name in names:
        print(f"-- {name}")
        result_shape(run_bench(name, 0), spec["end_to_end"])
        first = result_shape(run_bench(name, 1), spec["per_layer"])["metrics"]
        again = json.loads(run_bench(name, 1).stdout.strip().splitlines()[-1])["metrics"]
        check(all(first[k]["value"] == again[k]["value"] for k in EXACT_COUNTS),
              "traced counts repeat exactly")

    print("-- checks reject wrong answers")
    sweep = workloads.sweep_spec("position_sweep", True)
    out = child.run_sweep_chunk(sweep, 5, 0)
    attempted, failed, _ = workloads.check_outputs("position_sweep", [out], sweep)
    check(failed == 0 and attempted == 2 * 41 * 2, "toy chunk passes")
    key = next(iter(out["rates"]))
    out["rates"][key][1] *= 1.0 + 1e-6
    check(workloads.check_outputs("position_sweep", [out], sweep)[1] == 1,
          "a rate off by 1e-6 fails one op")
    out["rates"][key][1] /= 1.0 + 1e-6
    out["csv"] = out["csv"].replace(key.split(",")[0] + ",", "x,", 1)
    check(workloads.check_outputs("position_sweep", [out], sweep)[1] == 2,
          "a CSV row unlike the two-worker rerun fails its trials")

    work_dir = os.path.join(os.getcwd(), ".bench_work", f"smoke-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        ops = workloads.make_large_inputs(5, 1, True, work_dir)
        res = child.run_optimize(0, ops[0])
        check(workloads.check_large_op(ops[0], res), "toy optimize call passes")
        head, phases = res["stdout"].split("phases ")
        flipped = str((int(phases[0]) + 1) % 4) + phases[1:]
        check(not workloads.check_large_op(ops[0], dict(res, stdout=head + "phases " + flipped)),
              "a changed phase index fails the op")

        print("-- refuses to run without the program")
        bare = os.path.join(work_dir, "bare")
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        proc = run_bench(names[0], 0, cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"exit {proc.returncode} with no result line")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
