"""irslink benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload power_sweep --seed 1 --seconds 25 --trace 0

Workloads, metrics and their rationale are listed in BENCHMARK.json and
bench/README.md. With ``--trace 0`` a run starts several set-up-only
child processes and one measuring child, each a fresh interpreter
importing irslink from ``src/``, and reports

* ``throughput_ops_per_ref_s``: median over chunks of correct ops per
  second, each chunk's time rescaled by the calibration kernel timed
  right after it (``child.KERNELS``) to the speed of the reference box;
  the raw ``throughput_ops_per_s`` is printed too, outside the JSON
  result,
* ``setup_s``: median time from child start to its first op,
* ``peak_rss_mb``: the largest ``ru_maxrss`` among the children.

With ``--trace 1`` it runs a fixed number of chunks twice, untraced and
traced, and reports the per-layer metrics and the tracing overhead.
Every op is checked against bench/oracle.py; on position_sweep the first
chunk also runs again on two workers and must give the same CSV bytes.
The last line of standard output is the JSON result; the lines before
it print each metric with its unit, the error rate and the run's
provenance.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
# One BLAS thread in every process: idle OpenBLAS workers spin between the
# many small products of a trial, doubling CPU use and making timings on a
# small shared box vary by about 20%. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def spawn(job: dict) -> tuple[float, dict]:
    """Run one child to completion; (seconds from start to ready, job)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "child.py"),
                             json.dumps(job)], stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child {job['tag']} timed out")
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"child {job['tag']} exited with {proc.returncode}: "
                           f"{(line + rest).strip()[-500:]}")
    return ready, job


def load_output(job: dict) -> dict:
    with open(os.path.join(job["work_dir"], job["tag"] + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def provenance(args, wl, spec, inputs, counts) -> dict:
    import numpy as np

    def cmd(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    digest = hashlib.sha256()
    for top in ("src", "configs"):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for fname in sorted(files):
                if fname.endswith((".py", ".cfg")):
                    path = os.path.join(base, fname)
                    digest.update(path.encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    caches = {}
    for line in cmd(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    if spec is not None:
        size = {"N": spec.base_scenario.irs_elements, "M": spec.base_scenario.bs_antennas,
                "L": spec.levels, "values": len(spec.sweep_values),
                "schemes": [s.label for s in spec.schemes],
                "trials_per_chunk": spec.trials}
    else:
        from irslink.config import parse_config, parse_optimizer_settings

        side = inputs[0]["side"]
        with open(wl["config"], encoding="utf-8") as fh:
            text = fh.read()
        size = {"N": side * side, "M": parse_config(text).bs_antennas,
                "L": parse_optimizer_settings(text).levels, "schemes": list(wl["schemes"])}
    return {
        "git_sha": cmd(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), **caches,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "input_size": size, **counts,
    }


def chunk_rates(out: dict) -> list[float]:
    """Correct ops per reference second of each checked chunk.

    Each chunk's time is rescaled by the calibration kernel timed right
    after it, which follows the box's speed as other load comes and goes.
    """
    return [(c["attempted"] - c["failed"]) / c["elapsed"] * c["cal_scale"]
            for c in out["chunks"]]


def measure(args, work_dir: str, spec, inputs):
    """--trace 0: end-to-end metrics."""
    import workloads

    base = {"workload": args.workload, "work_dir": work_dir, "seed": args.seed,
            "seconds": 0, "max_chunks": 0, "setup_only": True, "trace": False,
            "toy": args.toy}
    setups = [spawn(dict(base, tag=f"probe{i}"))[0] for i in range(SETUP_PROBES)]
    ready, job = spawn(dict(base, tag="main", setup_only=False, seconds=args.seconds))
    setups.append(ready)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = load_output(job)
    attempted, failed, _ = workloads.check_outputs(args.workload, out["chunks"], spec,
                                                   inputs)
    correct_ops = attempted - failed
    metrics = {
        "throughput_ops_per_ref_s": (statistics.median(chunk_rates(out)), "ops/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    counts = {"chunks": len(out["chunks"]), "ops": attempted, "timed_s": out["timed_s"],
              "throughput_ops_per_s": correct_ops / out["timed_s"],
              "cal_scale_median": statistics.median(c["cal_scale"] for c in out["chunks"]),
              "setup_samples": len(setups)}
    return metrics, attempted, failed, counts


def traced(args, work_dir: str, spec, inputs):
    """--trace 1: per-layer metrics of a fixed-work run, plus its overhead."""
    import workloads
    from tracing import PER_LAYER

    chunks = workloads.fixed_chunks(args.workload, args.seconds)
    base = {"workload": args.workload, "work_dir": work_dir, "seed": args.seed,
            "seconds": 0, "max_chunks": chunks, "setup_only": False, "toy": args.toy}
    plain = load_output(spawn(dict(base, tag="untraced", trace=False))[1])
    traced_out = load_output(spawn(dict(base, tag="traced", trace=True))[1])
    attempted, failed, rerun_s = workloads.check_outputs(
        args.workload, plain["chunks"], spec, inputs)
    # The traced outputs must equal the untraced ones, which were checked.
    same = workloads.same_outputs(args.workload, plain["chunks"], traced_out["chunks"])
    for a, b in zip(plain["chunks"], traced_out["chunks"]):
        b["attempted"] = a["attempted"]
        b["failed"] = a["failed"] if same else a["attempted"]
    layer = dict(traced_out["per_layer"])
    layer["trace.ops"] = attempted
    layer["trace.overhead"] = (statistics.median(chunk_rates(plain))
                               / statistics.median(chunk_rates(traced_out)) - 1.0)
    layer["experiments.run_sweep.speedup_w2"] = (
        plain["chunks"][0]["elapsed"] / rerun_s if rerun_s else 0.0)
    metrics = {name: (layer[name], unit) for name, unit, _ in PER_LAYER}
    counts = {"chunks": chunks, "ops": attempted, "timed_s": plain["timed_s"],
              "traced_timed_s": traced_out["timed_s"]}
    return metrics, 2 * attempted, failed + (failed if same else attempted), counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="4x4 surface, 2 trials per chunk: checks the harness")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "irslink", "__init__.py")):
        return fail("no src/irslink here; run from the root of an irslink checkout")
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    wl = workloads.WORKLOADS[args.workload]
    if not os.path.isfile(wl["config"]):
        return fail(f"missing {wl['config']}")

    work_dir = os.path.join(os.getcwd(), ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        spec = inputs = None
        if workloads.is_sweep(args.workload):
            spec = workloads.sweep_spec(args.workload, args.toy)
        else:
            # A timed run stops on the clock, or when the inputs run out for
            # a program more than twice as fast as the nominal chunk time.
            chunks = workloads.fixed_chunks(args.workload, args.seconds)
            rounds = chunks if args.trace else 2 * chunks + 1
            inputs = workloads.make_large_inputs(args.seed, rounds, args.toy, work_dir)
        run = traced if args.trace else measure
        metrics, attempted, failed, counts = run(args, work_dir, spec, inputs)
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    if "throughput_ops_per_s" in counts:
        print(f"throughput_ops_per_s {counts['throughput_ops_per_s']!r} ops/s")
    print(f"error_rate {failed / attempted!r} ({failed} failed / {attempted} attempted)")
    print("provenance " + json.dumps(provenance(args, wl, spec, inputs, counts),
                                     sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
