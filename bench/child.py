"""One fresh process of the benchmark: set up irslink, run chunks of ops.

run.py starts it from the checkout root with one JSON argument:

    {"workload", "work_dir", "tag", "seed", "seconds", "max_chunks",
     "setup_only", "trace", "toy"}

It imports irslink from ``src/``, reads the workload's config and prints
``ready`` once the first op can run; run.py takes that moment as the end
of set-up. Unless ``setup_only`` is set it then runs chunks until
``seconds`` of op time have passed or ``max_chunks`` chunks are done,
times a fixed calibration kernel after each chunk, and writes
``<work_dir>/<tag>.json`` with every chunk's outputs and times, plus the
per-layer metrics when ``trace`` is set.
"""

import json
import os
import sys

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import irslink  # noqa: E402
from irslink import cli, experiments  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


# Calibration kernels, timed after every chunk so that run.py can rescale
# each chunk's time by the box's speed at that moment. A workload names the
# kernel whose work resembles its own (WORKLOADS[...]["calibrate"]).
# ref_s is the kernel's median time on the 2-core Xeon box where the
# benchmark was defined, and a chunk's scale is (median(samples) / ref_s)
# ** exponent. The exponent is the log-log slope of raw throughput against
# the kernel's time over twenty power_sweep and ten large_surface runs:
# the sweeps sped up and slowed down half as much as the cpu kernel did
# (slope 0.50), large_surface about as much as the memory kernel (1.29).
_CPU_V = np.exp(1j * np.arange(8.0))
_CPU_M = np.exp(1j * np.arange(8.0 * 256).reshape(8, 256))
_MEM_X = np.exp(1j * np.arange(8.0 * 2048).reshape(8, 2048))


def cpu_kernel() -> None:
    """Interpreter, small-array and small-matrix work, like a 16x16 trial."""
    acc = 0.0
    for _ in range(4000):
        z = complex(np.vdot(_CPU_V, _CPU_V))
        acc += math.atan2(z.imag, z.real)
    _CPU_M.conj().T @ _CPU_M


def memory_kernel() -> None:
    """A 2048 x 2048 Gram product and symmetrization: large-array traffic."""
    a = _MEM_X.conj().T @ _MEM_X
    0.5 * (a + a.conj().T)


# name: (kernel, samples per chunk, ref_s, exponent)
KERNELS = {"cpu": (cpu_kernel, 5, 0.010, 0.5), "memory": (memory_kernel, 3, 0.19, 1.0)}


def calibrate(kind: str) -> dict:
    kernel, samples, ref_s, exponent = KERNELS[kind]
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return {"cal_s": times, "cal_scale": (statistics.median(times) / ref_s) ** exponent}


def run_sweep_chunk(spec, seed: int, chunk: int) -> dict:
    master = workloads.chunk_seed(seed, chunk)
    out = {"master_seed": master, "csv": "", "rates": {}, "error": None}
    start = time.perf_counter()
    try:
        result = experiments.run_sweep(dataclasses.replace(spec, master_seed=master),
                                       keep_trials=True)
    except Exception as exc:  # an op that raises is counted as failed
        out["error"] = repr(exc)
        result = None
    out["elapsed"] = time.perf_counter() - start
    if result is not None:
        out["csv"] = result.to_table()
        out["rates"] = {workloads.rates_key(label, value): arr.tolist()
                        for (label, value), arr in result.trial_rates.items()}
    return out


def run_optimize(index: int, op: dict) -> dict:
    buf = io.StringIO()
    rec = {"op": index, "rc": None, "error": None}
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rec["rc"] = cli.main(workloads.optimize_argv(op))
    except SystemExit as exc:
        rec["rc"] = exc.code
    except Exception as exc:  # an op that raises is counted as failed
        rec["error"] = repr(exc)
    rec["elapsed"] = time.perf_counter() - start
    rec["stdout"] = buf.getvalue()
    return rec


def main(job: dict) -> int:
    if not os.path.abspath(irslink.__file__).startswith(SRC + os.sep):
        print(f"irslink imported from {irslink.__file__}, not {SRC}", file=sys.stderr)
        return 2
    name = job["workload"]
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if workloads.is_sweep(name):
        spec = workloads.sweep_spec(name, job["toy"])
        run_chunk = lambda c: run_sweep_chunk(spec, job["seed"], c)
        max_chunks = job["max_chunks"]
    else:
        with open(os.path.join(job["work_dir"], "inputs.json"), encoding="utf-8") as fh:
            ops = json.load(fh)
        per_round = len(workloads.WORKLOADS[name]["schemes"])

        def run_chunk(c):
            recs = [run_optimize(i, ops[i])
                    for i in range(c * per_round, (c + 1) * per_round)]
            return {"ops": recs, "elapsed": sum(r["elapsed"] for r in recs)}
        max_chunks = min(job["max_chunks"] or len(ops) // per_round,
                         len(ops) // per_round)
    print("ready", flush=True)
    if job["setup_only"]:
        return 0

    outs, timed = [], 0.0
    while not max_chunks or len(outs) < max_chunks:
        outs.append(run_chunk(len(outs)))
        outs[-1].update(calibrate(workloads.WORKLOADS[name]["calibrate"]))
        timed += outs[-1]["elapsed"]
        if job["seconds"] and timed >= job["seconds"]:
            break
    result = {"chunks": outs, "timed_s": timed}
    if tracer is not None:
        result["per_layer"] = tracing.per_layer(tracer.spans)
    with open(os.path.join(job["work_dir"], job["tag"] + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
