"""Workloads of the irslink benchmark: inputs, chunks of ops and their checks.

An op is one (scheme, value, trial) cell of a sweep, or one
``irslink optimize`` call in large_surface. Ops run in chunks: one
``run_sweep`` call over ``trials`` trials for a sweep, whose master seed
is derived from the workload seed and the chunk index so no chunk
repeats another's draws; one round of optimize calls, one per scheme,
for large_surface. All three workloads are closed-loop, one client,
sequential.

Each workload's rationale sits in BENCHMARK.json; README.md in this
directory holds the metric-to-layer table.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import numpy as np

import oracle

# nominal_chunk_s is the chunk cost measured when the benchmark was
# defined. It only sizes fixed-work runs (the traced run, large_surface
# inputs); timed runs stop on the clock. ``calibrate`` names the kernel in
# child.KERNELS that rescales chunk times: the sweeps are interpreter-bound,
# large_surface is bound by N x N array traffic, which the cpu kernel does
# not follow (rescaling by it left a 0.13 spread over ten seeds).
WORKLOADS = {
    "power_sweep": {
        "config": "configs/sweep_power.cfg", "trials": 4,
        "nominal_chunk_s": 1.8, "calibrate": "cpu",
    },
    "position_sweep": {
        "config": "configs/sweep_position.cfg", "trials": 2, "check_workers": 2,
        "nominal_chunk_s": 1.1, "calibrate": "cpu",
    },
    "large_surface": {
        "config": "configs/v2i_baseline.cfg", "side": 64,
        "schemes": ("full_csi", "grouped_4x4", "position_based"),
        "nominal_chunk_s": 3.5, "calibrate": "memory",
    },
}
TOY_SIDE = 4
TOY_TRIALS = 2
C_V_RANGE = (-15.0, 15.0)


def is_sweep(name: str) -> bool:
    return "schemes" not in WORKLOADS[name]


def chunk_seed(seed: int, chunk: int) -> int:
    return seed * 1000 + chunk


def fixed_chunks(name: str, seconds: float) -> int:
    """Chunk count of a fixed-work run sized to about ``seconds``."""
    return max(1, round(seconds / WORKLOADS[name]["nominal_chunk_s"]))


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def sweep_overrides(name: str, toy: bool) -> tuple[str, ...]:
    trials = TOY_TRIALS if toy else WORKLOADS[name]["trials"]
    extra = (f"scenario.irs_rows={TOY_SIDE}", f"scenario.irs_cols={TOY_SIDE}") if toy else ()
    return (f"sweep.trials={trials}",) + extra


def large_overrides(side: int, c_v: str) -> tuple[str, ...]:
    return (f"scenario.irs_rows={side}", f"scenario.irs_cols={side}",
            f"scenario.c_v={c_v}")


def make_large_inputs(seed: int, rounds: int, toy: bool, work_dir: str) -> list:
    """Draw one channel file per op before timing starts, each with its own c_v.

    Returns [{"path", "c_v", "scheme", "side"}] in op order; written to
    ``inputs.json`` in ``work_dir`` for the child process.
    """
    from irslink.channel import rician_channel
    from irslink.channel_io import save_channels
    from irslink.config import parse_config

    wl = WORKLOADS["large_surface"]
    side = TOY_SIDE if toy else wl["side"]
    text = read_text(wl["config"])
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(rounds * len(wl["schemes"])):
        c_v = repr(round(float(rng.uniform(*C_V_RANGE)), 3))
        scenario = parse_config(text, large_overrides(side, c_v))
        channels = rician_channel(scenario, np.random.default_rng(
            int(rng.integers(2 ** 63))))
        path = os.path.join(work_dir, f"channels-{i}.txt")
        save_channels(channels, path)
        ops.append({"path": path, "c_v": c_v,
                    "scheme": wl["schemes"][i % len(wl["schemes"])],
                    "side": side})
    with open(os.path.join(work_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    return ops


def optimize_argv(op: dict) -> list[str]:
    argv = ["optimize", "--config", WORKLOADS["large_surface"]["config"]]
    for item in large_overrides(op["side"], op["c_v"]):
        argv += ["--set", item]
    return argv + ["--channels", op["path"], "--scheme", op["scheme"]]


def sweep_spec(name: str, toy: bool):
    from irslink.config import parse_config
    return parse_config(read_text(WORKLOADS[name]["config"]),
                        sweep_overrides(name, toy))


def chunk_ops(name: str, chunk_out: dict, spec=None) -> int:
    if is_sweep(name):
        return len(spec.schemes) * len(spec.sweep_values) * spec.trials
    return len(chunk_out["ops"])


def rates_key(label: str, value: float) -> str:
    return f"{label},{value!r}"


# -- checks -------------------------------------------------------------------


def check_sweep_chunk(name: str, spec, out: dict, rerun: bool) -> tuple[set, float]:
    """Failed op ids of one sweep chunk, and seconds of its check_workers rerun.

    Rates are checked against the oracle. With ``rerun`` on a workload
    that names ``check_workers``, the chunk runs again on that many
    workers and the CSV bytes must equal the timed workers=1 CSV; each
    differing row fails its trials.
    """
    from irslink.experiments import run_sweep

    seed = out["master_seed"]
    ops = [(s.label, float(v), t) for s in spec.schemes
           for v in spec.sweep_values for t in range(spec.trials)]
    if out.get("error"):
        return {(seed,) + op for op in ops}, 0.0
    failed = set()
    reference = oracle.sweep_rates(spec, seed)
    for label, value, t in ops:
        got = out["rates"].get(rates_key(label, value))
        if got is None or not oracle.rate_matches(got[t], reference[(label, value)][t]):
            failed.add((seed, label, value, t))
    rerun_s = 0.0
    workers = WORKLOADS[name].get("check_workers")
    if rerun and workers:
        start = time.perf_counter()
        rerun = run_sweep(dataclasses.replace(spec, master_seed=seed), workers=workers,
                          keep_trials=True)
        rerun_s = time.perf_counter() - start
        got = rerun.to_table().splitlines()
        want = out["csv"].splitlines()
        for row, line in enumerate(want[1:], start=1):
            if row >= len(got) or got[row] != line:
                label, value = line.split(",")[:2]
                failed |= {(seed, label, float(value), t) for t in range(spec.trials)}
    return failed, rerun_s


def parse_optimize_output(text: str) -> tuple[float, np.ndarray]:
    fields = dict(line.split(" ", 1) for line in text.splitlines() if " " in line)
    phases = np.array([int(k) for k in fields["phases"].split()], dtype=np.int64)
    return float(fields["rate_bps_hz"]), phases


def large_op_inputs(op: dict):
    """(scenario, optimizer settings, channels) that one optimize call sees."""
    from irslink.channel_io import load_channels
    from irslink.config import parse_config, parse_optimizer_settings

    text = read_text(WORKLOADS["large_surface"]["config"])
    overrides = large_overrides(op["side"], op["c_v"])
    return (parse_config(text, overrides), parse_optimizer_settings(text, overrides),
            load_channels(op["path"]))


def check_large_op(op: dict, result: dict) -> bool:
    """True when one optimize call matches the oracle and its own rate."""
    from irslink.link import PhaseConfig, rate

    if result.get("error") or result.get("rc") != 0:
        return False
    try:
        printed_rate, phases = parse_optimize_output(result["stdout"])
    except (KeyError, ValueError):
        return False
    scenario, settings, channels = large_op_inputs(op)
    if phases.shape != (channels.num_irs_elements,) or not (
            0 <= phases.min() and phases.max() < settings.levels):
        return False
    want_idx, want_rate = oracle.solve(scenario, channels, op["scheme"],
                                       settings.levels, settings.epsilon,
                                       settings.max_outer_iters)
    recomputed = rate(channels, PhaseConfig(indices=phases, levels=settings.levels),
                      scenario.tx_power, scenario.n0)
    return (np.array_equal(phases, want_idx)
            and oracle.rate_matches(printed_rate, want_rate)
            and oracle.rate_matches(printed_rate, recomputed))


def check_outputs(name: str, outs: list, spec=None, inputs=None) -> tuple[int, int, float]:
    """(attempted, failed, check_workers rerun seconds) over a child's chunks.

    Only the first chunk is rerun on ``check_workers``, which keeps a
    run's checking time well below its measuring time. Also stores each
    chunk's own ``attempted`` and ``failed`` counts on it.
    """
    rerun_s = 0.0
    for i, out in enumerate(outs):
        out["attempted"] = chunk_ops(name, out, spec)
        if is_sweep(name):
            bad, secs = check_sweep_chunk(name, spec, out, rerun=i == 0)
            out["failed"] = len(bad)
            rerun_s += secs
        else:
            out["failed"] = sum(not check_large_op(inputs[r["op"]], r)
                                for r in out["ops"])
    return (sum(out["attempted"] for out in outs), sum(out["failed"] for out in outs),
            rerun_s)


def same_outputs(name: str, a: list, b: list) -> bool:
    """Two children ran the same chunks and printed the same results."""
    if is_sweep(name):
        key = lambda out: (out["master_seed"], out["csv"], out["rates"], out.get("error"))
    else:
        key = lambda out: [(r["op"], r["rc"], r["stdout"], r.get("error"))
                           for r in out["ops"]]
    return [key(o) for o in a] == [key(o) for o in b]
