"""Seeded Monte Carlo experiments over the optimization schemes.

Per-trial generators derive from SeedSequence([master_seed, trial_index])
and deliberately exclude the scheme and the swept value. Every scheme
therefore sees the identical fading realization trial for trial (paired
comparison), and sweep points share draws (common random numbers), which
keeps curve shapes smooth at a given trial budget. Results reduce in a
fixed (scheme, value, trial) order, so output bytes do not depend on the
worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelSet, Scenario, rician_channel
from .link import rate, rate_from_gain
from .optimizer import (DEFAULT_EPSILON, DEFAULT_MAX_OUTER_ITERS, MAX_LEVELS,
                        GroupingSpec, RefinementReport, optimize_grouped,
                        optimize_position_based, successive_refinement)

SWEEP_VARIABLES = ("vehicle_offset_c_v", "tx_power", "quantization_bits")
MAX_QUANTIZATION_BITS = MAX_LEVELS.bit_length() - 1

SCHEME_NAMES = ("no_irs", "full_csi", "grouped", "position_based")


@dataclass(frozen=True)
class Scheme:
    """One beamforming scheme; grouped carries its block dimensions."""

    name: str
    group_rows: int | None = None
    group_cols: int | None = None

    def __post_init__(self) -> None:
        if self.name not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.name!r}")
        if self.name == "grouped":
            if not (self.group_rows and self.group_cols):
                raise ValueError("grouped scheme needs group_rows and group_cols")
        elif self.group_rows is not None or self.group_cols is not None:
            raise ValueError(f"scheme {self.name!r} takes no group dimensions")

    @property
    def label(self) -> str:
        if self.name == "grouped":
            return f"grouped_{self.group_rows}x{self.group_cols}"
        return self.name

    @classmethod
    def parse(cls, label: str) -> "Scheme":
        text = label.strip()
        if text.startswith("grouped_"):
            dims = text[len("grouped_"):]
            parts = dims.split("x")
            if len(parts) == 2 and all(p.isdigit() and int(p) > 0 for p in parts):
                return cls("grouped", int(parts[0]), int(parts[1]))
            raise ValueError(f"bad grouped scheme label {label!r}, "
                             f"expected grouped_RxC")
        if text != "grouped" and text in SCHEME_NAMES:
            return cls(text)
        raise ValueError(f"unknown scheme label {label!r}")


@dataclass(frozen=True)
class SweepSpec:
    """A Monte Carlo sweep of one variable over a set of schemes."""

    base_scenario: Scenario
    swept_variable: str
    sweep_values: tuple[float, ...]
    schemes: tuple[Scheme, ...]
    trials: int
    master_seed: int
    levels: int = 4
    epsilon: float = DEFAULT_EPSILON
    max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS

    def __post_init__(self) -> None:
        if self.swept_variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"swept_variable must be one of {SWEEP_VARIABLES}, "
                f"got {self.swept_variable!r}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        if not self.schemes:
            raise ValueError("schemes must be non-empty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed!r}")
        if self.swept_variable == "quantization_bits":
            for val in self.sweep_values:
                if not (math.isfinite(val) and val == int(val)
                        and 1 <= val <= MAX_QUANTIZATION_BITS):
                    raise ValueError(f"quantization_bits values must be integers "
                                     f"in [1, {MAX_QUANTIZATION_BITS}], got {val!r}")


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    value: float
    mean_rate_bps_hz: float
    std_error: float
    trials: int
    seed: int


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ResultRow, ...]
    trial_rates: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)

    def to_table(self) -> str:
        lines = ["scheme,value,mean_rate_bps_hz,std_error,trials,seed"]
        for row in self.rows:
            lines.append("%s,%.12g,%.12g,%.12g,%d,%d" % (
                row.scheme, row.value, row.mean_rate_bps_hz, row.std_error,
                row.trials, row.seed))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "rows": [{
                "scheme": r.scheme, "value": r.value,
                "mean_rate_bps_hz": r.mean_rate_bps_hz,
                "std_error": r.std_error, "trials": r.trials, "seed": r.seed,
            } for r in self.rows],
            "trial_rates": {f"{s},{v:.12g}": list(map(float, arr))
                            for (s, v), arr in self.trial_rates.items()},
            "traces": {f"{s},{v:.12g},{t}": list(map(float, tr))
                       for (s, v, t), tr in self.traces.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Stable 64-bit per-trial seed; scheme- and value-independent."""
    seq = np.random.SeedSequence([int(master_seed), int(trial_index)])
    return int(seq.generate_state(1, np.uint64)[0])


def scenario_for_value(spec: SweepSpec, value: float) -> Scenario:
    if spec.swept_variable == "vehicle_offset_c_v":
        return replace(spec.base_scenario, c_v=float(value))
    if spec.swept_variable == "tx_power":
        return replace(spec.base_scenario,
                       tx_power=10.0 ** (float(value) / 10.0) / 1000.0)
    return spec.base_scenario


def levels_for_value(spec: SweepSpec, value: float) -> int:
    if spec.swept_variable == "quantization_bits":
        return 2 ** int(value)
    return spec.levels


def solve(scenario: Scenario, channels: ChannelSet, scheme: Scheme, levels: int,
          epsilon: float, *, max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS,
          ) -> RefinementReport:
    """Optimize the phases of one channel draw under one scheme.

    The only place that maps a scheme to its optimizer. ``no_irs`` has
    no phases and is rejected.
    """
    tx_power, noise = scenario.tx_power, scenario.n0
    if scheme.name == "full_csi":
        return successive_refinement(channels, levels, tx_power, noise,
                                     epsilon=epsilon,
                                     max_outer_iters=max_outer_iters)
    if scheme.name == "grouped":
        return optimize_grouped(channels, (scenario.irs_rows, scenario.irs_cols),
                                GroupingSpec(scheme.group_rows, scheme.group_cols),
                                levels, tx_power, noise, epsilon=epsilon,
                                max_outer_iters=max_outer_iters)
    if scheme.name == "position_based":
        return optimize_position_based(scenario, channels, levels, tx_power,
                                       noise, epsilon=epsilon,
                                       max_outer_iters=max_outer_iters)
    raise ValueError(f"scheme {scheme.name} has nothing to optimize")


def run_trial(scenario: Scenario, scheme: Scheme, levels: int, epsilon: float,
              seed: int, *, max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS,
              keep_trace: bool = False):
    """One seeded channel draw optimized and scored under one scheme.

    Returns the achieved rate in bit/s/Hz, or (rate, trace) when
    keep_trace is set. The channel draw happens before any scheme
    branching, so equal seeds mean equal fading across schemes.
    """
    rng = np.random.default_rng(seed)
    channels = rician_channel(scenario, rng)
    if scheme.name == "no_irs":
        gain = float(np.vdot(channels.h_d, channels.h_d).real)
        achieved = rate_from_gain(gain, scenario.tx_power, scenario.n0)
        trace = (achieved,)
    else:
        report = solve(scenario, channels, scheme, levels, epsilon,
                       max_outer_iters=max_outer_iters)
        achieved = rate(channels, report.final_phases, scenario.tx_power,
                        scenario.n0)
        trace = report.rate_trace
    return (achieved, trace) if keep_trace else achieved


def run_sweep(spec: SweepSpec, *, workers: int = 1, keep_trials: bool = False,
              keep_traces: bool = False) -> ExperimentResult:
    """Run trials for every (scheme, value) cell of the sweep.

    Trials are independent and may run on a thread pool; rates are
    written into per-cell arrays by trial index, so the assembled result
    is byte-identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    seeds = [trial_seed(spec.master_seed, t) for t in range(spec.trials)]
    cells = [(scheme, value) for scheme in spec.schemes
             for value in spec.sweep_values]

    rates = {cell: np.empty(spec.trials) for cell in cells}
    traces = {}

    def one(cell, t):
        scheme, value = cell
        scenario = scenario_for_value(spec, value)
        levels = levels_for_value(spec, value)
        return run_trial(scenario, scheme, levels, spec.epsilon, seeds[t],
                         max_outer_iters=spec.max_outer_iters,
                         keep_trace=keep_traces)

    tasks = [(cell, t) for cell in cells for t in range(spec.trials)]
    if workers == 1:
        outcomes = [one(cell, t) for cell, t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda args: one(*args), tasks))

    for (cell, t), outcome in zip(tasks, outcomes):
        if keep_traces:
            achieved, tr = outcome
            traces[(cell[0].label, cell[1], t)] = tuple(tr)
        else:
            achieved = outcome
        rates[cell][t] = achieved

    rows = []
    trial_rates = {}
    for cell in cells:
        scheme, value = cell
        arr = rates[cell]
        mean = float(np.mean(arr))
        if spec.trials > 1:
            err = float(np.std(arr, ddof=1) / math.sqrt(spec.trials))
        else:
            err = 0.0
        rows.append(ResultRow(scheme=scheme.label, value=float(value),
                              mean_rate_bps_hz=mean, std_error=err,
                              trials=spec.trials, seed=spec.master_seed))
        if keep_trials:
            trial_rates[(scheme.label, float(value))] = arr.copy()

    return ExperimentResult(rows=tuple(rows), trial_rates=trial_rates,
                            traces=traces)


def convergence_trace(scenario: Scenario, levels: int, epsilon: float,
                      seed: int, *, max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS,
                      ) -> tuple[float, ...]:
    """Rate trace of one seeded full-CSI refinement from zero phases."""
    return run_trial(scenario, Scheme("full_csi"), levels, epsilon, seed,
                     max_outer_iters=max_outer_iters, keep_trace=True)[1]
