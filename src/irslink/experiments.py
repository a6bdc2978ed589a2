"""Seeded Monte Carlo experiments over the optimization schemes.

Per-trial generators derive from SeedSequence([master_seed, trial_index])
and deliberately exclude the scheme and the swept value. Every scheme
therefore sees the identical fading realization trial for trial (paired
comparison), and sweep points share draws (common random numbers), which
keeps curve shapes smooth at a given trial budget. Results reduce in a
fixed (scheme, value, trial) order, so output bytes do not depend on the
worker count.

A sweep runs in blocks of (value, trial) draws that the spec alone
fixes. Each draw is made once and shared by every scheme, and a block
hands each scheme's searches of one phase-set size to one batched
search (``optimizer.refine_batch``), which gives the phases, rates and
traces of the per-draw search; position_based, whose phases do not
depend on the fading, searches each distinct scenario once. ``run_trial``
scores its one draw through the same code as a block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .channel import ChannelSet, Scenario, los_channel_matrix, rician_channel
from .link import rate, rate_from_gain
from .optimizer import (BATCH_MIN_SEARCHES, DEFAULT_EPSILON,
                        DEFAULT_MAX_OUTER_ITERS, MAX_LEVELS, GroupingSpec,
                        RefinementReport, check_search_settings, grouped_cascade,
                        grouping_layout, optimize_grouped, optimize_position_based,
                        refine_batch, search_report, successive_refinement)

SWEEP_VARIABLES = ("vehicle_offset_c_v", "tx_power", "quantization_bits")
MAX_QUANTIZATION_BITS = MAX_LEVELS.bit_length() - 1

# A sweep block holds as many draws as fit this many bytes of stacked
# cascades Phi (16 M N bytes a draw): 12 draws of a 16x16 surface and an
# 8-antenna BS. A block's working set, the draws plus the search's copy
# of their Phi and its per-element state, is about 2.5 times that and is
# freed with the block. Larger blocks search faster per draw but hold
# more memory while they run.
BLOCK_BYTES = 384 << 10

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
            GroupingSpec(self.group_rows, self.group_cols)  # checks the block size
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
    """A Monte Carlo sweep of one variable over a set of schemes.

    Construction checks every cell, so a bad sweep fails before any
    trial; errors about one value or scheme start with the field name.
    """

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
        # Rows and dump keys print a value with %.12g: two values that print
        # alike would give indistinguishable rows and one merged dump entry.
        # Adding 0.0 folds -0 into 0, which the dump also keys as one value.
        printed = {}
        for val in self.sweep_values:
            key = "%.12g" % (val + 0.0)
            if key in printed:
                raise ValueError(f"sweep_values: {printed[key]!r} and {val!r} "
                                 f"both print as {key}")
            printed[key] = val
        labels = set()
        for scheme in self.schemes:
            if scheme.label in labels:
                raise ValueError(f"schemes: scheme {scheme.label!r} is listed twice")
            labels.add(scheme.label)
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
        check_search_settings(self.levels, self.epsilon, self.max_outer_iters)
        if self.swept_variable == "quantization_bits":
            for val in self.sweep_values:
                if not (math.isfinite(val) and val == int(val)
                        and 1 <= val <= MAX_QUANTIZATION_BITS):
                    raise ValueError(f"quantization_bits values must be integers "
                                     f"in [1, {MAX_QUANTIZATION_BITS}], got {val!r}")
        for val in self.sweep_values:
            try:
                scenario_for_value(self, val)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"sweep_values: {self.swept_variable} {val:g} is "
                                 f"out of range: {exc}") from None
        shape = (self.base_scenario.irs_rows, self.base_scenario.irs_cols)
        for scheme in self.schemes:
            if scheme.name == "grouped":
                try:
                    grouping_layout(shape, GroupingSpec(scheme.group_rows,
                                                        scheme.group_cols))
                except ValueError as exc:
                    raise ValueError(f"schemes: {exc}") from None


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    value: float
    mean_rate_bps_hz: float
    std_error: float
    trials: int
    seed: int


class SearchStats(NamedTuple):
    """How one phase search ended (see RefinementReport)."""

    iterations: int
    converged: bool
    accepted_moves: int


@dataclass(frozen=True)
class ExperimentResult:
    """Rows of a sweep; per-trial rates and traces when asked for.

    ``search_stats`` maps (scheme label, value, trial) to the SearchStats
    of every search the sweep ran (no_irs runs none); it is not written
    to the table or the JSON dump.
    """

    rows: tuple[ResultRow, ...]
    trial_rates: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)
    search_stats: dict = field(default_factory=dict)

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


def solve_block(scenarios, draws, scheme: Scheme, levels: int, epsilon: float,
                *, max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS,
                ) -> list[RefinementReport]:
    """``solve`` for many draws at once: the same reports, in order.

    From BATCH_MIN_SEARCHES draws on, one ``refine_batch`` call runs the
    searches: full_csi on each Phi, grouped on each group-summed Phi and
    position_based on the LOS estimate of each distinct scenario, which
    fixes the whole search, shared by that scenario's draws. Fewer draws
    are solved one by one through the scheme's public optimizer, whose
    search sweeps in Python as a batch of so few would.
    """
    if len(draws) < BATCH_MIN_SEARCHES:
        return [solve(scenario, channels, scheme, levels, epsilon,
                      max_outer_iters=max_outer_iters)
                for scenario, channels in zip(scenarios, draws)]
    group_of = None
    searched, problems = scenarios, draws
    if scheme.name == "full_csi":
        phis = (channels.cascade for channels in draws)
    elif scheme.name == "grouped":
        first = scenarios[0]
        group_of = grouping_layout((first.irs_rows, first.irs_cols),
                                   GroupingSpec(scheme.group_rows, scheme.group_cols))
        phis = (grouped_cascade(channels.cascade, group_of) for channels in draws)
    elif scheme.name == "position_based":
        searched = list(dict.fromkeys(scenarios))
        problems = [los_channel_matrix(scenario) for scenario in searched]
        phis = (estimate.cascade for estimate in problems)
    else:
        raise ValueError(f"scheme {scheme.name} has nothing to optimize")
    on_truth = scheme.name == "position_based"
    found = refine_batch(phis, [problem.h_d for problem in problems], levels,
                         [s.tx_power for s in searched], [s.n0 for s in searched],
                         epsilon, max_outer_iters, record_configs=on_truth)
    if not on_truth:
        return [search_report(one, levels, group_of=group_of) for one in found]
    found = dict(zip(searched, found))
    return [search_report(found[scenario], levels,
                          truth=(channels, scenario.tx_power, scenario.n0))
            for scenario, channels in zip(scenarios, draws)]


def _score(scenarios, draws, scheme: Scheme, levels: int, epsilon: float,
           max_outer_iters: int) -> list:
    """(rate, trace, SearchStats or None) of each draw under one scheme:
    no_irs rates the direct channel alone, every other scheme the phases
    ``solve_block`` found."""
    if scheme.name == "no_irs":
        rates = [rate_from_gain(float(np.vdot(channels.h_d, channels.h_d).real),
                                scenario.tx_power, scenario.n0)
                 for scenario, channels in zip(scenarios, draws)]
        return [(achieved, (achieved,), None) for achieved in rates]
    reports = solve_block(scenarios, draws, scheme, levels, epsilon,
                          max_outer_iters=max_outer_iters)
    return [(rate(channels, report.final_phases, scenario.tx_power, scenario.n0),
             report.rate_trace,
             SearchStats(report.iterations, report.converged, report.accepted_moves))
            for scenario, channels, report in zip(scenarios, draws, reports)]


def run_trial(scenario: Scenario, scheme: Scheme, levels: int, epsilon: float,
              seed: int, *, max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS,
              keep_trace: bool = False):
    """One seeded channel draw optimized and scored under one scheme.

    Returns the achieved rate in bit/s/Hz, or (rate, trace) when
    keep_trace is set. The channel draw happens before any scheme
    branching, so equal seeds mean equal fading across schemes.
    """
    channels = rician_channel(scenario, np.random.default_rng(seed))
    achieved, trace, _ = _score([scenario], [channels], scheme, levels, epsilon,
                                max_outer_iters)[0]
    return (achieved, trace) if keep_trace else achieved


def sweep_blocks(spec: SweepSpec) -> list[list[tuple[float, int]]]:
    """The sweep's (value, trial) draws, value-major, cut into the fewest
    blocks of at most BLOCK_BYTES worth of cascades, of near-equal size
    so that no block is left with a few draws to search one by one."""
    base = spec.base_scenario
    size = max(1, BLOCK_BYTES // (16 * base.bs_antennas * base.irs_elements))
    draws = [(value, t) for value in spec.sweep_values for t in range(spec.trials)]
    count = -(-len(draws) // size)
    return [draws[i * len(draws) // count:(i + 1) * len(draws) // count]
            for i in range(count)]


def _run_block(spec: SweepSpec, block, seeds) -> dict:
    """{(scheme label, value, trial): (rate, trace, SearchStats or None)}
    for every scheme on one block of draws, each drawn once."""
    cell_scenario = {value: scenario_for_value(spec, value)
                     for value in dict.fromkeys(value for value, _ in block)}
    scenarios = [cell_scenario[value] for value, _ in block]
    draws = [rician_channel(scenario, np.random.default_rng(seeds[t]))
             for scenario, (_, t) in zip(scenarios, block)]
    levels_of = [levels_for_value(spec, value) for value, _ in block]
    out = {}
    for scheme in spec.schemes:
        for levels in dict.fromkeys(levels_of):
            members = [i for i, lv in enumerate(levels_of) if lv == levels]
            scored = _score([scenarios[i] for i in members],
                            [draws[i] for i in members], scheme, levels,
                            spec.epsilon, spec.max_outer_iters)
            for i, one in zip(members, scored):
                value, t = block[i]
                out[(scheme.label, value, t)] = one
    return out


def run_sweep(spec: SweepSpec, *, workers: int = 1, keep_trials: bool = False,
              keep_traces: bool = False) -> ExperimentResult:
    """Run trials for every (scheme, value) cell of the sweep.

    Blocks of draws (``sweep_blocks``) are independent and may run on a
    thread pool; rates are written into per-cell arrays by trial index,
    so the assembled result is byte-identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    seeds = [trial_seed(spec.master_seed, t) for t in range(spec.trials)]
    blocks = sweep_blocks(spec)
    if workers == 1:
        outcomes = [_run_block(spec, block, seeds) for block in blocks]
    else:
        # imported here: the pool and its logging machinery cost about
        # 0.5 MB of memory that a one-worker sweep has no use for
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda block: _run_block(spec, block, seeds),
                                     blocks))

    rates = {(scheme.label, value): np.empty(spec.trials)
             for scheme in spec.schemes for value in spec.sweep_values}
    traces, search_stats = {}, {}
    for outcome in outcomes:
        for key, (achieved, trace, stats) in outcome.items():
            rates[key[:2]][key[2]] = achieved
            if keep_traces:
                traces[key] = tuple(trace)
            if stats is not None:
                search_stats[key] = stats

    rows = []
    trial_rates = {}
    for scheme in spec.schemes:
        for value in spec.sweep_values:
            arr = rates[(scheme.label, value)]
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
                            traces=traces, search_stats=search_stats)


def convergence_trace(scenario: Scenario, levels: int, epsilon: float,
                      seed: int, *, max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS,
                      ) -> tuple[float, ...]:
    """Rate trace of one seeded full-CSI refinement from zero phases."""
    return run_trial(scenario, Scheme("full_csi"), levels, epsilon, seed,
                     max_outer_iters=max_outer_iters, keep_trace=True)[1]
