"""Seeded trials, paired sweeps, aggregation and the convergence helper."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from irslink import (
    ChannelSet,
    GroupingSpec,
    PhaseConfig,
    Scenario,
    Scheme,
    SweepSpec,
    convergence_trace,
    optimize_grouped,
    optimize_position_based,
    rate,
    rician_channel,
    run_sweep,
    run_trial,
    successive_refinement,
    trial_seed,
)
from irslink.experiments import levels_for_value, scenario_for_value

SMALL = Scenario(irs_rows=4, irs_cols=4, bs_rows=2, bs_cols=1)


def test_trial_seed_properties():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    seeds = {trial_seed(7, t) for t in range(100)}
    assert len(seeds) == 100
    assert trial_seed(7, 0) != trial_seed(8, 0)
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_scheme_labels_and_parse():
    assert Scheme("no_irs").label == "no_irs"
    assert Scheme("grouped", 2, 4).label == "grouped_2x4"
    for label in ("no_irs", "full_csi", "position_based", "grouped_2x2"):
        assert Scheme.parse(label).label == label
    with pytest.raises(ValueError):
        Scheme("downlink")
    with pytest.raises(ValueError):
        Scheme("grouped")
    with pytest.raises(ValueError):
        Scheme("full_csi", 2, 2)
    with pytest.raises(ValueError):
        Scheme.parse("grouped_2x")
    with pytest.raises(ValueError):
        Scheme.parse("grouped_0x2")
    with pytest.raises(ValueError, match="unknown scheme label"):
        Scheme.parse("grouped")


def test_sweep_spec_validation():
    ok = SweepSpec(base_scenario=SMALL, swept_variable="tx_power",
                   sweep_values=(0.0, 10.0), schemes=(Scheme("no_irs"),),
                   trials=2, master_seed=0)
    assert ok.levels == 4
    with pytest.raises(ValueError):
        replace(ok, swept_variable="bandwidth")
    with pytest.raises(ValueError):
        replace(ok, sweep_values=())
    with pytest.raises(ValueError):
        replace(ok, schemes=())
    with pytest.raises(ValueError):
        replace(ok, trials=0)
    with pytest.raises(ValueError):
        replace(ok, master_seed=-1)
    with pytest.raises(ValueError):
        replace(ok, swept_variable="quantization_bits", sweep_values=(1.5,))
    with pytest.raises(ValueError):
        replace(ok, swept_variable="quantization_bits", sweep_values=(0.0,))
    for bad in (math.inf, math.nan, 17.0, 40.0, 1e300):
        with pytest.raises(ValueError):
            replace(ok, swept_variable="quantization_bits", sweep_values=(bad,))
    assert replace(ok, swept_variable="quantization_bits",
                   sweep_values=(16.0,)).sweep_values == (16.0,)


def test_scenario_for_value_vehicle_offset():
    spec = SweepSpec(base_scenario=SMALL, swept_variable="vehicle_offset_c_v",
                     sweep_values=(-3.0, 5.0), schemes=(Scheme("full_csi"),),
                     trials=1, master_seed=0)
    assert scenario_for_value(spec, -3.0).c_v == -3.0
    assert scenario_for_value(spec, 5.0).c_v == 5.0
    assert scenario_for_value(spec, 5.0).tx_power == SMALL.tx_power


def test_scenario_for_value_tx_power_dbm():
    spec = SweepSpec(base_scenario=SMALL, swept_variable="tx_power",
                     sweep_values=(0.0, 10.0, 30.0), schemes=(Scheme("no_irs"),),
                     trials=1, master_seed=0)
    assert scenario_for_value(spec, 0.0).tx_power == pytest.approx(1e-3)
    assert scenario_for_value(spec, 10.0).tx_power == pytest.approx(1e-2)
    assert scenario_for_value(spec, 30.0).tx_power == pytest.approx(1.0)


def test_levels_for_value_bits():
    spec = SweepSpec(base_scenario=SMALL, swept_variable="quantization_bits",
                     sweep_values=(1.0, 2.0, 3.0), schemes=(Scheme("full_csi"),),
                     trials=1, master_seed=0, levels=4)
    assert levels_for_value(spec, 1.0) == 2
    assert levels_for_value(spec, 2.0) == 4
    assert levels_for_value(spec, 3.0) == 8
    other = replace(spec, swept_variable="tx_power", levels=16)
    assert levels_for_value(other, 1.0) == 16


def test_run_trial_deterministic():
    seed = trial_seed(3, 0)
    a = run_trial(SMALL, Scheme("full_csi"), 4, 1e-6, seed)
    b = run_trial(SMALL, Scheme("full_csi"), 4, 1e-6, seed)
    assert a == b


def test_run_trial_matches_manual_pipeline():
    # all schemes must consume the identical seeded draw; pairing shows
    # in that the manual pipeline reproduces each scheme bit for bit
    seed = trial_seed(11, 4)
    channels = rician_channel(SMALL, np.random.default_rng(seed))
    p, n0 = SMALL.tx_power, SMALL.n0

    full = successive_refinement(channels, 4, p, n0)
    assert run_trial(SMALL, Scheme("full_csi"), 4, 1e-6, seed) == rate(
        channels, full.final_phases, p, n0)

    grouped = optimize_grouped(channels, (4, 4), GroupingSpec(2, 2), 4, p, n0)
    assert run_trial(SMALL, Scheme("grouped", 2, 2), 4, 1e-6, seed) == rate(
        channels, grouped.final_phases, p, n0)

    pos = optimize_position_based(SMALL, channels, 4, p, n0)
    assert run_trial(SMALL, Scheme("position_based"), 4, 1e-6, seed) == rate(
        channels, pos.final_phases, p, n0)

    bare = ChannelSet(h_r=channels.h_r, h_v=np.zeros_like(channels.h_v),
                      h_d=channels.h_d)
    zeros = PhaseConfig(indices=np.zeros(16, dtype=np.int64), levels=4)
    assert run_trial(SMALL, Scheme("no_irs"), 4, 1e-6, seed) == rate(
        bare, zeros, p, n0)


def test_no_irs_seed_invariant_with_deterministic_direct():
    # default beta_d is infinite, so the no-IRS rate has no randomness
    assert run_trial(SMALL, Scheme("no_irs"), 4, 1e-6, 1) == run_trial(
        SMALL, Scheme("no_irs"), 4, 1e-6, 2 ** 60)


def test_full_csi_beats_its_own_init():
    seed = trial_seed(5, 9)
    channels = rician_channel(SMALL, np.random.default_rng(seed))
    zeros = PhaseConfig(indices=np.zeros(16, dtype=np.int64), levels=4)
    at_init = rate(channels, zeros, SMALL.tx_power, SMALL.n0)
    assert run_trial(SMALL, Scheme("full_csi"), 4, 1e-6, seed) >= at_init


def test_run_trial_keep_trace():
    seed = trial_seed(0, 1)
    achieved, trace = run_trial(SMALL, Scheme("full_csi"), 4, 1e-6, seed,
                                keep_trace=True)
    assert achieved == trace[-1]
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    bare_rate, bare_trace = run_trial(SMALL, Scheme("no_irs"), 4, 1e-6, seed,
                                      keep_trace=True)
    assert bare_trace == (bare_rate,)


def test_run_sweep_row_layout_and_stats():
    spec = SweepSpec(base_scenario=SMALL, swept_variable="tx_power",
                     sweep_values=(0.0, 20.0),
                     schemes=(Scheme("no_irs"), Scheme("full_csi")),
                     trials=5, master_seed=42)
    result = run_sweep(spec, keep_trials=True)
    assert [(r.scheme, r.value) for r in result.rows] == [
        ("no_irs", 0.0), ("no_irs", 20.0),
        ("full_csi", 0.0), ("full_csi", 20.0)]
    # aggregate columns must match a manual recomputation
    seeds = [trial_seed(42, t) for t in range(5)]
    scn = replace(SMALL, tx_power=10.0 ** (20.0 / 10.0) / 1000.0)
    manual = np.array([run_trial(scn, Scheme("full_csi"), 4, 1e-6, s)
                       for s in seeds])
    row = result.rows[3]
    assert row.mean_rate_bps_hz == pytest.approx(float(manual.mean()), rel=1e-14)
    assert row.std_error == pytest.approx(
        float(manual.std(ddof=1) / math.sqrt(5)), rel=1e-12)
    assert row.trials == 5
    assert row.seed == 42
    assert np.array_equal(result.trial_rates[("full_csi", 20.0)], manual)


def test_run_sweep_single_trial_zero_error():
    spec = SweepSpec(base_scenario=SMALL, swept_variable="vehicle_offset_c_v",
                     sweep_values=(0.0,), schemes=(Scheme("full_csi"),),
                     trials=1, master_seed=3)
    result = run_sweep(spec)
    assert result.rows[0].std_error == 0.0
    assert result.rows[0].mean_rate_bps_hz == run_trial(
        SMALL, Scheme("full_csi"), 4, 1e-6, trial_seed(3, 0))


def test_run_sweep_worker_count_invariance():
    spec = SweepSpec(base_scenario=SMALL, swept_variable="tx_power",
                     sweep_values=(0.0, 10.0),
                     schemes=(Scheme("full_csi"), Scheme("grouped", 2, 2)),
                     trials=4, master_seed=11)
    serial = run_sweep(spec, workers=1)
    threaded = run_sweep(spec, workers=3)
    assert serial.to_table() == threaded.to_table()
    assert serial.rows == threaded.rows
    with pytest.raises(ValueError):
        run_sweep(spec, workers=0)


def test_run_sweep_table_format():
    spec = SweepSpec(base_scenario=SMALL, swept_variable="tx_power",
                     sweep_values=(0.0,), schemes=(Scheme("no_irs"),),
                     trials=2, master_seed=1)
    table = run_sweep(spec).to_table()
    lines = table.strip().split("\n")
    assert lines[0] == "scheme,value,mean_rate_bps_hz,std_error,trials,seed"
    fields = lines[1].split(",")
    assert fields[0] == "no_irs"
    assert fields[4] == "2"
    assert fields[5] == "1"
    float(fields[2])  # parses


def test_run_sweep_json_dump():
    spec = SweepSpec(base_scenario=SMALL, swept_variable="quantization_bits",
                     sweep_values=(1.0, 2.0), schemes=(Scheme("full_csi"),),
                     trials=3, master_seed=5)
    result = run_sweep(spec, keep_trials=True, keep_traces=True)
    payload = json.loads(result.to_json())
    assert len(payload["rows"]) == 2
    assert len(payload["trial_rates"]["full_csi,1"]) == 3
    # traces keyed by scheme, value and trial index
    assert "full_csi,1,0" in payload["traces"]
    trace = payload["traces"]["full_csi,2,1"]
    assert trace == sorted(trace)


def test_convergence_trace_shape():
    trace = convergence_trace(SMALL, 4, 1e-6, 123)
    assert len(trace) >= 2
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert abs(trace[-1] - trace[-2]) <= 1e-6
    assert trace == convergence_trace(SMALL, 4, 1e-6, 123)
