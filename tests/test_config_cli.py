"""Config parsing diagnostics and the command-line front end."""

import json
import math
import os

import numpy as np
import pytest

from irslink import (
    ConfigError,
    Scenario,
    Scheme,
    SweepSpec,
    load_channels,
    parse_config,
    rate,
    rician_channel,
    save_channels,
    solve,
    successive_refinement,
)
from irslink.cli import main
from irslink.config import parse_optimizer_settings

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

TINY_SCENARIO = """\
[scenario]
irs_rows = 4
irs_cols = 4
bs_rows = 2
bs_cols = 1

[optimizer]
levels = 4
epsilon = 1e-6
seed = 5
"""


def test_empty_config_gives_defaults():
    scn = parse_config("")
    assert scn == Scenario()


def test_minimal_scenario_fills_defaults():
    scn = parse_config("[scenario]\nirs_rows = 8\nirs_cols = 8\n")
    assert scn.irs_rows == 8
    assert scn.bs_rows == 4
    assert scn.f_c == 24.2e9


def test_scenario_accepts_inf_beta():
    scn = parse_config("[scenario]\nbeta_v = inf\n")
    assert math.isinf(scn.beta_v)


def test_unknown_key_reports_line():
    text = "[scenario]\nirs_rows = 4\nantenna_gain = 3\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(text)


def test_unknown_section_reports_line():
    with pytest.raises(ConfigError, match=r"\[plotting\]"):
        parse_config("[scenario]\nirs_rows = 4\n\n[plotting]\nstyle = x\n")


def test_type_mismatch_reports_key_and_line():
    with pytest.raises(ConfigError, match="irs_rows.*line 2.*expected int"):
        parse_config("[scenario]\nirs_rows = sixteen\n")


def test_domain_error_wrapped_with_location():
    with pytest.raises(ConfigError, match="f_c.*line 2"):
        parse_config("[scenario]\nf_c = -1\n")


def test_optimizer_settings_defaults_and_parse():
    settings = parse_optimizer_settings("")
    assert settings.levels == 4
    assert settings.epsilon == 1e-6
    assert settings.max_outer_iters == 100
    settings = parse_optimizer_settings(
        "[optimizer]\nlevels = 8\nepsilon = 1e-8\nmax_outer_iters = 50\nseed = 9\n")
    assert settings.levels == 8
    assert settings.epsilon == 1e-8
    assert settings.seed == 9
    with pytest.raises(ConfigError, match=r"\[optimizer\] levels \(line 2\)"):
        parse_optimizer_settings("[optimizer]\nlevels = 0\n")
    # the phase set is capped at 16 bits; the check allocates nothing
    assert parse_optimizer_settings("[optimizer]\nlevels = 65536\n").levels == 65536
    with pytest.raises(ConfigError, match=r"\[optimizer\] levels \(line 2\): "
                                          r"levels must be in \[1, 65536\]"):
        parse_optimizer_settings("[optimizer]\nlevels = 65537\n")
    with pytest.raises(ConfigError, match=r"\[optimizer\] levels \(--set override\)"):
        parse_optimizer_settings("", ("optimizer.levels=1099511627776",))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_optimizer_settings("[optimizer]\nstep_size = 0.1\n")


def test_sweep_parse_complete():
    text = TINY_SCENARIO + """
[sweep]
variable = tx_power
values = 0:30:2
schemes = no_irs, full_csi, grouped_2x2
trials = 7
master_seed = 99
"""
    spec = parse_config(text)
    assert isinstance(spec, SweepSpec)
    assert spec.sweep_values == tuple(float(v) for v in range(0, 31, 2))
    assert len(spec.sweep_values) == 16
    assert [s.label for s in spec.schemes] == ["no_irs", "full_csi",
                                               "grouped_2x2"]
    assert spec.trials == 7
    assert spec.master_seed == 99
    assert spec.levels == 4
    assert spec.epsilon == 1e-6
    assert spec.base_scenario.irs_rows == 4


def test_sweep_values_comma_list_and_negative_range():
    base = TINY_SCENARIO + "[sweep]\nvariable = %s\nvalues = %s\nschemes = full_csi\n"
    spec = parse_config(base % ("quantization_bits", "1, 2, 4"))
    assert spec.sweep_values == (1.0, 2.0, 4.0)
    spec = parse_config(base % ("vehicle_offset_c_v", "-20:20:10"))
    assert spec.sweep_values == (-20.0, -10.0, 0.0, 10.0, 20.0)


def test_sweep_range_point_cap_boundary():
    base = TINY_SCENARIO + ("[sweep]\nvariable = vehicle_offset_c_v\nvalues = %s\n"
                            "schemes = no_irs\n")
    assert len(parse_config(base % "0:99999:1").sweep_values) == 100000
    with pytest.raises(ConfigError, match="range has more than 100000 points"):
        parse_config(base % "0:100000:1")


def test_sweep_trials_default():
    text = TINY_SCENARIO + ("[sweep]\nvariable = tx_power\nvalues = 0, 10\n"
                            "schemes = no_irs\n")
    assert parse_config(text).trials == 500


def test_sweep_missing_required_key():
    text = TINY_SCENARIO + "[sweep]\nvariable = tx_power\nschemes = no_irs\n"
    with pytest.raises(ConfigError, match="missing required key 'values'"):
        parse_config(text)


def test_sweep_bad_range_spec():
    base = TINY_SCENARIO + "[sweep]\nvariable = %s\nvalues = %s\nschemes = no_irs\n"
    for variable, values, match in (
            ("tx_power", "0:30", "start:stop:step"),
            ("tx_power", "0:30:-2", "step > 0"),
            ("tx_power", "a, b", "comma list"),
            ("tx_power", "0:inf:1", r"values \(line 13\): range bounds must be finite"),
            ("tx_power", "0, 4000", r"values \(line 13\): tx_power 4000 is out of range"),
            ("tx_power", "-5000", r"tx_power -5000 is out of range: tx_power must be positive"),
            ("vehicle_offset_c_v", "0, inf", r"c_v must be finite"),
            ("quantization_bits", "2, inf", r"\(line 11\): quantization_bits values must be"),
            ("quantization_bits", "17", r"\(line 11\): quantization_bits values must be "
                                        r"integers in \[1, 16\]"),
            ("quantization_bits", "40", r"\(line 11\): quantization_bits values must be"),
            ("quantization_bits", "1e300", r"\(line 11\): quantization_bits values must be"),
            ("tx_power", "0:1e9:1", r"values \(line 13\): range has more than 100000 points"),
            ("tx_power", "0:1e300:1e-300", r"values \(line 13\): range has more than"),
            ("vehicle_offset_c_v", "-1e308:1e308:1", r"values \(line 13\): range has more")):
        with pytest.raises(ConfigError, match=match):
            parse_config(base % (variable, values))


def test_sweep_bad_scheme_label():
    text = TINY_SCENARIO + ("[sweep]\nvariable = tx_power\nvalues = 0\n"
                            "schemes = mystery\n")
    with pytest.raises(ConfigError, match="unknown scheme label"):
        parse_config(text)


def test_grouping_must_divide_panel():
    text = """\
[scenario]
irs_rows = 16
irs_cols = 16

[sweep]
variable = tx_power
values = 0
schemes = grouped_3x3
"""
    with pytest.raises(ConfigError, match="does not divide"):
        parse_config(text)


def test_overrides_applied_and_reported():
    scn = parse_config(TINY_SCENARIO, overrides=("scenario.c_v=5.5",))
    assert scn.c_v == 5.5
    with pytest.raises(ConfigError, match="section.key=value"):
        parse_config(TINY_SCENARIO, overrides=("c_v=5.5",))
    # an override that fails validation points back at the override
    with pytest.raises(ConfigError, match="--set override"):
        parse_config(TINY_SCENARIO, overrides=("scenario.f_c=-3",))


def test_shipped_configs_parse():
    baseline = open(os.path.join(CONFIG_DIR, "v2i_baseline.cfg")).read()
    scn = parse_config(baseline)
    assert scn == Scenario()
    large = open(os.path.join(CONFIG_DIR, "v2i_64x64.cfg")).read()
    assert parse_config(large) == Scenario(irs_rows=64, irs_cols=64)
    for name, variable in (("sweep_power.cfg", "tx_power"),
                           ("sweep_position.cfg", "vehicle_offset_c_v"),
                           ("sweep_bits.cfg", "quantization_bits")):
        spec = parse_config(open(os.path.join(CONFIG_DIR, name)).read())
        assert isinstance(spec, SweepSpec)
        assert spec.swept_variable == variable


# ---------------------------------------------------------------- CLI


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_SCENARIO)
    return str(path)


def test_cli_optimize_stdout(tiny_config, capsys):
    assert main(["optimize", "--config", tiny_config, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("rate_bps_hz ")
    assert lines[1].startswith("iterations ")
    assert lines[2] in ("converged true", "converged false")
    phases = lines[3].split()
    assert phases[0] == "phases"
    assert len(phases) == 1 + 16
    assert all(0 <= int(tok) < 4 for tok in phases[1:])


def test_cli_optimize_matches_library(tiny_config, capsys):
    assert main(["optimize", "--config", tiny_config, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    reported = float(out.split("\n")[0].split()[1])
    scn = Scenario(irs_rows=4, irs_cols=4, bs_rows=2, bs_cols=1)
    channels = rician_channel(scn, np.random.default_rng(3))
    report = successive_refinement(channels, 4, scn.tx_power, scn.n0)
    assert reported == pytest.approx(report.rate_trace[-1], rel=1e-11)


def test_cli_optimize_rejects_no_irs(tiny_config, capsys):
    assert main(["optimize", "--config", tiny_config, "--scheme", "no_irs"]) == 2
    assert "nothing to optimize" in capsys.readouterr().err


def test_cli_optimize_schemes(tiny_config, capsys):
    for scheme in ("grouped_2x2", "position_based"):
        assert main(["optimize", "--config", tiny_config, "--scheme", scheme,
                     "--seed", "1"]) == 0
        assert "rate_bps_hz" in capsys.readouterr().out


def test_cli_optimize_imported_channels_match(tiny_config, tmp_path, capsys):
    # optimizing an exported draw from the command line must equal solve()
    # plus rate() on the same file, for every scheme
    scn = Scenario(irs_rows=4, irs_cols=4, bs_rows=2, bs_cols=1)
    chfile = str(tmp_path / "draw.txt")
    save_channels(rician_channel(scn, np.random.default_rng(8)), chfile)
    channels = load_channels(chfile)

    for label in ("full_csi", "grouped_2x2", "position_based"):
        assert main(["optimize", "--config", tiny_config, "--channels", chfile,
                     "--scheme", label]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        report = solve(scn, channels, Scheme.parse(label), 4, 1e-6)
        achieved = rate(channels, report.final_phases, scn.tx_power, scn.n0)
        assert lines[0] == "rate_bps_hz %.12g" % achieved, label
        assert lines[3].split()[1:] == [str(k) for k in report.final_phases.indices]


def test_cli_optimize_out_file(tiny_config, tmp_path, capsys):
    out_path = str(tmp_path / "report.txt")
    assert main(["optimize", "--config", tiny_config, "--seed", "1",
                 "--out", out_path]) == 0
    assert "wrote" in capsys.readouterr().out
    assert open(out_path).read().startswith("rate_bps_hz ")


def test_cli_optimize_set_override(tiny_config, capsys):
    assert main(["optimize", "--config", tiny_config, "--seed", "1",
                 "--set", "optimizer.levels=2"]) == 0
    out = capsys.readouterr().out
    phases = out.strip().split("\n")[3].split()[1:]
    assert all(tok in ("0", "1") for tok in phases)


def test_cli_sweep_writes_table(tiny_config, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TINY_SCENARIO + """
[sweep]
variable = tx_power
values = 0, 10
schemes = no_irs, full_csi
trials = 3
master_seed = 1
""")
    out_path = str(tmp_path / "table.csv")
    dump_path = str(tmp_path / "dump.json")
    assert main(["sweep", "--config", str(cfg), "--out", out_path,
                 "--dump", dump_path, "--traces"]) == 0
    msg = capsys.readouterr().out
    assert "4 rows" in msg
    table = open(out_path).read()
    assert table.startswith("scheme,value,mean_rate_bps_hz,std_error,trials,seed")
    assert len(table.strip().split("\n")) == 5
    payload = json.loads(open(dump_path).read())
    assert len(payload["rows"]) == 4
    assert payload["traces"]


def test_cli_sweep_worker_bytes_identical(tiny_config, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TINY_SCENARIO + """
[sweep]
variable = quantization_bits
values = 1, 2
schemes = full_csi, grouped_2x2
trials = 4
master_seed = 7
""")
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["sweep", "--config", str(cfg), "--out", a, "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", b, "--workers", "3"]) == 0
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()


def test_cli_sweep_requires_sweep_section(tiny_config, tmp_path, capsys):
    out_path = str(tmp_path / "t.csv")
    assert main(["sweep", "--config", tiny_config, "--out", out_path]) == 2
    assert "no [sweep] section" in capsys.readouterr().err
    assert not os.path.exists(out_path)


def test_cli_sweep_unwritable_output(tiny_config, tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TINY_SCENARIO + """
[sweep]
variable = tx_power
values = 0
schemes = no_irs
trials = 1
""")
    missing_dir = str(tmp_path / "nowhere" / "t.csv")
    assert main(["sweep", "--config", str(cfg), "--out", missing_dir]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_convergence(tiny_config, capsys):
    assert main(["convergence", "--config", tiny_config, "--seed", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "iteration rate_bps_hz"
    rates = [float(line.split()[1]) for line in lines[1:]]
    assert len(rates) >= 2
    assert rates == sorted(rates)


def test_cli_import_channels(tmp_path, capsys):
    scn = Scenario(irs_rows=2, irs_cols=2, bs_rows=2, bs_cols=1)
    chfile = str(tmp_path / "ok.txt")
    save_channels(rician_channel(scn, np.random.default_rng(0)), chfile)
    assert main(["import-channels", "--in", chfile]) == 0
    assert capsys.readouterr().out.strip() == "ok: M=2 N=4"

    bad = tmp_path / "bad.txt"
    bad.write_text("channelset v1\n2 2\n1 0 1 0\n")
    assert main(["import-channels", "--in", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[scenario]\nirs_rows = -2\n")
    assert main(["optimize", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err

    # a swept value outside the model fails at parse time, before any trial
    cfg.write_text(TINY_SCENARIO + "[sweep]\nvariable = tx_power\n"
                   "values = 0, 4000\nschemes = no_irs\n")
    out_path = tmp_path / "t.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_path)]) == 2
    assert "[sweep] values (line 13)" in capsys.readouterr().err
    assert not out_path.exists()

    # oversized phase sets and ranges are refused before anything is built
    for variable, values, where in (
            ("quantization_bits", "40", "[sweep] (line 11)"),
            ("tx_power", "0:1e9:1", "[sweep] values (line 13)")):
        cfg.write_text(TINY_SCENARIO + f"[sweep]\nvariable = {variable}\n"
                       f"values = {values}\nschemes = full_csi\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out_path)]) == 2
        assert where in capsys.readouterr().err
        assert not out_path.exists()
    cfg.write_text(TINY_SCENARIO)
    assert main(["optimize", "--config", str(cfg),
                 "--set", "optimizer.levels=1099511627776"]) == 2
    assert "[optimizer] levels (--set override)" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["optimize", "--config", str(tmp_path / "ghost.cfg")]) == 1
    assert "error:" in capsys.readouterr().err
