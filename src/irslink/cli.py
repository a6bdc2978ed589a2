"""Command-line front end.

Subcommands:

* ``optimize``: one seeded channel draw (or an imported channel file),
  phases optimized under the chosen scheme; prints rate, iteration
  count and the phase indices.
* ``sweep``: run a configured Monte Carlo sweep and write the result
  table; ``--dump`` additionally writes a JSON dump with per-trial
  rates and traces.
* ``convergence``: print the per-sweep rate trace of one seeded run.
* ``import-channels``: validate an external channel file.

Output files are written atomically (temp file + rename), into
directories checked before any work. Exit status is 0 on success, 2 on
configuration or input errors, 1 when a file cannot be read or written.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .channel import Scenario, rician_channel
from .channel_io import atomic_write_text, load_channels
from .config import OptimizerSettings, parse_config, parse_optimizer_settings
from .experiments import Scheme, SweepSpec, convergence_trace, run_sweep, solve
from .link import rate
# Unused here; bench/tracing.py wraps these names on this module.
from .optimizer import (optimize_grouped, optimize_position_based,  # noqa: F401
                        successive_refinement)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_scenario(args) -> tuple[Scenario, OptimizerSettings]:
    text = _read_text(args.config)
    overrides = tuple(args.set or ())
    parsed = parse_config(text, overrides)
    scenario = parsed.base_scenario if isinstance(parsed, SweepSpec) else parsed
    settings = parse_optimizer_settings(text, overrides)
    return scenario, settings


def _check_out_dirs(args, *flags: str) -> None:
    """Refuse, before any work, an output flag that names a directory or
    whose directory is missing."""
    for flag in flags:
        path = getattr(args, flag)
        if path and os.path.isdir(path):
            raise IsADirectoryError(f"--{flag} {path}: is a directory")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"--{flag} {path}: no such directory")


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer in decimal digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _workers(text: str) -> int:
    """A --workers value: a positive integer in decimal digits."""
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _write_or_print(text: str, out: str | None) -> int:
    """Write text to out atomically and say so, or print it without out."""
    if out:
        atomic_write_text(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_optimize(args) -> int:
    _check_out_dirs(args, "out")
    scenario, settings = _load_scenario(args)
    scheme = Scheme.parse(args.scheme)
    if args.channels:
        channels = load_channels(args.channels)
    else:
        seed = args.seed if args.seed is not None else settings.seed
        channels = rician_channel(scenario, np.random.default_rng(seed))

    report = solve(scenario, channels, scheme, settings.levels, settings.epsilon,
                   max_outer_iters=settings.max_outer_iters)
    achieved = rate(channels, report.final_phases, scenario.tx_power, scenario.n0)

    out_lines = [
        "rate_bps_hz %.12g" % achieved,
        "iterations %d" % report.iterations,
        "converged %s" % ("true" if report.converged else "false"),
        "phases " + " ".join(str(int(k)) for k in report.final_phases.indices),
    ]
    return _write_or_print("\n".join(out_lines) + "\n", args.out)


def _cmd_sweep(args) -> int:
    _check_out_dirs(args, "out", "dump")
    text = _read_text(args.config)
    parsed = parse_config(text, tuple(args.set or ()))
    if not isinstance(parsed, SweepSpec):
        print("error: config has no [sweep] section", file=sys.stderr)
        return 2
    result = run_sweep(parsed, workers=args.workers,
                       keep_trials=bool(args.dump),
                       keep_traces=bool(args.dump and args.traces))
    atomic_write_text(args.out, result.to_table())
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    if args.dump:
        atomic_write_text(args.dump, result.to_json())
        print(f"wrote {args.dump}")
    return 0


def _cmd_convergence(args) -> int:
    _check_out_dirs(args, "out")
    scenario, settings = _load_scenario(args)
    trace = convergence_trace(scenario, settings.levels, settings.epsilon,
                              args.seed,
                              max_outer_iters=settings.max_outer_iters)
    lines = ["iteration rate_bps_hz"]
    lines += ["%d %.12g" % (k, r) for k, r in enumerate(trace)]
    return _write_or_print("\n".join(lines) + "\n", args.out)


def _cmd_import_channels(args) -> int:
    channels = load_channels(getattr(args, "in"))
    print(f"ok: M={channels.num_bs_antennas} N={channels.num_irs_elements}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irslink",
        description="IRS-assisted uplink simulation and phase optimization")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override a config value")

    p_opt = sub.add_parser("optimize", parents=[common],
                           help="optimize phases for one draw")
    p_opt.add_argument("--channels", help="channel file to use instead of "
                                          "synthesizing")
    p_opt.add_argument("--scheme", default="full_csi",
                       help="full_csi, grouped_RxC or position_based")
    p_opt.add_argument("--seed", type=_seed, default=None,
                       help="channel draw seed (default from [optimizer])")
    p_opt.add_argument("--out", help="write the report here instead of stdout")
    p_opt.set_defaults(func=_cmd_optimize)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run a Monte Carlo sweep")
    p_sweep.add_argument("--out", required=True, help="result table path")
    p_sweep.add_argument("--dump", help="also write a JSON dump with "
                                        "per-trial rates")
    p_sweep.add_argument("--traces", action="store_true",
                         help="include per-trial traces in the dump")
    p_sweep.add_argument("--workers", type=_workers, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_conv = sub.add_parser("convergence", parents=[common],
                            help="print one refinement trace")
    p_conv.add_argument("--seed", type=_seed, required=True)
    p_conv.add_argument("--out", help="write the trace here instead of stdout")
    p_conv.set_defaults(func=_cmd_convergence)

    p_imp = sub.add_parser("import-channels", help="validate a channel file")
    p_imp.add_argument("--in", required=True, dest="in")
    p_imp.set_defaults(func=_cmd_import_channels)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and ChannelFileError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
