"""Structured text configuration for scenarios, optimizer runs and sweeps.

INI-style sections mirror the object model:

    [scenario]   fields of channel.Scenario (all optional, defaults apply)
    [optimizer]  levels, epsilon, max_outer_iters, seed
    [sweep]      variable, values, schemes, trials, master_seed

``values`` accepts a comma list (``1, 2, 4``) or an inclusive range
``start:stop:step`` of at most 100000 points. ``tx_power`` sweeps are
quoted in dBm; ``quantization_bits`` values, like ``levels``, are capped
at a 65536-point phase set. ``schemes`` is a comma list of labels:
no_irs, full_csi, grouped_RxC, position_based. Unknown keys or sections
are rejected with the offending line number.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .channel import Scenario
from .experiments import Scheme, SweepSpec, scenario_for_value
from .optimizer import MAX_LEVELS


class ConfigError(ValueError):
    """Invalid configuration; message names the key and line."""


_SCENARIO_INT_KEYS = ("bs_rows", "bs_cols", "irs_rows", "irs_cols")
_SCENARIO_FLOAT_KEYS = ("a_irs", "a_bs", "a_v", "b_bs", "c_bs", "b_v", "c_v",
                        "f_c", "element_spacing", "beta_r", "beta_v", "beta_d",
                        "tx_power", "noise_power", "bandwidth", "noise_figure_db")
_OPTIMIZER_KEYS = ("levels", "epsilon", "max_outer_iters", "seed")
_SWEEP_KEYS = ("variable", "values", "schemes", "trials", "master_seed")
# Most points a start:stop:step range may expand to; checked before the
# values are built, so a typo in the step cannot exhaust memory.
MAX_RANGE_POINTS = 100_000


@dataclass(frozen=True)
class OptimizerSettings:
    levels: int = 4
    epsilon: float = 1e-6
    max_outer_iters: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.levels <= MAX_LEVELS:
            raise ConfigError(f"levels must be in [1, {MAX_LEVELS}], "
                              f"got {self.levels!r}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.max_outer_iters < 1:
            raise ConfigError(
                f"max_outer_iters must be >= 1, got {self.max_outer_iters!r}")


def _key_lines(text: str) -> dict:
    """Line numbers of every section header and key, for diagnostics."""
    lines: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            lines.setdefault(section, {})["__section__"] = lineno
            continue
        cut = len(stripped)
        for sep in ("=", ":"):
            pos = stripped.find(sep)
            if pos != -1:
                cut = min(cut, pos)
        key = stripped[:cut].strip().lower()
        if section is not None and key:
            lines[section].setdefault(key, lineno)
    return lines


def _loc(lines: dict, section: str, key: str) -> str:
    lineno = lines.get(section, {}).get(key)
    if isinstance(lineno, int):
        return f"line {lineno}"
    if isinstance(lineno, str):
        return lineno
    return "unknown line"


def _parse_scalar(value: str, kind: str, section: str, key: str, lines: dict):
    try:
        if kind == "int":
            return int(value)
        return float(value)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} ({_loc(lines, section, key)}): expected "
            f"{kind}, got {value!r}") from None


def _check_keys(section: str, items: dict, allowed: tuple, lines: dict) -> None:
    for key in items:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in [{section}] "
                f"({_loc(lines, section, key)})")


def _read(text: str, overrides: tuple[str, ...] = ()):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None
    lines = _key_lines(text)
    for item in overrides:
        target, _, value = item.partition("=")
        section, _, key = target.partition(".")
        section = section.strip().lower()
        key = key.strip().lower()
        if "=" not in item or not section or not key:
            raise ConfigError(f"override {item!r} is not of the form "
                              f"section.key=value")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())
        lines.setdefault(section, {})[key] = "--set override"
    known = ("scenario", "optimizer", "sweep")
    for section in parser.sections():
        if section.lower() not in known:
            lineno = lines.get(section.lower(), {}).get("__section__")
            at = f"line {lineno}" if isinstance(lineno, int) else "--set override"
            raise ConfigError(f"unknown section [{section}] ({at})")
    return parser, lines


def _build_scenario(parser, lines) -> Scenario:
    kwargs = {}
    if parser.has_section("scenario"):
        items = dict(parser.items("scenario"))
        _check_keys("scenario", items, _SCENARIO_INT_KEYS + _SCENARIO_FLOAT_KEYS,
                    lines)
        for key, value in items.items():
            kind = "int" if key in _SCENARIO_INT_KEYS else "float"
            kwargs[key] = _parse_scalar(value, kind, "scenario", key, lines)
    try:
        return Scenario(**kwargs)
    except ValueError as exc:
        message = str(exc)
        key = message.split()[0]
        if key in kwargs:
            raise ConfigError(
                f"[scenario] {key} ({_loc(lines, 'scenario', key)}): "
                f"{message}") from None
        raise ConfigError(f"[scenario]: {message}") from None


def parse_optimizer_settings(text: str,
                             overrides: tuple[str, ...] = ()) -> OptimizerSettings:
    return _build_optimizer(*_read(text, overrides))


def _build_optimizer(parser, lines) -> OptimizerSettings:
    kwargs = {}
    if parser.has_section("optimizer"):
        items = dict(parser.items("optimizer"))
        _check_keys("optimizer", items, _OPTIMIZER_KEYS, lines)
        for key, value in items.items():
            kind = "float" if key == "epsilon" else "int"
            kwargs[key] = _parse_scalar(value, kind, "optimizer", key, lines)
    try:
        return OptimizerSettings(**kwargs)
    except ConfigError as exc:
        key = str(exc).split()[0]
        raise ConfigError(f"[optimizer] {key} ({_loc(lines, 'optimizer', key)}): "
                          f"{exc}") from None


def _parse_values(value: str, lines: dict) -> tuple:
    text = value.strip()
    loc = _loc(lines, "sweep", "values")
    if ":" in text and "," not in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"[sweep] values ({loc}): ranges are "
                              f"start:stop:step, got {value!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"[sweep] values ({loc}): expected numbers "
                              f"in range, got {value!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(f"[sweep] values ({loc}): range bounds must be "
                              f"finite, got {value!r}")
        if not step > 0 or stop < start:
            raise ConfigError(f"[sweep] values ({loc}): need step > 0 and "
                              f"stop >= start")
        span = (stop - start) / step + 1e-9
        if span >= MAX_RANGE_POINTS:
            raise ConfigError(f"[sweep] values ({loc}): range has more than "
                              f"{MAX_RANGE_POINTS} points, got {value!r}")
        count = int(math.floor(span)) + 1
        return tuple(start + i * step for i in range(count))
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"[sweep] values ({loc}): expected a comma list "
                          f"of numbers, got {value!r}") from None


def _build_sweep(parser, lines, scenario: Scenario,
                 optimizer: OptimizerSettings) -> SweepSpec:
    items = dict(parser.items("sweep"))
    _check_keys("sweep", items, _SWEEP_KEYS, lines)
    for key in ("variable", "values", "schemes"):
        if key not in items:
            lineno = lines.get("sweep", {}).get("__section__")
            raise ConfigError(f"[sweep] (line {lineno}): missing required "
                              f"key {key!r}")
    values = _parse_values(items["values"], lines)
    try:
        schemes = tuple(Scheme.parse(tok) for tok in items["schemes"].split(","))
    except ValueError as exc:
        raise ConfigError(f"[sweep] schemes ({_loc(lines, 'sweep', 'schemes')}): "
                          f"{exc}") from None
    trials = _parse_scalar(items.get("trials", "500"), "int", "sweep",
                           "trials", lines)
    master_seed = _parse_scalar(items.get("master_seed", "0"), "int", "sweep",
                                "master_seed", lines)
    try:
        spec = SweepSpec(base_scenario=scenario, swept_variable=items["variable"],
                         sweep_values=values, schemes=schemes, trials=trials,
                         master_seed=master_seed, levels=optimizer.levels,
                         epsilon=optimizer.epsilon,
                         max_outer_iters=optimizer.max_outer_iters)
    except ValueError as exc:
        lineno = lines.get("sweep", {}).get("__section__")
        raise ConfigError(f"[sweep] (line {lineno}): {exc}") from None
    for value in values:
        try:
            scenario_for_value(spec, value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"[sweep] values ({_loc(lines, 'sweep', 'values')}): "
                              f"{spec.swept_variable} {value:g} is out of range: "
                              f"{exc}") from None
    return spec


def parse_config(text: str, overrides: tuple[str, ...] = ()):
    """Parse a configuration into a Scenario or, with [sweep], a SweepSpec.

    ``overrides`` holds ``section.key=value`` pairs applied on top of
    the text, as supplied by the command line. Grouped-scheme block
    sizes and the scenario at every swept value are validated here so
    bad configs fail before any computation.
    """
    parser, lines = _read(text, overrides)
    scenario = _build_scenario(parser, lines)
    if not parser.has_section("sweep"):
        return scenario
    spec = _build_sweep(parser, lines, scenario, _build_optimizer(parser, lines))
    for scheme in spec.schemes:
        if scheme.name == "grouped":
            if (scenario.irs_rows % scheme.group_rows != 0
                    or scenario.irs_cols % scheme.group_cols != 0):
                raise ConfigError(
                    f"[sweep] schemes ({_loc(lines, 'sweep', 'schemes')}): "
                    f"grouping {scheme.group_rows}x{scheme.group_cols} does "
                    f"not divide the {scenario.irs_rows}x{scenario.irs_cols} "
                    f"panel")
    return spec


