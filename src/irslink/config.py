"""Structured text configuration for scenarios, optimizer runs and sweeps.

INI-style sections mirror the object model:

    [scenario]   fields of channel.Scenario (all optional, defaults apply)
    [optimizer]  fields of OptimizerSettings: levels, epsilon,
                 max_outer_iters, seed
    [sweep]      variable, values, schemes, trials, master_seed

``values`` accepts a comma list (``1, 2, 4``) or an inclusive range
``start:stop:step`` of at most 100000 points; ``tx_power`` values are
in dBm. ``schemes`` is a comma list of labels: no_irs, full_csi,
grouped_RxC, position_based. This module only parses text: the rules
on the values are the library types' own (``Scenario``,
``OptimizerSettings``, ``SweepSpec``), and their errors come back
located at the key's line. Unknown keys or sections are rejected with
the offending line number.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, fields

from .channel import Scenario
from .experiments import Scheme, SweepSpec
from .optimizer import (DEFAULT_EPSILON, DEFAULT_MAX_OUTER_ITERS,
                        check_search_settings)


class ConfigError(ValueError):
    """Invalid configuration; message names the key and line."""


_SWEEP_KEYS = ("variable", "values", "schemes", "trials", "master_seed")
# SweepSpec fields whose errors point at a [sweep] key of their own.
_SWEEP_FIELD_KEYS = {"sweep_values": "values", "schemes": "schemes"}
# Most points a start:stop:step range may expand to; checked before the
# values are built, so a typo in the step cannot exhaust memory.
MAX_RANGE_POINTS = 100_000


@dataclass(frozen=True)
class OptimizerSettings:
    levels: int = 4
    epsilon: float = DEFAULT_EPSILON
    max_outer_iters: int = DEFAULT_MAX_OUTER_ITERS
    seed: int = 0

    def __post_init__(self) -> None:
        check_search_settings(self.levels, self.epsilon, self.max_outer_iters)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


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
        key = re.split("[=:]", stripped, maxsplit=1)[0].strip().lower()
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


def _check_keys(section: str, items: dict, allowed, lines: dict) -> None:
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
        located = lines.setdefault(section, {})
        located.setdefault("__section__", "--set override")
        located[key] = "--set override"
    # Section names match as written: a [Scenario], or a [DEFAULT] with
    # keys, would otherwise be read and then silently ignored.
    named = parser.sections()
    if parser.defaults():
        named.append(parser.default_section)
    for section in named:
        if section not in ("scenario", "optimizer", "sweep"):
            at = _loc(lines, section.strip().lower(), "__section__")
            raise ConfigError(f"unknown section [{section}] ({at})")
    return parser, lines


def _build(cls, section: str, parser, lines):
    """Dataclass cls from [section]: its fields give the keys and their
    int/float kinds, and an error that starts with a key is located."""
    kinds = {f.name: "int" if f.type in ("int", int) else "float"
             for f in fields(cls)}
    items = dict(parser.items(section)) if parser.has_section(section) else {}
    _check_keys(section, items, kinds, lines)
    kwargs = {key: _parse_scalar(value, kinds[key], section, key, lines)
              for key, value in items.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        message = str(exc)
        key = message.split()[0]
        if key in kwargs:
            raise ConfigError(f"[{section}] {key} ({_loc(lines, section, key)}): "
                              f"{message}") from None
        raise ConfigError(f"[{section}]: {message}") from None


def parse_optimizer_settings(text: str,
                             overrides: tuple[str, ...] = ()) -> OptimizerSettings:
    return _build(OptimizerSettings, "optimizer", *_read(text, overrides))


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
        return tuple(start + i * step for i in range(int(math.floor(span)) + 1))
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"[sweep] values ({loc}): expected a comma list "
                          f"of numbers, got {value!r}") from None


def _build_sweep(parser, lines, scenario: Scenario,
                 optimizer: OptimizerSettings) -> SweepSpec:
    items = dict(parser.items("sweep"))
    _check_keys("sweep", items, _SWEEP_KEYS, lines)
    section_at = _loc(lines, "sweep", "__section__")
    for key in ("variable", "values", "schemes"):
        if key not in items:
            raise ConfigError(f"[sweep] ({section_at}): missing required "
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
        return SweepSpec(base_scenario=scenario, swept_variable=items["variable"],
                         sweep_values=values, schemes=schemes, trials=trials,
                         master_seed=master_seed, levels=optimizer.levels,
                         epsilon=optimizer.epsilon,
                         max_outer_iters=optimizer.max_outer_iters)
    except ValueError as exc:
        field, _, message = str(exc).partition(": ")
        key = _SWEEP_FIELD_KEYS.get(field)
        if key is not None:
            raise ConfigError(f"[sweep] {key} ({_loc(lines, 'sweep', key)}): "
                              f"{message}") from None
        raise ConfigError(f"[sweep] ({section_at}): {exc}") from None


def parse_config(text: str, overrides: tuple[str, ...] = ()):
    """Parse a configuration into a Scenario or, with [sweep], a SweepSpec.

    ``overrides`` holds ``section.key=value`` pairs applied on top of
    the text, as supplied by the command line. A SweepSpec checks every
    sweep cell when it is built, so bad configs fail before any
    computation.
    """
    parser, lines = _read(text, overrides)
    scenario = _build(Scenario, "scenario", parser, lines)
    if not parser.has_section("sweep"):
        return scenario
    return _build_sweep(parser, lines, scenario,
                        _build(OptimizerSettings, "optimizer", parser, lines))
