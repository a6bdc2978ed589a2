"""Per-layer spans for the traced run, recorded from outside irslink.

``install`` replaces the names that irslink's calling modules import
(``irslink.experiments.rician_channel``, ``irslink.optimizer.build_quadratic_form``
and so on) with wrappers that record a span around each call. Spans stay
in memory; ``per_layer`` reduces them to the metrics named in
BENCHMARK.json. A span's self time is its duration minus the part of it
that its child spans cover.

A span's parent is the innermost open span on its own thread. Spans
opened on a ``run_sweep`` pool thread with nothing open there take the
innermost open span of the main thread, so the pool's trials count as
children of the ``run_sweep`` that dispatched them.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import threading
import time
from collections import defaultdict

SCHEME_LABELS = ("no_irs", "full_csi", "grouped_2x2", "position_based")
OPTIMIZERS = ("successive_refinement", "optimize_grouped", "optimize_position_based")

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    [("channel.rician_channel.calls", "count", "lower"),
     ("channel.rician_channel.self_s", "s", "lower"),
     ("channel.rician_channel.calls_per_distinct_draw", "calls/draw", "lower"),
     ("channel.los_channel_matrix.calls", "count", "lower"),
     ("channel.los_channel_matrix.self_s", "s", "lower"),
     ("channel.los_channel_matrix.calls_per_distinct_geometry", "calls/geometry", "lower"),
     ("link.build_quadratic_form.calls", "count", "lower"),
     ("link.build_quadratic_form.self_s", "s", "lower"),
     ("link.form_bytes_computed", "B", "lower"),
     ("link.rate.calls", "count", "lower"),
     ("link.rate.self_s", "s", "lower")]
    + [(f"optimizer.{fn}.{what}", unit, "lower")
       for fn in OPTIMIZERS for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [("optimizer.sweeps", "count", "lower"),
       ("optimizer.sweeps_max", "count", "lower"),
       ("optimizer.s_per_sweep", "s", "lower"),
       ("optimizer.coordinate_visits", "count", "lower"),
       ("optimizer.not_converged", "count", "lower")]
    + [(f"experiments.run_trial.{label}.{stat}", unit, better)
       for label in SCHEME_LABELS
       for stat, unit, better in (("p50_s", "s", "lower"), ("p90_s", "s", "lower"),
                                  ("n", "count", "higher"))]
    + [("experiments.run_trial.self_s", "s", "lower"),
       ("experiments.run_sweep.self_s", "s", "lower"),
       ("experiments.run_sweep.speedup_w2", "ratio", "higher"),
       ("config.parse_config.self_s", "s", "lower"),
       ("config.parse_optimizer_settings.calls", "count", "lower"),
       ("channel_io.load_channels.calls", "count", "lower"),
       ("channel_io.load_channels.self_s", "s", "lower"),
       ("channel_io.load_channels.bytes_read", "B", "lower"),
       ("cli.main.calls", "count", "lower"),
       ("cli.main.p50_s", "s", "lower"),
       ("cli.main.p90_s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("trace.ops", "count", "higher"),
       ("trace.overhead", "ratio", "lower")]
)


class Tracer:
    """Collects [name, start, end, parent span, note] lists."""

    def __init__(self):
        self.spans = []
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Replace ``module.attr`` by a spanning wrapper.

        ``note(args, kwargs, result)`` computes a value stored on the span
        after it closes, so its cost is not in the span.
        """
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span = [name, 0.0, 0.0, parent, None]
            self.spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)


def _channel_digest(args, kwargs, channels) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (channels.h_r, channels.h_v, channels.h_d):
        h.update(arr.tobytes())
    return h.hexdigest()


def _report_note(size_of):
    def note(args, kwargs, report):
        return size_of(args), report.iterations, report.converged
    return note


def _grouped_size(args) -> int:
    (rows, cols), grouping = args[1], args[2]
    return (rows // grouping.group_rows) * (cols // grouping.group_cols)


def install(tracer: Tracer) -> None:
    """Wrap irslink's public functions at the names its callers use."""
    from irslink import cli, config, experiments, optimizer

    for mod in (experiments, cli):
        tracer.wrap(mod, "rician_channel", "channel.rician_channel", _channel_digest)
        tracer.wrap(mod, "successive_refinement", "optimizer.successive_refinement",
                    _report_note(lambda a: a[0].num_irs_elements))
        tracer.wrap(mod, "optimize_grouped", "optimizer.optimize_grouped",
                    _report_note(_grouped_size))
        tracer.wrap(mod, "optimize_position_based", "optimizer.optimize_position_based",
                    _report_note(lambda a: a[0].irs_elements))
    tracer.wrap(optimizer, "los_channel_matrix", "channel.los_channel_matrix",
                _channel_digest)
    tracer.wrap(optimizer, "build_quadratic_form", "link.build_quadratic_form",
                lambda a, k, r: 16 * a[0].num_irs_elements ** 2)
    for mod in (experiments, optimizer, cli):
        tracer.wrap(mod, "rate", "link.rate")
    tracer.wrap(experiments, "run_trial", "experiments.run_trial",
                lambda a, k, r: a[1].label)
    tracer.wrap(experiments, "run_sweep", "experiments.run_sweep")
    for mod in (config, cli):
        tracer.wrap(mod, "parse_config", "config.parse_config")
        tracer.wrap(mod, "parse_optimizer_settings", "config.parse_optimizer_settings")
    tracer.wrap(cli, "load_channels", "channel_io.load_channels",
                lambda a, k, r: os.path.getsize(a[0]))
    tracer.wrap(cli, "main", "cli.main")


def _covered(intervals) -> float:
    total, end = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def _pct(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer(spans: list) -> dict:
    """Every PER_LAYER metric except speedup_w2, trace.ops and trace.overhead."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[id(span[3])].append((span[1], span[2]))
    by_name = defaultdict(list)
    for span in spans:
        dur = span[2] - span[1]
        by_name[span[0]].append((dur, dur - _covered(children[id(span)]), span[4]))

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(s for _, s, _ in by_name[name])

    def per_distinct(name):
        notes = [n for _, _, n in by_name[name]]
        return len(notes) / len(set(notes)) if notes else 0.0

    m = {}
    for name in ("channel.rician_channel", "channel.los_channel_matrix",
                 "link.build_quadratic_form", "link.rate", "channel_io.load_channels",
                 "cli.main", "config.parse_optimizer_settings"):
        m[f"{name}.calls"] = calls(name)
    for name in ("channel.rician_channel", "channel.los_channel_matrix",
                 "link.build_quadratic_form", "link.rate", "experiments.run_trial",
                 "experiments.run_sweep", "config.parse_config",
                 "channel_io.load_channels", "cli.main"):
        m[f"{name}.self_s"] = self_s(name)
    m["channel.rician_channel.calls_per_distinct_draw"] = per_distinct(
        "channel.rician_channel")
    m["channel.los_channel_matrix.calls_per_distinct_geometry"] = per_distinct(
        "channel.los_channel_matrix")
    m["link.form_bytes_computed"] = sum(n for _, _, n in by_name["link.build_quadratic_form"])
    m["channel_io.load_channels.bytes_read"] = sum(
        n for _, _, n in by_name["channel_io.load_channels"])

    reports, opt_self = [], 0.0
    for fn in OPTIMIZERS:
        name = f"optimizer.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
        opt_self += m[f"{name}.self_s"]
        reports += [n for _, _, n in by_name[name]]
    sweeps = sum(it for _, it, _ in reports)
    m["optimizer.sweeps"] = sweeps
    m["optimizer.sweeps_max"] = max((it for _, it, _ in reports), default=0)
    m["optimizer.s_per_sweep"] = opt_self / sweeps if sweeps else 0.0
    m["optimizer.coordinate_visits"] = sum(size * it for size, it, _ in reports)
    m["optimizer.not_converged"] = sum(not conv for _, _, conv in reports)

    for label in SCHEME_LABELS:
        durs = [d for d, _, n in by_name["experiments.run_trial"] if n == label]
        m[f"experiments.run_trial.{label}.p50_s"] = statistics.median(durs) if durs else 0.0
        m[f"experiments.run_trial.{label}.p90_s"] = _pct(durs, 0.9)
        m[f"experiments.run_trial.{label}.n"] = len(durs)
    mains = [d for d, _, _ in by_name["cli.main"]]
    m["cli.main.p50_s"] = statistics.median(mains) if mains else 0.0
    m["cli.main.p90_s"] = _pct(mains, 0.9)
    return m
