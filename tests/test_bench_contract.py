"""The traced benchmark run (bench/tracing.py) can still wrap irslink.

``tracing.install`` replaces names on irslink's modules, so it runs in a
child process where it cannot leak into other tests. The child runs a
toy ``irslink optimize`` per scheme and a toy sweep, and reports the
optimizer call counts that the spans record on each path.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

CHILD = r"""
import json
import sys

import tracing
from irslink import Scenario, Scheme, SweepSpec, cli, experiments

tracer = tracing.Tracer()
tracing.install(tracer)
labels = ("full_csi", "grouped_2x2", "position_based")


def optimizer_calls():
    metrics = tracing.per_layer(tracer.spans)
    tracer.spans.clear()
    return {fn: metrics[f"optimizer.{fn}.calls"] for fn in tracing.OPTIMIZERS}


for label in labels:
    assert cli.main(["optimize", "--config", sys.argv[1], "--scheme", label]) == 0
counts = {"cli": optimizer_calls()}
scenario = Scenario(irs_rows=4, irs_cols=4, bs_rows=2, bs_cols=1)
experiments.run_sweep(SweepSpec(
    base_scenario=scenario, swept_variable="tx_power", sweep_values=(0.0,),
    schemes=tuple(Scheme.parse(s) for s in ("no_irs",) + labels), trials=1,
    master_seed=0))
counts["sweep"] = optimizer_calls()
print(json.dumps(counts))
"""


def test_tracing_records_optimizer_spans_on_cli_and_sweep(tmp_path):
    config = tmp_path / "toy.cfg"
    config.write_text("[scenario]\nirs_rows = 4\nirs_cols = 4\n"
                      "bs_rows = 2\nbs_cols = 1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(config)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    one_each = {"successive_refinement": 1, "optimize_grouped": 1,
                "optimize_position_based": 1}
    assert counts == {"cli": one_each, "sweep": one_each}
