"""Reference output bytes of the shipped configs.

The digests pin the CSV and JSON of the three shipped sweeps and the
report of ``irslink optimize`` per scheme, so that a change meant to keep
the outputs the same is checked to keep them bit for bit. The bits rest
on numpy's and the BLAS's floating-point kernels: another numpy or BLAS
build may change the last bits of a rate and so every digest. A change
that alters the outputs on purpose updates the digests here and says so
in CHANGES.md.
"""

import contextlib
import hashlib
import io
import os

import numpy as np
import pytest

from irslink.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# SHA-256 of the CSV then of the --dump --traces JSON at sweep.trials=4
SWEEP_DIGESTS = {
    "sweep_power.cfg": (
        "3c2099b9ff5334cb2840540911087559927b45a8099bdbe7caeddb5463a605af",
        "a6bbc87442e182fdd1e05e4747fa7f581e10e56b6fdc895731f313af565f2902"),
    "sweep_position.cfg": (
        "aa07569c45b12b2008ba3ddb17fe29dfbfb00c4ab4feec7e11ba7966e62a0a51",
        "e0223bead956e3781044aff2148b9a340d89ae448e91c631bcf7df86f7dd6dfe"),
    "sweep_bits.cfg": (
        "35fef36707d9008a7246faaf342b0ea2c128075495dc89758483450c608165e7",
        "8ef09abf1a3e40790f9da4beeaeb6ffa6b282af46d6cfba97539da7eed6a0750"),
}
# SHA-256 of `irslink optimize --config v2i_baseline.cfg --seed 7` stdout
OPTIMIZE_DIGESTS = {
    "full_csi": "1c1b45f26ce0ee060f90086a8fc08e1f0d5baaf3b64aef4c5b74315fdc34f4b9",
    "grouped_2x2": "2cdc90f8a9434b72740762ee4d9de00ec63843404a46ab4360072188672e6ef0",
    "position_based": "b60145b37bf607d044628db719b235a205b0f3ce6e2a03d228e1556e7f99b0cb",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def explain(what: str) -> str:
    return (f"{what} changed bytes (numpy {np.__version__}); the digests rest on "
            f"numpy's and the BLAS's kernels, so another build can change them")


@pytest.mark.parametrize("name, workers", [
    ("sweep_power.cfg", 1), ("sweep_position.cfg", 1), ("sweep_bits.cfg", 1),
    ("sweep_position.cfg", 2)])
def test_shipped_sweep_bytes(tmp_path, name, workers):
    csv, dump = tmp_path / "out.csv", tmp_path / "dump.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--config", os.path.join(CONFIG_DIR, name),
                     "--set", "sweep.trials=4", "--workers", str(workers),
                     "--out", str(csv), "--dump", str(dump), "--traces"]) == 0
    got = (sha256(csv.read_bytes()), sha256(dump.read_bytes()))
    assert got == SWEEP_DIGESTS[name], explain(f"{name} --workers {workers}")


@pytest.mark.parametrize("scheme", sorted(OPTIMIZE_DIGESTS))
def test_optimize_report_bytes(scheme):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["optimize", "--config",
                     os.path.join(CONFIG_DIR, "v2i_baseline.cfg"),
                     "--seed", "7", "--scheme", scheme]) == 0
    assert sha256(out.getvalue().encode()) == OPTIMIZE_DIGESTS[scheme], explain(
        f"optimize --scheme {scheme}")
