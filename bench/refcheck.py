"""Recorded reference outputs for the benchmark's shipped seeds.

Run from the root of a checkout:

    python3 bench/refcheck.py check     # compare program and oracle to the record
    python3 bench/refcheck.py record    # rewrite bench/reference/ (only when the
                                        # outputs are meant to change)

For each seed in ``SEEDS`` the record holds, at full size, the per-trial
rates of the first power_sweep and position_sweep chunks (and the
position_sweep CSV), and the printed rate and phase indices of the
first large_surface round. ``holdout`` is not used while developing a
change; it confirms a claim afterwards. ``check`` runs the program and
bench/oracle.py on the same inputs and reports every mismatch
(phases must be equal, rates within oracle.RATE_RTOL relative).
"""

import json
import os
import shutil
import sys

import child
import oracle
import workloads

SEEDS = {"dev": 1, "holdout": 7919}
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def program_outputs(seed: int, work_dir: str) -> dict:
    record = {"seed": seed}
    for name in ("power_sweep", "position_sweep"):
        out = child.run_sweep_chunk(workloads.sweep_spec(name, False), seed, 0)
        if out["error"]:
            raise RuntimeError(f"{name}: {out['error']}")
        record[name] = {"master_seed": out["master_seed"], "rates": out["rates"],
                        "csv": out["csv"]}
    ops = workloads.make_large_inputs(seed, 1, False, work_dir)
    record["large_surface"] = []
    for i, op in enumerate(ops):
        res = child.run_optimize(i, op)
        if res["rc"] != 0 or res["error"]:
            raise RuntimeError(f"large_surface op {i}: rc {res['rc']} {res['error']}")
        rate, phases = workloads.parse_optimize_output(res["stdout"])
        record["large_surface"].append({
            "c_v": op["c_v"], "scheme": op["scheme"], "rate_bps_hz": rate,
            "phases": "".join(str(k) for k in phases)})
    return record, ops


def compare(label: str, want: dict, got: dict) -> list[str]:
    errors = []
    for name in ("power_sweep", "position_sweep"):
        for key, rates in want[name]["rates"].items():
            got_rates = got[name]["rates"].get(key, [])
            if len(got_rates) != len(rates):
                errors.append(f"{label} {name} {key}: {len(got_rates)} trials")
            for t, (w, g) in enumerate(zip(rates, got_rates)):
                if not oracle.rate_matches(g, w):
                    errors.append(f"{label} {name} {key} trial {t}: {g!r} != {w!r}")
        if "csv" in got[name] and got[name]["csv"] != want[name]["csv"]:
            errors.append(f"{label} {name}: CSV differs")
    for i, (w, g) in enumerate(zip(want["large_surface"], got["large_surface"])):
        if g["phases"] != w["phases"] or not oracle.rate_matches(g["rate_bps_hz"],
                                                                 w["rate_bps_hz"]):
            errors.append(f"{label} large_surface op {i} ({w['scheme']}) differs")
    return errors


def oracle_outputs(record: dict, ops: list) -> dict:
    got = {}
    for name in ("power_sweep", "position_sweep"):
        spec = workloads.sweep_spec(name, False)
        ref = oracle.sweep_rates(spec, record[name]["master_seed"])
        got[name] = {"rates": {workloads.rates_key(label, value): rates
                               for (label, value), rates in ref.items()}}
    got["large_surface"] = []
    for op in ops:
        scenario, settings, channels = workloads.large_op_inputs(op)
        idx, rate = oracle.solve(scenario, channels, op["scheme"], settings.levels,
                                 settings.epsilon, settings.max_outer_iters)
        got["large_surface"].append({"rate_bps_hz": rate,
                                     "phases": "".join(str(k) for k in idx)})
    return got


def main(argv) -> int:
    mode = argv[1] if len(argv) > 1 else "check"
    if mode not in ("check", "record"):
        print(__doc__, file=sys.stderr)
        return 2
    work_dir = os.path.join(os.getcwd(), ".bench_work", f"refcheck-{os.getpid()}")
    os.makedirs(work_dir)
    errors = []
    try:
        for role, seed in SEEDS.items():
            path = os.path.join(REFERENCE_DIR, f"seed_{seed}.json")
            record, ops = program_outputs(seed, work_dir)
            if mode == "record":
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(dict(record, role=role), fh, indent=1, sort_keys=True)
                    fh.write("\n")
                print(f"wrote {path}")
                continue
            with open(path, encoding="utf-8") as fh:
                want = json.load(fh)
            errors += compare(f"program seed {seed}", want, record)
            errors += compare(f"oracle seed {seed}", want, oracle_outputs(record, ops))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    for line in errors:
        print(line)
    if mode == "check":
        print("reference check: " + (f"{len(errors)} mismatches" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
