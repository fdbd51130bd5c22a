#!/usr/bin/env python3
"""Record the reference outputs that gate.py compares against.

    python3 perfbench/record.py --bank
    python3 perfbench/record.py --workloads wide,long --seeds 0-31

``--bank`` records the panel and pooled existence counts of every simulate
bank seed; ``--seeds`` records ``beta_hat`` of ``fit`` on each workload's CSV
for those benchmark seeds, after checking the verdict, convergence and the
recomputed estimate. Results are merged into perfbench/reference.json. Run
it only on a commit whose outputs are known to be right: the gate then holds
every later version to them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import inputs  # noqa: E402
from felogit import cli  # noqa: E402


def run_cli(argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def record_bank() -> dict:
    bank = {"design": list(inputs.SIM_ARGS), "reps": inputs.SIM_REPS}
    columns = {f"{side}_{key}": [] for side in ("panel", "pooled") for key in ("exists", "undecided")}
    for seed in range(inputs.SIM_BANK):
        code, payload = run_cli(["simulate", *inputs.SIM_ARGS, "--reps", str(inputs.SIM_REPS),
                                 "--seed", str(seed), "--output", "json"])
        if code != 0:
            raise SystemExit(f"bank seed {seed}: exit {code}")
        for side in ("panel", "pooled"):
            result = payload["simulate"][side]
            columns[f"{side}_exists"].append(sum(result["exists"]))
            undecided = result["status"].count("qp_did_not_converge")
            columns[f"{side}_undecided"].append(undecided)
            if undecided:
                print(f"bank seed {seed}: {undecided} {side} replication(s) qp_did_not_converge")
    return {**bank, **columns}


def record_beta(workload: str, seed: int, tmp: Path) -> list:
    w = inputs.WORKLOADS[workload]
    x, y = inputs.draw_panel(w.panel, seed)
    csv = tmp / f"{workload}-{seed}.csv"
    inputs.write_csv(csv, x, y)
    code, payload = run_cli(["fit", str(csv), "--output", "json"])
    fit = payload["fit"]
    if code != 0 or payload["existence"]["status"] != gate.EXISTS or not fit["converged"]:
        raise SystemExit(f"{workload} seed {seed}: exit {code}, {payload['existence']['status']}")
    exp = gate.Expectation(beta0=w.panel.beta0, beta0_tolerance=w.beta0_tolerance, panel=(x, y))
    problems = exp.beta_failures(fit["beta_hat"])
    if problems:
        raise SystemExit(f"{workload} seed {seed}: {problems}")
    return fit["beta_hat"]


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bank", action="store_true")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=seed_range, default=range(0))
    args = parser.parse_args()
    ref = json.loads(gate.REFERENCE.read_text()) if gate.REFERENCE.exists() else {}
    ref.setdefault("beta_hat", {name: {} for name in inputs.WORKLOADS})
    if args.bank:
        ref["sim_bank"] = record_bank()
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in filter(None, args.workloads.split(",")):
            for seed in args.seeds:
                ref["beta_hat"][workload][str(seed)] = record_beta(workload, seed, Path(tmp))
                print(f"{workload} seed {seed}: {ref['beta_hat'][workload][str(seed)]}", flush=True)
    for table in ref["beta_hat"].values():
        table_sorted = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        table.clear()
        table.update(table_sorted)
    gate.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
