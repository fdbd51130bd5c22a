#!/usr/bin/env python3
"""Layered benchmark of the felogit CLI: ``check``, ``fit`` and ``simulate``.

    python3 perfbench/run.py --workload wide --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0        # one row per workload
    python3 perfbench/run.py --smoke                        # self-test, tiny sizes

Run from the root of a checkout. The benchmark draws the workload's inputs
from ``--seed`` (see inputs.py), then starts fresh worker processes one at a
time: a few that only set up (interpreter, ``import felogit``, warm-up calls
on the bundled panel) to time set-up, and one that runs a closed loop of
operations for ``--seconds``. Each operation calls ``felogit.cli.main``
in-process for ``check`` and ``fit`` on the workload's CSV and for one
``simulate``. The worker is single-threaded: BLAS is pinned to one thread.

Every call is checked by gate.py. With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` every second operation runs with tracer.py's spans installed and
the line carries the per-layer metrics. Spans and the full record of a run
are kept under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs  # noqa: E402

ROOT = HERE.parent
SETUP_SAMPLES = 5
PROBE_REF_S = 0.014  # worker.Calibration probe on an idle 2-core 2.0 GHz x86 host
SETUP_TIMEOUT_S = 20
WORKER_GRACE_S = 120  # on top of --seconds: set-up plus the operation in flight


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a worker crashed)."""


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment(worker: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a checkout without .git must not report an enclosing repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": worker.get("backend"),
        "blas_threads": worker.get("blas_threads"),
        "commit": commit,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(spec_path: Path, timeout: float):
    """Run one worker to completion; returns (start time, stdout)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              env=worker_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return start, proc.stdout


def expectation(workload: str, seed: int, panel, smoke: bool) -> gate.Expectation:
    ref = gate.load_reference()
    bank = ref["sim_bank"]
    columns = [k for k in bank if k.endswith(("_exists", "_undecided"))]
    w = inputs.WORKLOADS[workload]
    return gate.Expectation(
        status=w.status,
        force_fit=w.force_fit,
        beta_recorded=None if smoke else ref["beta_hat"].get(workload, {}).get(str(seed)),
        beta0=w.panel.beta0 if w.panel else None,
        beta0_tolerance=None if smoke else w.beta0_tolerance,
        bank={s: {k: bank[k][s] for k in columns} for s in range(len(bank[columns[0]]))},
        bank_reps=bank["reps"],
        panel=panel,
    )


def median_of(values):
    return statistics.median(values) if values else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """Generate inputs, run the workers, gate every call; returns the run record."""
    if not (ROOT / "src" / "felogit" / "__init__.py").is_file():
        raise BenchError(f"no felogit sources under {ROOT / 'src'}")
    design = inputs.SMOKE_PANELS[workload] if smoke else inputs.WORKLOADS[workload].panel
    work = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    panel = None
    csv = ROOT / "src" / "felogit" / "data" / "separated_panel.csv"
    if design is not None:
        panel = inputs.draw_panel(design, seed)
        csv = work / "panel.csv"
        inputs.write_csv(csv, *panel)
    exp = expectation(workload, seed, panel, smoke)

    spec = {
        "root": str(ROOT), "csv": str(csv), "trace": trace, "seconds": seconds,
        "min_ops": 2 if trace else 1, "force_fit": inputs.WORKLOADS[workload].force_fit,
        "sim_design": list(inputs.SIM_ARGS), "sim_reps": inputs.SIM_REPS,
        "bank_seeds": inputs.sim_seed_order(workload, seed),
        "result": str(work / "result.json"), "spans": str(work / "spans.json"),
    }
    setup_spec, run_spec = work / "setup.json", work / "spec.json"
    setup_spec.write_text(json.dumps({**spec, "mode": "setup"}))
    run_spec.write_text(json.dumps({**spec, "mode": "run"}))

    setup, warmups = [], []   # setup: (wall seconds, median probe seconds right after)
    for _ in range(setup_samples - 1):
        start, stdout = start_worker(setup_spec, SETUP_TIMEOUT_S)
        ready = json.loads(stdout.strip().splitlines()[-1])
        setup.append((ready["ready"] - start, statistics.median(ready["probes"])))
        warmups.append(ready["warmup"])
    start, _ = start_worker(run_spec, seconds + WORKER_GRACE_S)
    result = json.loads((work / "result.json").read_text())
    calls = [c for op in result["ops"] for c in op["calls"]]
    setup.append((result["ready"] - start, calls[0]["probe"]))
    warmups.append(result["warmup"])
    # host speed around each call: mean of the probes just before and just after it
    for c, after in zip(calls, [c["probe"] for c in calls[1:]] + [result["probe_end"]]):
        c["speed"] = (c["probe"] + after) / 2 / PROBE_REF_S
    if panel is not None:
        csv.unlink()

    failures = [gate.op_failures(op, exp) for op in result["ops"]]
    setup_ok = all(w == [2, 2, 0] for w in warmups)  # bundled panel: separated, refused; simulate ok
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(result), "setup_s": setup, "warmup_exit_codes": warmups,
        "ops": result["ops"], "failures": failures,
        "attempted": len(result["ops"]), "failed": sum(1 for f in failures if f),
        "correct": setup_ok and not any(failures),
        "peak_rss_mb": result["peak_rss_mb"],
        "layer": result.get("layer"), "self_times": result.get("self_times"),
        "missing_targets": result.get("missing_targets", []),
    }
    record["metrics"] = end_to_end(record) if not trace else per_layer(record)
    (work / "record.json").write_text(json.dumps(record, default=str))
    return record


def end_to_end(record: dict) -> dict:
    """Timings at reference host speed, plus the raw wall medians.

    Each call's wall time is divided by the host speed measured around it
    (probe time over PROBE_REF_S: 1.0 on an idle host, up to ~1.7 while a
    neighbour keeps the core busy), then the median is taken. Raw medians of
    wall time differ by 20-40% between runs minutes apart on a shared host;
    the speed-corrected ones much less.
    """
    calls = [c for op in record["ops"] for c in op["calls"]]
    scale = {"check": ("check_s", 1.0), "fit": ("fit_s", 1.0),
             "simulate": ("simulate_rep_ms", 1e3 / inputs.SIM_REPS)}
    metrics = {}
    for cmd, (name, factor) in scale.items():
        mine = [c for c in calls if c["cmd"] == cmd]
        metrics[name] = factor * median_of([c["wall"] / c["speed"] for c in mine])
        metrics[f"wall.{name}"] = factor * median_of([c["wall"] for c in mine])
    metrics.update({
        "setup_s": median_of([s * PROBE_REF_S / probe for s, probe in record["setup_s"]]),
        "wall.setup_s": median_of([s for s, _ in record["setup_s"]]),
        "peak_rss_mb": record["peak_rss_mb"],
        "failed_frac": record["failed"] / record["attempted"],
        "host_speed": median_of([c["speed"] for c in calls]),
    })
    return metrics


def per_layer(record: dict) -> dict:
    """Median over traced operations of each per-operation layer metric."""
    ops = record["ops"]
    traced = {str(j): op for j, op in enumerate(ops) if op["traced"]}
    layer = record["layer"]
    names = sorted({name for j in traced for name in layer.get(j, {})})
    out = {name: median_of([layer.get(j, {}).get(name, 0.0) for j in traced]) for name in names}
    out["trace.overhead_s"] = (median_of([op["wall"] for op in traced.values()])
                               - median_of([op["wall"] for op in ops if not op["traced"]]))
    return out


def self_time_lines(record: dict, top: int = 6) -> list[str]:
    """Median self time per span inside each command, largest first."""
    per_op = record["self_times"]
    lines = []
    for cmd in ("check", "fit", "simulate"):
        names = sorted({n for op in per_op.values() for n in op.get(cmd, {})})
        med = {n: median_of([op.get(cmd, {}).get(n, 0.0) for op in per_op.values()]) for n in names}
        total = sum(med.values()) or 1.0
        ranked = sorted(med.items(), key=lambda kv: -kv[1])[:top]
        lines.append(f"  self time inside {cmd}: " + ", ".join(
            f"{n} {v:.4g} s ({100 * v / total:.0f}%)" for n, v in ranked))
    return lines


def emit(record: dict, declared: dict) -> dict:
    """Metrics of the result line: the declared names this run measured, with units."""
    return {name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in declared.items() if record["metrics"].get(name) is not None}


def print_table(records: list, units: dict) -> None:
    """Calibrated metrics, then the raw wall medians and the host speed factor."""
    names = ["check_s", "fit_s", "simulate_rep_ms", "setup_s", "peak_rss_mb", "failed_frac",
             "wall.check_s", "wall.fit_s", "wall.simulate_rep_ms", "wall.setup_s", "host_speed"]
    extra = {"failed_frac": "fraction", "host_speed": "x"}
    header = ["workload"] + [f"{n} ({units.get(n.removeprefix('wall.')) or extra[n]})" for n in names]
    print("  ".join(f"{h:>24}" for h in header))
    for r in records:
        cells = [r["workload"]] + [f"{r['metrics'][n]:.6g}" for n in names]
        print("  ".join(f"{c:>24}" for c in cells))


def report(records: list, trace: bool, declared: dict) -> None:
    for r in records:
        print(f"perfbench: workload={r['workload']} seed={r['seed']} seconds={r['seconds']} "
              f"trace={int(trace)}: closed loop, 1 worker process, {r['attempted']} operations "
              f"(check, fit, simulate), {r['failed']} failed")
        print("env: " + json.dumps(r["env"]))
        for j, reasons in enumerate(r["failures"]):
            for reason in reasons[:3]:
                print(f"  FAILED op {j}: {reason}", file=sys.stderr)
        stalled = sorted({c["argv"][-3] for op in r["ops"] for c in op["calls"]
                          if c["cmd"] == "simulate" and c["out"]
                          and c["out"]["panel_undecided"] + c["out"]["pooled_undecided"]})
        if stalled:
            print(f"  qp_did_not_converge in simulate --seed {', '.join(stalled)}: a stall "
                  "already recorded in reference.json (known defect, not counted as failed)")
        if trace:
            if r["missing_targets"]:
                print("  not traced (absent from felogit): " + ", ".join(r["missing_targets"]))
            for line in self_time_lines(r):
                print(line)
    if not trace:
        print_table(records, declared)
    if len(records) == 1:
        r = records[0]
        metrics = emit(r, declared)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in emit(r, declared).items()}
    if trace:
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))


def smoke() -> int:
    """Every workload at tiny size, both modes: every declared metric must be
    emitted, and the gate must count a failure against a wrong verdict."""
    e2e, layers = declared_metrics()
    problems = []
    for workload in inputs.WORKLOADS:
        for trace, declared in ((False, e2e), (True, layers)):
            r = run_workload(workload, seed=1, seconds=1.0, trace=trace, smoke=True, setup_samples=1)
            missing = sorted(set(declared) - set(emit(r, declared)))
            if missing:
                problems.append(f"{workload} trace={int(trace)}: metrics not emitted: {missing}")
            if not r["correct"]:
                problems.append(f"{workload} trace={int(trace)}: gate failed: {r['failures']}")
            if not trace:
                w = inputs.WORKLOADS[workload]
                flipped = "separated" if w.status == gate.EXISTS else gate.EXISTS
                wrong = gate.Expectation(status=flipped, force_fit=w.force_fit)
                caught = sum(1 for op in r["ops"] if gate.op_failures(op, wrong))
                if caught != r["attempted"]:
                    problems.append(f"{workload}: a wrong reference verdict failed only "
                                    f"{caught} of {r['attempted']} operations")
            print(f"smoke {workload} trace={int(trace)}: {r['attempted']} operations, "
                  f"{len(emit(r, declared))} metrics")
    for p in problems:
        print("SMOKE FAILED: " + p, file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*inputs.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.smoke:
            return smoke()
        declared = declared_metrics()[args.trace]
        names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"perfbench: error: {err}", file=sys.stderr)
        return 2
    report(records, bool(args.trace), declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
