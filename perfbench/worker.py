"""Benchmark worker: one fresh process that imports felogit, warms up, and
runs the closed loop of operations named in its spec file.

Started by run.py as ``python3 worker.py SPEC.json``. The spec names the
checkout root, the CSV, the simulate design and bank seeds, the time budget
and whether to trace. In ``setup`` mode the worker stops once it is ready and
prints the time it became ready. Otherwise it writes every call's exit code,
wall time and the output fields the correctness gate needs to the spec's
``result`` path, and in a traced run the spans to ``spans``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def call(cli, argv):
    """Run ``felogit <argv>`` in-process; returns (exit code, wall s, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # a raising call is a failed operation, not a crashed run
        code = None
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if error is None and err.getvalue():
        error = err.getvalue().strip()[-500:]
    return code, wall, out.getvalue(), error


def summarize(cmd, stdout):
    """The output fields the correctness gate reads, or None if stdout is not JSON."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    if cmd == "simulate":
        sim = payload["simulate"]
        return {f"{side}_{key}": value for side in ("panel", "pooled") for key, value in (
            ("exists_fraction", sim[side]["exists_fraction"]),
            ("undecided", sim[side]["status"].count("qp_did_not_converge")))}
    summary = {"status": payload["existence"]["status"]}
    if cmd == "fit":
        summary["refused"] = payload["refused"]
        fit = payload["fit"]
        if fit is not None:
            summary.update(beta_hat=fit["beta_hat"], converged=fit["converged"],
                           gradient_norm=fit["gradient_norm"], spurious=fit["spurious"])
    return summary


def operation(spec, j):
    """The (command, argv) calls of operation j: check, fit, then simulate."""
    csv = spec["csv"]
    bank = spec["bank_seeds"]
    return [
        ("check", ["check", csv, "--output", "json"]),
        ("fit", ["fit", csv, *(["--force"] if spec["force_fit"] else []), "--output", "json"]),
        ("simulate", ["simulate", *spec["sim_design"], "--reps", str(spec["sim_reps"]),
                      "--seed", str(bank[j % len(bank)]), "--output", "json"]),
    ]


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None when it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        for fn_name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Probe:
    """Fixed speed probe of the host, timed next to every call.

    On a shared host the same call can take 1.6x longer while a neighbour is
    busy, in phases of seconds to minutes. The probe (interpreter loop, dict
    build, numpy sort; ~15 ms, independent of felogit) is timed right before
    each call, so run.py can divide each call by the host speed around it.
    """

    def __init__(self):
        import numpy

        self.data = numpy.random.default_rng(0).standard_normal((100_000, 3))

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        table = {i: str(i) for i in range(10_000)}
        for _ in range(3):
            block = self.data.copy()
            block.sort(axis=0)
        del table, block
        return time.perf_counter() - start


def run_loop(spec, cli, tracer, probe):
    """Closed loop: each operation starts when the previous one has ended.

    Stops when the next operation, predicted to last as long as the previous
    one, would end past the time budget, after at least ``min_ops``. In a
    traced run every second operation is traced, so traced and untraced wall
    times come from the same process and inputs.
    """
    ops = []
    missing = []
    start = time.perf_counter()
    last = 0.0
    while len(ops) < spec["min_ops"] or time.perf_counter() - start + last <= spec["seconds"]:
        j = len(ops)
        traced = tracer is not None and j % 2 == 1
        if traced:
            missing = tracer.install()
            tracer.op = j
        op_start = time.perf_counter()
        calls = []
        for cmd, argv in operation(spec, j):
            probe_s = probe()
            if traced:
                tracer.cmd = cmd
            code, wall, stdout, error = call(cli, argv)
            calls.append({"cmd": cmd, "argv": argv, "code": code, "wall": wall, "probe": probe_s,
                          "error": error, "out": summarize(cmd, stdout)})
        last = time.perf_counter() - op_start
        if traced:
            tracer.uninstall()
        ops.append({"traced": traced, "wall": last, "calls": calls})
    return ops, missing


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    import felogit
    from felogit import cli

    root = Path(spec["root"]).resolve()
    source = Path(felogit.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"worker: felogit imported from {source}, not from {root / 'src'}", file=sys.stderr)
        return 3
    bundled = str(felogit.separated_panel_path())
    warmup = [
        call(cli, ["check", bundled, "--output", "json"])[0],
        call(cli, ["fit", bundled, "--output", "json"])[0],
        call(cli, ["simulate", *spec["sim_design"], "--reps", "1", "--output", "json"])[0],
    ]
    ready = time.monotonic()
    probe = Probe()
    if spec["mode"] == "setup":
        print(json.dumps({"ready": ready, "warmup": warmup, "probes": [probe() for _ in range(5)]}))
        return 0

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
    ops, missing = run_loop(spec, cli, tracer, probe)
    result = {
        "ready": ready,
        "warmup": warmup,
        "ops": ops,
        "probe_end": probe(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": felogit.active_backend(),
        "blas_threads": blas_threads(),
        "felogit": str(source.parent),
    }
    if tracer is not None:
        metrics, self_times = tracer.per_op()
        result.update(layer=metrics, self_times=self_times, missing_targets=missing)
        Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
