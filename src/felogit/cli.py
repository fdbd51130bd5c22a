"""Command-line front end: check, fit, pooled-check, simulate.

Exit codes: 0 the estimate exists (or the command succeeded), 1 input or
usage error (or out of memory, or a QP that took its step cap undecided),
2 separated data, 3 rank condition failed, 4 ``fit`` did not converge: a
forced fit on a gated panel, or Newton at its fixed cap of 100 iterations
(:data:`felogit.estimator.DEFAULT_NEWTON_MAX_ITER`). No command takes a
tuning option: the existence checks' QP threshold (1e-8) and step cap
(100 000) are fixed in :mod:`felogit.detector`, and ``fit`` takes only
``--force``. JSON payloads spell each float as its shortest round-trip
``repr``, so parse(serialize(x)) is exact and re-serializing is byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .detector import (
    STATUS_EXISTS,
    STATUS_RANK_DEFICIENT,
    STATUS_SEPARATED,
    ExistenceReport,
    detect_panel_separation,
    detect_pooled_separation,
)
from .errors import FelogitError, NonexistenceError
from .estimator import CmleFit, fit
from .panel import load_csv
from .simulate import DetectorFrequencies, FrequencyReport, SimConfig, existence_rate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SEPARATED = 2
EXIT_RANK = 3
EXIT_NONCONVERGED = 4

# per gate status: exit code, banner, heading ({} names the estimate), and
# the banner and reason of a fit forced past the gate
_STATUS = {
    STATUS_EXISTS: (EXIT_OK, "EXISTS", "a unique finite {} exists", None),
    STATUS_SEPARATED: (
        EXIT_SEPARATED, "SEPARATED", "the data are separated; no finite {} exists",
        ("separated data", "no finite maximizer exists here"),
    ),
    STATUS_RANK_DEFICIENT: (
        EXIT_RANK, "RANK-DEFICIENT", "the rank condition failed; the {} is not identified",
        ("rank condition failed", "the estimate is not identified here"),
    ),
}


def dumps_payload(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _fields(record) -> dict:
    """A new dict of a record's fields in declared order, arrays as lists;
    every other value is the record's own object, not a copy."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(record).items()}


def _existence_payload(report: ExistenceReport) -> dict:
    payload = _fields(report)
    if report.rank is not None:  # the later "probes" keeps the field's place
        payload["rank"] = {"rank_ok": report.rank.rank_ok, **_fields(report.rank),
                           "probes": [_fields(pr) for pr in report.rank.probes]}
    return payload


def _fit_payload(result: CmleFit) -> dict:
    payload = _fields(result)
    payload["trace"] = [_fields(s) for s in result.trace]
    payload["gate"] = _existence_payload(result.gate)
    return payload


def _frequencies_payload(freq: DetectorFrequencies) -> dict:
    return {**_fields(freq), "exists_fraction": freq.exists_fraction,
            "qp_min_mean": freq.qp_min_mean}


def _simulate_payload(report: FrequencyReport) -> dict:
    return {name: _fields(block) if isinstance(block, SimConfig) else _frequencies_payload(block)
            for name, block in vars(report).items()}


def _wrap(command: str, input_path, options: dict, **payload) -> dict:
    return {
        "tool": "felogit",
        "version": __version__,
        "command": command,
        "input": None if input_path is None else str(input_path),
        "options": options,
        **payload,
    }


def _emit(args, payload, render) -> None:
    """Print the JSON payload that ``payload()`` builds, or the text report
    that ``render()`` formats; only the one asked for is made."""
    try:
        print(dumps_payload(payload()) if args.output == "json" else render(), flush=True)
    except BrokenPipeError:  # the reader has gone: not an error; keep the exit flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _vec(v, fmt: str = ".6g") -> str:
    return "[" + ", ".join(format(x, fmt) for x in v) + "]"


def _existence_text(report: ExistenceReport, panel: bool) -> str:
    _, banner, heading, _ = _STATUS[report.status]
    scope = "conditional ML estimate" if panel else "pooled logit ML estimate"
    lines = [f"{banner}: {heading.format(scope)}"]
    if report.message:
        lines.append(f"  note: {report.message}")
    lines.append(f"  qp minimum (normalized vectors): {report.qp_min:.6g}")
    lines.append(f"  constraint vectors: {report.n_constraints}")
    lines.append(f"  qp active-set steps: {report.iterations}")
    if report.direction is not None:
        lines.append(f"  separating direction: {_vec(report.direction)}")
        lines.append(f"  kkt margin (min w'u): {report.kkt_margin:.6g}")
    if report.rank is not None:
        ok = "ok" if report.rank.rank_ok else "FAILED"
        lines.append(
            f"  rank condition: {ok} (within-individual variation has rank"
            f" {report.rank.probes[0].rank} of p={report.rank.p})"
        )
    if report.dropped_noninformative:
        lines.append(f"  non-informative individuals dropped: {report.dropped_noninformative}")
    return "\n".join(lines)


def cmd_check(args) -> int:
    """``check`` (the panel detector) and ``pooled-check`` (the pooled one)."""
    data = load_csv(args.csv)
    panel = args.command == "check"
    detect = detect_panel_separation if panel else detect_pooled_separation
    report = detect(data)
    _emit(args, lambda: _wrap(args.command, args.csv, {}, existence=_existence_payload(report)),
          lambda: _existence_text(report, panel))
    return _STATUS[report.status][0]


def _fit_text(result: CmleFit) -> str:
    spurious = _STATUS[result.gate.status][3]
    if spurious is None:
        lines = ["FIT: conditional maximum likelihood estimate"]
    else:
        banner, reason = spurious
        lines = [f"SPURIOUS: {banner}",
                 f"  {reason}; the numbers below are artifacts of the stopping rule, not estimates"]
    width = max(5, len(str(result.beta_hat.shape[0])) + 1)
    lines.append(f"  {'coef':<{width + 2}} estimate        std. error")
    for j, (b, s) in enumerate(zip(result.beta_hat, result.std_errors), start=1):
        lines.append(f"  x{j:<{width}} {b:>14.8g}  {s:>14.8g}")
    lines.append(f"  log-likelihood: {result.loglik:.8g}")
    lines.append(f"  score sup-norm: {result.gradient_norm:.3g}")
    lines.append(f"  iterations: {result.iterations}")
    lines.append(f"  converged: {result.converged}")
    if result.diagnostic:
        lines.append(f"  diagnostic: {result.diagnostic}")
    return "\n".join(lines)


def cmd_fit(args) -> int:
    data = load_csv(args.csv)
    options = {"force": args.force}
    try:
        result = fit(data, force=args.force)
    except NonexistenceError as err:
        report = err.report
        _emit(args, lambda: _wrap("fit", args.csv, options, existence=_existence_payload(report),
                                  fit=None, refused=True),
              lambda: _existence_text(report, panel=True) + (
                  "\nrefusing to estimate: no finite maximizer exists, so any fitted"
                  " numbers would describe the solver, not the data (use --force to"
                  " see them anyway)"
              ))
        return _STATUS[report.status][0]
    _emit(args, lambda: _wrap("fit", args.csv, options, existence=_existence_payload(result.gate),
                              fit=_fit_payload(result), refused=False),
          lambda: _fit_text(result))
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _simulate_text(report: FrequencyReport) -> str:
    cfg = report.config
    lines = [
        "SIMULATION: existence frequencies",
        f"  design: n={cfg.n} T={cfg.T} p={cfg.p} beta0={_vec(cfg.beta0)}"
        f" effect_scale={cfg.effect_scale:g} replications={cfg.replications} seed={cfg.seed}",
    ]
    sides = (("panel", report.panel), ("pooled", report.pooled))
    for name, freq in sides:
        mean = "" if freq.qp_min_mean is None else f", mean qp_min {freq.qp_min_mean:.4g}"
        lines.append(f"  {name} detector: exists fraction {freq.exists_fraction:.4g}{mean}")
    if cfg.replications == 1:
        lines += [f"  {name} exists: {freq.exists[0]}" for name, freq in sides]
    return "\n".join(lines)


def cmd_simulate(args, parser: argparse.ArgumentParser) -> int:
    try:
        beta0 = np.array([float(v) for v in args.beta0.split(",")])
    except ValueError:
        parser.error(f"--beta0 must be a comma-separated list of numbers, got {args.beta0!r}")
    try:
        config = SimConfig(
            n=args.n, T=args.T, p=args.p, beta0=beta0,
            effect_scale=args.effect_scale, replications=args.reps, seed=args.seed,
        )
    except ValueError as err:
        parser.error(str(err))
    report = existence_rate(config)
    _emit(args, lambda: _wrap("simulate", None, {}, simulate=_simulate_payload(report)),
          lambda: _simulate_text(report))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; remap to 1 so that 2
    stays reserved for the separated verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--output", choices=("text", "json"), default="text")


def _add_check(commands, name: str, help_text: str) -> None:
    sub = commands.add_parser(name, help=help_text)
    sub.add_argument("csv")
    _add_common(sub)
    sub.set_defaults(handler=cmd_check)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="felogit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"felogit {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    _add_check(commands, "check", "existence check for the conditional estimate")

    fit_p = commands.add_parser("fit", help="gated conditional ML fit")
    fit_p.add_argument("csv")
    fit_p.add_argument("--force", action="store_true",
                       help="estimate even when the existence check fails")
    _add_common(fit_p)
    fit_p.set_defaults(handler=cmd_fit)

    _add_check(commands, "pooled-check", "cross-sectional separation check on stacked rows")

    sim = commands.add_parser("simulate", help="existence-failure frequency experiment")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--T", type=int, required=True)
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--beta0", type=str, required=True,
                     help="comma-separated true coefficient vector of length p")
    sim.add_argument("--effect-scale", type=float, default=1.0)
    sim.add_argument("--reps", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0,
                     help="seed of the simulated draws")
    _add_common(sim)
    sim.set_defaults(handler=lambda a: cmd_simulate(a, sim))

    return parser


_parser = functools.cache(build_parser)  # one parser per process; parse_args keeps no state


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FelogitError, OSError) as err:
        print(f"felogit: error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as err:
        print(f"felogit: error: out of memory: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
