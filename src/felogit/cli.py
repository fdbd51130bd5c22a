"""Command-line front end: check, fit, pooled-check, simulate.

Exit codes: 0 the estimate exists (or the command succeeded), 1 input or
usage error, 2 separated data, 3 rank condition failed, 4 non-convergence
of a forced fit. JSON payloads serialize floats with 17 significant digits
so parse(serialize(x)) round-trips exactly.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .detector import (
    STATUS_EXISTS,
    STATUS_RANK_DEFICIENT,
    STATUS_SEPARATED,
    DEFAULT_QP_MAX_ITER,
    DEFAULT_QP_TOL,
    ExistenceReport,
    detect_panel_separation,
    detect_pooled_separation,
)
from .errors import FelogitError, NonexistenceError
from .estimator import DEFAULT_NEWTON_MAX_ITER, CmleFit, fit
from .panel import load_csv
from .simulate import FrequencyReport, SimConfig, existence_rate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SEPARATED = 2
EXIT_RANK = 3
EXIT_NONCONVERGED = 4

_STATUS_EXIT = {
    STATUS_EXISTS: EXIT_OK,
    STATUS_SEPARATED: EXIT_SEPARATED,
    STATUS_RANK_DEFICIENT: EXIT_RANK,
}

_BANNER = {
    STATUS_EXISTS: "EXISTS",
    STATUS_SEPARATED: "SEPARATED",
    STATUS_RANK_DEFICIENT: "RANK-DEFICIENT",
}

# banner and reason of a forced fit, by the gate status that refused it
_SPURIOUS = {
    STATUS_SEPARATED: ("separated data", "no finite maximizer exists here"),
    STATUS_RANK_DEFICIENT: ("rank condition failed",
                            "the estimate is not identified here"),
}


class _Float17Encoder(json.JSONEncoder):
    """json.JSONEncoder that prints floats with 17 significant digits."""

    def iterencode(self, o, _one_shot=False):
        markers = {} if self.check_circular else None
        if self.ensure_ascii:
            encoder = json.encoder.encode_basestring_ascii
        else:
            encoder = json.encoder.encode_basestring

        def floatstr(x, allow_nan=self.allow_nan):
            if x != x or x in (float("inf"), float("-inf")):
                if not allow_nan:
                    raise ValueError(f"out-of-range float: {x!r}")
                return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")
            text = format(x, ".17g")
            if "." not in text and "e" not in text:
                text += ".0"  # keep integral floats typed as JSON floats
            return text

        iterencode = json.encoder._make_iterencode(
            markers, self.default, encoder, self.indent, floatstr,
            self.key_separator, self.item_separator, self.sort_keys,
            self.skipkeys, _one_shot,
        )
        return iterencode(o, 0)


def dumps_payload(payload: dict) -> str:
    return json.dumps(payload, cls=_Float17Encoder, indent=2)


def _existence_payload(report: ExistenceReport) -> dict:
    rank = None
    if report.rank is not None:
        rank = {
            "rank_ok": report.rank.rank_ok,
            "p": report.rank.p,
            "probes": [
                {
                    "beta": pr.beta.tolist(),
                    "singular_values": pr.singular_values.tolist(),
                    "rank": pr.rank,
                }
                for pr in report.rank.probes
            ],
        }
    return {
        "status": report.status,
        "qp_min": report.qp_min,
        "direction": None if report.direction is None else report.direction.tolist(),
        "iterations": report.iterations,
        "n_constraints": report.n_constraints,
        "tolerance": report.tolerance,
        "kkt_tolerance": report.kkt_tolerance,
        "kkt_margin": report.kkt_margin,
        "dropped_noninformative": report.dropped_noninformative,
        "rank": rank,
        "message": report.message,
    }


def _fit_payload(result: CmleFit) -> dict:
    return {
        "beta_hat": result.beta_hat.tolist(),
        "std_errors": result.std_errors.tolist(),
        "loglik": result.loglik,
        "gradient_norm": result.gradient_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "spurious": result.gate.status != STATUS_EXISTS,
        "diagnostic": result.diagnostic,
        "trace": [
            {
                "iteration": s.iteration,
                "loglik": s.loglik,
                "score_sup": s.score_sup,
                "step_size": s.step_size,
                "beta_norm": s.beta_norm,
            }
            for s in result.trace
        ],
        "gate": _existence_payload(result.gate),
    }


def _simulate_payload(report: FrequencyReport) -> dict:
    cfg = report.config
    return {
        "config": {
            "n": cfg.n,
            "T": cfg.T,
            "p": cfg.p,
            "beta0": cfg.beta0.tolist(),
            "effect_scale": cfg.effect_scale,
            "replications": cfg.replications,
            "seed": cfg.seed,
        },
        "panel": {
            "exists": report.panel_exists,
            "status": report.panel_status,
            "qp_min": report.panel_qp_min,
            "exists_fraction": report.panel_exists_fraction,
            "qp_min_mean": report.panel_qp_min_mean,
        },
        "pooled": {
            "exists": report.pooled_exists,
            "status": report.pooled_status,
            "qp_min": report.pooled_qp_min,
            "exists_fraction": report.pooled_exists_fraction,
            "qp_min_mean": report.pooled_qp_min_mean,
        },
    }


def _wrap(command: str, input_path, options: dict, **payload) -> dict:
    return {
        "tool": "felogit",
        "version": __version__,
        "command": command,
        "input": None if input_path is None else str(input_path),
        "options": options,
        **payload,
    }


def _emit(args, payload: dict, text: str) -> None:
    if args.output == "json":
        print(dumps_payload(payload))
    else:
        print(text)


def _vec(v, fmt: str = ".6g") -> str:
    return "[" + ", ".join(format(x, fmt) for x in v) + "]"


def _existence_text(report: ExistenceReport, heading: str) -> str:
    lines = [f"{_BANNER[report.status]}: {heading}"]
    if report.message:
        lines.append(f"  note: {report.message}")
    if report.qp_min is not None:
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


def _status_heading(status: str, panel: bool) -> str:
    scope = "conditional ML estimate" if panel else "pooled logit ML estimate"
    if status == STATUS_EXISTS:
        return f"a unique finite {scope} exists"
    if status == STATUS_SEPARATED:
        return f"the data are separated; no finite {scope} exists"
    return f"the rank condition failed; the {scope} is not identified"


def cmd_check(args) -> int:
    """``check`` (the panel detector) and ``pooled-check`` (the pooled one)."""
    data = load_csv(args.csv)
    panel = args.command == "check"
    detect = detect_panel_separation if panel else detect_pooled_separation
    report = detect(data, tol=args.tol, max_iter=args.max_iter)
    options = {"tol": args.tol, "max_iter": args.max_iter}
    payload = _wrap(args.command, args.csv, options, existence=_existence_payload(report))
    _emit(args, payload, _existence_text(report, _status_heading(report.status, panel)))
    return _STATUS_EXIT[report.status]


def _fit_text(result: CmleFit) -> str:
    lines = []
    if result.gate.status != STATUS_EXISTS:
        banner, reason = _SPURIOUS[result.gate.status]
        lines.append(f"SPURIOUS: {banner}")
        lines.append(
            f"  {reason}; the numbers below are artifacts"
            " of the stopping rule, not estimates"
        )
    else:
        lines.append("FIT: conditional maximum likelihood estimate")
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
    options = {"force": args.force, "tol": args.tol, "max_iter": args.max_iter}
    try:
        result = fit(data, force=args.force, tol=args.tol, max_iter=args.max_iter)
    except NonexistenceError as err:
        report = err.report
        payload = _wrap(
            "fit", args.csv, options,
            existence=_existence_payload(report), fit=None, refused=True,
        )
        text = _existence_text(report, _status_heading(report.status, True))
        text += (
            "\nrefusing to estimate: no finite maximizer exists, so any fitted"
            " numbers would describe the solver, not the data (use --force to"
            " see them anyway)"
        )
        _emit(args, payload, text)
        return _STATUS_EXIT[report.status]
    payload = _wrap(
        "fit", args.csv, options,
        existence=_existence_payload(result.gate), fit=_fit_payload(result), refused=False,
    )
    _emit(args, payload, _fit_text(result))
    if not result.converged:
        return EXIT_NONCONVERGED
    return EXIT_OK


def _simulate_text(report: FrequencyReport) -> str:
    cfg = report.config
    lines = [
        "SIMULATION: existence frequencies",
        f"  design: n={cfg.n} T={cfg.T} p={cfg.p} beta0={_vec(cfg.beta0)}"
        f" effect_scale={cfg.effect_scale:g} replications={cfg.replications} seed={cfg.seed}",
        f"  panel detector: exists fraction {report.panel_exists_fraction:.4g}"
        + (
            f", mean qp_min {report.panel_qp_min_mean:.4g}"
            if report.panel_qp_min_mean is not None
            else ""
        ),
        f"  pooled detector: exists fraction {report.pooled_exists_fraction:.4g}"
        + (
            f", mean qp_min {report.pooled_qp_min_mean:.4g}"
            if report.pooled_qp_min_mean is not None
            else ""
        ),
    ]
    if cfg.replications == 1:
        lines.append(f"  panel exists: {report.panel_exists[0]}")
        lines.append(f"  pooled exists: {report.pooled_exists[0]}")
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
    report = existence_rate(config, tol=args.tol)
    options = {"tol": args.tol}
    payload = _wrap("simulate", None, options, simulate=_simulate_payload(report))
    _emit(args, payload, _simulate_text(report))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; remap to 1 so that 2
    stays reserved for the separated verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _checked(convert, valid, requirement: str):
    """argparse type: ``convert`` the text, then require ``valid`` of the value."""
    def parse(text: str):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid float value: ..."
    return parse


_tolerance = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_iteration_cap = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _add_common(sub):
    sub.add_argument("--tol", type=_tolerance, default=DEFAULT_QP_TOL,
                     help="decision tolerance on the QP minimum")
    sub.add_argument("--output", choices=("text", "json"), default="text")


def _add_check(commands, name: str, help_text: str) -> None:
    sub = commands.add_parser(name, help=help_text)
    sub.add_argument("csv")
    _add_common(sub)
    sub.add_argument("--max-iter", type=_iteration_cap, default=DEFAULT_QP_MAX_ITER,
                     help="cap on QP active-set steps")
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
    fit_p.add_argument("--max-iter", type=_iteration_cap, default=DEFAULT_NEWTON_MAX_ITER,
                       help="Newton iteration cap")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FelogitError, FileNotFoundError) as err:
        print(f"felogit: error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
