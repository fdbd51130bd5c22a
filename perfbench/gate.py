"""Correctness gate: checks only what must not change across versions.

Per operation: the verdict and exit code of ``check`` and ``fit``; that
``fit`` converged with ``gradient_norm <= 1e-8``; that ``beta_hat`` matches
the estimate recorded in reference.json (when this seed was recorded) and,
for every seed, the conditional ML estimate recomputed here by one Newton
step with an enumerated score and Hessian, both to 1e-6 relative; on wide,
that ``beta_hat`` is within 0.05 of beta0; and on the simulate call, that the
panel and pooled ``exists_fraction`` equal the recorded bank and that no
replication is newly ``qp_did_not_converge`` (see simulate_failures for the
replications that already stall at the recording commit). Constraint counts,
``qp_min``, QP iterations and the rank probes are deliberately not pinned.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"
EXISTS = "exists_unique"
STATUS_EXIT = {EXISTS: 0, "separated": 2}
EXIT_NONCONVERGED = 4
GRAD_TOL = 1e-8
BETA_RTOL = 1e-6


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def newton_correction(x: np.ndarray, y: np.ndarray, beta) -> np.ndarray:
    """Newton step from beta on the conditional log-likelihood.

    Score and Hessian come from enumerating each informative individual's
    alternative set, independently of felogit. At the maximizer the step is
    ~0; its size bounds how far beta is from the estimate.
    """
    beta = np.asarray(beta, dtype=np.float64)
    n, T, p = x.shape
    totals = y.sum(axis=1)
    score = np.zeros(p)
    info = np.zeros((p, p))
    for k in range(1, T):
        members = totals == k
        if not members.any():
            continue
        alts = np.array([[t in ones for t in range(T)] for ones in itertools.combinations(range(T), k)],
                        dtype=np.float64)
        X = x[members]
        attrs = np.einsum("rt,itp->irp", alts, X)
        e = attrs @ beta
        w = np.exp(e - e.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        mean = np.einsum("ir,irp->ip", w, attrs)
        observed = np.einsum("it,itp->ip", y[members].astype(np.float64), X)
        score += (observed - mean).sum(axis=0)
        flat = attrs.reshape(-1, p)
        info += (flat * w.reshape(-1, 1)).T @ flat - mean.T @ mean
    return np.linalg.solve(info, score)


@dataclass
class Expectation:
    """What every operation of one run must produce."""

    status: str = EXISTS
    force_fit: bool = False                     # fit --force: Newton runs whatever the verdict
    beta_recorded: list | None = None
    beta0: tuple | None = None
    beta0_tolerance: float | None = None
    bank: dict = field(default_factory=dict)   # bank seed -> recorded counts, see record.py
    bank_reps: int = 1
    panel: tuple | None = None                  # (x, y) for the Newton check
    _verified: dict = field(default_factory=dict)

    def beta_failures(self, beta_hat) -> list[str]:
        key = tuple(beta_hat)
        if key not in self._verified:
            self._verified[key] = self._check_beta(np.asarray(beta_hat))
        return self._verified[key]

    def _check_beta(self, beta) -> list[str]:
        scale = np.abs(beta).max()
        out = []
        if self.beta_recorded is not None:
            gap = np.abs(beta - np.asarray(self.beta_recorded)).max()
            if gap > BETA_RTOL * scale:
                out.append(f"beta_hat differs from the recorded estimate by {gap:.3g}")
        if self.panel is not None:
            step = np.abs(newton_correction(*self.panel, beta)).max()
            if not step <= BETA_RTOL * scale:
                out.append(f"beta_hat is {step:.3g} from the recomputed estimate")
        if self.beta0_tolerance is not None:
            gap = np.abs(beta - np.asarray(self.beta0)).max()
            if gap > self.beta0_tolerance:
                out.append(f"beta_hat is {gap:.3g} from beta0")
        return out


def call_failures(call: dict, exp: Expectation) -> list[str]:
    """Reasons one CLI call fails the gate (empty when it passes)."""
    cmd, out = call["cmd"], call["out"]
    if call["error"] is not None and call["code"] is None:
        return [f"{cmd} raised {call['error']}"]
    expected_code = 0 if cmd == "simulate" else STATUS_EXIT[exp.status]
    if cmd == "fit" and exp.force_fit and exp.status != EXISTS:
        expected_code = EXIT_NONCONVERGED
    if call["code"] != expected_code:
        return [f"{cmd} exited {call['code']}, expected {expected_code}: {call['error']}"]
    if out is None:
        return [f"{cmd} printed no JSON payload"]
    if cmd == "simulate":
        return simulate_failures(call, exp)
    if out["status"] != exp.status:
        return [f"{cmd} verdict {out['status']}, expected {exp.status}"]
    if cmd == "fit":
        if out["refused"] != (exp.status != EXISTS and not exp.force_fit):
            return [f"fit refused={out['refused']} with verdict {out['status']}"]
        if exp.status != EXISTS:
            # a forced fit on a gated panel must be flagged, never passed off as an estimate
            return [] if out["refused"] or (out["spurious"] and not out["converged"]) else [
                "forced fit on a gated panel not flagged spurious and unconverged"]
        if not out["converged"] or not out["gradient_norm"] <= GRAD_TOL:
            return [f"fit did not converge (gradient_norm {out['gradient_norm']})"]
        return exp.beta_failures(out["beta_hat"])
    return []


def simulate_failures(call: dict, exp: Expectation) -> list[str]:
    """Existence counts of both detectors against the recorded bank seed.

    A replication recorded as ``qp_did_not_converge`` is a known defect of
    the recording commit: it may stay undecided or be decided either way. Any
    other replication must keep its recorded verdict, so a new
    non-convergence, or a changed verdict, fails.
    """
    bank_seed = int(call["argv"][call["argv"].index("--seed") + 1])
    recorded = exp.bank.get(bank_seed)
    if recorded is None:
        return [f"simulate seed {bank_seed} has no recorded reference"]
    reasons = []
    for side in ("panel", "pooled"):
        exists = round(call["out"][f"{side}_exists_fraction"] * exp.bank_reps)
        undecided = call["out"][f"{side}_undecided"]
        known = recorded[f"{side}_undecided"]
        lo = recorded[f"{side}_exists"]
        if undecided > known:
            reasons.append(f"simulate seed {bank_seed}: {undecided} {side} replication(s) "
                           f"qp_did_not_converge, {known} recorded")
        elif not lo <= exists <= lo + known - undecided:
            reasons.append(f"simulate seed {bank_seed}: {side} exists_fraction "
                           f"{exists}/{exp.bank_reps}, recorded {lo}/{exp.bank_reps}")
    return reasons


def op_failures(op: dict, exp: Expectation) -> list[str]:
    return [r for call in op["calls"] for r in call_failures(call, exp)]
