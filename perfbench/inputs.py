"""Seeded inputs of the three workloads, drawn by the benchmark itself.

The panels follow the same data-generating process as ``felogit simulate``
(standard-normal covariates, normal individual effects, logistic noise), but
with the benchmark's own numpy draw, so a later change to the program cannot
change what the benchmark feeds it. Floats are written with ``repr`` so the
CSV round-trips exactly.

Every operation runs ``check`` and ``fit`` on the workload's CSV and then one
``simulate`` call, so every metric exists on every workload; the workloads
differ in which of those dominates:

* ``wide``  -- 100 000 rows, n=20 000, T=5, p=2: CSV parsing and
  per-individual Python overhead dominate.
* ``long``  -- 7 000 rows, n=500, T=14, p=3: enumerating the alternative sets
  (constraint build, rank probes, QP over ~870k rows, Hessian) dominates.
* ``sim``   -- ``simulate --n 10 --T 4 --p 2 --beta0 2,-1`` over thousands of
  tiny problems, where fixed per-call costs dominate. It has no CSV of its
  own: ``check`` and ``fit --force`` read the bundled 30-row separated panel
  (``--force`` so that Newton runs, as the README demonstrates on that file).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class PanelDesign:
    n: int
    T: int
    beta0: tuple[float, ...]

    @property
    def p(self) -> int:
        return len(self.beta0)


# The simulate design of the sim workload. Its inputs are a fixed bank of
# `--seed` values, each recorded with SIM_REPS replications in reference.json;
# a run walks the bank in an order drawn from the benchmark seed. Single
# replications have a heavy-tailed cost (a separated panel can take the QP
# thousands of iterations), so drawing fresh seeds per run would make the
# per-replication time depend on which rare panels a seed happens to hit.
SIM_ARGS = ("--n", "10", "--T", "4", "--p", "2", "--beta0", "2,-1")
SIM_REPS = 20
SIM_BANK = 256


@dataclass(frozen=True)
class Workload:
    name: str
    panel: PanelDesign | None        # None: the bundled separated panel
    status: str                      # verdict of check and fit on the CSV
    beta0_tolerance: float | None    # |beta_hat - beta0| bound, where n makes it meaningful
    force_fit: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide", PanelDesign(20_000, 5, (1.0, -0.5)), "exists_unique", 0.05),
        Workload("long", PanelDesign(500, 14, (1.0, -0.5, 0.25)), "exists_unique", None),
        Workload("sim", None, "separated", None, force_fit=True),
    )
}

# Tiny sizes for the self-test; same code paths, a few seconds in all.
SMOKE_PANELS = {
    "wide": PanelDesign(400, 5, (1.0, -0.5)),
    "long": PanelDesign(30, 14, (1.0, -0.5, 0.25)),
    "sim": None,
}


def draw_panel(design: PanelDesign, seed: int):
    """(x, y): (n, T, p) covariates and (n, T) 0/1 outcomes, deterministic in seed."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((design.n, design.T, design.p))
    effects = rng.standard_normal(design.n)  # effect scale 1
    noise = rng.logistic(size=(design.n, design.T))
    y = (x @ np.asarray(design.beta0) + effects[:, None] + noise > 0).astype(np.int8)
    return x, y


def write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    n, T, p = x.shape
    lines = ["id,t,y," + ",".join(f"x{j}" for j in range(1, p + 1))]
    for i in range(n):
        for t in range(T):
            cells = ",".join(repr(float(v)) for v in x[i, t])
            lines.append(f"{i + 1},{t + 1},{int(y[i, t])},{cells}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sim_seed_order(workload: str, seed: int) -> list[int]:
    """Bank entries used by successive operations.

    On sim the order is a permutation drawn from the seed. On wide and long
    every operation repeats bank seed 0, a fixed probe: with a handful of
    operations per run, a median over different bank seeds would follow the
    heavy-tailed cost of whichever seeds the run reached.
    """
    if workload == "sim":
        return [int(v) for v in np.random.default_rng(seed).permutation(SIM_BANK)]
    return [0]
