"""In-memory span tracer that wraps felogit's public functions from outside.

Each target is replaced, at its module attribute and in every felogit module
that imported the same object, by a wrapper that records a span (name,
start, end, parent span, operation id, command) and adds size counters taken
from the call's arguments and result. The package itself is never edited,
and ``uninstall`` puts the original objects back. A target that no longer
exists is skipped, so its metrics are absent instead of crashing the run.

Generators (``attribute_batches``) get one span per ``next()``, so only the
time spent producing items is charged to them, not the consumer's loop body.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

SPAN, COUNT_ONLY, GENERATOR = "span", "count", "generator"


def _informative_alternatives(data) -> int:
    T = data.T
    return sum(math.comb(T, int(k)) for k in data.choice_totals if 0 < k < T)


def _rank_rows(tracer, args, result):
    # rows of the stacked centered matrices handed to the SVD, over all probes
    return {"detector.rank_check.rows": len(result.probes) * _informative_alternatives(args[0])}


def _qp_counts(tracer, args, result):
    iters, flag = result[3], result[4]
    return {
        "kernels.qp_minimize.iterations": iters,
        "kernels.qp_minimize.row_iters": iters * args[0].shape[0],
        "kernels.qp_minimize.stationary": int(flag == tracer.qp_stationary),
    }


def _dedup_counts(tracer, args, result):
    # only the panel test's constraint set counts; the pooled test dedups too
    if tracer.parent_name() == "detector.qp_problem_from_panel":
        return {"detector.constraints_raw": args[0].shape[0]}
    return {}


def _batch_counts(tracer, item):
    part, alts, attrs = item[0], item[1], item[2]
    alternatives = len(part) * alts.shape[0]
    return {"altsets.alternatives": alternatives,
            "altsets.attr_bytes": alternatives * attrs.shape[2] * 8}


# (module, attribute, kind, counters). Metric prefix: module name without "_".
TARGETS = [
    ("panel", "load_csv", SPAN, lambda t, a, r: {"panel.load_csv.rows": r.n * r.T}),
    ("panel", "informative_subset", SPAN, lambda t, a, r: {"panel.informative_n": r[0].n}),
    ("altsets", "attribute_batches", GENERATOR, _batch_counts),
    ("altsets", "observed_row_index", COUNT_ONLY, None),
    ("detector", "rank_check", SPAN, _rank_rows),
    ("detector", "qp_problem_from_panel", SPAN,
     lambda t, a, r: {"detector.constraints": r.size}),
    ("detector", "_dedup_nonzero", COUNT_ONLY, _dedup_counts),
    ("detector", "detect_panel_separation", SPAN, None),
    ("detector", "detect_pooled_separation", SPAN, None),
    ("_kernels", "qp_minimize", SPAN, _qp_counts),
    ("_kernels", "logdenom_batch", SPAN,
     lambda t, a, r: {"kernels.logdenom_batch.rows": a[0].shape[0]}),
    ("estimator", "conditional_loglik", SPAN, None),
    ("estimator", "conditional_score_and_hessian", SPAN, None),
    ("estimator", "fit", SPAN, lambda t, a, r: {"estimator.newton_iterations": r.iterations}),
    ("simulate", "generate_panel", SPAN, None),
    ("simulate", "existence_rate", SPAN, None),
    ("cli", "main", SPAN, None),
]


class Tracer:
    """Spans and counters of the traced operations of one worker process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op, cmd]
        self.counts: dict[tuple, float] = defaultdict(float)  # (op, cmd, name) -> sum
        self.op = None
        self.cmd = None
        self.qp_stationary = 1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------
    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, self.cmd])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _add(self, name, value=1):
        self.counts[(self.op, self.cmd, name)] += value

    def _add_all(self, counters, *args):
        if counters is not None:
            for key, value in counters(self, *args).items():
                self._add(key, value)

    # -- wrappers --------------------------------------------------------
    def _wrap_span(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._add(name + ".calls")
            self._add_all(counters, args, result)
            return result
        return traced

    def _wrap_count(self, name, fn, counters):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._add(name + ".calls")
            self._add_all(counters, args, result)
            return result
        return counted

    def _wrap_generator(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._add(name + ".calls")
            return self._drive(name, fn(*args, **kwargs), counters)
        return traced

    def _drive(self, name, gen, counters):
        while True:
            idx = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self._add_all(counters, item)
            yield item

    # -- patching --------------------------------------------------------
    def install(self) -> list[str]:
        """Patch every target that exists; returns the names of missing ones."""
        self.qp_stationary = getattr(sys.modules.get("felogit._kernels"), "QP_STATIONARY", 1)
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "felogit" or k.startswith("felogit."))]
        missing = []
        for mod_name, attr, kind, counters in TARGETS:
            original = getattr(sys.modules.get(f"felogit.{mod_name}"), attr, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            name = f"{mod_name.lstrip('_')}.{attr}"
            wrap = {SPAN: self._wrap_span, GENERATOR: self._wrap_generator,
                    COUNT_ONLY: self._wrap_count}[kind]
            wrapper = wrap(name, original, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        return missing

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------
    def per_op(self):
        """Per-operation metrics and per-command self times.

        Returns ``(metrics, self_times)``: ``metrics[op][name]`` holds
        inclusive seconds (``.s``), self seconds (``.self_s``) and counter
        sums; ``self_times[op][cmd][span name]`` the self seconds per command.
        A span's self time is its duration minus its children's durations
        (spans nest strictly: one thread, wrappers close in LIFO order).
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, cmd in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        metrics = defaultdict(lambda: defaultdict(float))
        self_times = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for i, (name, t0, t1, parent, op, cmd) in enumerate(self.spans):
            own = (t1 - t0) - child[i]
            metrics[op][name + ".s"] += t1 - t0
            metrics[op][name + ".self_s"] += own
            self_times[op][cmd][name] += own
        for (op, cmd, name), value in self.counts.items():
            metrics[op][name] += value
        for m in metrics.values():
            if m.get("detector.constraints_raw"):
                m["detector.dedup_ratio"] = m["detector.constraints"] / m["detector.constraints_raw"]
            if m.get("kernels.qp_minimize.calls"):
                m["kernels.qp_minimize.separated_share"] = (
                    m["kernels.qp_minimize.stationary"] / m["kernels.qp_minimize.calls"])
        return metrics, self_times
