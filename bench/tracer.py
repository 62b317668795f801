"""Layer spans for ``hmts``, recorded from outside the package.

The tracer replaces public functions at the places the package looks
them up: module attributes (in every ``hmts`` module that binds the same
function object, which covers ``from .rates import operating_points``),
the entries of ``pairing.STRATEGIES`` and the methods of
``sim.PairRateCache`` and ``sim.GainReport``.  Each call records a span
(layer, start, end, parent span) in flat arrays kept in memory; the
spans are written out when the run ends.  Counts and self times (span
duration minus the time its child spans cover) are derived from them.

A name that the package no longer has is reported as not measured, and
the run goes on: its end-to-end numbers stay valid.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer -> (module, attribute)
_ATTRIBUTES = {
    "cli.main": ("cli", "main"),
    "capacity.stream_mutual_information": ("capacity", "stream_mutual_information"),
    "capacity.estimate_threshold": ("capacity", "estimate_threshold"),
    "rates.operating_points": ("rates", "operating_points"),
    "rates.max_min_weighted": ("rates", "max_min_weighted"),
    "rates.ts_rate_two": ("rates", "ts_rate_two"),
    "channel.generate_population": ("channel", "generate_population"),
    "sim.run_trial": ("sim", "run_trial"),
    "sim.summarize": ("sim", "summarize"),
}
# layer -> (module, class, method)
_METHODS = {
    "sim.pair_rate": ("sim", "PairRateCache", "pair_rate"),
    "sim.best_single_rate": ("sim", "PairRateCache", "best_single_rate"),
    "sim.report.to_csv": ("sim", "GainReport", "to_csv"),
    "sim.report.summary_to_csv": ("sim", "GainReport", "summary_to_csv"),
}
# layer -> key of pairing.STRATEGIES, the table the simulation looks up
_STRATEGIES = {
    "pairing.strategy_a": "A",
    "pairing.strategy_b": "B",
    "pairing.strategy_c": "C",
    "pairing.strategy_d": "D",
}
# writing report.csv and summary.csv, plus summarize
_REPORT_PARTS = ("sim.report.to_csv", "sim.report.summary_to_csv", "sim.summarize")

# per-layer metrics: name -> unit
METRICS = {
    "capacity.stream_mutual_information.calls": "count",
    "capacity.stream_mutual_information.self_s": "s",
    "capacity.estimate_threshold.calls": "count",
    "capacity.estimate_threshold.self_s": "s",
    "capacity.mi_evals_per_threshold": "count",
    **{f"pairing.strategy_{k}.{m}": u for k in "abcd" for m, u in (("calls", "count"), ("self_s", "s"))},
    "sim.pair_rate.calls": "count",
    "sim.pair_rate.self_s": "s",
    "sim.pair_rate.hit_ratio": "ratio",
    "sim.best_single_rate.calls": "count",
    "sim.best_single_rate.self_s": "s",
    "rates.operating_points.calls": "count",
    "rates.operating_points.self_s": "s",
    "rates.max_min_weighted.calls": "count",
    "rates.max_min_weighted.self_s": "s",
    "channel.generate_population.calls": "count",
    "channel.generate_population.self_s": "s",
    "sim.run_trial.calls": "count",
    "sim.run_trial.self_s": "s",
    "sim.report.self_s": "s",
    "rates.ts_rate_two.calls": "count",
    "cli.main.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.round_starts: list[int] = []
        self.not_measured: list[str] = []
        self._stack = [-1]  # indices of the open spans
        self._undo = []

    # -- installing -----------------------------------------------------

    def _wrap(self, layer: str, fn):
        layer_id = len(self.layers)
        self.layers.append(layer)
        ids, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(starts)
            ids.append(layer_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every layer of the imported ``hmts`` package."""
        modules = {name[5:]: mod for name, mod in list(sys.modules.items())
                   if name.startswith("hmts.") and mod is not None}
        for layer, (mod_name, attr) in _ATTRIBUTES.items():
            fn = getattr(modules.get(mod_name), attr, None)
            if not callable(fn):
                self.not_measured.append(layer)
                continue
            wrapper = self._wrap(layer, fn)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapper, fn)
        for layer, (mod_name, cls_name, meth) in _METHODS.items():
            cls = getattr(modules.get(mod_name), cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            if not callable(fn):
                self.not_measured.append(layer)
                continue
            self._set(cls, meth, self._wrap(layer, fn), fn)
        table = getattr(modules.get("pairing"), "STRATEGIES", None)
        for layer, key in _STRATEGIES.items():
            fn = table.get(key) if isinstance(table, dict) else None
            if not callable(fn):
                self.not_measured.append(layer)
                continue
            table[key] = self._wrap(layer, fn)
            self._undo.append(lambda t=table, k=key, f=fn: t.__setitem__(k, f))

    def _set(self, owner, name, wrapper, original) -> None:
        setattr(owner, name, wrapper)
        self._undo.append(lambda: setattr(owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def begin_round(self) -> None:
        self.round_starts.append(len(self.start))

    # -- reading --------------------------------------------------------

    def arrays(self):
        # views on the span arrays, without copies; valid while no span is added
        return (np.frombuffer(self.layer, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64), np.frombuffer(self.end, dtype=np.float64))

    def save(self, path) -> None:
        layer, parent, start, end = self.arrays()
        round_id = np.searchsorted(np.asarray(self.round_starts), np.arange(len(start)), side="right") - 1
        np.savez(path, layers=np.array(self.layers), layer=layer, parent=parent,
                 start=start, end=end, round=round_id)

    def metrics(self, rounds: int) -> dict:
        """Per-round value of every per-layer metric; None when the layer
        is not measured."""
        return derive_metrics(self.layers, *self.arrays(), rounds=rounds,
                              not_measured=self.not_measured)


def derive_metrics(layers, layer, parent, start, end, rounds, not_measured=()) -> dict:
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - covered
    ids = {name: k for k, name in enumerate(layers)}

    def spans(name):
        return None if name in not_measured or name not in ids else layer == ids[name]

    def calls(name):
        mask = spans(name)
        return None if mask is None else _per_round(int(mask.sum()), rounds)

    def self_s(*names):
        masks = [spans(n) for n in names]
        if any(m is None for m in masks):
            return None
        return float(sum(self_time[m].sum() for m in masks)) / rounds

    out = {}
    for metric in METRICS:
        layer_name, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls(layer_name)
        elif kind == "self_s":
            out[metric] = self_s(*_REPORT_PARTS) if layer_name == "sim.report" else self_s(layer_name)
    # a pair-rate lookup that calls operating_points is a cache miss
    pr, op = spans("sim.pair_rate"), spans("rates.operating_points")
    if pr is None or op is None:
        out["sim.pair_rate.hit_ratio"] = None
    else:
        n = int(pr.sum())
        misses = np.intersect1d(np.flatnonzero(pr), parent[op]).size
        out["sim.pair_rate.hit_ratio"] = (n - misses) / n if n else 0.0
    mi, est = spans("capacity.stream_mutual_information"), spans("capacity.estimate_threshold")
    if mi is None or est is None:
        out["capacity.mi_evals_per_threshold"] = None
    else:
        n_est = int(est.sum())
        under = np.isin(parent[mi], np.flatnonzero(est)).sum()
        out["capacity.mi_evals_per_threshold"] = int(under) / n_est if n_est else 0.0
    return out


def _per_round(total: int, rounds: int):
    return total // rounds if total % rounds == 0 else total / rounds
