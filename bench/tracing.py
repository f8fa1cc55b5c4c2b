"""Spans around the public functions of every ``qcdist`` module.

The tracer replaces each public module-level function by a wrapper under
every name a module looks it up by (``qcdist.distances.channel_apply_ext``
is the same function object as ``qcdist.simulate.channel_apply_ext``), so
calls between modules are recorded without editing the package.  Each call
appends one span ``[name, start_ns, end_ns, parent, instance, outermost]``
to an in-memory list; spans are written out when the run ends.  A few
wrappers also read counts off arguments or results (restarts, Kraus ranks,
trials, gates); a count whose attribute no longer exists is left out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "jsonutil", "circuits", "reductions", "simulate", "dilation",
          "distances", "linalg", "protocol")

#: Per-layer metrics: (name, unit, better).  ``<fn>.calls`` counts calls,
#: ``<fn>.busy_s`` is time inside outermost calls, ``<fn>.self_s`` that time
#: minus the time of the wrapped calls it made.
PER_LAYER = [
    ("distances.diamond_norm.calls", "count", "lower"),
    ("distances.diamond_norm.busy_s", "s", "lower"),
    ("distances.diamond_norm.self_s", "s", "lower"),
    ("distances.restarts_used", "count", "lower"),
    ("distances.restarts_ratio", "ratio", "lower"),
    ("distances.unconverged", "count", "lower"),
    ("distances.helstrom.calls", "count", "lower"),
    ("distances.helstrom.busy_s", "s", "lower"),
    ("linalg.spectral.calls", "count", "lower"),
    ("linalg.spectral.busy_s", "s", "lower"),
    ("simulate.channel_apply_ext.calls", "count", "lower"),
    ("simulate.channel_apply_ext.busy_s", "s", "lower"),
    ("simulate.adjoint_apply_ext.calls", "count", "lower"),
    ("simulate.adjoint_apply_ext.busy_s", "s", "lower"),
    ("simulate.choi_of.calls", "count", "lower"),
    ("simulate.choi_of.busy_s", "s", "lower"),
    ("simulate.choi_of.self_s", "s", "lower"),
    ("simulate.simulate.calls", "count", "lower"),
    ("simulate.simulate.busy_s", "s", "lower"),
    ("simulate.kraus_rank", "count", "lower"),
    ("simulate.kraus_rank_ratio", "ratio", "lower"),
    ("simulate.apply_extended.busy_s", "s", "lower"),
    ("protocol.optimal_prover_witness.busy_s", "s", "lower"),
    ("protocol.run_protocol.busy_s", "s", "lower"),
    ("protocol.trials", "count", "higher"),
    ("protocol.trial_us", "us", "lower"),
    ("dilation.dilate.busy_s", "s", "lower"),
    ("dilation.dilated_isometry.calls", "count", "lower"),
    ("dilation.dilated_isometry.busy_s", "s", "lower"),
    ("dilation.wires_max", "count", "lower"),
    ("distances.max_image_fidelity.calls", "count", "lower"),
    ("distances.max_image_fidelity.busy_s", "s", "lower"),
    ("distances.max_image_fidelity.self_s", "s", "lower"),
    ("jsonutil.dumps.busy_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("circuits.parse_circuit.calls", "count", "lower"),
    ("circuits.parse_circuit.busy_s", "s", "lower"),
    ("circuits.serialize_circuit.busy_s", "s", "lower"),
    ("circuits.validate.busy_s", "s", "lower"),
    ("circuits.gates_parsed", "count", "lower"),
    ("reductions.ci_to_qcd.busy_s", "s", "lower"),
    ("reductions.parity_mix.busy_s", "s", "lower"),
    ("reductions.tensor_power.busy_s", "s", "lower"),
    ("reductions.polarize.busy_s", "s", "lower"),
    ("reductions.gates_emitted", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

_REDUCTIONS = ("reductions.ci_to_qcd", "reductions.parity_mix",
               "reductions.tensor_power", "reductions.polarize")


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """In-memory span recorder plus the counts read at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: list[int] = []
        self.instance = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.rank_ratios: list[float] = []
        self.ranks: list[int] = []
        self.wrapped: set[str] = set()
        self._patches: list[tuple] = []
        self.instance_id = self.name_id("bench.instance")  # spans the runner opens
        self.command_id = self.name_id("bench.command")

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.depth.append(0)
        return len(self.names) - 1

    def begin(self, name_id: int) -> list:
        rec = [name_id, time.perf_counter_ns(), 0,
               self.stack[-1] if self.stack else -1, self.instance,
               self.depth[name_id] == 0]
        self.depth[name_id] += 1
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self.stack.pop()
        self.depth[rec[0]] -= 1

    def _ancestor_named(self, names) -> bool:
        ids = {i for i, n in enumerate(self.names) if n in names}
        for idx in self.stack:
            if self.spans[idx][0] in ids:
                return True
        return False

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        """Wrap every public function of the layer modules in place."""
        modules = []
        for layer in LAYERS:
            try:
                modules.append(importlib.import_module(f"qcdist.{layer}"))
            except ModuleNotFoundError:  # a removed layer: its metrics are left out
                pass
        modules.append(importlib.import_module("qcdist"))
        for mod in modules[:-1]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, _OBSERVERS.get(name))
                self.wrapped.add(name)
                for holder in modules:
                    for alias, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, alias, fn))
                            setattr(holder, alias, wrapper)

    def uninstall(self) -> None:
        for holder, alias, fn in reversed(self._patches):
            setattr(holder, alias, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn, observe):
        nid = self.name_id(name)
        spans, stack, depth, clock = self.spans, self.stack, self.depth, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):  # begin() and end() inlined: this runs per call
            d = depth[nid]
            rec = [nid, clock(), 0, stack[-1] if stack else -1, self.instance, d == 0]
            depth[nid] = d + 1
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                depth[nid] = d
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass
            return result

        return wrapper

    # ----------------------------------------------------------- reporting

    def _table(self):
        """Spans as int64 columns (name, start, end, parent, outermost),
        with each span's duration and self time in ns."""
        arr = np.array([s[:4] + [s[5]] for s in self.spans], dtype=np.int64).reshape(-1, 5)
        dur = (arr[:, 2] - arr[:, 1]).astype(np.float64)
        parent = arr[:, 3]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(arr))
        return arr, dur, dur - child

    def layer_times(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name."""
        arr, dur, self_t = self._table()
        name, k = arr[:, 0], len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur * (arr[:, 4] != 0), minlength=k)
        selfs = np.bincount(name, weights=self_t, minlength=k)
        return {
            n: {"calls": int(calls[i]), "busy_s": busy[i] * 1e-9, "self_s": selfs[i] * 1e-9}
            for i, n in enumerate(self.names)
        }

    def metrics(self, overhead_s: float, overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric whose wrapped function still exists."""
        times = self.layer_times()
        c = self.counts
        protocol_s = times.get("protocol.run_protocol", {}).get("busy_s", 0.0)
        derived = {  # metric: (wrapped function it is read from, value)
            "distances.restarts_used": ("distances.diamond_norm", c["restarts_used"]),
            "distances.restarts_ratio": ("distances.diamond_norm",
                                         c["restarts_used"] / max(c["restarts_requested"], 1)),
            "distances.unconverged": ("distances.diamond_norm", c["unconverged"]),
            "simulate.kraus_rank": ("simulate.choi_of", np.mean(self.ranks or [0])),
            "simulate.kraus_rank_ratio": ("simulate.choi_of", np.mean(self.rank_ratios or [0])),
            "protocol.trials": ("protocol.run_protocol", c["trials"]),
            "protocol.trial_us": ("protocol.run_protocol", 1e6 * protocol_s / max(c["trials"], 1)),
            "dilation.wires_max": ("dilation.dilate", c["wires_max"]),
            "cli.stdout_bytes": ("cli.main", c["stdout_bytes"]),
            "circuits.gates_parsed": ("circuits.parse_circuit", c["gates_parsed"]),
            "reductions.gates_emitted": ("reductions.ci_to_qcd", c["gates_emitted"]),
            "trace.spans": (None, len(self.spans)),
            "trace.overhead_s": (None, overhead_s),
            "trace.overhead_ratio": (None, overhead_ratio),
        }
        out = {}
        for metric, _, _ in PER_LAYER:
            if metric in derived:
                source, value = derived[metric]
            else:
                source, field = metric.rsplit(".", 1)
                value = times.get(source, {}).get(field, 0)
            if source is None or source in self.wrapped:
                out[metric] = float(value)
        return out

    def write_spans(self, path: Path) -> None:
        """One CSV row per span: name, start_ns, end_ns, parent, instance, self_ns."""
        _, _, self_t = self._table()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,instance,self_ns\n")
            for s, self_ns in zip(self.spans, self_t):
                fh.write(f"{self.names[s[0]]},{s[1]},{s[2]},{s[3]},{s[4]},{int(self_ns)}\n")


# ------------------------------------------------------------- observers


def _observe_diamond(tr: Tracer, args, kwargs, result) -> None:
    cfg = _arg(args, kwargs, 2, "cfg")
    if cfg is None:
        from qcdist.distances import OptimizerConfig

        cfg = OptimizerConfig()
    tr.counts["restarts_requested"] += cfg.restarts
    tr.counts["restarts_used"] += result.restarts_used
    tr.counts["unconverged"] += not result.converged


def _observe_maxfid(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["unconverged"] += not result.converged


def _observe_choi(tr: Tracer, args, kwargs, result) -> None:
    rank = len(result.kraus)
    tr.ranks.append(rank)
    tr.rank_ratios.append(rank / (result.dim_in * result.dim_out))


def _observe_dilate(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["wires_max"] = max(tr.counts["wires_max"], result.n_wires)


def _observe_protocol(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["trials"] += _arg(args, kwargs, 3, "trials")


def _observe_parse(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["gates_parsed"] += len(result.gates)


def _observe_reduction(tr: Tracer, args, kwargs, result) -> None:
    # polarize calls parity_mix and tensor_power: count only the outermost
    if not tr._ancestor_named(_REDUCTIONS):
        tr.counts["gates_emitted"] += sum(len(c.gates) for c in result if hasattr(c, "gates"))


_OBSERVERS = {
    "distances.diamond_norm": _observe_diamond,
    "distances.max_image_fidelity": _observe_maxfid,
    "simulate.choi_of": _observe_choi,
    "dilation.dilate": _observe_dilate,
    "protocol.run_protocol": _observe_protocol,
    "circuits.parse_circuit": _observe_parse,
    **{name: _observe_reduction for name in _REDUCTIONS},
}
