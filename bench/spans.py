"""In-memory span recorder and the statistics the benchmark reports.

A span is (name, start, end, parent span, request id). Spans are recorded
only in traced runs, by wrapping public mmray functions from outside the
package: every module attribute bound to the original function is rebound
to the wrapper, and restored by `uninstall`.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# Span name -> (defining module, attribute). The layer is the part before the dot.
TRACED = {
    "tracer.enumerate_paths": ("mmray.tracer", "enumerate_paths"),
    "antenna.gain": ("mmray.antenna", "gain"),
    "channel.run_sweep_grid": ("mmray.channel", "run_sweep_grid"),
    "channel.delay_spread_table": ("mmray.channel", "delay_spread_table"),
    "channel.impulse_response": ("mmray.channel", "impulse_response"),
    "channel.received_power": ("mmray.channel", "received_power"),
    "channel.power_delay_profile": ("mmray.channel", "power_delay_profile"),
    "channel.rms_delay_spread": ("mmray.channel", "rms_delay_spread"),
    "channel.mean_excess_delay": ("mmray.channel", "mean_excess_delay"),
    "cli.run_sweep_command": ("mmray.cli", "run_sweep_command"),
    "cli.run_table_command": ("mmray.cli", "run_table_command"),
    "cli.write_sweep_csvs": ("mmray.cli", "write_sweep_csvs"),
}
PATCHED_MODULES = ("mmray", "mmray.tracer", "mmray.channel", "mmray.cli",
                   "mmray.antenna", "mmray.scene")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p % of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(1, _rank(p, len(ordered))) - 1]


def _rank(p: float, n: int) -> int:
    # Rounded first so that, for example, 99.9 % of 10000 is rank 9990, not 9991.
    return math.ceil(round(p * n / 100.0, 9))


def tail_percentile(n: int, candidates: Sequence[float] = (50, 90, 99, 99.9, 99.99)
                    ) -> Optional[float]:
    """Highest candidate percentile that leaves at least ten samples beyond it."""
    best = None
    for p in candidates:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Spans come from one call stack, so a span's children lie inside it and
    do not overlap each other: the covered part is the sum of their durations.
    """
    duration = np.asarray(end, np.int64) - np.asarray(start, np.int64)
    parent = np.asarray(parent, np.int64)
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def duct_candidates(env, max_order: int) -> int:
    """Image-method candidates of one trace: direct, S singles, ordered non-coplanar pairs."""
    from mmray.tracer import _frames  # the tracer's own coplanarity rule

    frames = _frames(env)
    count = 1
    if max_order >= 1:
        count += len(frames)
    if max_order >= 2:
        count += sum(1 for a in frames for b in frames
                     if a is not b and not a.coplanar_with(b))
    return count


# ---------------------------------------------------------------------------
# Span recorder
# ---------------------------------------------------------------------------

class Trace:
    """Spans in compact arrays plus per-pass counters set by result hooks."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.passes: List[Tuple[int, int, Dict[str, int]]] = []
        self.request_id = -1
        self.cells_per_path = 0
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._pass_start = 0
        self._undo: List[tuple] = []
        self._candidates: Dict[tuple, tuple] = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             hook: Optional[Callable] = None) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every module attribute that holds a traced function."""
        hooks = {"tracer.enumerate_paths": self._on_paths,
                 "cli.write_sweep_csvs": self._on_csvs}
        modules = [sys.modules[m] for m in PATCHED_MODULES]
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(name, original, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._undo):
            setattr(m, key, original)
        self._undo.clear()

    def _on_paths(self, args, kwargs, paths) -> None:
        env = args[0]
        max_order = kwargs.get("max_order", args[3] if len(args) > 3 else 2)
        key = (id(env), max_order)
        cached = self._candidates.get(key)
        if cached is None or cached[0] is not env:
            # The entry keeps env alive, so its id cannot be reused by another.
            cached = self._candidates[key] = (env, duct_candidates(env, max_order))
        c = self.counters
        c["tracer.paths"] += len(paths)
        c["tracer.nocov"] += not paths
        c["tracer.candidates"] += cached[1]
        c["channel.tap_cells"] += len(paths) * self.cells_per_path

    def _on_csvs(self, args, kwargs, files) -> None:
        self.counters["cli.csv_bytes"] += sum(Path(f).stat().st_size for f in files)

    def begin_pass(self) -> None:
        self._pass_start = len(self.start)
        self.counters = defaultdict(int)

    def end_pass(self) -> None:
        self.passes.append((self._pass_start, len(self.start), dict(self.counters)))

    # -- analysis ----------------------------------------------------------

    def pass_summaries(self) -> List[Dict[str, float]]:
        """Per-pass totals: span counts, busy and self seconds per span name."""
        name = np.frombuffer(self.name, np.int32)
        start = np.frombuffer(self.start, np.int64)
        end = np.frombuffer(self.end, np.int64)
        busy = (end - start) * 1e-9
        own = self_times(start, end, np.frombuffer(self.parent, np.int32)) * 1e-9
        k = len(self.names)
        out = []
        for lo, hi, counters in self.passes:
            s: Dict[str, float] = defaultdict(float)
            s.update(counters)
            ids = name[lo:hi]
            calls = np.bincount(ids, minlength=k)
            busy_s = np.bincount(ids, busy[lo:hi], minlength=k)
            self_s = np.bincount(ids, own[lo:hi], minlength=k)
            for i, span in enumerate(self.names):
                s[span + ".calls"] = int(calls[i])
                s[span + ".busy_s"] = float(busy_s[i])
                s[span + ".self_s"] = float(self_s[i])
            out.append(s)
        return out

    def dump(self, path: Path) -> None:
        """Write every span once: names, and per span name id, start and end
        (ns from the first span), parent span index (-1 for none) and request id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        start = np.frombuffer(self.start, np.int64)
        base = start.min() if start.size else 0
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, np.int32), start_ns=start - base,
                 end_ns=np.frombuffer(self.end, np.int64) - base,
                 parent=np.frombuffer(self.parent, np.int32),
                 request=np.frombuffer(self.request, np.int32))
