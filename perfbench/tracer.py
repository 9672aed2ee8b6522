"""Spans and counters recorded from outside the program.

The benchmark wraps public functions at each module boundary of the
program and records one span per call: name, parent span, start and end. A span's
self time is its duration minus the time its child spans cover, so the self
times of every span under a phase sum exactly to that phase's duration.

Wrappers pass arguments, return values and exceptions through unchanged.
A hook whose module or function no longer exists is reported as absent,
so the benchmark keeps running against refactored code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

PHASE_LAYER = "phase"


@dataclass(frozen=True)
class Hook:
    """One public function to wrap, and the layer its time belongs to.

    `count_only` hooks count calls without recording spans; use them for
    functions called hundreds of thousands of times per run. `probe`, when
    given, is called as probe(tracer, args, kwargs, result) after each
    successful call and adds counts with tracer.add(). `epoch_value`, when
    given, names the value that keeps the last loss the function reports
    through its public on_epoch(epoch, loss) callback.
    """

    layer: str
    module: str
    qualname: str
    count_only: bool = False
    probe: Callable | None = None
    epoch_value: str | None = None

    @property
    def name(self) -> str:
        return f"{self.module.rpartition('.')[2]}.{self.qualname}"


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children.

    `parent[i]` is the index of span i's parent, or -1 for a root span.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - children


def phase_of(parent, is_phase) -> np.ndarray:
    """Index of each span's innermost enclosing phase span (itself if a phase), or -1.

    Spans are numbered in the order they open, so a parent precedes its children.
    """
    out = np.full(len(parent), -1, dtype=np.int64)
    for i, p in enumerate(parent):
        if is_phase[i]:
            out[i] = i
        elif p >= 0:
            out[i] = out[p]
    return out


class Tracer:
    """Phase timer for every run, plus call spans and counts when hooks are installed."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount=1) -> None:
        self.counts[counter] += amount

    @contextmanager
    def phase(self, name: str):
        """Time one benchmark phase (experiment, train, score) as a span."""
        idx = self._open(self._intern(name, PHASE_LAYER))
        try:
            yield
        finally:
            self._close(idx)

    def timed(self, phase: str, fn):
        """fn wrapped so that each call is timed as one span of the named phase."""
        @functools.wraps(fn)
        def phase_wrapper(*args, **kwargs):
            with self.phase(phase):
                return fn(*args, **kwargs)
        return phase_wrapper

    # -- wrapping --------------------------------------------------------

    def install(self, hooks) -> None:
        """Wrap each hook's function wherever its package's modules bind it."""
        for hook in hooks:
            owner, attr, original = _resolve(hook)
            if original is None:
                self.absent.append(hook.name)
                continue
            wrapper = self._wrapper(hook, original)
            if owner is not None:  # a method: patch the class attribute
                self._patch(owner, attr, original, wrapper)
                continue
            package = hook.module.split(".")[0]
            for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == package]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    def _patch(self, obj, key, original, wrapper) -> None:
        self._patches.append((obj, key, original))
        setattr(obj, key, wrapper)

    def _wrapper(self, hook: Hook, fn):
        name = hook.name
        calls = f"{name}:calls"
        raised = f"{name}:raised:"
        probe = hook.probe
        counts = self.counts

        if hook.count_only:
            @functools.wraps(fn)
            def count_wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)
            return count_wrapper

        nid = self._intern(name, hook.layer)

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            counts[calls] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[raised + type(exc).__name__] += 1
                raise
            finally:
                self._close(idx)
            if probe is not None:
                self._run_probe(hook, args, kwargs, result)
            return result

        if hook.epoch_value is not None:
            return self._with_epoch_losses(hook, fn, span_wrapper)
        return span_wrapper

    def _run_probe(self, hook, args, kwargs, result) -> None:
        # A probe reads attributes of the program's objects; when a refactor
        # renames one, the counter goes absent instead of failing the run.
        try:
            hook.probe(self, args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError):
            if f"{hook.name}:probe" not in self.absent:
                self.absent.append(f"{hook.name}:probe")

    def _with_epoch_losses(self, hook: Hook, fn, wrapped):
        """Keep the last epoch loss the function passes to its on_epoch callback."""
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        if signature is None or "on_epoch" not in signature.parameters:
            self.absent.append(f"{hook.name}:on_epoch")
            return wrapped

        @functools.wraps(fn)
        def epoch_wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            callers_callback = bound.arguments.get("on_epoch")

            def on_epoch(epoch, loss):
                self.values[hook.epoch_value] = float(loss)
                if callers_callback is not None:
                    callers_callback(epoch, loss)

            bound.arguments["on_epoch"] = on_epoch
            return wrapped(*bound.args, **bound.kwargs)
        return epoch_wrapper

    # -- summaries -------------------------------------------------------

    def arrays(self):
        """(name index, parent, start, end, self time) per span, as numpy arrays."""
        parent = np.frombuffer(self.span_parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        names = np.frombuffer(self.span_name, dtype=np.int32).astype(np.int64)
        return names, parent, start, end, self_times(parent, start, end)

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        names, _, start, end, self_s = self.arrays()
        n = len(self.names)
        incl = np.bincount(names, weights=end - start, minlength=n)
        excl = np.bincount(names, weights=self_s, minlength=n)
        calls = np.bincount(names, minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, name in enumerate(self.names)}

    def layer_self_by_phase(self):
        """{phase name: {layer: self seconds}}; a phase's own self time is its residual."""
        names, parent, _, _, self_s = self.arrays()
        layer_of = np.array(self.layers, dtype=object)
        is_phase = layer_of[names] == PHASE_LAYER if names.size else np.zeros(0, dtype=bool)
        phase = phase_of(parent, is_phase)
        out: dict[str, dict[str, float]] = {}
        for i in range(names.size):
            if phase[i] < 0:
                continue
            phase_name = self.names[names[phase[i]]]
            layer = "residual" if is_phase[i] else self.layers[names[i]]
            bucket = out.setdefault(phase_name, {})
            bucket[layer] = bucket.get(layer, 0.0) + float(self_s[i])
        return out

    def phase_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        names, _, start, end, _ = self.arrays()
        return float((end - start)[names == nid].sum())


def _resolve(hook: Hook):
    """(owning class or None, attribute name, function) for a hook; function None if absent."""
    try:
        module = importlib.import_module(hook.module)
    except ImportError:
        return None, None, None
    owner = None
    obj = module
    parts = hook.qualname.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None, None, None
        owner = obj
    fn = getattr(obj, parts[-1], None)
    if not callable(fn):
        return None, None, None
    return owner, parts[-1], fn
