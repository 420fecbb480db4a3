"""In-memory span tracer and the layer wrappers of the traced run.

The benchmark measures layers from the outside: it replaces each
layer's public entry points (module functions and class methods) with
wrappers that open a span on entry and close it on return.  Nothing
under ``src/`` changes, and an untraced run installs no layer wrapper.

Accounting.  Every span records its name, start, end and parent; spans
are kept in flat arrays and written out when the run ends.  Self time
is charged on one global timeline: the interval between two
consecutive span events goes to the layer of the innermost open span
of the thread that was running.  On a single thread that equals "span
time minus the time its child spans cover".  It also holds on the
thread runtime, where a rank's span stays open while the rank is
blocked and other ranks run: every thread switch happens inside a
``des.process`` handoff span on both sides, so the blocked interval is
never charged to the waiting span.  Two threads do run at once for a
moment when a rank thread finishes: it hands control back inside its
exit span and then closes that span.  A lock keeps every span event
one step of the timeline, so no interval is charged twice, though
that short overlap may go to the finishing thread's side.  Time outside any layer span (the benchmark itself, experiment
runner code, rank programs) is ``harness.unattributed_s``, so the
layers' self times plus that value add up to the traced wall time.

Span stacks are per thread because thread-runtime ranks run on OS
threads; a span opened on an empty stack takes as parent the innermost
span of the thread that handed over control.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from typing import Any, Callable

#: slot 0 of the self-time table: time outside every layer span
HARNESS = "harness"


class Tracer:
    """Span recorder with per-thread stacks and exclusive self time."""

    def __init__(self, layers: tuple[str, ...],
                 clock: Callable[[], float] = time.perf_counter):
        self.layers = (HARNESS,) + tuple(layers)
        self.layer_ids = {name: i for i, name in enumerate(self.layers)}
        #: exclusive seconds per layer (index 0 = unattributed)
        self.self_s = [0.0] * len(self.layers)
        #: spans entered from outside their own layer, per layer
        self.entries = [0] * len(self.layers)
        #: named event counters and high-water marks set by the hooks
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._local = threading.local()
        #: makes each span event one step of the timeline; uncontended
        #: except where two threads run at once (a rank thread closing
        #: its spans after it has handed control back)
        self._lock = threading.Lock()
        self._clock = clock
        self._cur_span = -1
        self._cur_layer = 0
        self._last = 0.0
        self.t0 = 0.0
        self.t1 = 0.0

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def start(self) -> None:
        self.t0 = self._last = self._clock()

    def stop(self) -> float:
        """Close the timeline; returns the traced wall seconds."""
        now = self._clock()
        self.self_s[self._cur_layer] += now - self._last
        self._last = self.t1 = now
        return self.t1 - self.t0

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def enter(self, name_id: int, layer: int, count: bool = True) -> None:
        with self._lock:
            now = self._clock()
            self.self_s[self._cur_layer] += now - self._last
            self._last = now
            stack = self._stack()
            if stack:
                parent, parent_layer = stack[-1]
            else:
                parent, parent_layer = self._cur_span, self._cur_layer
            if count and parent_layer != layer:
                self.entries[layer] += 1
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_start.append(now)
            self.span_end.append(now)
            stack.append((idx, layer))
            self._cur_span = idx
            self._cur_layer = layer

    def exit(self) -> None:
        """Close the innermost span of this thread."""
        with self._lock:
            now = self._clock()
            self.self_s[self._cur_layer] += now - self._last
            self._last = now
            stack = self._stack()
            idx, _layer = stack.pop()
            self.span_end[idx] = now
            if stack:
                self._cur_span, self._cur_layer = stack[-1]
            else:
                self._cur_span, self._cur_layer = -1, 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    # -- reading ---------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return self.self_s[self.layer_ids[layer]]

    def layer_entries(self, layer: str) -> int:
        return self.entries[self.layer_ids[layer]]

    def durations(self, name: str) -> list[float]:
        """Lengths of every span called *name* (segments included)."""
        import numpy as np

        nid = self._name_ids.get(name)
        if nid is None:
            return []
        mask = np.frombuffer(self.span_name, dtype=np.int32) == nid
        start = np.frombuffer(self.span_start, dtype=np.float64)[mask]
        end = np.frombuffer(self.span_end, dtype=np.float64)[mask]
        return (end - start).tolist()

    def write(self, path: str) -> None:
        """Write every span (name, parent, start, end) to an ``.npz``."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64) - self.t0,
            end=np.frombuffer(self.span_end, dtype=np.float64) - self.t0,
        )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def traced(tracer: Tracer, func: Callable, name: str, layer: str, *,
           before: Callable[..., None] | None = None,
           after: Callable[..., None] | None = None,
           error: Callable[..., None] | None = None) -> Callable:
    """Wrap *func* so each call is a span of *layer*.

    A generator function stays a generator function (the runtimes test
    for that): each resumption of the generator is one span segment,
    so a suspended coroutine rank holds no open span.  *before(args,
    kwargs)* runs before the call, *after(args, kwargs, result)* after
    a normal return, *error(args, kwargs, exc)* when the call raises.
    """
    nid = tracer.name_id(name)
    lid = tracer.layer_ids[layer]
    enter, exit_ = tracer.enter, tracer.exit

    if inspect.isgeneratorfunction(func):
        @functools.wraps(func)
        def gen_wrapper(*args: Any, **kwargs: Any):
            if before is not None:
                before(args, kwargs)
            gen = func(*args, **kwargs)
            value: Any = None
            exc: BaseException | None = None
            first = True
            while True:
                enter(nid, lid, first)
                first = False
                try:
                    item = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    if after is not None:
                        after(args, kwargs, stop.value)
                    return stop.value
                finally:
                    exit_()
                try:
                    value = yield item
                    exc = None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as thrown:  # noqa: BLE001 - forwarded into gen
                    value, exc = None, thrown

        return gen_wrapper

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any):
        if before is not None:
            before(args, kwargs)
        enter(nid, lid)
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            if error is not None:
                error(args, kwargs, exc)
            raise
        finally:
            exit_()
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


class Patcher:
    """Replaces attributes and puts every original back on :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def set_everywhere(self, module: object, attr: str, value: object) -> None:
        """Rebind a module function in its module and in every loaded
        ``repro`` module that imported it by name."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if mod.__dict__.get(attr) is original:
                self.set(mod, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
