"""Outside-in span tracing of the ``repro`` layers for the traced run.

:class:`SpanTracer` wraps, from the benchmark's own files, the public
functions and methods of every layer package under ``src/repro``, and
every callback scheduled on (or hooked into) the simulation kernel, so
that the kernel's ``run`` span keeps only the kernel's own time.
Nothing in ``src/`` is edited and no ``repro.obs`` hook is installed:
an obs hook would pin the scalar RNIC path and explain a different
engine than the untraced run executes.

Each wrapper records a span (name, start, end, parent).  Self time is
the span's duration minus the time its child spans cover; it is
accumulated exactly while the run executes (a stack of open spans), and
the first ``span_cap`` spans are kept in memory and written out by
:meth:`SpanTracer.write_spans` when the run ends.
:func:`self_times_from_log` re-derives self time from the kept spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import pkgutil
import sys
import time
import types
from typing import Any, Callable

#: ``repro`` packages whose public entry points are wrapped.  The
#: benchmark times ``experiments`` itself (one span per experiment);
#: ``runtime`` (``--jobs``) and ``lint`` are outside the benchmark.
LAYER_PACKAGES = (
    "repro.sim", "repro.verbs", "repro.rnic", "repro.side", "repro.ml",
    "repro.telemetry", "repro.covert", "repro.host", "repro.fabric",
    "repro.faults", "repro.defense", "repro.obs", "repro.apps",
    "repro.analysis", "repro.baselines", "repro.revengine",
    "repro.traffic",
)

#: Wrapped with a call (and hit) counter but no span: called once per
#: cache lookup, a span would cost more than the lookup itself.  Their
#: time stays in the caller's span (``TranslationUnit.admit``).
COUNT_ONLY = frozenset({
    "repro.rnic.caches:SetAssocCache.access",
    "repro.rnic.caches:SetAssocCache.probe",
})

#: Span name -> ``f(args, kwargs, result)`` whose value is added to the
#: span's ``extra`` counter (WRs posted, CQEs polled, fast-path
#: messages taken, cache hits, samples ingested, epochs trained).
EXTRA: dict[str, Callable[[tuple, dict, Any], int]] = {
    "repro.verbs.qp:QueuePair.post_send_batch":
        lambda args, kwargs, result: len(args[1]),
    "repro.verbs.cq:CompletionQueue.poll":
        lambda args, kwargs, result: len(result),
    "repro.rnic.batch:try_fast_path":
        lambda args, kwargs, result: int(bool(result)),
    "repro.rnic.caches:SetAssocCache.access":
        lambda args, kwargs, result: int(bool(result)),
    "repro.defense.service:DetectorBankService.ingest_slots":
        lambda args, kwargs, result: len(args[1]),
    "repro.ml.train:Trainer.fit":
        lambda args, kwargs, result: int(kwargs.get("epochs", args[3]
                                                    if len(args) > 3 else 0)),
}

#: Spans whose every duration is kept, for percentiles.
KEEP_DURATIONS = frozenset({"repro.side.snoop:TraceSynthesizer.trace"})

_MISSING = object()
_SPAN_MARK = "__perfbench_span__"


def layer_of(span_name: str) -> str:
    """The layer a span belongs to, from its module: ``repro.<pkg>``
    maps to ``<pkg>``; ``rnic`` splits into translation, caches,
    counters and the pipeline (everything else in ``repro.rnic``)."""
    module = span_name.split(":", 1)[0]
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "rnic":
        sub = parts[2] if len(parts) > 2 else ""
        if sub in ("translation", "caches", "counters"):
            return f"rnic.{sub}"
        return "rnic.pipeline"
    return parts[1]


def _span_name(fn: Any) -> str:
    return f"{fn.__module__}:{fn.__qualname__}"


def _layer_modules() -> list[types.ModuleType]:
    modules = []
    for package_name in LAYER_PACKAGES:
        package = importlib.import_module(package_name)
        modules.append(package)
        for info in pkgutil.walk_packages(getattr(package, "__path__", []),
                                          package_name + "."):
            modules.append(importlib.import_module(info.name))
    return modules


def _wrappable_class(cls: type) -> bool:
    import enum

    return not (issubclass(cls, (enum.Enum, BaseException)))


class SpanTracer:
    """Span recorder that installs wrappers on entry and removes every
    one of them on :meth:`uninstall` (it is also a context manager)."""

    def __init__(self, span_cap: int = 200_000) -> None:
        #: span name -> [calls, inclusive s, self s, extra count]
        self.stats: dict[str, list] = {}
        #: span name -> every duration (s), for :data:`KEEP_DURATIONS`
        self.durations: dict[str, list[float]] = {}
        #: kernel events fired inside wrapped ``run``/``step`` calls
        self.events = 0
        self.schedules = 0
        self.span_cap = span_cap
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._log_name = array.array("q")
        self._log_id = array.array("q")
        self._log_parent = array.array("q")
        self._log_start = array.array("d")
        self._log_end = array.array("d")
        self._stack: list[list] = []
        self._next_id = [0]
        self._patches: list[tuple[Any, str, Any]] = []
        self._callback_names: dict[Any, str] = {}
        self._installed = False

    # ------------------------------------------------------------------
    # Span machinery
    # ------------------------------------------------------------------
    @property
    def spans_recorded(self) -> int:
        return self._next_id[0]

    def _stat(self, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0]
        return stat

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def span(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped to record one span per call under ``name``."""
        stat = self._stat(name)
        name_id = self._name_id(name)
        extra = EXTRA.get(name)
        keep = (self.durations.setdefault(name, [])
                if name in KEEP_DURATIONS else None)
        stack = self._stack
        next_id = self._next_id
        cap = self.span_cap
        clock = time.perf_counter
        log_name, log_id = self._log_name.append, self._log_id.append
        log_parent = self._log_parent.append
        log_start, log_end = self._log_start.append, self._log_end.append

        def wrapper(*args, **kwargs):
            span_id = next_id[0]
            next_id[0] = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span_id < cap:
                    log_name(name_id)
                    log_id(span_id)
                    log_parent(parent)
                    log_start(start)
                    log_end(end)
            if extra is not None:
                stat[3] += extra(args, kwargs, result)
            if keep is not None:
                keep.append(elapsed)
            return result

        setattr(wrapper, _SPAN_MARK, True)
        return wrapper

    def _counter(self, fn: Callable, name: str) -> Callable:
        stat = self._stat(name)
        extra = EXTRA.get(name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            stat[0] += 1
            if extra is not None:
                stat[3] += extra(args, kwargs, result)
            return result

        setattr(wrapper, _SPAN_MARK, True)
        return wrapper

    def _wrap_entry(self, fn: types.FunctionType) -> Callable:
        name = _span_name(fn)
        make = self._counter if name in COUNT_ONLY else self.span
        return functools.wraps(fn)(make(fn, name))

    def wrap_callback(self, callback: Any) -> Any:
        """A kernel callback wrapped in a span named after the function
        it runs.  The wrapper carries the callback's ``__qualname__``
        (or type name), the only attribute the kernel's determinism
        digest and the ``repro.obs`` tracer read from a callback, so
        observers see the same labels as in an untraced run."""
        if callback is None or getattr(callback, _SPAN_MARK, False):
            return callback
        target = getattr(callback, "__func__", callback)
        target = getattr(target, "func", target)      # functools.partial
        key = (getattr(target, "__code__", None)
               or getattr(target, "__qualname__", None) or type(target))
        name = self._callback_names.get(key)
        if name is None:
            module = getattr(target, "__module__", None) or \
                type(target).__module__
            qualname = getattr(target, "__qualname__",
                               type(target).__qualname__)
            name = self._callback_names[key] = f"{module}:{qualname}"
        wrapped = self.span(callback, name)
        wrapped.__qualname__ = getattr(callback, "__qualname__",
                                       type(callback).__name__)
        return wrapped

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _wrap_class(self, cls: type) -> None:
        for attr, value in list(cls.__dict__.items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, types.FunctionType):
                self._patch(cls, attr, self._wrap_entry(value))
            elif isinstance(value, (staticmethod, classmethod)) and \
                    isinstance(value.__func__, types.FunctionType):
                self._patch(cls, attr,
                            type(value)(self._wrap_entry(value.__func__)))

    def _wrap_simulator(self) -> None:
        from repro.sim.kernel import Simulator

        tracer = self
        wrap_callback = self.wrap_callback

        def scheduling(method_name: str) -> Callable:
            original = getattr(Simulator, method_name)

            def schedule(sim, when, callback, *args, **kwargs):
                tracer.schedules += 1
                return original(sim, when, wrap_callback(callback),
                                *args, **kwargs)
            return schedule

        def counting(method_name: str) -> Callable:
            original = getattr(Simulator, method_name)

            def run(sim, *args, **kwargs):
                before = sim.events_fired
                try:
                    return original(sim, *args, **kwargs)
                finally:
                    tracer.events += sim.events_fired - before
            return self.span(run, f"repro.sim.kernel:Simulator.{method_name}")

        set_hook = Simulator._set_trace_hook

        def set_trace_hook(sim, hook):
            return set_hook(sim, wrap_callback(hook))

        self._patch(Simulator, "schedule", scheduling("schedule"))
        self._patch(Simulator, "schedule_at", scheduling("schedule_at"))
        self._patch(Simulator, "run", counting("run"))
        self._patch(Simulator, "step", counting("step"))
        self._patch(Simulator, "_set_trace_hook", set_trace_hook)

    def install(self) -> "SpanTracer":
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        from repro.sim import event as sim_event
        from repro.sim import kernel as sim_kernel

        replaced: dict[int, Callable] = {}
        for module in _layer_modules():
            if module in (sim_event, sim_kernel):
                continue   # the kernel is wrapped on Simulator itself
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or \
                        getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    if _wrappable_class(value):
                        self._wrap_class(value)
                elif isinstance(value, types.FunctionType):
                    replaced[id(value)] = self._wrap_entry(value)
        # rebind every ``from x import f`` copy of a wrapped function
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro.") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and \
                        id(value) in replaced:
                    self._patch(module, attr, replaced[id(value)])
        self._wrap_simulator()
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._installed = False

    def __enter__(self) -> "SpanTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def spans(self) -> dict[str, Any]:
        """The kept spans as parallel arrays, ordered by span id."""
        import numpy as np

        order = np.argsort(np.frombuffer(self._log_id, dtype=np.int64),
                           kind="stable")
        return {
            "names": np.asarray(self.names, dtype=str),
            "name": np.frombuffer(self._log_name, dtype=np.int64)[order],
            "id": np.frombuffer(self._log_id, dtype=np.int64)[order],
            "parent": np.frombuffer(self._log_parent, dtype=np.int64)[order],
            "start": np.frombuffer(self._log_start, dtype=np.float64)[order],
            "end": np.frombuffer(self._log_end, dtype=np.float64)[order],
        }

    def write_spans(self, path) -> None:
        import numpy as np

        np.savez_compressed(path, total=self.spans_recorded, **self.spans())


def self_times_from_log(spans: dict[str, Any]) -> dict[str, float]:
    """Self time per span name from kept spans: each span's duration
    minus its children's.  Equals the tracer's online self time when
    no span was dropped by the cap."""
    duration = spans["end"] - spans["start"]
    index = {int(span_id): pos for pos, span_id in enumerate(spans["id"])}
    own = duration.copy()
    for pos, parent in enumerate(spans["parent"]):
        if parent >= 0 and int(parent) in index:
            own[index[int(parent)]] -= duration[pos]
    totals: dict[str, float] = {}
    for pos, name_id in enumerate(spans["name"]):
        name = str(spans["names"][name_id])
        totals[name] = totals.get(name, 0.0) + float(own[pos])
    return totals
