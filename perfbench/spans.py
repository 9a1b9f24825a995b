"""Outside-in tracing: spans around each layer's public entry points.

Nothing in the program is edited.  :class:`Tracer` replaces the entry
points of every layer with wrappers (on the classes and modules the
program already exposes) before any stack is built, so bound methods
captured by the wiring resolve to the wrappers.  Each wrapper records
a span: its duration, minus the part covered by child spans, is the
layer's *self time*.  Counts are taken at the same boundaries.

Timer callbacks scheduled through a stack clock (``SimClock`` or
``LoopClock``) run outside any entry point, so they are attributed to
the layer whose span scheduled them.  Everything no span covers is the
remainder: the simulator's own loop on the sim workloads, the asyncio
loop and the load generator on the net workload.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# Sublayer classes map to a layer by the module that defines them.
SUBLAYER_LAYERS = (
    ("repro.transport.sublayered.osr", "transport.osr"),
    ("repro.transport.sublayered.rd", "transport.rd"),
    ("repro.transport.sublayered.cm", "transport.cm"),
    ("repro.transport.sublayered.cm_timer", "transport.cm"),
    ("repro.transport.sublayered.dm", "transport.dm"),
    ("repro.datalink.arq", "datalink.arq"),
    ("repro.datalink.errordetect", "datalink.errordetect"),
    ("repro.datalink.framing", "datalink.framing"),
    ("repro.phys", "phys.encoding"),
)

# Layers whose spans may schedule a timer that is theirs to run.
TIMER_OWNERS = ("transport.", "datalink.", "phys.")


class Tracer:
    """Span and count bookkeeping for one traced process."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_s = 0.0
        self.access_logs: list[Any] = []
        self._stack: list[list[Any]] = []
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def span(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so every call records one span of ``layer``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_s += duration

        return traced

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so every call bumps ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def current_layer(self) -> str | None:
        """The layer of the innermost open span, if any."""
        return self._stack[-1][0] if self._stack else None

    # ------------------------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, original))

    def wrap_method(self, cls: type, name: str, layer: str) -> None:
        """Trace ``cls.name`` as a span of ``layer``."""
        self._set(cls, name, self.span(layer, cls.__dict__[name]))

    def wrap_function(self, function: Any, layer: str) -> None:
        """Trace a module-level function everywhere it is imported."""
        traced = self.span(layer, function)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._set(module, attr, traced)

    def restore(self) -> None:
        """Put every wrapped entry point back."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's entry points (call before building stacks)."""
        import repro.datalink  # noqa: F401  (registers the sublayer classes)
        import repro.phys  # noqa: F401
        import repro.transport.sublayered  # noqa: F401
        from repro.core import instrument
        from repro.core.bits import Bits
        from repro.core.header import HeaderFormat
        from repro.core.stack import Stack
        from repro.core.sublayer import Sublayer
        from repro.net.clock import LoopClock
        from repro.net.codec import WireCodec
        from repro.net.endpoint import UDPEndpoint
        from repro.network.router import Router
        from repro.sim.engine import SimClock, Simulator
        from repro.topo import links, region, spec

        for name in ("send", "receive", "send_batch", "receive_batch"):
            self.wrap_method(Stack, name, "core.wiring")
        for cls in _subclasses(Sublayer):
            layer = _sublayer_layer(cls)
            if layer is None:
                continue
            for name, value in list(cls.__dict__.items()):
                if not name.startswith("_") and inspect.isfunction(value):
                    self.wrap_method(cls, name, layer)
        self.wrap_method(HeaderFormat, "pack_bytes", "core.header.pack")
        self.wrap_method(HeaderFormat, "unpack_bytes", "core.header.unpack")
        self.wrap_method(WireCodec, "encode", "net.codec.encode")
        self.wrap_method(WireCodec, "decode", "net.codec.decode")
        self.wrap_method(UDPEndpoint, "datagram_received", "net.endpoint.recv")
        self.wrap_method(UDPEndpoint, "_transmit", "net.endpoint.send")
        self.wrap_method(Simulator, "run", "sim.engine")
        self.wrap_method(Router, "receive", "network.router")
        self.wrap_method(Router, "send_data", "network.router")
        self.wrap_method(links.FleetChannel, "send", "topo.links.send")
        self.wrap_method(region.RegionWorld, "__init__", "topo.region.build")
        self.wrap_function(spec.static_fibs, "topo.spec.fibs")

        self._set(Bits, "__init__", self.counter("bits", Bits.__dict__["__init__"]))
        self._count_state_ops(instrument)
        for clock_cls in (SimClock, LoopClock):
            self._attribute_timers(clock_cls)

    def _count_state_ops(self, instrument: Any) -> None:
        state_cls = instrument.InstrumentedState
        self._set(
            state_cls,
            "__getattr__",
            self.counter("state_ops", state_cls.__dict__["__getattr__"]),
        )
        setattr_ = state_cls.__dict__["__setattr__"]
        reserved = state_cls._RESERVED
        counts = self.counts

        def counted_setattr(obj: Any, name: str, value: Any) -> None:
            if name not in reserved:
                counts["state_ops"] += 1
            setattr_(obj, name, value)

        self._set(state_cls, "__setattr__", counted_setattr)

        log_cls = instrument.AccessLog
        init = log_cls.__dict__["__init__"]
        logs = self.access_logs

        def registering_init(log: Any) -> None:
            init(log)
            logs.append(log)

        self._set(log_cls, "__init__", registering_init)

    def _attribute_timers(self, clock_cls: type) -> None:
        call_later = clock_cls.__dict__["call_later"]
        tracer = self

        def attributed(clock: Any, delay: float, callback: Callable[[], None]):
            layer = tracer.current_layer()
            if layer is not None and layer.startswith(TIMER_OWNERS):
                callback = tracer.span(layer, callback)
            return call_later(clock, delay, callback)

        self._set(clock_cls, "call_later", attributed)

    # ------------------------------------------------------------------
    def harvest_access_records(self) -> int:
        """Records held by every recording AccessLog made since last call."""
        from repro.core.instrument import NullAccessLog

        total = sum(
            len(log.records)
            for log in self.access_logs
            if not isinstance(log, NullAccessLog)
        )
        self.access_logs.clear()
        return total


def _subclasses(cls: type) -> list[type]:
    found: list[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _sublayer_layer(cls: type) -> str | None:
    for prefix, layer in SUBLAYER_LAYERS:
        if cls.__module__ == prefix or cls.__module__.startswith(prefix + "."):
            return layer
    return None
