"""Per-PDU span tracing across sublayer crossings, optionally sampled.

A *span* brackets one hop of the data path: "sublayer X handed this
SDU to sublayer Y, and here is everything Y did with it" — including,
because hops are synchronous, every nested hop Y triggered.  The
:class:`SpanTracer` installs itself as a stack's
:attr:`~repro.core.stack.Stack.span_hook`; parentage is tracked with a
context variable, so a segment travelling down the Fig 5 TCP stack
produces one span tree per activation with zero cooperation from the
sublayers themselves (the same trick :func:`~repro.core.instrument.acting_as`
uses for state attribution).

Each span records virtual start/end time (the stack's clock), wall
start/end time (``perf_counter``), direction, the calling and receiving
actors, and a label + id for the PDU.  Completed spans land in a
:class:`repro.sim.trace.Trace` under category ``"span"``, which gives
them the flight recorder's filtering and — important for long runs —
its ring-buffer mode with a dropped-event counter.

``SpanTracer(sample=0.01)`` turns on head sampling with tail retention
(see :mod:`repro.obs.sample`): one deterministic keep/drop decision per
activation, whole trees kept or dropped atomically, and dropped
activations retained anyway when an error escaped them or a watched
counter moved.  For a dropped crossing the hook returns ``None`` and
the compiled hop (:mod:`repro.core.wiring`) skips the context-manager
protocol entirely.  A dropped root that only an error could retain
(``tail="root"``, no ``retain``) costs less still: the hook hands back
the tracer's :class:`SkipGate`, and the hop runs the whole activation
behind it — no span object, no context variable, no hook call for any
nested crossing.  The C12 benchmark holds sampled tracing to ≤5% over
an untraced stack at ``sample=0.01``.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Any

from ..core.errors import ConfigurationError
from ..core.pdu import Pdu
from ..core.stack import Stack
from ..sim.trace import Trace
from .sample import TAIL_MODES, Activation, default_sample_rng

#: Category under which completed spans are logged in the trace.
SPAN_CATEGORY = "span"

#: The innermost live span of the current activation (parentage +
#: inherited sampling decision).
_ACTIVE_SPAN: ContextVar["_Span | None"] = ContextVar(
    "repro_obs_active_span", default=None
)


def pdu_label(sdu: Any) -> str:
    """A short human-readable description of an SDU/PDU."""
    if isinstance(sdu, Pdu):
        owners = "+".join(sdu.owners())
        return f"pdu[{owners}]"
    if isinstance(sdu, (bytes, bytearray)):
        return f"bytes[{len(sdu)}]"
    try:
        return f"{type(sdu).__name__.lower()}[{len(sdu)}]"
    except TypeError:
        return type(sdu).__name__.lower()


def _span_record(
    sid: int,
    parent: int | None,
    stack: Stack,
    direction: str,
    caller: str,
    provider: str,
    sdu: Any,
    times: tuple[float, float, float, float],
) -> dict[str, Any]:
    """One span's trace record; ``times`` is ``(t0, t1, w0, w1)``."""
    t0, t1, w0, w1 = times
    return {
        "sid": sid,
        "parent": parent,
        "stack": stack.name,
        "direction": direction,
        "caller": caller,
        "actor": provider,
        "pdu": pdu_label(sdu),
        "pdu_id": pdu_id(sdu),
        "t0": t0,
        "t1": t1,
        "w0": w0,
        "w1": w1,
    }


def pdu_id(sdu: Any) -> int:
    """An id that is stable while one PDU is wrapped/unwrapped in place.

    Headers are pushed *around* the same payload object on the way
    down, so the innermost payload's identity ties together the spans
    of one PDU's traversal of a stack.  (Across a link the PDU is
    cloned, so each host's traversal gets its own id — the causal link
    between them is the span tree, not the id.  The id is also not
    stable across *runs*, which is why sampling decisions come from a
    seeded rng, never from the id.)
    """
    if isinstance(sdu, Pdu):
        return id(sdu.payload())
    return id(sdu)


class _Span:
    """One hop's context manager: times the crossing, logs on exit."""

    __slots__ = (
        "tracer", "stack", "direction", "caller", "provider", "sdu",
        "act", "parent", "sid", "t0", "w0", "_token",
    )

    def __init__(
        self,
        tracer: "SpanTracer",
        stack: Stack,
        direction: str,
        caller: str,
        provider: str,
        sdu: Any,
        act: Activation,
        parent: int | None,
    ):
        self.tracer = tracer
        self.stack = stack
        self.direction = direction
        self.caller = caller
        self.provider = provider
        self.sdu = sdu
        self.act = act
        self.parent = parent

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.sid = tracer._next_id
        tracer._next_id += 1
        self._token = _ACTIVE_SPAN.set(self)
        act = self.act
        if self.parent is None and not act.keep and act.buffer is None:
            # Head-dropped root with tail="root" and a retain watcher:
            # open the skip gate so every nested hop bypasses the hook
            # entirely (the compiled wiring checks the gate first).
            tracer._gate.dropping = True
        self.t0 = self.stack.clock.now()
        self.w0 = time.perf_counter()
        return self

    def _record(self, virtual_end: float, wall_end: float) -> dict[str, Any]:
        """The span's trace record (built lazily: dropped unretained
        roots never pay for it)."""
        return _span_record(
            self.sid, self.parent, self.stack, self.direction, self.caller,
            self.provider, self.sdu, (self.t0, virtual_end, self.w0, wall_end),
        )

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        wall_end = time.perf_counter()
        _ACTIVE_SPAN.reset(self._token)
        act = self.act
        tracer = self.tracer
        if exc_type is not None:
            act.error = exc_type.__name__
        if act.keep:
            record = self._record(self.stack.clock.now(), wall_end)
            if exc_type is not None:
                record["error"] = exc_type.__name__
            tracer.trace.log(SPAN_CATEGORY, **record)
        elif self.parent is not None:
            # Only reachable with a tree buffer: bufferless dropped
            # children are skipped before the hook (gate) or at the
            # hook (no _Span exists).
            if act.buffer is not None:
                record = self._record(self.stack.clock.now(), wall_end)
                if exc_type is not None:
                    record["error"] = exc_type.__name__
                act.buffer.append(record)
        else:
            if act.buffer is None:
                tracer._gate.dropping = False
            tracer._finish_dropped_root(act, self, wall_end)
        return False


class SkipGate:
    """The fast path past a tracer's hook, shared by all its hooks.

    It rides on every hook the tracer hands out (``hook.gate``).  While
    ``dropping`` is True — the dynamic extent of a head-dropped root —
    the compiled hops (:mod:`repro.core.wiring`) add each crossing to
    ``skipped`` and call straight through without calling the hook.
    When the hook returns the gate itself for a root crossing, the hop
    opens it, runs the whole activation behind it and closes it again;
    an exception escaping the activation goes to ``failed`` first.
    """

    __slots__ = ("dropping", "skipped", "failed")

    def __init__(self, failed: Any):
        self.dropping = False
        #: Crossings skipped behind the gate, over the tracer's life.
        self.skipped = 0
        self.failed = failed


class SpanTracer:
    """Records a span around every data-path hop of attached stacks.

    ``sample`` < 1.0 enables deterministic head sampling with tail
    retention; ``rng`` should then be a seeded stream (e.g.
    ``RngFactory(seed).stream("obs:trace")``) so runs stay
    reproducible.  ``retain`` is an optional zero-argument callable
    (see :func:`~repro.obs.sample.watch_counters`) read at a dropped
    activation's start and end — any change retains the activation.
    ``tail`` picks what a retained activation keeps: its root span
    (``"root"``, the cheap default-off forensics) or its whole buffered
    tree (``"tree"``).
    """

    def __init__(
        self,
        trace: Trace | None = None,
        max_spans: int | None = None,
        sample: float = 1.0,
        rng: Any = None,
        retain: Any = None,
        tail: str = "tree",
    ):
        if trace is None:
            trace = Trace(max_events=max_spans)
        if not 0.0 <= sample <= 1.0:
            raise ConfigurationError(
                f"sample must be in [0, 1], got {sample!r}"
            )
        if tail not in TAIL_MODES:
            raise ConfigurationError(
                f"tail must be one of {TAIL_MODES}, got {tail!r}"
            )
        self.trace = trace
        self.sample = sample
        self.retain = retain
        self.tail = tail
        self._rng = rng if rng is not None else default_sample_rng()
        # Dropped spans not counted by the gate (see ``sampled_out``).
        self._sampled_out = 0
        #: Dropped activations kept by tail retention, by reason.
        self.retained = {"error": 0, "interest": 0}
        self._next_id = 1
        self._attached: list[Stack] = []
        self._gate = SkipGate(self._gated_root_failed)
        #: ``(stack, direction, caller, provider, sdu, sid, t0, w0)`` of
        #: the activation running behind the gate, for its error record.
        self._gated_root: tuple | None = None

    # ------------------------------------------------------------------
    def attach(self, stack: Stack) -> "SpanTracer":
        """Start tracing ``stack``; returns self for chaining."""
        span = self._span

        def hook(
            direction: str, caller: str, provider: str, sdu: Any, meta: dict
        ) -> "_Span | SkipGate | None":
            return span(stack, direction, caller, provider, sdu, meta)

        # The gate rides on the hook function itself, so stack surgery
        # (set_tier / replace / insert) that carries ``span_hook`` to a
        # recompiled plan carries the fast path along with it.
        hook.gate = self._gate
        stack.span_hook = hook
        self._attached.append(stack)
        return self

    def detach(self, stack: Stack) -> None:
        stack.span_hook = None
        if stack in self._attached:
            self._attached.remove(stack)

    def detach_all(self) -> None:
        for stack in list(self._attached):
            self.detach(stack)

    # ------------------------------------------------------------------
    def _span(
        self,
        stack: Stack,
        direction: str,
        caller: str,
        provider: str,
        sdu: Any,
        meta: dict,
    ) -> "_Span | SkipGate | None":
        """The span hook: a context manager for kept crossings, else None.

        A head-dropped root that only an error could retain gets the
        :class:`SkipGate` instead: its hop runs it behind the gate.
        """
        active = _ACTIVE_SPAN.get()
        if active is None:
            # Root of a new activation: the head decision.
            keep = self.sample >= 1.0 or self._rng.random() < self.sample
            if not keep and self.tail == "root" and self.retain is None:
                sid = self._next_id
                self._next_id = sid + 1
                self._sampled_out += 1
                self._gated_root = (
                    stack, direction, caller, provider, sdu, sid,
                    stack.clock.now(), time.perf_counter(),
                )
                return self._gate
            act = Activation(keep)
            if not keep:
                if self.tail == "tree":
                    act.buffer = []
                if self.retain is not None:
                    act.interest0 = self.retain()
            return _Span(
                self, stack, direction, caller, provider, sdu, act, None
            )
        act = active.act
        if act.keep or act.buffer is not None:
            return _Span(
                self, stack, direction, caller, provider, sdu, act, active.sid
            )
        act.skipped += 1
        return None

    @property
    def sampled_out(self) -> int:
        """Spans discarded by the sampling decision (head + unretained)."""
        return self._sampled_out + self._gate.skipped

    def _gated_root_failed(self, exc: BaseException) -> None:
        """Retain the root of a gated activation an exception escaped."""
        stack, direction, caller, provider, sdu, sid, t0, w0 = self._gated_root
        record = _span_record(
            sid, None, stack, direction, caller, provider, sdu,
            (t0, stack.clock.now(), w0, time.perf_counter()),
        )
        record["error"] = type(exc).__name__
        record["retained"] = "error"
        self.trace.log(SPAN_CATEGORY, **record)
        self.retained["error"] += 1
        self._sampled_out -= 1  # the root is kept after all

    def _finish_dropped_root(
        self, act: Activation, span: "_Span", wall_end: float
    ) -> None:
        """Tail decision for a head-dropped activation, at root exit.

        The root's record is only materialized here, and only when a
        retention reason fires — the common sampled-out exit costs no
        dict build at all.
        """
        reason = None
        if act.error is not None:
            reason = "error"
        elif self.retain is not None and self.retain() != act.interest0:
            reason = "interest"
        if reason is None:
            buffered = len(act.buffer) if act.buffer is not None else 0
            self._sampled_out += 1 + buffered + act.skipped
            return
        if act.buffer is not None:
            for record in act.buffer:
                self.trace.log(SPAN_CATEGORY, **record)
        root_record = span._record(span.stack.clock.now(), wall_end)
        if act.error is not None:
            root_record["error"] = act.error
        root_record["retained"] = reason
        self.trace.log(SPAN_CATEGORY, **root_record)
        self.retained[reason] += 1
        # Skipped crossings (tail="root") are gone even when retained.
        self._sampled_out += act.skipped

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def spans(self) -> list[dict[str, Any]]:
        """All recorded spans as plain dicts, in completion order."""
        return [
            dict(event.fields)
            for event in self.trace.events
            if event.category == SPAN_CATEGORY
        ]

    @property
    def dropped_spans(self) -> int:
        return self.trace.dropped_events

    def __len__(self) -> int:
        return sum(
            1 for event in self.trace.events if event.category == SPAN_CATEGORY
        )

    def roots(self) -> list[dict[str, Any]]:
        """Spans with no parent — one per causal activation."""
        return [s for s in self.spans() if s["parent"] is None]

    def children_of(self, sid: int) -> list[dict[str, Any]]:
        return [s for s in self.spans() if s["parent"] == sid]

    def tree(self) -> dict[int | None, list[dict[str, Any]]]:
        """Parent span id -> child spans (``None`` key holds the roots)."""
        out: dict[int | None, list[dict[str, Any]]] = {}
        for span in self.spans():
            out.setdefault(span["parent"], []).append(span)
        return out

    def actors(self) -> set[str]:
        return {s["actor"] for s in self.spans()}

    def write_jsonl(self, path: Any) -> int:
        """Dump spans to a JSON-lines file; returns the span count.

        The leading ``_meta`` record carries ``dropped_events`` when
        the ring buffer truncated the trace, plus ``sample_rate`` and
        ``sampled_out`` when sampling is on — so summaries can't
        silently mistake a sampled or truncated trace for a complete
        one.
        """
        from .export import spans_to_jsonl  # local import keeps span.py light

        meta: dict[str, Any] = {}
        if self.sample < 1.0:
            meta["sample_rate"] = self.sample
            meta["sampled_out"] = self.sampled_out
        return spans_to_jsonl(
            self.spans(), path, dropped=self.dropped_spans, meta=meta
        )
