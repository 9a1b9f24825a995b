"""Sampling machinery for :class:`~repro.obs.span.SpanTracer`.

Always-on tracing records a span per sublayer crossing — unaffordable
for the fleet-scale/throughput workloads on the roadmap.  Sampled
tracing keeps the *shape* of the data (whole causal trees, never
orphaned children) while recording only a fraction of activations:

* **Head sampling** — the keep/drop decision is made once per
  *activation* (the root crossing of a span tree: an app send, a wire
  delivery, a timer-driven retransmission) by drawing from a seeded
  ``random.Random``.  Children inherit the decision through the same
  context variable that tracks parentage, so a tree is kept or dropped
  atomically.  Seed the rng from a :class:`~repro.sim.rng.RngFactory`
  stream and the sampled span set is a pure function of the run.

* **Tail retention** — a dropped activation is not discarded until it
  *ends*: if an exception escaped it, or a watched counter (faults
  injected, frames dropped…) moved while it ran, the activation is
  retained after the fact.  ``tail="root"`` keeps just the root span
  (cheap — skipped children cost ~one dict lookup each); ``tail="tree"``
  buffers the whole tree and flushes it on retention (full recording
  cost, full forensics).

The error/interest path is exactly what the flight recorder
(:mod:`repro.obs.recorder`) wants: traces stay tiny until something
goes wrong, and the something is always in the trace.
"""

from __future__ import annotations

import fnmatch
import random
from typing import Any, Callable

from ..sim.rng import derive_seed

__all__ = ["TAIL_MODES", "Activation", "default_sample_rng", "watch_counters"]

#: Tail-retention modes: keep only the root span of a retained dropped
#: activation, or buffer and keep the whole tree.
TAIL_MODES = ("root", "tree")


class Activation:
    """Per-root sampling state shared by every span of one causal tree."""

    __slots__ = ("keep", "buffer", "error", "interest0", "skipped")

    def __init__(self, keep: bool):
        #: Head decision: record this activation's spans directly.
        self.keep = keep
        #: Span records awaiting the tail decision (``tail="tree"``).
        self.buffer: list[dict[str, Any]] | None = None
        #: Name of the exception type that escaped a span, if any.
        self.error: str | None = None
        #: The retain watcher's reading when the root span started.
        self.interest0: Any = None
        #: Crossings neither recorded nor buffered (head-sampled out)
        #: that reached the hook; the tracer's skip gate counts the rest.
        self.skipped = 0


def default_sample_rng() -> random.Random:
    """The deterministic default sampling rng.

    Seeded through :func:`~repro.sim.rng.derive_seed` like every other
    named stream, so two runs of the same workload sample the same
    activations even when the caller does not pass an rng explicitly.
    """
    return random.Random(derive_seed(0, "obs:span-sample"))


def watch_counters(
    registry: Any, *patterns: str
) -> Callable[[], float]:
    """A retain watcher summing every counter matching the globs.

    ``registry`` is duck-typed: anything with a ``counters`` name→value
    mapping (i.e. :class:`~repro.obs.metrics.MetricsRegistry`).  The
    returned callable is read twice per dropped activation (root start
    and root end); if the sum moved — a fault fired, a frame was
    dropped — the activation is retained.

    >>> tracer = SpanTracer(sample=0.01,
    ...     retain=watch_counters(registry, "*/faults_injected", "*dropped*"))
    """
    if not patterns:
        raise ValueError("watch_counters needs at least one glob pattern")

    def reading() -> float:
        counters = registry.counters
        return sum(
            value
            for name, value in counters.items()
            if any(fnmatch.fnmatch(name, pattern) for pattern in patterns)
        )

    return reading
