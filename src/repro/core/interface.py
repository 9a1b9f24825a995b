"""Narrow, typed service interfaces between adjacent sublayers.

Test **T2** of the paper: "sublayers communicate with adjacent
sublayers via a narrow interface".  Here an interface is a declared set
of :class:`Primitive` operations; at stack-assembly time each
declaration is bound to the providing sublayer as a :class:`BoundPort`.
That gives the litmus checker two measurable properties:

* **width** — the number of distinct primitives actually exercised (a
  "narrow" interface is one with few primitives carrying small values);
* **adjacency** — a sublayer may only hold ports to its immediate
  neighbours; the stack never hands out a port that skips a sublayer.

Ports and :class:`Notification` channels follow the stack's
instrumentation tier the way data-path hops do.  Each primitive (and
each notification handler) is bound once, when the stack wires its
control plane:

* with an :class:`InterfaceLog` (the ``full`` tier) the binding is a
  logging invoker: it records one :class:`InterfaceCall` — a *sublayer
  crossing*, the quantity the tuning challenge (Section 5, challenge 3)
  says must be made cheap — and runs the handler under
  :func:`~repro.core.instrument.acting_as` for the sublayer that owns
  it, so state mutations performed while servicing a request are
  attributed to the provider (its state, its responsibility);
* without a log (the ``metrics`` and ``off`` tiers) the binding *is*
  the provider's own bound ``srv_*`` method, or the user's own
  ``nf_*`` handler: no record, no context switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import ConfigurationError
from .instrument import acting_as


@dataclass(frozen=True)
class Primitive:
    """One operation in a service interface."""

    name: str
    doc: str = ""


class ServiceInterface:
    """A named set of primitives a sublayer offers to the sublayer above."""

    def __init__(self, name: str, primitives: list[Primitive]):
        names = [p.name for p in primitives]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate primitives in interface {name!r}")
        self.name = name
        self.primitives: tuple[Primitive, ...] = tuple(primitives)
        self._names = frozenset(names)

    @property
    def width(self) -> int:
        """Number of declared primitives — the static interface width."""
        return len(self.primitives)

    def has(self, primitive: str) -> bool:
        return primitive in self._names

    def __repr__(self) -> str:
        return f"ServiceInterface({self.name!r}, width={self.width})"


@dataclass(frozen=True)
class InterfaceCall:
    """One logged crossing of a sublayer interface."""

    interface: str
    primitive: str
    caller: str
    provider: str
    arg_count: int


@dataclass
class InterfaceLog:
    """Append-only log of interface crossings.

    ``enabled=False`` turns recording off — the C3 tuning benchmark's
    knob for removing per-crossing bookkeeping cost while leaving the
    architecture untouched.
    """

    records: list[InterfaceCall] = field(default_factory=list)
    enabled: bool = True

    def record(self, call: InterfaceCall) -> None:
        if self.enabled:
            self.records.append(call)

    def clear(self) -> None:
        self.records.clear()

    def crossings(self) -> int:
        """Total number of interface crossings (the C3 tuning metric)."""
        return len(self.records)

    def crossings_between(self, caller: str, provider: str) -> int:
        return sum(
            1 for r in self.records if r.caller == caller and r.provider == provider
        )

    def used_width(self, interface: str) -> int:
        """Number of distinct primitives actually exercised on an interface."""
        return len({r.primitive for r in self.records if r.interface == interface})

    def pairs(self) -> set[tuple[str, str]]:
        """All (caller, provider) pairs observed — the adjacency graph."""
        return {(r.caller, r.provider) for r in self.records}


class NullInterfaceLog(InterfaceLog):
    """An interface log that records nothing and reports zero.

    A stack at the ``metrics`` or ``off`` tier exposes one as its
    ``interface_log``, so readers of the log see zero crossings.
    Nothing records into it: below ``full`` the compiled hops, ports
    and notifications are bound without a log and never build an
    :class:`InterfaceCall` in the first place.
    """

    def __init__(self) -> None:
        super().__init__(records=[], enabled=False)

    def record(self, call: InterfaceCall) -> None:
        pass

    def crossings(self) -> int:
        return 0


def _logged(
    log: InterfaceLog,
    interface: str,
    primitive: str,
    caller: str,
    provider: str,
    handler: Callable[..., Any],
) -> Callable[..., Any]:
    """``handler`` wrapped to record each call and run as ``provider``."""

    def invoke(*args: Any, **kwargs: Any) -> Any:
        arg_count = len(args) + len(kwargs)
        log.record(InterfaceCall(interface, primitive, caller, provider, arg_count))
        with acting_as(provider):
            return handler(*args, **kwargs)

    invoke.__name__ = primitive
    return invoke


class BoundPort:
    """A caller's handle on a provider's service interface.

    Primitive ``p`` is invoked as ``port.p(*args, **kwargs)`` and
    dispatches to the provider method ``srv_p``.  Every primitive is
    bound once, here: with a ``log`` the call is recorded and runs with
    the provider as the instrumentation actor; with ``log=None`` it is
    the provider's bound ``srv_p`` itself.  Naming a primitive the
    interface does not declare raises :class:`ConfigurationError`.
    """

    def __init__(
        self,
        interface: ServiceInterface,
        provider: Any,
        provider_name: str,
        caller_name: str,
        log: InterfaceLog | None,
    ):
        self._interface = interface
        self._provider_name = provider_name
        self._caller_name = caller_name
        for primitive in interface.primitives:
            handler = getattr(provider, f"srv_{primitive.name}", None)
            if not callable(handler):
                raise ConfigurationError(
                    f"{provider_name!r} declares primitive {primitive.name!r} "
                    f"but does not implement srv_{primitive.name}"
                )
            if log is not None:
                handler = _logged(
                    log, interface.name, primitive.name,
                    caller_name, provider_name, handler,
                )
            setattr(self, primitive.name, handler)

    @property
    def interface(self) -> ServiceInterface:
        return self._interface

    @property
    def provider_name(self) -> str:
        return self._provider_name

    def __getattr__(self, name: str) -> Callable[..., Any]:
        # Only reached for names __init__ did not bind: undeclared ones.
        raise ConfigurationError(
            f"interface {self._interface.name!r} has no primitive {name!r} "
            f"(caller {self._caller_name!r})"
        )

    def __repr__(self) -> str:
        return (
            f"BoundPort({self._caller_name!r} -> {self._provider_name!r} "
            f"via {self._interface.name!r})"
        )


class Notification:
    """An upward callback channel from a provider to its user.

    Data and events flow *up* as well as down (acks arriving at RD must
    reach OSR).  A provider sublayer fires notifications; the user
    sublayer registers a handler at wiring time.  :meth:`connect` binds
    ``fire`` once, like a port primitive with the roles reversed: with
    a ``log`` each call is recorded and runs with the *user* as the
    instrumentation actor; with ``log=None`` ``fire`` is the handler.
    """

    def __init__(
        self,
        name: str,
        provider_name: str,
        log: InterfaceLog | None,
    ):
        self.name = name
        self._provider_name = provider_name
        self._log = log
        self._handler: Callable[..., Any] | None = None
        self._user_name: str | None = None

    def connect(self, user_name: str, handler: Callable[..., Any]) -> None:
        if self._handler is not None:
            raise ConfigurationError(
                f"notification {self.name!r} already connected to {self._user_name!r}"
            )
        self._user_name = user_name
        self._handler = handler
        if self._log is not None:
            handler = _logged(
                self._log, f"notify:{self.name}", self.name,
                self._provider_name, user_name, handler,
            )
        self.fire = handler  # type: ignore[method-assign]

    @property
    def connected(self) -> bool:
        return self._handler is not None

    def fire(self, *args: Any, **kwargs: Any) -> Any:
        """Deliver an event; a no-op until :meth:`connect` rebinds it."""
        return None
