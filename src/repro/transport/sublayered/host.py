"""The sublayered TCP host: Fig 5's stack plus a socket API.

Assembles OSR > RD > CM > DM into a :class:`~repro.core.stack.Stack`
(optionally with the RFC 793 shim at the bottom for interop) and
exposes the same application surface as
:class:`~repro.transport.monolithic.MonolithicTcpHost` — ``listen``,
``connect``, sockets with data/close callbacks — so links, benchmarks,
and examples can treat either TCP uniformly.
"""

from __future__ import annotations

from typing import Any, Callable

from ...compose.builder import StackBuilder
from ...core.clock import Clock
from ...core.instrument import AccessLog, acting_as
from ...core.interface import InterfaceLog
from ...core.wiring import TIER_FULL
from ..config import TcpConfig
from .cm import CmSublayer
from .congestion import CongestionControl
from .dm import ConnId
from .osr import OsrSublayer
from .rd import RdSublayer


class SubTcpSocket:
    """The application's handle on one sublayered TCP connection."""

    def __init__(self, host: "SublayeredTcpHost", conn: ConnId):
        self._host = host
        self.key = conn
        self.received: list[bytes] = []
        self.on_data: Callable[[bytes], None] | None = None
        self.on_connect: Callable[[], None] | None = None
        self.on_close: Callable[[], None] | None = None      # our FIN acked
        self.on_peer_close: Callable[[], None] | None = None
        self.on_error: Callable[[str], None] | None = None
        self._connected = False
        self._wire()

    def _wire(self) -> None:
        callbacks = self._host._osr_call("callbacks", self.key)

        def established() -> None:
            self._connected = True
            if self.on_connect is not None:
                self.on_connect()

        def data(chunk: bytes) -> None:
            self.received.append(chunk)
            if self.on_data is not None:
                self.on_data(chunk)

        def closed() -> None:
            if self.on_close is not None:
                self.on_close()

        def peer_closed() -> None:
            if self.on_peer_close is not None:
                self.on_peer_close()

        def failed(reason: str) -> None:
            self._connected = False
            if self.on_error is not None:
                self.on_error(reason)

        callbacks.on_established = established
        callbacks.on_data = data
        callbacks.on_closed = closed
        callbacks.on_peer_closed = peer_closed
        callbacks.on_failed = failed

    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._connected

    def send(self, data: bytes) -> None:
        self._host._osr_call("send", self.key, data)

    def close(self) -> None:
        self._host._osr_call("close", self.key)

    def pause_reading(self) -> None:
        self._host._osr_call("pause_reading", self.key)

    def resume_reading(self) -> None:
        self._host._osr_call("resume_reading", self.key)

    def bytes_received(self) -> bytes:
        return b"".join(self.received)

    def __repr__(self) -> str:
        return f"SubTcpSocket({self.key}, connected={self._connected})"


class SublayeredTcpHost:
    """One endpoint running the Fig 5 sublayered TCP."""

    def __init__(
        self,
        name: str,
        clock: Clock,
        config: TcpConfig | None = None,
        cc_factory: Callable[[int], CongestionControl] | None = None,
        shim: Any | None = None,
        access_log: AccessLog | None = None,
        interface_log: InterfaceLog | None = None,
        metrics: Any | None = None,
        osr_factory: Callable[[TcpConfig], OsrSublayer] | None = None,
        rd_factory: Callable[[TcpConfig], RdSublayer] | None = None,
        cm_factory: Callable[[TcpConfig], CmSublayer] | None = None,
        tier: str = TIER_FULL,
        replacements: dict[str, Any] | None = None,
        insertions: list[tuple[str, str, Any]] | None = None,
    ):
        self.name = name
        self.config = config or TcpConfig()
        builder = StackBuilder(
            "tcp",
            name=f"tcp:{name}",
            clock=clock,
            access_log=access_log,
            interface_log=interface_log,
            metrics=metrics,
            tier=tier,
        )
        builder.with_params(config=self.config, cc_factory=cc_factory, shim=shim)
        # Factory hooks exist for the F5 bug-injection experiment and
        # for user-supplied sublayer variants; they (and the generic
        # ``replacements`` mapping) become slot replacements on the
        # "tcp" profile.
        if osr_factory is not None:
            builder.with_replacement("osr", lambda p: osr_factory(self.config))
        if rd_factory is not None:
            builder.with_replacement("rd", lambda p: rd_factory(self.config))
        if cm_factory is not None:
            builder.with_replacement("cm", lambda p: cm_factory(self.config))
        for slot, replacement in (replacements or {}).items():
            builder.with_replacement(slot, replacement)
        for slot, where, extra in insertions or []:
            builder.with_insertion(slot, extra, where=where)
        self.stack = builder.build()
        self.osr: OsrSublayer = self.stack.sublayer("osr")  # type: ignore[assignment]
        self._sockets: dict[ConnId, SubTcpSocket] = {}
        self.on_accept: Callable[[SubTcpSocket], None] | None = None
        self.osr.on_accept = self._accepted
        self.on_transmit: Callable[..., None] | None = None
        self.stack.on_transmit = lambda unit, **meta: self._transmit(unit, **meta)
        self.stack.on_deliver = lambda data, **meta: None  # sockets get the data

    # ------------------------------------------------------------------
    @property
    def access_log(self) -> AccessLog:
        return self.stack.access_log

    @property
    def interface_log(self) -> InterfaceLog:
        return self.stack.interface_log

    def _transmit(self, unit: Any, **meta: Any) -> None:
        if self.on_transmit is not None:
            self.on_transmit(unit, **meta)

    def receive(self, unit: Any, **meta: Any) -> None:
        self.stack.receive(unit, **meta)

    def _osr_call(self, method: str, *args: Any) -> Any:
        with acting_as("osr"):
            return getattr(self.osr, method)(*args)

    # ------------------------------------------------------------------
    # Application interface (mirrors MonolithicTcpHost)
    # ------------------------------------------------------------------
    def listen(self, port: int) -> None:
        self._osr_call("listen", port)

    def connect(self, lport: int, rport: int) -> SubTcpSocket:
        conn: ConnId = (lport, rport)
        socket = SubTcpSocket(self, conn)
        self._sockets[conn] = socket
        self._osr_call("open", conn)
        return socket

    def socket_for(self, lport: int, rport: int) -> SubTcpSocket | None:
        return self._sockets.get((lport, rport))

    def _accepted(self, conn: ConnId) -> None:
        socket = SubTcpSocket(self, conn)
        socket._connected = True
        self._sockets[conn] = socket
        if self.on_accept is not None:
            self.on_accept(socket)

    def __repr__(self) -> str:
        return f"SublayeredTcpHost({self.name!r}, {len(self._sockets)} sockets)"
