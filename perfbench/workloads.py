"""The four workloads, each driving one shipped runtime through its API.

A workload is a *rep* function repeated until the run's time is used:
every rep builds its world from scratch (timed as set-up), runs a
fixed amount of traffic (timed as the run), and checks every output.
Inputs come only from the seed and the rep index, so a seed names the
same inputs on every host.

========================  ==================================================
``tcp-bulk-sim``          one 2 MB sublayered-tcp transfer per rep (mss 1000,
                          tier ``metrics``) over a simulated 100 Mbit/s
                          duplex link with seeded 1 % loss each way
``hdlc-frames-sim``       10 frames each of 40, 200 and 1000 B per rep, in
                          seeded order and content, through
                          the hdlc profile (go-back-n, CRC-32, bit stuffing,
                          NRZ) over a simulated link with seeded 0.2 % loss
``net-echo-loopback``     ``NetServer`` (echo) and ``LoadGenerator`` on one
                          asyncio loop over localhost UDP: a ping phase (one
                          client, 64 B messages) then a bulk phase (two
                          clients, 8 KiB messages), closed loop
``fleet-grid-256``        a 16 x 16 grid of routers, static routing, the
                          serial conductor, 8 flows x 600 packets
========================  ==================================================
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.datalink import connect_hdlc_pair, send_bytes
from repro.net import LoadGenerator, NetServer
from repro.net.load import RTT_HIST
from repro.network.packets import DataPacket
from repro.obs import MetricsRegistry
from repro.sim import DuplexLink, LinkConfig, Simulator
from repro.topo import RegionWorld, make_spec, plan_traffic, spec as topo_spec
from repro.transport import SublayeredTcpHost, TcpConfig

clock = time.perf_counter


# ----------------------------------------------------------------------
# Bookkeeping shared by every workload
# ----------------------------------------------------------------------
@dataclass
class Rep:
    """What one rep measured (host seconds) and checked."""

    setup_s: float
    run_s: float
    units: int
    goodput_bps: float
    units_per_s: float
    attempted: int
    failed: int
    latency_s: list[float]
    counters: dict[str, float] = field(default_factory=dict)
    #: Host slowdown around the rep, set by the harness (``hostspeed.py``).
    slowdown: float = 1.0


class Phases:
    """Times the set-up and run phases; snapshots the tracer around runs.

    With a tracer attached, span totals and counts are taken as deltas
    over the run phases only, except the set-up layers (FIB and world
    construction), whose self time is taken over the set-up phases.
    """

    SETUP_LAYERS = ("topo.spec.fibs", "topo.region.build")

    def __init__(self, tracer: Any = None):
        self.tracer = tracer
        self.last_setup_s = 0.0
        self.last_run_s = 0.0
        self.run_self_s: dict[str, float] = {}
        self.run_calls: dict[str, int] = {}
        self.run_counts: dict[str, int] = {}
        self.run_top_s = 0.0
        self.setup_self_s: dict[str, float] = {}

    def _snapshot(self) -> tuple[dict, dict, dict, float]:
        t = self.tracer
        return dict(t.self_s), dict(t.calls), dict(t.counts), t.top_s

    @staticmethod
    def _add(into: dict, before: dict, after: dict) -> None:
        for key, value in after.items():
            into[key] = into.get(key, 0) + value - before.get(key, 0)

    @contextmanager
    def setup(self) -> Iterator[None]:
        before = self._snapshot() if self.tracer else None
        start = clock()
        yield
        self.last_setup_s = clock() - start
        if before is not None:
            after = {k: v for k, v in self.tracer.self_s.items()
                     if k in self.SETUP_LAYERS}
            self._add(self.setup_self_s, before[0], after)

    @contextmanager
    def run(self) -> Iterator[None]:
        before = self._snapshot() if self.tracer else None
        start = clock()
        yield
        self.last_run_s = clock() - start
        if before is not None:
            after = self._snapshot()
            self._add(self.run_self_s, before[0], after[0])
            self._add(self.run_calls, before[1], after[1])
            self._add(self.run_counts, before[2], after[2])
            self.run_top_s += after[3] - before[3]


def seeded_bytes(rng: random.Random, size: int) -> bytes:
    """``size`` pseudo-random bytes from ``rng``."""
    return rng.getrandbits(8 * size).to_bytes(size, "big")


class Gaps:
    """Host time per delivered unit, one sample per block of deliveries.

    A sample is the host time since the previous block ended, divided
    by the units delivered in it.  The first delivery of a rep only
    starts the clock: its gap holds the window fill (and the handshake),
    not the steady per-unit cost.
    """

    def __init__(self, block: int = 1) -> None:
        self.block = block
        self.samples: list[float] = []
        self._last: float | None = None
        self._units = 0

    def delivered(self, units: int = 1) -> None:
        now = clock()
        if self._last is None:
            self._last = now
            return
        self._units += units
        if self._units >= self.block:
            self.samples.append((now - self._last) / self._units)
            self._last = now
            self._units = 0


# ----------------------------------------------------------------------
# tcp-bulk-sim
# ----------------------------------------------------------------------
TCP = {"payload_bytes": 2_000_000, "mss": 1000, "rate_bps": 100e6,
       "delay_s": 0.005, "loss": 0.01, "tier": "metrics", "latency_block": 10}


def tcp_rep(seed: int, index: int, phases: Phases) -> Rep:
    """One sublayered-tcp bulk transfer in the simulator."""
    rng = random.Random(f"tcp/{seed}/{index}")
    payload = seeded_bytes(rng, TCP["payload_bytes"])
    mss = TCP["mss"]
    received: list[bytes] = []
    gaps = Gaps(TCP["latency_block"])

    with phases.setup():
        sim = Simulator()
        config = TcpConfig(mss=mss)
        client = SublayeredTcpHost("client", sim.clock(), config, tier=TCP["tier"])
        server = SublayeredTcpHost("server", sim.clock(), config, tier=TCP["tier"])
        link = DuplexLink(
            sim,
            LinkConfig(delay=TCP["delay_s"], rate_bps=TCP["rate_bps"], loss=TCP["loss"]),
            rng_forward=random.Random(rng.getrandbits(64)),
            rng_reverse=random.Random(rng.getrandbits(64)),
        )
        link.attach(client, server)

        def on_data(chunk: bytes) -> None:
            received.append(chunk)
            gaps.delivered(max(1, round(len(chunk) / mss)))

        def accept(sock: Any) -> None:
            sock.on_data = on_data

        server.on_accept = accept
        server.listen(80)
        sock = client.connect(12345, 80)

        def go() -> None:
            sock.send(payload)
            sock.close()

        sock.on_connect = go

    with phases.run():
        sim.run(until=600.0)

    got = b"".join(received)
    units = -(-len(payload) // mss)
    failed = sum(
        1
        for k in range(units)
        if got[k * mss:(k + 1) * mss] != payload[k * mss:(k + 1) * mss]
    )
    rd = client.stack.sublayer("rd").state.snapshot()
    return Rep(
        setup_s=phases.last_setup_s,
        run_s=phases.last_run_s,
        units=units - failed,
        goodput_bps=8 * mss * (units - failed) / phases.last_run_s,
        units_per_s=(units - failed) / phases.last_run_s,
        attempted=units,
        failed=failed,
        latency_s=gaps.samples,
        counters={
            "rd_retransmits": rd["retransmitted"],
            "rd_segments_new": rd["segments_sent"],
            "sim_events": sim.events_processed,
        },
    )


# ----------------------------------------------------------------------
# hdlc-frames-sim
# ----------------------------------------------------------------------
HDLC = {"frames": 30, "sizes": (40, 200, 1000), "rate_bps": 10e6,
        "delay_s": 0.005, "loss": 0.002, "arq": "go-back-n", "window": 8,
        "tier": "full"}


def hdlc_rep(seed: int, index: int, phases: Phases) -> Rep:
    """Seeded frames of mixed size through the hdlc profile."""
    rng = random.Random(f"hdlc/{seed}/{index}")
    sizes = [size for size in HDLC["sizes"] for _ in range(HDLC["frames"] // 3)]
    rng.shuffle(sizes)
    frames = [seeded_bytes(rng, size) for size in sizes]
    received: list[bytes] = []
    gaps = Gaps()

    with phases.setup():
        sim = Simulator()
        a, b, _ = connect_hdlc_pair(
            sim,
            LinkConfig(delay=HDLC["delay_s"], rate_bps=HDLC["rate_bps"], loss=HDLC["loss"]),
            rng_seed=rng.getrandbits(32),
            arq=HDLC["arq"],
            window=HDLC["window"],
            tier=HDLC["tier"],
        )

        def on_deliver(bits: Any, **meta: Any) -> None:
            received.append(bits.to_bytes())
            gaps.delivered()

        b.on_deliver = on_deliver
        for frame in frames:
            send_bytes(a, frame)

    with phases.run():
        sim.run(until=600.0)

    intact = [frame for k, frame in enumerate(frames)
              if k < len(received) and received[k] == frame]
    failed = len(frames) - len(intact) + max(0, len(received) - len(frames))
    arq = a.sublayer("recovery").state.snapshot()
    return Rep(
        setup_s=phases.last_setup_s,
        run_s=phases.last_run_s,
        units=len(frames) - failed,
        goodput_bps=8 * sum(map(len, intact)) / phases.last_run_s,
        units_per_s=(len(frames) - failed) / phases.last_run_s,
        attempted=len(frames),
        failed=failed,
        latency_s=gaps.samples,
        counters={
            "arq_retransmits": arq["data_retransmitted"],
            "sim_events": sim.events_processed,
        },
    )


# ----------------------------------------------------------------------
# net-echo-loopback
# ----------------------------------------------------------------------
NET = {"ping_clients": 1, "ping_messages": 300, "ping_size": 64,
       "bulk_clients": 2, "bulk_messages": 16, "bulk_size": 8192,
       "tier": "metrics", "transport": "localhost UDP"}


class RecordingRegistry(MetricsRegistry):
    """A metrics registry that also keeps every raw round-trip sample."""

    def __init__(self) -> None:
        super().__init__()
        self.samples: dict[str, list[float]] = {}

    def observe_hist(self, name: str, value: float, count: int = 1) -> None:
        self.samples.setdefault(name, []).extend([value] * count)
        super().observe_hist(name, value, count)


def _failed_messages(report: Any, clients: int, messages: int) -> int:
    intact = sum(1 for c in report.per_client if c["intact"])
    return (clients - intact) * messages


def net_rep(seed: int, index: int, phases: Phases) -> Rep:
    """One echo server; a ping phase, then a bulk phase, on one loop."""
    base_port = 20000 + (seed * 7919 + index * 16) % 40000

    async def scenario() -> Rep:
        with phases.setup():
            server = NetServer(tcp_port=80, mode="echo", tier=NET["tier"])
            endpoint = await server.start()
        try:
            ping_registry = RecordingRegistry()
            bulk_registry = RecordingRegistry()
            ping = LoadGenerator(
                endpoint.local_address, clients=NET["ping_clients"],
                messages=NET["ping_messages"], size=NET["ping_size"],
                base_port=base_port, metrics=ping_registry, tier=NET["tier"],
                timeout=120.0, include_metrics=False,
            )
            bulk = LoadGenerator(
                endpoint.local_address, clients=NET["bulk_clients"],
                messages=NET["bulk_messages"], size=NET["bulk_size"],
                base_port=base_port + 8, metrics=bulk_registry, tier=NET["tier"],
                timeout=120.0, include_metrics=False,
            )
            with phases.run():
                ping_report = await ping.run()
                bulk_report = await bulk.run()
        finally:
            server.close()

        rtts = ping_registry.samples.get(RTT_HIST, [])
        # Each closed-loop client's messages over its busy time, summed.
        bulk_bps = 0.0
        for client in range(NET["bulk_clients"]):
            samples = bulk_registry.samples.get(f"net/client{client}/rtt", [])
            if samples:
                bulk_bps += 8 * NET["bulk_size"] * len(samples) / sum(samples)
        attempted = (NET["ping_clients"] * NET["ping_messages"]
                     + NET["bulk_clients"] * NET["bulk_messages"])
        failed = _failed_messages(ping_report, NET["ping_clients"], NET["ping_messages"])
        failed += _failed_messages(bulk_report, NET["bulk_clients"], NET["bulk_messages"])
        if not (ping_report.ok and bulk_report.ok):
            failed = max(failed, 1)
        return Rep(
            setup_s=phases.last_setup_s,
            run_s=phases.last_run_s,
            units=attempted - failed,
            goodput_bps=bulk_bps,
            units_per_s=len(rtts) / sum(rtts),
            attempted=attempted,
            failed=failed,
            latency_s=rtts,
            counters={
                "errors": len(ping_report.errors) + len(bulk_report.errors),
            },
        )

    return asyncio.run(scenario())


# ----------------------------------------------------------------------
# fleet-grid-256
# ----------------------------------------------------------------------
FLEET = {"kind": "grid", "nodes": 256, "spec_seed": 7, "flows": 8,
         "packets": 600, "payload_sizes": (64, 256, 1024), "routing": "static",
         "conductor": "serial", "latency_block": 4}

#: sha256 of the (time, dst, ident) delivery log of the grid-256 spec with
#: spec seed 7 and 8 x 600 packets.  Payloads do not steer forwarding,
#: so every benchmark seed must reproduce it.
FLEET_ORDER_DIGEST = "a7df9c252db3f852d4311dcdc8c99eb72810124264f364ba17dca959c6d4dc32"


# Taken at import, before a tracer can wrap the cached functions.
_SPEC_CACHES = [
    value for value in vars(topo_spec).values()
    if callable(getattr(value, "cache_clear", None))
]


def clear_spec_caches() -> None:
    """Drop the per-spec memo tables so every set-up is cold."""
    for cached in _SPEC_CACHES:
        cached.cache_clear()


def fleet_rep(seed: int, index: int, phases: Phases) -> Rep:
    """Cold set-up of the 256-router grid, then its traffic to quiescence."""
    rng = random.Random(f"fleet/{seed}/{index}")
    spec = make_spec(FLEET["kind"], FLEET["nodes"], seed=FLEET["spec_seed"])
    plan = plan_traffic(spec, FLEET["flows"], FLEET["packets"])
    sizes = FLEET["payload_sizes"]
    payloads = {
        flow.index: seeded_bytes(rng, sizes[flow.index % len(sizes)])
        for flow in plan
    }
    by_ident = {flow.ident(k): flow for flow in plan for k in range(flow.packets)}
    arrivals: list[tuple[int, int, bytes]] = []
    gaps = Gaps(FLEET["latency_block"])
    ttl = len(spec.nodes) + 1
    clear_spec_caches()

    with phases.setup():
        topo_spec.static_fibs(spec)
        sim = Simulator()
        world = RegionWorld(spec, 0, sim, routing=FLEET["routing"])
        world.start_routing()

        def recorder(record: Callable[[DataPacket], None]):
            def on_deliver(packet: DataPacket) -> None:
                arrivals.append((packet.dst, packet.header["ident"], packet.payload))
                gaps.delivered()
                record(packet)

            return on_deliver

        for dst in {flow.dst for flow in plan}:
            router = world.routers[dst]
            router.on_deliver = recorder(router.on_deliver)
        for flow in plan:
            router = world.routers[flow.src]
            for k in range(flow.packets):
                sim.schedule_at(
                    flow.start + k * flow.interval,
                    _sender(router, flow.dst, payloads[flow.index], flow.ident(k), ttl),
                )

    with phases.run():
        sim.run_until_idle()

    attempted = len(by_ident)
    seen: set[int] = set()
    good = good_bytes = 0
    for dst, ident, payload in arrivals:
        flow = by_ident.get(ident)
        if flow is None or ident in seen or dst != flow.dst:
            continue
        seen.add(ident)
        if payload == payloads[flow.index]:
            good += 1
            good_bytes += len(payload)
    order = hashlib.sha256(
        repr([(d["t"], d["dst"], d["ident"]) for d in world.deliveries]).encode()
    ).hexdigest()
    return Rep(
        setup_s=phases.last_setup_s,
        run_s=phases.last_run_s,
        units=good,
        goodput_bps=8 * good_bytes / phases.last_run_s,
        units_per_s=good / phases.last_run_s,
        attempted=attempted,
        failed=attempted - good,
        latency_s=gaps.samples,
        counters={"sim_events": sim.events_processed, "order_digest": order},
    )


def _sender(router: Any, dst: int, payload: bytes, ident: int, ttl: int):
    def send() -> None:
        router.send_data(dst, payload=payload, ident=ident, ttl=ttl)

    return send


# ----------------------------------------------------------------------
WORKLOADS: dict[str, tuple[Callable[[int, int, Phases], Rep], dict[str, Any]]] = {
    "tcp-bulk-sim": (tcp_rep, TCP),
    "hdlc-frames-sim": (hdlc_rep, HDLC),
    "net-echo-loopback": (net_rep, NET),
    "fleet-grid-256": (fleet_rep, FLEET),
}
