"""Cross-tier parity: the instrumentation tier changes host work only.

``full``, ``metrics`` and ``off`` compile different hop functions, but
the architecture under them is the same — same sublayers, same headers,
same virtual-time behaviour.  The ``full`` tier's instrumented chain
walk is the reference; the cheaper hops the wiring plan compiles for
``metrics`` and ``off`` are the fast paths.  This rig runs each shipped
profile (hdlc, hdlc with deterministic faults inserted, wireless, the
Fig 4 router, tcp, quic) under a seeded workload at every tier and
requires its observable books to equal the reference run's: delivered
bytes, every sublayer's ``state.snapshot()``, and the metrics registry
snapshot.  At ``full``
the comparison is a fresh rerun, so it also checks determinism.
"""

import random
from functools import cache

import pytest

from repro.datalink import (
    build_hdlc_stack,
    build_wireless_station,
    collect_bytes,
    send_bytes,
)
from repro.faults import DropFault, DuplicateFault, FaultSchedule
from repro.obs import MetricsRegistry
from repro.sim import BroadcastMedium, DuplexLink, LinkConfig, Simulator

TIERS = ["full", "metrics", "off"]

PAYLOADS = [
    bytes([i % 251, (i * 7) % 251, (i * 13) % 251]) * 3 for i in range(24)
]


def books(stacks, delivered, metrics):
    """Everything a run observably produced, in comparable form."""
    return {
        "delivered": delivered,
        "metrics": metrics.snapshot(),
        "state": {
            stack.name: {
                sublayer.name: sublayer.state.snapshot()
                for sublayer in stack.sublayers
            }
            for stack in stacks
        },
    }


@cache
def reference(run, **kwargs):
    """``run``'s books at the ``full`` tier, computed once per module."""
    return run("full", **kwargs)


def matches_reference(run, tier, **kwargs):
    """Run ``run(tier, **kwargs)``; assert it equals the ``full`` run."""
    baseline = reference(run, **kwargs)
    assert run(tier, **kwargs) == baseline, tier
    return baseline


# ----------------------------------------------------------------------
# hdlc
# ----------------------------------------------------------------------
def run_hdlc(tier, fault=False):
    sim = Simulator()
    metrics = MetricsRegistry()
    kwargs = dict(tier=tier, metrics=metrics, retransmit_timeout=0.23)
    a = build_hdlc_stack("dl-a", sim.clock(), **kwargs)
    b = build_hdlc_stack("dl-b", sim.clock(), **kwargs)
    if fault:
        a.insert(
            "errordetect",
            DropFault(
                "drop",
                schedule=FaultSchedule(every=5),
                rng=random.Random(11),
                direction="down",
            ),
            where="after",
        )
        b.insert(
            "errordetect",
            DuplicateFault(
                "dup",
                schedule=FaultSchedule(every=7),
                rng=random.Random(12),
                direction="up",
            ),
            where="before",
        )
    duplex = DuplexLink(
        sim,
        LinkConfig(delay=0.013, rate_bps=2_000_000),
        rng_forward=random.Random(3),
        rng_reverse=random.Random(4),
        name="hdlc",
    )
    duplex.attach(a, b)
    inbox_a, inbox_b = collect_bytes(a), collect_bytes(b)
    for payload in PAYLOADS:
        send_bytes(a, payload)
    for payload in PAYLOADS[:8]:
        send_bytes(b, payload)
    sim.run(until=30)
    return books([a, b], {"a": inbox_a, "b": inbox_b}, metrics)


@pytest.mark.parametrize("tier", TIERS)
def test_hdlc_fast_paths_match_chain_walk(tier):
    baseline = matches_reference(run_hdlc, tier)
    assert baseline["delivered"]["b"] == PAYLOADS  # the run is not vacuous


@pytest.mark.parametrize("tier", TIERS)
def test_hdlc_with_faults_matches_chain_walk(tier):
    baseline = matches_reference(run_hdlc, tier, fault=True)
    faults = baseline["state"]["dl-a"]["drop"]["faults_injected"]
    assert faults > 0  # the adversity actually happened
    assert baseline["delivered"]["b"] == PAYLOADS  # ...and ARQ recovered


# ----------------------------------------------------------------------
# wireless
# ----------------------------------------------------------------------
def run_wireless(tier):
    sim = Simulator()
    metrics = MetricsRegistry()
    medium = BroadcastMedium(sim, rate_bps=200_000.0)
    stacks = [
        build_wireless_station(
            sim,
            medium,
            address=i,
            rng=random.Random(40 + i),
            tier=tier,
            metrics=metrics,
        )
        for i in range(3)
    ]
    inboxes = [collect_bytes(stack) for stack in stacks]
    for payload in PAYLOADS[:10]:
        send_bytes(stacks[0], payload)
    for payload in PAYLOADS[10:16]:
        send_bytes(stacks[1], payload)
    sim.run(until=30)
    return books(
        stacks, {i: inbox for i, inbox in enumerate(inboxes)}, metrics
    )


@pytest.mark.parametrize("tier", TIERS)
def test_wireless_fast_paths_match_chain_walk(tier):
    baseline = matches_reference(run_wireless, tier)
    assert any(baseline["delivered"][i] for i in (1, 2))


# ----------------------------------------------------------------------
# router (the Fig 4 network sublayers over a lossy mesh)
# ----------------------------------------------------------------------
MESH = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 5), (5, 6), (6, 3)]


def run_router(tier):
    from repro.network import Topology

    sim = Simulator()
    metrics = MetricsRegistry()
    topo = Topology.build(
        sim,
        MESH,
        seed=9,
        link_config=LinkConfig(delay=0.005, loss=0.02),
        metrics=metrics,
    )
    for router in topo.routers.values():
        router.stack.set_tier(tier)
    topo.start()
    converged = [topo.converge(timeout=30)]
    for dst in (4, 5, 6):
        topo.send_data(1, dst, f"before->{dst}".encode())
    sim.run(until=sim.now + 2)
    topo.fail_link(2, 5)
    converged.append(topo.converge(timeout=90))
    for dst in (4, 5, 6):
        topo.send_data(1, dst, f"after->{dst}".encode())
    sim.run(until=sim.now + 2)
    delivered = [(p.src, p.dst, p.ttl, p.payload) for p in topo.delivered]
    stacks = [router.stack for router in topo.routers.values()]
    run = books(stacks, delivered, metrics)
    run.update(converged=converged, fibs=topo.fib_snapshots())
    return run


@pytest.mark.parametrize("tier", TIERS)
def test_router_fast_paths_match_chain_walk(tier):
    baseline = matches_reference(run_router, tier)
    assert None not in baseline["converged"]
    payloads = {payload for *_, payload in baseline["delivered"]}
    assert {b"before->5", b"after->5"} <= payloads  # rerouted around 2-5
    assert baseline["metrics"]["counters"]["forwarding/1/forwarded"] == 6


# ----------------------------------------------------------------------
# tcp / quic (host level, over a lossy duplex link)
# ----------------------------------------------------------------------
def lossy_duplex(sim, seed):
    return DuplexLink(
        sim,
        LinkConfig(delay=0.02, rate_bps=8_000_000, loss=0.02),
        rng_forward=random.Random(seed),
        rng_reverse=random.Random(seed + 1),
    )


def run_tcp(tier, nbytes=30_000):
    from repro.transport import SublayeredTcpHost, TcpConfig

    sim = Simulator()
    metrics = MetricsRegistry()
    config = TcpConfig(mss=1000)
    a = SublayeredTcpHost("a", sim.clock(), config, tier=tier, metrics=metrics)
    b = SublayeredTcpHost("b", sim.clock(), config, tier=tier, metrics=metrics)
    lossy_duplex(sim, 5).attach(a, b)
    b.listen(80)
    data = bytes(i % 251 for i in range(nbytes))
    sock = a.connect(12345, 80)
    sock.on_connect = lambda: (sock.send(data), sock.close())
    sim.run(until=120)
    peer = b.socket_for(80, 12345)
    received = peer.bytes_received() if peer is not None else b""
    return books([a.stack, b.stack], received, metrics)


@pytest.mark.parametrize("tier", TIERS)
def test_tcp_codegen_wiring_matches_chain_walk(tier):
    baseline = matches_reference(run_tcp, tier)
    assert len(baseline["delivered"]) == 30_000


def run_quic(tier, nbytes=20_000):
    from repro.transport.quic import QuicHost

    sim = Simulator()
    metrics = MetricsRegistry()
    a = QuicHost("qa", sim.clock(), tier=tier, metrics=metrics)
    b = QuicHost("qb", sim.clock(), tier=tier, metrics=metrics)
    lossy_duplex(sim, 7).attach(a, b)
    b.listen(443)
    data = bytes(i % 251 for i in range(nbytes))
    conn = a.connect(9000, 443)
    conn.on_connect = lambda: conn.send(1, data, fin=True)
    sim.run(until=120)
    peer = b.connection_for(443, 9000)
    received = peer.stream_bytes(1) if peer is not None else b""
    return books([a.stack, b.stack], received, metrics)


@pytest.mark.parametrize("tier", TIERS)
def test_quic_codegen_wiring_matches_chain_walk(tier):
    baseline = matches_reference(run_quic, tier)
    assert len(baseline["delivered"]) == 20_000
