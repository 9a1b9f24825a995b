"""C12 — the cost of watching: histograms and sampled tracing.

Three measurements, from microscope to workload:

1. **Hop microscope** — the C7 passthrough chain at ``tier=metrics``,
   with a per-traversal ``hop_latency`` histogram and with a
   :class:`~repro.obs.SpanTracer` at sample rates {0, 0.01, 1.0}.
   Nothing but hops, so these rows show the worst case: on a stack
   that does no protocol work, even the sampled-out fast path (skip
   gate + call-through) is a measurable multiple of a bare hop.

2. **Trial workload** — a campaign-style HDLC transfer over a lossy
   link, the shape of a `repro.faults` trial.  Here protocol work
   dominates and the ISSUE's fleet-scale claim is gated hard:
   sampled tracing at rate 0.01 must cost ≤5% over untraced.

3. **Feed micro** — ``MetricsRegistry.observe_hist`` vs a plain
   counter ``inc``, gated at ≤1.5x.  The histogram's deferred
   bucketing keeps the hot path to an append; the batch flush that
   pays the ``frexp`` bill at snapshot time is reported separately
   (informational — it is scrape-path cost, not data-plane cost).

``check_regression.py`` watches the three dimensionless ratios.
"""

import random
import time

from _util import table, write_bench_json, write_result

from repro.compose import SlotSpec, StackBuilder, StackProfile
from repro.core import PassthroughSublayer
from repro.datalink.stacks import build_hdlc_stack, collect_bytes, send_bytes
from repro.obs import Histogram, MetricsRegistry, SpanTracer
from repro.obs.hist import _FLUSH_AT
from repro.sim import DuplexLink, LinkConfig, Simulator

DEPTH = 8
HOPS_PER_SEND = DEPTH + 1
SENDS = 2_000
ROUNDS = 5

CHAIN_PROFILE = StackProfile(
    name="c12-chain",
    slots=tuple(
        SlotSpec(f"p{i}", lambda params, i=i: PassthroughSublayer(f"p{i}"))
        for i in range(DEPTH)
    ),
    doc=f"{DEPTH} passthrough sublayers; every hop is pure overhead.",
)


def build_chain():
    stack = StackBuilder(CHAIN_PROFILE, name="c12", tier="metrics").build()
    stack.on_transmit = lambda sdu, **meta: None
    return stack


def time_chain(stack, sends: int = SENDS) -> float:
    """Min wall seconds per send over ROUNDS timed batches."""
    payload = b"x" * 64
    send = stack.send
    for _ in range(100):  # warm-up
        send(payload)
    samples = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(sends):
            send(payload)
        samples.append(time.perf_counter() - start)
    return min(samples) / sends


def hdlc_trial(sample=None, messages=20, loss=0.1) -> float:
    """One campaign-shaped trial; returns its wall seconds."""
    sim = Simulator()
    stacks = [
        build_hdlc_stack(f"dl-{end}", sim.clock(), retransmit_timeout=0.1)
        for end in ("a", "b")
    ]
    link = DuplexLink(
        sim,
        LinkConfig(delay=0.01, loss=loss),
        rng_forward=random.Random(1),
        rng_reverse=random.Random(2),
    )
    link.attach(stacks[0], stacks[1])
    if sample is not None:
        tracer = SpanTracer(sample=sample, rng=random.Random(7), tail="root")
        tracer.attach(stacks[0]).attach(stacks[1])
    inbox = collect_bytes(stacks[1])
    start = time.perf_counter()
    for index in range(messages):
        send_bytes(stacks[0], (b"payload-%03d" % index) * 12)
    sim.run(until=120.0)
    elapsed = time.perf_counter() - start
    assert len(inbox) == messages, "trial must complete or the timing lies"
    return elapsed


def time_trials(sample=None, rounds=5) -> float:
    hdlc_trial(sample)  # warm-up
    return min(hdlc_trial(sample) for _ in range(rounds))


def time_trial_pair(sample=0.01, rounds=20) -> tuple[float, float]:
    """Min wall seconds of untraced and sampled trials, interleaved.

    A trial takes ~13 ms, so host noise rivals the ~3% being gated.
    Alternating the two kinds exposes both to the same host load, and
    the minimum over many rounds drops the slow outliers a shared host
    adds.
    """
    hdlc_trial()  # warm-up
    hdlc_trial(sample)
    untraced = sampled = float("inf")
    for _ in range(rounds):
        untraced = min(untraced, hdlc_trial())
        sampled = min(sampled, hdlc_trial(sample))
    return untraced, sampled


FEED_N = 32_000  # < _FLUSH_AT, so the timed loop never pays the flush
assert FEED_N < _FLUSH_AT


def time_feed(rounds=7):
    """(ns/inc, ns/observe_hist feed, ns/sample flush) minima."""
    registry = MetricsRegistry()
    values = [0.001 * (i % 97 + 1) for i in range(FEED_N)]

    def one_inc():
        start = time.perf_counter()
        for _ in range(FEED_N):
            registry.inc("c")
        return time.perf_counter() - start

    def one_feed():
        start = time.perf_counter()
        for value in values:
            registry.observe_hist("h", value)
        elapsed = time.perf_counter() - start
        registry.hist("h")._flush()  # untimed: scrape-path work
        return elapsed

    def one_flush():
        hist = Histogram()
        for value in values:
            hist.observe(value)
        start = time.perf_counter()
        hist._flush()
        return time.perf_counter() - start

    inc = min(one_inc() for _ in range(rounds)) / FEED_N
    feed = min(one_feed() for _ in range(rounds)) / FEED_N
    flush = min(one_flush() for _ in range(rounds)) / FEED_N
    return inc, feed, flush


def test_c12_obscost(benchmark):
    # --- 1. hop microscope (tier=metrics chain) -----------------------
    per_send = {}
    per_send["untraced"] = benchmark.pedantic(
        lambda: time_chain(build_chain()), rounds=1, iterations=1
    )

    hist_chain = build_chain()
    hist_chain.hop_latency = Histogram()
    per_send["hop_hist"] = time_chain(hist_chain)
    assert hist_chain.hop_latency.count > 0, "the clock pair must observe"

    for rate, key in ((0.0, "sample0"), (0.01, "sample001"), (1.0, "sample1")):
        chain = build_chain()
        SpanTracer(
            sample=rate, rng=random.Random(7), tail="root"
        ).attach(chain)
        per_send[key] = time_chain(chain)

    hist_hop_over_plain = per_send["hop_hist"] / per_send["untraced"]

    # --- 2. trial workload (the fleet-scale claim) --------------------
    trial_untraced, trial_s001 = time_trial_pair(0.01)
    trial_s1 = time_trials(1.0)
    sampled001_over_untraced = trial_s001 / trial_untraced
    traced_over_untraced = trial_s1 / trial_untraced

    # --- 3. feed micro ------------------------------------------------
    inc_s, feed_s, flush_s = time_feed()
    hist_observe_over_inc = feed_s / inc_s

    rows = [
        {
            "row": key,
            "ns_per_send": round(cost * 1e9, 1),
            "vs_untraced": f"{cost / per_send['untraced']:.2f}x",
        }
        for key, cost in per_send.items()
    ]
    lines = table(rows)
    lines.append("")
    lines.append(
        f"chain: {DEPTH} passthrough sublayers at tier=metrics, "
        f"{HOPS_PER_SEND} hops/send, min of {ROUNDS}x{SENDS} sends"
    )
    lines.append(
        f"hdlc trial: untraced {trial_untraced * 1e3:.1f}ms, "
        f"sampled@0.01 {sampled001_over_untraced:.3f}x, "
        f"traced@1.0 {traced_over_untraced:.3f}x"
    )
    lines.append(
        f"feed: inc {inc_s * 1e9:.0f}ns, observe_hist {feed_s * 1e9:.0f}ns "
        f"({hist_observe_over_inc:.2f}x), deferred flush "
        f"{flush_s * 1e9:.0f}ns/sample at snapshot time"
    )
    write_result("c12_obscost", lines)
    write_bench_json(
        "c12_obscost",
        wall_s=trial_untraced,
        extra={
            "ns_per_send_untraced": round(per_send["untraced"] * 1e9, 1),
            "ns_per_send_hop_hist": round(per_send["hop_hist"] * 1e9, 1),
            "ns_per_send_sample0": round(per_send["sample0"] * 1e9, 1),
            "ns_per_send_sample001": round(per_send["sample001"] * 1e9, 1),
            "ns_per_send_sample1": round(per_send["sample1"] * 1e9, 1),
            "hist_hop_over_plain_x": round(hist_hop_over_plain, 3),
            "sampled001_over_untraced_x": round(sampled001_over_untraced, 3),
            "traced_over_untraced_x": round(traced_over_untraced, 3),
            "hist_observe_over_inc_x": round(hist_observe_over_inc, 3),
            "ns_per_inc": round(inc_s * 1e9, 1),
            "ns_per_observe": round(feed_s * 1e9, 1),
            "ns_per_flush_sample": round(flush_s * 1e9, 1),
            "hops_per_send": HOPS_PER_SEND,
        },
    )

    # the ISSUE's acceptance bounds
    assert sampled001_over_untraced <= 1.05, (
        f"sampled tracing at 0.01 costs {sampled001_over_untraced:.3f}x "
        "over untraced on the trial workload (budget: 1.05x)"
    )
    assert hist_observe_over_inc <= 1.5, (
        f"observe_hist feed costs {hist_observe_over_inc:.2f}x a counter "
        "inc (budget: 1.5x)"
    )
    # sampling must actually be cheaper than full tracing, in order
    assert (
        per_send["untraced"]
        < per_send["sample0"]
        <= per_send["sample1"] * 1.05
    )
    assert trial_s001 < trial_s1 * 1.10
