"""Compiled wiring plans: tiers, recompilation, endpoints, replace.

The wiring tentpole's contract, spelled out as tests:

* ``full`` keeps the historical observable behaviour (covered in depth
  by test_stack.py and the litmus suite; spot-checked here);
* ``metrics`` counts hops and nothing else; ``off`` compiles hops down
  to direct bound-method chains;
* attaching/detaching an observer (span hook, tap, endpoint sink)
  recompiles the plan, at any tier;
* both missing endpoints raise symmetrically, with ``lossy_delivery``
  as the explicit opt-out;
* ``Stack.replace()`` carries the full wiring configuration.
"""

import pytest

from repro.core import (
    ConfigurationError,
    HopCounters,
    NullAccessLog,
    NullInterfaceLog,
    PassthroughSublayer,
    Stack,
    Sublayer,
    TIERS,
    TapList,
)
from repro.core.instrument import current_actor
from repro.core.interface import Primitive, ServiceInterface


def chain(tier="full", depth=3, **kwargs):
    stack = Stack(
        "w",
        [PassthroughSublayer(f"p{i}") for i in range(depth)],
        tier=tier,
        **kwargs,
    )
    sent = []
    stack.on_transmit = lambda sdu, **meta: sent.append(sdu)
    return stack, sent


class CountingSublayer(Sublayer):
    """Touches its state on every unit, so tiers' access-log behaviour
    is observable."""

    def on_attach(self):
        self.state.seen = 0

    def from_above(self, sdu, **meta):
        self.state.seen = self.state.seen + 1
        self.send_down(sdu, **meta)

    def from_below(self, pdu, **meta):
        self.state.seen = self.state.seen + 1
        self.deliver_up(pdu, **meta)


class RecordingMetrics:
    def __init__(self):
        self.counts = {}

    def inc(self, name, by=1):
        self.counts[name] = self.counts.get(name, 0) + by


class TestTiers:
    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError, match="tier"):
            Stack("x", [PassthroughSublayer("p")], tier="verbose")

    def test_full_records_interface_and_access(self):
        stack = Stack("f", [CountingSublayer("c")])
        stack.on_transmit = lambda sdu, **meta: None
        stack.send(b"x")
        assert stack.interface_log.crossings() == 2  # app->c, c->wire
        accesses = [r for r in stack.access_log.records if r.field == "seen"]
        assert accesses and all(r.actor == "c" for r in accesses if r.kind == "write")

    def test_metrics_counts_hops_only(self):
        stack, _ = chain("metrics")
        stack.on_deliver = lambda sdu, **meta: None
        stack.send(b"x")
        stack.receive(b"y")
        assert stack.hop_counters.down == 4
        assert stack.hop_counters.up == 4
        assert stack.hop_counters.total() == 8
        assert stack.interface_log.crossings() == 0
        assert stack.access_log.records == []
        assert isinstance(stack.interface_log, NullInterfaceLog)
        assert isinstance(stack.access_log, NullAccessLog)

    def test_metrics_and_off_install_null_logs_in_state(self):
        for tier in ("metrics", "off"):
            stack = Stack("n", [CountingSublayer("c")], tier=tier)
            stack.on_transmit = lambda sdu, **meta: None
            stack.send(b"x")
            assert stack.sublayer("c").state.seen == 1  # state still works
            assert stack.access_log.records == []       # ...unrecorded

    def test_off_hops_are_direct_bound_methods(self):
        stack, sent = chain("off")
        p0, p1 = stack.sublayer("p0"), stack.sublayer("p1")
        assert p0._send_down == p1.from_above
        assert p1._deliver_up == p0.from_below
        stack.send(b"x")
        assert sent == [b"x"]

    def test_off_delivers_both_directions(self):
        stack, sent = chain("off")
        got = []
        stack.on_deliver = lambda sdu, **meta: got.append(sdu)
        stack.send(b"down")
        stack.receive(b"up")
        assert sent == [b"down"] and got == [b"up"]

    def test_meta_flows_through_every_tier(self):
        for tier in TIERS:
            stack, _ = chain(tier)
            seen = []
            stack.on_transmit = lambda sdu, **meta: seen.append(meta)
            stack.send(b"x", dst=7)
            assert seen == [{"dst": 7}]


class TestRecompilation:
    def test_span_hook_setter_recompiles(self):
        stack, sent = chain("off")
        spans = []

        class Hook:
            def __init__(self, *args):
                spans.append(args[0:3])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        before = stack.wiring_plan.compilations
        stack.span_hook = Hook
        assert stack.wiring_plan.compilations == before + 1
        stack.send(b"x")
        assert len(spans) == 4  # spans fire even at the off tier
        stack.span_hook = None
        spans.clear()
        stack.send(b"y")
        assert spans == []

    def test_span_tracer_attach_detach_recompiles(self):
        from repro.obs import SpanTracer

        stack, _ = chain("off")
        tracer = SpanTracer()
        tracer.attach(stack)
        stack.send(b"x")
        assert len(tracer) == 4
        tracer.detach(stack)
        stack.send(b"y")
        assert len(tracer) == 4

    @pytest.mark.parametrize("tier", TIERS)
    def test_tap_mutations_recompile(self, tier):
        stack, _ = chain(tier)
        hops = []
        tap = lambda *args: hops.append(args[0])  # noqa: E731
        plan = stack.wiring_plan

        before = plan.compilations
        stack.taps.append(tap)
        assert plan.compilations == before + 1
        stack.send(b"x")
        assert hops == ["down"] * 4

        for mutate in (
            lambda: stack.taps.remove(tap),
            lambda: stack.taps.extend([tap]),
            lambda: stack.taps.pop(),
            lambda: stack.taps.insert(0, tap),
            lambda: stack.taps.clear(),
        ):
            before = plan.compilations
            mutate()
            assert plan.compilations == before + 1

        hops.clear()
        stack.send(b"y")
        assert hops == []  # cleared taps really are compiled out

    def test_taps_assignment_rebuilds_taplist(self):
        stack, _ = chain()
        stack.taps = []
        assert isinstance(stack.taps, TapList)
        hops = []
        stack.taps.append(lambda *a: hops.append(a))
        stack.send(b"x")
        assert len(hops) == 4

    def test_wiretap_still_attaches(self):
        from repro.core.litmus import WireTap

        a, _ = chain()
        b, _ = chain()
        WireTap(a, b)
        a.send(b"x")  # tap sees hops without error


class TestEndpoints:
    def test_missing_transmit_raises_at_every_tier(self):
        for tier in TIERS:
            stack = Stack("t", [PassthroughSublayer("p")], tier=tier)
            with pytest.raises(ConfigurationError, match="on_transmit"):
                stack.send(b"x")

    def test_missing_deliver_raises_at_every_tier(self):
        for tier in TIERS:
            stack = Stack("t", [PassthroughSublayer("p")], tier=tier)
            with pytest.raises(ConfigurationError, match="on_deliver"):
                stack.receive(b"x")

    def test_lossy_delivery_counts_drops(self):
        metrics = RecordingMetrics()
        stack = Stack(
            "t", [PassthroughSublayer("p")],
            metrics=metrics, lossy_delivery=True,
        )
        stack.receive(b"x")
        stack.receive(b"y")
        assert stack.hop_counters.dropped_deliveries == 2
        assert metrics.counts["t/dropped_deliveries"] == 2

    def test_setting_sinks_recompiles(self):
        stack = Stack("t", [PassthroughSublayer("p")])
        sent, got = [], []
        stack.on_transmit = lambda sdu, **meta: sent.append(sdu)
        stack.on_deliver = lambda sdu, **meta: got.append(sdu)
        stack.send(b"a")
        stack.receive(b"b")
        assert sent == [b"a"] and got == [b"b"]


class TestSetTier:
    def test_round_trip_swaps_logs_in_place(self):
        stack, _ = chain("full", depth=2)
        stack.send(b"x")
        full_crossings = stack.interface_log.crossings()
        assert full_crossings == 3

        stack.set_tier("off")
        assert stack.tier == "off"
        stack.send(b"y")
        assert stack.interface_log.crossings() == 0

        stack.set_tier("full")
        stack.send(b"z")
        # the real log survived the excursion, old records intact
        assert stack.interface_log.crossings() == full_crossings + 3

    def test_state_and_notifications_follow_the_swap(self):
        stack = Stack("s", [CountingSublayer("c")])
        stack.on_transmit = lambda sdu, **meta: None
        stack.set_tier("off")
        stack.send(b"x")
        assert stack.access_log.records == []
        stack.set_tier("full")
        stack.send(b"y")
        assert any(r.field == "seen" for r in stack.access_log.records)

    def test_set_tier_preserves_counters_and_validates(self):
        stack, _ = chain("metrics")
        stack.send(b"x")
        assert stack.hop_counters.down == 4
        stack.set_tier("off")
        assert stack.hop_counters.down == 4
        with pytest.raises(ConfigurationError):
            stack.set_tier("loud")
        assert stack.set_tier("off") is stack  # no-op returns self


class Provider(Sublayer):
    """Offers one primitive and fires one notification."""

    SERVICE = ServiceInterface("svc", [Primitive("ask")])
    NOTIFICATIONS = ("event",)

    def srv_ask(self, value):
        self.state.asked = current_actor()
        return value + 1


class User(Sublayer):
    """Calls down through its port and hears the provider's event."""

    def nf_event(self, value):
        self.state.heard = (value, current_actor())


class TestControlPlaneTiers:
    """Ports and notifications follow the tier the way hops do."""

    def control(self, tier):
        user, provider = User("user"), Provider("provider")
        stack = Stack("c", [user, provider], tier=tier)
        return stack, user, provider

    @pytest.mark.parametrize("tier", ["metrics", "off"])
    def test_below_full_binds_the_methods_themselves(self, tier):
        stack, user, provider = self.control(tier)
        assert user.below.ask == provider.srv_ask
        assert provider.notifications["event"].fire == user.nf_event
        assert user.below.ask(1) == 2
        provider.notify("event", 7)
        assert provider.state.asked is None  # no acting_as entered
        assert user.state.heard == (7, None)
        assert stack.interface_log.records == []

    def test_full_logs_and_switches_actor(self):
        stack, user, provider = self.control("full")
        assert user.below.ask(1) == 2
        provider.notify("event", 7)
        assert provider.state.asked == "provider"
        assert user.state.heard == (7, "user")
        assert stack.interface_log.pairs() == {
            ("user", "provider"),
            ("provider", "user"),
        }

    def test_set_tier_rebinds_both_ways(self):
        stack, user, provider = self.control("full")
        stack.set_tier("off")
        assert user.below.ask == provider.srv_ask
        user.below.ask(1)
        assert stack.interface_log.crossings() == 0
        stack.set_tier("full")
        user.below.ask(1)
        provider.notify("event", 2)
        assert stack.interface_log.crossings() == 2

    @pytest.mark.parametrize("tier", TIERS)
    def test_undeclared_primitive_rejected_at_every_tier(self, tier):
        _, user, _ = self.control(tier)
        with pytest.raises(ConfigurationError, match="no primitive 'tell'"):
            user.below.tell(1)


class TestSublayerIndex:
    def test_lookup_and_missing(self):
        stack, _ = chain()
        assert stack.sublayer("p1").name == "p1"
        with pytest.raises(ConfigurationError, match="p9"):
            stack.sublayer("p9")

    def test_replace_rebuilds_index(self):
        stack, _ = chain()
        twin = stack.replace("p1", PassthroughSublayer("p1"))
        assert twin.sublayer("p1") is not stack.sublayer("p1")


class TestReplaceCarriesWiring:
    """Satellite 1: the C5 fungibility path must keep its telemetry."""

    def build_instrumented(self):
        metrics = RecordingMetrics()
        stack = Stack(
            "r",
            [CountingSublayer("a"), CountingSublayer("b")],
            metrics=metrics,
            lossy_delivery=True,
        )
        sent, hops = [], []
        stack.on_transmit = lambda sdu, **meta: sent.append(sdu)
        stack.on_deliver = lambda sdu, **meta: None
        stack.taps.append(lambda *args: hops.append(args[0]))
        spans = []

        class Hook:
            def __init__(self, *args):
                spans.append(args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        stack.span_hook = Hook
        return stack, metrics, sent, hops, spans

    def test_replace_keeps_logs_taps_spans_endpoints(self):
        stack, metrics, sent, hops, spans = self.build_instrumented()
        twin = stack.replace("b", CountingSublayer("b"))

        # shared telemetry instances, not fresh empty ones
        assert twin.interface_log is stack.interface_log
        assert twin.access_log is stack.access_log
        assert twin.metrics is stack.metrics
        assert twin.clock is stack.clock
        assert twin.lossy_delivery is True
        assert list(twin.taps) == list(stack.taps)
        assert twin.span_hook is stack.span_hook
        assert twin.on_transmit is stack.on_transmit
        assert twin.on_deliver is stack.on_deliver

        before = stack.interface_log.crossings()
        hops.clear()
        spans.clear()
        twin.send(b"x")
        assert sent == [b"x"]                      # carried on_transmit
        assert twin.interface_log.crossings() > before  # carried log
        assert hops == ["down"] * 3                # carried taps
        assert len(spans) == 3                     # carried span hook
        assert any(
            r.field == "seen" for r in twin.access_log.records
        )                                          # carried access log

    def test_replace_keeps_tier(self):
        stack, _ = chain("off")
        twin = stack.replace("p1", PassthroughSublayer("p1"))
        assert twin.tier == "off"
        assert twin.interface_log.crossings() == 0
        p0, p1 = twin.sublayer("p0"), twin.sublayer("p1")
        assert p0._send_down == p1.from_above


class TestHopCounters:
    def test_snapshot_and_reset(self):
        counters = HopCounters()
        counters.down = 3
        counters.up = 2
        counters.dropped_deliveries = 1
        assert counters.total() == 5
        assert counters.snapshot() == {
            "down": 3, "up": 2, "dropped_deliveries": 1,
        }
        counters.reset()
        assert counters.total() == 0
        assert "down=0" in repr(counters)
