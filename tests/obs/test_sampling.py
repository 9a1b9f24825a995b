"""Sampled tracing: head decisions, tree atomicity, tail retention,
determinism, and survival across live stack surgery (set_tier/replace/
insert recompiles)."""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.obs import MetricsRegistry, SpanTracer, watch_counters
from repro.obs.sample import default_sample_rng
from tests.transport.helpers import make_pair, transfer


def sampled_pair(sample, rng=None, **tracer_kwargs):
    sim, a, b, _link = make_pair()
    tracer = SpanTracer(sample=sample, rng=rng, **tracer_kwargs)
    tracer.attach(a.stack).attach(b.stack)
    return sim, a, b, tracer


class TestConstruction:
    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError, match="sample"):
            SpanTracer(sample=1.5)
        with pytest.raises(ConfigurationError, match="sample"):
            SpanTracer(sample=-0.1)

    def test_rejects_bad_tail_mode(self):
        with pytest.raises(ConfigurationError, match="tail"):
            SpanTracer(sample=0.5, tail="branch")

    def test_default_rng_is_deterministic(self):
        assert [default_sample_rng().random() for _ in range(3)] == [
            default_sample_rng().random() for _ in range(3)
        ]


class TestHeadSampling:
    def test_sample_zero_records_nothing_but_counts(self):
        sim, a, b, tracer = sampled_pair(sample=0.0)
        transfer(sim, a, b, nbytes=2000)
        assert len(tracer) == 0
        assert tracer.sampled_out > 0

    def test_sample_one_records_everything(self):
        sim, a, b, tracer = sampled_pair(sample=1.0)
        transfer(sim, a, b, nbytes=2000)
        assert len(tracer) > 0
        assert tracer.sampled_out == 0

    def test_trees_kept_or_dropped_atomically(self):
        """No orphans: every recorded span's parent is recorded too."""
        sim, a, b, tracer = sampled_pair(sample=0.4)
        transfer(sim, a, b, nbytes=8000)
        spans = tracer.spans()
        assert spans, "a 0.4 sample of a transfer should keep something"
        assert tracer.sampled_out > 0, "and drop something"
        sids = {s["sid"] for s in spans}
        for span in spans:
            if span["parent"] is not None:
                assert span["parent"] in sids

    def test_same_rng_seed_samples_identically(self):
        def run():
            sim, a, b, tracer = sampled_pair(
                sample=0.3, rng=random.Random(42)
            )
            transfer(sim, a, b, nbytes=5000)
            return [
                (s["stack"], s["direction"], s["caller"], s["actor"])
                for s in tracer.spans()
            ]

        assert run() == run()

    def test_different_seeds_sample_differently(self):
        def run(seed):
            sim, a, b, tracer = sampled_pair(
                sample=0.5, rng=random.Random(seed)
            )
            transfer(sim, a, b, nbytes=5000)
            return len(tracer)

        counts = {run(seed) for seed in (1, 2, 3, 4)}
        assert len(counts) > 1


class TestTailRetention:
    def test_error_retains_dropped_activation(self):
        """An exception escaping a sampled-out activation keeps it.

        Sending on a TCP stack with no open connection makes CM raise —
        a real protocol error travelling up through live spans.
        """
        sim, a, b, _link = make_pair()
        tracer = SpanTracer(sample=0.0)
        tracer.attach(a.stack)
        with pytest.raises(Exception) as excinfo:
            a.stack.send(b"x")
        spans = tracer.spans()
        assert spans, "the erroring activation must be retained"
        root = [s for s in spans if s["parent"] is None][0]
        assert root["retained"] == "error"
        assert root["error"] == type(excinfo.value).__name__
        assert tracer.retained["error"] == 1

    def test_tree_mode_keeps_whole_tree_root_mode_only_root(self):
        for tail, expect_children in (("tree", True), ("root", False)):
            sim, a, b, _link = make_pair()
            tracer = SpanTracer(sample=0.0, tail=tail)
            tracer.attach(a.stack)
            with pytest.raises(Exception):
                a.stack.send(b"x")
            spans = tracer.spans()
            children = [s for s in spans if s["parent"] is not None]
            assert bool(children) == expect_children
            assert any(s["parent"] is None for s in spans)

    def test_watched_counter_movement_retains(self):
        registry = MetricsRegistry()
        sim, a, b, _link = make_pair(metrics=registry)
        tracer = SpanTracer(
            sample=0.0, retain=watch_counters(registry, "*/segments_sent")
        )
        tracer.attach(a.stack)
        transfer(sim, a, b, nbytes=1000)
        assert tracer.retained["interest"] > 0
        roots = [s for s in tracer.spans() if s["parent"] is None]
        assert any(s.get("retained") == "interest" for s in roots)

    def test_watch_counters_needs_patterns(self):
        with pytest.raises(ValueError):
            watch_counters(MetricsRegistry())


class TestSamplingMeta:
    def test_write_jsonl_declares_sampling(self, tmp_path):
        sim, a, b, tracer = sampled_pair(sample=0.25)
        transfer(sim, a, b, nbytes=4000)
        path = tmp_path / "sampled.jsonl"
        tracer.write_jsonl(path)
        from repro.obs import load_jsonl_with_meta

        _, meta = load_jsonl_with_meta(path)
        assert meta["sample_rate"] == 0.25
        assert meta["sampled_out"] == tracer.sampled_out

    def test_unsampled_trace_has_no_sampling_meta(self, tmp_path):
        sim, a, b, tracer = sampled_pair(sample=1.0)
        transfer(sim, a, b, nbytes=1000)
        path = tmp_path / "full.jsonl"
        tracer.write_jsonl(path)
        from repro.obs import load_jsonl_with_meta

        _, meta = load_jsonl_with_meta(path)
        assert "sample_rate" not in meta


class TestStackSurgeryWhileTracing:
    """Satellite: the span hook must survive recompiling mutations."""

    def test_set_tier_after_attach_keeps_tracing(self):
        """Attach at tier full, then drop to metrics/off: the tier
        switch recompiles every hop and must carry the hook along."""
        sim, a, b, tracer = sampled_pair(sample=1.0)
        a.stack.set_tier("metrics")
        b.stack.set_tier("off")
        data, received, _sock, _peer = transfer(sim, a, b, nbytes=1000)
        assert received == data
        assert len(tracer) > 0, "hook must be recompiled into the new tier"
        assert {s["stack"] for s in tracer.spans()} == {"tcp:a", "tcp:b"}
        # and spans still nest correctly under the cheap tiers
        sids = {s["sid"] for s in tracer.spans()}
        assert all(
            s["parent"] in sids
            for s in tracer.spans()
            if s["parent"] is not None
        )

    def test_replace_carries_hook_to_twin(self):
        """stack.replace() builds a twin; the tracer must follow it."""
        sim, a, b, tracer = sampled_pair(sample=1.0)
        from repro.transport.sublayered.rd import RdSublayer

        twin = a.stack.replace("rd", RdSublayer("rd"))
        a.stack = twin  # hosts route through self.stack
        twin.on_transmit = a.stack.on_transmit
        assert twin.span_hook is not None

    def test_insert_recompiles_hook_into_new_hops(self):
        sim, a, b, tracer = sampled_pair(sample=1.0)
        from repro.core.sublayer import PassthroughSublayer

        class TransparentShim(PassthroughSublayer):
            TRANSPARENT = True  # control plane wires straight past it

        a.stack.insert("cm", TransparentShim("shim"), where="after")
        transfer(sim, a, b, nbytes=1000)
        assert "shim" in tracer.actors(), (
            "crossings into the inserted sublayer must be spanned"
        )


class TestSampledFastPath:
    def test_dropped_crossings_skip_span_objects(self):
        """At sample=0, tail='root', child hooks return None — the hop
        calls through without entering any context manager."""
        sim, a, b, _link = make_pair()
        tracer = SpanTracer(sample=0.0, tail="root")
        tracer.attach(a.stack)
        transfer(sim, a, b, nbytes=2000)
        # nothing recorded, but the skipped crossings were counted
        assert len(tracer) == 0
        assert tracer.sampled_out > 0

    def test_gated_roots_count_like_span_roots(self):
        """A dropped root nobody watches runs behind the skip gate with
        no span object; it must account exactly like the span path a
        never-moving ``retain`` watcher forces."""

        def run(retain):
            sim, a, b, _link = make_pair()
            tracer = SpanTracer(sample=0.0, tail="root", retain=retain)
            tracer.attach(a.stack).attach(b.stack)
            transfer(sim, a, b, nbytes=4000)
            return tracer

        gated, spanned = run(None), run(lambda: 0)
        assert gated.sampled_out == spanned.sampled_out > 0
        assert len(gated) == len(spanned) == 0
        assert gated._next_id == spanned._next_id
        assert not gated._gate.dropping

    def test_gated_root_error_is_retained_with_its_record(self):
        sim, a, b, _link = make_pair()
        tracer = SpanTracer(sample=0.0, tail="root")
        tracer.attach(a.stack)
        with pytest.raises(Exception) as excinfo:
            a.stack.send(b"x")
        assert not tracer._gate.dropping, "the hop must close the gate"
        (root,) = tracer.spans()
        assert root["parent"] is None and root["sid"] == 1
        assert root["stack"] == "tcp:a" and root["direction"] == "down"
        assert root["error"] == type(excinfo.value).__name__
        assert root["retained"] == "error"
        assert root["t0"] <= root["t1"] and root["w0"] <= root["w1"]
        assert tracer.retained["error"] == 1
        # The retained root is not sampled out; its skipped children are.
        assert tracer.sampled_out == tracer._gate.skipped
