"""Unit tests for the seeded fault-injection engine."""

import numpy as np
import pytest

from repro.field import RadialField
from repro.geometry import BoundingBox
from repro.network import SensorNetwork
from repro.network.faults import (
    CRASH,
    RECOVER,
    BernoulliLink,
    FaultEngine,
    FaultEvent,
    FaultPlan,
    GilbertElliottLink,
)

BOX = BoundingBox(0, 0, 20, 20)


def dense_net(n=400, seed=0):
    field = RadialField(BOX, center=(10, 10), peak=20, slope=1)
    return SensorNetwork.random_deploy(field, n, radio_range=2.0, seed=seed)


def link_draws(engine, sender, receiver, frames):
    """First-attempt outcomes of ``frames`` fresh frames on one link."""
    air_ok, _, _ = engine.frame_draws_batch(
        [(sender, receiver)], np.array([frames])
    )
    return air_ok[:, 0].tolist()


class TestFaultPlan:
    def test_ratio_validation(self):
        for kw in ("crash_ratio", "recover_ratio", "corruption", "duplication"):
            with pytest.raises(ValueError):
                FaultPlan(**{kw: 1.5})
            with pytest.raises(ValueError):
                FaultPlan(**{kw: -0.1})

    def test_null_plan(self):
        assert FaultPlan.none().is_null
        assert FaultPlan(seed=7).is_null
        assert not FaultPlan(crash_ratio=0.1).is_null
        assert not FaultPlan(link=BernoulliLink(0.9)).is_null
        assert not FaultPlan(events=(FaultEvent(1, 3, CRASH),)).is_null

    def test_intensity_family(self):
        with pytest.raises(ValueError):
            FaultPlan.at_intensity(1.5)
        assert FaultPlan.at_intensity(0.0, seed=3).is_null
        half = FaultPlan.at_intensity(0.5, seed=3)
        assert half.crash_ratio == pytest.approx(0.05)
        assert half.corruption == pytest.approx(0.005)
        assert half.link.deliver_bad == pytest.approx(0.85)
        full = FaultPlan.moderate(seed=3)
        assert full.crash_ratio == pytest.approx(0.10)
        assert full.link.deliver_bad == pytest.approx(0.70)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(1, 3, "explode")
        with pytest.raises(ValueError):
            FaultEvent(-1, 3, CRASH)


class TestLinkModels:
    def test_bernoulli_validation_and_average(self):
        with pytest.raises(ValueError):
            BernoulliLink(1.2)
        assert BernoulliLink(0.8).average_delivery() == pytest.approx(0.8)

    def test_ge_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLink(p_enter_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliottLink(p_enter_bad=0.0, p_exit_bad=0.0)

    def test_ge_closed_forms(self):
        ge = GilbertElliottLink(0.15, 0.4, 1.0, 0.7)
        sb = 0.15 / (0.15 + 0.4)
        assert ge.steady_state_bad() == pytest.approx(sb)
        assert ge.average_delivery() == pytest.approx((1 - sb) * 1.0 + sb * 0.7)

    def test_ge_chain_matches_stationary_distribution(self):
        # Differential check: long-run frequencies of the engine's own
        # per-attempt draws against the closed forms (law of large
        # numbers, seeded).
        net = dense_net(n=50, seed=0)
        n = 40_000

        def delivered(ge):
            engine = FaultEngine(FaultPlan(seed=42, link=ge), net)
            return sum(link_draws(engine, 1, 2, n)) / n

        # A bad state that drops every attempt makes the loss rate read
        # the chain's bad-state occupancy directly.
        occupancy = GilbertElliottLink(0.15, 0.4, 1.0, 0.0)
        assert 1.0 - delivered(occupancy) == pytest.approx(
            occupancy.steady_state_bad(), abs=0.02
        )
        mixed = GilbertElliottLink(0.15, 0.4, 0.95, 0.6)
        assert delivered(mixed) == pytest.approx(mixed.average_delivery(), abs=0.02)


class TestScheduleCache:
    """The schedule of the latest plan is kept per network, and only it."""

    def _count_builds(self, monkeypatch):
        built = []
        build = FaultEngine._build_schedule_uncached

        def counting(engine):
            built.append(engine.plan.seed)
            return build(engine)

        monkeypatch.setattr(FaultEngine, "_build_schedule_uncached", counting)
        return built

    def test_same_plan_twice_builds_once(self, monkeypatch):
        net = dense_net(seed=8)
        built = self._count_builds(monkeypatch)
        plan = FaultPlan.moderate(seed=3)
        a, b = FaultEngine(plan, net), FaultEngine(plan, net)
        assert built == [3]
        a.finish_epoch()
        b.finish_epoch()
        assert a.crashed_nodes == b.crashed_nodes
        # Another plan takes the one slot; the first plan then rebuilds.
        FaultEngine(FaultPlan.moderate(seed=4), net)
        FaultEngine(plan, net)
        assert built == [3, 4, 3]

    def test_fresh_plans_leave_one_schedule(self, monkeypatch):
        net = dense_net(seed=8)
        built = self._count_builds(monkeypatch)
        for seed in range(50):
            FaultEngine(FaultPlan.at_intensity(0.5, seed=seed), net)
        assert built == list(range(50))
        held = [v for k, v in vars(net).items() if "schedule" in k]
        assert len(held) == 1
        key, schedule = held[0]
        assert key[0] == 49 and schedule

    def test_tree_rebuild_invalidates(self, monkeypatch):
        net = dense_net(seed=8)
        built = self._count_builds(monkeypatch)
        plan = FaultPlan.moderate(seed=3)
        FaultEngine(plan, net)
        net.fail_random(0.1, mode="crash")
        engine = FaultEngine(plan, net)
        assert built == [3, 3]
        engine.finish_epoch()
        assert all(net.nodes[i].alive for i in engine.crashed_nodes)

    def test_crashers_follow_ascending_candidates(self):
        # ``rng.sample`` reads the candidate list in ascending id order.
        import random

        net = dense_net(seed=9)
        net.fail_random(0.1, mode="crash")
        plan = FaultPlan(seed=5, crash_ratio=0.2)
        candidates = [
            i
            for i in range(net.n_nodes)
            if i != net.sink_index
            and net.nodes[i].alive
            and net.tree.level[i] >= 0
        ]
        rng = random.Random(f"{plan.seed}|schedule")
        want = rng.sample(candidates, int(0.2 * len(candidates) + 0.5))
        engine = FaultEngine(plan, net)
        engine.finish_epoch()
        assert sorted(engine.crashed_nodes) == sorted(want)


class TestFaultEngine:
    def test_schedule_is_deterministic(self):
        net = dense_net(seed=1)
        plan = FaultPlan.moderate(seed=9)
        a, b = FaultEngine(plan, net), FaultEngine(plan, net)
        a.finish_epoch()
        b.finish_epoch()
        assert a.crashed_nodes == b.crashed_nodes
        assert a.recovered_nodes == b.recovered_nodes
        assert len(a.crashed_nodes) > 0

    def test_crash_count_uses_round_half_up_over_candidates(self):
        net = dense_net(seed=2)
        candidates = sum(
            1
            for i in range(net.n_nodes)
            if i != net.sink_index
            and net.nodes[i].alive
            and net.tree.level[i] >= 0
        )
        engine = FaultEngine(FaultPlan(seed=0, crash_ratio=0.1), net)
        engine.finish_epoch()
        assert len(engine.crashed_nodes) == int(0.1 * candidates + 0.5)

    def test_never_mutates_network(self):
        net = dense_net(seed=3)
        before = [node.alive for node in net.nodes]
        engine = FaultEngine(FaultPlan.moderate(seed=1), net)
        engine.finish_epoch()
        assert engine.crashed_nodes  # something did crash in the engine...
        assert [node.alive for node in net.nodes] == before  # ...not the net

    def test_sink_is_never_scheduled(self):
        net = dense_net(seed=4)
        engine = FaultEngine(FaultPlan(seed=0, crash_ratio=1.0), net)
        engine.finish_epoch()
        assert net.sink_index not in engine.crashed_nodes
        with pytest.raises(ValueError):
            FaultEngine(
                FaultPlan(events=(FaultEvent(1, net.sink_index, CRASH),)), net
            )

    def test_explicit_events_fire_at_slot_boundaries(self):
        net = dense_net(seed=5)
        victim = next(
            i for i in range(net.n_nodes)
            if i != net.sink_index and net.tree.level[i] >= 0
        )
        plan = FaultPlan(
            events=(FaultEvent(5, victim, CRASH), FaultEvent(2, victim, RECOVER))
        )
        engine = FaultEngine(plan, net)
        assert engine.alive(victim)
        engine.advance_to_slot(6)
        assert engine.alive(victim)  # slot 5 has not been reached yet
        engine.advance_to_slot(5)
        assert not engine.alive(victim)
        engine.advance_to_slot(2)
        assert engine.alive(victim)
        assert engine.crashed_nodes == (victim,)
        assert engine.recovered_nodes == (victim,)

    def test_recoveries_are_a_subset_of_crashers(self):
        net = dense_net(seed=6)
        plan = FaultPlan(seed=11, crash_ratio=0.2, recover_ratio=0.5)
        engine = FaultEngine(plan, net)
        engine.finish_epoch()
        assert set(engine.recovered_nodes) <= set(engine.crashed_nodes)
        expected = int(0.5 * len(engine.crashed_nodes) + 0.5)
        # Crashers scheduled at slot 1 have no earlier slot to recover in.
        assert len(engine.recovered_nodes) <= expected

    def test_corrupt_payload_flips_one_to_three_bits(self):
        net = dense_net(seed=7)
        engine = FaultEngine(FaultPlan(seed=0, corruption=0.5), net)
        payload = bytes(range(16))
        for _ in range(50):
            damaged = engine.corrupt_payload(payload)
            assert len(damaged) == len(payload)
            flipped = sum(
                bin(a ^ b).count("1") for a, b in zip(payload, damaged)
            )
            assert 1 <= flipped <= 3
        assert engine.corrupt_payload(b"") == b""

    def test_link_streams_are_per_directed_link(self):
        net = dense_net(seed=8)
        plan = FaultPlan(seed=0, link=BernoulliLink(0.5))
        a, b = FaultEngine(plan, net), FaultEngine(plan, net)
        # Same link, same stream -- regardless of draws on other links.
        seq_a = link_draws(a, 1, 2, 20)
        link_draws(b, 3, 4, 100)
        assert link_draws(b, 1, 2, 20) == seq_a
        # The reverse direction is a different link with its own stream.
        assert link_draws(a, 2, 1, 20) != seq_a
