import math

import numpy as np
import pytest

from platoonreorg import config
from platoonreorg.coalition import MERGING, SPLITTING, STEADY, GameScene
from platoonreorg.control import CavExecutor
from platoonreorg.distribution import (
    HeuristicDistributionPolicy,
    PlatoonConfigAction,
    ReorgRecord,
    compute_reward,
    enumerate_configurations,
    reward_bound,
)
from platoonreorg.ppo import Observer
from platoonreorg.world import RoadMap, VehicleState


def cav(i, x, y=4.0, speed=25.0):
    return VehicleState(id=i, kind="CAV", x=x, y=y, speed=speed, lane=1, target_lane=1)


def hdv(i, x, y=0.0, speed=20.0):
    return VehicleState(id=i, kind="HDV", x=x, y=y, speed=speed, lane=0, target_lane=0)


class TestActionSpace:
    def test_n3_listing(self):
        acts = enumerate_configurations(3)
        assert [str(a) for a in acts] == ["(0,1,2)", "(0)(1,2)", "(0,1)(2)", "(0)(1)(2)"]

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 4), (4, 8), (5, 16)])
    def test_counts(self, n, count):
        assert len(enumerate_configurations(n)) == count

    def test_partition_property(self):
        for n in range(2, 6):
            for a in enumerate_configurations(n):
                flat = [i for grp in a.partition for i in grp]
                assert flat == list(range(n))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_configurations(1)
        with pytest.raises(ValueError):
            enumerate_configurations(6)

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            PlatoonConfigAction(partition=((0, 2), (1,)))


class TestObserver:
    def test_noiseless_ground_truth(self):
        obs = Observer(k=4, sigma_pos=0.0, sigma_vel=0.0)
        platoon = [cav(0, 100.0), cav(1, 90.0)]
        bg = [hdv(10, 130.0)]
        rng = np.random.default_rng(0)
        o = obs.observe(platoon, bg, rng, dt=1.0)
        assert o.rows[0][0] == pytest.approx(-10.0)
        assert o.rows[1][0] == pytest.approx(30.0)
        # sentinel padding for the remaining rows
        assert o.rows[2][8] == config.TTC_SENTINEL
        assert o.rows[3][8] == config.TTC_SENTINEL

    def test_empty_surroundings_sentinels(self):
        obs = Observer(k=3, sigma_pos=0.0, sigma_vel=0.0)
        platoon = [cav(0, 100.0)]
        o = obs.observe(platoon, [], np.random.default_rng(0), dt=1.0)
        assert all(r[8] == config.TTC_SENTINEL for r in o.rows)

    def test_seeded_noise_reproducible(self):
        platoon = [cav(0, 100.0), cav(1, 90.0)]
        bg = [hdv(10, 130.0)]
        a = Observer(k=4).observe(platoon, bg, np.random.default_rng(11), dt=1.0)
        b = Observer(k=4).observe(platoon, bg, np.random.default_rng(11), dt=1.0)
        assert np.allclose(a.flatten(), b.flatten())
        c = Observer(k=4).observe(platoon, bg, np.random.default_rng(12), dt=1.0)
        assert not np.allclose(a.flatten(), c.flatten())

    def test_accel_derived_after_noising(self):
        obs = Observer(k=2, sigma_pos=0.0, sigma_vel=0.0)
        platoon = [cav(0, 100.0, speed=25.0), cav(1, 90.0, speed=25.0)]
        rng = np.random.default_rng(0)
        o1 = obs.observe(platoon, [], rng, dt=1.0)
        assert o1.rows[0][4] == 0.0  # first sight: no difference yet
        platoon2 = [cav(0, 125.0, speed=25.0), cav(1, 114.0, speed=26.0)]
        o2 = obs.observe(platoon2, [], rng, dt=1.0)
        assert o2.rows[0][2] == pytest.approx(1.0)  # relative vx changed
        assert o2.rows[0][4] == pytest.approx(1.0)  # backward difference


def make_record():
    return ReorgRecord(episode_len=120.0, target=single())


LANES = (1, 1, 1)   # the members' lanes as a window opens
MOVED = (2, 1, 1)   # the front member one lane left


def single(n=3):
    return PlatoonConfigAction(partition=(tuple(range(n)),))


def split():
    return PlatoonConfigAction(partition=((0,), (1, 2)))


def scene(platoon, background=()):
    return GameScene(road=RoadMap(speed_limit=30.0), platoon=platoon,
                     background=list(background),
                     executors=[CavExecutor(cruise_speed=25.0) for _ in platoon])


class TestReward:
    def test_full_speed_efficiency(self):
        platoon = [cav(0, 120.0, speed=30.0), cav(1, 110.0, speed=30.0),
                   cav(2, 100.0, speed=30.0)]
        record = make_record()
        record.on_decision(single(), 0.0)
        total, bd = compute_reward(scene(platoon), record, False)
        assert bd["R_e"] == pytest.approx(1.0)

    def test_perfect_formation_zero_tracking(self):
        platoon = [cav(0, 120.0), cav(1, 110.0), cav(2, 100.0)]
        record = make_record()
        record.on_decision(single(), 0.0)
        _, bd = compute_reward(scene(platoon), record, False)
        assert bd["R_d"] == pytest.approx(0.0)

    def test_frequency_arithmetic(self):
        record = make_record()
        record.triggers = 2
        record.decisions = 100
        platoon = [cav(0, 120.0), cav(1, 110.0), cav(2, 100.0)]
        _, bd = compute_reward(scene(platoon), record, False)
        assert bd["r_rf"] == pytest.approx(0.02)

    def test_collision_zeroes_r_col(self):
        platoon = [cav(0, 120.0), cav(1, 110.0), cav(2, 100.0)]
        record = make_record()
        record.on_decision(single(), 0.0)
        _, bd = compute_reward(scene(platoon), record, True)
        assert bd["r_col"] == 0.0

    def test_bounded(self):
        bound = reward_bound()
        rng = np.random.default_rng(5)
        record = make_record()
        for k in range(50):
            platoon = [cav(0, 120.0 + rng.uniform(-5, 5), speed=rng.uniform(0, 30)),
                       cav(1, 105.0 + rng.uniform(-5, 5), y=rng.uniform(0, 8),
                           speed=rng.uniform(0, 30)),
                       cav(2, 90.0 + rng.uniform(-5, 5), speed=rng.uniform(0, 30))]
            bg = [hdv(10, 120.0 + rng.uniform(-40, 40), y=rng.uniform(0, 8),
                      speed=rng.uniform(0, 35))]
            action = split() if k % 3 else single()
            record.on_decision(action, 5.0 * k)
            total, _ = compute_reward(scene(platoon, bg), record, False)
            assert abs(total) <= bound
            for dt in (1.0, 2.0, 3.0, 4.0):
                record.on_frame(record.target.single_group, LANES, 5.0 * k + dt)
        assert record.durations

    def test_reorganization_time_is_paid_once(self):
        platoon = [cav(0, 120.0), cav(1, 110.0), cav(2, 100.0)]
        record = make_record()
        record.on_decision(split(), 0.0)
        record.on_frame(False, LANES, 0.5)
        record.on_decision(single(), 5.0)
        for t in (6.0, 7.0, 8.0, 9.0):
            record.on_frame(True, LANES, t)
        record.on_decision(single(), 10.0)
        _, bd = compute_reward(scene(platoon), record, False)
        assert bd["r_re"] == pytest.approx(6.0 / 120.0)
        record.on_decision(single(), 15.0)
        _, bd = compute_reward(scene(platoon), record, False)
        assert bd["r_re"] == 0.0


class TestReorgRecord:
    """The one reorganization window: triggers, vehicle motion, the formation
    hold, the phase."""

    def test_trigger_counts_once_per_reorganization(self):
        record = make_record()
        assert not record.on_decision(single(), 0.0)
        assert record.on_decision(split(), 5.0)
        assert (record.triggers, record.windows, record.count, record.running) == (1, 1, 0, True)
        record.on_frame(False, LANES, 5.1)             # the formation breaks
        assert record.count == 1
        assert not record.on_decision(split(), 10.0)
        assert not record.on_decision(single(), 15.0)
        assert record.on_decision(split(), 20.0)       # a re-split while it runs
        assert (record.triggers, record.windows, record.start) == (2, 1, 5.0)
        record.on_decision(single(), 25.0)
        for t in (26.0, 27.0, 28.0, 29.0):
            record.on_frame(True, LANES, t)
        assert not record.running
        assert record.on_decision(split(), 30.0)       # a new window
        assert (record.triggers, record.windows, record.count, record.start) == (3, 2, 1, 30.0)
        assert record.decisions == 7

    def test_resplit_during_hold_restarts_hold_not_count(self):
        record = make_record()
        record.on_decision(split(), 5.0)
        record.on_frame(False, LANES, 6.0)
        record.on_decision(single(), 10.0)
        for t in (10.5, 11.0, 11.5, 12.0):
            record.on_frame(True, LANES, t)
        assert record.intact_since == 10.5 and record.phase == MERGING
        assert record.on_decision(split(), 12.5)
        assert record.phase == SPLITTING
        record.on_frame(True, LANES, 13.0)    # intact, but the target is split
        assert record.intact_since is None and record.running
        record.on_decision(single(), 15.0)
        t = 15.5
        while record.running:
            record.on_frame(True, LANES, t)
            t += 0.5
        assert t - 0.5 == 15.5 + config.FORMATION_HOLD
        assert record.durations == [15.5 - 5.0]
        assert (record.windows, record.count, record.triggers) == (1, 1, 2)

    def test_completion_needs_hold_of_continuous_intact(self):
        record = make_record()
        record.on_decision(split(), 0.0)
        record.on_decision(single(), 5.0)
        frames = [(5.0 + 0.25 * j, True) for j in range(1, 5)]     # 5.25 .. 6.0
        frames.append((6.25, False))
        frames += [(6.25 + 0.25 * j, True) for j in range(1, 13)]  # 6.5 .. 9.25
        for t, intact in frames:
            record.on_frame(intact, LANES, t)
        assert record.running and record.intact_since == 6.5
        record.on_frame(True, LANES, 6.5 + config.FORMATION_HOLD)
        assert not record.running
        assert record.durations == [6.5]

    def test_frames_without_a_reorganization_change_nothing(self):
        record = make_record()
        record.on_decision(single(), 0.0)
        for t in (1.0, 2.0, 3.0, 4.0):
            record.on_frame(False, MOVED, t)
        assert (record.running, record.count, record.durations, record.lanes,
                record.intact_since) == (False, 0, [], None, None)

    def test_window_without_motion_is_label_only(self):
        record = make_record()
        record.on_decision(split(), 0.0)
        record.on_decision(single(), 1.0)
        for t in (1.5, 2.5, 3.5, 4.5):
            record.on_frame(True, LANES, t)
        assert not record.running
        assert (record.windows, record.count, record.durations) == (1, 0, [])

    def test_broken_formation_counts_once_across_a_resplit(self):
        record = make_record()
        record.on_decision(split(), 0.0)
        record.on_frame(False, LANES, 0.5)
        record.on_decision(single(), 1.0)
        record.on_frame(True, LANES, 1.5)
        assert record.on_decision(split(), 2.0)
        record.on_frame(False, MOVED, 2.5)
        record.on_decision(single(), 3.0)
        for t in (3.5, 4.5, 5.5, 6.5):
            record.on_frame(True, MOVED, t)
        assert not record.running
        assert (record.windows, record.count, record.durations) == (1, 1, [3.5])

    def test_lock_step_lane_change_with_an_intact_formation_counts(self):
        record = make_record()
        record.on_decision(split(), 0.0)
        record.on_frame(True, LANES, 0.1)
        record.on_frame(True, LANES, 1.0)
        assert record.count == 0
        record.on_frame(True, (2, 2, 2), 2.0)   # every member one lane left, together
        assert record.count == 1
        record.on_decision(single(), 3.0)
        for t in (3.5, 4.5, 5.5, 6.5):
            record.on_frame(True, (2, 2, 2), t)
        assert record.durations == [3.5]

    def test_counted_window_still_open_at_the_end_counts(self):
        record = make_record()
        record.on_decision(split(), 0.0)
        record.on_frame(True, LANES, 0.1)
        record.on_frame(True, MOVED, 0.2)
        assert (record.running, record.windows, record.count, record.durations) == (
            True, 1, 1, [])
        record = make_record()
        record.on_decision(split(), 0.0)
        record.on_frame(True, LANES, 0.1)
        assert (record.running, record.windows, record.count) == (True, 1, 0)

    def test_recent_holds_durations_since_the_previous_decision(self):
        record = make_record()
        record.on_decision(split(), 0.0)
        record.on_frame(False, LANES, 0.5)
        record.on_decision(single(), 5.0)
        assert record.recent == ()
        for t in (6.0, 7.0, 8.0, 9.0):
            record.on_frame(True, LANES, t)
        record.on_decision(single(), 10.0)
        assert record.recent == (6.0,)
        record.on_decision(single(), 15.0)
        assert record.recent == ()

    def test_recent_carries_counted_durations_only(self):
        record = make_record()
        recents = []
        for t0, first in ((0.0, LANES), (10.0, MOVED)):   # label-only, then counted
            record.on_decision(split(), t0)
            record.on_frame(True, LANES, t0 + 0.5)
            record.on_frame(True, first, t0 + 1.0)
            record.on_decision(single(), t0 + 2.0)
            recents.append(record.recent)
            for dt in (2.5, 3.5, 4.5, 5.5):
                record.on_frame(True, first, t0 + dt)
            record.on_decision(single(), t0 + 6.0)
            recents.append(record.recent)
        assert recents == [(), (), (), (2.5,)]
        assert (record.windows, record.count, record.durations) == (2, 1, [2.5])

    def test_phase_sequence(self):
        record = make_record()
        phases = [record.phase]
        record.on_decision(single(), 0.0)
        phases.append(record.phase)
        record.on_decision(split(), 5.0)
        phases.append(record.phase)
        record.on_decision(single(), 10.0)
        phases.append(record.phase)
        for t in (10.5, 12.0, 13.0, 13.5):     # intact from 10.5, held 3 s at 13.5
            record.on_frame(True, LANES, t)
            phases.append(record.phase)
        assert phases == [STEADY, STEADY, SPLITTING, MERGING,
                          MERGING, MERGING, MERGING, STEADY]


class TestHeuristic:
    def test_clear_road_single(self):
        pol = HeuristicDistributionPolicy(n=3)
        a = pol.decide(0.0, math.inf)
        assert a.single_group

    def test_low_ttc_splits(self):
        pol = HeuristicDistributionPolicy(n=3)
        a = pol.decide(0.0, 2.0, at_risk_index=0)
        assert not a.single_group
        assert a.partition[0] == (0,)

    def test_isolates_middle_vehicle(self):
        pol = HeuristicDistributionPolicy(n=3)
        a = pol.decide(0.0, 2.0, at_risk_index=1)
        assert a.partition == ((0,), (1,), (2,))

    def test_hysteresis_hold_time(self):
        pol = HeuristicDistributionPolicy(n=3)
        assert not pol.decide(0.0, 2.0).single_group
        # the TTC clears at t=1; merge only 5 s later
        assert not pol.decide(1.0, math.inf).single_group
        assert not pol.decide(4.0, math.inf).single_group
        assert not pol.decide(5.9, math.inf).single_group
        assert pol.decide(6.1, math.inf).single_group
