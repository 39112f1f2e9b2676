import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonreorg import coalition, config, world
from platoonreorg.coalition import (
    KEEP,
    LEFT,
    MERGING,
    RIGHT,
    SPLITTING,
    STAGGER,
    STEADY,
    GameScene,
    Prediction,
    coalition_conditions_hold,
    efficiency_profit,
    evaluate_joint_action,
    feasible_joint_actions,
    form_coalitions,
    formation_intact,
    integration_profit,
    lane_change_plan,
    predict_outcomes,
    safety_profit,
    solve_tu_game,
)
from platoonreorg.control import CavExecutor
from platoonreorg.planner import check_dynamics, generate_lattice, lane_change_time
from platoonreorg.riskfield import risk_at_point, risk_reward
from platoonreorg.world import CAV, HDV, Pose, RoadMap, VehicleState, compute_ttc

ROAD = RoadMap(lane_count=3, length=4000.0)
W = config.DEFAULTS.game
DT = config.DT


def cav(i, x, lane=1, speed=25.0, y=None):
    y = ROAD.lane_center(lane) if y is None else y
    return VehicleState(id=i, kind="CAV", x=x, y=y, speed=speed, lane=lane,
                        target_lane=lane)


def hdv(i, x, lane=0, speed=20.0, y=None):
    y = ROAD.lane_center(lane) if y is None else y
    return VehicleState(id=i, kind="HDV", x=x, y=y, speed=speed, lane=lane,
                        target_lane=lane)


def pose(x, y, speed, kind=CAV):
    """A predicted vehicle of the default size, heading along the road."""
    return Pose(x, y, speed, 0.0, 0.0, config.VEHICLE_LENGTH, config.VEHICLE_WIDTH, kind)


def rollout(scene, partition, joint, horizon=W.horizon):
    """The game's ``Prediction`` of one joint action, rolled out alone."""
    return predict_outcomes(scene, partition, [joint], horizon)[0]


def tracks(scene, partition, joint, horizon=W.horizon):
    """Per member, its rollout ``Pose`` after each ``config.DT`` step up to
    the horizon: the final poses of the rollouts cut at each step."""
    steps = [rollout(scene, partition, joint, k * DT).poses
             for k in range(1, round(horizon / DT) + 1)]
    return [list(member) for member in zip(*steps)]


def prediction(poses, background=(), speed_sums=None, samples=1):
    """A ``Prediction`` with the given final poses and nothing flagged; the
    speed sums default to one sample of each final speed."""
    sums = [p.speed for p in poses] if speed_sums is None else speed_sums
    return Prediction(poses=poses, speed_sums=sums, samples=samples,
                      background=list(background), collided=[False] * len(poses))


def brute_force(partition, scene, phase):
    """Oracle: over every feasible joint action, each rolled out alone, the
    fewest overlapping members, then the highest value, as (value, joint
    action); ties to fewer lane changes, then keep < left < right
    lexicographically."""
    order = {KEEP: 0, LEFT: 1, RIGHT: 2}

    def tie_break(joint):
        return sum(a != KEEP for a in joint), [order[a] for a in joint]

    scored = []
    for joint in sorted(feasible_joint_actions(partition, scene), key=tie_break):
        pred = rollout(scene, partition, joint)
        total, _, _ = evaluate_joint_action(partition, scene, joint, pred, phase)
        scored.append((sum(pred.collided), total, joint))
    fewest = min(n for n, _, _ in scored)
    best = None
    for n, total, joint in scored:
        if n == fewest and (best is None or total > best[0] + 1e-12):
            best = (total, joint)
    return best


def scene_of(platoon, background, cruise=25.0):
    return GameScene(road=ROAD, platoon=platoon, background=background,
                     executors=[CavExecutor(cruise_speed=cruise) for _ in platoon])


class TestFormCoalitions:
    def test_compact_single(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        part = form_coalitions(plat, [])
        assert part == ((0, 1, 2),)
        assert [grp[0] for grp in part] == [0]

    def test_large_gap_splits(self):
        plat = [cav(0, 150.0), cav(1, 135.0), cav(2, 100.0)]  # 15 m then 35 m
        part = form_coalitions(plat, [])
        assert part == ((0, 1), (2,))

    def test_interleaved_hdv_splits(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        intruder = hdv(9, 122.0, lane=1)
        part = form_coalitions(plat, [intruder])
        assert part == ((0,), (1, 2))

    def test_lane_mismatch_splits(self):
        plat = [cav(0, 130.0), cav(1, 115.0, lane=2), cav(2, 100.0)]
        part = form_coalitions(plat, [])
        assert len(part) == 3

    def test_target_groups_cap_coarseness(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        part = form_coalitions(plat, [], target_groups=((0,), (1, 2)))
        assert part == ((0,), (1, 2))

    def test_intact_helper(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        assert formation_intact(plat, [])
        assert not formation_intact(plat, [hdv(9, 120.0, lane=1)])


class TestInterleaveBoundaries:
    """A foreign vehicle splits members 0 (x = 130) and 1 (x = 115) only when
    it lies strictly between them and strictly inside member 0's corridor."""

    PAIR = (cav(0, 130.0), cav(1, 115.0))

    @pytest.mark.parametrize("x", [130.0, 115.0])
    def test_at_either_members_x_does_not_interleave(self, x):
        assert coalition_conditions_hold(*self.PAIR, [hdv(9, x, lane=1)])

    @pytest.mark.parametrize("dy,interleaved", [(2.5, False), (-2.5, False),
                                                (2.49, True), (-2.49, True)])
    def test_corridor_half_width_is_strict(self, dy, interleaved):
        y = ROAD.lane_center(1) + dy
        assert coalition_conditions_hold(*self.PAIR, [hdv(9, 122.0, y=y)]) is not interleaved

    def test_nearest_decides(self):
        """A vehicle past the front member does not hide one in between."""
        background = [hdv(8, 140.0, lane=1), hdv(9, 130.0, lane=1), hdv(7, 120.0, lane=1)]
        assert not coalition_conditions_hold(*self.PAIR, background)
        assert coalition_conditions_hold(*self.PAIR, background[:2])


class TestLaneChangePlan:
    PARTITION = ((0,), (1, 2))

    @pytest.mark.parametrize("joint,plan", [
        ((KEEP, KEEP), [None, None, None]),
        ((KEEP, LEFT), [None, (0.0, LEFT), (STAGGER, LEFT)]),
        ((KEEP, RIGHT), [None, (0.0, RIGHT), (STAGGER, RIGHT)]),
        ((LEFT, KEEP), [(0.0, LEFT), None, None]),
        ((RIGHT, KEEP), [(0.0, RIGHT), None, None]),
        ((LEFT, RIGHT), [(0.0, LEFT), (0.0, RIGHT), (STAGGER, RIGHT)]),
        ((RIGHT, LEFT), [(0.0, RIGHT), (0.0, LEFT), (STAGGER, LEFT)]),
        ((LEFT, LEFT), [(0.0, LEFT), (0.0, LEFT), (STAGGER, LEFT)]),
        ((RIGHT, RIGHT), [(0.0, RIGHT), (0.0, RIGHT), (STAGGER, RIGHT)]),
    ])
    def test_table(self, joint, plan):
        assert lane_change_plan(self.PARTITION, joint) == plan

    def test_game_and_executor_sample_one_plan(self, monkeypatch):
        """Every member of a coalition changing LEFT is placed, at the
        decision and at every step of the rollout, on the plan its executor
        is handed, ``generate_lattice`` from its state on the tick, delayed
        by its ``STAGGER`` start; the plan lasts
        ``lane_change_time(lane_width)`` = 2.8 s."""
        plat = [cav(0, 130.0), cav(1, 115.0, y=3.9), cav(2, 100.0, speed=20.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        assert part == ((0, 1, 2),)
        plans = [generate_lattice(v, LEFT, ROAD) for v in plat]
        assert [p.duration for p in plans] == [2.8, lane_change_time(4.1), 2.8] == [2.8, 2.9, 2.8]
        for i, plan in enumerate(plans):
            assert scene.lane_change(i, LEFT).lat.c == plan.lat.c
        for rank, (plan, track) in enumerate(zip(plans, tracks(scene, part, (LEFT,)))):
            for k, p in enumerate(track, start=1):
                assert p.y == plan.state_at(k * DT - rank * STAGGER)[0]

        seen = []
        _planned_y = coalition._planned_y

        def recorded(scene, i, step, t):
            y, vy = _planned_y(scene, i, step, t)
            seen.append((t, i, y, vy))
            return y, vy

        monkeypatch.setattr(coalition, "_planned_y", recorded)
        predict_outcomes(scene, part, [(LEFT,)], W.horizon)
        assert seen == [(k * DT, i, *plans[i].state_at(k * DT - i * STAGGER)[:2])
                        for k in range(round(W.horizon / DT) + 1) for i in range(3)]


class TestPrediction:
    def test_all_keep_linear(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        last = rollout(scene, part, (KEEP,), 3.0).poses[0]
        assert last.speed == pytest.approx(25.0, abs=1e-9)
        assert last.x - plat[0].x == pytest.approx(25.0 * 3.0, abs=1e-6)
        assert last.y == plat[0].y

    def test_left_change_reaches_lane_width(self):
        plat = [cav(0, 130.0, speed=25.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        y_end = rollout(scene, part, (LEFT,), 3.0).poses[0].y
        assert y_end - ROAD.lane_center(1) == pytest.approx(ROAD.lane_width, abs=1e-9)

    def test_deterministic(self):
        plat = [cav(0, 130.0), cav(1, 115.0)]
        bg = [hdv(9, 180.0, lane=1, speed=15.0)]
        scene = scene_of(plat, bg)
        part = form_coalitions(plat, bg)
        a = rollout(scene, part, (KEEP,), 3.0)
        b = rollout(scene, part, (KEEP,), 3.0)
        assert a == b

    def test_tracks_hold_the_rollouts_poses(self):
        """Each step moves a member to a ``Pose`` of its size, heading along
        the plan's velocity."""
        plat = [cav(0, 130.0), cav(1, 115.0)]
        scene = scene_of(plat, [])
        moved = tracks(scene, form_coalitions(plat, []), (LEFT,), 3.0)
        for rank, (v, track) in enumerate(zip(plat, moved)):
            assert len(track) == 30 and all(type(p) is Pose for p in track)
            assert {(p.length, p.width) for p in track} == {(v.length, v.width)}
            plan = scene.lane_change(rank, LEFT)
            for k, p in enumerate(track, start=1):
                vy = plan.state_at(k * DT - rank * STAGGER)[1]
                assert p.heading == math.atan2(vy, p.speed)
            assert max(p.heading for p in track) > 0.1

    def test_speed_sum_adds_the_decision_and_every_step(self):
        """A ``Prediction`` sums, per member, its speed at the decision and
        after each of the horizon's 30 steps, in that order, so its
        efficiency is the mean over the track it no longer keeps."""
        plat = [cav(0, 100.0), cav(1, 85.0, speed=22.0)]
        bg = [dataclasses.replace(hdv(9, 130.0, lane=1, speed=25.0), accel=-3.0)]
        scene = scene_of(plat, bg)
        part = form_coalitions(plat, bg)
        pred = rollout(scene, part, (KEEP,), 3.0)
        assert pred.samples == 31
        for v, track, total in zip(plat, tracks(scene, part, (KEEP,), 3.0), pred.speed_sums):
            expected = v.speed
            for p in track:
                expected += p.speed
            assert total == expected
            assert efficiency_profit(v.id, pred, 30.0) == expected / (31 * 30.0)

    def test_leaders_are_read_at_the_steps_start(self):
        """Each step moves a member by ``follow_accel`` behind its leader as
        the step begins: a foreign leader 30 m ahead at the same 25 m/s sits
        at its pose of the step's start, not 2.5 m further on at its end."""
        plat = [cav(0, 100.0)]
        bg = [hdv(9, 130.0, lane=1, speed=25.0)]
        scene = scene_of(plat, bg)
        track = [pose(100.0, ROAD.lane_center(1), 25.0)]
        track += tracks(scene, form_coalitions(plat, bg), (KEEP,), 3.0)[0]
        ex = scene.executors[0]
        for k, (before, after) in enumerate(zip(track, track[1:])):
            leader = world.predict(bg[0], k * DT)
            a = coalition.follow_accel(before, leader, ROAD, ex.cruise_speed, ex.K, DT)
            assert after.speed == max(before.speed + a * DT, 0.0)
        assert track[-1].speed < 25.0

    def test_member_brakes_behind_a_braking_hdv(self):
        """A member at 12.5 m/s sits 20 m behind an HDV at its speed, the
        ``5 + 1.2 v`` headway, so it holds its speed behind a steady one.
        When the HDV brakes at -3 m/s², the rollout brakes the member too."""
        plat = [cav(0, 100.0, speed=12.5)]
        steady = [hdv(9, 120.0, lane=1, speed=12.5)]
        part = form_coalitions(plat, steady)
        track = tracks(scene_of(plat, steady, cruise=12.5), part, (KEEP,), 3.0)[0]
        assert {p.speed for p in track} == {12.5}

        braking = [dataclasses.replace(steady[0], accel=-3.0)]
        track = tracks(scene_of(plat, braking, cruise=12.5), part, (KEEP,), 3.0)[0]
        assert all(b.speed <= a.speed for a, b in zip(track, track[1:]))
        assert track[-1].speed < 12.5 - 3.0

    def test_rejects_bad_horizon(self):
        plat = [cav(0, 130.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        with pytest.raises(ValueError):
            predict_outcomes(scene, part, [(KEEP,)], 0.0)


def shifted(kind, dx):
    """A replacement of ``world.predict`` that moves every vehicle of ``kind``
    a further dx m along the road."""
    def model(v, t):
        p = world.predict(v, t)
        return p._replace(x=p.x + dx) if v.kind == kind else p
    return model


class TestOnePrediction:
    """``world.predict`` is the one model of the vehicles the platoon does not
    command: replacing it moves what every reader of the background sees."""

    def test_rollout_reads_the_model(self, monkeypatch):
        """An HDV 60 m behind, moved 63 m ahead by the model to 3 m in front
        of the member, is the member's leader (it brakes) and overlaps it
        (collided), and it is where ``Prediction.background`` puts it."""
        plat = [cav(0, 100.0)]
        bg = [hdv(9, 40.0, lane=1, speed=25.0)]
        part = form_coalitions(plat, bg)
        free = rollout(scene_of(plat, bg), part, (KEEP,), 3.0)
        assert free.collided == [False] and free.poses[0].speed == 25.0

        model = shifted(HDV, 63.0)
        monkeypatch.setattr(coalition, "predict", model)
        pred = rollout(scene_of(plat, bg), part, (KEEP,), 3.0)
        assert pred.collided == [True]
        assert pred.poses[0].speed < 25.0
        assert pred.background == [model(bg[0], 30 * DT)]

    def test_rollout_overlap_reads_the_model(self, monkeypatch):
        """An HDV 60 m behind in the left lane does not touch a member
        changing left until the model brings it level with the member; the
        solve then counts that action's rollout as overlapping and keeps."""
        plat = [cav(0, 130.0)]
        bg = [hdv(9, 70.0, lane=2, speed=25.0)]
        part = form_coalitions(plat, bg)
        assert rollout(scene_of(plat, bg), part, (LEFT,)).collided == [False]

        monkeypatch.setattr(coalition, "predict", shifted(HDV, 60.0))
        scene = scene_of(plat, bg)
        assert rollout(scene, part, (LEFT,)).collided == [True]
        decision = solve_tu_game(part, scene, SPLITTING)
        assert (decision.candidates, decision.pruned_out) == (2, 1)
        assert decision.joint_action != (LEFT,)

    def test_each_background_vehicle_once_per_time(self, monkeypatch):
        """One solve predicts each background vehicle once per distinct time,
        the decision's and each rollout step's, however many joint actions
        it evaluates."""
        calls = Counter()

        def counting(v, t):
            calls[v.id, t] += 1
            return world.predict(v, t)

        monkeypatch.setattr(coalition, "predict", counting)
        plat = [cav(0, 150.0), cav(1, 100.0), cav(2, 50.0)]
        bg = [hdv(9, 220.0, lane=1, speed=15.0), hdv(10, 120.0, lane=0, speed=24.0),
              hdv(11, 90.0, lane=2, speed=27.0)]
        scene = scene_of(plat, bg)
        decision = solve_tu_game(form_coalitions(plat, bg), scene, SPLITTING)
        assert decision.candidates > 9
        times = {k * DT for k in range(round(W.horizon / DT) + 1)}
        assert {key: n for key, n in calls.items() if key[0] >= 9} == {
            (v.id, t): 1 for v in bg for t in times}

    @pytest.mark.parametrize("gaps,n_actions", [((15.0, 15.0), 3), ((50.0, 15.0), 9),
                                                ((50.0, 50.0), 27)],
                             ids=["3-actions", "9-actions", "27-actions"])
    def test_lockstep_predicts_the_background_once_per_step(self, monkeypatch, gaps,
                                                            n_actions):
        """Every feasible joint action rolls forward in one lockstep: a solve
        over 3, 9 or 27 of them calls ``world.predict`` for each background
        vehicle once at the decision and once per rollout step, never once
        per action, and every action's members take their step k after the
        background's step-k poses and before any of step k + 1 exist, so no
        step's background outlives the next."""
        calls, moves, latest = Counter(), Counter(), []

        def counting(v, t):
            calls[v.id] += 1
            latest.append(t)
            return world.predict(v, t)

        def follow(*args):
            moves[latest[-1]] += 1
            return coalition_follow(*args)

        coalition_follow = coalition.follow_accel
        monkeypatch.setattr(coalition, "predict", counting)
        monkeypatch.setattr(coalition, "follow_accel", follow)
        plat = [cav(0, 200.0), cav(1, 200.0 - gaps[0]), cav(2, 200.0 - sum(gaps))]
        bg = [hdv(9, 260.0, lane=1, speed=15.0), hdv(10, 150.0, lane=0, speed=24.0)]
        part = form_coalitions(plat, bg)
        assert len(feasible_joint_actions(part, scene_of(plat, bg))) == n_actions
        solve_tu_game(part, scene_of(plat, bg), SPLITTING)
        n_steps = round(W.horizon / DT)
        assert calls == {v.id: n_steps + 1 for v in bg}
        assert moves == {k * DT: n_actions * len(plat) for k in range(1, n_steps + 1)}


def test_scene_risks_read_the_games_risk_field():
    """The platoon layer's per-member risk is ``risk_reward``, the field of
    the game's safety profit: here every member closes on an HDV ahead in
    its lane, so every risk is positive."""
    plat = [cav(0, 130.0), cav(1, 115.0, lane=2), cav(2, 100.0)]
    bg = [hdv(9, 150.0, lane=1, speed=20.0), hdv(10, 125.0, lane=2, speed=22.0)]
    scene = scene_of(plat, bg)
    assert scene.risks == [risk_reward(v, bg) for v in plat]
    assert min(scene.risks) > 0.0


class TestProfits:
    def test_safety_caps_with_no_neighbors(self):
        plat = [cav(0, 130.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        val = safety_profit(0, rollout(scene, part, (KEEP,), 3.0))
        assert val == pytest.approx(W.k_tau * W.ttc_cap)

    @pytest.mark.parametrize("dx", [5.0, 3.0, 0.5])
    def test_safety_pays_no_ttc_bonus_on_overlap(self, dx):
        """A predicted leader at or inside bumper contact (centres ``dx`` <= one
        length apart) is a TTC of 0, as ``compute_ttc`` has it, not the cap."""
        y = ROAD.lane_center(1)
        lead = pose(100.0 + dx, y, 20.0, HDV)
        pred = prediction([pose(100.0, y, 25.0)], background=[lead])
        risk = risk_at_point(pred.poses[0], [lead])
        assert risk == 1.0  # in contact
        assert safety_profit(0, pred) == pytest.approx(-risk)

    @given(dx=st.floats(0.01, 60.0), v_me=st.floats(0.0, 40.0), v_lead=st.floats(0.0, 40.0))
    @example(dx=20.0, v_me=20.0, v_lead=20.0)              # equal speeds
    @example(dx=20.0, v_me=20.0 + 5e-10, v_lead=20.0)      # closing within 1e-9
    @example(dx=3.0, v_me=25.0, v_lead=20.0)               # overlap
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_safety_ttc_term_is_the_worlds_capped_ttc(self, dx, v_me, v_lead):
        """The safety profit at ``k_tau`` = 1 less its value at ``k_tau`` = 0 is
        ``min(compute_ttc(me, lead), ttc_cap)`` toward the predicted leader."""
        y = ROAD.lane_center(1)
        me, lead = pose(100.0, y, v_me), pose(100.0 + dx, y, v_lead, HDV)
        pred = prediction([me], background=[lead])
        ttc_only = dataclasses.replace(W, k_tau=1.0)
        no_ttc = dataclasses.replace(W, k_tau=0.0)
        tau = safety_profit(0, pred, ttc_only) - safety_profit(0, pred, no_ttc)
        assert tau == pytest.approx(min(compute_ttc(me, lead), W.ttc_cap), rel=1e-12, abs=1e-12)

    def test_safety_monotone_in_ttc(self):
        def track(v_lead):
            plat = [cav(0, 100.0, speed=25.0)]
            bg = [hdv(9, 140.0, lane=1, speed=v_lead)]
            scene = scene_of(plat, bg)
            part = form_coalitions(plat, bg)
            return safety_profit(0, rollout(scene, part, (KEEP,), 3.0))

        assert track(24.0) > track(15.0)

    def test_efficiency_examples(self):
        const = prediction([pose(0, 0, 30.0)], speed_sums=[90.0], samples=3)
        assert efficiency_profit(0, const, 30.0) == pytest.approx(1.0)
        decel = prediction([pose(0, 0, 20.0)], speed_sums=[30.0 + 25.0 + 20.0], samples=3)
        assert efficiency_profit(0, decel, 30.0) == pytest.approx(25.0 / 30.0)
        stopped = prediction([pose(0, 0, 0.0)], speed_sums=[0.0], samples=2)
        assert efficiency_profit(0, stopped, 30.0) == 0.0

    def test_integration_arithmetic(self):
        assert integration_profit(3, [1, 1, 1], 3) == pytest.approx(0.0, abs=1e-12)
        even = integration_profit(3, [0, 1, 2], 3)
        assert even == pytest.approx(3 * math.log(3), abs=1e-9)
        split = integration_profit(3, [0, 0, 1], 3)
        assert split == pytest.approx(1.90954, abs=1e-4)

    def test_integration_shares_are_of_the_window(self):
        """The lane shares divide by the window's vehicle count, not by the
        coalition's size: one member among two more vehicles in its lane
        reads 0, not -3.30, and off-road lanes are not counted."""
        assert integration_profit(1, [1, 1, 1], 3) == 0.0
        assert integration_profit(1, [-1, 1, 1], 3) == 0.0
        assert integration_profit(2, [0, 0, 1, 1, 1, 1], 3) == pytest.approx(
            -2 * (1 / 3 * math.log(1 / 3) + 2 / 3 * math.log(2 / 3)), abs=1e-12)

    @given(st.integers(1, 5), st.integers(2, 5),
           st.lists(st.integers(-1, 5), min_size=1, max_size=40))
    def test_integration_lies_between_zero_and_the_even_spread(self, n_s, n_lanes, lanes):
        value = integration_profit(n_s, lanes, n_lanes)
        assert -1e-12 <= value <= n_s * math.log(n_lanes) + 1e-12


class TestYawedPass:
    """A member at 9 m/s changes RIGHT from lane 1 and an HDV in lane 0
    closes at 29 m/s, level with it (dx = -0.1 m) at one instant.  The
    member is then about 2.5 m beside the HDV, beyond the 2.2 m that
    zero-heading boxes with a 0.2 m pad reach, but yawed by 0.25-0.28 rad
    its box reaches about 0.6 m further sideways and touches the HDV's."""

    def scene(self, y0, t_level):
        member = cav(0, 100.0, speed=9.0, y=y0)
        dx = 9.0 * t_level - 0.1 - 29.0 * t_level
        bg = [hdv(9, 100.0 + dx, lane=0, speed=29.0)]
        return form_coalitions([member], bg), scene_of([member], bg, cruise=9.0)

    def test_rollout_marks_the_member_collided(self):
        """From the lane's centre the plan is at y = 2.53, heading -0.278, at
        the rollout's step to 1.2 s, when the HDV is level."""
        part, scene = self.scene(4.0, 1.2)
        assert rollout(scene, part, (RIGHT,)).collided == [True]
        me = rollout(scene, part, (RIGHT,), 12 * DT).poses[0]
        hdv_at = world.predict(scene.background[0], 12 * DT)
        assert me.x - hdv_at.x == pytest.approx(0.1, abs=1e-9)
        assert (me.y, me.heading) == pytest.approx((2.53, -0.278), abs=5e-3)
        assert rollout(scene, part, (KEEP,)).collided == [False]

    def test_the_solve_counts_the_change_from_off_centre(self):
        """From 0.5 m right of the lane's centre the plan is at y = 2.48,
        heading -0.246, at the rollout's 1 s step, when the HDV is level:
        the solve counts RIGHT as overlapping and does not pick it."""
        part, scene = self.scene(3.5, 1.0)
        plan = scene.lane_change(0, RIGHT)
        y, vy, _ = plan.state_at(1.0)
        assert (y, math.atan2(vy, 9.0)) == pytest.approx((2.48, -0.246), abs=5e-3)
        assert feasible_joint_actions(part, scene) == [(KEEP,), (LEFT,), (RIGHT,)]
        assert rollout(scene, part, (RIGHT,)).collided == [True]
        decision = solve_tu_game(part, scene, SPLITTING)
        assert decision.joint_action != (RIGHT,)
        assert (decision.candidates, decision.pruned_out) == (2, 1)


class TestPruning:
    def test_leftmost_lane_prunes_left(self):
        plat = [cav(0, 130.0, lane=2), cav(1, 115.0, lane=2)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        actions = feasible_joint_actions(part, scene)
        assert all(a[0] != LEFT for a in actions)

    def test_alongside_vehicle_prunes_that_side(self):
        """A vehicle level in the left lane overlaps LEFT's rollout: the solve
        counts that action as overlapping and does not pick it."""
        plat = [cav(0, 130.0, lane=1)]
        blocker = hdv(9, 130.0, lane=2, speed=25.0)
        scene = scene_of(plat, [blocker])
        part = form_coalitions(plat, [blocker])
        assert rollout(scene, part, (LEFT,)).collided == [True]
        decision = solve_tu_game(part, scene, SPLITTING)
        assert decision.joint_action != (LEFT,)
        assert (decision.candidates, decision.pruned_out) == (2, 1)

    def test_two_coalitions_nine_actions(self):
        plat = [cav(0, 150.0), cav(1, 100.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        assert len(part) == 2
        assert len(feasible_joint_actions(part, scene)) == 9
        decision = solve_tu_game(part, scene, SPLITTING)
        assert (decision.candidates, decision.pruned_out) == (9, 0)  # nothing nearby


    def test_infeasible_plan_is_never_offered(self):
        """Heading -0.05 rad at 25 m/s, a member's LEFT plan fails
        ``check_dynamics`` (3.56 m/s² at 0.3 s): no joint action moves its
        coalition LEFT, and RIGHT stays on offer."""
        plat = [cav(0, 130.0), cav(1, 115.0)]
        plat[1].heading = -0.05
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        assert part == ((0, 1),)
        assert not check_dynamics(generate_lattice(plat[1], LEFT, ROAD), ROAD)[0]
        assert feasible_joint_actions(part, scene) == [(KEEP,), (RIGHT,)]

    @given(lanes=st.lists(st.integers(0, 2), min_size=1, max_size=4),
           offsets=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
           speeds=st.lists(st.floats(0.0, config.SPEED_LIMIT), min_size=4, max_size=4),
           headings=st.lists(st.floats(-0.35, 0.35), min_size=4, max_size=4),
           ays=st.lists(st.floats(-config.LAT_ACCEL_LIMIT, config.LAT_ACCEL_LIMIT),
                        min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def test_every_offered_plan_passes_its_dynamics_check(self, lanes, offsets, speeds,
                                                          headings, ays):
        """Members within the limits, 15 m apart, in any lanes: every joint
        action offered moves each changing member on the plan its executor
        would start, and that plan passes ``check_dynamics``; a side is left
        out only when the road ends there or one of its plans fails."""
        plat = []
        for i, lane in enumerate(lanes):
            v = cav(i, 200.0 - 15.0 * i, lane=lane, speed=speeds[i],
                    y=ROAD.lane_center(lane) + offsets[i])
            v.heading, v.ay = headings[i], ays[i]
            plat.append(v)
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        offered = feasible_joint_actions(part, scene)
        for joint in offered:
            for grp, action in zip(part, joint):
                for i in grp if action != KEEP else ():
                    assert check_dynamics(generate_lattice(plat[i], action, ROAD), ROAD)[0]
        for c, grp in enumerate(part):
            for side, target in ((LEFT, plat[grp[0]].lane + 1), (RIGHT, plat[grp[0]].lane - 1)):
                if any(joint[c] == side for joint in offered):
                    continue
                assert not 0 <= target < ROAD.lane_count or not all(
                    check_dynamics(generate_lattice(plat[i], side, ROAD), ROAD)[0] for i in grp)


class TestSolve:
    def test_empty_road_steady_keeps(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        decision = solve_tu_game(part, scene, STEADY)
        assert decision.joint_action == (KEEP,)

    def test_blocked_lane_escapes_left(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        wall = [hdv(9, 190.0, lane=1, speed=0.0), hdv(10, 210.0, lane=0, speed=0.0)]
        scene = scene_of(plat, wall)
        part = form_coalitions(plat, wall)
        decision = solve_tu_game(part, scene, SPLITTING)
        assert decision.joint_action == (LEFT,)
        value, _ = brute_force(part, scene, SPLITTING)
        assert value == pytest.approx(decision.value, abs=1e-9)

    def test_tu_consistency(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 78.0)]
        bg = [hdv(9, 200.0, lane=1, speed=12.0)]
        scene = scene_of(plat, bg)
        part = form_coalitions(plat, bg)
        decision = solve_tu_game(part, scene, MERGING)
        joint = decision.joint_action
        total, breakdown, _ = evaluate_joint_action(part, scene, joint,
                                                    rollout(scene, part, joint), MERGING)
        assert decision.value == pytest.approx(sum(breakdown), abs=1e-9)
        assert decision.value == pytest.approx(total, abs=1e-9)

    def test_a_clean_action_beats_any_overlapping_value(self):
        """A standing car 50 m ahead in lane 1: KEEP's rollout overlaps it
        and LEFT's overlaps nothing.  With a lane-change cost that puts
        KEEP's value more than 1e6 above LEFT's, the solve still picks LEFT.
        Values carry no penalty: KEEP's is its plain, positive profit sum."""
        plat = [cav(0, 130.0)]
        wall = [hdv(9, 180.0, lane=1, speed=0.0)]
        scene = scene_of(plat, wall)
        part = form_coalitions(plat, wall)
        w = dataclasses.replace(W, w_lane_change=1e7)
        keep, left = rollout(scene, part, (KEEP,)), rollout(scene, part, (LEFT,))
        assert (keep.collided, left.collided) == ([True], [False])
        keep_value = evaluate_joint_action(part, scene, (KEEP,), keep, SPLITTING, w)[0]
        left_value = evaluate_joint_action(part, scene, (LEFT,), left, SPLITTING, w)[0]
        assert keep_value > 0.0 and keep_value - left_value > 1e6
        decision = solve_tu_game(part, scene, SPLITTING, w)
        assert decision.joint_action == (LEFT,)
        assert decision.value == left_value
        assert (decision.candidates, decision.pruned_out) == (2, 1)

    def test_gt_differs_by_exact_pdi_term(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        joint = (KEEP,)
        pred = rollout(scene, part, joint)
        plain, plain_parts, _ = evaluate_joint_action(part, scene, joint, pred, MERGING,
                                                      use_pdi=False)
        gt, gt_parts, pdi_value = evaluate_joint_action(part, scene, joint, pred, MERGING,
                                                        use_pdi=True)
        assert pdi_value is not None and pdi_value > 0
        assert plain - gt == pytest.approx(W.w_pdi * pdi_value, abs=1e-9)
        assert gt_parts == plain_parts  # the index is the platoon's, not a coalition's

    def test_pdi_pressure_monotone(self):
        """Same state, same action: the merging total falls by exactly the
        added weight times the index, and no coalition's value moves."""
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        pred = rollout(scene, part, (KEEP,))
        totals, parts = [], []
        for w_pdi in (0.0, W.w_pdi, 1.0):
            w = dataclasses.replace(W, w_pdi=w_pdi)
            total, breakdown, pdi_value = evaluate_joint_action(part, scene, (KEEP,), pred,
                                                                MERGING, w, use_pdi=True)
            totals.append(total)
            parts.append(breakdown)
        assert pdi_value > 0
        assert totals[0] > totals[1] > totals[2]
        assert totals[0] - totals[2] == pytest.approx(pdi_value, abs=1e-9)
        assert parts[0] == parts[1] == parts[2]

    def test_the_value_is_the_same_in_every_phase(self):
        """Members 18 m and 22 m apart, the rear one 0.6 m off its lane's
        centre, keep a formation error at the horizon, and the value does
        not read it: without the index, every phase scores each joint action
        alike."""
        plat = [cav(0, 130.0), cav(1, 112.0), cav(2, 90.0, y=ROAD.lane_center(1) + 0.6)]
        bg = [hdv(9, 200.0, lane=1, speed=18.0)]
        scene = scene_of(plat, bg)
        part = form_coalitions(plat, bg)
        assert part == ((0, 1, 2),)
        for joint in feasible_joint_actions(part, scene):
            pred = rollout(scene, part, joint)
            gaps = [a.x - b.x for a, b in zip(pred.poses, pred.poses[1:])]
            assert max(abs(g - config.D_TARGET) for g in gaps) > 1.0
            steady = evaluate_joint_action(part, scene, joint, pred, STEADY)
            assert evaluate_joint_action(part, scene, joint, pred, SPLITTING) == steady
            assert evaluate_joint_action(part, scene, joint, pred, MERGING) == steady


def random_scene(rng):
    """Small n=3 scene with nearby traffic for oracle equivalence checks."""
    lane = int(rng.integers(0, 3))
    head = float(rng.uniform(200.0, 400.0))
    gap1 = float(rng.uniform(11.0, 45.0))
    gap2 = float(rng.uniform(11.0, 45.0))
    speed = float(rng.uniform(18.0, 28.0))
    plat = [cav(0, head, lane=lane, speed=speed),
            cav(1, head - gap1, lane=lane, speed=speed),
            cav(2, head - gap1 - gap2, lane=lane, speed=speed)]
    bg = []
    for k in range(int(rng.integers(0, 4))):
        bx = head + float(rng.uniform(-80.0, 90.0))
        blane = int(rng.integers(0, 3))
        overlaps = any(abs(bx - p.x) < 12.0 and blane == p.lane for p in plat)
        if overlaps:
            continue
        bg.append(hdv(9 + k, bx, lane=blane, speed=float(rng.uniform(5.0, 28.0))))
    return scene_of(plat, bg)


class TestOracleEquivalence:
    @pytest.mark.parametrize("phase", [SPLITTING, MERGING])
    def test_random_scenes(self, phase):
        rng = np.random.default_rng(77)
        for _ in range(25):
            scene = random_scene(rng)
            part = form_coalitions(scene.platoon, scene.background)
            solver = solve_tu_game(part, scene, phase)
            value, joint = brute_force(part, scene, phase)
            assert solver.joint_action == joint
            assert solver.value == pytest.approx(value, abs=1e-9)
            n_feasible = len(feasible_joint_actions(part, scene))
            assert solver.candidates + solver.pruned_out == n_feasible

