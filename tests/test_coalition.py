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
    PREDICT_DT,
    RIGHT,
    SPLITTING,
    STAGGER,
    STEADY,
    GameScene,
    Prediction,
    LANE_CHANGE_TIME,
    coalition_conditions_hold,
    coalition_value,
    efficiency_profit,
    evaluate_joint_action,
    feasible_joint_actions,
    form_coalitions,
    formation_intact,
    integration_profit,
    lane_change_plan,
    lane_change_y,
    predict_outcome,
    prune_joint_actions,
    safety_profit,
    solve_tu_game,
    tracking_profit,
)
from platoonreorg.control import CavExecutor
from platoonreorg.planner import quintic
from platoonreorg.riskfield import risk_at_point, risk_reward
from platoonreorg.world import CAV, HDV, Pose, RoadMap, VehicleState, compute_ttc

ROAD = RoadMap(lane_count=3, length=4000.0)
W = config.DEFAULTS.game


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


def brute_force(partition, scene, phase):
    """Oracle: unpruned argmax over every feasible joint action, as
    (value, joint action), ties to fewer lane changes, then keep < left <
    right lexicographically."""
    order = {KEEP: 0, LEFT: 1, RIGHT: 2}

    def tie_break(joint):
        return sum(a != KEEP for a in joint), [order[a] for a in joint]

    best = None
    for joint in sorted(feasible_joint_actions(partition, scene), key=tie_break):
        total, _, _ = evaluate_joint_action(partition, scene, joint, phase)
        if best is None or total > best[0] + 1e-12:
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

    @pytest.mark.parametrize("y0,y1", [(4.0, 8.0), (4.0, 0.0), (-4.0, 0.0), (3.7, 8.2)])
    def test_curve_matches_quintic_profile(self, y0, y1):
        q = quintic(y0, 0.0, 0.0, y1, 0.0, 0.0, LANE_CHANGE_TIME)
        for k in range(-10, 51):
            tau = k * 0.1
            want = q.derivatives(min(max(tau, 0.0), LANE_CHANGE_TIME))[0]
            assert abs(lane_change_y(y0, y1, tau) - want) <= 1e-12
        assert lane_change_y(y0, y1, -1.0) == y0


class TestPrediction:
    def test_all_keep_linear(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        pred = predict_outcome(scene, part, (KEEP,), 3.0)
        first, last = pred.platoon_tracks[0][0], pred.platoon_tracks[0][-1]
        assert last.speed == pytest.approx(25.0, abs=1e-9)
        assert last.x - first.x == pytest.approx(25.0 * 3.0, abs=1e-6)
        assert last.y == first.y

    def test_left_change_reaches_lane_width(self):
        plat = [cav(0, 130.0, speed=25.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        pred = predict_outcome(scene, part, (LEFT,), 3.0)
        y_end = pred.platoon_tracks[0][-1].y
        assert y_end - ROAD.lane_center(1) == pytest.approx(ROAD.lane_width, abs=1e-9)

    def test_deterministic(self):
        plat = [cav(0, 130.0), cav(1, 115.0)]
        bg = [hdv(9, 180.0, lane=1, speed=15.0)]
        scene = scene_of(plat, bg)
        part = form_coalitions(plat, bg)
        a = predict_outcome(scene, part, (KEEP,), 3.0)
        b = predict_outcome(scene, part, (KEEP,), 3.0)
        assert a.platoon_tracks == b.platoon_tracks

    def test_tracks_hold_the_rollouts_poses(self):
        """Each track starts at the member's pose and holds the ``Pose`` each
        step moved it to, its size included."""
        plat = [cav(0, 130.0), cav(1, 115.0)]
        scene = scene_of(plat, [])
        pred = predict_outcome(scene, form_coalitions(plat, []), (LEFT,), 3.0)
        for v, track in zip(plat, pred.platoon_tracks):
            assert len(track) == 11 and all(type(p) is Pose for p in track)
            assert track[0] == pose(v.x, v.y, v.speed)
            assert {(p.length, p.width, p.heading) for p in track} == {
                (v.length, v.width, 0.0)}

    def test_rejects_bad_horizon(self):
        plat = [cav(0, 130.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        with pytest.raises(ValueError):
            predict_outcome(scene, part, (KEEP,), 0.0)


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
        """An HDV 60 m behind, moved 60 m ahead by the model, is the member's
        leader (it brakes) and overlaps it (collided), and it is where
        ``Prediction.background`` puts it."""
        plat = [cav(0, 100.0)]
        bg = [hdv(9, 40.0, lane=1, speed=25.0)]
        part = form_coalitions(plat, bg)
        free = predict_outcome(scene_of(plat, bg), part, (KEEP,), 3.0)
        assert free.collided == [False] and free.platoon_tracks[0][-1].speed == 25.0

        model = shifted(HDV, 60.0)
        monkeypatch.setattr(coalition, "predict", model)
        pred = predict_outcome(scene_of(plat, bg), part, (KEEP,), 3.0)
        assert pred.collided == [True]
        assert pred.platoon_tracks[0][-1].speed < 25.0
        assert pred.background == [model(bg[0], 10 * PREDICT_DT)]

    @pytest.mark.parametrize("kind,dx", [(HDV, 60.0), (CAV, -60.0)])
    def test_pruning_screen_reads_the_model(self, monkeypatch, kind, dx):
        """An HDV 60 m behind in the left lane does not block a left change
        until the model brings it level with the member, by moving either the
        HDV or the member."""
        plat = [cav(0, 130.0)]
        bg = [hdv(9, 70.0, lane=2, speed=25.0)]
        part = form_coalitions(plat, bg)
        scene = scene_of(plat, bg)
        assert (LEFT,) in prune_joint_actions(part, scene, feasible_joint_actions(part, scene))

        monkeypatch.setattr(coalition, "predict", shifted(kind, dx))
        scene = scene_of(plat, bg)
        pruned = prune_joint_actions(part, scene, feasible_joint_actions(part, scene))
        assert (LEFT,) not in pruned and (KEEP,) in pruned

    def test_each_background_vehicle_once_per_time(self, monkeypatch):
        """One solve predicts each background vehicle once per distinct time
        (the rollout's steps, the pruning screen's 1 s and its lane-change
        commit pose), however many joint actions it evaluates."""
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
        times = {k * PREDICT_DT for k in range(1, round(W.horizon / PREDICT_DT) + 1)}
        times |= {1.0, LANE_CHANGE_TIME}
        assert {key: n for key, n in calls.items() if key[0] >= 9} == {
            (v.id, t): 1 for v in bg for t in times}


def test_scene_risks_read_the_games_risk_field():
    """The platoon layer's per-member risk is ``risk_reward`` under
    ``config.DEFAULTS.risk``, the parameter set of the game's safety profit."""
    plat = [cav(0, 130.0), cav(1, 115.0, lane=2), cav(2, 100.0)]
    bg = [hdv(9, 150.0, lane=1, speed=30.0), hdv(10, 110.0, lane=2, speed=22.0)]
    scene = scene_of(plat, bg)
    assert scene.risks == [risk_reward(v, bg, config.DEFAULTS.risk) for v in plat]
    assert min(scene.risks) > 0.0


class TestProfits:
    def test_safety_caps_with_no_neighbors(self):
        plat = [cav(0, 130.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        pred = predict_outcome(scene, part, (KEEP,), 3.0)
        val = safety_profit(0, pred)
        assert val == pytest.approx(W.k_tau * W.ttc_cap + W.k_d * W.dist_cap ** 2)

    @pytest.mark.parametrize("dx", [5.0, 3.0, 0.5])
    def test_safety_pays_no_ttc_bonus_on_overlap(self, dx):
        """A predicted leader at or inside bumper contact (centres ``dx`` <= one
        length apart) is a TTC of 0, as ``compute_ttc`` has it, not the cap."""
        y = ROAD.lane_center(1)
        lead = pose(100.0 + dx, y, 20.0, HDV)
        pred = Prediction(platoon_tracks=[[pose(100.0, y, 25.0)]], background=[lead],
                          collided=[False])
        risk = risk_at_point(100.0, y, [lead], config.DEFAULTS.risk)
        assert safety_profit(0, pred) == pytest.approx(-risk + W.k_d * dx ** 2)

    @given(dx=st.floats(0.01, 60.0), v_me=st.floats(0.0, 40.0), v_lead=st.floats(0.0, 40.0))
    @example(dx=20.0, v_me=20.0, v_lead=20.0)              # equal speeds
    @example(dx=20.0, v_me=20.0 + 5e-10, v_lead=20.0)      # closing within 1e-9
    @example(dx=3.0, v_me=25.0, v_lead=20.0)               # overlap
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_safety_ttc_term_is_the_worlds_capped_ttc(self, dx, v_me, v_lead):
        """With every other term weighted out, the safety profit is
        ``min(compute_ttc(me, lead), ttc_cap)`` toward the predicted leader."""
        y = ROAD.lane_center(1)
        me, lead = pose(100.0, y, v_me), pose(100.0 + dx, y, v_lead, HDV)
        pred = Prediction(platoon_tracks=[[me]], background=[lead], collided=[False])
        ttc_only = dataclasses.replace(W, k_tau=1.0, k_d=0.0)
        no_ttc = dataclasses.replace(W, k_tau=0.0, k_d=0.0)
        tau = safety_profit(0, pred, ttc_only) - safety_profit(0, pred, no_ttc)
        assert tau == pytest.approx(min(compute_ttc(me, lead), W.ttc_cap), rel=1e-12, abs=1e-12)

    def test_safety_monotone_in_ttc(self):
        def track(v_lead):
            plat = [cav(0, 100.0, speed=25.0)]
            bg = [hdv(9, 140.0, lane=1, speed=v_lead)]
            scene = scene_of(plat, bg)
            part = form_coalitions(plat, bg)
            pred = predict_outcome(scene, part, (KEEP,), 3.0)
            return safety_profit(0, pred)

        assert track(24.0) > track(15.0)

    def test_efficiency_examples(self):
        const = Prediction(platoon_tracks=[[pose(0, 0, 30.0)] * 3],
                           background=[], collided=[False])
        assert efficiency_profit(0, const, 30.0) == pytest.approx(1.0)
        decel = Prediction(platoon_tracks=[[pose(0, 0, 30.0), pose(0, 0, 25.0),
                                            pose(0, 0, 20.0)]],
                           background=[], collided=[False])
        assert efficiency_profit(0, decel, 30.0) == pytest.approx(25.0 / 30.0)
        stopped = Prediction(platoon_tracks=[[pose(0, 0, 0.0)] * 2],
                             background=[], collided=[False])
        assert efficiency_profit(0, stopped, 30.0) == 0.0

    def test_integration_arithmetic(self):
        assert integration_profit([1, 1, 1], [1, 1, 1], 3) == pytest.approx(0.0, abs=1e-12)
        even = integration_profit([0, 1, 2], [0, 1, 2], 3)
        assert even == pytest.approx(3 * math.log(3), abs=1e-9)
        split = integration_profit([0, 0, 1], [0, 0, 1], 3)
        assert split == pytest.approx(1.90954, abs=1e-4)

    def test_tracking_examples(self):
        perfect = Prediction(
            background=[], collided=[False] * 2,
            platoon_tracks=[[pose(110.0, 4.0, 25.0)], [pose(100.0, 4.0, 25.0)]])
        assert tracking_profit((0, 1), perfect) == 0.0
        off = Prediction(
            background=[], collided=[False] * 2,
            platoon_tracks=[[pose(112.0, 4.0, 25.0)], [pose(100.0, 4.0, 25.0)]])
        assert tracking_profit((0, 1), off) == pytest.approx(-2.0)
        lateral = Prediction(
            background=[], collided=[False] * 2,
            platoon_tracks=[[pose(110.0, 5.0, 25.0)], [pose(100.0, 4.0, 25.0)]])
        assert tracking_profit((0, 1), lateral) == pytest.approx(-W.k_y * 1.0)
        singleton = Prediction(background=[], collided=[False],
                               platoon_tracks=[[pose(110.0, 4.0, 25.0)]])
        assert tracking_profit((0,), singleton) == 0.0


class TestPruning:
    def test_leftmost_lane_prunes_left(self):
        plat = [cav(0, 130.0, lane=2), cav(1, 115.0, lane=2)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        actions = feasible_joint_actions(part, scene)
        assert all(a[0] != LEFT for a in actions)

    def test_alongside_vehicle_prunes_that_side(self):
        plat = [cav(0, 130.0, lane=1)]
        blocker = hdv(9, 130.0, lane=2, speed=25.0)
        scene = scene_of(plat, [blocker])
        part = form_coalitions(plat, [blocker])
        pruned = prune_joint_actions(part, scene, feasible_joint_actions(part, scene))
        assert (LEFT,) not in pruned
        assert (KEEP,) in pruned

    def test_two_coalitions_nine_actions(self):
        plat = [cav(0, 150.0), cav(1, 100.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        assert len(part) == 2
        actions = feasible_joint_actions(part, scene)
        assert len(actions) == 9
        pruned = prune_joint_actions(part, scene, actions)
        assert set(pruned) == set(actions)  # nothing nearby


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
        total, breakdown, _ = evaluate_joint_action(part, scene,
                                                    decision.joint_action, MERGING)
        assert decision.value == pytest.approx(sum(breakdown), abs=1e-9)
        assert decision.value == pytest.approx(total, abs=1e-9)

    def test_weight_scaling_invariance(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        bg = [hdv(9, 185.0, lane=1, speed=10.0), hdv(10, 160.0, lane=2, speed=24.0)]
        scene = scene_of(plat, bg)
        part = form_coalitions(plat, bg)
        base = solve_tu_game(part, scene, SPLITTING, W)
        scaled_w = dataclasses.replace(
            W, w_s=W.w_s * 3, w_e=W.w_e * 3, w_it=W.w_it * 3, w_er=W.w_er * 3,
            k_tau=W.k_tau, k_d=W.k_d, collision_penalty=W.collision_penalty * 3,
            w_pdi=W.w_pdi * 3, w_lane_change=W.w_lane_change * 3)
        scaled = solve_tu_game(part, scene, SPLITTING, scaled_w)
        assert scaled.joint_action == base.joint_action
        assert scaled.value == pytest.approx(3 * base.value, rel=1e-9)

    def test_gt_differs_by_exact_pdi_term(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        joint = (KEEP,)
        plain, _, _ = evaluate_joint_action(part, scene, joint, MERGING,
                                            use_pdi=False)
        gt, _, pdi_value = evaluate_joint_action(part, scene, joint, MERGING,
                                                 use_pdi=True)
        assert pdi_value is not None and pdi_value > 0
        assert plain - gt == pytest.approx(W.w_pdi * pdi_value, abs=1e-9)

    def test_pdi_pressure_monotone(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        base, _, pdi_value = evaluate_joint_action(part, scene, (KEEP,), MERGING,
                                                   use_pdi=True)
        # same state, same action, artificially larger index -> strictly lower value
        val_lo = coalition_value((0, 1, 2),
                                 predict_outcome(scene, part, (KEEP,), W.horizon),
                                 scene, MERGING, pdi_value=pdi_value,
                                 includes_platoon_leader=True)
        val_hi = coalition_value((0, 1, 2),
                                 predict_outcome(scene, part, (KEEP,), W.horizon),
                                 scene, MERGING, pdi_value=pdi_value + 5.0,
                                 includes_platoon_leader=True)
        assert val_hi < val_lo


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
            assert joint in prune_joint_actions(part, scene, feasible_joint_actions(part, scene))

