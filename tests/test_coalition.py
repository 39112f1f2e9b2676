import math

import numpy as np
import pytest

from platoonreorg import config
from platoonreorg.coalition import (
    KEEP,
    LEFT,
    MERGING,
    RIGHT,
    SPLITTING,
    STEADY,
    CoalitionPartition,
    GamePhaseMachine,
    GameScene,
    Prediction,
    coalition_value,
    efficiency_profit,
    evaluate_joint_action,
    feasible_joint_actions,
    form_coalitions,
    formation_intact,
    integration_profit,
    predict_outcome,
    prune_joint_actions,
    safety_profit,
    solve_tu_game,
    tracking_profit,
)
from platoonreorg.traffic import IdmParams
from platoonreorg.world import RoadMap, VehicleState

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
    idm = IdmParams(desired_speed=cruise, time_headway=1.0)
    return GameScene(road=ROAD, platoon=platoon, background=background, idm=idm)


class TestFormCoalitions:
    def test_compact_single(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        part = form_coalitions(plat, [])
        assert part.coalitions == [(0, 1, 2)]
        assert part.leaders == [0]

    def test_large_gap_splits(self):
        plat = [cav(0, 150.0), cav(1, 135.0), cav(2, 100.0)]  # 15 m then 35 m
        part = form_coalitions(plat, [])
        assert part.coalitions == [(0, 1), (2,)]

    def test_interleaved_hdv_splits(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        intruder = hdv(9, 122.0, lane=1)
        part = form_coalitions(plat, [intruder])
        assert part.coalitions == [(0,), (1, 2)]

    def test_lane_mismatch_splits(self):
        plat = [cav(0, 130.0), cav(1, 115.0, lane=2), cav(2, 100.0)]
        part = form_coalitions(plat, [])
        assert len(part) == 3

    def test_target_groups_cap_coarseness(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        part = form_coalitions(plat, [], target_groups=((0,), (1, 2)))
        assert part.coalitions == [(0,), (1, 2)]

    def test_intact_helper(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        assert formation_intact(plat, [])
        assert not formation_intact(plat, [hdv(9, 120.0, lane=1)])


class TestPrediction:
    def test_all_keep_linear(self):
        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        pred = predict_outcome(scene, part, (KEEP,), 3.0)
        x0, y0, v0 = pred.platoon_tracks[0][0]
        x1, y1, v1 = pred.platoon_tracks[0][-1]
        assert v1 == pytest.approx(25.0, abs=1e-9)
        assert x1 - x0 == pytest.approx(25.0 * 3.0, abs=1e-6)
        assert y1 == y0

    def test_left_change_reaches_lane_width(self):
        plat = [cav(0, 130.0, speed=25.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        pred = predict_outcome(scene, part, (LEFT,), 3.0)
        y_end = pred.platoon_tracks[0][-1][1]
        assert y_end - ROAD.lane_center(1) == pytest.approx(ROAD.lane_width, abs=1e-9)

    def test_deterministic(self):
        plat = [cav(0, 130.0), cav(1, 115.0)]
        bg = [hdv(9, 180.0, lane=1, speed=15.0)]
        scene = scene_of(plat, bg)
        part = form_coalitions(plat, bg)
        a = predict_outcome(scene, part, (KEEP,), 3.0)
        b = predict_outcome(scene, part, (KEEP,), 3.0)
        assert a.platoon_tracks == b.platoon_tracks

    def test_rejects_bad_horizon(self):
        plat = [cav(0, 130.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        with pytest.raises(ValueError):
            predict_outcome(scene, part, (KEEP,), 0.0)


class TestProfits:
    def test_safety_caps_with_no_neighbors(self):
        plat = [cav(0, 130.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        pred = predict_outcome(scene, part, (KEEP,), 3.0)
        val = safety_profit(0, pred, scene)
        assert val == pytest.approx(W.k_tau * W.ttc_cap + W.k_d * W.dist_cap ** 2)

    def test_safety_monotone_in_ttc(self):
        def track(v_lead):
            plat = [cav(0, 100.0, speed=25.0)]
            bg = [hdv(9, 140.0, lane=1, speed=v_lead)]
            scene = scene_of(plat, bg)
            part = form_coalitions(plat, bg)
            pred = predict_outcome(scene, part, (KEEP,), 3.0)
            return safety_profit(0, pred, scene)

        assert track(24.0) > track(15.0)

    def test_efficiency_examples(self):
        const = Prediction(times=[0, 1, 2], platoon_tracks=[[(0, 0, 30.0)] * 3],
                           background_tracks=[], collided=[False])
        assert efficiency_profit(0, const, 30.0) == pytest.approx(1.0)
        decel = Prediction(times=[0, 1, 2],
                           platoon_tracks=[[(0, 0, 30.0), (0, 0, 25.0), (0, 0, 20.0)]],
                           background_tracks=[], collided=[False])
        assert efficiency_profit(0, decel, 30.0) == pytest.approx(25.0 / 30.0)
        stopped = Prediction(times=[0, 1], platoon_tracks=[[(0, 0, 0.0)] * 2],
                             background_tracks=[], collided=[False])
        assert efficiency_profit(0, stopped, 30.0) == 0.0

    def test_integration_arithmetic(self):
        assert integration_profit([1, 1, 1], [1, 1, 1], 3) == pytest.approx(0.0, abs=1e-12)
        even = integration_profit([0, 1, 2], [0, 1, 2], 3)
        assert even == pytest.approx(3 * math.log(3), abs=1e-9)
        split = integration_profit([0, 0, 1], [0, 0, 1], 3)
        assert split == pytest.approx(1.90954, abs=1e-4)

    def test_tracking_examples(self):
        perfect = Prediction(
            times=[0], background_tracks=[], collided=[False] * 2,
            platoon_tracks=[[(110.0, 4.0, 25.0)], [(100.0, 4.0, 25.0)]])
        assert tracking_profit((0, 1), perfect) == 0.0
        off = Prediction(
            times=[0], background_tracks=[], collided=[False] * 2,
            platoon_tracks=[[(112.0, 4.0, 25.0)], [(100.0, 4.0, 25.0)]])
        assert tracking_profit((0, 1), off) == pytest.approx(-2.0)
        lateral = Prediction(
            times=[0], background_tracks=[], collided=[False] * 2,
            platoon_tracks=[[(110.0, 5.0, 25.0)], [(100.0, 4.0, 25.0)]])
        assert tracking_profit((0, 1), lateral) == pytest.approx(-W.k_y * 1.0)
        singleton = Prediction(times=[0], background_tracks=[], collided=[False],
                               platoon_tracks=[[(110.0, 4.0, 25.0)]])
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
        pruned = prune_joint_actions(part, scene)
        assert (LEFT,) not in pruned
        assert (KEEP,) in pruned

    def test_two_coalitions_nine_actions(self):
        plat = [cav(0, 150.0), cav(1, 100.0)]
        scene = scene_of(plat, [])
        part = form_coalitions(plat, [])
        assert len(part) == 2
        actions = feasible_joint_actions(part, scene)
        assert len(actions) == 9
        pruned = prune_joint_actions(part, scene)
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
        import dataclasses

        plat = [cav(0, 130.0), cav(1, 115.0), cav(2, 100.0)]
        bg = [hdv(9, 185.0, lane=1, speed=10.0), hdv(10, 160.0, lane=2, speed=24.0)]
        scene = scene_of(plat, bg)
        part = form_coalitions(plat, bg)
        base = solve_tu_game(part, scene, SPLITTING, W)
        scaled_w = dataclasses.replace(
            W, w_s=W.w_s * 3, w_e=W.w_e * 3, w_it=W.w_it * 3, w_er=W.w_er * 3,
            k_tau=W.k_tau, k_d=W.k_d, collision_penalty=W.collision_penalty * 3,
            w_pdi=W.w_pdi * 3)
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
            assert joint in prune_joint_actions(part, scene)


class TestPhaseMachine:
    def test_cycle(self):
        m = GamePhaseMachine()
        assert m.phase == STEADY
        assert m.update(target_single_group=False, intact=True) == SPLITTING
        assert m.update(target_single_group=False, intact=False) == SPLITTING
        assert m.update(target_single_group=True, intact=False) == MERGING
        assert m.update(target_single_group=True, intact=False) == MERGING
        assert m.update(target_single_group=True, intact=True) == STEADY

    def test_merging_back_to_splitting(self):
        m = GamePhaseMachine(phase=MERGING)
        assert m.update(target_single_group=False, intact=False) == SPLITTING
