"""The one HDV lane-change rule: ``episode.hdv_decide_lane`` begins a change
only when ``traffic.mobil_decide`` accepts it, and the ramp end is a
standing obstacle to drivers on the ramp shoulder.

The worlds below are built by hand, so each test shows one part of the rule;
the last test runs the case-1 scenario for its ramp queue.
"""

from __future__ import annotations

import dataclasses

import pytest

from platoonreorg import config
from platoonreorg.control import CavExecutor
from platoonreorg.episode import (GrdfPolicy, PlatoonMember, World, hdv_accel,
                                  hdv_decide_lane, run_episode)
from platoonreorg.scenarios import build_scenario, case1_spec
from platoonreorg.traffic import HdvDriver, style_params
from platoonreorg.world import (CAV, RampSegment, RoadMap, SimClock, VehicleState,
                                check_collision, step_kinematics)

ROAD = RoadMap()
NORMAL_IDM, NORMAL_MOBIL = style_params("normal", ROAD.speed_limit)


def _driver(vid, x, y, speed, idm=NORMAL_IDM, mobil=NORMAL_MOBIL, road=ROAD):
    lane = road.lane_of(y)
    return HdvDriver(VehicleState(id=vid, x=x, y=y, speed=speed, lane=lane, target_lane=lane),
                     idm, mobil)


def _cav(index, x, lane, speed):
    state = VehicleState(id=index, kind=CAV, x=x, y=ROAD.lane_center(lane), speed=speed,
                         lane=lane, target_lane=lane)
    return PlatoonMember(index, state, CavExecutor(cruise_speed=speed))


def _world(hdvs, members=(), road=ROAD):
    return World(road=road, clock=SimClock(), members=list(members), hdvs=list(hdvs))


def _decide(driver, world):
    hdv_decide_lane(driver, world, world.all_states())
    return driver.state.target_lane if driver.changing() else None


def _congested_world(with_cav: bool):
    """A case-1 style congestion driver in lane 0 at 8 m/s, half its 16 m/s
    desired speed, stuck 7 m behind a leader at its speed, with lane 1 free
    except, optionally, for a CAV 17 m behind it at 25 m/s."""
    idm, mobil = style_params("aggressive", ROAD.speed_limit)
    ego = _driver(1000, 500.0, 0.0, 8.0, dataclasses.replace(idm, desired_speed=16.0), mobil)
    leader = _driver(1001, 512.0, 0.0, 8.0)
    members = [_cav(0, 478.0, 1, 25.0)] if with_cav else []
    return ego, _world([ego, leader], members)


def test_stuck_driver_is_vetoed_beside_a_closing_cav():
    """The CAV would have to brake past the driver's 4 m/s^2 limit, so the
    change is refused however stuck the driver is; without the CAV, MOBIL
    takes it."""
    ego, world = _congested_world(with_cav=True)
    assert _decide(ego, world) is None
    ego, world = _congested_world(with_cav=False)
    assert _decide(ego, world) == 1


@pytest.mark.parametrize("ego_headway,follower_headway,change", [
    (1.0, 3.0, False),   # the follower's 3 s headway needs the hard braking
    (3.0, 1.0, True),    # the follower's 1 s headway does not, though the ego's would
])
def test_veto_reads_the_new_followers_own_parameters(ego_headway, follower_headway, change):
    """A driver stuck 8 m behind a 10 m/s leader looks at lane 1, where a
    driver at 22 m/s follows 30 m behind it.  At that gap the follower's IDM
    asks for more than 3 m/s^2 of braking with a 3 s headway, and less with
    a 1 s headway, so only the follower's own headway decides the veto."""
    ego = _driver(1000, 500.0, 0.0, 20.0, dataclasses.replace(NORMAL_IDM, time_headway=ego_headway))
    leader = _driver(1001, 513.0, 0.0, 10.0)
    follower = _driver(1002, 465.0, ROAD.lane_center(1), 22.0,
                       dataclasses.replace(NORMAL_IDM, time_headway=follower_headway))
    assert _decide(ego, _world([ego, leader, follower])) == (1 if change else None)


def test_shoulder_driver_stops_before_the_ramp_end_and_merges_into_a_gap():
    """Lane 0 carries a column at a steady 15 m/s, 7 m bumper to bumper, whose
    last car starts 200 m behind a shoulder driver.  The driver may not cut
    into the column: it stops short of the ramp end, waits there, and merges
    once the column has passed.  It never overlaps anyone and never passes
    the ramp end on the shoulder.  Its decisions stop once it is in lane 0."""
    road = RoadMap(ramp=RampSegment(150.0, 450.0))
    ego = _driver(2000, 300.0, -road.lane_width, 10.0,
                  dataclasses.replace(NORMAL_IDM, desired_speed=18.0), road=road)
    column = [_driver(1000 + k, 100.0 + 12.0 * k, 0.0, 15.0, road=road) for k in range(34)]
    for d in column:
        d.scripted_accel = 0.0
    world = _world([ego, *column], road=road)
    snapshot = world.all_states()
    period = round(1.0 / config.DT)
    shoulder_speeds = []
    for frame in range(round(45.0 / config.DT)):
        if frame % period == 0 and ego.state.y < 0.0:
            hdv_decide_lane(ego, world, snapshot)
            if ego.changing():
                # the merge begins behind the column's last car
                assert ego.state.x < column[0].state.x
        accels = [hdv_accel(d, road, snapshot) for d in world.hdvs]
        for d, a in zip(world.hdvs, accels):
            speed = max(d.state.speed + a * config.DT, 0.0)
            step_kinematics(d.state, speed, d.lateral_update(speed))
        state = ego.state
        if state.y < -0.5 * road.lane_width:
            shoulder_speeds.append(state.speed)
            assert state.x + 0.5 * state.length <= road.ramp.end
        assert not any(check_collision(state, d.state) for d in column)
    assert min(shoulder_speeds) < 0.1
    assert ego.state.y == 0.0 and not ego.changing()


def test_ramp_queue_merges_and_no_platoon_collision_involves_an_hdv():
    """Case 1 at seeds 0-2 for 30 s: every ramp-queue driver leaves the
    shoulder (the last, at these seeds, by 26 s), and no platoon member
    touches an HDV.  Contact between HDVs is not checked here: the case-1
    spawn can place congestion drivers on top of ambient lane-0 drivers."""
    for seed in (0, 1, 2):
        spec = case1_spec(episode_len=30.0)
        world = build_scenario(spec, seed)
        half = 0.5 * world.road.lane_width
        ramp = [d for d in world.hdvs if d.state.y < -half]
        assert len(ramp) == spec.ramp_queue
        run_episode(world, GrdfPolicy(), seed, spec.episode_len, spec.success_window)
        assert all(d.state.y >= -half for d in ramp), seed
        assert not any(check_collision(m.state, d.state)
                       for m in world.members for d in world.hdvs), seed
