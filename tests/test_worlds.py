"""Whole seeded worlds from ``build_scenario``, pinned by digest.

For each (spec, seed) below, one sha256 digest covers every HDV of the
frame-0 world: ``astuple(state)``, in field order (id, kind, x, y, speed,
lane, target_lane, heading, accel, jerk, ay, length, width), its IDM and
MOBIL presets and its style.
Floats enter by their IEEE-754 bytes, so a change in the last bit, or -0.0
for 0.0, changes the digest.
``golden/scenarios.json`` pins frame-0 decisions; this pins every vehicle.

Regenerate the pins only for an intended change of the seeded stream:
``PYTHONPATH=src python tests/test_worlds.py > tests/golden/worlds.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonreorg import config
from platoonreorg.episode import GrdfPolicy, run_episode
from platoonreorg.scenarios import (ScenarioError, ScenarioSpec, build_scenario, case1_spec,
                                    case2_spec)
from platoonreorg.world import check_collision

GOLDEN = Path(__file__).parent / "golden" / "worlds.json"

SPECS = {
    "case1": case1_spec,
    "case2-sparse": lambda: case2_spec(density=3.0),
    "case2-dense": lambda: case2_spec(density=14.0),
    "case2-4lane": lambda: case2_spec(density=40.0, lane_count=4),
    "case2-2lane": lambda: case2_spec(density=14.0, lane_count=2),
    "case2-5lane": lambda: case2_spec(density=20.0, lane_count=5),
    "case1-congested": lambda: case1_spec(congestion_density=60.0),
    "case1-lane0": lambda: case1_spec(platoon_lane=0),
}
SEEDS = (0, 1, 2)


def _encode(value) -> bytes:
    """Type-tagged bytes of one field; floats by their exact bit pattern."""
    if value is None:
        return b"n"
    if isinstance(value, bool):
        return b"b1" if value else b"b0"
    if isinstance(value, numbers.Integral):
        return b"i" + str(int(value)).encode()
    if isinstance(value, numbers.Real):
        return b"f" + struct.pack("<d", float(value))
    if isinstance(value, str):
        return b"s" + value.encode()
    if isinstance(value, tuple):
        return b"(" + b",".join(_encode(v) for v in value) + b")"
    raise TypeError(f"cannot encode {type(value).__name__}")


def world_digest(spec, seed: int) -> str:
    world = build_scenario(spec, seed)
    h = hashlib.sha256()
    for d in world.hdvs:
        h.update(_encode((dataclasses.astuple(d.state), dataclasses.astuple(d.idm),
                          dataclasses.astuple(d.mobil), d.style)))
        h.update(b";")
    return h.hexdigest()


def _all_pins():
    return {f"{name}/seed{seed}": world_digest(SPECS[name](), seed)
            for name in SPECS for seed in SEEDS}


@pytest.mark.parametrize("name", list(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
def test_world_matches_pin(name, seed):
    want = json.loads(GOLDEN.read_text())[f"{name}/seed{seed}"]
    assert world_digest(SPECS[name](), seed) == want


@pytest.mark.parametrize("name", list(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
def test_vehicle_ids_unique(name, seed):
    """Ids name vehicles in collisions and the trace, and ``risk_reward``
    skips the ego by id, so no two vehicles of a world share one.  The
    spawners hand out ids in build order, so the HDVs, which act in list
    order, come in id order."""
    world = build_scenario(SPECS[name](), seed)
    ids = [v.id for v in world.all_states()]
    assert len(set(ids)) == len(ids)
    hdv_ids = [d.state.id for d in world.hdvs]
    assert hdv_ids == sorted(hdv_ids)


def requested_hdvs(spec) -> int:
    """Every HDV a spec asks for: the ambient density over the spawn
    corridor, then case 1's congestion block and ramp queue, or case 2's
    scripted leader."""
    head = spec.platoon_head_x
    corridor_km = (min(head + 3200.0, spec.road_length) - (head - 300.0)) / 1000.0
    ambient = int(round(spec.density * spec.lane_count * corridor_km))
    if spec.case == 2:
        return ambient + 1
    span = spec.congestion_to - spec.congestion_from
    return ambient + int(round(spec.congestion_density * span / 1000.0)) + spec.ramp_queue


SHORTFALL_SPECS = {**SPECS, "case1-ramp12": lambda: case1_spec(ramp_queue=12)}
SHORTFALLS = [("case2-dense", 0, 11), ("case2-dense", 1, 6), ("case2-dense", 2, 6),
              ("case1", 0, 29), ("case1", 1, 19), ("case1", 2, 24),
              ("case1-lane0", 0, 31), ("case1-lane0", 1, 20), ("case1-lane0", 2, 26),
              ("case1-ramp12", 0, 32), ("case1-ramp12", 1, 22), ("case1-ramp12", 2, 27)]


@pytest.mark.parametrize("name,seed,shortfall", SHORTFALLS,
                         ids=[f"{name}-{seed}" for name, seed, _ in SHORTFALLS])
def test_world_reports_spawn_shortfall(name, seed, shortfall):
    """case2-dense requests 147 ambient HDVs and adds the scripted leader.
    case 1 requests 63 ambient HDVs, all placed at these seeds, 62
    congestion drivers and the ramp queue.  The 14 m spacing (to each other
    and to the ambient lane-0 drivers) drops congestion drivers; with the
    platoon in lane 0, its keep-clear box drops congestion and ramp-queue
    drivers too; a ramp queue of 12 does not fit before the ramp end, so
    three of it are never placed.  Each of these counts as shortfall."""
    spec = SHORTFALL_SPECS[name]()
    world = build_scenario(spec, seed)
    assert world.spawn_shortfall == shortfall
    assert len(world.hdvs) == requested_hdvs(spec) - shortfall


@pytest.mark.parametrize("name", list(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
def test_placed_and_shortfall_add_up_to_the_request(name, seed):
    spec = SPECS[name]()
    world = build_scenario(spec, seed)
    assert len(world.hdvs) + world.spawn_shortfall == requested_hdvs(spec)


@pytest.mark.parametrize("seed", range(10))
def test_case1_frame0_has_no_touching_pair(seed):
    """The congestion block keeps 14 m from the ambient lane-0 drivers, so
    no two vehicles of a case-1 world start in contact."""
    states = build_scenario(case1_spec(), seed).all_states()
    touching = [(a.id, b.id) for i, a in enumerate(states) for b in states[i + 1:]
                if check_collision(a, b)]
    assert touching == []


@pytest.mark.parametrize("seed", SEEDS)
def test_same_world_twice_from_separate_streams(seed):
    """A (spec, seed) builds the same world every time.  The congestion
    block draws from its own stream: none of its x values is one the first
    draws of an ambient stream, at seeds 0-99, would have given it."""
    spec = case1_spec()
    assert world_digest(spec, seed) == world_digest(spec, seed)
    lo, hi = spec.congestion_from, spec.congestion_to
    count = int(round(spec.congestion_density * (hi - lo) / 1000.0))
    lane0 = {v.x for v in build_scenario(spec, seed).all_states() if v.lane == 0}
    for ambient_seed in range(100):
        draw = random.Random(ambient_seed).random
        assert lane0.isdisjoint(lo + (hi - lo) * draw() for _ in range(count)), ambient_seed


@pytest.mark.parametrize("name", ["case1", "case2-sparse"])
def test_episode_leaves_later_worlds_unchanged(name):
    """Vehicle states advance in place; nothing a later build shares, such
    as the memoised style presets, may change with them.  15 s covers the
    case-2 brake at 10 s."""
    spec = SPECS[name]()
    run_episode(build_scenario(spec, 0), GrdfPolicy(), 0, 15.0)
    assert world_digest(spec, 0) == json.loads(GOLDEN.read_text())[f"{name}/seed0"]


def touching_pairs(states) -> list:
    """Id pairs of vehicles in contact.  A sweep along x: two vehicles
    farther apart in x than the sum of their bounding radii cannot touch."""
    states = sorted(states, key=lambda v: v.x)
    reach = math.hypot(config.VEHICLE_LENGTH, config.VEHICLE_WIDTH)
    pairs = []
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            if b.x - a.x > reach:
                break
            if check_collision(a, b):
                pairs.append((a.id, b.id))
    return pairs


@st.composite
def spec_fields(draw):
    """ScenarioSpec fields over their valid ranges and just past them: a
    platoon lane one past the road's last, and a headway or lead gap one
    rounding step above its bound, which leaves two cars touching."""
    lane_count = draw(st.integers(2, 5))
    return dict(case=draw(st.sampled_from((1, 2))),
                lane_count=lane_count,
                platoon_size=draw(st.integers(2, 5)),
                platoon_lane=draw(st.integers(0, lane_count)),
                density=draw(st.floats(0.0, 30.0)),
                headway=draw(st.floats(5.0, 40.0, exclude_min=True)),
                ramp_queue=draw(st.integers(0, 12)),
                event_lead_gap=draw(st.floats(0.0, 300.0, exclude_min=True)))


@given(fields=spec_fields(), first_seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_any_spec_builds_sound_worlds_or_is_rejected(fields, first_seed):
    """Each drawn spec is rejected with ``ScenarioError``, or each of its
    worlds, at ten seeds from the drawn one, starts with no two vehicles in
    contact, HDV ids unique and rising, every state finite, and every
    requested HDV placed or counted as shortfall."""
    try:
        spec = ScenarioSpec(**fields)
    except ScenarioError:
        return
    for seed in range(first_seed, first_seed + 10):
        world = build_scenario(spec, seed)
        states = world.all_states()
        assert touching_pairs(states) == [], seed
        hdv_ids = [d.state.id for d in world.hdvs]
        assert all(a < b for a, b in zip(hdv_ids, hdv_ids[1:]))
        assert len({v.id for v in states}) == len(states)
        for v in states:
            assert all(math.isfinite(getattr(v, f.name)) for f in dataclasses.fields(v)
                       if isinstance(getattr(v, f.name), float)), v
        assert len(world.hdvs) + world.spawn_shortfall == requested_hdvs(spec)


HASH_SEED_RUN = """\
import json, sys
sys.path.insert(0, {tests!r})
from test_worlds import world_digest
from platoonreorg.episode import GrdfPolicy, run_episode
from platoonreorg.scenarios import build_scenario, case1_spec, case2_spec
print(world_digest(case1_spec(), 0))
print(world_digest(case2_spec(density=14.0), 0))
spec = case2_spec(density=3.0)
world = build_scenario(spec, 0)
result = run_episode(world, GrdfPolicy(use_pdi=True), 0, 15.0, spec.success_window)
print(json.dumps(result.metrics.row(), sort_keys=True))
print([(m.state.x, m.state.y, m.state.speed) for m in world.members])
"""


def test_worlds_and_episodes_do_not_depend_on_the_hash_seed():
    """Two interpreters with different ``PYTHONHASHSEED`` build the same
    case-1 and dense case-2 worlds and play the same 15 s case-2 episode,
    so no set-up or episode step iterates a set or dict of str keys in hash
    order."""
    src = Path(config.__file__).resolve().parent.parent
    code = HASH_SEED_RUN.format(tests=str(Path(__file__).resolve().parent))
    procs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=h))
             for h in ("0", "1")]
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 4


def test_digest_tells_signed_zeros_apart():
    assert _encode(0.0) != _encode(-0.0)
    assert _encode(1) != _encode(1.0) != _encode(True)


if __name__ == "__main__":
    print(json.dumps(_all_pins(), indent=1))
