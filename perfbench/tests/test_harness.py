"""Tests of the benchmark's own code: transparent tracing, failure accounting,
the sim_s_per_s arithmetic and the metric declaration."""

import dataclasses
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import harness
import layers
import run
from platoonreorg import episode, scenarios, world

DECLARATION = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
SHORT = dataclasses.replace(harness.workloads()["case2-sparse-gt"],
                            spec=scenarios.case2_spec(density=3.0, episode_len=2.0))


def test_wrappers_are_transparent_and_restored():
    plain = harness.run_one(SHORT, 7)
    tracer = layers.Tracer()
    with tracer.installed():
        assert episode.lead_vehicle is world.lead_vehicle
        assert episode.lead_vehicle.__wrapped__ is not None
        traced = harness.run_one(SHORT, 7)
    assert traced.signature() == plain.signature()
    assert not hasattr(world.lead_vehicle, "__wrapped__")
    assert not hasattr(episode.lead_vehicle, "__wrapped__")
    assert not hasattr(episode.World.all_states, "__wrapped__")
    assert tracer.spans["episode.run_episode"].calls == 1
    assert tracer.spans["scenarios.build_scenario"].calls == 1
    assert tracer.spans["control.solve_lqr_gain"].calls == SHORT.spec.platoon_size


def test_wrappers_are_transparent_on_an_episode_that_returns():
    # shorter than one frame: run_episode returns without entering its loop
    zero = dataclasses.replace(SHORT, spec=dataclasses.replace(SHORT.spec, episode_len=0.01))
    plain = harness.run_one(zero, 3)
    with layers.Tracer().installed():
        traced = harness.run_one(zero, 3)
    assert plain.row is not None and plain.error is None
    assert traced.signature() == plain.signature()


def test_self_time_excludes_child_calls():
    tracer = layers.Tracer()
    with tracer.installed():
        harness.run_one(SHORT, 7)
    for name, span in tracer.spans.items():
        assert 0.0 <= span.self_s <= span.total_s + 1e-12, name
    loop = tracer.spans["episode.run_episode"]
    assert loop.self_s < loop.total_s


def _outcome(seed, run_s, duration=0.0, error=None, checks=(), setup_s=0.01,
             ref_s=harness.REFERENCE_S):
    row = None if error else {"collision": 0, "formation_success": 1, "reorganizations": 2}
    return harness.Outcome(seed, 10, setup_s, run_s, duration or 0.1, row=row,
                           duration=duration, error=error, check_failures=list(checks),
                           ref_s=ref_s)


def test_failure_accounting_and_sim_s_per_s():
    outcomes = [
        _outcome(0, 2.0, duration=10.0),
        _outcome(1, 1.0, error="AttributeError at control.py:137"),
        _outcome(2, 1.0, duration=5.0, checks=["member 0 final speed 40.000 > limit 33.3"]),
    ]
    e2e = harness.end_to_end(outcomes)
    assert e2e["sim_s_per_s"] == pytest.approx(10.0 / 4.0)
    assert e2e["episodes_failed_frac"] == pytest.approx(2 / 3)
    assert e2e["setup_s"] == pytest.approx(0.01)
    assert e2e["peak_rss_mb"] > 0
    assert harness.end_to_end(outcomes[1:2])["sim_s_per_s"] == 0.0


def test_setup_s_is_scaled_by_the_reference_time():
    outcomes = [_outcome(k, 1.0, setup_s=0.01 * (k + 1)) for k in range(3)]
    e2e = harness.end_to_end(outcomes)
    assert e2e["setup_s"] == pytest.approx(0.02)
    assert e2e["setup_host_s"] == pytest.approx(0.02)
    # a host running at half speed doubles both times and leaves setup_s as it was
    slow = [_outcome(k, 1.0, setup_s=0.02 * (k + 1), ref_s=2 * harness.REFERENCE_S)
            for k in range(3)]
    assert harness.end_to_end(slow)["setup_s"] == pytest.approx(0.02)
    extra = [(0.001, harness.REFERENCE_S)] * 4
    assert harness.end_to_end(outcomes, extra)["setup_s"] == pytest.approx(0.001)


def test_setup_times_take_the_next_seeds():
    seeds = iter([5, 6, 7])
    times = harness.setup_times(SHORT, seeds, 2)
    assert len(times) == 2 and all(s > 0 and r > 0 for s, r in times)
    assert list(seeds) == [7]
    assert harness.setup_times(SHORT, iter([8]), 0) == []


def test_simulated_stats_use_a_fixed_prefix():
    outcomes = [_outcome(k, 1.0, duration=1.0) for k in range(harness.STATS_EPISODES + 2)]
    stats, digest = harness.simulated_stats(outcomes)
    assert stats["episode.formation_success_frac"] == 1.0
    assert stats["episode.reorganizations_per_episode"] == 2.0
    assert harness.simulated_stats(outcomes[:harness.STATS_EPISODES]) == (stats, digest)


def test_output_checks_flag_each_invariant():
    built = scenarios.build_scenario(SHORT.spec, 0)
    metrics = episode.EpisodeMetrics(duration=1.0)
    ok = SimpleNamespace(metrics=metrics, frames=10)
    assert harness.output_checks(ok, built) == []
    assert harness.output_checks(SimpleNamespace(metrics=metrics, frames=11), built)
    built.members[0].state.speed = built.road.speed_limit + 1.0
    assert any("speed" in f for f in harness.output_checks(ok, built))
    built.members[0].state.speed = 1.0
    built.hdvs[0].state.x = math.nan
    assert any(" x = nan" in f for f in harness.output_checks(ok, built))
    nan_row = SimpleNamespace(metrics=episode.EpisodeMetrics(duration=1.0, avg_speed=math.nan),
                              frames=10)
    assert any("avg_speed" in f for f in harness.output_checks(nan_row, built))


def test_failure_site_names_package_frames():
    with pytest.raises(world.WorldError) as info:
        world.VehicleState(id=0, length=-1.0)
    assert re.fullmatch(r"WorldError at world\.py:\d+", harness.failure_site(info.value))


def test_scaling_exponent():
    assert harness.scaling_exponent(1.0, 30.0, 4.0, 60.0) == pytest.approx(2.0)
    assert harness.scaling_exponent(0.0, 30.0, 4.0, 60.0) is None


def test_metric_names_match_declaration_and_pattern():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in DECLARATION[key]]
    names += [w["name"] for w in DECLARATION["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in DECLARATION["workloads"]] == list(harness.workloads())
    tracer = layers.Tracer()
    emitted = set(layers.layer_metrics(tracer, 1.0, 1))
    emitted |= set(harness.simulated_stats([_outcome(0, 1.0, duration=1.0)])[0])
    emitted |= {"sim_s_per_s", "episodes_failed_frac", "trace.overhead_frac"}
    assert emitted == {m["name"] for m in DECLARATION["per_layer"]}
