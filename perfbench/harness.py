"""Seeded-episode workloads, output checks and end-to-end accounting.

The unit of work is one seeded episode: ``scenarios.build_scenario`` ->
``episode.GrdfPolicy`` -> ``episode.run_episode``.  Only public functions of
``platoonreorg`` are called.  A call that raises is recorded with its type and
site and counted as a failed episode; nothing here patches, retries or
reseeds around it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import numbers
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from platoonreorg import config, episode, scenarios

# Episode k of workload seed s runs with seed s * SEED_BLOCK + k, so every
# workload seed owns a disjoint, reproducible block of episode seeds.
SEED_BLOCK = 1_000_000

# setup_s is taken over at least this many set-ups; runs whose episodes are
# too long to provide them add set-ups of the following seeds.
SETUP_SAMPLES = 100

# setup_s is in seconds of a host on which reference_work() takes REFERENCE_S.
# A shared host's speed drifts by up to 2x for tens of seconds at a time; the
# ratio of set-up time to reference time, both taken side by side, does not.
REFERENCE_S = 0.5e-3

# Simulated statistics cover the first STATS_EPISODES episodes of a seed only,
# so that they do not depend on how many episodes fit into the run.
STATS_EPISODES = 3

_PACKAGE_DIR = os.path.dirname(os.path.abspath(episode.__file__))


@dataclass(frozen=True)
class Workload:
    name: str
    spec: scenarios.ScenarioSpec
    use_pdi: bool


def workloads() -> dict[str, Workload]:
    """The benchmark's workloads by name; see README.md for why each exists."""
    return {w.name: w for w in (
        Workload("case1-ramp", scenarios.case1_spec(), use_pdi=False),
        Workload("case2-sparse-gt", scenarios.case2_spec(density=3.0), use_pdi=True),
        Workload("case2-dense", scenarios.case2_spec(density=14.0), use_pdi=False),
    )}


def episode_seeds(workload_seed: int):
    base = workload_seed * SEED_BLOCK
    return (base + k for k in range(SEED_BLOCK))


@dataclass
class Outcome:
    """What one attempted episode produced, and what it cost."""

    seed: int
    hdvs: int
    setup_s: float            # build_scenario + policy construction
    run_s: float              # host time inside run_episode
    sim_s_entered: float      # simulated time of every frame begun, a frame that raised included
    row: dict | None = None   # EpisodeMetrics.row() when run_episode returned
    duration: float = 0.0     # EpisodeMetrics.duration when run_episode returned
    error: str | None = None  # "<type> at <file>:<line> via <file>:<line>" when a call raised
    check_failures: list = field(default_factory=list)
    ref_s: float = 0.0        # one reference_work() call timed just before the set-up

    @property
    def passed(self) -> bool:
        return self.error is None and not self.check_failures

    def signature(self):
        """Everything a traced and an untraced run of this episode must share."""
        return (self.seed, self.row, self.error, tuple(self.check_failures))


def failure_site(exc: BaseException) -> str:
    """Exception type, the innermost package frame, and the outermost one it came through."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if os.path.abspath(f.filename).startswith(_PACKAGE_DIR + os.sep)]
    site = type(exc).__name__
    if frames:
        inner, outer = frames[-1], frames[0]
        site += f" at {os.path.basename(inner.filename)}:{inner.lineno}"
        if outer is not inner:
            site += f" via {os.path.basename(outer.filename)}:{outer.lineno}"
    return site


def _nonfinite(value) -> bool:
    return isinstance(value, numbers.Real) and not math.isfinite(value)


def output_checks(result, world) -> list[str]:
    """Invariants every returned episode must hold; an empty list means it passed.

    frames x dt equals the reported duration, every numeric field of ``row()``
    and of every final vehicle state is finite, and no platoon member ends
    above the road's speed limit.
    """
    metrics = result.metrics
    dt = world.clock.dt
    failures = []
    if not math.isclose(result.frames * dt, metrics.duration, rel_tol=0.0, abs_tol=1e-6):
        failures.append(f"frames*dt {result.frames * dt!r} != duration {metrics.duration!r}")
    for key, value in metrics.row().items():
        if _nonfinite(value):
            failures.append(f"row[{key}] = {value!r}")
    states = [m.state for m in world.members] + [d.state for d in world.hdvs]
    for state in states:
        for f in dataclasses.fields(state):
            value = getattr(state, f.name)
            if _nonfinite(value):
                failures.append(f"vehicle {state.id} {f.name} = {value!r}")
    limit = world.road.speed_limit
    for member in world.members:
        if member.state.speed > limit:
            failures.append(f"member {member.index} final speed "
                            f"{float(member.state.speed):.3f} > limit {limit}")
    return failures


def reference_work() -> float:
    """Fixed work in set-up's mix of Python arithmetic and 2x2 numpy algebra."""
    acc = 0.0
    for i in range(3000):
        acc += (i * 0.5) % 7.0
    m = np.eye(2)
    for _ in range(200):
        m = m @ m + 0.0
    return acc + float(m[0, 0])


def _time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def run_one(workload: Workload, seed: int) -> Outcome:
    """Set up and run one episode, timing each part."""
    spec = workload.spec
    ref_s = _time_reference()
    t0 = time.perf_counter()
    try:
        world = scenarios.build_scenario(spec, seed)
        policy = episode.GrdfPolicy(use_pdi=workload.use_pdi)
    except Exception as exc:  # a set-up failure is a failed episode, not a benchmark crash
        return Outcome(seed, 0, time.perf_counter() - t0, 0.0, 0.0, error=failure_site(exc),
                       ref_s=ref_s)
    t1 = time.perf_counter()
    try:
        result = episode.run_episode(world, policy, seed, spec.episode_len,
                                     spec.success_window)
    except Exception as exc:  # recorded with its site and counted, never retried
        run_s = time.perf_counter() - t1
        entered = min(world.clock.t + world.clock.dt, spec.episode_len)
        return Outcome(seed, len(world.hdvs), t1 - t0, run_s, entered,
                       error=failure_site(exc), ref_s=ref_s)
    run_s = time.perf_counter() - t1
    return Outcome(seed, len(world.hdvs), t1 - t0, run_s, world.clock.t,
                   row=result.metrics.row(), duration=result.metrics.duration,
                   check_failures=output_checks(result, world), ref_s=ref_s)


def setup_times(workload: Workload, seeds, count: int) -> list[tuple[float, float]]:
    """(set-up s, reference s) of ``count`` set-ups alone, of the next seeds from ``seeds``."""
    times = []
    for seed in itertools.islice(seeds, count):
        ref_s = _time_reference()
        t0 = time.perf_counter()
        scenarios.build_scenario(workload.spec, seed)
        episode.GrdfPolicy(use_pdi=workload.use_pdi)
        times.append((time.perf_counter() - t0, ref_s))
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcomes: list[Outcome], extra_setups=()) -> dict[str, float]:
    """The four user-facing figures over one run's untraced episodes.

    ``sim_s_per_s`` credits only episodes that passed their checks but charges
    the host time of every attempted one: a crash costs time and adds no work.
    ``setup_s`` is the median set-up time over the median reference time,
    times REFERENCE_S, over the episodes' set-ups and ``extra_setups``;
    ``setup_host_s`` is the plain median set-up time.
    """
    setups = [(o.setup_s, o.ref_s) for o in outcomes] + list(extra_setups)
    setup_host_s = statistics.median(s for s, _ in setups)
    run_s = sum(o.run_s for o in outcomes)
    delivered = sum(o.duration for o in outcomes if o.passed)
    return {
        "sim_s_per_s": delivered / run_s if run_s > 0 else 0.0,
        "episodes_failed_frac": sum(not o.passed for o in outcomes) / len(outcomes),
        "setup_s": REFERENCE_S * setup_host_s / statistics.median(r for _, r in setups),
        "setup_host_s": setup_host_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def ms_per_frame(outcomes: list[Outcome]) -> float:
    """Host ms inside run_episode per frame begun, a frame that raised included."""
    frames = sum(o.sim_s_entered for o in outcomes) / config.DT  # scenarios use the default step
    return 1e3 * sum(o.run_s for o in outcomes) / frames if frames else 0.0


def scaling_exponent(sparse_ms: float, sparse_hdvs: float,
                     dense_ms: float, dense_hdvs: float) -> float | None:
    """log(ms/frame ratio) / log(HDV-count ratio); None when undefined."""
    if min(sparse_ms, sparse_hdvs, dense_ms, dense_hdvs) <= 0 or dense_hdvs == sparse_hdvs:
        return None
    return math.log(dense_ms / sparse_ms) / math.log(dense_hdvs / sparse_hdvs)


def _row_payload(outcome: Outcome):
    if outcome.row is not None:
        return {k: float(v) if isinstance(v, numbers.Real) else v
                for k, v in outcome.row.items()}
    return outcome.error.split(" ", 1)[0]


def simulated_stats(outcomes: list[Outcome]) -> tuple[dict[str, float], str]:
    """Simulated statistics of the first STATS_EPISODES episodes, and their digest.

    Shares are of attempted episodes.  The digest covers each episode's seed
    and row, or its exception type when it raised, so a speed-only change
    leaves it identical.
    """
    head = outcomes[:STATS_EPISODES]
    rows = [o.row for o in head if o.row is not None]
    n = len(head)
    stats = {
        "episode.collision_frac": sum(r["collision"] for r in rows) / n,
        "episode.formation_success_frac": sum(r["formation_success"] for r in rows) / n,
        "episode.reorganizations_per_episode": sum(r["reorganizations"] for r in rows) / n,
    }
    blob = json.dumps([(o.seed, _row_payload(o)) for o in head], sort_keys=True)
    return stats, hashlib.sha256(blob.encode()).hexdigest()[:16]
