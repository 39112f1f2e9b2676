"""Outside-in per-layer tracing of platoonreorg.

``Tracer.installed()`` wraps the public functions and methods named in
``TARGETS`` and rebinds every ``platoonreorg`` module attribute that holds an
original (``from .world import lead_vehicle`` makes a second binding in
``episode``), then restores them all.  Each wrapper records calls, total time
and self time, where self time is total time minus the time spent in child
wrappers, plus any counters its target observes on the call's arguments and
result.  The wrappers pass arguments, results and exceptions through
unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _scanned(args, kwargs, result, before):
    others = _arg(args, kwargs, 1, "others")
    return {"scanned": len(others)} if hasattr(others, "__len__") else {}


def _driver_was_changing(args, kwargs):
    return _arg(args, kwargs, 0, "driver").changing()


def _lane_change_begun(args, kwargs, result, was_changing):
    return {"lane_changes": int(not was_changing and _arg(args, kwargs, 0, "driver").changing())}


def _game_counts(args, kwargs, decision, before):
    return {"candidates": decision.candidates, "pruned_out": decision.pruned_out}


def _emergency(args, kwargs, candidate, before):
    return {"emergency": int(candidate.lon is None)}


@dataclass(frozen=True)
class Target:
    module: str                        # platoonreorg submodule
    qualname: str                      # function, or Class.method
    observe: Callable | None = None    # (args, kwargs, result, before) -> {counter: increment}
    before: Callable | None = None     # (args, kwargs) -> value handed to observe
    keep_durations: bool = False       # keep every call's time, for percentiles

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


TARGETS = (
    # platoon decision
    Target("episode", "GrdfPolicy.platoon_decide"),
    Target("riskfield", "risk_reward"),
    # vehicle game
    Target("episode", "GrdfPolicy.vehicle_decide", keep_durations=True),
    Target("coalition", "solve_tu_game", observe=_game_counts),
    Target("riskfield", "risk_at_point"),
    Target("pdi", "build_node_graph"),
    Target("pdi", "compute_pdi"),
    Target("planner", "generate_lattice"),
    Target("planner", "select_trajectory", observe=_emergency),
    # HDV lane decisions
    Target("episode", "hdv_decide_lane", observe=_lane_change_begun,
           before=_driver_was_changing),
    # command computation
    Target("episode", "hdv_accel"),
    Target("control", "CavExecutor.command"),
    # physics
    Target("world", "step_kinematics"),
    Target("traffic", "HdvDriver.lateral_update"),
    # shared neighbour search
    Target("world", "lead_vehicle", observe=_scanned),
    Target("world", "rear_vehicle"),
    Target("episode", "World.all_states"),
    # metrics and loop
    Target("episode", "run_episode"),
    Target("world", "check_collision"),
    # set-up
    Target("scenarios", "build_scenario"),
    Target("control", "solve_lqr_gain"),
)


@dataclass
class Span:
    """Accumulated record of every call to one target."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    durations: list | None = None

    def ms_per_call(self) -> float:
        return 1e3 * self.total_s / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = {t.name: Span(durations=[] if t.keep_durations else None)
                      for t in targets}
        self._child_s = []   # per open traced call: time covered by its child calls

    def _wrap(self, target: Target, fn):
        span = self.spans[target.name]
        child_s = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = target.before(args, kwargs) if target.before else None
            child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                covered = child_s.pop()
                if child_s:
                    child_s[-1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - covered
                if span.durations is not None:
                    span.durations.append(elapsed)
            if target.observe:
                for key, inc in target.observe(args, kwargs, result, before).items():
                    span.counts[key] = span.counts.get(key, 0) + inc
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore the originals."""
        saved = []
        try:
            for target in self.targets:
                owner = importlib.import_module(f"platoonreorg.{target.module}")
                *path, attr = target.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapper = self._wrap(target, original)
                if path:
                    places = [owner]
                else:
                    places = [m for name, m in list(sys.modules.items())
                              if m is not None and name.split(".")[0] == "platoonreorg"]
                for place in places:
                    for key, value in list(vars(place).items()):
                        if value is original:
                            setattr(place, key, wrapper)
                            saved.append((place, key, original))
            yield self
        finally:
            for place, key, original in reversed(saved):
                setattr(place, key, original)


def _quantile(values, k: int) -> float:
    """k-th decile cut (k=5 is the median, k=9 the 90th percentile)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def layer_metrics(tracer: Tracer, traced_sim_s: float, traced_episodes: int) -> dict[str, float]:
    """Per-layer figures, normalised per simulated second of the traced episodes.

    The simulated seconds are those of every frame begun, a frame that raised
    included, so the figures stay finite while episodes fail early.
    """
    sp = tracer.spans

    def per_sim(x):
        return x / traced_sim_s if traced_sim_s > 0 else 0.0

    def self_ms(name):
        return per_sim(1e3 * sp[name].self_s)

    def calls(name):
        return per_sim(sp[name].calls)

    def per_call(name, counter):
        return sp[name].counts.get(counter, 0) / sp[name].calls if sp[name].calls else 0.0

    game = sp["coalition.solve_tu_game"]
    considered = game.counts.get("candidates", 0) + game.counts.get("pruned_out", 0)
    vd_ms = [1e3 * d for d in sp["episode.GrdfPolicy.vehicle_decide"].durations]
    lqr = sp["control.solve_lqr_gain"]
    return {
        "episode.GrdfPolicy.platoon_decide.calls_per_sim_s": calls("episode.GrdfPolicy.platoon_decide"),
        "episode.GrdfPolicy.platoon_decide.self_ms_per_sim_s": self_ms("episode.GrdfPolicy.platoon_decide"),
        "riskfield.risk_reward.self_ms_per_sim_s": self_ms("riskfield.risk_reward"),
        "episode.GrdfPolicy.vehicle_decide.p50_ms": _quantile(vd_ms, 5),
        "episode.GrdfPolicy.vehicle_decide.p90_ms": _quantile(vd_ms, 9),
        "coalition.solve_tu_game.self_ms_per_sim_s": self_ms("coalition.solve_tu_game"),
        "coalition.solve_tu_game.candidates_per_call": per_call("coalition.solve_tu_game", "candidates"),
        "coalition.solve_tu_game.pruned_frac":
            game.counts.get("pruned_out", 0) / considered if considered else 0.0,
        "riskfield.risk_at_point.self_ms_per_sim_s": self_ms("riskfield.risk_at_point"),
        "pdi.build_node_graph.self_ms_per_sim_s": self_ms("pdi.build_node_graph"),
        "pdi.compute_pdi.calls_per_sim_s": calls("pdi.compute_pdi"),
        "pdi.compute_pdi.ms_per_call": sp["pdi.compute_pdi"].ms_per_call(),
        "planner.generate_lattice.self_ms_per_sim_s": self_ms("planner.generate_lattice"),
        "planner.select_trajectory.calls_per_sim_s": calls("planner.select_trajectory"),
        "planner.select_trajectory.emergency_frac": per_call("planner.select_trajectory", "emergency"),
        "episode.hdv_decide_lane.self_ms_per_sim_s": self_ms("episode.hdv_decide_lane"),
        "episode.hdv_decide_lane.lane_change_frac": per_call("episode.hdv_decide_lane", "lane_changes"),
        "episode.hdv_accel.self_ms_per_sim_s": self_ms("episode.hdv_accel"),
        "control.CavExecutor.command.calls_per_sim_s": calls("control.CavExecutor.command"),
        "control.CavExecutor.command.self_ms_per_sim_s": self_ms("control.CavExecutor.command"),
        "world.step_kinematics.self_ms_per_sim_s": self_ms("world.step_kinematics"),
        "traffic.HdvDriver.lateral_update.self_ms_per_sim_s": self_ms("traffic.HdvDriver.lateral_update"),
        "world.lead_vehicle.calls_per_sim_s": calls("world.lead_vehicle"),
        "world.lead_vehicle.self_ms_per_sim_s": self_ms("world.lead_vehicle"),
        "world.lead_vehicle.scanned_per_call": per_call("world.lead_vehicle", "scanned"),
        "world.rear_vehicle.self_ms_per_sim_s": self_ms("world.rear_vehicle"),
        "episode.World.all_states.calls_per_sim_s": calls("episode.World.all_states"),
        "episode.run_episode.self_ms_per_sim_s": self_ms("episode.run_episode"),
        "world.check_collision.calls_per_sim_s": calls("world.check_collision"),
        "scenarios.build_scenario.ms_per_call": sp["scenarios.build_scenario"].ms_per_call(),
        "control.solve_lqr_gain.calls_per_episode":
            lqr.calls / traced_episodes if traced_episodes else 0.0,
        "control.solve_lqr_gain.ms_per_call": lqr.ms_per_call(),
    }
