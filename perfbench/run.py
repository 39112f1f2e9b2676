"""Seeded-episode benchmark for platoonreorg.

One run measures one workload for --seconds seconds in a single-threaded
closed loop: episodes run one after another, episode k of workload seed s with
seed s * 1_000_000 + k.  With --trace 0 it reports the end-to-end metrics;
with --trace 1 it runs every episode twice, untraced and then traced, and
reports the per-layer metrics.  Metric names and units are declared in
BENCHMARK.json.  The last line of stdout is the JSON result; the lines before
it, all starting with '#', are the run header and a readable report.

    python3 perfbench/run.py --workload case2-dense --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all   # every workload, both modes, plus a summary
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_package():
    """Import platoonreorg from this checkout's src/ and nowhere else.

    harness and layers import platoonreorg, so they are imported after this.
    """
    sys.path.insert(0, str(SRC))
    try:
        from platoonreorg import episode
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import platoonreorg from {SRC}: {exc}")
    if Path(episode.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: platoonreorg resolved to {episode.__file__}, "
                         f"not to {SRC}")


def commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def header(seed: int) -> dict:
    import numpy
    import scipy
    from platoonreorg import config

    import harness

    return {
        "commit": commit(),
        "workload_seed": seed,
        "spec_hash": {name: config.config_hash(w.spec)
                      for name, w in harness.workloads().items()},
        "defaults_hash": config.config_hash(config.DEFAULTS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run episodes until the time is up.

    Returns the untraced outcomes, the traced ones, the tracer, and the
    timings of any set-ups added to reach ``harness.SETUP_SAMPLES``.
    """
    import harness
    import layers

    tracer = layers.Tracer() if trace else None
    untraced, traced = [], []
    min_episodes = harness.STATS_EPISODES if trace else 1
    seeds = harness.episode_seeds(seed)
    deadline = time.perf_counter() + seconds
    for episode_seed in seeds:
        untraced.append(harness.run_one(workload, episode_seed))
        if tracer is not None:
            with tracer.installed():
                traced.append(harness.run_one(workload, episode_seed))
        if time.perf_counter() >= deadline and len(untraced) >= min_episodes:
            break
    extra_setups = harness.setup_times(workload, seeds,
                                       max(0, harness.SETUP_SAMPLES - len(untraced)))
    return untraced, traced, tracer, extra_setups


def run(args, declaration: dict) -> int:
    import_package()
    import harness
    import layers

    workload = harness.workloads()[args.workload]
    print("# header " + json.dumps(header(args.seed), sort_keys=True), flush=True)

    untraced, traced, tracer, extra_setups = measure(workload, args.seed, args.seconds,
                                                     args.trace)
    e2e = harness.end_to_end(untraced, extra_setups)
    first = next((o for o in untraced if not o.passed), None)
    summary = {
        "workload": workload.name, "trace": args.trace, "episodes": len(untraced),
        **e2e,
        "ms_per_frame": harness.ms_per_frame(untraced),
        "hdvs_mean": sum(o.hdvs for o in untraced) / len(untraced),
        "first_failure": None if first is None else
        {"seed": first.seed, "site": first.error or first.check_failures[0]},
    }
    print("# summary " + json.dumps(summary, sort_keys=True), flush=True)

    correct = all(not o.check_failures for o in untraced)
    if args.trace:
        transparent = [o.signature() for o in untraced] == [o.signature() for o in traced]
        correct = correct and transparent
        stats, digest = harness.simulated_stats(untraced)
        print(f"# simulated statistics of episodes 0-{harness.STATS_EPISODES - 1}: "
              f"{json.dumps(stats)} digest {digest}; traced == untraced: {transparent}",
              flush=True)
        untraced_s = sum(o.setup_s + o.run_s for o in untraced)
        traced_s = sum(o.setup_s + o.run_s for o in traced)
        metrics = layers.layer_metrics(tracer, sum(o.sim_s_entered for o in traced),
                                       len(traced))
        metrics.update(stats)
        metrics["sim_s_per_s"] = e2e["sim_s_per_s"]
        metrics["episodes_failed_frac"] = e2e["episodes_failed_frac"]
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        declared = declaration["per_layer"]
    else:
        metrics = {"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"]}
        declared = declaration["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: emitted metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    for m in declared:
        print(f"# {m['name']} = {metrics[m['name']]:.6g} {m['unit']} ({m['better']} is better)")
    result = {
        "correct": correct,
        "attempted": len(untraced),
        "failed": sum(not o.passed for o in untraced),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


def report(args, declaration: dict) -> int:
    """Run every workload untraced and traced in its own process, then summarise."""
    summaries = {}
    for w in declaration["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            print(f"## {w['name']} --trace {trace} (exit {proc.returncode})")
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            if trace == 0:
                line = next(l for l in proc.stdout.splitlines() if l.startswith("# summary "))
                summaries[w["name"]] = json.loads(line[len("# summary "):])

    import_package()
    import harness

    print("## end-to-end per workload (untraced)")
    for name, s in summaries.items():
        print(f"{name:16s} sim_s_per_s={s['sim_s_per_s']:.4g} sim-s/s  "
              f"episodes_failed_frac={s['episodes_failed_frac']:.4g}  "
              f"setup_s={s['setup_s']:.4g} s  peak_rss_mb={s['peak_rss_mb']:.4g} MiB  "
              f"episodes={s['episodes']}  first failure: {s['first_failure']}")
    sparse, dense = summaries["case2-sparse-gt"], summaries["case2-dense"]
    exponent = harness.scaling_exponent(sparse["ms_per_frame"], sparse["hdvs_mean"],
                                        dense["ms_per_frame"], dense["hdvs_mean"])
    print(f"density-scaling exponent (not gated): "
          f"{'n/a' if exponent is None else format(exponent, '.3f')} from "
          f"{sparse['ms_per_frame']:.3f} -> {dense['ms_per_frame']:.3f} ms/frame over "
          f"{sparse['hdvs_mean']:.1f} -> {dense['hdvs_mean']:.1f} HDVs")
    return 0


def main(argv=None) -> int:
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return report(args, declaration)
    return run(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
