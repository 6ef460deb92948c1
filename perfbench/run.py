"""Round-throughput benchmark for fedqdp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from perfbench/workloads/ through the same path as
`fedqdp run`: config.parse_config_dict -> federation.run_experiment ->
metrics.write_records / metrics.write_manifest, with --seed written into
the config's seed. Every run's metrics.csv is checked against independent
oracles (checks.py) and must hash identically across all runs of the seed;
a run with any failed check counts as failed. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics, measured untraced. Each timed
repeat is a fresh process that runs the workload once, as `fedqdp run`
does; repeats follow back to back for --seconds, at least MIN_REPEATS.
On a shared virtual machine (2-vCPU Xeon, numpy 2.4, Python 3.11) speed
alternates between contended and quiet spells, at sub-second to minute
scale, so a run's median mixes the two speeds in proportions that change
from run to run. The 90th percentile tracks the contended speed, which
varies less between runs, so throughput and run time use it:
  rounds_per_s    rounds per second reached by 90% of the blocks of
                  eval_every rounds; each block is timed between round_hook
                  calls and ends on an evaluation round, so every block does
                  the same kinds of work, and setup and round 0 are excluded
  setup_s         median wall time of run_experiment on the same config with
                  rounds = 0, sampled before every repeat (at least
                  SETUP_REPEATS times and SETUP_SECONDS each time)
  run_s           config parse through manifest write; 90th percentile over
                  repeats
  peak_rss_mb     ru_maxrss of a repeat's process, median over repeats
  total_bits      downlink plus uplink bits, exact at a fixed seed
  final_test_acc  test accuracy at the last round, exact at a fixed seed

--trace 1 runs in one process: a short warm-up, then untraced and traced
runs in turn for --seconds. It reports the per-layer spans and counts of
tracer.py, medians over the traced runs; round_ms_p50 and round_ms_p95,
percentiles of the per-round wall times between round_hook calls, median
over the untraced runs (each run's 199 samples leave ten beyond p95; both
spread too widely between runs on a shared machine to carry a bound); and
trace.overhead, the median block time traced over untraced.

Run outputs, the environment (env.json) and the last traced run's spans
(spans.jsonl) go to perfbench/results/<workload>/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = HERE / "workloads"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracer import Tracer, metric_units  # noqa: E402

SETUP_REPEATS = 3
SETUP_SECONDS = 0.1
MIN_REPEATS = 2
WARMUP_ROUNDS = 10
CHILD_TIMEOUT_S = 150
PER_LAYER_UNITS = {
    **metric_units(),
    "round_ms_p50": "ms",
    "round_ms_p95": "ms",
    "trace.overhead": "ratio",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "rounds_per_s": "1/s",
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "total_bits": "bit",
    "final_test_acc": "fraction",
}


def use_checkout_sources() -> bool:
    """Put the checkout's src/ first on sys.path; False if it is missing."""
    if not (ROOT / "src" / "fedqdp" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def workload_names() -> list[str]:
    return sorted(p.stem for p in WORKLOADS.glob("*.json"))


def load_workload(name: str, seed: int, rounds: int | None = None) -> dict:
    raw = json.loads((WORKLOADS / f"{name}.json").read_text())
    raw["seed"] = seed
    if rounds is not None:
        raw["rounds"] = rounds
    return raw


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _backend_name() -> str:
    try:
        from fedqdp import backend
    except ImportError:
        return "absent"
    return getattr(backend, "BACKEND", "absent")


def _manifest(metrics, raw: dict, cfg, started: str, outputs: tuple[str, ...]):
    """A RunManifest with whichever of the known fields it declares."""
    import fedqdp
    import numpy as np

    known = {
        "config": raw,
        "seed": cfg.seed,
        "backend": _backend_name(),
        "package_version": fedqdp.__version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "started": started,
        "finished": _now(),
        "outputs": outputs,
    }
    fields = {f.name for f in dataclasses.fields(metrics.RunManifest)}
    return metrics.RunManifest(**{k: v for k, v in known.items() if k in fields})


@dataclasses.dataclass
class RunResult:
    run_s: float
    round_times: list[float]
    metrics_csv: bytes

    def window_s(self, size: int) -> list[float]:
        """Durations of consecutive blocks of `size` rounds, each ending on
        an evaluation round, so that every block does the same kinds of work."""
        t = self.round_times
        return [t[end] - t[end - size] for end in range(2 * size - 1, len(t), size)]

    def round_ms(self, percent: int) -> float:
        """Percentile of the per-round wall times, in ms."""
        t = self.round_times
        ms = [(b - a) * 1e3 for a, b in zip(t, t[1:])]
        return statistics.quantiles(ms, n=100, method="inclusive")[percent - 1]


def full_run(raw: dict, out_dir: Path, tracer: Tracer | None = None) -> RunResult:
    """The `fedqdp run` path: parse, run, write metrics.csv and manifest.json."""
    from fedqdp import config, federation, metrics

    out_dir.mkdir(parents=True, exist_ok=True)
    round_times: list[float] = []

    def hook(state, record):
        round_times.append(perf_counter())
        if tracer is not None:
            tracer.round = record.t + 1

    start = perf_counter()
    started = _now()
    cfg = config.parse_config_dict(raw)
    records = federation.run_experiment(cfg, round_hook=hook)
    metrics_path = out_dir / "metrics.csv"
    metrics.write_records(records, metrics_path)
    metrics.write_manifest(
        _manifest(metrics, raw, cfg, started, (metrics_path.name,)), out_dir / "manifest.json"
    )
    run_s = perf_counter() - start
    return RunResult(run_s, round_times, metrics_path.read_bytes())


def setup_seconds(raw: dict) -> list[float]:
    """run_experiment wall time on the same config with no rounds, repeated
    at least SETUP_REPEATS times and for at least SETUP_SECONDS."""
    from fedqdp import config, federation

    cfg = config.parse_config_dict({**raw, "rounds": 0})
    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = perf_counter()
        federation.run_experiment(cfg)
        times.append(perf_counter() - start)
    return times


def child_run(raw: dict, out_dir: Path) -> tuple[RunResult, float]:
    """Run the workload once in a fresh process, as `fedqdp run` would:
    (its result, its peak RSS in MB)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(raw))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", str(out_dir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child run exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    result = RunResult(report["run_s"], report["round_times"],
                       (out_dir / "metrics.csv").read_bytes())
    return result, report["maxrss_kb"] / 1024.0


def _child_main(out_dir: Path) -> int:
    raw = json.loads((out_dir / "config.json").read_text())
    result = full_run(raw, out_dir)
    print(json.dumps({
        "run_s": result.run_s,
        "round_times": result.round_times,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


class Checker:
    """Counts runs attempted and runs with any failed output check."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.attempted = 0
        self.failed = 0
        self.first_digest: str | None = None

    def check(self, label: str, metrics_csv: bytes) -> list[dict]:
        self.attempted += 1
        rows = checks.parse_metrics_csv(metrics_csv)
        failures = checks.check_rows(rows, self.raw)
        digest = checks.digest(metrics_csv)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            failures.append(f"metrics.csv sha256 {digest} differs from {self.first_digest}")
        if failures:
            self.failed += 1
            for failure in failures[:10]:
                print(f"{label}: check failed: {failure}", file=sys.stderr)
        return rows


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": _backend_name(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
        "platform": platform.platform(),
    }


def measure_end_to_end(raw: dict, out: Path, seconds: float, checker: Checker) -> dict:
    setup: list[float] = []
    repeats: list[RunResult] = []
    rss_mb: list[float] = []
    walls: list[float] = []
    start = perf_counter()
    # Start another repeat only while a typical one still ends in time.
    while len(repeats) < MIN_REPEATS or (
        perf_counter() - start + statistics.median(walls) <= seconds
    ):
        launched = perf_counter()
        setup += setup_seconds(raw)
        result, rss = child_run(raw, out / f"rep{len(repeats)}")
        walls.append(perf_counter() - launched)
        rows = checker.check(f"repeat {len(repeats)}", result.metrics_csv)
        repeats.append(result)
        rss_mb.append(rss)

    block = raw["eval_every"]
    windows = [w for r in repeats for w in r.window_s(block)]
    print(f"{len(repeats)} repeats of {len(repeats[0].round_times)} rounds, "
          f"{len(windows)} blocks of {block} rounds, {len(setup)} setups", file=sys.stderr)
    return {
        "rounds_per_s": block / statistics.quantiles(windows, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup),
        "run_s": statistics.quantiles([r.run_s for r in repeats], n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(rss_mb),
        "total_bits": checks.total_bits(rows),
        "final_test_acc": rows[-1]["test_acc"],
    }


def measure_layers(raw: dict, out: Path, seconds: float, checker: Checker) -> dict:
    full_run({**raw, "rounds": min(WARMUP_ROUNDS, raw["rounds"])}, out / "warmup")
    block = raw["eval_every"]
    untraced: list[RunResult] = []
    untraced_windows: list[float] = []
    traced_windows: list[float] = []
    summaries: list[dict] = []
    pair_s: list[float] = []
    start = perf_counter()
    # Start another pair only while a typical one still ends in time.
    while not summaries or perf_counter() - start + statistics.median(pair_s) <= seconds:
        i = len(summaries)
        launched = perf_counter()
        result = full_run(raw, out / f"untraced{i}")
        checker.check(f"untraced run {i}", result.metrics_csv)
        untraced.append(result)
        untraced_windows += result.window_s(block)
        with Tracer() as tracer:
            result = full_run(raw, out / f"traced{i}", tracer)
        checker.check(f"traced run {i}", result.metrics_csv)
        traced_windows += result.window_s(block)
        summaries.append(tracer.summary())
        pair_s.append(perf_counter() - launched)
    tracer.write_spans(out / "spans.jsonl")
    absent = sorted(tracer.absent)
    (out / "absent.json").write_text(json.dumps(absent) + "\n")
    print(f"{len(summaries)} traced runs, {len(tracer.spans)} spans per run; "
          f"absent: {', '.join(absent) or 'none'}", file=sys.stderr)
    layers = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    layers["round_ms_p50"] = statistics.median(r.round_ms(50) for r in untraced)
    layers["round_ms_p95"] = statistics.median(r.round_ms(95) for r in untraced)
    layers["trace.overhead"] = statistics.median(traced_windows) / statistics.median(untraced_windows)
    return layers


def bench(workload: str, seed: int, seconds: float, trace: bool,
          rounds: int | None = None, results: Path = RESULTS) -> dict:
    """Measure one workload and return the result object the CLI prints."""
    raw = load_workload(workload, seed, rounds)
    out = results / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment()
    (out / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print(f"env: {json.dumps(env)}", file=sys.stderr)

    checker = Checker(raw)
    if trace:
        values, units = measure_layers(raw, out, seconds, checker), PER_LAYER_UNITS
    else:
        values, units = measure_end_to_end(raw, out, seconds, checker), END_TO_END_UNITS
    metrics = {
        name: {"value": int(values[name]) if unit in ("count", "B", "bit") else values[name],
               "unit": unit}
        for name, unit in units.items()
    }
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fedqdp round-throughput benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        print(f"perfbench: no fedqdp sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child is not None:
        return _child_main(args.child)
    if args.workload not in workload_names():
        parser.error(f"--workload must be one of {workload_names()}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}: {result['failed']} of {result['attempted']} runs failed a check",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
