"""laserlab benchmark: run one workload for a while and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload omega-ladder --seed 1 --seconds 10 --trace 0

It runs whole rounds of the workload's operations, at least one, and
starts another only if it should end within `--seconds` of the first.
It checks every output against values computed apart from the program,
and prints one JSON object as the last line of stdout: `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, measured with each `laserlab` command in its own process
and the library calls in one worker process per round. With `--trace 1` a
worker runs the same round in-process with every layer wrapped, and the
metrics are the per-layer ones. The named per-step figures go to the lines
above the result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import steps
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Every run must end within 180 s; stop starting work after this.
DEADLINE_S = 165.0


def child_env(cache_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(
        PYTHONPATH=str(SRC),
        LASERLAB_CACHE_DIR=str(cache_dir),
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


class Runner:
    """Runs the steps of a round, one program process or call at a time."""

    def __init__(self, trace: bool, deadline: float):
        self.trace = trace
        self.deadline = deadline

    def _spawn(self, argv: list[str], env: dict, cwd: Path, stdin: str | None = None):
        timeout = max(1.0, self.deadline - time.perf_counter())
        return subprocess.run(argv, input=stdin, capture_output=True, text=True,
                              env=env, cwd=cwd, timeout=timeout)

    def cli(self, step: dict, env: dict, cwd: Path) -> dict:
        start = time.perf_counter()
        proc = self._spawn([sys.executable, "-m", "laserlab.cli", *step["argv"]], env, cwd)
        result = {"name": step["name"], "seconds": time.perf_counter() - start,
                  "ok": proc.returncode == 0, "code": proc.returncode, "stdout": proc.stdout}
        if result["ok"]:
            result["cache"] = steps.cache_text(proc.stdout)
        else:
            result["error"] = proc.stderr[-2000:]
        return result

    def worker(self, plan: list[dict], env: dict, cwd: Path) -> dict:
        payload = json.dumps({"trace": self.trace, "steps": plan})
        proc = self._spawn([sys.executable, str(BENCH / "worker.py")], env, cwd, payload)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def round(self, plan: list[dict], round_dir: Path) -> tuple[list[dict], dict]:
        cache_dir = round_dir / "cache"
        cache_dir.mkdir(parents=True)
        env = child_env(cache_dir)
        if self.trace:
            out = self.worker(plan, env, round_dir)
            return out["results"], out
        results: list[dict] = []
        for kind, group in itertools.groupby(plan, key=lambda step: step["kind"]):
            if kind == "cli":
                results += [self.cli(step, env, round_dir) for step in group]
            else:
                results += self.worker(list(group), env, round_dir)["results"]
        return results, {}


def measure_setup(work: Path) -> float:
    """One cold no-op start of the program: `laserlab --help` from spawn to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "laserlab.cli", "--help"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   env=child_env(work / "cache"), cwd=work, timeout=60)
    return time.perf_counter() - start


def median_rows(rounds: list[list[tuple[str, float, str]]]) -> list[tuple[str, float, str]]:
    return [(name, statistics.median(r[i][1] for r in rounds), unit)
            for i, (name, _, unit) in enumerate(rounds[0])]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Raising on SIGTERM lets subprocess.run kill the running child and the
    # work directory be removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "laserlab" / "cli.py").is_file():
        print(f"laserlab sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    plan = workload.plan()
    work = WORK / f"run-{os.getpid()}"
    runner = Runner(bool(args.trace), started + DEADLINE_S)
    attempted = failed = 0
    problems: list[str] = []
    walls, reports, layer_rounds = [], [], []
    try:
        work.mkdir(parents=True)
        setup_s = None if args.trace else measure_setup(work)
        measuring = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            try:
                results, extra = runner.round(plan, work / f"round-{len(walls)}")
            except subprocess.TimeoutExpired:
                print("run stopped at its deadline", file=sys.stderr)
                return 3
            attempted += len(plan)
            bad = [r for r in results if not r["ok"]]
            failed += len(bad)
            for r in bad:
                print(f"FAILED {r['name']}: {r.get('error', r.get('code'))}", file=sys.stderr)
            by_name = {r["name"]: r for r in results}
            if not bad:
                try:
                    problems += workload.check(by_name)
                except Exception as exc:  # noqa: BLE001 - a crashed check is a failed check
                    problems.append(f"check crashed: {exc!r}")
                reports.append(workload.report(by_name))
            walls.append(sum(r["seconds"] for r in results))
            if extra:
                layer_rounds.append(extra["metrics"])
                for msg in extra["swallowed"]:
                    print(f"swallowed failure: {msg}", file=sys.stderr)
            if bad:
                break
            # Start another round only if, taking as long as this one, it
            # ends within --seconds of the first and before the deadline.
            now = time.perf_counter()
            last_round = now - round_start
            if (now - measuring + last_round > args.seconds
                    or now + last_round > started + DEADLINE_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    if reports:
        for name, value, unit in median_rows(reports):
            print(f"{name} {value:.10g} {unit}")
    print(f"round_wall_s {statistics.median(walls):.10g} s")
    if args.trace:
        metrics = {name: {"value": statistics.median(r[name]["value"] for r in layer_rounds),
                          "unit": m["unit"]}
                   for name, m in layer_rounds[0].items()}
    else:
        maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": maxrss_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
