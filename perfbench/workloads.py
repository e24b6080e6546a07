"""The two workloads: the operations of one round, and the checks on their outputs.

A workload turns the benchmark seed into a plan, the list of steps that
make one round. Every round of a run repeats the same plan. After a round,
`check` compares the outputs with values computed apart from the program
and returns the problems it found. `report` gives the named per-step
figures that the benchmark prints above its result line.
"""

from __future__ import annotations

import json
import math
import random
import statistics

import oracles
import recert

# Le Gall 2014 (arXiv:1401.7714), Table 1, quoted from memory in ROADMAP.md.
PUBLISHED_OMEGA = {(6, 1): 2.3871900, (6, 2): 2.3754770, (5, 4): 2.3729269}
OMEGA_TOLERANCE = 1e-5

ANALYZE_Q, ANALYZE_T, ANALYZE_TAU = 5, 8, "0.7910"

# Restart-path moduli are fixed: that path's cost jumps between its
# escalation stages from one M to the next (0.2 s at M=156, 7.6 s at
# M=162), so drawing them from the seed would make the spread between runs
# measure the draw rather than the program.
BEHREND_FIXED_M = (150, 300)
BEHREND_FAST_BAND = (2000, 2300)
ORACLE_BAND = (24, 38)
PIPELINE_Q, PIPELINE_N, PIPELINE_SEEDS = 2, 12, 16
# Mean C1 and C3 must lie within this many standard errors of their
# expectation. At 16 seeds a miss by chance has odds below 1e-4 per run.
PIPELINE_Z = 6.0
ZERO_OUT_ARGS = ["--n", "300", "--m", "4"]
HARD_INSTANCE_ARGS = ["--n", "128", "--m", "3"]


def _cli(name: str, *argv: str) -> dict:
    return {"name": name, "kind": "cli", "argv": list(argv)}


def _json(result: dict) -> dict:
    return json.loads(result["stdout"])


def _check_table(name: str, text: str, problems: list[str]) -> recert.Report:
    """Re-certify one cache file, and show the re-certifier rejects tampered copies."""
    doc = json.loads(text)
    report = recert.certify(doc)
    if not report.ok:
        problems.append(f"{name}: re-certifier rejects the table: {report.failures[:3]}")
    for how, bad in recert.tampered_copies(doc).items():
        if recert.certify(bad).ok:
            problems.append(f"{name}: re-certifier accepts a copy with {how}")
    return report


def _check_verify(result: dict, files: int, problems: list[str]) -> None:
    payload = _json(result)
    if not payload["all_passed"] or len(payload["reports"]) != files:
        problems.append(f"cache verify: {payload}")


class OmegaLadder:
    name = "omega-ladder"
    cases = (("omega_q6t1", 6, 1, ()), ("omega_q6t2", 6, 2, ()),
             ("omega_q5t4", 5, 4, ("--heuristics", "2")))

    def __init__(self, seed: int):
        self.seed = str(seed)

    def _omega(self, name: str, q: int, t: int, extra=()) -> dict:
        return _cli(name, "omega", "--q", str(q), "--t", str(t), *extra,
                    "--seed", self.seed, "--format", "json")

    def plan(self) -> list[dict]:
        first = self._omega(*self.cases[0])
        return [first, dict(first, name="omega_q6t1_repeat")] + [
            self._omega(*case) for case in self.cases[1:]
        ] + [_cli("verify", "cache", "verify", "--format", "json")]

    def check(self, results: dict[str, dict]) -> list[str]:
        problems: list[str] = []
        first, again = results["omega_q6t1"], results["omega_q6t1_repeat"]
        if first["stdout"] != again["stdout"] or first["cache"] != again["cache"]:
            problems.append("omega --q 6 --t 1: two runs differ in stdout or cache bytes")
        for name, q, t, _ in self.cases:
            payload = _json(results[name])
            omega = float(payload["omega"])
            if payload["certified"] is not True:
                problems.append(f"{name}: not certified")
            if abs(omega - PUBLISHED_OMEGA[(q, t)]) > OMEGA_TOLERANCE:
                problems.append(f"{name}: omega {omega} vs published {PUBLISHED_OMEGA[(q, t)]}")
            report = _check_table(name, results[name]["cache"], problems)
            if abs(report.omega - omega) > 1e-12:
                problems.append(f"{name}: cache supports omega {report.omega}, run claims {omega}")
        _check_verify(results["verify"], len(self.cases), problems)
        return problems

    def report(self, results: dict[str, dict]) -> list[tuple[str, float, str]]:
        rows = [(name + "_s", results[name]["seconds"], "s") for name, *_ in self.cases]
        rows.append(("verify_s", results["verify"]["seconds"], "s"))
        rows += [(name, float(_json(results[name])["omega"]), "omega") for name, *_ in self.cases]
        return rows


class AnalyzeDeep:
    """One tau at t=8 with h2 only, then `cache verify` on its table."""

    def __init__(self, seed: int):
        self.seed = str(seed)

    def plan(self) -> list[dict]:
        return [
            _cli("analyze_q5t8", "analyze", "--q", str(ANALYZE_Q), "--t", str(ANALYZE_T),
                 "--tau", ANALYZE_TAU, "--heuristics", "2", "--seed", self.seed,
                 "--format", "json"),
            _cli("verify", "cache", "verify", "--format", "json"),
        ]

    def margin(self, results: dict[str, dict]) -> float:
        return float(_json(results["analyze_q5t8"])["log_value"]) - ANALYZE_T * math.log(ANALYZE_Q + 2)

    def check(self, results: dict[str, dict]) -> list[str]:
        problems: list[str] = []
        report = _check_table("analyze_q5t8", results["analyze_q5t8"]["cache"], problems)
        if not self.margin(results) > 0:
            problems.append(f"analyze_q5t8: top value below t ln(q+2), margin {self.margin(results)}")
        if report.margin is None or abs(report.margin - self.margin(results)) > 1e-8:
            problems.append(f"analyze_q5t8: re-derived margin {report.margin} vs {self.margin(results)}")
        _check_verify(results["verify"], 1, problems)
        return problems

    def report(self, results: dict[str, dict]) -> list[tuple[str, float, str]]:
        return [
            ("analyze_q5t8_s", results["analyze_q5t8"]["seconds"], "s"),
            ("verify_s", results["verify"]["seconds"], "s"),
            ("margin_q5t8", self.margin(results), "nats"),
        ]


class Constructions:
    """Behrend sets on both paths, the exact oracle, the pipeline, zero-out, hard instances."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.oracle_m = sorted(rng.sample(range(ORACLE_BAND[0], ORACLE_BAND[1] + 1), 3))
        fast = sorted(rng.sample(range(BEHREND_FAST_BAND[0], BEHREND_FAST_BAND[1] + 1), 3))
        self.behrend_m = list(BEHREND_FIXED_M) + fast + self.oracle_m
        self.pipeline_seeds = [(seed * 7919 + i) % 2**31 for i in range(PIPELINE_SEEDS)]

    def plan(self) -> list[dict]:
        lib = (
            [{"name": f"behrend_{M}", "kind": "lib", "call": "behrend", "M": M} for M in self.behrend_m]
            + [{"name": f"oracle_{M}", "kind": "lib", "call": "oracle", "M": M} for M in self.oracle_m]
            + [{"name": f"pipeline_{s}", "kind": "lib", "call": "pipeline", "q": PIPELINE_Q,
                "n": PIPELINE_N, "seed": s} for s in self.pipeline_seeds]
        )
        seed = str(self.seed)
        return lib + [
            _cli("zero_out", "simulate", "zero-out", *ZERO_OUT_ARGS, "--seed", seed, "--format", "json"),
            _cli("hard_greedy", "simulate", "hard-instance", "--kind", "greedy", *HARD_INSTANCE_ARGS,
                 "--seed", seed, "--format", "json"),
            _cli("hard_free", "simulate", "hard-instance", "--kind", "free", *HARD_INSTANCE_ARGS,
                 "--seed", seed, "--format", "json"),
        ]

    def check(self, results: dict[str, dict]) -> list[str]:
        problems: list[str] = []
        for M in self.behrend_m:
            A = results[f"behrend_{M}"]["data"]["elements"]
            if not oracles.is_progression_free(M, A):
                problems.append(f"behrend_set({M}) contains a 3-term progression")
            if M >= 100 and len(A) < M ** 0.6:
                problems.append(f"behrend_set({M}) has {len(A)} elements, below M^0.6")
        for M in self.oracle_m:
            size = results[f"oracle_{M}"]["data"]["size"]
            if size != oracles.max_progression_free_size(M):
                problems.append(f"max_progression_free_size({M}) = {size} is not the optimum")
            if size < len(results[f"behrend_{M}"]["data"]["elements"]):
                problems.append(f"max_progression_free_size({M}) below |behrend_set({M})|")

        runs = [results[f"pipeline_{s}"]["data"] for s in self.pipeline_seeds]
        for s, st in zip(self.pipeline_seeds, runs):
            if not (st["C1_prime"] <= st["C1"] and st["L"] <= st["C1"]):
                problems.append(f"pipeline seed {s}: C1'={st['C1_prime']} L={st['L']} C1={st['C1']}")
            if not (st["hash_ok"] and st["disjoint_ok"]):
                problems.append(f"pipeline seed {s}: hash or block-disjointness check failed")
        counts = {tuple(k): v for k, v in runs[0]["alpha_counts"]}
        n_alpha, n_t = oracles.pipeline_counts(PIPELINE_Q, counts)
        if (runs[0]["N_alpha"], runs[0]["N_T"]) != (n_alpha, n_t):
            problems.append(f"pipeline N_alpha, N_T = {runs[0]['N_alpha']}, {runs[0]['N_T']};"
                            f" expected {n_alpha}, {n_t}")
        scale = runs[0]["A_size"] / runs[0]["M"] ** 2
        for field, n in (("C1", n_alpha), ("C3", n_t)):
            values = [st[field] for st in runs]
            se = statistics.stdev(values) / math.sqrt(len(values))
            if abs(statistics.mean(values) - scale * n) > PIPELINE_Z * se:
                problems.append(f"pipeline mean {field} {statistics.mean(values)} vs"
                                f" expected {scale * n}, standard error {se}")

        zo = _json(results["zero_out"])
        if float(zo["mean_kept"]) < float(zo["bound"]) - 5 * float(zo["stderr"]):
            problems.append(f"zero-out mean {zo['mean_kept']} below the guarantee {zo['bound']}")
        for name in ("hard_greedy", "hard_free"):
            _json(results[name])
        return problems

    def report(self, results: dict[str, dict]) -> list[tuple[str, float, str]]:
        pipeline_s = sum(results[f"pipeline_{s}"]["seconds"] for s in self.pipeline_seeds)
        return [
            ("behrend_s", sum(results[f"behrend_{M}"]["seconds"] for M in self.behrend_m), "s"),
            ("oracle_s", sum(results[f"oracle_{M}"]["seconds"] for M in self.oracle_m), "s"),
            ("pipeline_seeds_per_s", len(self.pipeline_seeds) / pipeline_s, "1/s"),
            ("behrend_size_sum", sum(len(results[f"behrend_{M}"]["data"]["elements"])
                                     for M in self.behrend_m), "count"),
        ]


class DeepConstructions:
    """AnalyzeDeep, then Constructions, in one round.

    Neither part runs tau bisection, the final-table rebuild, h1 or h3, so
    this is the workload that bypasses what omega-ladder stresses. The two
    parts share a workload, rather than each having its own, so that every
    run can measure over half a minute within the time all runs may take.
    """

    name = "deep-constructions"

    def __init__(self, seed: int):
        self.parts = (AnalyzeDeep(seed), Constructions(seed))

    def plan(self) -> list[dict]:
        return [step for part in self.parts for step in part.plan()]

    def check(self, results: dict[str, dict]) -> list[str]:
        return [problem for part in self.parts for problem in part.check(results)]

    def report(self, results: dict[str, dict]) -> list[tuple[str, float, str]]:
        return [row for part in self.parts for row in part.report(results)]


WORKLOADS = {w.name: w for w in (OmegaLadder, DeepConstructions)}
