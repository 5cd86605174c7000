"""Certification benchmark of qdemazure.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is driven only through its
public entry points, qdemazure.verify.run_suite and qdemazure.cli.main, each
session in a fresh interpreter (perfbench/worker.py) so that the package's
unbounded lru_caches never carry over.  Workloads (see workloads.py):

  oracle-window   formula-vs-oracle at max_len=12 (5088 checks)
  formula-deep    recursions at max_len=20 + magic-recursion at max_nu=12 (7565)
  rou-staircase   rou-xi at max_m=6 + rou-lemmas at max_m=12 (3334)
  point-queries   one long-lived closed-loop caller sending seeded rounds of
                  ROUND_QUERIES single evaluations to cli.main: an untimed
                  warm-up round, then timed rounds

With --trace 0 a sweep workload runs workloads.timed_units(WORKLOAD,
--seconds) sessions, and point-queries one session of that many timed
rounds after its warm-up, which take about --seconds on a 2-CPU x86-64
machine; the run reports the end-to-end metrics.  A request is what a user waits for: one sweep on a
sweep workload, one query on point-queries.  A timed unit is one sweep or
one timed round.

  wall_s         mean time of a timed unit until its complete, passing
                 result exists (the sweep's reports; all answers of a round);
                 a mean over the few units of a run, of which the first
                 point-query rounds are the slowest, is steadier than their
                 median
  checks_per_s   verified checks per second over the timed units (on
                 point-queries each answer that passes its cross-check is one)
  query_ms.p50   median request latency
  query_ms.p99   99th-percentile request latency (nearest rank; on a sweep
                 workload, with few requests, the slowest sweep)
  queries_per_s  requests per second over the timed units
  setup_s        median over fresh interpreters, started before and after the
                 sessions, of the time until qdemazure and its CLI are imported
  peak_rss_mb    median peak resident set of a session process

With --trace 1 the run makes one untraced and one traced session, each of one
sweep or of a warm-up and one timed round, and reports the per-layer metrics
(PER_LAYER below) from the trace of the sweep or timed round;
trace.overhead_s is its traced wall time minus the untraced one.  Failed operations (a
counterexample, a wrong check count, an answer that disagrees with its
cross-check, an exception) are counted in "failed"; failed_share is
failed / attempted.  Every run also prints a record line with the run
context before the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    HELD_OUT_SEED,
    POINT_QUERIES,
    ROUND_QUERIES,
    SWEEPS,
    WORKLOADS,
    expected_checks,
    percentile,
    query_stream,
    sweep_failures,
    timed_units,
)

SETUP_STARTS = 8  # interpreter starts timed before the sessions, and again after them
RUN_LIMIT_S = 170.0  # every run ends well within the 180 s allowed

END_TO_END = {
    "wall_s": "s",
    "checks_per_s": "1/s",
    "query_ms.p50": "ms",
    "query_ms.p99": "ms",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SUITES = [suite for sweeps in SWEEPS.values() for suite, _, _ in sweeps]
CACHES = ("laurent.qnum", "laurent.qfact", "laurent.qbinom", "laurent.rho", "laurent.rho_prime",
          "magic.magic", "words.xi_recursive", "rou.cyclotomic_poly")
LAYERS = ("laurent", "polyring", "words", "closed_formula", "magic", "rou", "verify", "report", "cli")
SPAN_CALLS = ("laurent.add", "laurent.mul", "laurent.exact_div", "polyring.demazure",
              "words.xi_oracle", "words.xi_recursive", "closed_formula.xi_formula",
              "closed_formula.factors_standard", "magic.magic", "magic.term", "rou.specialize",
              "cli.build_parser")
SPAN_SELF = ("polyring.demazure", "words.xi_oracle")
COUNTERS = ("laurent.mul.term_products", "polyring.demazure.terms_out", "polyring.demazure.peak_terms")
SRC_MODULES = ("__init__", "cli", "closed_formula", "laurent", "magic", "polyring", "report",
               "rou", "verify", "words")

PER_LAYER: dict[str, str] = {
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **{name: "count" for name in COUNTERS},
    **{f"{name}.self_s": "s" for name in SPAN_SELF},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"words.xi_oracle.ms_per_call.l{ell}": "ms" for ell in (8, 12, 18)},
    **{f"{cache}.{key}": unit for cache in CACHES
       for key, unit in (("hits", "count"), ("misses", "count"), ("hit_ratio", "ratio"))},
    **{f"verify.{suite}.{key}": unit for suite in SUITES for key, unit in (("s", "s"), ("checks", "count"))},
    **{f"src.{module}.lines": "lines" for module in SRC_MODULES},
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def src_lines() -> dict[str, int]:
    out = {}
    for module in SRC_MODULES:
        path = ROOT / "src" / "qdemazure" / f"{module}.py"
        out[module] = len(path.read_text().splitlines()) if path.is_file() else 0
    return out


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode, as installed code does
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_samples(starts: int, deadline: float) -> list[float]:
    """Times for fresh interpreters to import qdemazure and its CLI."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import qdemazure, qdemazure.cli"
    samples = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"importing qdemazure failed:\n{proc.stderr}")
    return samples


def _worker(args: list[str], deadline: float, stdin: str | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), input=stdin, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": f"worker {' '.join(args[:2])} timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def run_session(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    return _worker(["session", workload, str(seed), str(seconds), "1" if traced else "0"], deadline)


def rounds_of(session: dict) -> list[dict]:
    """The sweep or query rounds of a session, each with the session's peak
    resident set; a session that crashed is one failed round."""
    if "error" in session:
        return [session]
    return [r | {"peak_rss_mb": session["peak_rss_mb"]} for r in session["rounds"]]


def cross_check(seed: int, rounds: list[dict], deadline: float) -> list[str]:
    """Cross-check every answer of the point-query rounds, the warm-up
    included, in one checker process; returns one message per failed check."""
    pairs = [[argv, answer]
             for r in rounds
             for argv, answer in zip(query_stream(seed, r["round"]), r["answers"])
             if answer is not None]
    result = _worker(["check"], deadline, json.dumps(pairs))
    return [result["error"]] if "error" in result else result["failures"]


def score(workload: str, rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure messages) of a run's rounds.  A round
    attempts its queries or its window's checks; one that crashed failed them
    all."""
    per_round = ROUND_QUERIES if workload == POINT_QUERIES else expected_checks(workload)
    failed = 0
    failures: list[str] = []
    for result in rounds:
        if "error" in result:
            bad, messages = per_round, [result["error"]]
        elif workload == POINT_QUERIES:
            bad, messages = len(result["failures"]), result["failures"]
        else:
            bad = sweep_failures(workload, result["reports"])
            messages = [f"reports: {result['reports']}"] if bad else []
        failed += min(bad, per_round)
        failures += messages
    return per_round * len(rounds), failed, failures


def end_to_end(workload: str, rounds: list[dict], setup_s: float, verified_share: float) -> dict:
    timed = [r for r in rounds if not r.get("warmup")]
    latencies = [ms for r in timed for ms in r["latencies_ms"]]
    if workload == POINT_QUERIES:
        checks = [len(r["latencies_ms"]) * verified_share for r in timed]
    else:
        checks = [sum(report["checks"] for report in r["reports"]) for r in timed]
    wall = sum(r["wall_s"] for r in timed)
    values = {
        "wall_s": wall / len(timed),
        "checks_per_s": sum(checks) / wall,
        "query_ms.p50": statistics.median(latencies),
        "query_ms.p99": percentile(latencies, 99),
        "queries_per_s": len(latencies) / wall,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(plain: dict, traced: dict) -> dict:
    trace = traced["trace"]
    spans, layers, counters = trace["spans"], trace["layers_self_s"], trace["counters"]
    values: dict[str, float] = {}
    for name in SPAN_CALLS:
        values[f"{name}.calls"] = spans.get(name, {}).get("calls", 0)
    for name in SPAN_SELF:
        values[f"{name}.self_s"] = spans.get(name, {}).get("self_s", 0.0)
    for name in COUNTERS:
        values[name] = counters.get(name, 0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layers.get(layer, 0.0)
    for key, ms in traced["probe_ms"].items():
        values[f"words.xi_oracle.ms_per_call.{key}"] = ms
    for cache in CACHES:
        info = traced["caches"][cache]
        total = info["hits"] + info["misses"]
        values[f"{cache}.hits"] = info["hits"]
        values[f"{cache}.misses"] = info["misses"]
        values[f"{cache}.hit_ratio"] = info["hits"] / total if total else 0.0
    checks = {r["suite"]: r["checks"] for r in traced["rounds"][-1].get("reports", [])}
    for suite in SUITES:
        values[f"verify.{suite}.s"] = spans.get(f"verify.{suite}", {}).get("total_s", 0.0)
        values[f"verify.{suite}.checks"] = checks.get(suite, 0)
    for module, lines in src_lines().items():
        values[f"src.{module}.lines"] = lines
    values["trace.overhead_s"] = traced["rounds"][-1]["wall_s"] - plain["rounds"][-1]["wall_s"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    if not (ROOT / "src" / "qdemazure" / "__init__.py").is_file():
        raise BenchError(f"no qdemazure sources under {ROOT / 'src'}")
    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    context = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": loadavg(),
    }
    sessions: list[dict] = []
    if args.trace:
        for traced in (False, True):
            sessions.append(run_session(args.workload, args.seed, 0, traced, deadline))
    else:
        setup_samples(1, deadline)  # fills the bytecode cache
        setup = setup_samples(SETUP_STARTS, deadline)
        for _ in range(1 if args.workload == POINT_QUERIES else timed_units(args.workload, args.seconds)):
            sessions.append(run_session(args.workload, args.seed, args.seconds, False, deadline))
            if "error" in sessions[-1]:
                break
        setup += setup_samples(SETUP_STARTS, deadline)
    rounds = [r for session in sessions for r in rounds_of(session)]
    attempted, failed, failures = score(args.workload, rounds)
    errored = any("error" in r for r in rounds)
    if args.workload == POINT_QUERIES and not errored:
        mismatches = cross_check(args.seed, rounds, deadline)
        failed = min(attempted, failed + len(mismatches))
        failures += mismatches
    if errored:
        metrics = {}
    elif args.trace:
        metrics = per_layer(sessions[0], sessions[1])
    else:
        metrics = end_to_end(args.workload, rounds, statistics.median(setup), 1 - failed / attempted)
    context["loadavg_end"] = loadavg()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "src_lines": src_lines(),
        "rounds": [{k: v for k, v in r.items() if k not in ("latencies_ms", "answers")} for r in rounds],
        "trace_summary": sessions[-1].get("trace") if args.trace else None,
        "failed_share": failed / attempted,
        "failures": failures[:20],
        "elapsed_s": time.monotonic() - t_begin,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
