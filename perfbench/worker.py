"""One session of a benchmark workload, run in a fresh interpreter.

    python worker.py ROOT session WORKLOAD SEED SECONDS TRACE
    python worker.py ROOT check  < [[argv, answer], ...]

imports qdemazure from ROOT/src and prints one JSON object as its last line.
The session form runs through the public entry points
(qdemazure.verify.run_suite and qdemazure.cli.main) either one sweep, or one
long-lived point-query session: an untimed warm-up round of queries, then
workloads.timed_units(WORKLOAD, SECONDS) timed rounds.  With TRACE set to 1
the sweep or a single timed round runs under a spans.Tracer, and the JSON also carries the
trace, the lru_cache hits and misses made under it and the xi_oracle probe
timings.  A fresh process per session keeps the package's unbounded caches
from carrying over between sessions.  The check form cross-checks
point-query answers in one process, after the timed sessions, so that the
reference evaluators share their caches.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import POINT_QUERIES, SWEEPS, query_params, query_stream, timed_units

# cache name -> (module, attribute holding the lru_cache)
CACHES = {
    "laurent.qnum": ("qdemazure.laurent", "qnum"),
    "laurent.qfact": ("qdemazure.laurent", "qfact"),
    "laurent.qbinom": ("qdemazure.laurent", "qbinom"),
    "laurent.rho": ("qdemazure.laurent", "rho"),
    "laurent.rho_prime": ("qdemazure.laurent", "rho_prime"),
    "magic.magic": ("qdemazure.magic", "magic"),
    "words.xi_recursive": ("qdemazure.words", "_xi_recursive"),
    "rou.cyclotomic_poly": ("qdemazure.rou", "cyclotomic_poly"),
}

# Word lengths timed by the xi_oracle probe.
PROBE_LENGTHS = (8, 12, 18)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_sweep(workload: str) -> dict:
    from qdemazure import verify

    t0 = time.perf_counter()
    reports = [verify.run_suite(suite, verify.Bounds(**window)) for suite, window, _ in SWEEPS[workload]]
    dicts = [r.to_dict(timestamp=False) for r in reports]
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "latencies_ms": [wall * 1000.0],
        "reports": [{"suite": d["suite"], "passed": d["passed"], "checks": d["checks"],
                     "counterexamples": len(d["counterexamples"])} for d in dicts],
    }


def cross_check(argv: list[str], text: str) -> bool:
    """Check one CLI answer against an evaluator independent of the one that
    produced it: the formula against the recursion, the oracle against the
    formula, xi-rou against the specialized closed formula, and magic against
    its p -> 1 binomial."""
    from qdemazure.closed_formula import xi_formula
    from qdemazure.rou import xi_rou_specialized
    from qdemazure.words import xi_recursive

    kind, p = query_params(argv)
    value = json.loads(text)["value"]
    if kind == "xi":
        a, b, i, k = (int(p[o]) for o in ("--a", "--b", "--i", "--k"))
        reference = xi_formula if p.get("--method") == "oracle" else xi_recursive
        return value == reference(a, b, i, k).to_json()
    if kind == "xi-rou":
        m, a, i = (int(p[o]) for o in ("--m", "--a", "--i"))
        return value == xi_rou_specialized(m, a, i, "formula").to_json()
    if kind == "magic":
        nu, beta = int(p["--nu"]), int(p["--beta"])
        return sum(int(c) for c in value.values()) == math.comb(nu - 2, beta)
    return False


def run_round(seed: int, index: int) -> dict:
    """Send round `index` of the seed's query stream to cli.main, one query
    at a time, timing each."""
    from qdemazure import cli

    latencies: list[float] = []
    answers: list[str | None] = []
    failures: list[str] = []
    t_start = time.perf_counter()
    for argv in query_stream(seed, index):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                latencies.append((time.perf_counter() - t0) * 1000.0)
        except (Exception, SystemExit) as exc:
            failures.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
            answers.append(None)
            continue
        if rc != 0:
            failures.append(f"{' '.join(argv)}: exit code {rc}")
            answers.append(None)
        else:
            answers.append(buf.getvalue())
    return {
        "round": index,
        "wall_s": time.perf_counter() - t_start,
        "latencies_ms": latencies,
        "answers": answers,
        "failures": failures,
    }


def check_answers(pairs: list[tuple[list[str], str]]) -> list[str]:
    """Cross-check (argv, answer) pairs; returns one message per failure."""
    failures = []
    for argv, text in pairs:
        try:
            ok = cross_check(argv, text)
        except Exception as exc:  # a crash of the cross-check is a failed query too
            failures.append(f"{' '.join(argv)}: cross-check raised {type(exc).__name__}: {exc}")
            continue
        if not ok:
            failures.append(f"{' '.join(argv)}: answer disagrees with its cross-check")
    return failures


def cache_stats() -> dict:
    out = {}
    for name, (module, attr) in CACHES.items():
        info = getattr(getattr(importlib.import_module(module), attr, None), "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        out[name] = {"hits": hits, "misses": misses}
    return out


def probe_oracle() -> dict:
    """Median milliseconds per xi_oracle call at fixed word lengths."""
    from qdemazure.words import xi_oracle

    out = {}
    for ell in PROBE_LENGTHS:
        a = ell // 2
        times = []
        for i in (1, 2, 3):
            for k in (ell // 3, ell // 2, 2 * ell // 3):
                t0 = time.perf_counter()
                xi_oracle(a, ell - 1 - a, i, k)
                times.append((time.perf_counter() - t0) * 1000.0)
        out[f"l{ell}"] = statistics.median(times)
    return out


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    rounds = [run_round(seed, 0) | {"warmup": True}] if workload == POINT_QUERIES else []
    tracer = Tracer() if traced else None
    before = cache_stats()
    if tracer:
        tracer.install()
    try:
        if workload == POINT_QUERIES:
            for _ in range(1 if traced else timed_units(POINT_QUERIES, seconds)):
                rounds.append(run_round(seed, len(rounds)))
        else:
            rounds.append(run_sweep(workload))
    finally:
        if tracer:
            tracer.uninstall()
    result = {"rounds": rounds, "peak_rss_mb": _peak_rss_mb()}
    if tracer:
        result["trace"] = tracer.summary()
        result["caches"] = {name: {key: count - before[name][key] for key, count in info.items()}
                            for name, info in cache_stats().items()}
        result["probe_ms"] = probe_oracle()
    return result


def main(argv: list[str]) -> int:
    src = Path(argv[1], "src").resolve()
    sys.path.insert(0, str(src))
    import qdemazure

    if Path(qdemazure.__file__).resolve().parent != src / "qdemazure":
        print(f"qdemazure was imported from {qdemazure.__file__}, not from {src}", file=sys.stderr)
        return 2
    try:
        if argv[2] == "check":
            result = {"failures": check_answers(json.load(sys.stdin))}
        else:
            workload, seed, seconds, traced = argv[3], int(argv[4]), float(argv[5]), argv[6] == "1"
            result = run(workload, seed, seconds, traced)
    except Exception:
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
