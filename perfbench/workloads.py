"""Workload definitions of the qdemazure benchmark.

This module holds everything that must not depend on the code under test:
the sweep windows with the check counts they must produce, the seeded
point-query generator, the correctness gate for sweep reports and the
percentile helper.  It does not import qdemazure.
"""

from __future__ import annotations

import itertools
import random

# Sweep workloads: (suite, verify.Bounds keyword arguments, expected checks).
SWEEPS: dict[str, tuple[tuple[str, dict[str, int], int], ...]] = {
    # The acceptance window. Nearly all of its time is xi_oracle (polyring
    # demazure, then LaurentScalar add/construct), and every k of every word
    # is evaluated, so it shows work shared across k.
    "oracle-window": (("formula-vs-oracle", {"max_len": 12}, 5088),),
    # Never calls the oracle: dense LaurentScalar multiplication in
    # factors_standard and magic.term, with heavy magic cache reuse. It is the
    # bypass workload for oracle and polyring changes.
    "formula-deep": (
        ("recursions", {"max_len": 20}, 4155),
        ("magic-recursion", {"max_nu": 12}, 3410),
    ),
    # Long words (length 3m up to 18) with one k each, and the only sweep that
    # uses the rou layer (specialize, CycElem, cyclotomic_poly).
    "rou-staircase": (
        ("rou-xi", {"max_m": 6}, 660),
        ("rou-lemmas", {"max_m": 12}, 2674),
    ),
}

# One long-lived CLI session answering a seeded stream of single evaluations,
# in rounds: an untimed warm-up round, then timed rounds.
POINT_QUERIES = "point-queries"

WORKLOADS = (*SWEEPS, POINT_QUERIES)

# A seed never used while the benchmark was tuned; later claims are checked
# on it as well as on the seeds they were developed with.
HELD_OUT_SEED = 7919

# Query kinds: the range of their size (length l for xi, nu for magic, m for
# xi-rou) and how many equal parts the ranges of their other two parameters
# (a and k for xi, k and beta for magic, a and i for xi-rou) are cut into.
# A cell is one size with one part of each of the two ranges; a round asks
# one query in every cell of every kind, so the mix is 640 / 216 / 360 / 198
# queries (45% / 15% / 25% / 14%).
KINDS: dict[str, tuple[tuple[int, int], tuple[int, int]]] = {
    "xi": ((1, 40), (4, 4)),
    "xi-oracle": ((1, 12), (6, 3)),
    "magic": ((2, 16), (6, 4)),
    "xi-rou": ((2, 12), (6, 3)),
}


def _cells(kind: str) -> list[tuple[int, int, int]]:
    (lo, hi), (p_parts, q_parts) = KINDS[kind]
    return list(itertools.product(range(lo, hi + 1), range(p_parts), range(q_parts)))


# Queries of one round, about 5 s on a 2-CPU x86-64 machine once the
# warm-up round (about 7 s) has run, so that a 26 s session times three
# rounds and over 4200 queries (42 beyond the p99).  Every round holds each
# cell once: whatever the seed, it asks the same number of costly queries,
# while the order and the values within a cell stay scattered.  The warm-up
# round takes the first use of the package's caches out of the timed rounds;
# the magic cache, which the formula for long words also calls, keeps
# filling in the timed rounds, so their tail shrinks from one to the next.
ROUND_QUERIES = sum(len(_cells(kind)) for kind in KINDS)

# About how long one timed unit of each workload takes on a 2-CPU x86-64
# machine: a sweep, or a point-query round (7 s for the warm-up, 5 s after).
UNIT_SECONDS = {"oracle-window": 14.0, "formula-deep": 11.0, "rou-staircase": 4.8, POINT_QUERIES: 6.0}


def timed_units(workload: str, seconds: float) -> int:
    """How many sweeps, or point-query rounds after the warm-up round, a run
    measured for `seconds` times: as many as take about that long here (at
    least one).

    The count depends on `seconds` alone, not on how fast a run goes.  The
    slowest unit is the p99 of a sweep workload, and the first timed
    point-query rounds still fill the package's caches and have the heaviest
    tail, so a count that followed the machine's speed would carry that
    speed into the p99 a second time.
    """
    units = int(seconds // UNIT_SECONDS[workload]) - (workload == POINT_QUERIES)
    return max(1, units)


def _pick(part: int, parts: int, count: int, rng: random.Random) -> int:
    """A uniform value of 0..count-1 from the given one of `parts` equal
    parts of that range."""
    return min(count - 1, int((part + rng.random()) * count / parts))


def _query(kind: str, cell: tuple[int, int, int], rng: random.Random) -> list[str]:
    size, p, q = cell
    p_parts, q_parts = KINDS[kind][1]
    if kind in ("xi", "xi-oracle"):
        a = _pick(p, p_parts, size, rng)
        argv = ["xi", "--a", str(a), "--b", str(size - 1 - a),
                "--i", str(rng.randint(1, 3)), "--k", str(_pick(q, q_parts, size + 1, rng))]
        if kind == "xi-oracle":
            argv += ["--method", "oracle"]
    elif kind == "magic":
        argv = ["magic", "--nu", str(size), "--k", str(1 + _pick(p, p_parts, 2 * size + 1, rng)),
                "--beta", str(_pick(q, q_parts, size + 1, rng)), "--eps", str(rng.choice((-1, 0, 1)))]
    else:
        argv = ["xi-rou", "--m", str(size), "--a", str(_pick(p, p_parts, 3 * size, rng)),
                "--i", str(_pick(q, q_parts, 3, rng) + 1)]
    return argv + ["--format", "json"]


def query_stream(seed: int, index: int) -> list[list[str]]:
    """The argv lists of round `index` of a session, a function of (seed,
    index) only; round 0 is the warm-up."""
    rng = random.Random(seed * 1_000_003 + index)
    cells = [(kind, cell) for kind in KINDS for cell in _cells(kind)]
    rng.shuffle(cells)
    return [_query(kind, cell, rng) for kind, cell in cells]


def query_params(argv: list[str]) -> tuple[str, dict[str, str]]:
    """Split a generated argv list into its subcommand and option values."""
    return argv[0], dict(zip(argv[1::2], argv[2::2]))


def sweep_failures(workload: str, reports: list[dict]) -> int:
    """Failed operations of one sweep, judged from its report dicts.

    Each counterexample is one failure; so is a suite that is missing, that
    did not pass, or whose check count differs from its window's expected
    count (a report with 0 checks included).
    """
    by_suite = {r.get("suite"): r for r in reports}
    failed = 0
    for suite, _, expected in SWEEPS[workload]:
        report = by_suite.get(suite)
        if report is None:
            failed += expected
            continue
        counterexamples = report.get("counterexamples", 0)
        failed += counterexamples
        if report.get("checks") != expected or (not report.get("passed") and not counterexamples):
            failed += 1
    return failed


def expected_checks(workload: str) -> int:
    return sum(expected for _, _, expected in SWEEPS[workload])


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest sample that at least pct percent
    of the samples do not exceed."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]
