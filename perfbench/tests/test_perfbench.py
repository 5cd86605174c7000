"""Tests of the benchmark's own logic: the correctness gate, the percentile
helper, the seeded query stream, the cross-checks and the tracer.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    KINDS,
    ROUND_QUERIES,
    SWEEPS,
    percentile,
    query_params,
    query_stream,
    timed_units,
    sweep_failures,
)


def _reports(workload: str, **override) -> list[dict]:
    out = []
    for suite, _, expected in SWEEPS[workload]:
        out.append({"suite": suite, "passed": True, "checks": expected, "counterexamples": 0})
    out[0].update(override)
    return out


@pytest.mark.parametrize("workload", sorted(SWEEPS))
def test_gate_accepts_complete_passing_reports(workload):
    assert sweep_failures(workload, _reports(workload)) == 0


@pytest.mark.parametrize("workload", sorted(SWEEPS))
def test_gate_counts_every_counterexample(workload):
    assert sweep_failures(workload, _reports(workload, passed=False, counterexamples=3)) == 3


@pytest.mark.parametrize("checks", [0, 1, 5087, 5089])
def test_gate_rejects_wrong_check_count(checks):
    assert sweep_failures("oracle-window", _reports("oracle-window", checks=checks)) == 1


def test_gate_rejects_missing_suite_and_silent_failure():
    assert sweep_failures("formula-deep", _reports("formula-deep")[1:]) == 4155
    assert sweep_failures("rou-staircase", _reports("rou-staircase", passed=False)) == 1


def test_percentile_picks_nearest_rank():
    values = [float(v) for v in range(1000, 0, -1)]
    assert percentile(values, 99) == 990.0
    assert sum(v > percentile(values, 99) for v in values) == 10
    assert percentile(values, 50) == 500.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_same_seed_gives_same_stream():
    assert query_stream(5, 0) == query_stream(5, 0)
    assert query_stream(5, 0) != query_stream(6, 0)
    assert query_stream(5, 0) != query_stream(5, 1)


def test_timed_units_depend_on_seconds_only():
    assert [timed_units("point-queries", s) for s in (1, 12, 26, 60)] == [1, 1, 3, 9]
    assert [timed_units(w, 26) for w in SWEEPS] == [1, 2, 5]
    assert timed_units("oracle-window", 1) == 1


def test_stream_asks_every_cell_once():
    stream = query_stream(11, 0)
    assert len(stream) == ROUND_QUERIES
    kinds = Counter(argv[0] + ("-oracle" if "--method" in argv else "") for argv in stream)
    assert kinds == {"xi": 640, "xi-oracle": 216, "magic": 360, "xi-rou": 198}
    sizes = Counter()
    for argv in stream:
        kind, p = query_params(argv)
        assert p["--format"] == "json"
        if kind == "xi":
            kind = "xi-oracle" if "--method" in p else "xi"
            size = int(p["--a"]) + int(p["--b"]) + 1
            assert 0 <= int(p["--a"]) < size and 0 <= int(p["--k"]) <= size
        elif kind == "magic":
            size = int(p["--nu"])
            assert 1 <= int(p["--k"]) <= 2 * size + 1 and 0 <= int(p["--beta"]) <= size
        else:
            size = int(p["--m"])
            assert 0 <= int(p["--a"]) < 3 * size and 1 <= int(p["--i"]) <= 3
        sizes[kind, size] += 1
    for kind, ((lo, hi), (p_parts, q_parts)) in KINDS.items():
        assert {size: sizes[kind, size] for size in range(lo, hi + 1)} == {
            size: p_parts * q_parts for size in range(lo, hi + 1)}


def _answer(argv: list[str]) -> str:
    from qdemazure import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("argv", [
    ["xi", "--a", "3", "--b", "4", "--i", "2", "--k", "5", "--format", "json"],
    ["xi", "--a", "2", "--b", "3", "--i", "1", "--k", "4", "--method", "oracle", "--format", "json"],
    ["magic", "--nu", "6", "--k", "4", "--beta", "2", "--eps", "-1", "--format", "json"],
    ["xi-rou", "--m", "3", "--a", "4", "--i", "3", "--format", "json"],
])
def test_cross_check_accepts_right_and_rejects_wrong_answers(argv):
    text = _answer(argv)
    assert worker.cross_check(argv, text)
    out = json.loads(text)
    value = out["value"]
    if argv[0] == "xi-rou":
        value["residue"] = [value["residue"][0] + 1] + value["residue"][1:]
    else:
        key = next(iter(value))
        value[key] = str(int(value[key]) + 1)
    assert not worker.cross_check(argv, json.dumps(out))
    assert worker.check_answers([[argv, json.dumps(out)], [argv, text]]) != []


def test_tracer_counts_spans_and_restores_bindings():
    from qdemazure import closed_formula, laurent, verify

    original = (verify.xi_oracle, closed_formula.magic, laurent.LaurentScalar.__add__)
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.xi_oracle is not original[0]
        verify.xi_oracle(2, 3, 1, 2)
        closed_formula.xi_formula(2, 3, 1, 2)
    finally:
        tracer.uninstall()
    assert (verify.xi_oracle, closed_formula.magic, laurent.LaurentScalar.__add__) == original
    summary = tracer.summary()
    spans = summary["spans"]
    assert spans["words.xi_oracle"]["calls"] == 1
    assert spans["polyring.demazure"]["calls"] == 6
    assert spans["closed_formula.xi_formula"]["calls"] == 1
    assert spans["laurent.add"]["calls"] > 0
    assert summary["counters"]["laurent.mul.term_products"] > 0
    for stats in spans.values():
        assert stats["self_s"] <= stats["total_s"] + 1e-9
    assert ["words.xi_oracle", "polyring.demazure", 6] == [
        e[:3] for e in summary["edges"] if e[:2] == ["words.xi_oracle", "polyring.demazure"]][0]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.CACHES) == list(worker.CACHES)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_score_counts_crashes_and_failed_queries():
    assert run.score("oracle-window", [{"error": "boom"}]) == (5088, 5088, ["boom"])
    ok = {"reports": _reports("formula-deep")}
    assert run.score("formula-deep", [ok, ok]) == (2 * 7565, 0, [])
    queries = {"failures": ["xi --a 1: exit code 2"]}
    assert run.score("point-queries", [queries]) == (ROUND_QUERIES, 1, queries["failures"])
