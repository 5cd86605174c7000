import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import qdemazure
from qdemazure.cli import main
from qdemazure.laurent import ExactDivisionError, q_pow, z_pow
from qdemazure.report import Counterexample, VerifyReport
from qdemazure.verify import Bounds, SUITES, run_suite

SMALL_BOUNDS_CHECKS = {
    "relations": 4032, "symmetries": 380, "recursions": 123, "formula-vs-oracle": 1008,
    "magic-golden": 5, "magic-genfun": 366, "magic-symmetry": 156, "chu-vandermonde": 901,
    "magic-recursion": 218, "telescope": 148, "rou-lemmas": 219, "rou-xi": 171,
    "q1-degeneration": 540, "calibration": 43,
}


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's qdemazure."""
    src = str(Path(qdemazure.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)


def test_all_suites_pass_at_small_bounds():
    bounds = Bounds(max_len=6, max_nu=4, max_m=3)
    checks = {}
    for name in SUITES:
        report = run_suite(name, bounds)
        assert report.passed, f"{name}: {report.render_text()}"
        checks[name] = report.checks
    assert checks == SMALL_BOUNDS_CHECKS


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_reports_are_deterministic():
    a = run_suite("symmetries", Bounds(max_len=5)).to_json(timestamp=False)
    b = run_suite("symmetries", Bounds(max_len=5)).to_json(timestamp=False)
    assert a == b


def test_parallel_matches_serial():
    def body(report):
        out = report.to_dict(timestamp=False)
        out["params"] = {k: v for k, v in out["params"].items() if k != "jobs"}
        return out

    serial = run_suite("formula-vs-oracle", Bounds(max_len=6), jobs=1)
    parallel = run_suite("formula-vs-oracle", Bounds(max_len=6), jobs=2)
    assert serial.passed and parallel.passed
    assert body(serial) == body(parallel)
    assert parallel.params["jobs"] == 2


def test_pool_is_capped_by_cpus_and_units(monkeypatch):
    import qdemazure.verify as vmod

    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units, chunksize=1):
            return map(fn, units)

    monkeypatch.setattr(vmod, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(vmod.os, "cpu_count", lambda: 4)
    report = run_suite("rou-xi", Bounds(max_m=2), jobs=1000)  # 6 units
    assert report.passed and report.params["jobs"] == 1000
    monkeypatch.setattr(vmod.os, "cpu_count", lambda: 64)
    run_suite("rou-xi", Bounds(max_m=2), jobs=1000)
    assert seen == [4, 6]


def test_reformed_failure_is_reported_under_optimize():
    code = textwrap.dedent("""
        import json
        import qdemazure.magic as magic
        from qdemazure.verify import Bounds, run_suite

        loop = magic._reformed_partial_sums

        def broken(B, shift, summand, closed_form):
            if shift == 1:
                return loop(B, shift, summand, lambda a: 2 * closed_form(a))
            return loop(B, shift, summand, closed_form)

        magic._reformed_partial_sums = broken
        report = run_suite("telescope", Bounds(max_nu=3))
        print(json.dumps({"debug": __debug__, "checks": report.checks,
                          "failed": [list(c.inputs) for c in report.counterexamples]}))
    """)
    proc = _python("-O", "-c", code, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["debug"] is False
    assert out["failed"] == [["reformed", 0], ["reformed", 1], ["reformed", 2]]
    assert out["checks"] == run_suite("telescope", Bounds(max_nu=3)).checks


def test_truncation_check_can_fail(monkeypatch):
    import qdemazure.words as words

    real = words._x123_free_monomials

    def drops_too_much(deg):
        # also drops the x3 terms, which can still reach a nonzero scalar
        return [e for e in real(deg) if e[2] == 0]

    monkeypatch.setattr(words, "_x123_free_monomials", drops_too_much)
    words._dual_row.cache_clear()
    try:
        report = run_suite("formula-vs-oracle", Bounds(max_len=4), jobs=1)
    finally:
        words._dual_row.cache_clear()
    assert any(c.inputs[0] == "truncation" for c in report.counterexamples)


def test_recursion_step_mutation_is_caught(monkeypatch):
    import qdemazure.words as words

    real = words.recursion_step

    def off_by_z(xi, a, b, i, k):
        # the i = 2 length-reducing step, times a stray z
        value = real(xi, a, b, i, k)
        if i == 2 and a > 0 and 0 < k < a + b:
            return z_pow(1) * value
        return value

    for name, module in list(sys.modules.items()):
        if name.startswith("qdemazure.") and getattr(module, "recursion_step", None) is real:
            monkeypatch.setattr(module, "recursion_step", off_by_z)
    words._xi_recursive.cache_clear()
    try:
        labels = {}
        for suite in ("recursions", "formula-vs-oracle"):
            report = run_suite(suite, Bounds(max_len=6), jobs=1)
            labels[suite] = {c.inputs[0] for c in report.counterexamples}
    finally:
        words._xi_recursive.cache_clear()
    assert {"i2-step", "i2-step-b0"} <= labels["recursions"]
    # the closed formula and the oracle do not run the recursion step
    assert labels["formula-vs-oracle"] == {"recursion-vs-oracle"}


def test_recursions_read_both_layers_from_the_formula(monkeypatch):
    import qdemazure.closed_formula as cf

    real = cf.xi_formula
    wrong = (2, 3, 2, 2)  # standard regime, length 6

    def off_at_one_quadruple(a, b, i, k):
        value = real(a, b, i, k)
        return value + 1 if (a, b, i, k) == wrong else value

    monkeypatch.setattr(cf, "xi_formula", off_at_one_quadruple)
    report = run_suite("recursions", Bounds(max_len=7), jobs=1)
    # its own check at length 6, and the length-7 i = 1 sums over c = 2
    assert {c.inputs for c in report.counterexamples} == {
        ("i2-step", 2, 3, 2), ("i1-sum", 2, 4, 5), ("i1-sum", 2, 4, 6), ("i1-sum", 2, 4, 7),
    }


def _mutate_factors(monkeypatch, mutate):
    """Patch factors_standard at every module binding so it returns
    mutate(a, b, i, factors) in place of the real factors."""
    import qdemazure.closed_formula as cf

    real = cf.factors_standard

    def mutated(a, b, i, k):
        return mutate(a, b, i, real(a, b, i, k))

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("qdemazure.") and getattr(module, "factors_standard", None) is real:
            monkeypatch.setattr(module, "factors_standard", mutated)
            patched.add(name)
    assert patched == {"qdemazure.closed_formula", "qdemazure.rou"}


def _counterexample_labels(runs):
    """suite -> the first label of each counterexample, running each
    (suite, bounds) serially with a cold recursion cache."""
    import qdemazure.words as words

    words._xi_recursive.cache_clear()
    try:
        return {suite: {c.inputs[0] for c in run_suite(suite, bounds, jobs=1).counterexamples}
                for suite, bounds in runs}
    finally:
        words._xi_recursive.cache_clear()


def test_lambda4_mutation_is_caught(monkeypatch):
    _mutate_factors(monkeypatch, lambda a, b, i, fac: dataclasses.replace(
        fac, lambda4=fac.lambda4 * z_pow(1)))
    labels = _counterexample_labels([
        ("formula-vs-oracle", Bounds(max_len=3)),
        ("recursions", Bounds(max_len=3)),
        ("rou-xi", Bounds(max_m=2)),
    ])
    # the oracle and the recursion do not use the closed-formula factors
    assert labels["formula-vs-oracle"] == {"formula-vs-oracle"}
    assert "i2-step" in labels["recursions"]
    assert labels["rou-xi"] == {"oracle-vs-formula"}


def test_gamma2_mutation_is_caught(monkeypatch):
    def mutate(a, b, i, fac):
        if a % 2 == 0 and b % 2 == 0 and i == 3:
            return dataclasses.replace(fac, gamma2=fac.gamma2 * q_pow(1))
        return fac

    _mutate_factors(monkeypatch, mutate)
    labels = _counterexample_labels([
        ("formula-vs-oracle", Bounds(max_len=5)),
        ("symmetries", Bounds(max_len=5)),
        ("recursions", Bounds(max_len=6)),
        ("rou-lemmas", Bounds(max_m=3)),
        ("rou-xi", Bounds(max_m=3)),
    ])
    assert labels["formula-vs-oracle"] == {"formula-vs-oracle"}
    assert "k-reflect-23" in labels["symmetries"]
    assert "i2-step" in labels["recursions"]
    assert "gamma-block" in labels["rou-lemmas"]
    assert labels["rou-xi"] == {"oracle-vs-formula"}


def test_base_case_mutation_is_caught(monkeypatch):
    import qdemazure.words as words

    monkeypatch.setitem(words._BASE_CASES, (1, 0), -z_pow(1))
    labels = _counterexample_labels([
        ("calibration", Bounds()),
        ("formula-vs-oracle", Bounds(max_len=1)),
        ("symmetries", Bounds(max_len=1)),
    ])
    assert labels["calibration"] == {"formula-base"}
    # the closed formula and the recursion share the table; the oracle does not
    assert labels["formula-vs-oracle"] == {"formula-vs-oracle", "recursion-vs-oracle"}
    assert labels["symmetries"]


def _package_tree(module: str) -> ast.Module:
    path = Path(qdemazure.__file__).parent / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(module: str) -> dict[str, set[str]]:
    """Sibling module -> the names that `module` imports from it ("*" for the
    whole module)."""
    out: dict[str, set[str]] = {}
    for node in ast.walk(_package_tree(module)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qdemazure")):
            source = (node.module or "").removeprefix("qdemazure").lstrip(".")
            for alias in node.names:
                if source:
                    out.setdefault(source, set()).add(alias.name)
                else:  # from . import words
                    out.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qdemazure."):
                    out.setdefault(alias.name.removeprefix("qdemazure."), set()).add("*")
    return out


def test_evaluators_are_independent():
    assert _imports("closed_formula")["words"] == {"base_case"}
    assert not _imports("words").keys() & {"closed_formula", "magic", "rou"}
    for fn in ("xi_oracle", "xi_forward", "_dual_row", "_x123_free_monomials"):
        tree = next(node for node in ast.walk(_package_tree("words"))
                    if isinstance(node, ast.FunctionDef) and node.name == fn)
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not named & {"recursion_step", "_xi_recursive"}, fn


def test_only_laurent_knows_the_packed_format():
    """No other module reaches for a private name of laurent, such as the
    packed q-binomials and their slot width."""
    for path in sorted(Path(qdemazure.__file__).parent.glob("*.py")):
        if path.stem == "laurent":
            continue
        private = {name for name in _imports(path.stem).get("laurent", ()) if name.startswith("_")}
        private |= {node.attr for node in ast.walk(_package_tree(path.stem))
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "laurent" and node.attr.startswith("_")}
        assert not private, f"{path.name} uses {sorted(private)} of laurent"


def test_package_exports_only_the_documented_api():
    readme = Path(qdemazure.__file__).resolve().parents[2] / "README.md"
    if not readme.exists():
        pytest.skip("README.md is not next to this checkout's src/")
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    table = section.split("| name | what it is |", 1)[1].split("\n\n", 1)[0]
    documented = {name for line in table.splitlines()[2:]
                  for name in re.findall(r"`(\w+)`", line.split("|")[1])}
    exported = {name for name, value in vars(qdemazure).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == documented


def test_submodules_are_not_shadowed():
    """`import qdemazure.magic as m` binds the module, as it does for every submodule."""
    import qdemazure.magic as m

    assert isinstance(m, types.ModuleType) and m is sys.modules["qdemazure.magic"]
    for name in ("laurent", "polyring", "words", "magic", "closed_formula", "rou", "verify", "report", "cli"):
        assert getattr(qdemazure, name) is importlib.import_module(f"qdemazure.{name}"), name


def test_no_assert_in_package():
    """Checks must survive `python -O`, which strips assert statements."""
    for path in sorted(Path(qdemazure.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_report_structure():
    report = VerifyReport(suite="demo", params={"n": 1}, checks=2,
                          counterexamples=[Counterexample((1, 2), "a", "b")])
    assert not report.passed
    data = report.to_dict()
    assert data["schema"] == 1
    assert data["counterexamples"] == [{"inputs": [1, 2], "lhs": "a", "rhs": "b"}]
    assert "timestamp" in data
    assert "timestamp" not in report.to_dict(timestamp=False)
    assert "FAIL" in report.render_text()


def test_cli_xi(capsys):
    assert main(["xi", "--a", "0", "--b", "0", "--i", "2", "--k", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["xi", "--a", "2", "--b", "3", "--i", "2", "--k", "6"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_xi_methods_agree(capsys):
    outs = []
    for method in ("formula", "oracle", "recursion"):
        assert main(["xi", "--a", "3", "--b", "5", "--i", "2", "--k", "4",
                     "--method", method]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_cli_xi_json(capsys):
    assert main(["xi", "--a", "1", "--b", "1", "--i", "1", "--k", "2",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == 1
    assert data["value"] == {"0": "1"}


def test_cli_word(capsys):
    assert main(["word", "--a", "3", "--b", "5", "--i", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 2 3 1 3 2 1 3 2"


def test_cli_magic_golden(capsys):
    assert main(["magic", "--nu", "8", "--k", "4", "--beta", "3", "--eps", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("1 + p^36") and out.endswith("p^144")


def test_cli_xi_rou(capsys):
    assert main(["xi-rou", "--m", "3", "--a", "1", "--i", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["xi-rou", "--m", "2", "--a", "2", "--i", "1", "--method", "specialize"]) == 0
    assert capsys.readouterr().out.strip() == "-4*p^2"


def test_cli_usage_errors(capsys):
    for method in ("formula", "oracle", "recursion"):
        with pytest.raises(SystemExit) as exc:
            main(["xi", "--a", "1", "--b", "1", "--i", "1", "--k", "9", "--method", method])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "qdemazure: error: k=9 out of range 0..3\n"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["xi", "--a", "1", "--b", "1", "--i", "7", "--k", "1"])
    assert exc.value.code == 2
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "calibration", "--jobs", jobs])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "rou-xi", "--max-m", "1"],
    ["verify", "formula-vs-oracle", "--max-len", "0"],
])
def test_cli_vacuous_sweep_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert argv[1] in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("error", [
    RuntimeError("boom"),
    ExactDivisionError("(p) is not divisible by (2)"),
    ValueError("k=5 is outside both generating-function windows"),
])
def test_cli_internal_error_exit_code(monkeypatch, capsys, error):
    import qdemazure.cli as climod

    def raising(bounds, jobs=1):
        raise error

    monkeypatch.setitem(climod.SUITES, "relations", raising)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "relations"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"internal error: {type(error).__name__}: " in err


def test_cli_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python("-m", "qdemazure.cli", "word", "--a", "3", "--b", "5", "--i", "2",
                       stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_package_runs_as_module():
    proc = _python("-m", "qdemazure", "verify", "calibration", capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "calibration" in proc.stdout


def test_sweeps_never_import_numpy():
    """The ring stays pure Python: numpy alone would double a sweep's peak memory."""
    script = textwrap.dedent("""
        import sys
        from qdemazure.cli import main
        codes = [main(["verify", "magic-recursion", "--max-nu", "6"]),
                 main(["verify", "recursions", "--max-len", "8"])]
        print(codes, "numpy" in sys.modules, file=sys.stderr)
    """)
    proc = _python("-c", script, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[0, 0] False"


def test_cli_verify_pass_and_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "calibration", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "calibration" and payload["passed"]
    saved = json.loads(out.read_text())
    assert saved[0]["suite"] == "calibration"


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    import qdemazure.cli as climod

    def broken(bounds, jobs=1):
        return VerifyReport(suite="relations", params={}, checks=1,
                            counterexamples=[Counterexample((0,), "x", "y")])

    monkeypatch.setitem(climod.SUITES, "relations", broken)
    assert main(["verify", "relations"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_small_sweep(capsys):
    code = main(["verify", "formula-vs-oracle", "--max-len", "5", "--jobs", "2"])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS formula-vs-oracle")
