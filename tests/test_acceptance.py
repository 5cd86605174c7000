"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every check is exact (integer coefficients compared for equality); there are
no tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s` to
see the per-criterion lines.
"""

from math import comb

from qdemazure.laurent import ONE, ZERO, z_pow
from qdemazure.verify import Bounds, run_suite
from qdemazure.words import base_case, xi_oracle


# The check count of each suite at the bounds its criterion below uses, so a
# sweep that passes while checking less than it did is caught.
CHECKS = {
    "relations": 4032, "magic-golden": 2, "calibration": 43, "formula-vs-oracle": 5088,
    "symmetries": 1119, "magic-genfun": 2655, "magic-symmetry": 588, "chu-vandermonde": 1081,
    "magic-recursion": 1190, "telescope": 940, "rou-xi": 660, "rou-lemmas": 1285,
    "q1-degeneration": 3783,
}


def _passes(name, bounds=None, jobs=1):
    report = run_suite(name, bounds or Bounds(), jobs=jobs)
    assert report.passed, report.render_text()
    assert report.checks == CHECKS[name], f"{name}: {report.checks} checks"
    return report


def test_criterion_1_operator_relations():
    report = _passes("relations")
    print(f"ACCEPTANCE 1 operator-relations: PASS ({report.checks} checks)")


def test_criterion_2_golden_values():
    report_g = _passes("magic-golden")
    report_c = _passes("calibration")
    assert base_case(1, 0) == -z_pow(-1)
    assert base_case(3, 1) == -z_pow(-1)
    assert base_case(1, 1) == base_case(2, 0) == ONE
    assert base_case(2, 1) == base_case(3, 0) == ZERO
    print(
        "ACCEPTANCE 2 golden-values: PASS "
        f"({report_g.checks} golden + {report_c.checks} calibration checks)"
    )


def test_criterion_3_triple_oracle_equivalence():
    report = _passes("formula-vs-oracle", Bounds(max_len=12))
    print(f"ACCEPTANCE 3 triple-oracle-equivalence: PASS ({report.checks} checks, len<=12)")


def test_criterion_4_symmetries():
    report = _passes("symmetries", Bounds(max_len=12))
    print(f"ACCEPTANCE 4 symmetry-suite: PASS ({report.checks} checks, len<=12)")


def test_criterion_5_generating_functions():
    report = _passes("magic-genfun", Bounds(max_nu=10))
    print(f"ACCEPTANCE 5 magic-genfun: PASS ({report.checks} checks, nu<=10)")


def test_criterion_6_magic_identities():
    total = 0
    for name, bounds in [
        ("magic-symmetry", Bounds(max_nu=8)),
        ("chu-vandermonde", Bounds(max_nu=8)),
        ("magic-recursion", Bounds(max_nu=8)),
        ("telescope", Bounds(max_nu=8)),
    ]:
        total += _passes(name, bounds).checks
    print(f"ACCEPTANCE 6 magic-identities: PASS ({total} checks, nu<=8)")


def test_criterion_7_root_of_unity_end_to_end():
    report = _passes("rou-xi", Bounds(max_m=6))
    print(f"ACCEPTANCE 7 rou-end-to-end: PASS ({report.checks} checks, m in 2..6)")


def test_criterion_8_root_of_unity_lemmas():
    report = _passes("rou-lemmas", Bounds(max_m=8))
    print(f"ACCEPTANCE 8 rou-lemma-suite: PASS ({report.checks} checks, m<=8)")


def test_criterion_9_degenerations():
    report = _passes("q1-degeneration", Bounds(max_nu=10, max_len=10))
    # spot values behind the sweep
    from qdemazure.magic import magic

    assert magic(8, 4, 3, 0).at_one() == comb(6, 3)
    assert xi_oracle(2, 1, 1, 2).at_one() == 0
    print(f"ACCEPTANCE 9 degenerations: PASS ({report.checks} checks)")
