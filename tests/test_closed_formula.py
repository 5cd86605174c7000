import dataclasses

import pytest

from qdemazure.closed_formula import (
    _PRODUCT_ORDER,
    GAMMA_ROWS,
    XiFactors,
    factors_standard,
    xi_bzero,
    xi_formula,
    xi_klen,
    xi_standard,
)
from qdemazure.laurent import ONE, ZERO, q_pow, qnum, rho_prime, z_pow
from qdemazure.magic import magic
from qdemazure.verify import Bounds, run_suite
from qdemazure.words import xi_oracle


def all_quadruples(max_len):
    for ell in range(1, max_len + 1):
        for a in range(ell):
            b = ell - 1 - a
            for i in (1, 2, 3):
                for k in range(ell + 1):
                    yield a, b, i, k


def standard_params(a, b):
    """(beta, nu, ell) of the standard regime at (a, b)."""
    beta = (b - 1) // 2
    return beta, (a - 1) // 2 + beta + 2, a + b + 1


def test_standard_params():
    # (a, b) = (3, 4): alpha = beta = 1, nu = 4, ell = 8, phi = 1
    fac = factors_standard(3, 4, 1, 2)
    assert fac.gamma1 == rho_prime(1) * rho_prime(1)
    assert fac.gamma3 == magic(4, 2, 1, 0)
    assert fac.lambda4 == ONE
    factors_standard(3, 4, 1, 7)
    with pytest.raises(ValueError):
        factors_standard(3, 4, 1, 8)
    with pytest.raises(ValueError):
        factors_standard(0, 4, 1, 2)


def test_klen_params_allows_b_zero():
    # (5, 0): alpha = 2, beta = -1, ell = 6; (4, 2): alpha = 2, beta = 0, ell = 7
    assert xi_klen(5, 0, 1) == -z_pow(-15) * rho_prime(2) == xi_oracle(5, 0, 1, 6)
    assert xi_klen(4, 2, 1) == -z_pow(-14) * rho_prime(3) == xi_oracle(4, 2, 1, 7)
    with pytest.raises(ValueError):
        xi_klen(0, 2, 1)


def test_factor_table_entries():
    fac = factors_standard(1, 1, 1, 2)  # both odd
    assert fac.gamma2 == ONE
    assert fac.gamma3 == magic(2, 2, 0, -1)
    fac = factors_standard(2, 1, 2, 2)  # a even, b odd
    assert fac.gamma3 == magic(3, 2, 0, 0)
    assert fac.kappa2 == q_pow(4)
    fac = factors_standard(2, 1, 1, 2)
    assert fac.kappa2 == ONE
    assert fac.lambda5 == ONE


def test_full_product_small_case():
    assert factors_standard(1, 1, 1, 2).product() == ONE
    assert xi_standard(1, 1, 1, 2) == xi_oracle(1, 1, 1, 2) == ONE


def test_product_folds_single_terms_first_and_every_factor_once():
    names = [f.name for f in dataclasses.fields(XiFactors)]
    assert sorted(_PRODUCT_ORDER) == sorted(names)
    for a, b, i, k in all_quadruples(7):
        if a == 0 or b == 0 or not 0 < k < a + b + 1:
            continue
        fac = factors_standard(a, b, i, k)
        assert all(len(getattr(fac, n).coefficients()) == 1 for n in _PRODUCT_ORDER[:8])
        want = ONE
        for n in names:
            want = want * getattr(fac, n)
        assert fac.product() == want


def test_factors_reject_out_of_regime():
    with pytest.raises(ValueError):
        factors_standard(1, 1, 1, 0)
    with pytest.raises(ValueError):
        factors_standard(1, 1, 1, 3)
    with pytest.raises(ValueError):
        factors_standard(1, 1, 4, 2)


def test_xi_standard_zero_structure():
    # b even, i = 2: the k = l-1 column vanishes
    assert xi_standard(1, 2, 2, 3) == ZERO
    assert xi_standard(3, 2, 2, 5) == ZERO
    # even length, i = 1, midpoint
    assert xi_standard(2, 3, 1, 3) == ZERO


def test_xi_klen_examples():
    assert xi_klen(3, 2, 2) == ZERO
    assert xi_klen(2, 3, 1) == ZERO  # b odd
    assert xi_klen(1, 0, 1) == -z_pow(-1)
    assert xi_klen(1, 0, 1) == xi_oracle(1, 0, 1, 2)
    with pytest.raises(ValueError):
        xi_klen(0, 3, 1)


def test_xi_bzero_examples():
    assert xi_bzero(3, 1, 2) == ZERO  # i = 1 with a odd
    assert xi_bzero(1, 2, 1) == ONE
    assert xi_bzero(1, 2, 1) == xi_oracle(1, 0, 2, 1)
    assert xi_bzero(2, 3, 1) == xi_oracle(2, 0, 3, 1)
    with pytest.raises(ValueError):
        xi_bzero(2, 1, 0)
    with pytest.raises(ValueError):
        xi_bzero(0, 1, 1)


def test_xi_formula_base_cases():
    assert xi_formula(0, 0, 2, 1) == ZERO
    assert xi_formula(0, 0, 2, 0) == ONE
    assert xi_formula(0, 0, 1, 0) == -z_pow(-1)


def test_xi_formula_a_zero_goes_through_bar():
    # Xi(0, c, i, k) = (-z)^{-l} * bar(Xi(c, 0, -i-1, l-k))
    c, i, k = 3, 1, 2
    ell = c + 1
    inner = xi_bzero(c, (-i - 1 - 1) % 3 + 1, ell - k)
    sgn = 1 if ell % 2 == 0 else -1
    assert xi_formula(0, c, i, k) == sgn * z_pow(-ell) * inner.bar()
    assert xi_formula(0, c, i, k) == xi_oracle(0, c, i, k)


def test_xi_formula_dispatch_edges():
    # a > 0, b = 0, k = l routes through the k = l edge formula
    assert xi_formula(2, 0, 1, 3) == xi_klen(2, 0, 1)
    # k = 0 routes through the index rotation
    assert xi_formula(2, 2, 2, 0) == xi_formula(2, 2, 1, 5)
    with pytest.raises(ValueError):
        xi_formula(1, 1, 1, -1)
    with pytest.raises(ValueError):
        xi_formula(-1, 1, 1, 0)


def test_xi_formula_matches_oracle():
    for a, b, i, k in all_quadruples(7):
        assert xi_formula(a, b, i, k) == xi_oracle(a, b, i, k), (a, b, i, k)


def test_xi_formula_longer_spot_checks():
    for quad in [(3, 5, 2, 4), (5, 3, 1, 6), (4, 4, 3, 2), (0, 8, 2, 5), (8, 0, 3, 4)]:
        assert xi_formula(*quad) == xi_oracle(*quad), quad


def test_gamma3_reflection():
    # gamma3(a,b,1,k) = q^{beta(2k-l)} gamma3(a,b,1,l-k) outside the middle gap
    for a, b in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 4), (4, 3)]:
        beta, nu, ell = standard_params(a, b)
        eps = ell - 2 * nu
        for k in range(1, ell):
            if nu <= k <= nu + eps or nu <= ell - k <= nu + eps:
                continue
            lhs = factors_standard(a, b, 1, k).gamma3
            rhs = q_pow(beta * (2 * k - ell)) * factors_standard(a, b, 1, ell - k).gamma3
            assert lhs == rhs, (a, b, k)


def test_gamma3_reflection_i23_b_even():
    for a, b in [(1, 2), (2, 2), (3, 2), (2, 4)]:
        beta, nu, ell = standard_params(a, b)
        eps = ell - 2 * nu  # in {0, 1} since b is even
        for k in range(1, ell - 1):
            if nu <= k <= nu + eps - 1:
                continue
            lhs = factors_standard(a, b, 2, k).gamma3
            rhs = q_pow(beta * (2 * k - ell)) * factors_standard(a, b, 3, ell - k).gamma3
            assert lhs == rhs, (a, b, k)


def test_q1_degeneration_small():
    for a, b, i, k in all_quadruples(6):
        if a + b + 1 >= 4:
            assert xi_formula(a, b, i, k).at_one() == 0, (a, b, i, k)


def _reference_gammas(a, b, i, k):
    """gamma2 and gamma3 as the eight hand-written branches picked them before
    the GAMMA_ROWS table."""
    alpha, beta = (a - 1) // 2, (b - 1) // 2
    nu = alpha + beta + 2
    ell = a + b + 1
    a_odd, b_odd = a % 2 == 1, b % 2 == 1
    qm = q_pow(1) - q_pow(-1)

    if a_odd and b_odd:
        gamma2 = ONE
        gamma3 = magic(nu, k, beta, -1)
    elif b_odd:
        gamma2 = q_pow(-nu) * qm * qnum(k - nu)
        gamma3 = magic(nu, k, beta, 0)
    elif a_odd:
        if i == 1:
            gamma2 = q_pow(-nu) * qm * qnum(nu - k)
            gamma3 = magic(nu, k, beta, 0)
        elif i == 2:
            gamma2 = q_pow(-(ell - 1)) * qm * qnum(ell - 1 - k)
            gamma3 = magic(nu, k, beta, -1)
        else:
            gamma2 = q_pow(-(ell - 1)) * qm * qnum(1 - k)
            gamma3 = q_pow(beta) * magic(nu, k - 1, beta, -1)
    else:
        if i == 1:
            gamma2 = q_pow(-ell) * qm * qm * qnum(k - nu) * qnum(nu + 1 - k)
            gamma3 = magic(nu, k, beta, 1)
        elif i == 2:
            gamma2 = q_pow(-(ell + nu - 1)) * qm * qm * qnum(k - nu) * qnum(ell - 1 - k)
            gamma3 = magic(nu, k, beta, 0)
        else:
            gamma2 = q_pow(-(ell + nu - 1)) * qm * qm * qnum(k - 1) * qnum(nu + 1 - k)
            gamma3 = q_pow(beta) * magic(nu, k - 1, beta, 0)
    return gamma2, gamma3


def standard_quadruples(max_len):
    for a, b, i, k in all_quadruples(max_len):
        if a > 0 and b > 0 and 0 < k < a + b + 1:
            yield a, b, i, k


def test_gamma_rows_match_the_hand_written_branches():
    assert set(GAMMA_ROWS) == {(a_odd, b_odd, i) for a_odd in (True, False) for b_odd in (True, False)
                               for i in (1, 2, 3)}
    for a, b, i, k in standard_quadruples(14):
        fac = factors_standard(a, b, i, k)
        assert (fac.gamma2, fac.gamma3) == _reference_gammas(a, b, i, k), (a, b, i, k)


# The distinct rows: each b-odd row is shared by its three keys.
ROW_KEYS = {
    "odd-odd": [(True, True, i) for i in (1, 2, 3)],
    "even-odd": [(False, True, i) for i in (1, 2, 3)],
    **{f"{'odd' if a_odd else 'even'}-even-i{i}": [(a_odd, False, i)]
       for a_odd in (True, False) for i in (1, 2, 3)},
}


@pytest.mark.parametrize("row", list(ROW_KEYS))
def test_a_wrong_gamma_row_fails_the_oracle_in_its_own_quadruples_only(monkeypatch, row):
    def off_by_one(right):
        def wrong(nu, k, ell):
            s, args, eps, o = right(nu, k, ell)
            if not args:
                return s + 1, args, eps, o
            return s, (args[0] + 1, *args[1:]), eps, o
        return wrong

    keys = ROW_KEYS[row]
    for key in keys:
        monkeypatch.setitem(GAMMA_ROWS, key, off_by_one(GAMMA_ROWS[key]))
    report = run_suite("formula-vs-oracle", Bounds(max_len=8))
    assert report.counterexamples
    for cx in report.counterexamples:
        kind, a, b, i, k = cx.inputs
        assert kind == "formula-vs-oracle" and a > 0 and b > 0 and 0 < k < a + b + 1, cx.inputs
        assert (a % 2 == 1, b % 2 == 1, i) in keys, cx.inputs
