from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdemazure import laurent
from qdemazure.laurent import ONE, ZERO, _binomial, _slot_bytes, lsum, q_pow, qbinom, qnum
from qdemazure.magic import (
    GenSeries,
    chu_vandermonde_special,
    gen_interval_X,
    gen_interval_Xprime,
    magic,
    magic_genfun,
    magic_genfun_for3,
    magic_recursion_sides,
    magic_symmetry_check,
    parity_interval,
    reformed_telescope_even_partial_sums,
    reformed_telescope_partial_sums,
    telescope_sides,
    term,
    xprime_difference,
)


def from_q_terms(pairs):
    out = ZERO
    for coeff, exp in pairs:
        out = out + coeff * q_pow(exp)
    return out


GOLDEN_843 = from_q_terms(
    [(1, -48), (1, -36), (2, -34), (3, -32), (2, -30), (1, -28),
     (1, -20), (2, -18), (3, -16), (2, -14), (1, -12), (1, 0)]
)
GOLDEN_833 = from_q_terms(
    [(1, -57), (1, -55), (1, -53), (1, -51), (1, -41), (2, -39), (3, -37),
     (3, -35), (2, -33), (1, -31), (1, -21), (1, -19), (1, -17), (1, -15)]
)


def test_term_examples():
    assert term(5, 3, 2, 0, -1) == ZERO
    assert term(5, 3, 2, 0, 3) == ZERO
    assert term(2, 2, 0, -1, 0) == ONE
    assert term(8, 4, 3, 0, 0) == qbinom(3, 3)
    with pytest.raises(ValueError):
        term(5, 3, 2, 2, 0)


def test_magic_small_cases():
    assert magic(5, 3, 0, 0) == ONE
    assert magic(5, 3, -1, 0) == ZERO
    assert magic(5, 3, -4, 1) == ZERO
    with pytest.raises(ValueError):
        magic(5, 3, 1, 7)


def test_magic_golden_values():
    assert magic(8, 4, 3, 0) == GOLDEN_843
    assert magic(8, 3, 3, 0) == GOLDEN_833
    assert magic(8, 4, 3, 0).at_one() == comb(6, 3) == 20


def test_magic_at_one_is_binomial():
    for nu in range(2, 8):
        for eps in (-1, 0, 1):
            for k in range(1, 2 * nu + 1):
                for beta in range(0, nu + 1):
                    assert magic(nu, k, beta, eps).at_one() == comb(nu - 2, beta)


def _sum_of_terms(nu, k, beta, eps):
    return lsum(term(nu, k, beta, eps, j) for j in range(beta + 1))


@given(st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_magic_matches_its_sum_of_terms(data):
    """The packed sum against the definition, through LaurentScalar products:
    any k (both generating-function windows, the gap between them, and beyond
    either end, where a top is negative) and any beta (beyond nu too)."""
    nu = data.draw(st.integers(0, 22))
    k = data.draw(st.integers(-3, 2 * nu + 4))
    beta = data.draw(st.integers(-2, nu + 3))
    eps = data.draw(st.sampled_from((-1, 0, 1)))
    assert magic(nu, k, beta, eps) == _sum_of_terms(nu, k, beta, eps)


@pytest.mark.parametrize("nu, k, beta, eps", [
    (22, 48, 25, 1),  # 72-bit bound: slots wider than 64 bits
    (20, 41, 21, -1),  # the far corner of magic-recursion at nu <= 20
    (9, 9, 4, 0),  # the gap between the two windows
    (9, -3, 11, -1),  # k below both windows, beta > nu
    (1, 0, 2, 0),  # nu - 2 < 0
])
def test_magic_edge_cases_match_their_sum_of_terms(nu, k, beta, eps):
    assert magic(nu, k, beta, eps) == _sum_of_terms(nu, k, beta, eps)


def test_magic_slots_exceed_64_bits_at_nu_22():
    bound = sum(abs(_binomial(47, 25 - j) * _binomial(22 - 48 - 1, j)) for j in range(26))
    assert bound.bit_length() == 72 and _slot_bytes(bound) == 10


def test_magic_slot_below_the_bound_trips_the_q1_guard(monkeypatch):
    """magic with one byte per slot fewer than its bound: right or refused at q = 1, never wrong."""
    cases = [(nu, k, beta, eps) for nu in range(6, 11) for k in (-2, 2 * nu + 1)
             for beta in range(nu + 1) for eps in (-1, 0, 1)]
    want = {case: magic(*case) for case in cases}
    real = laurent._slot_bytes
    monkeypatch.setattr(laurent, "_slot_bytes", lambda bound: max(1, real(bound) - 1))
    refused = 0
    try:
        for case, value in want.items():
            magic.cache_clear()
            try:
                assert magic(*case) == value
            except ArithmeticError as exc:
                assert "at q = 1" in str(exc)
                refused += 1
        magic.cache_clear()
        with pytest.raises(ArithmeticError, match=r"magic\(7, -2, 7, -1\) is -?\d+ at q = 1, not 0"):
            magic(7, -2, 7, -1)
    finally:
        magic.cache_clear()
    assert refused > 10


def test_parity_interval():
    iv = parity_interval(-2, 2)
    assert tuple(iv) == (-2, 0, 2)
    assert len(iv) == 3
    assert 0 in iv and 1 not in iv and 4 not in iv
    assert not parity_interval(3, 1)
    assert len(parity_interval(3, 1)) == 0
    with pytest.raises(ValueError):
        parity_interval(0, 3)


def test_gen_interval_x():
    low, high = gen_interval_X(8, 4, 0)
    assert tuple(low) == (-2, 0, 2)
    assert tuple(high) == (-18, -16, -14)
    assert len(low) == 4 - 1 and len(high) == 8 - 4 - 1
    with pytest.raises(ValueError):
        gen_interval_X(8, 8, 0)


def test_gen_interval_xprime():
    # at the top end k = 2*nu - 1 + eps the first interval is [[2-k, k-2nu-2eps-2]]
    nu, eps = 5, 0
    k = 2 * nu - 1 + eps
    low, high = gen_interval_Xprime(nu, k, eps)
    assert (low[0], low[-1]) == (2 - k, k - 2 * nu - 2 * eps - 2)
    assert tuple(low) == (-7, -5, -3)
    with pytest.raises(ValueError):
        gen_interval_Xprime(5, 4, 0)


def test_xprime_difference_view():
    for nu in range(2, 7):
        for eps in (-1, 0, 1):
            for k in range(nu + 1 + eps, 2 * nu + eps):
                outer, removed = xprime_difference(nu, k, eps)
                parts = gen_interval_Xprime(nu, k, eps)
                union = set(parts[0]) | set(parts[1])
                assert set(removed) <= set(outer)
                assert set(outer) - set(removed) == union


def test_genseries_coefficients_match_magic():
    series = magic_genfun(8, 4, 0, 3)
    assert series.coefficient(0) == ONE
    assert series.coefficient(3) == GOLDEN_843
    for beta in range(4):
        assert series.coefficient(beta) == magic(8, 4, beta, 0)
    with pytest.raises(ValueError):
        series.coefficient(4)


def test_genfun_rejects_gap():
    with pytest.raises(ValueError):
        magic_genfun(8, 8, 0, 3)
    with pytest.raises(ValueError):
        magic_genfun(8, 9, 1, 3)  # k in the gap nu..nu+eps for eps = 1


def test_genfun_for3():
    series = magic_genfun_for3(8, 5, 0, 4)
    for beta in range(5):
        assert series.coefficient(beta) == q_pow(beta) * magic(8, 4, beta, 0)
    with pytest.raises(ValueError):
        magic_genfun_for3(8, 9, 0, 3)


def test_genseries_arithmetic():
    a = GenSeries.constant(2, 1).times_linear(ONE, q_pow(2))
    b = GenSeries.constant(2, 1).times_linear(ONE, q_pow(-2))
    assert (a + b).coefficient(1) == q_pow(2) + q_pow(-2)
    assert (3 * a).coefficient(1) == 3 * q_pow(2)
    assert (a * q_pow(1)).coefficient(0) == q_pow(1)
    with pytest.raises(TypeError):
        a * b  # only scalars multiply a series


def test_magic_symmetry():
    assert magic_symmetry_check(8, 3, 0, 5)
    assert magic(8, 5, 3, 0) == q_pow(3 * (2 * 5 - 16)) * magic(8, 11, 3, 0)
    with pytest.raises(ValueError):
        magic_symmetry_check(8, 3, 0, 8)  # the excluded middle k = nu
    with pytest.raises(ValueError):
        magic_symmetry_check(8, 3, 0, 16)  # k = L


def test_chu_vandermonde_special():
    # k = 2*nu with eps = +1 sits in the plus branch
    nu, eps = 6, 1
    k = 2 * nu
    for beta in range(nu):
        assert chu_vandermonde_special(nu, k, beta, eps) == magic(nu, k, beta, eps)
    assert chu_vandermonde_special(6, 12, 0, 1) == ONE
    # k = nu with eps = -1 sits in the minus branch
    assert chu_vandermonde_special(6, 6, 2, -1) == magic(6, 6, 2, -1)
    with pytest.raises(ValueError):
        chu_vandermonde_special(6, 8, 2, 0)


def test_magic_recursion():
    lhs, rhs = magic_recursion_sides(5, 3, 0, 0)
    assert lhs == rhs == ZERO
    for args in [(8, 4, 3, 0), (5, 6, 2, -1)]:
        lhs, rhs = magic_recursion_sides(*args)
        assert lhs == rhs, args
    with pytest.raises(ValueError):
        magic_recursion_sides(5, 3, 2, 1)


def test_telescope_empty_sum():
    lhs, rhs = telescope_sides("sum", 4, 4, 2)
    assert lhs == rhs == ZERO


def test_telescope_examples():
    for args in [("sum", 4, 6, 2), ("odd_even", 4, 5, 2), ("even_even", 4, 6, 1), ("odd_odd", 4, 5, 3)]:
        lhs, rhs = telescope_sides(*args)
        assert lhs == rhs, args
    with pytest.raises(ValueError):
        telescope_sides("sum", 4, 3, 2)
    with pytest.raises(ValueError):
        telescope_sides("spiral", 4, 5, 2)


def test_reformed_telescope():
    sums = reformed_telescope_partial_sums(3)
    assert len(sums) == 4
    # final partial sum agrees with the closed product form
    closed = GenSeries.constant(4, q_pow(-6) * qnum(4) * -1)
    for i in range(2, 5):
        closed = closed.times_linear(q_pow(1 + 2 * i), ONE)
    assert sums[-1] == closed
    reformed_telescope_partial_sums(0)
    with pytest.raises(ValueError):
        reformed_telescope_partial_sums(-1)


def test_reformed_telescope_even():
    sums = reformed_telescope_even_partial_sums(4)
    assert len(sums) == 5
    closed = GenSeries.constant(5, q_pow(-8) * qnum(5) * qnum(6))
    for i in range(2, 6):
        closed = closed.times_linear(q_pow(2 * i + 2), ONE)
    assert sums[-1] == closed
