import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdemazure.laurent import (
    ONE,
    ZERO,
    ExactDivisionError,
    LaurentScalar,
    binom2,
    exact_div,
    p_pow,
    q_pow,
    qbinom,
    qfact,
    qnum,
    rho,
    rho_prime,
    sign,
    z_pow,
)

scalars = st.builds(
    LaurentScalar,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
)


def test_monomial_constructors():
    assert z_pow(1) == p_pow(2)
    assert q_pow(2) == p_pow(-6)
    assert q_pow(2) == z_pow(-3)
    assert p_pow(3) * p_pow(-3) == ONE


def test_zero_and_one():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert ONE + (-ONE) == ZERO
    assert LaurentScalar({3: 0}) == ZERO


def test_bar_examples():
    assert (z_pow(1) + 1).bar() == z_pow(-1) + 1
    assert ONE.bar() == ONE
    assert (p_pow(3) - p_pow(-1)).bar() == p_pow(-3) - p_pow(1)


@given(scalars, scalars)
def test_bar_is_ring_involution(f, g):
    assert f.bar().bar() == f
    assert (f + g).bar() == f.bar() + g.bar()
    assert (f * g).bar() == f.bar() * g.bar()


@given(scalars, scalars, scalars)
@settings(max_examples=60)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)


def test_qnum_examples():
    assert qnum(2) == q_pow(1) + q_pow(-1)
    assert qnum(0) == ZERO
    assert qnum(1) == ONE
    assert qnum(-3) == -(q_pow(2) + 1 + q_pow(-2))


def test_qnum_is_bar_invariant():
    for k in range(-8, 9):
        assert qnum(k).bar() == qnum(k)


def _gaussian_binomial_by_enumeration(n, k):
    # independent oracle: weighted count of k-subsets of {0..n-1}
    total = ZERO
    for subset in itertools.combinations(range(n), k):
        total = total + q_pow(2 * (sum(subset) - k * (k - 1) // 2) - k * (n - k))
    return total


@pytest.mark.parametrize("n", range(0, 8))
def test_qbinom_matches_enumeration(n):
    for k in range(0, n + 1):
        assert qbinom(n, k) == _gaussian_binomial_by_enumeration(n, k)


def test_qbinom_examples():
    assert qbinom(2, 1) == qnum(2)
    assert qbinom(-3, 2) == qbinom(4, 2)
    assert qbinom(6, 3) == _gaussian_binomial_by_enumeration(6, 3)
    assert qbinom(6, 3).at_one() == comb(6, 3) == 20
    assert qbinom(5, -1) == ZERO
    assert qbinom(3, 5) == ZERO


def test_qbinom_negative_top_sign_rule():
    for d in range(0, 5):
        for j in range(0, 5):
            want = qbinom(d + j, j)
            if j % 2:
                want = -want
            assert qbinom(-d - 1, j) == want


def test_qbinom_pascal_and_symmetry():
    for n in range(0, 13):
        for j in range(0, n + 1):
            assert qbinom(n, j) == qbinom(n, n - j)
            assert qbinom(n, j) == q_pow(j) * qbinom(n - 1, j) + q_pow(j - n) * qbinom(n - 1, j - 1)


def test_chu_vandermonde_convolution():
    for M in range(0, 9):
        for N in range(0, 9 - M):
            for beta in range(0, M + N + 1):
                total = ZERO
                for j in range(beta + 1):
                    total = total + qbinom(M, beta - j) * qbinom(N, j) * q_pow(j * (M + N))
                assert total == q_pow(N * beta) * qbinom(M + N, beta)


def test_qfact():
    assert qfact(0) == ONE
    assert qfact(3) == qnum(1) * qnum(2) * qnum(3)
    with pytest.raises(ValueError):
        qfact(-1)


def test_rho_examples():
    assert rho(0) == ONE
    assert rho(1) == q_pow(1) - q_pow(-1)
    assert rho_prime(2) == (ONE - q_pow(-2)) * (ONE - q_pow(-4))
    assert rho_prime(0) == ONE
    assert rho_prime(-1) == ONE
    with pytest.raises(ValueError):
        rho(-1)
    with pytest.raises(ValueError):
        rho_prime(-2)


def test_rho_prime_is_normalized_rho():
    for d in range(0, 7):
        assert rho_prime(d) == q_pow(-(d + 1) * d // 2) * rho(d)


def test_power_difference_identity():
    # q^{-2c} - q^{-2d} = q^{-(c+d)} (q - q^{-1}) [d - c]
    for c in range(-10, 11):
        for d in range(-10, 11):
            lhs = q_pow(-2 * c) - q_pow(-2 * d)
            rhs = q_pow(-(c + d)) * (q_pow(1) - q_pow(-1)) * qnum(d - c)
            assert lhs == rhs


def test_exact_div():
    f = (p_pow(2) + 1) * (p_pow(-3) - 2)
    assert exact_div(f, p_pow(2) + 1) == p_pow(-3) - 2
    with pytest.raises(ExactDivisionError):
        exact_div(p_pow(1) + 1, p_pow(1) - 1)
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, ZERO)
    assert exact_div(ZERO, ONE) == ZERO


def test_render_canonical():
    f = p_pow(4) + 1 - 2 * p_pow(-3)
    assert f.render() == "-2*p^-3 + 1 + p^4"
    assert str(ZERO) == "0"
    assert (-ONE).render() == "-1"
    assert (p_pow(1) - p_pow(-1)).render() == "-p^-1 + p"


def test_render_z():
    assert (z_pow(3) - z_pow(-1)).render_z() == "-z^-1 + z^3"
    assert (z_pow(1) * 4).render_z() == "4*z"
    with pytest.raises(ValueError):
        p_pow(1).render_z()


def test_is_z_element():
    assert z_pow(5).is_z_element()
    assert not p_pow(3).is_z_element()
    assert ZERO.is_z_element()


def test_json_rendering():
    f = p_pow(4) + 1 - 2 * p_pow(-3)
    assert f.to_json() == {"-3": "-2", "0": "1", "4": "1"}


def test_hash_consistency():
    a = p_pow(2) + p_pow(-2)
    b = z_pow(1) + z_pow(-1)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_constant_hashes_like_its_int():
    for n in (0, 1, -1, 5, 2**70):
        c = LaurentScalar.from_int(n)
        assert c == n and hash(c) == hash(n)
    assert len({LaurentScalar.from_int(5), 5}) == 1


def test_sign_and_binom2():
    assert [sign(n) for n in (-1, 0, 1, 2)] == [-ONE, ONE, -ONE, ONE]
    assert [binom2(n) for n in range(5)] == [0, 0, 1, 3, 6]
