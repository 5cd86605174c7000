import itertools
import sys
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdemazure import laurent
from qdemazure.laurent import (
    _DENSE_MAX_SPREAD,
    _DENSE_MIN_TERMS,
    _packed_qbinom,
    _unpack,
    ONE,
    ZERO,
    ExactDivisionError,
    LaurentScalar,
    binom2,
    exact_div,
    lsum,
    p_pow,
    q_pow,
    qbinom,
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


# -- the product kernel against a plain reference ------------------------------
#
# Each strategy below builds operands that meet the preconditions of one path
# of LaurentScalar.__mul__: a one-term operand (the shift), two operands with
# at least _DENSE_MIN_TERMS terms packed on a common stride (the dense rows),
# or operands too small or too spread out for a dense row (the double loop).


def _ref_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _coeffs(x) -> dict:
    if isinstance(x, int):
        return {0: x} if x else {}
    return x.coefficients()


def _assert_product(f, g):
    want = _ref_mul(_coeffs(f), _coeffs(g))
    for got in (f * g, g * f):
        assert got.coefficients() == want
        assert 0 not in got.coefficients().values()


coefs = st.integers(-(2**70), 2**70).filter(bool) | st.integers(-3, 3).filter(bool)
monomials = st.builds(lambda e, c: LaurentScalar({e: c}), st.integers(-60, 60), coefs)


@st.composite
def dense_scalars(draw, stride=None):
    """At least _DENSE_MIN_TERMS terms on one stride, at most a third of the slots empty."""
    g = draw(st.sampled_from((1, 2, 3, 6))) if stride is None else stride
    width = draw(st.integers(3 * _DENSE_MIN_TERMS // 2, 2 * _DENSE_MIN_TERMS))
    offset = draw(st.integers(-40, 40))
    scale = draw(coefs)
    rnd = draw(st.randoms(use_true_random=False))
    holes = rnd.sample(range(1, width - 1), rnd.randint(0, width // 3))
    return LaurentScalar({offset + g * t: rnd.choice((-5, -2, -1, 1, 3)) * scale
                          for t in range(width) if t not in holes})


@st.composite
def sparse_wide_scalars(draw):
    """At least _DENSE_MIN_TERMS terms spread too thin for a dense row."""
    n = draw(st.integers(_DENSE_MIN_TERMS, 2 * _DENSE_MIN_TERMS))
    scale = draw(coefs)
    rnd = draw(st.randoms(use_true_random=False))
    exps = rnd.sample(range(-500, 500), n)
    if max(exps) - min(exps) < _DENSE_MAX_SPREAD * n:
        exps.append(min(exps) + 10 * _DENSE_MAX_SPREAD * n)
    return LaurentScalar({e: scale * rnd.choice((-2, 1, 3)) for e in exps})


any_scalars = scalars | monomials | dense_scalars() | sparse_wide_scalars() | st.just(ZERO)


@given(monomials, any_scalars | st.integers(-9, 9))
@settings(max_examples=50)
def test_mul_monomial_shift(f, g):
    _assert_product(f, g)


@given(monomials, monomials)
@settings(max_examples=50)
def test_mul_monomial_by_monomial(f, g):
    _assert_product(f, g)


@given(any_scalars, st.integers(-(2**70), 2**70) | st.integers(-2, 2))
@settings(max_examples=50)
def test_mul_by_int_and_by_zero(f, n):
    _assert_product(f, n)
    _assert_product(f, 0)
    _assert_product(f, ZERO)


@pytest.mark.parametrize("stride", [1, 2, 3, 6])
@given(data=st.data())
@settings(max_examples=20)
def test_mul_dense_rows_on_one_stride(stride, data):
    _assert_product(data.draw(dense_scalars(stride)), data.draw(dense_scalars(stride)))


@given(dense_scalars(), dense_scalars())
@settings(max_examples=50)
def test_mul_dense_rows_on_mixed_strides(f, g):
    _assert_product(f, g)


@given(sparse_wide_scalars(), dense_scalars() | sparse_wide_scalars())
@settings(max_examples=30)
def test_mul_sparse_fallback(f, g):
    _assert_product(f, g)


@given(scalars, scalars)
@settings(max_examples=50)
def test_mul_small_operands(f, g):
    _assert_product(f, g)


@given(dense_scalars(), st.integers(1, 3 * _DENSE_MIN_TERMS), st.sampled_from((1, 2, 6)))
@settings(max_examples=30)
def test_mul_dense_cancellation_stores_no_zero(c, n, g):
    """(1 + x + ... + x^(N-1)) * ((1 - x) c) = (1 - x^N) c with x = p^g: the slots between c and x^N c cancel."""
    ones = LaurentScalar({g * t: 1 for t in range(n + _DENSE_MIN_TERMS)})
    _assert_product(ones, (ONE - p_pow(g)) * c)


@given(any_scalars, any_scalars)
@settings(max_examples=50)
def test_add_matches_reference(f, g):
    assert (f + g).coefficients() == _ref_add(f.coefficients(), g.coefficients())
    assert (f - f).coefficients() == {}


def _ref_neg(f: dict) -> dict:
    return {e: -c for e, c in f.items()}


@given(any_scalars, any_scalars | st.integers(-9, 9))
@settings(max_examples=50)
def test_sub_matches_reference(f, g):
    want = _ref_add(_coeffs(f), _ref_neg(_coeffs(g)))
    assert (f - g).coefficients() == want
    assert (g - f).coefficients() == _ref_neg(want)
    assert 0 not in (f - g).coefficients().values()


@given(st.lists(any_scalars, max_size=6))
@settings(max_examples=50)
def test_lsum_matches_reference(items):
    want: dict = {}
    for f in items:
        want = _ref_add(want, f.coefficients())
    got = lsum(items)
    assert got.coefficients() == want
    assert got == lsum(iter(items))


@given(any_scalars, any_scalars)
@settings(max_examples=30)
def test_lsum_edge_cases(f, g):
    assert lsum([]) == ZERO and lsum([]).coefficients() == {}
    assert lsum([f]) == f
    # full cancellation leaves no stored zero, in any order of the terms
    for items in ([f, g, -f, -g], [f, -f], [g, f, -g, -f]):
        assert lsum(items).coefficients() == {}
    assert lsum([f, g, -f]).coefficients() == g.coefficients()


def test_cancelled_sums_do_not_keep_a_grown_table():
    """A cached sum holds its dict for good, so cancellation must not leave it oversized."""
    wide = LaurentScalar({e: 1 for e in range(200)})
    narrow = LaurentScalar({e: 1 for e in range(10)})
    for got in (lsum([narrow, wide, -wide]), narrow + wide - wide, (narrow + wide) - wide):
        assert got == narrow
        assert sys.getsizeof(got._coeffs) <= sys.getsizeof(narrow.coefficients())
    assert lsum([wide, -wide]) is ZERO and wide - wide is ZERO


def test_mul_and_add_match_sympy():
    """The same products and sums through sympy.Poly, exponents shifted to be nonnegative."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def poly(h):
        shift = min(h.coefficients(), default=0)
        terms = {(e - shift,): c for e, c in h.coefficients().items()}
        return sympy.Poly.from_dict(terms or {(0,): 0}, x), shift

    def sympy_sum(items):
        polys = [poly(h) for h in items]
        lo = min((s for _, s in polys), default=0)
        total = sum((ph * x ** (s - lo) for ph, s in polys), sympy.Poly(0, x))
        return {k + lo: int(c) for (k,), c in total.as_dict().items() if c}

    @given(any_scalars, any_scalars, st.lists(any_scalars, max_size=4))
    @settings(max_examples=25, deadline=None)
    def check(f, g, items):
        (pf, sf), (pg, sg) = poly(f), poly(g)
        got = {k + sf + sg: int(c) for (k,), c in (pf * pg).as_dict().items() if c}
        assert (f * g).coefficients() == got
        assert (f + g).coefficients() == sympy_sum([f, g])
        assert lsum(items).coefficients() == sympy_sum(items)
        assert lsum([f, g, -f]).coefficients() == sympy_sum([g])

    check()


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


def _qbinom_by_division_chain(n, j):
    """The reference: [n-j+1][n-j+2]...[n] / [j]!, one exact division at a time."""
    if j < 0:
        return ZERO
    out = ONE
    for t in range(1, j + 1):
        out = exact_div(out * qnum(n - j + t), qnum(t))
        if out.is_zero():
            return ZERO
    return out


@given(st.integers(-20, 24), st.integers(-2, 14))
@example(0, 0)
@example(-1, 14)
@example(24, 12)
@example(5, 9)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_qbinom_matches_the_division_chain(n, j):
    assert qbinom(n, j) == _qbinom_by_division_chain(n, j)


@given(st.integers(-20, 24), st.integers(0, 14))
@example(-20, 14)
@example(24, 12)
@example(0, 0)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_packed_qbinom_reads_back_at_every_width(n, j):
    """The one encoder, at qbinom's own width and at every wider slot up to
    magic's widest, 10 bytes at nu = 22."""
    want = _qbinom_by_division_chain(n, j)
    assume(not want.is_zero())
    for nbytes in range(laurent._slot_bytes(abs(want.at_one())), 11):
        assert _unpack([_packed_qbinom(n, j, nbytes)], nbytes) == want


def _pack(f, nbytes):
    """(v, low, slots) with f == sum c_i p^(low+6i) and v = sum c_i 2^(wi), for a
    nonzero f on one class of exponents mod 6."""
    coeffs = f.coefficients()
    low = min(coeffs)
    assert all((e - low) % 6 == 0 for e in coeffs)
    slots = (max(coeffs) - low) // 6 + 1
    return sum(coeffs.get(low + 6 * i, 0) << (8 * nbytes * i) for i in range(slots)), low, slots


@given(st.integers(1, 10), st.integers(-40, 40), st.data())
@settings(max_examples=80, derandomize=True)
def test_pack_round_trip_at_the_slot_limits(nbytes, low, data):
    """Coefficients up to +-(2^(w-2) - 1) come back from one int, and sums of
    packed scalars on either class of exponents mod 6 come back as one scalar."""
    top = (1 << (8 * nbytes - 2)) - 1
    inner = st.sampled_from((top, -top, 0, 1, -1)) | st.integers(-top, top)
    ends = st.sampled_from((top, -top))
    coeffs = [data.draw(ends), *data.draw(st.lists(inner, max_size=30)), data.draw(ends)]
    f = LaurentScalar({low + 6 * i: c for i, c in enumerate(coeffs)})
    assert _pack(f, nbytes)[1:] == (low, len(coeffs))
    assert _unpack([_pack(f, nbytes)], nbytes) == f
    g = f * p_pow(3) * data.draw(st.sampled_from((1, -1)))
    assert _unpack([_pack(f, nbytes), _pack(g, nbytes)], nbytes) == f + g
    # parts on one class of exponents are added as ints before they are read back
    h = f * p_pow(6 * (len(coeffs) + data.draw(st.integers(0, 3))))
    assert _unpack([_pack(h, nbytes), _pack(f, nbytes)], nbytes) == f + h
    assert _unpack([_pack(f, nbytes), _pack(g, nbytes), _pack(-f, nbytes)], nbytes) == g


def test_a_slot_below_the_bound_trips_the_q1_guard(monkeypatch):
    """One byte per slot fewer than the bound asks: each value in the window is
    then either still right (the bound is not tight) or refused by the check at
    q = 1, never wrong."""
    want = {(n, j): qbinom(n, j) for n in range(-20, 25) for j in range(16)}
    real = laurent._slot_bytes
    monkeypatch.setattr(laurent, "_slot_bytes", lambda bound: max(1, real(bound) - 1))
    refused = 0
    try:
        for (n, j), value in want.items():
            qbinom.cache_clear()
            try:
                assert qbinom(n, j) == value
            except ArithmeticError as exc:
                assert "at q = 1" in str(exc)
                refused += 1
        qbinom.cache_clear()
        with pytest.raises(ArithmeticError, match=r"qbinom\(-20, 4\) is -?\d+ at q = 1, not 8855"):
            qbinom(-20, 4)
    finally:
        qbinom.cache_clear()
    assert refused > 50


def test_chu_vandermonde_convolution():
    for M in range(0, 9):
        for N in range(0, 9 - M):
            for beta in range(0, M + N + 1):
                total = ZERO
                for j in range(beta + 1):
                    total = total + qbinom(M, beta - j) * qbinom(N, j) * q_pow(j * (M + N))
                assert total == q_pow(N * beta) * qbinom(M + N, beta)


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


@pytest.mark.parametrize("coeffs", [{0.5: 1}, {1: 2.0}, {True: 1}, {0: True}, {1: 0.0}, {2: 1, 3: "1"}])
def test_constructor_rejects_non_int(coeffs):
    with pytest.raises(TypeError):
        LaurentScalar(coeffs)


@pytest.mark.parametrize("make, n", [
    (p_pow, 0.5), (p_pow, True), (z_pow, 1.0), (q_pow, False),
    (LaurentScalar.from_int, 2.0), (LaurentScalar.from_int, 0.0), (LaurentScalar.from_int, True),
])
def test_monomial_constructors_reject_non_int(make, n):
    with pytest.raises(TypeError):
        make(n)


def test_sign_and_binom2():
    assert [sign(n) for n in (-1, 0, 1, 2)] == [-ONE, ONE, -ONE, ONE]
    assert [binom2(n) for n in range(5)] == [0, 0, 1, 3, 6]
