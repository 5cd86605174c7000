import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdemazure.laurent import ONE, ZERO, LaurentScalar, z_pow
from qdemazure.polyring import (
    TriPoly,
    X1,
    X2,
    X3,
    demazure,
    normalize_index,
    s_action,
    sigma,
    tau,
    x_var,
)


def monomials(max_deg):
    for d in range(max_deg + 1):
        for e1 in range(d + 1):
            for e2 in range(d - e1 + 1):
                yield TriPoly.monomial((e1, e2, d - e1 - e2))


small_scalars = st.builds(
    LaurentScalar,
    st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=3),
)
polys = st.builds(
    TriPoly,
    st.dictionaries(
        st.sampled_from([e for f in monomials(6) for e in f.terms()]), small_scalars, max_size=6
    ),
)


def test_normalize_index():
    assert [normalize_index(i) for i in (0, 4, -1, -2, 7)] == [3, 1, 2, 1, 1]


def test_x_var_rejects_bad_index():
    with pytest.raises(ValueError):
        x_var(0)
    with pytest.raises(ValueError):
        x_var(4)


def test_s_action_examples():
    assert s_action(1, X1) == X2 * z_pow(1)
    assert s_action(1, X2) == X1 * z_pow(-1)
    assert s_action(1, X3) == X3
    # s_i on x_i^k x_{i+1}^{d-k} picks up z^{2k-d}; here (k, d) = (3, 4)
    f = TriPoly.monomial((3, 1, 0))
    assert s_action(1, f) == TriPoly.monomial((1, 3, 0), z_pow(2))
    assert s_action(3, X3) == X1 * z_pow(1)
    assert s_action(3, X1) == X3 * z_pow(-1)
    with pytest.raises(ValueError):
        s_action(0, X1)


def test_s_action_is_involution():
    for f in monomials(4):
        for i in (1, 2, 3):
            assert s_action(i, s_action(i, f)) == f


def test_demazure_examples():
    assert demazure(1, X1) == TriPoly.one()
    assert demazure(1, X2) == TriPoly.monomial((0, 0, 0), -z_pow(-1))
    assert demazure(1, X3) == TriPoly.zero()
    cube = TriPoly.monomial((3, 0, 0))
    want = (
        TriPoly.monomial((2, 0, 0))
        + TriPoly.monomial((1, 1, 0), z_pow(1))
        + TriPoly.monomial((0, 2, 0), z_pow(2))
    )
    assert demazure(1, cube) == want
    with pytest.raises(ValueError):
        demazure(5, X1)


def test_demazure_drops_degree_by_one():
    for f in monomials(5):
        deg = sum(next(iter(f.terms())))
        for i in (1, 2, 3):
            g = demazure(i, f)
            if not g.is_zero():
                assert all(sum(e) == deg - 1 for e in g.terms())


def test_demazure_kills_invariants():
    for i in (1, 2, 3):
        f = x_var(i) * x_var(normalize_index(i + 1)) * z_pow(-1)
        # x_i x_{i+1} z^{-1} is s_i-invariant
        assert s_action(i, f) == f
        assert demazure(i, f).is_zero()


def test_sigma_tau_examples():
    assert sigma(X3) == X1
    assert sigma(X1) == X2
    assert tau(X2 * z_pow(1)) == X2 * z_pow(-1)
    assert tau(X1 * X1 * X3) == X3 * X3 * X1
    for f in monomials(4):
        assert sigma(sigma(sigma(f))) == f
        assert tau(tau(f)) == f


def test_quadratic_braid_leibniz_small():
    z1 = z_pow(1)
    monos = list(monomials(4))
    for f in monos:
        for i in (1, 2, 3):
            j = normalize_index(i + 1)
            assert demazure(i, demazure(i, f)).is_zero()
            assert demazure(i, demazure(j, demazure(i, f))) * z1 == demazure(
                j, demazure(i, demazure(j, f))
            )
            assert demazure(i, f) == -demazure(i, s_action(i, f))
            assert sigma(demazure(i, f)) == demazure(j, sigma(f))
            assert tau(demazure(i, f)) == demazure(normalize_index(-i), tau(f)) * (-z1)
    small = list(monomials(2))
    for f, g in itertools.product(small, small):
        for i in (1, 2, 3):
            assert demazure(i, f * g) == demazure(i, f) * g + s_action(i, f) * demazure(i, g)


def test_scalar_predicates():
    assert TriPoly.one().is_scalar()
    assert TriPoly.zero().is_scalar()
    assert not X1.is_scalar()
    assert TriPoly.one().constant_coefficient() == ONE
    assert X1.constant_coefficient() == ZERO


def test_rejects_negative_exponents():
    with pytest.raises(ValueError):
        TriPoly.monomial((-1, 0, 0))


def test_render_and_json():
    f = X1 * X1 * X2 * (ONE + z_pow(3))
    assert f.render() == "x1^2*x2 * (1 + z^3)"
    assert TriPoly.zero().render() == "0"
    assert TriPoly.one().render() == "1"
    assert X2.render() == "x2"


@given(polys, st.sampled_from((1, 2, 3)))
@settings(max_examples=200)
def test_demazure_times_divisor_is_numerator(f, i):
    divisor = x_var(i) - x_var(normalize_index(i + 1)) * z_pow(1)
    assert divisor * demazure(i, f) == f - s_action(i, f)


@given(polys, st.sampled_from((1, 2, 3)))
@settings(max_examples=40, deadline=None)
def test_demazure_matches_sympy_division(f, i):
    sympy = pytest.importorskip("sympy")
    p = sympy.Symbol("p")
    xs = sympy.symbols("x1 x2 x3")

    def to_sympy(g):
        return sum(
            (sympy.Integer(c) * p**pe * xs[0]**e[0] * xs[1]**e[1] * xs[2]**e[2]
             for e, coeff in g.terms().items() for pe, c in coeff.coefficients().items()),
            sympy.Integer(0),
        )

    # p-exponents reach -4 in a coefficient and -12 more under s_i on degree 6;
    # clearing them lets sympy divide polynomials in p
    shift = p**16
    num = sympy.expand(shift * to_sympy(f - s_action(i, f)))
    den = xs[i - 1] - p**2 * xs[normalize_index(i + 1) - 1]
    quot, rem = sympy.div(num, den, *xs)
    assert rem == 0
    assert sympy.expand(quot - shift * to_sympy(demazure(i, f))) == 0
