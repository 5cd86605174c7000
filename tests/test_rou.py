import pytest

from qdemazure.laurent import ONE, LaurentScalar, p_pow, q_pow, qbinom, qnum, z_pow
from qdemazure.rou import (
    CycElem,
    RouParams,
    cyclotomic_poly,
    specialize,
    xi_rou_corollary,
    xi_rou_formula,
    xi_rou_specialized,
)
from qdemazure.verify import Bounds, run_suite


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert len(cyclotomic_poly(18)) - 1 == 6
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_cyclotomic_product_reconstructs_xn_minus_1():
    # 6, 12, 30 and every order 6m that rou-lemmas reaches at m <= 12
    for n in [6 * m for m in range(1, 13)]:
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_poly(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        want = [-1] + [0] * (n - 1) + [1]
        assert prod == want


def lift(c):
    """A residue as a polynomial in p."""
    return LaurentScalar(dict(enumerate(c.residue)))


def test_specialize_basics():
    for m in (2, 3, 5):
        assert specialize(p_pow(6 * m), m).residue == (1,)
        assert specialize(p_pow(3 * m), m).residue == (-1,)
        assert specialize(qnum(m), m).is_zero()
        assert specialize(qnum(m - 1), m) == specialize(ONE, m)
    with pytest.raises(ValueError):
        specialize(ONE, 1)


def test_specialize_is_ring_hom():
    f = p_pow(3) - 2 * p_pow(-1)
    g = z_pow(2) + 1
    for m in (2, 3):
        sf, sg = specialize(f, m), specialize(g, m)
        assert specialize(lift(sf), m) == sf
        assert specialize(f * g, m) == specialize(lift(sf) * lift(sg), m)
        assert specialize(f + g, m) == specialize(lift(sf) + lift(sg), m)


def test_cycelem_is_a_plain_value():
    a = specialize(p_pow(1), 2)
    # x^4 = x^2 - 1 mod Phi_12, so a residue of length 5 reduces to length 3
    assert CycElem(2, (0, 0, 0, 0, 1)) == CycElem(2, (-1, 0, 1))
    assert CycElem(2, (0, 0, 0)) == CycElem.zero(2) and not CycElem.zero(2)
    assert a == CycElem(2, (0, 1)) and hash(a) == hash(CycElem(2, (0, 1)))
    assert specialize(ONE, 2) != specialize(ONE, 3)
    assert specialize(ONE, 2) != 1 and len({specialize(ONE, 2), specialize(ONE, 3), 1}) == 3
    for op in ("__add__", "__sub__", "__mul__", "__neg__", "__int__"):
        assert not hasattr(a, op), op
    assert specialize(4 * p_pow(1) - 8, 2).divisible_by(4)
    assert not specialize(4 * p_pow(1) + 1, 2).divisible_by(4)


def test_cycelem_render_json():
    v = xi_rou_formula(2, 2, 1)
    assert v.render() == "-4*p^2"
    assert v.to_json() == {"m": 2, "residue": [0, 0, -4]}
    assert CycElem.zero(2).render() == "0"


def test_rou_params():
    p = RouParams.from_ma(3, 4)
    assert (p.b, p.alpha, p.beta, p.d) == (4, 1, 1, 1)
    assert p.alpha + p.beta == p.m - 1 + p.bottom
    with pytest.raises(ValueError):
        RouParams.from_ma(3, 9)
    # bottom rises to d only when m, a, b are all odd
    assert RouParams.from_ma(3, 3).bottom == 1
    assert RouParams.from_ma(3, 4).bottom == 0
    assert RouParams.from_ma(4, 5).bottom == 1


def test_alpha_beta_sum_by_parity():
    for m in range(2, 7):
        d = m // 2
        for a in range(3 * m):
            p = RouParams.from_ma(m, a)
            assert (p.alpha - p.bottom) + (p.beta - p.bottom) == m - 1 - p.bottom
            if a % 2 == 1 and p.b % 2 == 1:
                assert p.alpha + p.beta == 3 * d
            elif a % 2 == 0 and p.b % 2 == 0:
                assert p.alpha + p.beta == 3 * d - 1
            else:
                assert p.alpha + p.beta == 3 * d - 2


def test_xi_rou_zero_outside_window():
    assert xi_rou_formula(3, 1, 1).is_zero()  # a <= m-2
    assert xi_rou_formula(3, 7, 2).is_zero()  # a >= 2m+1
    with pytest.raises(ValueError):
        xi_rou_formula(3, -1, 1)
    with pytest.raises(ValueError):
        xi_rou_formula(3, 2, 5)


def test_xi_rou_matches_specialized_formula():
    assert xi_rou_formula(2, 2, 1) == xi_rou_specialized(2, 2, 1, "formula")
    for m in (2, 3):
        for a in range(3 * m):
            for i in (1, 2, 3):
                assert xi_rou_formula(m, a, i) == xi_rou_specialized(m, a, i, "formula"), (m, a, i)


def test_xi_rou_independent_of_i():
    for (m, a) in [(2, 3), (3, 4), (4, 6)]:
        v1 = xi_rou_formula(m, a, 1)
        assert v1 == xi_rou_formula(m, a, 2) == xi_rou_formula(m, a, 3)


def test_corollary_agrees_and_rejects():
    assert xi_rou_corollary(3, 4, 2) == xi_rou_formula(3, 4, 2)
    for m in (2, 3, 4):
        for a in range(m - 1, 2 * m + 1):
            assert xi_rou_corollary(m, a, 1) == xi_rou_formula(m, a, 1), (m, a)
    with pytest.raises(ValueError):
        xi_rou_corollary(3, 1, 1)


def test_binomial_mirror_at_root():
    for m in (2, 3, 5):
        for a in range(m - 1, 2 * m + 1):
            p = RouParams.from_ma(m, a)
            lhs = specialize(qbinom(m - 1 - p.bottom, p.alpha - p.bottom), m)
            rhs = specialize(qbinom(m - 1 - p.bottom, p.beta - p.bottom), m)
            assert lhs == rhs


def test_q_4d_is_one_for_even_m():
    for m in (2, 4, 6):
        d = m // 2
        assert specialize(q_pow(4 * d), m) == specialize(ONE, m)


def test_nonzero_values_divisible_by_m_squared():
    for m in (2, 3):
        for a in range(m - 1, 2 * m + 1):
            v = xi_rou_formula(m, a, 1)
            assert not v.is_zero()
            assert v.divisible_by(m * m)


def test_lemma_suite_passes():
    report = run_suite("rou-lemmas", Bounds(max_m=5))
    assert report.passed, report.render_text()


def test_oracle_specialization_m2():
    for a in range(6):
        for i in (1, 2, 3):
            assert xi_rou_specialized(2, a, i, "oracle") == xi_rou_formula(2, a, i)


@pytest.mark.parametrize("m, a", [(2, -1), (2, 6), (1, 0)])
def test_xi_rou_methods_reject_the_same_domain(m, a):
    with pytest.raises(ValueError) as exc:
        xi_rou_formula(m, a, 1)
    for method in ("formula", "oracle"):
        with pytest.raises(ValueError) as other:
            xi_rou_specialized(m, a, 1, method)
        assert str(other.value) == str(exc.value), method
