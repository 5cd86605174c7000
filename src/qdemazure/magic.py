"""
The `magic` sum of double quantum binomials and its identities.

magic(nu, k, beta, eps) is the finite sum over j of

    qbinom(k-1, beta-j) * qbinom(nu-k-1, j) * q^(j*(-3*nu + 2*k - 2*eps)),

an alternate q-deformation of binomial(nu-2, beta).  The offset eps is always
one of -1, 0, 1.  No closed form is known, but the generating function over
beta factors as a product of (1 + q^lambda * x) with lambda running over a
union of two parity intervals, and that factorization drives everything else
here: the k <-> L-k symmetry, the Chu-Vandermonde special cases, a recursion
in nu, and four telescoping-sum identities, stated once over the TELESCOPES
table.  The generating function and the reformed telescope partial sums are
polyring.TriPoly polynomials in x = x1.  The i = 3 factor of the staircase
scalar, q^beta * magic(nu, k-1, beta, eps), is generated by the x -> qx image
of magic_genfun at k-1.

`magic` is one `qbinom_product_sum` (Kronecker substitution, see laurent);
`term` keeps one summand as a product of scalars, the definition the packed
sum is tested against.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentScalar, ONE, ZERO, binom2, lsum, q_pow, qbinom, qbinom_product_sum, qnum, sign
from .polyring import TriPoly


def _check_eps(eps: int) -> int:
    if eps not in (-1, 0, 1):
        raise ValueError(f"eps must be -1, 0 or 1, got {eps}")
    return eps


def term(nu: int, k: int, beta: int, eps: int, j: int) -> LaurentScalar:
    """One summand of magic; vanishes for j < 0 or j > beta."""
    _check_eps(eps)
    if j < 0 or j > beta:
        return ZERO
    return qbinom(k - 1, beta - j) * (qbinom(nu - k - 1, j) * q_pow(j * (-3 * nu + 2 * k - 2 * eps)))


@lru_cache(maxsize=None)
def magic(nu: int, k: int, beta: int, eps: int) -> LaurentScalar:
    """Sum the terms over j; zero for beta < 0, one for beta = 0.

    The sum is one laurent.qbinom_product_sum, taken by Kronecker
    substitution and checked at q = 1, where by Vandermonde it is
    binomial(nu-2, beta).

    >>> magic(5, 3, 0, 0) == 1
    True
    >>> magic(5, 3, -2, 0).is_zero()
    True
    """
    _check_eps(eps)
    step = 3 * (3 * nu - 2 * k + 2 * eps)  # q^(-3nu+2k-2eps) == p^step
    return qbinom_product_sum(((k - 1, beta - j, nu - k - 1, j, j * step) for j in range(beta + 1)),
                              f"magic({nu}, {k}, {beta}, {eps})")


# -- generating functions ----------------------------------------------------


def parity_interval(lo: int, hi: int) -> range:
    """The integers from lo to hi inclusive that share the parity of lo.

    Empty when hi < lo.  The endpoints must agree mod 2.
    """
    if (hi - lo) % 2 != 0:
        raise ValueError(f"endpoints {lo}, {hi} differ in parity")
    return range(lo, hi + 1, 2)


def genfun_window(nu: int, k: int, eps: int):
    """gen_interval_X on the small-k window 1 <= k <= nu-1, gen_interval_Xprime
    on the large-k window nu+1+eps <= k <= 2nu-1+eps, and None elsewhere (the
    gap nu <= k <= nu+eps between them, or beyond either end)."""
    _check_eps(eps)
    if 1 <= k <= nu - 1:
        return gen_interval_X
    if nu + 1 + eps <= k <= 2 * nu - 1 + eps:
        return gen_interval_Xprime
    return None


def _require_window(window, nu: int, k: int, eps: int) -> None:
    if genfun_window(nu, k, eps) is not window:
        raise ValueError(f"k={k} is outside the {window.__name__} window at nu={nu}, eps={eps}")


def gen_interval_X(nu: int, k: int, eps: int) -> list[range]:
    """The two disjoint parity intervals whose product expansion generates
    magic(nu, k, ., eps) for small k (see genfun_window)."""
    _require_window(gen_interval_X, nu, k, eps)
    return [
        parity_interval(2 - k, k - 2),
        parity_interval(3 * k - 4 * nu - 2 * eps + 2, k - 2 * nu - 2 * eps - 2),
    ]


def gen_interval_Xprime(nu: int, k: int, eps: int) -> list[range]:
    """The large-k counterpart of gen_interval_X."""
    _require_window(gen_interval_Xprime, nu, k, eps)
    return [
        parity_interval(2 - k, k - 2 * nu - 2 * eps - 2),
        parity_interval(3 * k - 4 * nu - 2 * eps + 2, k - 2),
    ]


def xprime_difference(nu: int, k: int, eps: int) -> tuple[range, range]:
    """The set-difference view of gen_interval_Xprime: an outer interval and the
    inner interval removed from it."""
    _require_window(gen_interval_Xprime, nu, k, eps)
    return (
        parity_interval(2 - k, k - 2),
        parity_interval(k - 2 * nu - 2 * eps, 3 * k - 4 * nu - 2 * eps),
    )


def _linear(c0: LaurentScalar, c1: LaurentScalar) -> TriPoly:
    """The linear factor c0 + c1*x, with x = x1."""
    return TriPoly({(0, 0, 0): c0, (1, 0, 0): c1})


def magic_genfun(nu: int, k: int, eps: int) -> TriPoly:
    """The polynomial in x = x1 whose x^beta coefficient is magic(nu, k, beta, eps).

    It is a product of nu-2 linear factors, so it has degree nu-2 in x.
    Valid on the two k-windows of genfun_window; the gap nu <= k <= nu+eps
    between them is rejected.
    """
    window = genfun_window(nu, k, eps)
    if window is None:
        raise ValueError(f"k={k} is outside both generating-function windows")
    out = TriPoly.one()
    for iv in window(nu, k, eps):
        for lam in iv:
            out = out * _linear(ONE, q_pow(lam))
    return out


# -- identities ---------------------------------------------------------------


def magic_symmetry_sides(nu: int, k: int, beta: int, eps: int) -> tuple[LaurentScalar, LaurentScalar]:
    """Both sides of magic(nu, k, beta, eps) == q^(beta*(2k-L)) * magic(nu, L-k, beta, eps), L = 2*nu + eps,
    on the two windows of genfun_window: 1 <= k <= L-1 minus the gap nu..nu+eps."""
    if genfun_window(nu, k, eps) is None:
        raise ValueError(f"k={k} is outside both generating-function windows")
    L = 2 * nu + eps
    return magic(nu, k, beta, eps), q_pow(beta * (2 * k - L)) * magic(nu, L - k, beta, eps)


def chu_vandermonde_special(nu: int, k: int, beta: int, eps: int) -> LaurentScalar:
    """The closed value q^(±(nu-k-1)*beta) * qbinom(nu-2, beta), defined exactly
    when 2*(k - eps) = 3*nu ± (nu - 2); the sign of the exponent matches the
    sign in that condition."""
    _check_eps(eps)
    if 2 * (k - eps) == 3 * nu + (nu - 2):
        sign = 1
    elif 2 * (k - eps) == 3 * nu - (nu - 2):
        sign = -1
    else:
        raise ValueError(f"2(k-eps)={2 * (k - eps)} is not 3nu±(nu-2) for nu={nu}")
    return q_pow(sign * (nu - k - 1) * beta) * qbinom(nu - 2, beta)


def magic_recursion_sides(nu: int, k: int, beta: int, eps: int) -> tuple[LaurentScalar, LaurentScalar]:
    """Both sides of the nu-lowering recursion, for eps in {-1, 0}:

    [beta]*magic(nu,k,beta,eps) ==
        [k-1]*magic(nu-1,k-1,beta-1,eps)
      + q^(2k-3nu-beta-2eps+1)*[nu-k-1]*magic(nu-1,k,beta-1,eps+1).
    """
    if eps not in (-1, 0):
        raise ValueError(f"eps must be -1 or 0, got {eps}")
    lhs = qnum(beta) * magic(nu, k, beta, eps)
    rhs = qnum(k - 1) * magic(nu - 1, k - 1, beta - 1, eps) + (
        q_pow(2 * k - 3 * nu - beta - 2 * eps + 1)
        * qnum(nu - k - 1)
        * magic(nu - 1, k, beta - 1, eps + 1)
    )
    return lhs, rhs


def _qdiff(a: int, b: int) -> LaurentScalar:
    """q^a - q^b."""
    return q_pow(a) - q_pow(b)


# variant -> (l - 2nu, lowest k - nu, eps, left weight A(nu, k, beta, l),
#             nu-drop d, eps', summand weight W(nu, c, beta, l)); see telescope_sides
TELESCOPES = {
    "sum": (
        0, 0, 0, lambda nu, k, b, ell: _qdiff(-2 * k, -2 * nu) * q_pow(k * (k - b - ell + 1)),
        0, -1, lambda nu, c, b, ell: q_pow(c * (c - b - ell + 3) - 2 * ell + 2),
    ),
    "even_even": (
        1, 1, 1, lambda nu, k, b, ell: _qdiff(2 * k, 2 * nu) * _qdiff(2 * nu, 2 * k - 2) * q_pow(k * (k - b - ell - 2)),
        0, 0, lambda nu, c, b, ell: _qdiff(-2 * nu, -2 * c) * q_pow(c * (c - b - ell + 4)),
    ),
    "odd_odd": (
        -1, 0, -1, lambda nu, k, b, ell: _qdiff(0, 2 * b) * q_pow(k * (k - b - ell) + ell - 1),
        1, -1, lambda nu, c, b, ell: _qdiff(0, 2 * c + 6 - 4 * nu) * q_pow(c * (c - b - ell + 3)),
    ),
    "odd_even": (
        0, 0, 0, lambda nu, k, b, ell: (_qdiff(0, 2 * b) * _qdiff(k - nu, nu - k)
                                        * q_pow(k * (k - b - ell) + 2 * ell - 3)),
        1, 0, lambda nu, c, b, ell: (_qdiff(c + 1 - nu, nu - c - 1) * _qdiff(ell - 2 - c, c + 2 - ell)
                                     * q_pow(c * (c - b - ell + 4))),
    ),
}


def telescope_window(variant: str, nu: int) -> range:
    """The k-window of a telescope variant at nu; its stop is the length l."""
    if variant not in TELESCOPES:
        raise ValueError(f"unknown telescope variant {variant!r}")
    dl, dk = TELESCOPES[variant][:2]
    return range(nu + dk, 2 * nu + dl)


def telescope_sides(variant: str, nu: int, k: int, beta: int) -> tuple[LaurentScalar, LaurentScalar]:
    """Both sides of one of the four telescoping-sum identities, named by the
    parities of the lengths involved, for k in telescope_window(variant, nu),
    whose stop is l.  With the variant's TELESCOPES row each one reads

        (-1)^k A(nu, k, beta, l) * magic(nu, k, beta, eps)
          == sum_{c=l-k..k-1} (-1)^c W(nu, c, beta, l) * magic(nu-d, c, beta-d, eps').
    """
    window = telescope_window(variant, nu)
    ell = window.stop
    if k not in window:
        raise ValueError(f"k={k} outside {window.start}..{ell - 1}")
    _, _, eps, left, drop, eps_sum, weight = TELESCOPES[variant]
    lhs = sign(k) * left(nu, k, beta, ell) * magic(nu, k, beta, eps)
    rhs = lsum(sign(c) * weight(nu, c, beta, ell) * magic(nu - drop, c, beta - drop, eps_sum)
               for c in range(ell - k, k))
    return lhs, rhs


# variant -> (shift s, weight w(a) of the a-th summand, weight W(a) of the closed form)
REFORMED = {
    "reformed": (1, lambda a: qnum(2 * a + 1) * q_pow(2 * binom2(a + 1)), lambda a: qnum(a + 1)),
    "reformed-even": (2, lambda a: qnum(a + 1) * qnum(2 * a + 2) * q_pow(2 * binom2(a + 1) + a),
                      lambda a: qnum(a + 1) * qnum(a + 2)),
}


def reformed_telescope_sides(variant: str, B: int) -> list[tuple[tuple, TriPoly, TriPoly]]:
    """Both sides of each partial-sum identity of a reformed telescope variant:
    (("closed", B, a), PS(a), its closed form) for a = 0..B and
    (("ratio", B, a), lhs, rhs) for a = 1..B.  With shift s, the a-th summand is
        (-1)^a w(a) * prod_{i=1..a} (1 + q^(-s-2i) x) * prod_{i=a..B-1} (1 + q^(s+2i) x),
    PS(a), the sum of the summands 0..a, has the closed form
        (-1)^a q^(-2a) W(a) * prod_{i=2..a+1} (q^(s+2i) + x) * prod_{i=a..B-1} (1 + q^(s+2i) x),
    and the step ratio, multiplied out, is
        PS(a)/PS(a-1) = -q^(-2) ([a+s]/[a]) (q^(2a+2+s) + x)/(1 + q^(2a-2+s) x).
    "reformed" has s = 1, w(a) = [2a+1] q^(2*binom(a+1,2)) and W(a) = [a+1];
    "reformed-even" has s = 2, w(a) = [a+1][2a+2] q^(2*binom(a+1,2)+a) and
    W(a) = [a+1][a+2].

    For every B >= a both sides of each identity at a share the factor
    prod_{i=a..B-1} (1 + q^(s+2i) x), and Z[p^±1][x] has no zero divisors, so
    an identity that holds at one B holds at every B.
    """
    if variant not in REFORMED:
        raise ValueError(f"unknown reformed telescope variant {variant!r}")
    if B < 0:
        raise ValueError("B must be nonnegative")
    shift, summand, closed_form = REFORMED[variant]
    sides = []
    prev = acc = TriPoly.zero()
    for a in range(B + 1):
        f = TriPoly.monomial((0, 0, 0), sign(a) * summand(a))
        for i in range(1, a + 1):
            f = f * _linear(ONE, q_pow(-shift - 2 * i))
        for i in range(a, B):
            f = f * _linear(ONE, q_pow(shift + 2 * i))
        acc = acc + f
        closed = TriPoly.monomial((0, 0, 0), sign(a) * q_pow(-2 * a) * closed_form(a))
        for i in range(2, a + 2):
            closed = closed * _linear(q_pow(shift + 2 * i), ONE)
        for i in range(a, B):
            closed = closed * _linear(ONE, q_pow(shift + 2 * i))
        sides.append((("closed", B, a), acc, closed))
        if a >= 1:
            sides.append((("ratio", B, a),
                          acc * qnum(a) * _linear(ONE, q_pow(2 * a - 2 + shift)),
                          prev * (-q_pow(-2) * qnum(a + shift)) * _linear(q_pow(2 * a + 2 + shift), ONE)))
        prev = acc
    return sides
