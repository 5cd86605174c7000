"""
The `magic` sum of double quantum binomials and its identities.

magic(nu, k, beta, eps) is the finite sum over j of

    qbinom(k-1, beta-j) * qbinom(nu-k-1, j) * q^(j*(-3*nu + 2*k - 2*eps)),

an alternate q-deformation of binomial(nu-2, beta).  The offset eps is always
one of -1, 0, 1.  No closed form is known, but the generating function over
beta factors as a product of (1 + q^lambda * x) with lambda running over a
union of two parity intervals, and that factorization drives everything else
here: the k <-> L-k symmetry, the Chu-Vandermonde special cases, a recursion
in nu, and four telescoping-sum identities.

`magic` is one `qbinom_product_sum` (Kronecker substitution, see laurent);
`term` keeps one summand as a product of scalars, the definition the packed
sum is tested against.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentScalar, ONE, ZERO, binom2, lsum, q_pow, qbinom, qbinom_product_sum, qnum, sign


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


class GenSeries:
    """A polynomial in a formal variable x, truncated above a fixed bound.

    Coefficients are LaurentScalars; coefficient beta of a product built from
    linear factors (c0 + c1*x) is exact for all beta up to the bound.
    """

    __slots__ = ("bound", "coeffs")

    def __init__(self, bound: int, coeffs: tuple[LaurentScalar, ...]) -> None:
        if bound < 0 or len(coeffs) != bound + 1:
            raise ValueError("need exactly bound+1 coefficients")
        self.bound = bound
        self.coeffs = coeffs

    @classmethod
    def constant(cls, bound: int, value: LaurentScalar | int = 1) -> GenSeries:
        v = value if isinstance(value, LaurentScalar) else LaurentScalar.from_int(value)
        return cls(bound, (v,) + (ZERO,) * bound)

    def coefficient(self, beta: int) -> LaurentScalar:
        if not 0 <= beta <= self.bound:
            raise ValueError(f"beta={beta} outside 0..{self.bound}")
        return self.coeffs[beta]

    def times_linear(self, c0: LaurentScalar, c1: LaurentScalar) -> GenSeries:
        """Multiply by (c0 + c1*x), truncating above the bound."""
        prev = self.coeffs
        out = [c0 * prev[0]]
        for b in range(1, self.bound + 1):
            out.append(c0 * prev[b] + c1 * prev[b - 1])
        return GenSeries(self.bound, tuple(out))

    def __add__(self, other: GenSeries) -> GenSeries:
        if not isinstance(other, GenSeries) or other.bound != self.bound:
            return NotImplemented
        return GenSeries(self.bound, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: object) -> GenSeries:
        """Multiply every coefficient by a scalar."""
        if not isinstance(other, (LaurentScalar, int)):
            return NotImplemented
        return GenSeries(self.bound, tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenSeries):
            return NotImplemented
        return self.bound == other.bound and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        body = ", ".join(c.render() for c in self.coeffs)
        return f"GenSeries(bound={self.bound}, [{body}])"


def _genfun(nu: int, k: int, eps: int, bound: int, shift: int) -> GenSeries:
    window = genfun_window(nu, k, eps)
    if window is None:
        raise ValueError(f"k={k + shift} is outside both generating-function windows")
    out = GenSeries.constant(bound)
    for iv in window(nu, k, eps):
        for lam in iv:
            out = out.times_linear(ONE, q_pow(lam + shift))
    return out


def magic_genfun(nu: int, k: int, eps: int, bound: int) -> GenSeries:
    """The series whose x^beta coefficient is magic(nu, k, beta, eps).

    Valid on the two k-windows of genfun_window; the gap nu <= k <= nu+eps
    between them is rejected.
    """
    return _genfun(nu, k, eps, bound, 0)


def magic_genfun_for3(nu: int, k: int, eps: int, bound: int) -> GenSeries:
    """The series whose x^beta coefficient is q^beta * magic(nu, k-1, beta, eps).

    It is magic_genfun at k-1 with every exponent lambda shifted up by one,
    which multiplies the x^beta coefficient by q^beta.
    """
    return _genfun(nu, k - 1, eps, bound, 1)


# -- identities ---------------------------------------------------------------


def magic_symmetry_check(nu: int, beta: int, eps: int, k: int) -> bool:
    """Check magic(nu, k, beta, eps) == q^(beta*(2k-L)) * magic(nu, L-k, beta, eps)
    with L = 2*nu + eps, on the two windows of genfun_window, which make up
    1 <= k <= L-1 minus the gap nu..nu+eps."""
    if genfun_window(nu, k, eps) is None:
        raise ValueError(f"k={k} is outside both generating-function windows")
    L = 2 * nu + eps
    lhs = magic(nu, k, beta, eps)
    rhs = q_pow(beta * (2 * k - L)) * magic(nu, L - k, beta, eps)
    return lhs == rhs


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


# variant -> (l - 2nu, lowest k - nu); the variant holds for lowest k <= k < l
TELESCOPE_WINDOWS = {"sum": (0, 0), "even_even": (1, 1), "odd_odd": (-1, 0), "odd_even": (0, 0)}


def telescope_window(variant: str, nu: int) -> range:
    """The k-window of a telescope variant at nu; its stop is the length l."""
    if variant not in TELESCOPE_WINDOWS:
        raise ValueError(f"unknown telescope variant {variant!r}")
    dl, dk = TELESCOPE_WINDOWS[variant]
    return range(nu + dk, 2 * nu + dl)


def telescope_sides(variant: str, nu: int, k: int, beta: int) -> tuple[LaurentScalar, LaurentScalar]:
    """Both sides of one of the four telescoping-sum identities, named by the
    parities of the lengths involved, for k in telescope_window(variant, nu)."""
    window = telescope_window(variant, nu)
    ell = window.stop
    if k not in window:
        raise ValueError(f"k={k} outside {window.start}..{ell - 1}")
    sgn_k = sign(k)

    def rhs_sum(ell, weight, mag):
        return lsum(sign(c) * weight(c) * mag(c) for c in range(ell - k, k))

    if variant == "sum":
        lhs = sgn_k * (q_pow(-2 * k) - q_pow(-2 * nu)) * magic(nu, k, beta, 0) * q_pow(k * (k - beta - ell + 1))
        rhs = q_pow(-2 * ell + 2) * rhs_sum(
            ell,
            lambda c: q_pow(c * (c - beta - ell + 3)),
            lambda c: magic(nu, c, beta, -1),
        )
        return lhs, rhs
    if variant == "even_even":
        lhs = (
            sgn_k
            * (q_pow(2 * k) - q_pow(2 * nu))
            * (q_pow(2 * nu) - q_pow(2 * k - 2))
            * magic(nu, k, beta, 1)
            * q_pow(k * (k - beta - ell - 2))
        )
        rhs = rhs_sum(
            ell,
            lambda c: (q_pow(-2 * nu) - q_pow(-2 * c)) * q_pow(c * (c - beta - ell + 4)),
            lambda c: magic(nu, c, beta, 0),
        )
        return lhs, rhs
    if variant == "odd_odd":
        lhs = sgn_k * q_pow(ell - 1) * (ONE - q_pow(2 * beta)) * magic(nu, k, beta, -1) * q_pow(k * (k - beta - ell))
        rhs = rhs_sum(
            ell,
            lambda c: (ONE - q_pow(2 * c + 6 - 4 * nu)) * q_pow(c * (c - beta - ell + 3)),
            lambda c: magic(nu - 1, c, beta - 1, -1),
        )
        return lhs, rhs
    # odd_even
    lhs = (
        sgn_k
        * q_pow(2 * ell - 3)
        * (ONE - q_pow(2 * beta))
        * (q_pow(k - nu) - q_pow(nu - k))
        * magic(nu, k, beta, 0)
        * q_pow(k * (k - beta - ell))
    )
    rhs = rhs_sum(
        ell,
        lambda c: (q_pow(c + 1 - nu) - q_pow(nu - c - 1))
        * (q_pow(ell - 2 - c) - q_pow(c + 2 - ell))
        * q_pow(c * (c - beta - ell + 4)),
        lambda c: magic(nu - 1, c, beta - 1, 0),
    )
    return lhs, rhs


def _reformed_partial_sums(B: int, shift: int, summand, closed_form) -> list[GenSeries]:
    """The loop behind the two reformed partial-sum functions, whose docstrings
    give the summand, closed form and step ratio for shift 1 and 2.  A closed
    form or ratio that fails raises ArithmeticError, which survives -O."""
    if B < 0:
        raise ValueError("B must be nonnegative")
    bound = B + 1
    sums: list[GenSeries] = []
    acc = GenSeries.constant(bound, 0)
    for a in range(B + 1):
        f = GenSeries.constant(bound, sign(a) * summand(a))
        for i in range(1, a + 1):
            f = f.times_linear(ONE, q_pow(-shift - 2 * i))
        for i in range(a, B):
            f = f.times_linear(ONE, q_pow(shift + 2 * i))
        acc = acc + f
        closed = GenSeries.constant(bound, sign(a) * q_pow(-2 * a) * closed_form(a))
        for i in range(2, a + 2):
            closed = closed.times_linear(q_pow(shift + 2 * i), ONE)
        for i in range(a, B):
            closed = closed.times_linear(ONE, q_pow(shift + 2 * i))
        if acc != closed:
            raise ArithmeticError(f"partial-sum closed form fails at a={a}, B={B}")
        if a >= 1:
            lhs = (acc * qnum(a)).times_linear(ONE, q_pow(2 * a - 2 + shift))
            rhs = sums[-1] * (-q_pow(-2) * qnum(a + shift))
            rhs = rhs.times_linear(q_pow(2 * a + 2 + shift), ONE)
            if lhs != rhs:
                raise ArithmeticError(f"partial-sum ratio fails at a={a}, B={B}")
        sums.append(acc)
    return sums


def reformed_telescope_partial_sums(B: int) -> list[GenSeries]:
    """Partial sums PS(0..B) of the single-weight telescoping identity.

    The a-th summand is

        (-1)^a [2a+1] q^(2*binom(a+1,2))
            * prod_{i=1..a} (1 + q^(-1-2i) x) * prod_{i=a..B-1} (1 + q^(1+2i) x)

    and each partial sum is verified on the way against its closed form

        PS(a) = (-1)^a q^(-2a) [a+1]
            * prod_{i=2..a+1} (q^(1+2i) + x) * prod_{i=a..B-1} (1 + q^(1+2i) x)

    as well as against the step ratio
    PS(a)/PS(a-1) = -q^(-2) ([a+1]/[a]) (q^(2a+3) + x)/(1 + q^(2a-1) x).
    """
    return _reformed_partial_sums(
        B, 1,
        lambda a: qnum(2 * a + 1) * q_pow(2 * binom2(a + 1)),
        lambda a: qnum(a + 1),
    )


def reformed_telescope_even_partial_sums(B: int) -> list[GenSeries]:
    """Partial sums of the double-weight variant, with summand

        (-1)^a [a+1][2a+2] q^(2*binom(a+1,2)+a)
            * prod_{i=1..a} (1 + q^(-2-2i) x) * prod_{i=a..B-1} (1 + q^(2+2i) x)

    closed form PS(a) = (-1)^a q^(-2a) [a+1][a+2]
        * prod_{i=2..a+1} (q^(2i+2) + x) * prod_{i=a..B-1} (1 + q^(2+2i) x)

    and step ratio -q^(-2) ([a+2]/[a]) (q^(2a+4) + x)/(1 + q^(2a) x).
    """
    return _reformed_partial_sums(
        B, 2,
        lambda a: qnum(a + 1) * qnum(2 * a + 2) * q_pow(2 * binom2(a + 1) + a),
        lambda a: qnum(a + 1) * qnum(a + 2),
    )
