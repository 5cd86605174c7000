"""
Closed-form evaluation of the word scalars, in every parameter regime.

The standard regime (a, b > 0 and 0 < k < l) is a product of eleven named
factors; the edges (k at 0 or l, b = 0) each have their own much shorter
formula, and the a = 0 column is the b = 0 row pulled through the
bar symmetry.  The dispatcher xi_formula makes the case split explicit and
total.  Agreement with the brute-force oracle over the full sweep window is
what certifies every branch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentScalar, ONE, ZERO, binom2, p_pow, q_pow, qnum, rho_prime, sign, z_pow
from .magic import magic
from .polyring import check_index, check_quadruple, normalize_index
from .words import base_case


@dataclass(frozen=True)
class XiFactors:
    """The named factors of the standard-regime product."""

    mu: LaurentScalar
    gamma1: LaurentScalar
    gamma2: LaurentScalar
    gamma3: LaurentScalar
    kappa1: LaurentScalar
    kappa2: LaurentScalar
    lambda1: LaurentScalar
    lambda2: LaurentScalar
    lambda3: LaurentScalar
    lambda4: LaurentScalar
    lambda5: LaurentScalar

    def product(self) -> LaurentScalar:
        """Fold the eight single-term factors into one monomial, then multiply
        by gamma2, gamma1 and gamma3, so the large product is shifted once."""
        out = ONE
        for name in _PRODUCT_ORDER:
            out = out * getattr(self, name)
        return out


_PRODUCT_ORDER = ("mu", "kappa1", "kappa2", "lambda1", "lambda2", "lambda3", "lambda4", "lambda5",
                  "gamma2", "gamma1", "gamma3")


def factors_standard(a: int, b: int, i: int, k: int) -> XiFactors:
    """All the factors of the standard-regime formula at (a, b, i, k)."""
    check_index(i)
    if a <= 0 or b <= 0:
        raise ValueError("standard regime needs a, b > 0")
    # alpha and beta are the rounded-down halves of a-1 and b-1, so that a is
    # 2*alpha+1 or 2*alpha+2 and likewise for b; phi counts the even members
    # of (a, b), and ell = a+b+1 = 2*nu-1+phi.
    alpha, beta = (a - 1) // 2, (b - 1) // 2
    nu = alpha + beta + 2
    ell = a + b + 1
    phi = (a % 2 == 0) + (b % 2 == 0)
    if not 0 < k < ell:
        raise ValueError(f"k={k} outside the open range 0..{ell}")
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

    return XiFactors(
        mu=sign(beta + k),
        gamma1=rho_prime(alpha) * rho_prime(beta),
        gamma2=gamma2,
        gamma3=gamma3,
        kappa1=z_pow(k) * q_pow(k * (k - beta - ell)),
        kappa2=q_pow(2 * k) if i == 2 else ONE,
        lambda1=z_pow(binom2(beta) - binom2(ell + 1)) * p_pow(-(beta + 1) * (ell + 3 * beta)),
        lambda2=z_pow(beta) if a_odd else z_pow(-beta - 3),
        lambda3=z_pow(ell + 1) if b_odd else ONE,
        lambda4=p_pow((beta + 3) * (phi - 1)),
        lambda5=ONE if i == 1 else (z_pow(ell) if i == 2 else z_pow(-ell)),
    )


def xi_standard(a: int, b: int, i: int, k: int) -> LaurentScalar:
    """The standard-regime value: the product of all named factors."""
    return factors_standard(a, b, i, k).product()


def xi_klen(a: int, b: int, i: int) -> LaurentScalar:
    """The value at k = l for a > 0, b >= 0: zero when b is odd or i = 2, else
    a sign, a power of z, and a single rho_prime factor."""
    check_index(i)
    if a <= 0 or b < 0:
        raise ValueError("this edge needs a > 0 and b >= 0")
    if b % 2 == 1 or i == 2:
        return ZERO
    # here alpha is floor(a/2), so a is 2*alpha or 2*alpha+1, and beta = -1 at b = 0
    alpha, beta, ell = a // 2, (b - 1) // 2 if b > 0 else -1, a + b + 1
    nabla = ONE if i == 1 else -z_pow(-ell)
    zexp = -binom2(ell) + binom2(beta + 1) + ell * (beta + 1)
    return sign(beta + ell) * nabla * z_pow(zexp) * rho_prime(alpha + beta + 1)


def xi_bzero(a: int, i: int, k: int) -> LaurentScalar:
    """The value for b = 0 and 0 < k < l = a+1."""
    check_index(i)
    if a <= 0:
        raise ValueError("this regime needs a > 0")
    ell = a + 1
    if not 0 < k < ell:
        raise ValueError(f"k={k} outside the open range 0..{ell}")
    alpha = (a - 1) // 2
    a_odd = a % 2 == 1
    if i == 1:
        if a_odd:
            return ZERO
        tail = p_pow(-2 * ell)
    elif i == 2:
        tail = p_pow(-3 * k) if a_odd else p_pow(3 * ell - 6 * k - 3)
    else:
        tail = -p_pow(-ell - 3 * k) if a_odd else p_pow(-ell - 3)
    return (
        sign(k + 1)
        * q_pow(2 * binom2(k))
        * z_pow(-binom2(ell))
        * rho_prime(alpha)
        * p_pow(k * (3 * ell - 1))
        * tail
    )


def xi_formula(a: int, b: int, i: int, k: int) -> LaurentScalar:
    """Dispatch to the closed formula for any (a, b, i, k), 0 <= k <= a+b+1.

    Order of the case split: the length-one base cases; k = 0 rewritten as
    k = l with the previous index; a = 0 folded onto b = 0 through the bar
    symmetry, Xi(0, b, i, k) = (-1)^l z^-l bar(Xi(b, 0, -i-1, l-k)); k = l;
    b = 0; and finally the standard regime.
    """
    ell = check_quadruple(a, b, i, k)
    if a == 0 and b == 0:
        return base_case(i, k)
    if k == 0:
        return xi_formula(a, b, normalize_index(i - 1), ell)
    if a == 0:
        return sign(ell) * z_pow(-ell) * xi_formula(b, 0, normalize_index(-i - 1), ell - k).bar()
    if k == ell:
        return xi_klen(a, b, i)
    if b == 0:
        return xi_bzero(a, i, k)
    return xi_standard(a, b, i, k)
