"""
Exact evaluation at roots of unity.

Setting the length to 3m and k to 2m (the operator acting on the staircase
monomial x1^(2m) * x2^m) and sending p to a primitive 6m-th root of unity
(so z goes to a primitive 3m-th root and q to a primitive 2m-th root, with
p^(3m) = -1 = q^m) collapses the closed formula to a short expression: up to
a sign and a power of p it is m^2 times a single quantum binomial evaluated
at the root.

Every value is computed in Z[p^(+-1)] and sent to the root once: specialize
folds the exponents mod 6m and CycElem reduces the result mod Phi_(6m).  The
residue in Z[x]/Phi_(6m)(x) does not depend on which primitive root is chosen,
so every identity that the rou-xi and rou-lemmas sweeps of verify check on
these residues is Galois-stable.  This module only computes values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .closed_formula import xi_formula
from .laurent import LaurentScalar, binom2, exact_div, p_pow, q_pow, qbinom, sign, z_pow
from .polyring import check_index
from .words import xi_oracle


@lru_cache(maxsize=None)
def cyclotomic_poly(N: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the N-th cyclotomic polynomial,
    computed by dividing x^N - 1 by the cyclotomic polynomials of the proper
    divisors of N.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(12)
    (1, 0, -1, 0, 1)
    """
    if N < 1:
        raise ValueError("N must be positive")
    poly = LaurentScalar({0: -1, N: 1})
    for d in range(1, N):
        if N % d == 0:
            poly = exact_div(poly, LaurentScalar(dict(enumerate(cyclotomic_poly(d)))))
    coeffs = poly.coefficients()
    return tuple(coeffs.get(e, 0) for e in range(max(coeffs) + 1))


class CycElem:
    """An element of Z[x]/Phi_(6m)(x), with x the image of p: the value that
    specialize returns.

    The residue is stored densely, constant term first, with fewer
    coefficients than the degree of Phi_(6m).  It has no arithmetic of its
    own; equality and the hash compare (m, residue).
    """

    __slots__ = ("m", "residue")

    def __init__(self, m: int, residue: tuple[int, ...] = ()) -> None:
        if m < 2:
            raise ValueError("m must be at least 2")
        phi = cyclotomic_poly(6 * m)
        deg = len(phi) - 1
        res = list(residue)
        # remainder by the monic Phi_(6m): clear the top coefficients in turn
        for top in range(len(res) - 1, deg - 1, -1):
            c = res[top]
            if c:
                for t in range(deg):
                    res[top - deg + t] -= c * phi[t]
        del res[deg:]
        while res and res[-1] == 0:
            res.pop()
        self.m = m
        self.residue = tuple(res)

    @classmethod
    def zero(cls, m: int) -> CycElem:
        return cls(m)

    def is_zero(self) -> bool:
        return not self.residue

    def __bool__(self) -> bool:
        return bool(self.residue)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycElem):
            return NotImplemented
        return self.m == other.m and self.residue == other.residue

    def __hash__(self) -> int:
        return hash((self.m, self.residue))

    def divisible_by(self, n: int) -> bool:
        """Whether the element is n times another element of the ring."""
        return all(c % n == 0 for c in self.residue)

    def render(self) -> str:
        """The residue as a polynomial in p."""
        return LaurentScalar(dict(enumerate(self.residue))).render()

    def to_json(self) -> dict:
        return {"m": self.m, "residue": list(self.residue)}

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"CycElem(m={self.m}, '{self.render()}')"


def specialize(f: LaurentScalar, m: int) -> CycElem:
    """Send p to a primitive 6m-th root of unity: reduce each exponent mod 6m,
    then reduce the resulting polynomial mod Phi_(6m)."""
    if m < 2:
        raise ValueError("m must be at least 2")
    N = 6 * m
    coeffs = [0] * N
    for e, c in f.coefficients().items():
        coeffs[e % N] += c
    return CycElem(m, tuple(coeffs))


@dataclass(frozen=True)
class RouParams:
    """Derived quantities for the staircase evaluation at level m.

    d is floor(m/2); bottom is d-1 except when m, a and b are all odd, where
    it is d.  alpha and beta are the standard-regime halves of a and b, and
    alpha + beta = m - 1 + bottom always holds.
    """

    m: int
    a: int
    b: int
    alpha: int
    beta: int
    d: int
    bottom: int

    @classmethod
    def from_ma(cls, m: int, a: int) -> RouParams:
        if m < 2:
            raise ValueError("m must be at least 2")
        if not 0 <= a <= 3 * m - 1:
            raise ValueError(f"a={a} out of range 0..{3 * m - 1}")
        b = 3 * m - a - 1
        alpha = (a - 1) // 2
        beta = (b - 1) // 2
        d = m // 2
        bottom = d if (m % 2 and a % 2 and b % 2) else d - 1
        return cls(m, a, b, alpha, beta, d, bottom)

    @property
    def in_nonzero_range(self) -> bool:
        return self.bottom <= self.alpha <= self.m - 1


# The exponent of the power of p that each form leaves over, as a function of
# (beta, d), keyed by (m mod 2, a mod 2).
FORMULA_LEFTOVER_P_EXP = {
    (0, 0): lambda beta, d: -2 * beta**2 - 6 * beta - 4,
    (0, 1): lambda beta, d: -2 * beta**2 - 2 * beta,
    (1, 0): lambda beta, d: -2 * beta**2 - 5 * beta - 3 + 3 * d,
    (1, 1): lambda beta, d: -2 * beta**2 - 3 * beta - 1,
}
COROLLARY_LEFTOVER_P_EXP = {
    (0, 0): lambda beta, d: beta**2 + 3 * beta * d - d - 1,
    (0, 1): lambda beta, d: beta**2 + 3 * beta * d + 4 * beta - 7 * d + 3,
    (1, 0): lambda beta, d: beta**2 - 9 * beta * d - 2 * beta - 7 * d - 2,
    (1, 1): lambda beta, d: beta**2 - 9 * beta * d - 3 * beta - 7 * d - 3,
}


def xi_rou_formula(m: int, a: int, i: int) -> CycElem:
    """The staircase scalar at a primitive root of unity, by the direct formula.

    Zero exactly when a <= m-2 or a >= 2m+1; otherwise a sign, m^2, powers of
    p, and one quantum binomial.  The value does not depend on i.
    """
    check_index(i)
    p = RouParams.from_ma(m, a)
    if a <= m - 2 or a >= 2 * m + 1:
        return CycElem.zero(m)
    value = (
        sign(p.d + a + p.beta)
        * (m * m)
        * z_pow(2 * m)
        * q_pow(binom2(p.d + 1) - binom2(p.alpha + 1) - binom2(p.beta + 1))
        * qbinom(m - 1 - p.bottom, p.beta - p.bottom)
        * p_pow(FORMULA_LEFTOVER_P_EXP[m % 2, a % 2](p.beta, p.d))
    )
    return specialize(value, m)


def xi_rou_corollary(m: int, a: int, i: int) -> CycElem:
    """The same scalar written purely in terms of beta and d; only defined in
    the nonzero range."""
    check_index(i)
    p = RouParams.from_ma(m, a)
    if not p.in_nonzero_range:
        raise ValueError(f"a={a} has alpha={p.alpha} outside {p.bottom}..{m - 1}")
    beta, d = p.beta, p.d
    value = sign(d + beta + 1) * (m * m) * qbinom(m - 1 - p.bottom, beta - p.bottom)
    return specialize(value * p_pow(COROLLARY_LEFTOVER_P_EXP[m % 2, a % 2](beta, d)), m)


def xi_rou_specialized(m: int, a: int, i: int, method: str = "formula") -> CycElem:
    """Specialize a full-length evaluation at (a, 3m-a-1, i, 2m) to the root.

    method 'formula' goes through the closed formula, 'oracle' through the
    brute-force operator composition.
    """
    b = RouParams.from_ma(m, a).b
    if method == "formula":
        return specialize(xi_formula(a, b, i, 2 * m), m)
    if method == "oracle":
        return specialize(xi_oracle(a, b, i, 2 * m), m)
    raise ValueError(f"unknown method {method!r}")
