"""
The polynomial ring Z[z^{±1}][x1, x2, x3] with its deformed reflection action.

The simple reflection s_i acts by s_i(x_i) = z*x_{i+1}, s_i(x_{i+1}) = z^{-1}*x_i
and fixes the remaining variable; indices are cyclic mod 3 (x4 is x1).  On top
of this action sit the degree -1 divided-difference operators

    demazure(i, f) = (f - s_i(f)) / (x_i - z*x_{i+1}),

a geometric series on each monomial x_i^a * x_{i+1}^b (see `demazure_terms`), and
the diagram symmetries sigma (rotation of the indices) and tau (the flip
1 <-> 3 combined with z -> z^{-1}).
"""

from __future__ import annotations

from typing import Mapping

from .laurent import ONE, ZERO, LaurentScalar, z_pow

Exponents = tuple[int, int, int]

OMEGA = (1, 2, 3)


def normalize_index(i: int) -> int:
    """Reduce any integer index into the window {1, 2, 3}."""
    return (i - 1) % 3 + 1


def check_index(i: int) -> int:
    if i not in OMEGA:
        raise ValueError(f"index {i} is not in {{1, 2, 3}}")
    return i


def check_quadruple(a: int, b: int, i: int, k: int) -> int:
    """Check the domain of Xi(a, b, i, k): a, b >= 0, i in {1, 2, 3} and
    0 <= k <= l; return the length l = a+b+1 of the word w(a, b, i)."""
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    check_index(i)
    ell = a + b + 1
    if not 0 <= k <= ell:
        raise ValueError(f"k={k} out of range 0..{ell}")
    return ell


class TriPoly:
    """A polynomial in x1, x2, x3 with LaurentScalar coefficients.

    Stored sparsely as exponent triple -> coefficient; no zero coefficient is
    ever kept, and all exponents are nonnegative.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, LaurentScalar]) -> None:
        for exps in terms:
            if len(exps) != 3 or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent triple {exps}")
        self._terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def monomial(cls, exps: Exponents, coeff: LaurentScalar | int = 1) -> TriPoly:
        c = coeff if isinstance(coeff, LaurentScalar) else LaurentScalar.from_int(coeff)
        return cls({tuple(exps): c})

    @classmethod
    def zero(cls) -> TriPoly:
        return cls({})

    @classmethod
    def one(cls) -> TriPoly:
        return cls({(0, 0, 0): ONE})

    def terms(self) -> dict[Exponents, LaurentScalar]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_scalar(self) -> bool:
        """True iff the only (possibly absent) term is the constant one."""
        return all(e == (0, 0, 0) for e in self._terms)

    def constant_coefficient(self) -> LaurentScalar:
        return self._terms.get((0, 0, 0), ZERO)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: TriPoly) -> TriPoly:
        if not isinstance(other, TriPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, ZERO) + c
        return TriPoly(out)

    def __neg__(self) -> TriPoly:
        return TriPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: TriPoly) -> TriPoly:
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> TriPoly:
        if isinstance(other, (LaurentScalar, int)):
            s = other if isinstance(other, LaurentScalar) else LaurentScalar.from_int(other)
            return TriPoly({e: c * s for e, c in self._terms.items()})
        if isinstance(other, TriPoly):
            out: dict[Exponents, LaurentScalar] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    out[e] = out.get(e, ZERO) + c1 * c2
            return TriPoly(out)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering ----------------------------------------------------------

    @staticmethod
    def _monomial_str(exps: Exponents) -> str:
        factors = []
        for pos, e in enumerate(exps, start=1):
            if e == 1:
                factors.append(f"x{pos}")
            elif e > 1:
                factors.append(f"x{pos}^{e}")
        return "*".join(factors)

    def render(self) -> str:
        """String form like 'x1^2*x2 * (1 + z^3)', terms sorted by degree then exponents."""
        if not self._terms:
            return "0"
        parts = []
        for exps in sorted(self._terms, key=lambda e: (sum(e), e)):
            coeff = self._terms[exps]
            cs = coeff.render_z() if coeff.is_z_element() else coeff.render()
            mono = self._monomial_str(exps)
            if not mono:
                parts.append(f"({cs})" if ("+" in cs or " - " in cs) else cs)
            elif coeff == ONE:
                parts.append(mono)
            else:
                parts.append(f"{mono} * ({cs})")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"TriPoly('{self.render()}')"


def x_var(i: int) -> TriPoly:
    """The generator x_i, for i in {1, 2, 3}."""
    check_index(i)
    exps = [0, 0, 0]
    exps[i - 1] = 1
    return TriPoly.monomial(tuple(exps))


X1, X2, X3 = x_var(1), x_var(2), x_var(3)


def s_action(i: int, f: TriPoly) -> TriPoly:
    """The reflection s_i acting as a ring automorphism (an involution).

    s_i swaps x_i and x_{i+1} up to powers of z and fixes the third variable:
    a monomial x_i^a * x_{i+1}^b picks up the factor z^{a-b}.
    """
    check_index(i)
    pos_i = i - 1
    pos_n = normalize_index(i + 1) - 1
    out: dict[Exponents, LaurentScalar] = {}
    for exps, coeff in f.terms().items():
        ei, en = exps[pos_i], exps[pos_n]
        new = list(exps)
        new[pos_i], new[pos_n] = en, ei
        key = tuple(new)
        term = coeff * z_pow(ei - en)
        out[key] = out.get(key, ZERO) + term
    return TriPoly(out)


def sigma(f: TriPoly) -> TriPoly:
    """The rotation x_i -> x_{i+1}; fixes all scalars (z included)."""
    return TriPoly({(e[2], e[0], e[1]): c for e, c in f.terms().items()})


def tau(f: TriPoly) -> TriPoly:
    """The flip x1 <-> x3 (x2 fixed) combined with bar on every coefficient."""
    return TriPoly({(e[2], e[1], e[0]): c.bar() for e, c in f.terms().items()})


def demazure_terms(i: int, exps: Exponents):
    """The terms of demazure(i, x^exps), as (exponents, sign, z-exponent).

    With a, b the exponents of x_i and x_{i+1}, they are the geometric series
    z^t * x_i^(a-1-t) * x_{i+1}^(b+t) for t < a-b when a > b, minus z^(a-b)
    times the series with a and b swapped when a < b, and none when a = b.

    >>> list(demazure_terms(1, (0, 2, 1)))
    [((1, 0, 1), -1, -2), ((0, 1, 1), -1, -1)]
    """
    check_index(i)
    pos_i = i - 1
    pos_n = normalize_index(i + 1) - 1
    a, b = exps[pos_i], exps[pos_n]
    sgn, shift = 1, 0
    if a < b:
        a, b, sgn, shift = b, a, -1, a - b
    new = list(exps)
    for t in range(a - b):
        new[pos_i], new[pos_n] = a - 1 - t, b + t
        yield tuple(new), sgn, shift + t


def demazure(i: int, f: TriPoly) -> TriPoly:
    """The divided-difference operator (f - s_i(f)) / (x_i - z*x_{i+1}),
    evaluated term by term through demazure_terms."""
    check_index(i)
    out: dict[Exponents, LaurentScalar] = {}
    for exps, coeff in f.terms().items():
        for key, sgn, shift in demazure_terms(i, exps):
            term = coeff * z_pow(shift)
            out[key] = out.get(key, ZERO) + (term if sgn > 0 else -term)
    return TriPoly(out)
