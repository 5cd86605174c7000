"""
Words w(a, b, i) in the affine Weyl group and the scalars they compute.

Every non-identity group element has a unique reduced expression consisting of
a clockwise run of length a, a single peak letter, and a widdershins run of
length b ending in i.  Applying the corresponding composite divided-difference
operator to the monomial x1^k * x2^(l-k) of matching degree l = a+b+1 produces
a scalar in Z[z^{±1}]; this module computes that scalar two independent ways:

* xi_oracle       -- brute force, by the transposed composition: the constant-
                     term functional is pulled back through the word one
                     divided-difference operator at a time, leftmost letter
                     first.  Every word is a prefix of one (a, j) chain
                     (_chain), so one pass along a chain gives every k of
                     every word on it (dual_rows); xi_forward pushes each
                     monomial forward through the operators instead, keeping
                     every term, as the reference the dual is checked against;
* xi_recursive    -- structural recursion on (a, b, i, k) through the length-
                     reducing recursion formulas and the four symmetries,
                     stated once in recursion_step.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentScalar, ZERO, ONE, lsum, sign, z_pow
from .polyring import TriPoly, check_quadruple, demazure, demazure_terms, normalize_index, check_index


def _chain(a: int, j: int, length: int) -> tuple[int, ...]:
    """The first `length` letters of the (a, j) chain: a clockwise run of
    length a up to j, the peak j+1, then j, j-1, j-2, ... .  Its prefix of
    length a+b+1 is w(a, b, i), with i = j - b + 1 mod 3."""
    return tuple(normalize_index(j - a + 1 + t if t < a else j + 1 + a - t) for t in range(length))


def build_word(a: int, b: int, i: int) -> tuple[int, ...]:
    """Construct w(a, b, i): the prefix of length a+b+1 of the (a, j) chain,
    where j = i + b - 1 mod 3, so that its widdershins run of length b ends in i.

    >>> build_word(3, 5, 2)
    (1, 2, 3, 1, 3, 2, 1, 3, 2)
    >>> build_word(0, 0, 2)
    (2,)
    """
    check_quadruple(a, b, i, 0)  # k = 0 lies in the range of every word
    letters = _chain(a, normalize_index(i + b - 1), a + b + 1)
    if letters[-1] != i:
        raise RuntimeError(f"build_word({a},{b},{i}) gave {letters}")
    return letters


def xi_oracle(a: int, b: int, i: int, k: int) -> LaurentScalar:
    """The scalar of w(a, b, i) on x1^k * x2^(l-k): entry k of the one dual
    row that the chain of the word yields at its length (dual_rows)."""
    ell = check_quadruple(a, b, i, k)
    ((_, _, row),) = dual_rows(a, normalize_index(i + b - 1), range(ell, ell + 1))
    return row[k]


def xi_forward(a: int, b: int, i: int, k: int) -> LaurentScalar:
    """The same scalar by the forward composition, rightmost letter first,
    keeping every term: the reference the dual, which drops x1*x2*x3
    multiples, is checked against."""
    ell = check_quadruple(a, b, i, k)
    f = TriPoly.monomial((k, ell - k, 0))
    for letter in reversed(build_word(a, b, i)):
        f = demazure(letter, f)
    if not f.is_scalar():
        raise RuntimeError(f"xi_forward({a},{b},{i},{k}) did not reduce to a scalar: {f}")
    value = f.constant_coefficient()
    if not value.is_z_element():
        raise RuntimeError(f"xi_forward({a},{b},{i},{k}) left the ring Z[z^(+-1)]: {value}")
    return value


def dual_rows(a: int, j: int, lengths):
    """Stream the dual rows along the (a, j) chain, in one pass up to
    lengths[-1]: for each prefix length l in the increasing `lengths` (each at
    least a+1), yield (b, i, row) with w(a, b, i) that prefix and
    row[k] = xi_oracle(a, b, i, k) for k = 0..l.

    With phi_0 the constant term and phi_j(m) = phi_(j-1)(demazure(w_j, m)) for
    the letters w_j from the leftmost one, the scalar is phi_l(x1^k x2^(l-k)).
    Each phi_j is tabulated on the degree-j monomials that x1*x2*x3 does not
    divide, since no composite of the operators takes a multiple of x1*x2*x3
    to a nonzero scalar; its values stay flat z-exponent -> int dicts.  Only
    the rows of the given lengths are built, and none is kept.
    """
    check_quadruple(a, lengths[0] - a - 1, j, 0)  # the shortest word asked for
    phi: dict[tuple[int, int, int], dict[int, int]] = {(0, 0, 0): {0: 1}}
    for deg, letter in enumerate(_chain(a, j, lengths[-1]), start=1):
        nxt = {}
        for m in _x123_free_monomials(deg):
            acc: dict[int, int] = {}
            for exps, sgn, shift in demazure_terms(letter, m):
                for e, c in phi.get(exps, {}).items():
                    acc[e + shift] = acc.get(e + shift, 0) + sgn * c
            acc = {e: c for e, c in acc.items() if c}
            if acc:
                nxt[m] = acc
        phi = nxt
        if deg in lengths:  # z = p^2: LaurentScalar stores p-exponents
            yield deg - a - 1, letter, tuple(
                LaurentScalar({2 * e: c for e, c in phi.get((k, deg - k, 0), {}).items()})
                for k in range(deg + 1))


def _x123_free_monomials(deg: int) -> list[tuple[int, int, int]]:
    """The exponent triples of degree deg with a zero entry (3*deg of them for deg >= 1)."""
    return [(e1, e2, deg - e1 - e2) for e1 in range(deg + 1) for e2 in range(deg + 1 - e1)
            if min(e1, e2, deg - e1 - e2) == 0]


# Values of the length-one operators on degree-one monomials, i.e. the
# recursion's base layer.  The two -z^{-1} entries are the exact quotients of
# the defining operators; the `calibration` verify suite rederives them and
# shows they are forced by the k <-> l-k symmetries.
_BASE_CASES: dict[tuple[int, int], LaurentScalar] = {
    (1, 0): -z_pow(-1),
    (1, 1): ONE,
    (2, 0): ONE,
    (2, 1): ZERO,
    (3, 0): ZERO,
    (3, 1): -z_pow(-1),
}


def base_case(i: int, k: int) -> LaurentScalar:
    """The scalar for a = b = 0, where the word is the single letter (i)."""
    check_index(i)
    if k not in (0, 1):
        raise ValueError("base case needs k in {0, 1}")
    return _BASE_CASES[(i, k)]


def xi_recursive(a: int, b: int, i: int, k: int) -> LaurentScalar:
    """Evaluate the scalar by structural recursion, memoized on (a, b, i, k):
    the fixed point of recursion_step.  A word too deep for the stack is
    retried once the words it reads are cached, shortest first: (r, 0) for
    r < a (r <= b when a = 0), then (a, c) for c < b."""
    check_quadruple(a, b, i, k)
    try:
        return _xi_recursive(a, b, i, k)
    except RecursionError:
        for a2, b2 in [(r, 0) for r in range(a or b + 1)] + [(a, c) for c in range(b) if a]:
            for k2 in range(a2 + b2 + 2):
                for i2 in (1, 2, 3):
                    _xi_recursive(a2, b2, i2, k2)
        return _xi_recursive(a, b, i, k)


@lru_cache(maxsize=None)
def _xi_recursive(a: int, b: int, i: int, k: int) -> LaurentScalar:
    return recursion_step(_xi_recursive, a, b, i, k)


def recursion_step(xi, a: int, b: int, i: int, k: int) -> LaurentScalar:
    """One step of the structural recursion at (a, b, i, k), asking xi(a, b, i, k)
    for every other value it needs; xi_recursive is its fixed point.

    Dispatch order: base cases; k = 0 normalized to k = l with i-1; the a = 0
    column folded onto b = 0 through the bar symmetry; i = 3 folded onto i = 2;
    small k folded onto large k for i = 1; then the length-reducing recursion
    formulas (plain, b = 0 variants, and the k = l-1 special cases).
    """
    ell = a + b + 1
    if a == 0 and b == 0:
        return _BASE_CASES[(i, k)]
    if k == 0:
        return xi(a, b, normalize_index(i - 1), ell)
    if a == 0:
        return sign(ell) * z_pow(-ell) * xi(b, 0, normalize_index(-i - 1), ell - k).bar()
    if i == 3:
        return -z_pow(-k) * xi(a, b, 2, ell - k)
    if i == 1:
        if 2 * k < ell:
            return -z_pow(2 * k - ell) * xi(a, b, 1, ell - k)
        return lsum(z_pow(k - 1 - c) * (xi(a, b - 1, 2, c) if b > 0 else xi(a - 1, 0, 3, c))
                    for c in range(ell - k, k))
    # i == 2
    if k == ell:
        return ZERO
    if k == ell - 1:
        if b > 0:
            return xi(a, b - 1, 3, ell - 1)
        return xi(a - 1, 0, 1, ell - 1)
    if b > 0:
        return xi(a, b - 1, 3, k) - z_pow(2 * ell - 3 * k - 2) * xi(a, b - 1, 1, k)
    return xi(a - 1, 0, 1, k) - z_pow(ell - 1) * xi(a - 1, 0, 3, k)
