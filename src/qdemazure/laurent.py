"""
Exact arithmetic in the ring of integer Laurent polynomials in the half-variable p.

Three interchangeable variables are in play: p itself, z = p^2 and q = p^-3,
so that p^6 = z^3 = q^-2.  Scalars are always stored by their p-exponents,
because the p-exponent of every quantity in this package is an integer while
the corresponding q- or z-exponent need not be.  Coefficients are Python ints,
hence arbitrary precision.

A scalar never stores a zero coefficient, and every exponent and coefficient
is an int.  The public constructor checks the types and filters the zeros out;
results that are zero-free by construction (a product with a monomial, a
negation, `bar`, the nonzero slots of a dense product or of a packed int read
back, a sum or difference that deletes each key as it cancels) are wrapped
without that copy, as are the monomials and the double loop of a product,
which do their own checks; `lsum` adds any number of scalars into one dict.
Multiplication is one pure-Python kernel with three paths: a shift when an
operand is a monomial, dense rows of coefficients on the common exponent
stride when both operands are large and packed, and the plain double loop for
everything else (see `LaurentScalar.__mul__`).

This module also provides the quantum-number toolkit built on top of that
ring: balanced quantum numbers [k], quantum binomial coefficients, sums of
products of two of them (`qbinom_product_sum`, which the magic sums are), and
the products rho / rho_prime of quantum-integer factors.  The quantum
binomials and their product sums are computed by Kronecker substitution, and
this module alone knows the packed format: a q-polynomial on its exponent
stride is one int with a slot of whole bytes per coefficient, a q-binomial is
packed straight from one exact division of integers (`_packed_qbinom`) and
read back by `_unpack`, the slot width comes from a bound on the
coefficients, and a check at q = 1 raises ArithmeticError if a value reads
back wrong.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from math import comb, gcd, prod
from operator import add, itemgetter, mul, sub
from typing import Iterable, Mapping

# The product kernel lays the longer operand out densely once the shorter one
# has this many terms (the measured crossover against the dict loop), unless a
# dense row would hold more than _DENSE_MAX_SPREAD slots per stored term.
_DENSE_MIN_TERMS = 16
_DENSE_MAX_SPREAD = 3


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder.

    Every division performed by this package is exact for mathematical
    reasons, so this exception signals an implementation bug, never bad
    user input.
    """


class LaurentScalar:
    """
    An integer Laurent polynomial in p, stored sparsely as exponent -> coefficient.

    Values are immutable: every operation returns a fresh scalar, and instances
    hash by their canonical form (no zero coefficients are ever stored).

    >>> p_pow(4) + 1 - 2 * p_pow(-3)
    LaurentScalar('-2*p^-3 + 1 + p^4')
    >>> z_pow(1) == p_pow(2)
    True
    >>> q_pow(2) == z_pow(-3)
    True
    >>> p_pow(3) * p_pow(-3)
    LaurentScalar('1')
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int]) -> None:
        for e, c in coeffs.items():
            if type(e) is not int or type(c) is not int:
                raise TypeError(f"exponent {e!r} and coefficient {c!r} must both be int")
        self._coeffs = {e: c for e, c in coeffs.items() if c != 0}
        self._hash: int | None = None

    @classmethod
    def _wrap(cls, coeffs: dict[int, int]) -> LaurentScalar:
        """Take ownership of a dict already free of zero coefficients, without copying it."""
        out = object.__new__(cls)
        out._coeffs = coeffs
        out._hash = None
        return out

    @classmethod
    def from_int(cls, n: int) -> LaurentScalar:
        n = _check_int(n)
        return cls._wrap({0: n} if n else {})

    def coefficients(self) -> dict[int, int]:
        """The exponent -> coefficient association, as a fresh dict."""
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def is_z_element(self) -> bool:
        """True iff the scalar lies in Z[z^{±1}], i.e. every p-exponent is even."""
        return all(e % 2 == 0 for e in self._coeffs)

    def bar(self) -> LaurentScalar:
        """The ring involution p -> p^-1 (equivalently, z -> z^-1).

        >>> (z_pow(1) + 1).bar()
        LaurentScalar('p^-2 + 1')
        >>> (p_pow(3) - p_pow(-1)).bar()
        LaurentScalar('p^-3 - p')
        """
        return LaurentScalar._wrap({-e: c for e, c in self._coeffs.items()})

    def at_one(self) -> int:
        """Specialize p -> 1 (the sum of the coefficients)."""
        return sum(self._coeffs.values())

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> LaurentScalar | None:
        if isinstance(other, LaurentScalar):
            return other
        if type(other) is int:
            return LaurentScalar._wrap({0: other} if other else {})
        return None

    def __add__(self, other: object) -> LaurentScalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return lsum((self, o))

    __radd__ = __add__

    def __neg__(self) -> LaurentScalar:
        return LaurentScalar._wrap({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: object) -> LaurentScalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _difference(self, o)

    def __rsub__(self, other: object) -> LaurentScalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _difference(o, self)

    def __mul__(self, other: object) -> LaurentScalar:
        """The product, by whichever of three paths suits the operands.

        - One operand is a monomial c0*p^e0: shift and scale the other one.
          Nonzero ints have a nonzero product, so nothing needs filtering.
        - The shorter operand has at least _DENSE_MIN_TERMS terms and both
          sit densely on their common exponent stride g (the q-polynomials
          sit on g = 6): lay the longer one out as a row of coefficients on
          that stride and add one scaled copy of the row per term of the
          shorter one into an accumulator, then keep its nonzero slots.
        - Otherwise (small or sparse operands): the plain double loop.

        >>> (1 + p_pow(6)) * (1 - p_pow(6))
        LaurentScalar('1 - p^12')
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        short, long = self._coeffs, o._coeffs
        if len(short) > len(long):
            short, long = long, short
        if len(short) == 1:
            ((e0, c0),) = short.items()
            return LaurentScalar._wrap({e + e0: c * c0 for e, c in long.items()})
        if len(short) >= _DENSE_MIN_TERMS:
            s_min, l_min, l_max = min(short), min(long), max(long)
            g = gcd(*map(sub, short, repeat(s_min)), *map(sub, long, repeat(l_min)))
            s_span, width = (max(short) - s_min) // g + 1, (l_max - l_min) // g + 1
            if s_span <= _DENSE_MAX_SPREAD * len(short) and width <= _DENSE_MAX_SPREAD * len(long):
                row = list(map(long.get, range(l_min, l_max + 1, g), repeat(0)))
                acc = [0] * (s_span + width - 1)
                for e, c in short.items():
                    i = (e - s_min) // g
                    j = i + width
                    acc[i:j] = map(add, acc[i:j], map(mul, row, repeat(c)))
                base = s_min + l_min
                slots = range(base, base + g * len(acc), g)
                return LaurentScalar._wrap(dict(compress(zip(slots, acc), acc)))
        out: dict[int, int] = {}
        for e1, c1 in short.items():
            for e2, c2 in long.items():
                k = e1 + e2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentScalar._wrap({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._coeffs == o._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            c = self._coeffs  # a constant hashes like the int it equals
            self._hash = hash(c.get(0, 0)) if c.keys() <= {0} else hash(frozenset(c.items()))
        return self._hash

    # -- rendering ----------------------------------------------------------

    @staticmethod
    def _format_terms(terms: list[tuple[int, int]], var: str) -> str:
        parts: list[str] = []
        for e, c in terms:
            sign = " + " if (c > 0 and parts) else " - " if (c < 0 and parts) else "" if c > 0 else "-"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = var if e == 1 else f"{var}^{e}"
                body = power if mag == 1 else f"{mag}*{power}"
            parts.append(sign + body)
        return "".join(parts)

    def render(self) -> str:
        """Canonical string: terms in increasing p-exponent.

        >>> (p_pow(4) + 1 - 2 * p_pow(-3)).render()
        '-2*p^-3 + 1 + p^4'
        """
        if not self._coeffs:
            return "0"
        return self._format_terms(sorted(self._coeffs.items()), "p")

    def render_z(self) -> str:
        """Render in z = p^2; only defined when the scalar lies in Z[z^{±1}].

        >>> (z_pow(3) - z_pow(-1)).render_z()
        '-z^-1 + z^3'
        """
        if not self.is_z_element():
            raise ValueError("scalar has odd p-exponents, cannot render in z")
        if not self._coeffs:
            return "0"
        return self._format_terms(sorted((e // 2, c) for e, c in self._coeffs.items()), "z")

    def to_json(self) -> dict[str, str]:
        """JSON form: exponent string -> decimal coefficient string."""
        return {str(e): str(c) for e, c in sorted(self._coeffs.items())}

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentScalar('{self.render()}')"


ZERO = LaurentScalar({})
ONE = LaurentScalar({0: 1})


def _accumulate(out: dict[int, int], coeffs: Mapping[int, int], op=add) -> bool:
    """Fold coeffs into out with op (add or sub), deleting each key that
    cancels; True when one did."""
    cancelled = False
    for e, c in coeffs.items():
        s = op(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            del out[e]
            cancelled = True
    return cancelled


def lsum(scalars: Iterable[LaurentScalar]) -> LaurentScalar:
    """The sum of the scalars, accumulated in one dict; ZERO when there are none.

    >>> lsum([p_pow(1), 2 * p_pow(3), -p_pow(1)])
    LaurentScalar('2*p^3')
    >>> lsum([]) == ZERO
    True
    """
    it = iter(scalars)
    out = dict(next(it, ZERO)._coeffs)
    cancelled = False
    for f in it:
        cancelled = _accumulate(out, f._coeffs) or cancelled
    return _wrap_sum(out, cancelled)


def _difference(f: LaurentScalar, g: LaurentScalar) -> LaurentScalar:
    out = dict(f._coeffs)
    return _wrap_sum(out, _accumulate(out, g._coeffs, sub))


def _wrap_sum(out: dict[int, int], cancelled: bool) -> LaurentScalar:
    # A dict keeps the table it grew to when keys are deleted, and a cached
    # value would hold that for good: a sum in which terms cancelled is copied
    # into a table of its own size, or is the shared ZERO.
    if not cancelled:
        return LaurentScalar._wrap(out)
    return LaurentScalar._wrap(dict(out.items())) if out else ZERO


def _check_int(n: int) -> int:
    if type(n) is not int:
        raise TypeError(f"expected an int, got {n!r}")
    return n


# -- Kronecker substitution ----------------------------------------------------
#
# A q-polynomial sits on p-exponents low, low+6, low+12, ... (q = p^-3 and its
# powers here come in steps of q^2 = p^-6).  Put y = 2^w for a slot width w of
# whole bytes: the polynomial sum c_i p^(low+6i) becomes the int sum c_i 2^(wi),
# products of polynomials become products of ints, and the coefficients are
# read back from the bytes of the int.  Slots keep two spare bits: with every
# |c_i| < 2^(w-2), adding 2^(w-2) to each slot makes it a nonnegative number
# below 2^(w-1), so no slot borrows from the next.


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for coefficients of absolute value at most bound."""
    return (bound.bit_length() + 9) // 8


def _slot_bias(nbytes: int, slots: int) -> int:
    """The int with 2^(w-2) in each of the slots, w = 8 * nbytes."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x40") * slots, "little")


def _unpack(parts: Iterable[tuple[int, int, int]], nbytes: int) -> LaurentScalar:
    """The sum of the scalars that parts (v, low, slots) stand for: a part is
    sum c_i p^(low+6i) over its slots i, packed as v = sum c_i 2^(wi).

    Parts whose lows agree mod 6 are shifted into place and added as ints, so
    each class of exponents is read back once, as one dict; every coefficient
    of the sum must have |c| < 2^(w-2).
    """
    w = 8 * nbytes
    classes: dict[int, list[int]] = {}  # low mod 6 -> [v, low, slots] of the class's sum
    for v, low, slots in sorted(parts, key=itemgetter(1)):
        acc = classes.setdefault(low % 6, [0, low, 0])
        offset = (low - acc[1]) // 6
        acc[0] += v << (w * offset)
        acc[2] = max(acc[2], offset + slots)
    half = 1 << (w - 2)
    terms = []
    for v, low, slots in classes.values():
        data = (v + _slot_bias(nbytes, slots)).to_bytes(nbytes * slots, "little")
        coeffs = [int.from_bytes(data[i:i + nbytes], "little") - half for i in range(0, len(data), nbytes)]
        terms += compress(zip(range(low, low + 6 * slots, 6), coeffs), coeffs)
    return LaurentScalar._wrap(dict(terms))


def p_pow(n: int) -> LaurentScalar:
    return LaurentScalar._wrap({_check_int(n): 1})


def z_pow(n: int) -> LaurentScalar:
    """z^n = p^(2n)."""
    return LaurentScalar._wrap({2 * _check_int(n): 1})


def q_pow(n: int) -> LaurentScalar:
    """q^n = p^(-3n)."""
    return LaurentScalar._wrap({-3 * _check_int(n): 1})


def sign(n: int) -> LaurentScalar:
    """(-1)^n as a scalar."""
    return ONE if n % 2 == 0 else -ONE


def binom2(n: int) -> int:
    """binomial(n, 2); zero for n in {0, 1}."""
    return n * (n - 1) // 2


def exact_div(f: LaurentScalar, g: LaurentScalar) -> LaurentScalar:
    """Divide f by g in Z[p^{±1}], raising ExactDivisionError on any remainder."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero scalar")
    if f.is_zero():
        return ZERO
    num = f.coefficients()
    den = g.coefficients()
    g_max = max(den)
    g_lead = den[g_max]
    # Exponents in an exact quotient are bounded below by this.
    q_floor = min(num) - min(den)
    quot: dict[int, int] = {}
    while num:
        f_max = max(num)
        q_exp = f_max - g_max
        c = num[f_max]
        if q_exp < q_floor or c % g_lead != 0:
            raise ExactDivisionError(f"({f}) is not divisible by ({g})")
        q_coeff = c // g_lead
        quot[q_exp] = q_coeff
        for e, d in den.items():
            k = e + q_exp
            r = num.get(k, 0) - q_coeff * d
            if r:
                num[k] = r
            else:
                num.pop(k, None)
    return LaurentScalar(quot)


@lru_cache(maxsize=None)
def qnum(k: int) -> LaurentScalar:
    """The balanced quantum number [k] = q^{k-1} + q^{k-3} + ... + q^{1-k}.

    Odd under negation: [−k] = −[k], and [0] = 0, [1] = 1.

    >>> qnum(2) == q_pow(1) + q_pow(-1)
    True
    >>> qnum(-3) == -(q_pow(2) + 1 + q_pow(-2))
    True
    """
    if k < 0:
        return -qnum(-k)
    return LaurentScalar({-3 * (k - 1 - 2 * t): 1 for t in range(k)})


def _positive_top(n: int, j: int) -> tuple[int, int]:
    """(top, s) with qbinom(n, j) == s * qbinom(top, j) and top >= 0, for j >= 0:
    the negative-top sign rule qbinom(-d-1, j) == (-1)^j * qbinom(d+j, j)."""
    return (n, 1) if n >= 0 else (j - n - 1, -1 if j % 2 else 1)


def _binomial(n: int, j: int) -> int:
    """binomial(n, j) as a polynomial in n (zero for j < 0): qbinom(n, j) at q = 1,
    whose coefficients share one sign and so sum to |binomial(n, j)| in absolute value."""
    top, s = _positive_top(n, j)
    return s * comb(top, j) if j >= 0 else 0


def _check_at_one(value: LaurentScalar, expected: int, what: str) -> LaurentScalar:
    """Return value if it specializes to expected at q = 1; raise ArithmeticError,
    which survives -O, if it does not (a slot too narrow for its coefficient)."""
    got = value.at_one()
    if got != expected:
        raise ArithmeticError(f"{what} is {got} at q = 1, not {expected}")
    return value


# The packed q-binomials of qbinom_product_sum, by (top, bottom, bytes per
# slot), with the least recently used dropped beyond 1,024.  recursions at
# l <= 20 plus magic-recursion at nu <= 12 reach 1,089 of them, four rounds of
# mixed xi and magic queries about 2,300; the long tops those rounds add cost
# ~600 bytes each to keep and ~75 us to compute again.
@lru_cache(maxsize=1024)
def _packed_qbinom(n: int, j: int, nbytes: int) -> tuple[int, int, int]:
    """qbinom(n, j) packed at nbytes bytes per slot, as a part (v, low, slots)
    of _unpack; only for a nonzero qbinom(n, j), i.e. j >= 0 and not 0 <= n < j.

    The Gaussian binomial in y = q^2, (y^{m+1} - 1)...(y^{m+r} - 1) /
    (y - 1)...(y^r - 1) with r = min(j, top - j) and m = top - r, is evaluated
    at y = 2^w as one exact division of integers, and the quotient is already
    the packed value: its coefficients sit in the slots.  A negative top
    contributes its sign.
    """
    top, s = _positive_top(n, j)
    r = min(j, top - j)  # qbinom(top, j) == qbinom(top, top - j)
    m = top - r
    w = 8 * nbytes
    num = prod((1 << w * (m + t)) - 1 for t in range(1, r + 1))
    den = prod((1 << w * t) - 1 for t in range(1, r + 1))
    val, rem = divmod(num, den)
    if rem:
        raise ExactDivisionError(f"the Gaussian binomial ({top}, {j}) left a remainder at y = 2^{w}")
    return s * val, -3 * r * m, r * m + 1


@lru_cache(maxsize=None)
def qbinom(n: int, j: int) -> LaurentScalar:
    """The balanced quantum binomial coefficient, defined for any integer top.

    It is q^{-j(n-j)} times the Gaussian binomial in y = q^2, packed at the
    slot width its coefficients need (see _packed_qbinom), read back and
    checked at q = 1.  It is 0 for j < 0 and for 0 <= n < j, and follows the
    negative-top sign rule qbinom(-d-1, j) == (-1)^j * qbinom(d+j, j).

    >>> qbinom(2, 1) == qnum(2)
    True
    >>> qbinom(-3, 2) == qbinom(4, 2)
    True
    >>> qbinom(6, 3).at_one()
    20
    """
    if j < 0 or 0 <= n < j:
        return ZERO
    expected = _binomial(n, j)
    nbytes = _slot_bytes(abs(expected))
    # Uncached, so that the values qbinom's own cache keeps do not also fill
    # the 1,024 entries of _packed_qbinom.
    out = _unpack([_packed_qbinom.__wrapped__(n, j, nbytes)], nbytes)
    return _check_at_one(out, expected, f"qbinom({n}, {j})")


def qbinom_product_sum(terms: Iterable[tuple[int, int, int, int, int]], what: str) -> LaurentScalar:
    """The sum of qbinom(n1, j1) * qbinom(n2, j2) * p^shift over the tuples
    (n1, j1, n2, j2, shift) of terms.

    Each product of two packed q-binomials is one product of ints, the
    products are added as ints, one per class of exponents mod 6, and read
    back once.  The slots are as wide as the sum of the absolute values of the
    terms at q = 1, which bounds every coefficient of the sum; the sum is
    checked at q = 1 against the sum of those values, and an ArithmeticError
    naming what is raised if it reads back wrong.

    >>> qbinom_product_sum([(2, 1, 3, 1, 0)], "[2]*[3]") == qnum(2) * qnum(3)
    True
    """
    at_one = [(_binomial(n1, j1) * _binomial(n2, j2), n1, j1, n2, j2, shift)
              for n1, j1, n2, j2, shift in terms]
    at_one = [t for t in at_one if t[0]]
    nbytes = _slot_bytes(sum(abs(t[0]) for t in at_one))
    products = []
    for _, n1, j1, n2, j2, shift in at_one:
        va, low_a, slots_a = _packed_qbinom(n1, j1, nbytes)
        vb, low_b, slots_b = _packed_qbinom(n2, j2, nbytes)
        products.append((va * vb, low_a + low_b + shift, slots_a + slots_b - 1))
    return _check_at_one(_unpack(products, nbytes), sum(t[0] for t in at_one), what)


@lru_cache(maxsize=None)
def rho(d: int) -> LaurentScalar:
    """The product (q^1 - q^-1)(q^2 - q^-2)...(q^d - q^-d); rho(0) = 1."""
    if d < 0:
        raise ValueError("rho needs d >= 0")
    return ONE if d == 0 else rho(d - 1) * (q_pow(d) - q_pow(-d))


@lru_cache(maxsize=None)
def rho_prime(d: int) -> LaurentScalar:
    """The product (1 - q^-2)(1 - q^-4)...(1 - q^-2d).

    Equals q^{-binom(d+1,2)} * rho(d).  The value d = -1 is accepted and gives
    the empty product 1, which is what the length-edge closed formulas need
    when b = 0.
    """
    if d < -1:
        raise ValueError("rho_prime needs d >= -1")
    return ONE if d <= 0 else rho_prime(d - 1) * (ONE - q_pow(-2 * d))
