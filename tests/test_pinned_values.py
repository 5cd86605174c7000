"""Pinned values: sha256 digests of every rendered scalar in a window.

The Xi digest was computed with the forward, one-letter-at-a-time oracle, the
magic digests with the plain dict-convolution product of `LaurentScalar`, and
the qbinom digest with the chain of exact divisions
[n-j+1]...[n] / [1]...[j], so any change to how an evaluator or the ring
computes its values must leave them in place.
"""

import hashlib

from qdemazure.closed_formula import xi_formula
from qdemazure.laurent import qbinom
from qdemazure.magic import magic
from qdemazure.words import xi_oracle

PINNED_LEN = 12
# The oracle and the closed formula agree exactly, so their digests are equal.
DIGEST = "d340db811c0db9cbecdadb882de53a38174018ffd42c99151134531d3835ce21"

PINNED_NU = 10
MAGIC_DIGEST = "a2a55db362133f4070c93d8d4b3834af7f049fdbe5bf29c7c83130e2cb45ed2a"
# nu = 11..16 reaches slots wider than the ones nu <= 10 needs.
DEEP_NU = range(11, 17)
DEEP_MAGIC_DIGEST = "6cafa386909165edaa1f7c1cd29a4407c99ea0b97b1d07e9546bb936699d68f8"

QBINOM_TOPS = range(-24, 33)
QBINOM_BOTTOMS = range(-2, 30)
QBINOM_DIGEST = "0d317d5d0630399797a35562ca65d93e738581c636b6961ec0458d28b8359267"


def _digest(xi) -> str:
    """sha256 of one 'a b i k value' line per quadruple with length <= PINNED_LEN."""
    h = hashlib.sha256()
    for ell in range(1, PINNED_LEN + 1):
        for a in range(ell):
            b = ell - 1 - a
            for i in (1, 2, 3):
                for k in range(ell + 1):
                    h.update(f"{a} {b} {i} {k} {xi(a, b, i, k).render()}\n".encode())
    return h.hexdigest()


def test_oracle_values_are_pinned():
    assert _digest(xi_oracle) == DIGEST


def test_formula_values_are_pinned():
    assert _digest(xi_formula) == DIGEST


def _magic_digest(nus) -> str:
    """sha256 of one 'nu k beta eps value' line per 1 <= k <= 2nu+1, 0 <= beta <= nu, eps in {-1, 0, 1}."""
    h = hashlib.sha256()
    for nu in nus:
        for k in range(1, 2 * nu + 2):
            for beta in range(nu + 1):
                for eps in (-1, 0, 1):
                    h.update(f"{nu} {k} {beta} {eps} {magic(nu, k, beta, eps).render()}\n".encode())
    return h.hexdigest()


def test_magic_values_are_pinned():
    """The 2817 values with 2 <= nu <= PINNED_NU."""
    assert _magic_digest(range(2, PINNED_NU + 1)) == MAGIC_DIGEST


def test_deep_magic_values_are_pinned():
    """The 7413 values with 11 <= nu <= 16."""
    assert _magic_digest(DEEP_NU) == DEEP_MAGIC_DIGEST


def test_qbinom_values_are_pinned():
    """sha256 of one 'n j value' line per top n in QBINOM_TOPS and bottom j in QBINOM_BOTTOMS."""
    h = hashlib.sha256()
    for n in QBINOM_TOPS:
        for j in QBINOM_BOTTOMS:
            h.update(f"{n} {j} {qbinom(n, j).render()}\n".encode())
    assert h.hexdigest() == QBINOM_DIGEST
