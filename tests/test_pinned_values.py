"""Pinned values: sha256 digests of every rendered scalar in a window.

The digests were computed with the forward, one-letter-at-a-time oracle, so
any change to how an evaluator computes its values must leave them in place.
"""

import hashlib

from qdemazure.closed_formula import xi_formula
from qdemazure.words import xi_oracle

PINNED_LEN = 12
# The oracle and the closed formula agree exactly, so their digests are equal.
DIGEST = "d340db811c0db9cbecdadb882de53a38174018ffd42c99151134531d3835ce21"


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
