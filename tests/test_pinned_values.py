"""Pinned values: sha256 digests of every rendered scalar in a window.

The Xi digest was computed with the forward, one-letter-at-a-time oracle, and
the magic digest with the plain dict-convolution product of `LaurentScalar`,
so any change to how an evaluator or the ring computes its values must leave
them in place.
"""

import hashlib

from qdemazure.closed_formula import xi_formula
from qdemazure.magic import magic
from qdemazure.words import xi_oracle

PINNED_LEN = 12
# The oracle and the closed formula agree exactly, so their digests are equal.
DIGEST = "d340db811c0db9cbecdadb882de53a38174018ffd42c99151134531d3835ce21"

PINNED_NU = 10
MAGIC_DIGEST = "a2a55db362133f4070c93d8d4b3834af7f049fdbe5bf29c7c83130e2cb45ed2a"


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


def test_magic_values_are_pinned():
    """sha256 of one 'nu k beta eps value' line for each of the 2817 values with 2 <= nu <= PINNED_NU."""
    h = hashlib.sha256()
    for nu in range(2, PINNED_NU + 1):
        for k in range(1, 2 * nu + 2):
            for beta in range(nu + 1):
                for eps in (-1, 0, 1):
                    h.update(f"{nu} {k} {beta} {eps} {magic(nu, k, beta, eps).render()}\n".encode())
    assert h.hexdigest() == MAGIC_DIGEST
