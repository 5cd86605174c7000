import sys

import pytest

from qdemazure.closed_formula import xi_formula
from qdemazure.laurent import ONE, ZERO, z_pow
from qdemazure.words import _xi_recursive, base_case, build_word, dual_rows, xi_forward, xi_oracle, xi_recursive


def all_abi(max_len):
    for ell in range(1, max_len + 1):
        for a in range(ell):
            b = ell - 1 - a
            for i in (1, 2, 3):
                yield a, b, i


def test_build_word_examples():
    assert build_word(3, 5, 2) == (1, 2, 3, 1, 3, 2, 1, 3, 2)
    assert build_word(0, 0, 2) == (2,)
    assert build_word(0, 0, 1) == (1,)
    # clockwise word of length a+1 when b = 0, widdershins of length b+1 when a = 0
    assert build_word(3, 0, 2) == (2, 3, 1, 2)
    assert build_word(0, 3, 2) == (2, 1, 3, 2)


def test_build_word_long_example():
    # the 12-letter sequence printed for (7,5,1) in the source text belongs to
    # (6,5,1); the definition forces length a+b+1
    assert build_word(6, 5, 1) == (3, 1, 2, 3, 1, 2, 3, 2, 1, 3, 2, 1)
    w751 = build_word(7, 5, 1)
    assert len(w751) == 13
    assert w751 == (2,) + build_word(6, 5, 1)


def test_build_word_invariants():
    for a, b, i in all_abi(9):
        w = build_word(a, b, i)
        assert len(w) == a + b + 1
        assert w[-1] == i
        # no letter repeats adjacently (words are reduced)
        assert all(x != y for x, y in zip(w, w[1:]))


def test_build_word_parametrization_unique():
    seen = {}
    for a, b, i in all_abi(7):
        letters = build_word(a, b, i)
        assert letters not in seen, (seen[letters], (a, b, i))
        seen[letters] = (a, b, i)


def test_build_word_rejects_bad_input():
    with pytest.raises(ValueError):
        build_word(-1, 0, 1)
    with pytest.raises(ValueError):
        build_word(0, 0, 4)


def test_xi_oracle_examples():
    assert xi_oracle(0, 0, 2, 0) == ONE
    assert xi_oracle(1, 1, 1, 3) == ZERO
    assert xi_oracle(1, 1, 1, 2) == ONE
    assert xi_oracle(0, 0, 1, 0) == -z_pow(-1)


def test_xi_oracle_rejects_bad_k():
    with pytest.raises(ValueError):
        xi_oracle(1, 1, 1, 4)
    with pytest.raises(ValueError):
        xi_oracle(1, 1, 1, -1)


@pytest.mark.parametrize("args, message", [
    ((-1, 2, 1, 0), "a and b must be nonnegative"),
    ((2, -1, 1, 0), "a and b must be nonnegative"),
    ((-1, 1, 1, 9), "a and b must be nonnegative"),
    ((1, 1, 4, 1), "index 4 is not in {1, 2, 3}"),
    ((1, 1, 1, 4), "k=4 out of range 0..3"),
    ((1, 1, 1, -1), "k=-1 out of range 0..3"),
])
def test_evaluators_reject_the_same_domain(args, message):
    for xi in (xi_oracle, xi_forward, xi_recursive, xi_formula):
        with pytest.raises(ValueError) as exc:
            xi(*args)
        assert str(exc.value) == message, xi.__name__


def test_chains_cover_every_word_once():
    for L in range(1, 11):
        seen = [(a, b, i) for a in range(L) for j in (1, 2, 3)
                for b, i, _ in dual_rows(a, j, range(a + 1, L + 1))]
        assert sorted(seen) == sorted(all_abi(L)), L
    # the long pass carries no state from one prefix length into the next row
    for a in range(10):
        for j in (1, 2, 3):
            for b, i, row in dual_rows(a, j, range(a + 1, 11)):
                assert list(row) == [xi_oracle(a, b, i, k) for k in range(a + b + 2)], (a, b, i)


def test_dual_rows_skip_lengths_not_asked_for():
    rows = list(dual_rows(2, 3, [4, 7]))
    assert [(b, i) for b, i, _ in rows] == [(1, 3), (4, 3)]
    assert rows[1][2] == tuple(xi_oracle(2, 4, 3, k) for k in range(8))
    with pytest.raises(ValueError, match="nonnegative"):
        next(dual_rows(2, 3, [2]))


def test_xi_oracle_truncation_equivalence():
    for a, b, i in all_abi(6):
        ell = a + b + 1
        for k in range(ell + 1):
            assert xi_oracle(a, b, i, k) == xi_forward(a, b, i, k)


def test_base_case_table():
    assert base_case(1, 1) == ONE
    assert base_case(2, 0) == ONE
    assert base_case(2, 1) == ZERO
    assert base_case(3, 0) == ZERO
    assert base_case(1, 0) == base_case(3, 1) == -z_pow(-1)
    with pytest.raises(ValueError):
        base_case(1, 2)


def test_xi_recursive_examples():
    # i = 2, k = l is always zero
    assert xi_recursive(2, 3, 2, 6) == ZERO
    assert xi_recursive(0, 0, 1, 1) == ONE
    assert xi_recursive(3, 5, 2, 4) == xi_oracle(3, 5, 2, 4)


def test_xi_recursive_matches_oracle():
    for a, b, i in all_abi(7):
        ell = a + b + 1
        for k in range(ell + 1):
            assert xi_recursive(a, b, i, k) == xi_oracle(a, b, i, k), (a, b, i, k)


def test_xi_oracle_symmetries():
    for a, b, _ in all_abi(6):
        ell = a + b + 1
        for k in range(ell + 1):
            assert xi_oracle(a, b, 1, k) == -z_pow(2 * k - ell) * xi_oracle(a, b, 1, ell - k)
            assert xi_oracle(a, b, 2, k) == -z_pow(ell - k) * xi_oracle(a, b, 3, ell - k)
        for i in (1, 2, 3):
            nxt = i % 3 + 1
            assert xi_oracle(a, b, i, ell) == xi_oracle(a, b, nxt, 0)
        if ell % 2 == 0:
            assert xi_oracle(a, b, 1, ell // 2) == ZERO


def test_xi_oracle_bar_symmetry():
    for c in range(0, 6):
        ell = c + 1
        sgn = 1 if ell % 2 == 0 else -1
        for i in (1, 2, 3):
            flipped = (-i - 1 - 1) % 3 + 1
            for k in range(ell + 1):
                lhs = xi_oracle(c, 0, i, k).bar()
                rhs = sgn * z_pow(ell) * xi_oracle(0, c, flipped, ell - k)
                assert lhs == rhs


def test_values_live_in_z_ring():
    for a, b, i in all_abi(6):
        ell = a + b + 1
        for k in range(ell + 1):
            assert xi_oracle(a, b, i, k).is_z_element()


def test_xi_recursive_survives_a_shallow_stack():
    """A word deeper than the stack allows is still evaluated, not refused
    with RecursionError."""
    want = xi_formula(1, 25, 2, 3)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(depth + 200)
        _xi_recursive.cache_clear()
        assert xi_recursive(1, 25, 2, 3) == want
    finally:
        sys.setrecursionlimit(limit)
        _xi_recursive.cache_clear()
