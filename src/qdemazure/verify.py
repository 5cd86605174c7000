"""
Identity sweeps: every algebraic fact the package relies on, run exhaustively
over a bounded parameter window and reported with counterexamples.

Each suite is a function taking the shared Bounds plus a worker count; it
records every check into the VerifyReport it returns.  Reports are
deterministic for fixed bounds: run_suite sorts the counterexamples, and the
only nondeterministic field is the timestamp added at serialization time.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from math import comb

from . import closed_formula as cf
from . import rou
from .laurent import (
    ONE, ZERO, LaurentScalar, binom2, exact_div, lsum, p_pow, q_pow, qbinom, qnum, rho, rho_prime,
    sign, z_pow,
)
from .magic import (
    REFORMED,
    TELESCOPES,
    chu_vandermonde_special,
    gen_interval_Xprime,
    genfun_window,
    magic,
    magic_genfun,
    magic_recursion_sides,
    magic_symmetry_sides,
    reformed_telescope_sides,
    telescope_sides,
    telescope_window,
    xprime_difference,
)
from .polyring import TriPoly, demazure, normalize_index, s_action, sigma, tau, x_var
from .report import VerifyReport
from .words import dual_rows, recursion_step, xi_forward, xi_oracle, xi_recursive


@dataclass
class Bounds:
    """Sweep bounds; None means the suite's default."""

    max_len: int | None = None
    max_nu: int | None = None
    max_m: int | None = None

    def len_(self, default: int) -> int:
        return self.max_len if self.max_len is not None else default

    def nu(self, default: int) -> int:
        return self.max_nu if self.max_nu is not None else default

    def m(self, default: int) -> int:
        return self.max_m if self.max_m is not None else default


def _monomials(max_deg: int) -> list[TriPoly]:
    out = []
    for d in range(max_deg + 1):
        for e1 in range(d + 1):
            for e2 in range(d - e1 + 1):
                out.append(TriPoly.monomial((e1, e2, d - e1 - e2)))
    return out


def _formula_layer(ell: int) -> dict[tuple[int, int, int, int], LaurentScalar]:
    """The closed formula at every (a, b, i, k) of length ell = a+b+1, keyed by
    that quadruple: the formula sweeps go one length at a time and read each
    value from here, so none is computed twice."""
    return {(a, ell - 1 - a, i, k): cf.xi_formula(a, ell - 1 - a, i, k)
            for a in range(ell) for i in (1, 2, 3) for k in range(ell + 1)}


# -- suite: operator relations -------------------------------------------------


def suite_relations(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    """Quadratic, braid, twisted Leibniz, antiinvariance and the sigma/tau
    intertwiners, exhaustively over monomials of degree at most 6."""
    max_deg = 6
    rec = VerifyReport("relations", {"max_deg": max_deg})
    monos = _monomials(max_deg)
    z1 = z_pow(1)
    for f in monos:
        for i in (1, 2, 3):
            j = normalize_index(i + 1)
            rec.eq(("dd-zero", i, _mono_key(f)), demazure(i, demazure(i, f)), TriPoly.zero())
            rec.eq(
                ("braid", i, _mono_key(f)),
                demazure(i, demazure(j, demazure(i, f))) * z1,
                demazure(j, demazure(i, demazure(j, f))),
            )
            rec.eq(("anti", i, _mono_key(f)), demazure(i, f), -demazure(i, s_action(i, f)))
            rec.eq(("sigma", i, _mono_key(f)), sigma(demazure(i, f)), demazure(j, sigma(f)))
            rec.eq(
                ("tau", i, _mono_key(f)),
                tau(demazure(i, f)),
                demazure(normalize_index(-i), tau(f)) * (-z1),
            )
    for f, g in itertools.product(monos, monos):
        if sum(_mono_key(f)) + sum(_mono_key(g)) > max_deg:
            continue
        for i in (1, 2, 3):
            rec.eq(
                ("leibniz", i, _mono_key(f), _mono_key(g)),
                demazure(i, f * g),
                demazure(i, f) * g + s_action(i, f) * demazure(i, g),
            )
    return rec


def _mono_key(f: TriPoly) -> tuple:
    return next(iter(f.terms()))


# -- suite: the four symmetries -------------------------------------------------


def suite_symmetries(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    """The two k <-> l-k reflections, the rotation and the bar flip on
    closed-formula values, each identity checked once:

    - k-reflect-1 at k and at l-k is one identity times -z^(2k-l), and at
      2k = l it reads xi = -xi, which is midpoint-zero; so it runs at 2k > l.
    - xi_formula defines its k = 0 values by the rotation and its a = 0 values
      by the bar flip, so at l >= 2 both would compare a value with the fold
      that defines it.  They run at l = 1, on the base-case table; the oracle
      checks every folded value in formula-vs-oracle.  The bar flip at (i, k)
      and at (-i-1, 1-k) is one identity under bar, so it runs at k = 0.
    """
    max_len = bounds.len_(12)
    rec = VerifyReport("symmetries", {"max_len": max_len})
    for ell in range(1, max_len + 1):
        xi = _formula_layer(ell)
        for a in range(ell):
            b = ell - 1 - a
            for k in range(ell // 2 + 1, ell + 1):
                rec.eq(("k-reflect-1", a, b, k), xi[a, b, 1, k],
                       -z_pow(2 * k - ell) * xi[a, b, 1, ell - k])
            for k in range(ell + 1):
                rec.eq(("k-reflect-23", a, b, k), xi[a, b, 2, k],
                       -z_pow(ell - k) * xi[a, b, 3, ell - k])
            if ell % 2 == 0:
                rec.eq(("midpoint-zero", a, b), xi[a, b, 1, ell // 2], ZERO)
        if ell == 1:
            for i in (1, 2, 3):
                rec.eq(("rotate", 0, 0, i), xi[0, 0, i, 1], xi[0, 0, normalize_index(i + 1), 0])
                rec.eq(("bar-flip", 0, i, 0), xi[0, 0, i, 0].bar(),
                       -z_pow(1) * xi[0, 0, normalize_index(-i - 1), 1])
    return rec


# -- suite: recursion formulas --------------------------------------------------


def suite_recursions(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    """The seven length-reducing recursion formulas on closed-formula values over
    the sweep window: each check is xi_formula against the recursion_step that
    xi_recursive runs, asked of xi_formula.  A step at length l reads values of
    lengths l and l-1 only, so the sweep keeps two layers of values."""
    max_len = bounds.len_(12)
    rec = VerifyReport("recursions", {"max_len": max_len})
    values: dict = {}

    def xi(a: int, b: int, i: int, k: int) -> LaurentScalar:
        return values[a, b, i, k]

    def step(label: tuple, a: int, b: int, i: int, k: int) -> None:
        rec.eq(label, xi(a, b, i, k), recursion_step(xi, a, b, i, k))

    for ell in range(1, max_len + 1):
        layer = _formula_layer(ell)
        values.update(layer)
        for a in range(ell):
            b = ell - 1 - a
            rec.eq(("i2-top-zero", a, b), xi(a, b, 2, ell), ZERO)
            if a == 0:
                continue
            tag, key = ("", (a, b)) if b > 0 else ("-b0", (a,))
            for k in range(1, ell - 1):
                step(("i2-step" + tag, *key, k), a, b, 2, k)
            for k in range((ell + 1) // 2, ell + 1):
                step(("i1-sum" + tag, *key, k), a, b, 1, k)
            step(("i2-special" + tag, *key), a, b, 2, ell - 1)
        values = layer  # let length ell-1 go before building ell+1
    return rec


# -- suite: formula vs oracle vs recursion ---------------------------------------


def _triple_equal_unit(args: tuple[int, int, int]) -> VerifyReport:
    """The three checks at every word of the (a, j) chain up to length max_len."""
    a, j, max_len = args
    rec = VerifyReport("formula-vs-oracle", {"a": a, "j": j, "max_len": max_len})
    for b, i, row in dual_rows(a, j, range(a + 1, max_len + 1)):
        ell = a + b + 1
        for k, oracle in enumerate(row):
            rec.eq(("formula-vs-oracle", a, b, i, k), cf.xi_formula(a, b, i, k), oracle)
            rec.eq(("recursion-vs-oracle", a, b, i, k), xi_recursive(a, b, i, k), oracle)
            if ell <= 8:
                rec.eq(("truncation", a, b, i, k), xi_forward(a, b, i, k), oracle)
    return rec


def suite_formula_vs_oracle(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    """Exact agreement of the closed formula, the recursion and the brute-force
    oracle on every quadruple up to the length bound, plus agreement of the
    oracle with xi_forward, which keeps x1*x2*x3 multiples, for lengths up to 8."""
    max_len = bounds.len_(12)
    rec = VerifyReport("formula-vs-oracle", {"max_len": max_len, "jobs": jobs})
    units = [(a, j, max_len) for a in range(max_len) for j in (1, 2, 3)]
    for unit in _run_units(_triple_equal_unit, units, jobs):
        rec.merge(unit)
    return rec


def _run_units(fn, units, jobs: int):
    """fn over units, in a pool of at most min(jobs, CPUs, units) workers."""
    workers = min(jobs, os.cpu_count() or 1, len(units))
    if workers <= 1:
        yield from map(fn, units)
    else:  # imported here: multiprocessing costs every CLI start ~20 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, units, chunksize=max(1, len(units) // (4 * workers)))


# -- suite: golden values ---------------------------------------------------------


def _from_q_terms(terms: list[tuple[int, int]]) -> LaurentScalar:
    return lsum(coeff * q_pow(exp) for coeff, exp in terms)


MAGIC_GOLDEN_843 = _from_q_terms(
    [(1, -48), (1, -36), (2, -34), (3, -32), (2, -30), (1, -28),
     (1, -20), (2, -18), (3, -16), (2, -14), (1, -12), (1, 0)]
)
MAGIC_GOLDEN_833 = _from_q_terms(
    [(1, -57), (1, -55), (1, -53), (1, -51), (1, -41), (2, -39), (3, -37),
     (3, -35), (2, -33), (1, -31), (1, -21), (1, -19), (1, -17), (1, -15)]
)


def suite_magic_golden(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    """Two magic values against their published expansions.  Their values at
    q = 1 follow from these checks, and q1-degeneration sweeps them."""
    rec = VerifyReport("magic-golden", {})
    rec.eq(("magic", 8, 4, 3, 0), magic(8, 4, 3, 0), MAGIC_GOLDEN_843)
    rec.eq(("magic", 8, 3, 3, 0), magic(8, 3, 3, 0), MAGIC_GOLDEN_833)
    return rec


def suite_calibration(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    """Derive the six length-one values straight from the operator definition
    and show that the two -z^{-1} entries are the only ones compatible with
    the k <-> l-k symmetries."""
    rec = VerifyReport("calibration", {})
    x = {j: x_var(j) for j in (1, 2, 3)}
    minus_zinv = -z_pow(-1)
    expected = {
        (1, 1): ONE, (1, 2): minus_zinv, (1, 3): ZERO,
        (2, 2): ONE, (2, 3): minus_zinv, (2, 1): ZERO,
        (3, 3): ONE, (3, 1): minus_zinv, (3, 2): ZERO,
    }
    for (i, j), want in expected.items():
        got = demazure(i, x[j])
        rec.ok(("definition", i, j), got.is_scalar(), f"non-scalar {got}")
        rec.eq(("definition", i, j), got.constant_coefficient(), want)
    # the symmetry Xi(0,0,1,0) = -z^{-1} Xi(0,0,1,1) forces the corrected value
    forced_10 = -z_pow(-1) * xi_oracle(0, 0, 1, 1)
    rec.eq(("forced", 0, 0, 1, 0), xi_oracle(0, 0, 1, 0), forced_10)
    rec.ok(("rules-out-minus-z", 1), -z_pow(1) != forced_10, "-z indistinguishable")
    # likewise Xi(0,0,2,0) = -z Xi(0,0,3,1) forces the i = 3 entry
    forced_31 = exact_div(xi_oracle(0, 0, 2, 0), -z_pow(1))
    rec.eq(("forced", 0, 0, 3, 1), xi_oracle(0, 0, 3, 1), forced_31)
    rec.ok(("rules-out-minus-z", 3), -z_pow(1) != forced_31, "-z indistinguishable")
    # the closed formula agrees with the corrected table
    for i in (1, 2, 3):
        for k in (0, 1):
            rec.eq(("formula-base", i, k), cf.xi_formula(0, 0, i, k), xi_oracle(0, 0, i, k))
    # expansion of the i = 1 operator on powers of x1
    for ell in range(1, 7):
        for k in range((ell + 1) // 2, ell + 1):
            want = TriPoly.zero()
            for c in range(ell - k, k):
                want = want + TriPoly.monomial((c, ell - 1 - c, 0), z_pow(k - 1 - c))
            rec.eq(("staircase-expansion", ell, k),
                   demazure(1, TriPoly.monomial((k, ell - k, 0))), want)
    return rec


# -- suites: magic ----------------------------------------------------------------


def suite_magic_genfun(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    """The two parity intervals of each k-window, and every coefficient of
    magic_genfun against magic.  The x -> qx image of the product, which
    generates the i = 3 factor q^beta * magic(nu, k-1, beta, eps), multiplies
    coefficient beta by q^beta, so checking it would restate `coeff`."""
    max_nu = bounds.nu(10)
    rec = VerifyReport("magic-genfun", {"max_nu": max_nu})
    for nu in range(2, max_nu + 1):
        for eps in (-1, 0, 1):
            for k in range(1, 2 * nu + eps):
                window = genfun_window(nu, k, eps)
                if window is None:
                    continue
                members = [tuple(iv) for iv in window(nu, k, eps)]
                rec.ok(
                    ("disjoint", nu, k, eps),
                    not set(members[0]) & set(members[1]),
                    f"{members}",
                )
                if window is gen_interval_Xprime:
                    outer, removed = xprime_difference(nu, k, eps)
                    rec.ok(
                        ("difference-view", nu, k, eps),
                        set(removed) <= set(outer)
                        and set(outer) - set(removed)
                        == set(members[0]) | set(members[1]),
                        "set difference mismatch",
                    )
                series = magic_genfun(nu, k, eps).terms()
                for beta in range(nu + 1):
                    rec.eq(("coeff", nu, k, eps, beta), series.get((beta, 0, 0), ZERO), magic(nu, k, beta, eps))
    return rec


def suite_magic_symmetry(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    """The k <-> L-k symmetry of magic, L = 2nu + eps, on the small-k window
    1 <= k <= nu-1: the check at L-k is the same identity times
    q^(beta(L-2k)), and L-k runs over the large-k window exactly."""
    max_nu = bounds.nu(10)
    rec = VerifyReport("magic-symmetry", {"max_nu": max_nu})
    for nu in range(1, max_nu + 1):
        for eps in (-1, 0, 1):
            for k in range(1, nu):
                for beta in range(nu + 1):
                    rec.eq(("symmetry", nu, eps, k, beta), *magic_symmetry_sides(nu, k, beta, eps))
    return rec


def suite_chu_vandermonde(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    """The special closed values of magic, plus the underlying double-binomial
    convolution identity itself."""
    max_nu = bounds.nu(8)
    rec = VerifyReport("chu-vandermonde", {"max_nu": max_nu})
    for nu in range(1, max_nu + 1):
        for eps in (-1, 0, 1):
            for k in (2 * nu - 1 + eps, nu + 1 + eps):
                if k < 1:
                    continue
                for beta in range(nu + 1):
                    rec.eq(
                        ("special-value", nu, k, eps, beta),
                        magic(nu, k, beta, eps),
                        chu_vandermonde_special(nu, k, beta, eps),
                    )
    for M in range(0, 13):
        for N in range(0, 13 - M):
            for beta in range(M + N + 1):
                total = lsum(qbinom(M, beta - j) * qbinom(N, j) * q_pow(j * (M + N))
                             for j in range(beta + 1))
                rec.eq(("convolution", M, N, beta), total, q_pow(N * beta) * qbinom(M + N, beta))
    return rec


def suite_magic_recursion(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    max_nu = bounds.nu(8)
    rec = VerifyReport("magic-recursion", {"max_nu": max_nu})
    for nu in range(2, max_nu + 1):
        for eps in (-1, 0):
            for k in range(1, 2 * nu + 2):
                for beta in range(nu + 2):
                    lhs, rhs = magic_recursion_sides(nu, k, beta, eps)
                    rec.eq(("recursion", nu, k, beta, eps), lhs, rhs)
    return rec


def suite_telescope(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    max_nu = bounds.nu(8)
    rec = VerifyReport("telescope", {"max_nu": max_nu})
    for variant in TELESCOPES:
        for nu in range(2, max_nu + 1):
            for k in telescope_window(variant, nu):
                for beta in range(nu + 1):
                    lhs, rhs = telescope_sides(variant, nu, k, beta)
                    rec.eq((variant, nu, k, beta), lhs, rhs)
    if max_nu >= 1:  # one B covers every B < max_nu: see reformed_telescope_sides
        for variant in REFORMED:
            for label, lhs, rhs in reformed_telescope_sides(variant, max_nu - 1):
                rec.eq((variant, *label), lhs, rhs)
    return rec


# -- suites: roots of unity ---------------------------------------------------------


def _rou_lemmas(rec: VerifyReport, m: int) -> None:
    """Every quantum-number, rho, magic and factor identity that holds after
    sending q to a primitive 2m-th root of unity (p to a 6m-th root)."""
    d = m // 2

    def eq(label: tuple, lhs: LaurentScalar, rhs: LaurentScalar) -> None:
        rec.eq(label, rou.specialize(lhs, m), rou.specialize(rhs, m))

    # quantum numbers: [m] = 0, [m-1] = 1, mirror and both periods
    eq(("qnum-m", m), qnum(m), ZERO)
    eq(("qnum-m-1", m), qnum(m - 1), ONE)
    for k in range(-2 * m, 2 * m + 1):
        eq(("mirror", m, k), qnum(m - k), qnum(k))
        eq(("period", m, k), qnum(k + m), -qnum(k))
        eq(("period2", m, k), qnum(k + 2 * m), qnum(k))
    # alternating binomial column; the boundary j = m fails (its defining
    # product degenerates to [m]/[m] there), so the sweep stops at m-1
    for j in range(0, m):
        eq(("binom-2m-1", m, j), qbinom(2 * m - 1, j), sign(j))

    if m % 2 == 0:
        eq(("rho-trig-even", m), rho(m - 1), m * q_pow(d * (m - 1)))
        eq(("rho-squared", m), rho(m - 1) * rho(m - 1), LaurentScalar.from_int(-m * m))
        eq(("rho-split-even", m), rho(m - 1), rho(d) * rho(d - 1))
        eq(("rho-step-even", m), rho(d), 2 * q_pow(d) * rho(d - 1))
    else:
        eq(("rho-trig-odd", m), rho(m - 1), LaurentScalar.from_int((-1) ** d * m))
        eq(("rho-split-odd", m), rho(m - 1), rho(d) * rho(d))
    eq(("rho-prime-m-1", m), rho_prime(m - 1), LaurentScalar.from_int(m))

    # rho(alpha) rho(beta) against the single binomial, over the whole sweep
    for a in range(1, 3 * m - 1):
        p = rou.RouParams.from_ma(m, a)
        lhs = rho(p.alpha) * rho(p.beta)
        rhs = rho(p.bottom) * rho(m - 1) * qbinom(m - 1 - p.bottom, p.alpha - p.bottom)
        eq(("rho-product", m, a), lhs, rhs)

    # magic at the root, per parity of m
    one_minus_q2 = ONE - q_pow(2)
    if m % 2 == 0:
        for beta in range(d - 1, m):
            eq(("magic-even-0", m, beta), magic(3 * d, 4 * d, beta, 0),
               sign(beta + d - 1) * q_pow(binom2(d)) * rho(d - 1))
            eq(("magic-even-1", m, beta), magic(3 * d, 4 * d, beta, -1) * one_minus_q2,
               sign(beta + d) * q_pow(binom2(d + 1)) * rho(d))
            eq(("magic-even-3", m, beta),
               q_pow(beta) * magic(3 * d, 4 * d - 1, beta, -1) * one_minus_q2,
               sign(beta + d) * q_pow(binom2(d + 1)) * rho(d))
    else:
        for beta in range(d, m):
            eq(("magic-odd-odd", m, beta), magic(3 * d + 2, 4 * d + 2, beta, -1),
               sign(beta + d) * q_pow(binom2(d + 1)) * rho(d))
        for beta in range(d - 1, m):
            eq(("magic-even-even-1", m, beta), magic(3 * d + 1, 4 * d + 2, beta, 1),
               sign(beta + d - 1) * q_pow(binom2(d)) * rho(d - 1))
            eq(("magic-even-even-2", m, beta),
               magic(3 * d + 1, 4 * d + 2, beta, 0) * one_minus_q2,
               sign(beta + d) * q_pow(binom2(d + 1)) * rho(d))
            eq(("magic-even-even-3", m, beta),
               q_pow(beta) * magic(3 * d + 1, 4 * d + 1, beta, 0) * one_minus_q2,
               sign(beta + d) * q_pow(binom2(d + 1)) * rho(d))

    # the assembled gamma block and the easy remaining factors, at k = 2m
    for a in range(max(1, m - 1), min(2 * m, 3 * m - 2) + 1):
        p = rou.RouParams.from_ma(m, a)
        cexp = binom2(d) if (a % 2 == 0 and p.b % 2 == 0) else binom2(d + 1)
        expected = (
            sign(d + p.b + 1)
            * (m * m)
            * qbinom(m - 1 - p.bottom, p.alpha - p.bottom)
            * q_pow(cexp - binom2(p.alpha + 1) - binom2(p.beta + 1))
        )
        for i in (1, 2, 3):
            fac = cf.factors_standard(a, p.b, i, 2 * m)
            eq(("gamma-block", m, a, i), fac.mu * fac.gamma1 * fac.gamma2 * fac.gamma3, expected)
            eq(("kappa1", m, a, i), fac.kappa1, p_pow(4 * m))
            eq(("kappa2", m, a, i), fac.kappa2, ONE)
            eq(("lambda5", m, a, i), fac.lambda5, ONE)


def suite_rou_lemmas(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    max_m = bounds.m(8)
    rec = VerifyReport("rou-lemmas", {"max_m": max_m})
    for m in range(2, max_m + 1):
        _rou_lemmas(rec, m)
    return rec


def _rou_xi_unit(args: tuple[int, int]) -> VerifyReport:
    m, a = args
    rec = VerifyReport("rou-xi", {"m": m, "a": a})
    values = [rou.xi_rou_specialized(m, a, i, "oracle") for i in (1, 2, 3)]
    rec.eq(("i-independent", m, a, 2), values[1], values[0])
    rec.eq(("i-independent", m, a, 3), values[2], values[0])
    ref = values[0]
    in_range = m - 1 <= a <= 2 * m
    for i in (1, 2, 3):
        rec.eq(("oracle-vs-formula", m, a, i), rou.xi_rou_specialized(m, a, i, "formula"), ref)
        rec.eq(("direct", m, a, i), rou.xi_rou_formula(m, a, i), ref)
        if in_range:
            rec.eq(("short-form", m, a, i), rou.xi_rou_corollary(m, a, i), ref)
    rec.eq(("zero-locus", m, a), ref.is_zero(), not in_range)
    if in_range:
        rec.eq(("m2-divides", m, a), ref.divisible_by(m * m), True)
    return rec


def suite_rou_xi(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    """End-to-end at the root of unity: direct formula, beta/d-only corollary,
    specialized closed formula and specialized oracle all agree; values vanish
    exactly for a outside [m-1, 2m], are i-independent and divisible by m^2."""
    max_m = bounds.m(6)
    rec = VerifyReport("rou-xi", {"max_m": max_m, "jobs": jobs})
    units = [(m, a) for m in range(2, max_m + 1) for a in range(3 * m)]
    for unit in _run_units(_rou_xi_unit, units, jobs):
        rec.merge(unit)
    return rec


def suite_q1_degeneration(bounds: Bounds, jobs: int = 1) -> VerifyReport:
    """p -> 1 sends magic to an ordinary binomial coefficient and kills every
    word scalar of length at least 4.  xi-at-one skips k = 0 and a = 0, which
    xi_formula folds onto k = l and b = 0: at p = 1 such a value is a sign
    times the value it folds onto, so its check would restate that one."""
    max_nu = bounds.nu(10)
    max_len = bounds.len_(10)
    rec = VerifyReport("q1-degeneration", {"max_nu": max_nu, "max_len": max_len})
    for nu in range(2, max_nu + 1):
        for eps in (-1, 0, 1):
            for k in range(1, 2 * nu + 2):
                for beta in range(nu + 1):
                    rec.eq(("magic-at-one", nu, k, beta, eps),
                           magic(nu, k, beta, eps).at_one(), comb(nu - 2, beta))
    for ell in range(4, max_len + 1):
        for (a, b, i, k), value in _formula_layer(ell).items():
            if a >= 1 and k >= 1:
                rec.eq(("xi-at-one", a, b, i, k), value.at_one(), 0)
    return rec


SUITES = {
    "relations": suite_relations,
    "symmetries": suite_symmetries,
    "recursions": suite_recursions,
    "formula-vs-oracle": suite_formula_vs_oracle,
    "magic-golden": suite_magic_golden,
    "magic-genfun": suite_magic_genfun,
    "magic-symmetry": suite_magic_symmetry,
    "chu-vandermonde": suite_chu_vandermonde,
    "magic-recursion": suite_magic_recursion,
    "telescope": suite_telescope,
    "rou-lemmas": suite_rou_lemmas,
    "rou-xi": suite_rou_xi,
    "q1-degeneration": suite_q1_degeneration,
    "calibration": suite_calibration,
}


def run_suite(name: str, bounds: Bounds | None = None, jobs: int = 1) -> VerifyReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    report = SUITES[name](bounds or Bounds(), jobs)
    report.counterexamples.sort(key=lambda c: tuple(map(str, c.inputs)))
    return report
