from fractions import Fraction
from math import isqrt
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garlands import pell
from garlands.pell import (
    TORUS_ONLY,
    TWO_COSETS,
    PellError,
    PellSolution,
    continued_fraction_sqrt,
    is_squarefree,
    negative_pell,
    pell_sweep,
    printed_criterion,
    sl2q_normalizer_report,
)

from oracles import (
    continued_fraction_by_full_period,
    convergents_by_terms,
    exhaustive_negative_pell,
    in_torus_shape,
    mat_inv2,
    mat_mul2,
    negative_pell_by_full_period,
    negative_pell_by_midpoint_convergents,
    torus_point,
)


def test_continued_fraction_examples():
    assert continued_fraction_sqrt(2) == (1, (2,))
    assert continued_fraction_sqrt(3) == (1, (1, 2))
    a0, period = continued_fraction_sqrt(13)
    assert a0 == 3 and len(period) == 5


def test_continued_fraction_matches_decimal_expansion():
    # independent route: floor recursion on a 60-digit decimal sqrt
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    for d in (2, 3, 7, 13, 19, 31, 46, 94):
        a0, period = continued_fraction_sqrt(d)
        mine = [a0] + list(period) + list(period)
        value = Decimal(d).sqrt()
        terms = []
        for _ in range(len(mine)):
            a = int(value)
            terms.append(a)
            value = 1 / (value - a)
        assert terms == mine[: len(terms)]


def _check_against_full_period(d):
    """Midpoint period and solution of a non-square d against the full-period recurrence and the midpoint convergents."""
    a0, period = continued_fraction_by_full_period(d)
    assert continued_fraction_sqrt(d) == (a0, period), d
    # a palindrome followed by 2 * a0
    assert period[-1] == 2 * a0 and period[:-1] == period[-2::-1], d
    sol, length = pell._solve_validated(d)
    assert length == len(period), d
    # y0 = qk^2 + q(k-1)^2 and x0 = isqrt(d*y0^2 - 1) against the end of the full period and
    # against both convergent sequences at the middle
    got = None if sol is None else (sol.x, sol.y)
    assert got == negative_pell_by_full_period(d) == negative_pell_by_midpoint_convergents(d), d
    if is_squarefree(d):
        assert negative_pell(d) == sol, d
        assert sl2q_normalizer_report(d).to_dict()["period_length"] == len(period), d


def test_midpoint_matches_full_period_every_d_to_20000():
    for d in range(2, 20_001):
        if isqrt(d) ** 2 != d:
            _check_against_full_period(d)


def _squarefree_sample_below_10_6(seed: int, count: int) -> list[int]:
    """`count` distinct squarefree d in [2, 10^6), drawn by Random(seed), sorted."""
    rng = Random(seed)
    sample = set()
    while len(sample) < count:
        d = rng.randrange(2, 10**6)
        if is_squarefree(d):
            sample.add(d)
    return sorted(sample)


def test_midpoint_matches_full_period_sampled_squarefree_d_below_10_6():
    for d in _squarefree_sample_below_10_6(14, 2_000):
        _check_against_full_period(d)


def test_longest_odd_periods_of_a_sample_below_10_6():
    # the tail: the 20 longest odd periods among 2,000 seeded squarefree d < 10^6 (periods 1,043 to
    # 2,111, y0 of 529 digits or more), against the full period and sympy's diop_DN; under 1 s
    from sympy.solvers.diophantine.diophantine import diop_DN

    lengths = {d: len(continued_fraction_sqrt(d)[1]) for d in _squarefree_sample_below_10_6(31, 2_000)}
    tail = sorted((d for d, n in lengths.items() if n % 2), key=lambda d: (lengths[d], d))[-20:]
    assert min(lengths[d] for d in tail) >= 1_000
    for d in tail:
        sol = negative_pell(d)
        assert len(str(sol.y)) > 500, d
        assert (sol.x, sol.y) == negative_pell_by_full_period(d), d
        oracle = diop_DN(d, -1)
        assert len(oracle) == 1 and (sol.x, sol.y) == tuple(oracle[0]), d


def test_continued_fraction_rejects_bad_d():
    with pytest.raises(PellError):
        continued_fraction_sqrt(1)
    with pytest.raises(PellError):
        continued_fraction_sqrt(9)


def test_negative_pell_examples():
    assert negative_pell(2) == PellSolution(2, 1, 1)
    assert negative_pell(3) is None
    assert negative_pell(5) == PellSolution(5, 2, 1)
    assert negative_pell(13) == PellSolution(13, 18, 5)
    assert negative_pell(-7) is None


def test_negative_pell_rejects_invalid():
    for d in (0, 1, 12, 45):
        with pytest.raises(PellError):
            negative_pell(d)


def test_pell_solution_validates():
    with pytest.raises(PellError):
        PellSolution(2, 3, 2)


def test_negative_pell_agrees_with_exhaustive_small_d():
    for d in range(2, 60):
        if not is_squarefree(d):
            continue
        sol = negative_pell(d)
        brute = exhaustive_negative_pell(d, 10_000)
        if sol is None:
            assert brute is None, d
        else:
            assert brute == (sol.x, sol.y), d


def test_negative_pell_minimality_up_to_200():
    # exhaustive search below the returned y finds nothing smaller; the
    # remaining minimality (and verdicts for large solutions) are checked
    # against an independent solver in the acceptance suite
    for d in range(2, 201):
        if not is_squarefree(d):
            continue
        sol = negative_pell(d)
        if sol is None:
            continue
        bound = min(sol.y - 1, 200_000)
        assert exhaustive_negative_pell(d, bound) is None, d


def positive_pell(d: int) -> tuple[int, int]:
    """Fundamental solution of x^2 - d*y^2 = +1 for non-square d > 1."""
    a0, period = continued_fraction_sqrt(d)
    if len(period) % 2 == 0:
        terms = [a0] + list(period[:-1])
    else:
        terms = [a0] + list(period) + list(period[:-1])
    x, y = convergents_by_terms(terms)[2:]
    if x * x - d * y * y != 1:
        raise PellError(f"internal: convergent failed for d={d}")
    return x, y


def test_positive_pell_examples():
    assert positive_pell(2) == (3, 2)
    assert positive_pell(3) == (2, 1)
    assert positive_pell(34) == (35, 6)
    x, y = positive_pell(61)
    assert x == 1766319049 and y == 226153980


def test_printed_criterion():
    assert printed_criterion(2)
    assert printed_criterion(5)
    assert not printed_criterion(3)
    assert not printed_criterion(7)
    assert printed_criterion(34)  # 2 * 17, no 4m+3 divisor: predicts solvable
    assert not printed_criterion(-5)


def test_squarefree_and_criterion_edge_values():
    assert [is_squarefree(d) for d in (0, 1, -1, -2, -5, -12, -18, 9_999_991)] == [
        False, True, True, True, True, False, False, True,
    ]
    # 9,999,991 is a prime congruent to 3 mod 4
    assert [printed_criterion(d) for d in (0, 1, -1, -2, -5, 9_999_991)] == [False, True, False, False, False, False]


def test_squarefree_and_criterion_match_definitions():
    for d in range(-3_000, 3_001):
        n = abs(d)
        squarefree = n > 0 and all(n % (f * f) for f in range(2, isqrt(n) + 1))
        assert is_squarefree(d) == squarefree, d
        primes = [f for f in range(2, n + 1) if n % f == 0 and all(f % e for e in range(2, isqrt(f) + 1))]
        assert printed_criterion(d) == (d > 0 and all(f % 4 != 3 for f in primes)), d


def test_sl2q_report_examples():
    r = sl2q_normalizer_report(2).to_dict()
    assert r["variant"] == TWO_COSETS
    assert (r["x0"], r["y0"]) == (1, 1)
    assert r["coset_matrix"] == [[1, -2], [1, -1]]
    assert r["criterion_agrees"]

    r = sl2q_normalizer_report(3).to_dict()
    assert r["variant"] == TORUS_ONLY and r["criterion_agrees"]

    r = sl2q_normalizer_report(34).to_dict()
    assert r["variant"] == TORUS_ONLY
    assert r["criterion_predicts_solvable"] and not r["criterion_agrees"]


def test_report_computes_one_continued_fraction(monkeypatch):
    calls = []

    def counted(d):
        calls.append(d)
        return continued_fraction_sqrt(d)

    monkeypatch.setattr(pell, "continued_fraction_sqrt", counted)
    for d in (2, 3, 13, 34, 94, 9_999_991):
        calls.clear()
        r = sl2q_normalizer_report(d).to_dict()
        assert calls == [d], d
        assert r["period_length"] == len(continued_fraction_sqrt(d)[1])
    calls.clear()
    assert sl2q_normalizer_report(-5).to_dict()["period_length"] is None and calls == []


def test_witness_matrix_determinant_and_conjugation():
    rng = Random(20_240_817)
    for d in (2, 5, 13, 29, 58):
        r = sl2q_normalizer_report(d).to_dict()
        assert r["variant"] == TWO_COSETS
        w = tuple(tuple(Fraction(v) for v in row) for row in r["coset_matrix"])
        det = w[0][0] * w[1][1] - w[0][1] * w[1][0]
        assert det == 1
        for _ in range(20):
            t = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
            if 1 - d * t * t == 0:
                continue
            x, y = torus_point(d, t)
            m = ((x, y * d), (y, x))
            assert in_torus_shape(d, m)
            conj = mat_mul2(mat_mul2(w, m), mat_inv2(w))
            assert in_torus_shape(d, conj)


def test_coset_products_land_in_torus_shape():
    # products of two antidiagonal-type coset matrices return to the torus shape
    for d in (2, 5, 10, 13):
        sol = negative_pell(d)
        w1 = ((Fraction(sol.x), Fraction(-sol.y * d)), (Fraction(sol.y), Fraction(-sol.x)))
        # a second coset element: w1 * torus point
        x, y = torus_point(d, Fraction(1, 3))
        m = ((x, y * d), (y, x))
        w2 = mat_mul2(w1, m)
        prod = mat_mul2(w1, w2)
        assert in_torus_shape(d, prod)


@settings(deadline=None, max_examples=80)
@given(st.integers(2, 400))
def test_returned_solutions_are_exact(d):
    if not is_squarefree(d):
        return
    sol = negative_pell(d)
    if sol is not None:
        assert sol.x * sol.x - d * sol.y * sol.y == -1
        assert sol.y > 0
    # solvability matches the period parity by construction; re-derive it
    _, period = continued_fraction_sqrt(d)
    assert (sol is not None) == (len(period) % 2 == 1)


def test_pell_sweep_line_count_and_flags():
    rows = list(pell_sweep(100))
    assert len(rows) == 100
    d34 = next(r for r in rows if r.get("d") == 34)
    assert d34["solvable"] is False and d34["criterion_agrees"] is False
    skipped = [r for r in rows if "skipped" in r]
    assert {r["d"] for r in skipped} >= {1, 4, 8, 9, 12}


def test_pell_factors_each_d_once(monkeypatch):
    calls = []
    factor = pell._prime_factors

    def counted(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(pell, "_prime_factors", counted)
    rows = list(pell_sweep(100))
    assert calls == list(range(1, 101))
    assert [r["d"] for r in rows] == list(range(1, 101))
    for d in (2, 3, 34, 94, -5, 9_999_991):
        calls.clear()
        sl2q_normalizer_report(d)
        assert calls == [abs(d)], d


def test_quadratic_case_validation():
    for d in (-5, 34):
        assert negative_pell(d) is None
        assert sl2q_normalizer_report(d).to_dict()["d"] == d
    for d in (0, 1, 4, 18):
        with pytest.raises(PellError):
            negative_pell(d)
        with pytest.raises(PellError):
            sl2q_normalizer_report(d)


def test_report_row_is_the_sweep_row():
    # one row per valid d: the report's equals the sweep's (d > 0), with the witness keys exactly when solvable
    sweep_rows = {row["d"]: row for row in pell_sweep(2000)}
    valid = 0
    for d in range(-200, 2001):
        try:
            pell._valid_primes(d)
        except PellError:
            continue
        valid += 1
        row = sl2q_normalizer_report(d).to_dict()
        if d > 0:
            assert row == sweep_rows[d], d
        if row["solvable"]:
            x0, y0 = row["x0"], row["y0"]
            assert x0 * x0 - d * y0 * y0 == -1, d
            assert row["coset_matrix"] == [[x0, -y0 * d], [y0, -x0]], d
        else:
            assert not {"x0", "y0", "coset_matrix"} & row.keys(), d
    assert valid == 1214 + 122  # squarefree d in [2, 2000], and -d for squarefree d in [1, 200]


def test_report_to_dict_returns_a_fresh_row():
    for d in (2, 3, -5):
        report = sl2q_normalizer_report(d)
        first, second = report.to_dict(), report.to_dict()
        assert first == second and first is not second, d
        first["d"] = 0
        assert report.to_dict()["d"] == d
