"""Negative Pell equation x^2 - d*y^2 = -1 and the SL(2,Q) torus normalizer.

The exact (P, Q) recurrence for sqrt(d)'s continued fraction runs only to the
middle of the period, a palindrome followed by 2*a0 (Legendre).  The equation
is solvable precisely when the period length is odd; the fundamental solution
then comes from the two middle convergents and is verified by substitution.

Each valid d has one row, a dict built in one place (_row): `d`, `variant`,
`period_length` (None for d < 0), `solvable`, `criterion_predicts_solvable`
and `criterion_agrees`, plus `x0`, `y0` and `coset_matrix` when solvable.
`pell_sweep` yields it, `pell --d` prints it, and sl2q_normalizer_report
wraps it in a NormalizerReport whose to_dict returns a top-level copy.

The row's `variant`, `solvable` and `criterion_agrees` answer the integer
equation, which is the SL(2,Z) shape: an integer solution (x0, y0) puts
[[x0, -y0*d], [y0, -x0]] in a second coset of the integral torus
{[[x, y*d], [y, x]] : x^2 - d*y^2 = 1}, and `TorusOnly` means there is none.
They do not give the SL(2,Q) shape.  The rational torus has a second coset
exactly when x^2 - d*y^2 = -1 has a rational solution, which for
squarefree d > 1 is the printed divisibility criterion (no prime divisor
congruent to 3 mod 4).  For d = 34, W = [[5/3, -34/3], [1/3, -5/3]] has
det 1 and inverts the torus, though the integer equation has no solution.
So `criterion_agrees` compares the criterion with integer solvability, and
where it is false (d = 34 is the smallest such d) the SL(2,Z) and SL(2,Q)
answers differ.  Reporting the SL(2,Q) answer is item 1 of ROADMAP.md.

A row factors d once: the distinct primes of |d| give both the
squarefree check (their product is |d|) and the printed criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod
from typing import Iterator, Sequence

from .finite_field import _prime_factors


class PellError(Exception):
    pass


def is_squarefree(d: int) -> bool:
    """No square of a prime divides d (0 is not squarefree; 1 and -1 are)."""
    return prod(_prime_factors(abs(d))) == abs(d)


def _valid_primes(d: int) -> list[int]:
    """The distinct primes of |d|, for d squarefree and not 0 or 1; PellError otherwise."""
    if d in (0, 1):
        raise PellError(f"d must not be 0 or 1, got {d}")
    primes = _prime_factors(abs(d))
    if prod(primes) != abs(d):
        raise PellError(f"d must be squarefree, got {d}")
    return primes


@dataclass(frozen=True)
class PellSolution:
    """Fundamental solution of x^2 - d*y^2 = -1 (minimal y > 0)."""

    d: int
    x: int
    y: int

    def __post_init__(self):
        if self.y <= 0 or self.x * self.x - self.d * self.y * self.y != -1:
            raise PellError(f"({self.x}, {self.y}) does not solve x^2 - {self.d}*y^2 = -1")


def continued_fraction_sqrt(d: int) -> tuple[int, tuple[int, ...]]:
    """(a0, periodic part) of the continued fraction of sqrt(d), d non-square > 1.

    The period is a palindrome followed by 2*a0: the (P, Q) recurrence stops at the first n
    with P(n+1) = Pn (length 2n) or Q(n+1) = Qn (length 2n + 1) and mirrors a1 .. an.
    """
    if d <= 1:
        raise PellError(f"d must be > 1, got {d}")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise PellError(f"d must not be a perfect square, got {d}")
    half = []
    p, q, a = 0, 1, a0
    while True:
        p_next = a * q - p  # P1 = a0 differs from P0 = 0: the first P repeat has n >= 1
        if p_next == p:
            return a0, (*half, *half[-2::-1], 2 * a0)
        q_next = (d - p_next * p_next) // q
        if q_next == q:
            return a0, (*half, *half[::-1], 2 * a0)
        p, q = p_next, q_next
        a = (a0 + p) // q
        half.append(a)


def _convergents(terms: Sequence[int]) -> tuple[int, int, int, int]:
    """p(k-1), q(k-1), pk, qk of [terms[0]; terms[1], ..., terms[k]], with p(-1)/q(-1) = 1/0."""
    p_prev, q_prev, p, q = 1, 0, terms[0], 1
    for a in terms[1:]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p_prev, q_prev, p, q


def _solve_validated(d: int) -> tuple[PellSolution | None, int | None]:
    """(negative Pell solution or None, period length or None for d < 0) of a valid d.

    For odd l = 2k + 1 and the convergents pi/qi of [a0; a1 .. ak], x0 + y0*sqrt(d) =
    (p(k-1) + q(k-1)*sqrt(d)) * (pk + qk*sqrt(d)) / |p(k-1)^2 - d*q(k-1)^2|.
    """
    if d < 0:
        return None, None
    a0, period = continued_fraction_sqrt(d)
    if len(period) % 2 == 0:
        return None, len(period)
    p0, q0, p1, q1 = _convergents([a0, *period[: len(period) // 2]])
    mid = abs(p0 * p0 - d * q0 * q0)
    x, y = p0 * p1 + d * q0 * q1, p0 * q1 + p1 * q0
    if x % mid or y % mid:
        raise PellError(f"internal: midpoint convergents of sqrt({d}) give no integer solution")
    return PellSolution(d, x // mid, y // mid), len(period)


def negative_pell(d: int) -> PellSolution | None:
    """Fundamental solution of x^2 - d*y^2 = -1, or None when unsolvable.

    Solvable exactly when the continued-fraction period of sqrt(d) has odd
    length; negative d is never solvable.
    """
    _valid_primes(d)
    return _solve_validated(d)[0]


TORUS_ONLY = "TorusOnly"
TWO_COSETS = "TwoCosets"


def printed_criterion(d: int) -> bool:
    """d > 0 with no prime divisor of the form 4m + 3; for squarefree d > 1, x^2 - d*y^2 = -1 is solvable over Q."""
    return d > 0 and _criterion(d, _prime_factors(d))


def _criterion(d: int, primes: Sequence[int]) -> bool:
    """The printed criterion for d, given the distinct primes of |d|."""
    return d > 0 and all(p % 4 != 3 for p in primes)


@dataclass(frozen=True)
class NormalizerReport:
    row: dict  # the row of d, as `pell --d` prints it

    def to_dict(self) -> dict:
        """A fresh top level of the row, so a caller may add or change keys."""
        return dict(self.row)


def sl2q_normalizer_report(d: int) -> NormalizerReport:
    """Normalizer shape for d from the integer equation, plus the printed-criterion comparison."""
    return NormalizerReport(_row(d, _valid_primes(d)))


def _row(d: int, primes: Sequence[int]) -> dict:
    """The row of a valid d (squarefree, not 0 or 1) whose distinct primes of |d| are given."""
    sol, period_length = _solve_validated(d)
    solvable = sol is not None
    crit = _criterion(d, primes)
    row = {
        "d": d,
        "variant": TWO_COSETS if solvable else TORUS_ONLY,
        "period_length": period_length,
        "solvable": solvable,
        "criterion_predicts_solvable": crit,
        "criterion_agrees": crit == solvable,
    }
    if solvable:
        x0, y0 = sol.x, sol.y
        row.update(x0=x0, y0=y0, coset_matrix=[[x0, -y0 * d], [y0, -x0]])
    return row


def pell_sweep(d_max: int) -> Iterator[dict]:
    """One record per d in [1, d_max]; invalid d get a skip reason."""
    for d in range(1, d_max + 1):
        primes = _prime_factors(d)
        if d == 1 or prod(primes) != d:
            yield {"d": d, "skipped": "square" if isqrt(d) ** 2 == d else "not squarefree"}
            continue
        yield _row(d, primes)
