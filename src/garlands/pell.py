"""Negative Pell equation x^2 - d*y^2 = -1 and the SL(2,Q) torus normalizer.

The continued fraction of sqrt(d) is computed with the exact integer
recurrence on (P, Q) pairs; the equation is solvable precisely when the
period length is odd, and the fundamental solution is the convergent just
before the end of the first period.  All arithmetic is arbitrary precision;
solutions are verified by substitution before being returned.

When a solution (x0, y0) exists, the normalizer of the rational quadratic
torus {[[x, y*d], [y, x]] : x^2 - d*y^2 = 1} inside SL(2,Q) gains a second
coset with representative [[x0, -y0*d], [y0, -x0]]; otherwise it is the
torus alone.  A printed divisibility criterion (d > 0 with no prime divisor
congruent to 3 mod 4) is evaluated alongside and its agreement with actual
solvability is reported, since it is necessary but not sufficient (d = 34
is the smallest disagreement).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator


class PellError(Exception):
    pass


def is_squarefree(d: int) -> bool:
    d = abs(d)
    if d == 0:
        return False
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        while d % f == 0:
            d //= f
        f += 1 if f == 2 else 2
    return True


@dataclass(frozen=True)
class QuadraticCase:
    """A squarefree integer d != 0, 1 defining Q(sqrt(d))."""

    d: int

    def __post_init__(self):
        if self.d in (0, 1):
            raise PellError(f"d must not be 0 or 1, got {self.d}")
        if not is_squarefree(self.d):
            raise PellError(f"d must be squarefree, got {self.d}")


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
    """(a0, periodic part) of the continued fraction of sqrt(d), d non-square > 1."""
    if d <= 1:
        raise PellError(f"d must be > 1, got {d}")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise PellError(f"d must not be a perfect square, got {d}")
    # Q_k = 1 exactly when k is a multiple of the period length
    period = []
    p, q = 0, 1
    a = a0
    while True:
        p = a * q - p
        q = (d - p * p) // q
        a = (a0 + p) // q
        period.append(a)
        if q == 1:
            return a0, tuple(period)


def _convergent(terms: list[int]) -> tuple[int, int]:
    h_prev, h = 1, terms[0]
    k_prev, k = 0, 1
    for a in terms[1:]:
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return h, k


def _solve_validated(d: int) -> tuple[PellSolution | None, int | None]:
    """(negative Pell solution or None, period length or None for d < 0) of a valid d."""
    if d < 0:
        return None, None
    a0, period = continued_fraction_sqrt(d)
    if len(period) % 2 == 0:
        return None, len(period)
    x, y = _convergent([a0, *period[:-1]])
    return PellSolution(d, x, y), len(period)


def negative_pell(d: int) -> PellSolution | None:
    """Fundamental solution of x^2 - d*y^2 = -1, or None when unsolvable.

    Solvable exactly when the continued-fraction period of sqrt(d) has odd
    length; negative d is never solvable.
    """
    return _solve_validated(QuadraticCase(d).d)[0]


TORUS_ONLY = "TorusOnly"
TWO_COSETS = "TwoCosets"


@dataclass(frozen=True)
class NormalizerShape:
    """Shape of the SL(2,Q) normalizer of the quadratic torus for d."""

    d: int
    variant: str
    witness: PellSolution | None

    @property
    def coset_matrix(self) -> tuple[tuple[int, int], tuple[int, int]] | None:
        if self.witness is None:
            return None
        x0, y0 = self.witness.x, self.witness.y
        return ((x0, -y0 * self.d), (y0, -x0))


def printed_criterion(d: int) -> bool:
    """d > 0 with no prime divisor of the form 4m + 3 (necessary, not sufficient)."""
    if d <= 0:
        return False
    rest = d
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            if f % 4 == 3:
                return False
            while rest % f == 0:
                rest //= f
        f += 1 if f == 2 else 2
    return not (rest > 1 and rest % 4 == 3)


@dataclass(frozen=True)
class NormalizerReport:
    d: int
    shape: NormalizerShape
    period_length: int | None
    solvable: bool
    criterion_predicts_solvable: bool
    criterion_agrees: bool

    def to_dict(self) -> dict:
        doc = {
            "d": self.d,
            "variant": self.shape.variant,
            "period_length": self.period_length,
            "solvable": self.solvable,
            "criterion_predicts_solvable": self.criterion_predicts_solvable,
            "criterion_agrees": self.criterion_agrees,
        }
        if self.shape.witness is not None:
            doc["x0"] = self.shape.witness.x
            doc["y0"] = self.shape.witness.y
            doc["coset_matrix"] = [list(r) for r in self.shape.coset_matrix]
        return doc


def sl2q_normalizer_report(d: int) -> NormalizerReport:
    """Normalizer shape for d plus the printed-criterion comparison."""
    return _report_validated(QuadraticCase(d).d)


def _report_validated(d: int) -> NormalizerReport:
    """The report of a d already checked to be squarefree and not 0 or 1."""
    sol, period_length = _solve_validated(d)
    solvable = sol is not None
    shape = NormalizerShape(d, TWO_COSETS if solvable else TORUS_ONLY, sol)
    crit = printed_criterion(d)
    return NormalizerReport(
        d=d,
        shape=shape,
        period_length=period_length,
        solvable=solvable,
        criterion_predicts_solvable=crit,
        criterion_agrees=crit == solvable,
    )


def pell_sweep(d_max: int) -> Iterator[dict]:
    """One record per d in [1, d_max]; invalid d get a skip reason."""
    for d in range(1, d_max + 1):
        if not is_squarefree(d) or d == 1:
            yield {"d": d, "skipped": "square" if isqrt(d) ** 2 == d else "not squarefree"}
            continue
        yield _report_validated(d).to_dict()
