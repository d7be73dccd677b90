"""Deterministic exact arithmetic in finite fields F_{p^m}.

Every field is built over its prime field from the lexicographically minimal
monic irreducible polynomial of degree m (non-leading coefficients compared
with the constant term most significant).  Construction is therefore
reproducible: two tables for the same (p, m) agree coefficient for
coefficient, and element indices are interchangeable between instances.
construct_field checks the cap and returns the one FieldTable per (p, m)
that the process shares, so a case, its extensions and its ambient read one
set of tables.

Elements are coefficient vectors of length m with entries in [0, p).  Each
element is addressed by a canonical index, the rank of its coefficient tuple
in lexicographic order (constant term most significant); this index order is
the total order used for canonical matrix/subgroup encodings downstream.

Each operation has one route.  Polynomial product-and-reduce over F_p
(_pmulmod) and square-and-multiply (_ppowmod) find the generator of the
multiplicative group, the least element of order q - 1.  Multiplication by
a fixed element is an F_p-linear map of coefficient digits
(FieldTable._mul_by), which fills every field's exp/log tables by doubling
on first use.  Powers and logarithms read those tables, sums add digits
mod p, and the dense tables the matrix engine reads (np_add, np_mul,
np_neg, np_inv) are derived with numpy from every element's digits and
logarithm.  There is no matrix type: a matrix is an index array, and
matrix arithmetic runs vectorized over ambient indices in matrix_group.

Extensions F_{q^n} of a base field F_q are realised inside the absolute
field F_{p^(m*n)} via a deterministic embedding (the base generator is sent
to the least root of its defining polynomial, found in one numpy pass over
the subfield's logarithms), so a single FieldTable type covers base fields
and extension fields alike.  An extension's power-basis coordinates come
from one numpy pass over all coordinate tuples.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import isqrt
from typing import Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps

# guard for the dense q x q numpy tables used by the matrix engine
_NP_TABLE_MAX = 512

# guard for an extension's table of multiplication matrices (entries)
_BLOCK_TABLE_MAX = 1 << 22


class FieldError(Exception):
    pass


class NotPrimeError(FieldError):
    pass


class FieldCapError(FieldError):
    pass


class FieldMismatchError(FieldError):
    pass


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for k in range(2, isqrt(n - 1) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytes(len(range(k * k, n, k)))
    return tuple(itertools.compress(range(n), sieve))


# trial divisors of _prime_factors: every prime below 2^12, which covers any
# n < 2^24 (each Pell d under the default cap, each q - 1 under the field cap),
# then the 6k - 1, 6k + 1 wheel from 4097 = 6 * 683 - 1, its first number above
_SMALL_PRIMES = _primes_below(1 << 12)
_WHEEL_START = 4097


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n in ascending order (none for 0 and 1).

    Trial division by the primes below 2^12, then by the wheel 4097, 4099,
    4103, 4105, ... (steps 2 and 4), so any n is factored; the loop stops
    once the divisor's square exceeds what is left of n.
    """
    out = []
    wheel = itertools.accumulate(itertools.cycle((2, 4)), initial=_WHEEL_START)
    for f in itertools.chain(_SMALL_PRIMES, wheel):
        if f * f > n:
            break
        if n % f == 0:
            out.append(f)
            n //= f
            while n % f == 0:
                n //= f
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (coefficient lists, constant term
# first, trailing zeros trimmed)


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    # f monic
    r = list(a)
    df = len(f) - 1
    inv_lead = 1  # monic
    while len(r) - 1 >= df and r:
        c = r[-1] * inv_lead % p
        shift = len(r) - 1 - df
        for i, fi in enumerate(f):
            r[shift + i] = (r[shift + i] - c * fi) % p
        _ptrim(r)
    return r


def _pmulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        # make b monic before reducing
        lead_inv = pow(b[-1], p - 2, p)
        bm = [(c * lead_inv) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    return a


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin test for a monic polynomial over F_p."""
    m = len(f) - 1
    if m == 1:
        return True
    x = [0, 1]
    if _ppowmod(x, p**m, f, p) != x:
        return False
    for ell in _prime_factors(m):
        h = _ppowmod(x, p ** (m // ell), f, p)
        # gcd(x^(p^(m/ell)) - x, f) must be 1
        diff = list(h)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(list(f), _ptrim(diff), p)
        if len(g) != 1:
            return False
    return True


def minimal_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically minimal monic irreducible of degree m over F_p.

    Non-leading coefficient tuples (c0, ..., c_{m-1}) are compared with the
    constant term c0 most significant.
    """
    if m == 1:
        return (0, 1)
    for combo in itertools.product(range(p), repeat=m):
        if combo[0] == 0:
            continue  # constant term 0 means the root 0, reducible for m >= 2
        f = list(combo) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise FieldError(f"no irreducible polynomial of degree {m} over F_{p}")


# ---------------------------------------------------------------------------


class FieldTable:
    """Concrete finite field F_{p^m} with deterministic construction.

    Use :func:`construct_field`, which checks the cap and shares one table
    per (p, m); the constructor validates p prime and m >= 1.
    """

    __slots__ = ("p", "m", "q", "defining_poly", "_place", "_exp", "_log", "_gen_idx", "_np")

    def __init__(self, p: int, m: int):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeError(f"characteristic must be prime, got {p}")
        if not isinstance(m, int) or m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        self.p = p
        self.m = m
        self.q = p**m
        self.defining_poly = minimal_irreducible(p, m)
        # place[i] = p^(m-1-i) weighs coefficient i in an index; it is also the index of x^i
        self._place = p ** np.arange(m - 1, -1, -1, dtype=np.int64)
        self._exp = None
        self._log = None
        self._gen_idx = None
        self._np = {}

    # -- identity / ordering -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldTable)
            and self.p == other.p
            and self.m == other.m
            and self.defining_poly == other.defining_poly
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.defining_poly))

    def __repr__(self) -> str:
        return f"FieldTable(p={self.p}, m={self.m})"

    # -- element encoding ----------------------------------------------------
    # index = sum c_i * p^(m-1-i): constant coefficient most significant,
    # matching the lexicographic order on coefficient tuples

    def coeffs_of(self, idx: int) -> tuple[int, ...]:
        out = []
        for i in range(self.m):
            out.append(idx // self.p ** (self.m - 1 - i) % self.p)
        return tuple(out)

    def index_of(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) != self.m:
            raise FieldError(f"expected {self.m} coefficients, got {len(coeffs)}")
        idx = 0
        for i, c in enumerate(coeffs):
            if not 0 <= c < self.p:
                raise FieldError(f"coefficient {c} out of range [0, {self.p})")
            idx += c * self.p ** (self.m - 1 - i)
        return idx

    def _digits(self, idxs) -> np.ndarray:
        """(..., m) coefficients of an index array, constant term first."""
        return np.asarray(idxs, dtype=np.int64)[..., None] // self._place % self.p

    def _index_of_digits(self, digits: np.ndarray) -> np.ndarray:
        return digits @ self._place

    @property
    def one_index(self) -> int:
        return self.p ** (self.m - 1)

    def add_each(self, a: int, bs) -> np.ndarray:
        """Indices of a + b for every b in an index array, digitwise mod p."""
        return self._index_of_digits((self._digits(a) + self._digits(bs)) % self.p)

    def _poly_index(self, poly: Sequence[int]) -> int:
        """Index of a reduced polynomial, constant term first and trailing zeros trimmed."""
        return self.index_of([*poly, *[0] * (self.m - len(poly))])

    def _poly_product(self, a: int, b: int) -> int:
        """Multiplication by polynomial product and reduction, no tables required."""
        return self._poly_index(_pmulmod(self.coeffs_of(a), self.coeffs_of(b), self.defining_poly, self.p))

    def _poly_power(self, a: int, e: int) -> int:
        return self._poly_index(_ppowmod(self.coeffs_of(a), e, self.defining_poly, self.p))

    def _mul_by(self, xs, a: int) -> np.ndarray:
        """Indices of x * a for an index array xs: multiplication by a is F_p-linear on coefficients."""
        rows = self._digits([self._poly_product(int(xi), a) for xi in self._place])  # row i: x^i * a
        xs = np.asarray(xs)
        step = 1 << 16  # bounds the (step, m) digit arrays of a whole large field
        parts = [self._index_of_digits(self._digits(xs[s : s + step]) @ rows % self.p) for s in range(0, xs.size, step)]
        return np.concatenate(parts)

    def _ensure_log(self) -> None:
        """Build the exp/log tables: exp[k] = g^k for the generator g, log[exp[k]] = k, log[0] = -1."""
        if self._exp is not None:
            return
        q = self.q
        exp = np.empty(q - 1, dtype=np.int64)
        exp[0] = self.one_index
        k, gk = 1, self.generator_index()
        while k < q - 1:  # exp[k : 2k] = exp[:k] * g^k
            n = min(k, q - 1 - k)
            exp[k : k + n] = self._mul_by(exp[:n], gk)
            k, gk = k + n, self._poly_product(gk, gk)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp = exp
        self._log = log

    def pow_idx(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return self.one_index
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        self._ensure_log()
        return int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])

    def logs(self, idxs) -> np.ndarray:
        """Logarithms to the base generator_index() of nonzero elements, read from the exp/log table."""
        self._ensure_log()
        return self._log[np.asarray(idxs)]

    def generator_index(self) -> int:
        """The least element of multiplicative order q - 1, a fixed generator of the multiplicative group."""
        if self._gen_idx is None:
            q, one = self.q, self.one_index
            factors = _prime_factors(q - 1)
            self._gen_idx = next(
                c for c in range(1, q) if all(self._poly_power(c, (q - 1) // ell) != one for ell in factors)
            )
        return self._gen_idx

    # -- numpy tables for the matrix engine ------------------------------------
    # built over all q elements at once: coefficients add digitwise mod p,
    # logarithms add mod q - 1, and zero (log -1) has no logarithm

    def _dense(self, name: str, build) -> np.ndarray:
        if name not in self._np:
            if self.q > _NP_TABLE_MAX:
                raise FieldCapError(f"dense tables unavailable for field of order {self.q}")
            self._ensure_log()
            self._np[name] = build(self._digits(np.arange(self.q)), self._log).astype(np.int16)
        return self._np[name]

    def np_add(self) -> np.ndarray:
        return self._dense("add", lambda d, lg: self._index_of_digits((d[:, None] + d[None]) % self.p))

    def np_neg(self) -> np.ndarray:
        return self._dense("neg", lambda d, lg: self._index_of_digits(-d % self.p))

    def np_mul(self) -> np.ndarray:
        def build(d, lg):
            return np.where(np.minimum.outer(lg, lg) < 0, 0, self._exp[np.add.outer(lg, lg) % (self.q - 1)])

        return self._dense("mul", build)

    def np_inv(self) -> np.ndarray:
        """Inverses of the nonzero elements; entry 0 is 0."""
        return self._dense("inv", lambda d, lg: np.where(lg < 0, 0, self._exp[-lg % (self.q - 1)]))

    def serialize(self) -> dict:
        return {"p": self.p, "m": self.m, "defining_poly": list(self.defining_poly)}


# ---------------------------------------------------------------------------
# construction and extensions


def construct_field(p: int, m: int, caps: Caps = DEFAULT_CAPS) -> FieldTable:
    """The FieldTable of F_{p^m}, once p^m is within the cap: one table per (p, m) in the process."""
    if p**m > caps.field_order:
        raise FieldCapError(f"field order {p**m} exceeds cap {caps.field_order}")
    return _shared_field(p, m)


@lru_cache(maxsize=None)
def _shared_field(p: int, m: int) -> FieldTable:
    return FieldTable(p, m)


class Extension:
    """A field K = F_{q^n} viewed as an extension of a base field F_q.

    Carries the canonical embedding of the base (base generator goes to the
    lexicographically least root of its defining polynomial in K), the least
    element of K that is primitive over the base, and coordinates of K with
    respect to the power basis 1, y, ..., y^(n-1) over the base.
    """

    __slots__ = ("base", "top", "degree", "embed", "_lift", "gen_index", "_coords", "_ypow", "_mult")

    def __init__(self, base: FieldTable, top: FieldTable):
        if base.p != top.p:
            raise FieldMismatchError(f"characteristic mismatch: {base.p} vs {top.p}")
        if top.m % base.m != 0:
            raise FieldMismatchError(f"F_{top.q} is not an extension of F_{base.q}")
        self.base = base
        self.top = top
        self.degree = top.m // base.m
        self.embed = self._build_embedding()
        self._lift = {int(t): b for b, t in enumerate(self.embed)}
        self.gen_index = self._find_relative_generator()
        self._coords = None
        self._ypow = None
        self._mult = None

    def _build_embedding(self) -> np.ndarray:
        base, top = self.base, self.top
        if self.degree == 1 and base.defining_poly == top.defining_poly:
            return np.arange(base.q, dtype=np.int64)
        # base.defining_poly = sum c_i x^i has its roots in the subfield of
        # order q: 0 (a root when c_0 = 0, only for the prime field's x) and
        # the powers of g^((|top| - 1) / (q - 1)), whose logs are the
        # multiples of that step.  c_i z^i scales the digits of z^i by c_i.
        top._ensure_log()
        logs = np.arange(0, top.q - 1, (top.q - 1) // (base.q - 1))
        powers = top._digits(top._exp[np.outer(logs, np.arange(base.m + 1)) % (top.q - 1)])
        values = np.einsum("zid,i->zd", powers, np.array(base.defining_poly)) % top.p
        roots = top._exp[logs[~values.any(axis=1)]]
        r = 0 if base.defining_poly[0] == 0 else int(roots.min())
        # a = sum c_i x^i goes to sum c_i r^i, and prime-field scalars scale coefficients
        rpow = [top.pow_idx(r, i) for i in range(base.m)]
        return top._index_of_digits(base._digits(np.arange(base.q)) @ top._digits(rpow) % top.p)

    def _find_relative_generator(self) -> int:
        if self.degree == 1:
            return self.top.one_index
        for x in range(1, self.top.q):
            if self.orbit_size(x) == self.degree:
                return x
        raise FieldError("no primitive element found")  # unreachable

    def contains(self, top_idx: int) -> bool:
        """Whether an element of the top field lies in the embedded base."""
        return top_idx in self._lift

    def lift(self, top_idx: int) -> int:
        """Base-field index of an embedded element."""
        try:
            return self._lift[top_idx]
        except KeyError:
            raise FieldMismatchError("element does not lie in the base field") from None

    def rel_frobenius(self, top_idx: int, j: int = 1) -> int:
        """x -> x^(q^j), the relative Frobenius over the base."""
        j %= self.degree
        return self.top.pow_idx(top_idx, self.base.q**j)

    def orbit_size(self, top_idx: int) -> int:
        """Size of the orbit of x under the relative Frobenius."""
        cur = self.rel_frobenius(top_idx)
        k = 1
        while cur != top_idx:
            cur = self.rel_frobenius(cur)
            k += 1
        return k

    def rel_norm(self, top_idx: int) -> int:
        """Norm down to the base, as a base-field index."""
        if top_idx == 0:
            return 0
        e = (self.top.q - 1) // (self.base.q - 1)
        return self.lift(self.top.pow_idx(top_idx, e))

    def _ensure_coords(self) -> None:
        """Coordinates of every element, in one pass over all coordinate tuples.

        The element with coordinates (a_0, ..., a_(d-1)) is sum a_j y^j; its
        coefficient digits are the sums of those of the terms, mod p.
        """
        if self._coords is not None:
            return
        top, n, bq = self.top, self.degree, self.base.q
        self._ypow = [top.pow_idx(self.gen_index, j) for j in range(n)]
        terms = [top._digits(top._mul_by(self.embed, yp)) for yp in self._ypow]  # terms[j][a]: digits of a * y^j
        elements = np.zeros((bq,) * n, dtype=np.int64)  # axis j holds coordinate a_j
        for i, w in enumerate(top._place):  # one digit at a time, over the whole grid of coordinate tuples
            digit = sum(t[:, i].reshape([bq if k == j else 1 for k in range(n)]) for j, t in enumerate(terms))
            elements += digit % top.p * w
        self._coords = np.empty((top.q, n), dtype=np.int32)
        self._coords[elements.ravel()] = np.indices((bq,) * n).reshape(n, -1).T

    def coords(self, top_idx: int) -> tuple[int, ...]:
        """Coordinates over the base w.r.t. the power basis 1, y, ..., y^(n-1)."""
        self._ensure_coords()
        return tuple(self._coords[top_idx].tolist())

    def mult_blocks(self) -> np.ndarray:
        """(q_top, d, d) base-field index matrices, d the degree: block x has column j = coords of y^j * x."""
        if self._mult is None:
            top = self.top
            if top.q * self.degree**2 > _BLOCK_TABLE_MAX:
                raise FieldCapError(f"multiplication table of F_{top.q} over F_{self.base.q} is too large")
            self._ensure_coords()
            every = np.arange(top.q)
            self._mult = np.stack([self._coords[top._mul_by(every, yp)] for yp in self._ypow], axis=-1)
        return self._mult


@lru_cache(maxsize=None)
def _shared_extension(p: int, base_m: int, top_m: int) -> Extension:
    return Extension(_shared_field(p, base_m), _shared_field(p, top_m))


def extension_of(base: FieldTable, top: FieldTable) -> Extension:
    """The canonical extension data for top/base; raises on mismatch."""
    if base.p != top.p or top.m % base.m != 0:
        raise FieldMismatchError(f"F_{top.q} is not an extension of F_{base.q}")
    return _shared_extension(base.p, base.m, top.m)


def construct_extension(base: FieldTable, n: int, caps: Caps = DEFAULT_CAPS) -> FieldTable:
    """The field F_{q^n} built directly over base = F_q."""
    if n < 1:
        raise FieldError(f"extension degree must be >= 1, got {n}")
    if base.q**n > caps.field_order:
        raise FieldCapError(f"field order {base.q ** n} exceeds cap {caps.field_order}")
    top = _shared_field(base.p, base.m * n)
    extension_of(base, top)  # warm the embedding cache
    return top
