"""Deterministic exact arithmetic in finite fields F_{p^m}.

Every field is built over its prime field from the lexicographically minimal
monic irreducible polynomial of degree m (non-leading coefficients compared
with the constant term most significant).  Construction is therefore
reproducible: two tables for the same (p, m) agree coefficient for
coefficient, and element indices are interchangeable between instances.

Elements are coefficient vectors of length m with entries in [0, p).  Each
element is addressed by a canonical index, the rank of its coefficient tuple
in lexicographic order (constant term most significant); this index order is
the total order used for canonical matrix/subgroup encodings downstream.

Extensions F_{q^n} of a base field F_q are realised inside the absolute
field F_{p^(m*n)} via a deterministic embedding (the base generator is sent
to the lexicographically least root of its defining polynomial), so a single
FieldTable type covers base fields and extension fields alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps

# exp/log tables are only built for fields up to this size; bigger fields
# fall back to direct polynomial arithmetic
_LOG_TABLE_MAX = 1 << 16

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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


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

    Use :func:`construct_field`; the constructor validates p prime, m >= 1
    and p^m within the configured cap.
    """

    __slots__ = (
        "p",
        "m",
        "q",
        "defining_poly",
        "_xpow",
        "_exp",
        "_log",
        "_gen_idx",
        "_np_add",
        "_np_mul",
        "_np_neg",
        "_np_inv",
    )

    def __init__(self, p: int, m: int, caps: Caps = DEFAULT_CAPS):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeError(f"characteristic must be prime, got {p}")
        if not isinstance(m, int) or m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q > caps.field_order:
            raise FieldCapError(f"field order {q} exceeds cap {caps.field_order}")
        self.p = p
        self.m = m
        self.q = q
        self.defining_poly = minimal_irreducible(p, m)
        # reductions of x^m .. x^(2m-2) mod defining_poly, as index-free lists
        f = list(self.defining_poly)
        xk = [0] * m + [1]
        rows = []
        cur = _pmod(xk, f, p)
        for _ in range(m - 1):
            row = cur + [0] * (m - len(cur))
            rows.append(row)
            cur = _pmod([0] + cur, f, p)
        self._xpow = rows
        self._exp = None
        self._log = None
        self._gen_idx = None
        self._np_add = None
        self._np_mul = None
        self._np_neg = None
        self._np_inv = None

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

    def scalar_index(self, c: int) -> int:
        """Index of the prime-field constant c."""
        return (c % self.p) * self.p ** (self.m - 1)

    @property
    def one_index(self) -> int:
        return self.p ** (self.m - 1)

    # -- scalar arithmetic on indices -----------------------------------------

    def add_idx(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return (a + b) % p
        out = 0
        w = 1
        for _ in range(m):
            out += ((a // w + b // w) % p) * w
            w *= p
        return out

    def neg_idx(self, a: int) -> int:
        p, m = self.p, self.m
        out = 0
        w = 1
        for _ in range(m):
            out += (-(a // w) % p) * w
            w *= p
        return out

    def sub_idx(self, a: int, b: int) -> int:
        return self.add_idx(a, self.neg_idx(b))

    def _polymul_idx(self, a: int, b: int) -> int:
        """Multiplication via polynomial product, no tables required."""
        p, m = self.p, self.m
        ca = self.coeffs_of(a)
        cb = self.coeffs_of(b)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(ca):
            if ai:
                for j, bj in enumerate(cb):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # fold x^m .. x^(2m-2) back using the precomputed reductions
        res = prod[:m]
        for k in range(m, 2 * m - 1):
            c = prod[k]
            if c:
                row = self._xpow[k - m]
                for i in range(m):
                    res[i] = (res[i] + c * row[i]) % p
        return self.index_of(res)

    def _ensure_log(self) -> bool:
        if self._exp is not None:
            return True
        if self.q > _LOG_TABLE_MAX:
            return False
        q = self.q
        factors = _prime_factors(q - 1) if q > 2 else []
        gen = None
        for cand in range(1, q):
            if cand == self.one_index and q > 2:
                continue
            ok = all(self._pow_direct(cand, (q - 1) // ell) != self.one_index for ell in factors)
            if ok:
                gen = cand
                break
        if gen is None:  # q == 2
            gen = self.one_index
        exp = np.empty(q - 1, dtype=np.int64)
        cur = self.one_index
        for i in range(q - 1):
            exp[i] = cur
            cur = self._polymul_idx(cur, gen)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp = exp
        self._log = log
        self._gen_idx = gen
        return True

    def _pow_direct(self, a: int, e: int) -> int:
        result = self.one_index
        base = a
        while e:
            if e & 1:
                result = self._polymul_idx(result, base)
            base = self._polymul_idx(base, base)
            e >>= 1
        return result

    def mul_idx(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._ensure_log():
            return int(self._exp[(int(self._log[a]) + int(self._log[b])) % (self.q - 1)])
        return self._polymul_idx(a, b)

    def inv_idx(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in finite field")
        if self._ensure_log():
            return int(self._exp[(-int(self._log[a])) % (self.q - 1)])
        return self._pow_direct(a, self.q - 2)

    def pow_idx(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return self.one_index
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        if self._ensure_log():
            return int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])
        e %= self.q - 1
        return self._pow_direct(a, e)

    def frob_idx(self, a: int, i: int = 1) -> int:
        """a^(p^i), the i-th Frobenius iterate."""
        i %= self.m
        return self.pow_idx(a, self.p**i)

    def generator_index(self) -> int:
        """A fixed generator of the multiplicative group (least in element order)."""
        if self._ensure_log():
            return self._gen_idx
        factors = _prime_factors(self.q - 1)
        for cand in range(1, self.q):
            if all(self._pow_direct(cand, (self.q - 1) // ell) != self.one_index for ell in factors):
                return cand
        raise FieldError("no generator found")  # unreachable

    # -- numpy tables for the matrix engine ------------------------------------

    def np_add(self) -> np.ndarray:
        if self._np_add is None:
            if self.q > _NP_TABLE_MAX:
                raise FieldCapError(f"dense tables unavailable for field of order {self.q}")
            q = self.q
            t = np.empty((q, q), dtype=np.int16)
            for a in range(q):
                for b in range(a, q):
                    v = self.add_idx(a, b)
                    t[a, b] = v
                    t[b, a] = v
            self._np_add = t
        return self._np_add

    def np_mul(self) -> np.ndarray:
        if self._np_mul is None:
            if self.q > _NP_TABLE_MAX:
                raise FieldCapError(f"dense tables unavailable for field of order {self.q}")
            q = self.q
            t = np.empty((q, q), dtype=np.int16)
            for a in range(q):
                for b in range(a, q):
                    v = self.mul_idx(a, b)
                    t[a, b] = v
                    t[b, a] = v
            self._np_mul = t
        return self._np_mul

    def np_neg(self) -> np.ndarray:
        if self._np_neg is None:
            self._np_neg = np.array([self.neg_idx(a) for a in range(self.q)], dtype=np.int16)
        return self._np_neg

    def np_inv(self) -> np.ndarray:
        if self._np_inv is None:
            t = np.zeros(self.q, dtype=np.int16)
            for a in range(1, self.q):
                t[a] = self.inv_idx(a)
            self._np_inv = t
        return self._np_inv

    # -- element objects -------------------------------------------------------

    def element(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.q:
            raise FieldError(f"element index {idx} out of range for order {self.q}")
        return FieldElement(self, idx)

    def from_coeffs(self, coeffs: Sequence[int]) -> "FieldElement":
        return FieldElement(self, self.index_of(coeffs))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_index)

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.q):
            yield FieldElement(self, i)

    def serialize(self) -> dict:
        return {"p": self.p, "m": self.m, "defining_poly": list(self.defining_poly)}


@dataclass(frozen=True)
class FieldElement:
    """An element of a FieldTable, addressed by canonical index."""

    owner: FieldTable
    index: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.owner.coeffs_of(self.index)

    def _check(self, other: "FieldElement") -> None:
        if self.owner != other.owner:
            raise FieldMismatchError("elements of different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.owner, self.owner.add_idx(self.index, other.index))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.owner, self.owner.sub_idx(self.index, other.index))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.owner, self.owner.mul_idx(self.index, other.index))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.owner, self.owner.mul_idx(self.index, self.owner.inv_idx(other.index)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.owner, self.owner.neg_idx(self.index))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.owner, self.owner.pow_idx(self.index, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.owner, self.owner.inv_idx(self.index))

    @property
    def is_zero(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return f"F{self.owner.q}{self.coeffs}"


# ---------------------------------------------------------------------------
# construction and extensions


def construct_field(p: int, m: int, caps: Caps = DEFAULT_CAPS) -> FieldTable:
    """Deterministic FieldTable for F_{p^m}; repeated calls are identical."""
    return FieldTable(p, m, caps)


@lru_cache(maxsize=None)
def _shared_field(p: int, m: int) -> FieldTable:
    # callers have already validated their own caps; admit exactly this order
    caps = DEFAULT_CAPS if p**m <= DEFAULT_CAPS.field_order else Caps(field_order=p**m)
    return FieldTable(p, m, caps)


class Extension:
    """A field K = F_{q^n} viewed as an extension of a base field F_q.

    Carries the canonical embedding of the base (base generator goes to the
    lexicographically least root of its defining polynomial in K), the least
    element of K that is primitive over the base, and coordinates of K with
    respect to the power basis 1, y, ..., y^(n-1) over the base.
    """

    __slots__ = ("base", "top", "degree", "embed", "_lift", "_embed_set", "gen_index", "_coords", "_ypow", "_mult")

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
        self._embed_set = frozenset(self._lift)
        self.gen_index = self._find_relative_generator()
        self._coords = None
        self._ypow = None
        self._mult = None

    def _build_embedding(self) -> np.ndarray:
        base, top = self.base, self.top
        if self.degree == 1 and base.defining_poly == top.defining_poly:
            return np.arange(base.q, dtype=np.int64)
        # the subfield of order q inside top is {0} union the subgroup of
        # order q-1 of top*; scan it for roots of base.defining_poly
        g = top.generator_index()
        h = top.pow_idx(g, (top.q - 1) // (base.q - 1))
        subfield = [0, top.one_index]
        cur = h
        while cur != top.one_index:
            subfield.append(cur)
            cur = top.mul_idx(cur, h)
        roots = []
        for z in subfield:
            acc = 0  # Horner with prime-field scalars
            for c in reversed(base.defining_poly):
                acc = top.add_idx(top.mul_idx(acc, z), top.scalar_index(c))
            if acc == 0:
                roots.append(z)
        if not roots:
            raise FieldError("embedding root not found")  # unreachable
        r = min(roots)
        rpow = [top.one_index]
        for _ in range(base.m - 1):
            rpow.append(top.mul_idx(rpow[-1], r))
        emb = np.empty(base.q, dtype=np.int64)
        for a in range(base.q):
            acc = 0
            for c, rp in zip(base.coeffs_of(a), rpow):
                acc = top.add_idx(acc, top.mul_idx(top.scalar_index(c), rp))
            emb[a] = acc
        return emb

    def _find_relative_generator(self) -> int:
        if self.degree == 1:
            return self.top.one_index
        for x in range(1, self.top.q):
            if self.orbit_size(x) == self.degree:
                return x
        raise FieldError("no primitive element found")  # unreachable

    def contains(self, top_idx: int) -> bool:
        """Whether an element of the top field lies in the embedded base."""
        return top_idx in self._embed_set

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
        if self._coords is not None:
            return
        n = self.degree
        top, base = self.top, self.base
        ypow = [top.one_index]
        for _ in range(n - 1):
            ypow.append(top.mul_idx(ypow[-1], self.gen_index))
        coords: dict[int, tuple[int, ...]] = {}
        for combo in itertools.product(range(base.q), repeat=n):
            acc = 0
            for a, yp in zip(combo, ypow):
                if a:
                    acc = top.add_idx(acc, top.mul_idx(int(self.embed[a]), yp))
            coords[acc] = combo
        if len(coords) != top.q:
            raise FieldError("power basis failed to span")  # unreachable
        self._coords = coords
        self._ypow = ypow

    def coords(self, top_idx: int) -> tuple[int, ...]:
        """Coordinates over the base w.r.t. the power basis 1, y, ..., y^(n-1)."""
        self._ensure_coords()
        return self._coords[top_idx]

    def mult_blocks(self) -> np.ndarray:
        """(q_top, d, d) base-field index matrices, d the degree: block x has column j = coords of y^j * x."""
        if self._mult is None:
            top = self.top
            if top.q * self.degree**2 > _BLOCK_TABLE_MAX:
                raise FieldCapError(f"multiplication table of F_{top.q} over F_{self.base.q} is too large")
            self._ensure_coords()
            coords = np.array([self._coords[x] for x in range(top.q)], dtype=np.int32)
            cols = [coords[[top.mul_idx(yp, x) for x in range(top.q)]] for yp in self._ypow]
            self._mult = np.stack(cols, axis=-1)
        return self._mult

    def from_coords(self, coords: Sequence[int]) -> int:
        self._ensure_coords()
        acc = 0
        for a, yp in zip(coords, self._ypow):
            if a:
                acc = self.top.add_idx(acc, self.top.mul_idx(int(self.embed[a]), yp))
        return acc

    def rel_min_poly(self, top_idx: int) -> tuple[int, ...]:
        """Minimal polynomial over the base (base-field indices, constant first, monic)."""
        orbit = [top_idx]
        cur = self.rel_frobenius(top_idx)
        while cur != top_idx:
            orbit.append(cur)
            cur = self.rel_frobenius(cur)
        top = self.top
        poly = [top.one_index]  # product of (X - conjugate), top-field coefficients
        for root in orbit:
            nxt = [0] * (len(poly) + 1)
            neg = top.neg_idx(root)
            for i, c in enumerate(poly):
                nxt[i] = top.add_idx(nxt[i], top.mul_idx(c, neg))
                nxt[i + 1] = top.add_idx(nxt[i + 1], c)
            poly = nxt
        return tuple(self.lift(c) for c in poly)


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


# ---------------------------------------------------------------------------
# public operations on elements


def frobenius(x: FieldElement, i: int = 1) -> FieldElement:
    """x^(p^i); applying it m times is the identity."""
    return FieldElement(x.owner, x.owner.frob_idx(x.index, i))


def norm_to_base(x: FieldElement, base: FieldTable) -> FieldElement:
    """Product of the Galois conjugates of x over base, as a base element."""
    ext = extension_of(base, x.owner)
    return FieldElement(base, ext.rel_norm(x.index))


def is_primitive_element(x: FieldElement, base: FieldTable) -> bool:
    """Whether x generates its field over base."""
    ext = extension_of(base, x.owner)
    return ext.orbit_size(x.index) == ext.degree


# ---------------------------------------------------------------------------
# matrices over a FieldTable


class FieldMatrix:
    """Immutable n x n matrix over a FieldTable.

    Rows hold canonical element indices.  The canonical byte encoding is the
    row-major index tuple; `key()` packs it into a single base-q integer used
    for ambient lookups and cross-group comparisons.
    """

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: FieldTable, rows: Sequence[Sequence[int]]):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise FieldError("matrix must be square")
        self.field = field
        self.n = n
        self.rows = tuple(tuple(int(v) for v in r) for r in rows)

    @classmethod
    def identity(cls, field: FieldTable, n: int) -> "FieldMatrix":
        one = field.one_index
        return cls(field, [[one if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_coeff_rows(cls, field: FieldTable, rows: Sequence[Sequence[Sequence[int]]]) -> "FieldMatrix":
        return cls(field, [[field.index_of(c) for c in r] for r in rows])

    def coeff_rows(self) -> list[list[tuple[int, ...]]]:
        return [[self.field.coeffs_of(v) for v in r] for r in self.rows]

    def key(self) -> int:
        k = 0
        for r in self.rows:
            for v in r:
                k = k * self.field.q + v
        return k

    @classmethod
    def from_key(cls, field: FieldTable, n: int, key: int) -> "FieldMatrix":
        entries = []
        for _ in range(n * n):
            entries.append(key % field.q)
            key //= field.q
        entries.reverse()
        return cls(field, [entries[i * n : (i + 1) * n] for i in range(n)])

    def __mul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.field != other.field or self.n != other.n:
            raise FieldMismatchError("matrix shape/field mismatch")
        f = self.field
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = f.add_idx(acc, f.mul_idx(self.rows[i][k], other.rows[k][j]))
                row.append(acc)
            out.append(row)
        return FieldMatrix(f, out)

    def det(self) -> int:
        f = self.field
        n = self.n
        if n == 1:
            return self.rows[0][0]
        # Laplace expansion along the first row
        acc = 0
        for j in range(n):
            c = self.rows[0][j]
            if c == 0:
                continue
            minor = FieldMatrix(f, [[self.rows[i][k] for k in range(n) if k != j] for i in range(1, n)])
            term = f.mul_idx(c, minor.det())
            acc = f.add_idx(acc, term if j % 2 == 0 else f.neg_idx(term))
        return acc

    def inverse(self) -> "FieldMatrix":
        f = self.field
        n = self.n
        aug = [list(r) + [f.one_index if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise FieldError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = f.inv_idx(aug[col][col])
            aug[col] = [f.mul_idx(inv, v) for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    c = aug[r][col]
                    aug[r] = [f.sub_idx(v, f.mul_idx(c, w)) for v, w in zip(aug[r], aug[col])]
        return FieldMatrix(f, [row[n:] for row in aug])

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldMatrix) and self.field == other.field and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        return f"FieldMatrix(q={self.field.q}, {self.rows})"
