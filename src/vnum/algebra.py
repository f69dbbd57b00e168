"""Exact multivariate polynomial algebra over K[x_{i,j}] under lex order.

The ring has m rows and n columns of variables ordered

    x[1,1] > x[1,2] > ... > x[1,n] > x[2,1] > ... > x[m,n],

and every computation here (Groebner bases, normal forms, ideal
intersections, colon ideals, powers) is exact: coefficients live in a
prime field F_p (default p = 32003) or in Q.

Monomials are packed into a single integer, eight bits per variable with
x[1,1] in the most significant field.  Packing makes the lex comparison a
plain integer comparison and turns multiplication into integer addition;
divisibility, lcm and gcd use the usual SWAR borrow trick, which is valid
as long as every exponent stays below 128 (the degree budget enforces
this long before it could overflow).  With ``top`` the mask of every
field's high bit, a divides b exactly when ((b | top) - a) & top == top.
The hot loops (the reducer scan of _nf, both scans of _gm_update and the
leading-term check of _reduce_basis) inline that test with b | top formed
once per term, and _gm_update inlines the lcm; the RingSpec methods serve
the cold callers.  Inside _buchberger the total degree of a packed
monomial is m % 255: as 256 = 1 (mod 255) this is the byte sum, exact
while the degree is below 255.  Every monomial a run sees has degree at
most 2 * max_degree <= 2 * _MAX_EXPONENT = 240, because every term of its
input is checked exactly at entry, an S-pair's lcm is checked before its
S-polynomial is formed, and a term is checked before it is reduced.
RingSpec.mono_degree stays exact for every input.

Determinism: S-pairs are processed in ascending (lcm degree, lcm, i, j)
order; the Gebauer-Moeller update walks the new candidates in ascending
(lcm degree, lcm, index) order, so among equal lcms the smallest index
survives.  A tag elimination opens with the cached reduced basis of its
first ideal in its stored order, and the separating element of the
oracle is picked from the generators of P_T in a fixed order with fixed
weights.  Neither choice can reach the output: reduced bases are unique,
and they are returned monic and sorted by descending leading term.
Repeated runs produce byte-identical output.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError, GraphInputError, NotACutSetError
from .graphs import CutSet, SimpleGraph, enumerate_cut_sets

_FIELD_BITS = 8
_MAX_EXPONENT = 120  # hard SWAR safety cap, far above any configured budget
# _buchberger reads degrees as m % 255, exact below 255 (module docstring)
assert 2 * _MAX_EXPONENT < 255


@dataclass(frozen=True)
class GBBudget:
    """Caps for basis computations; exceeding either raises, never truncates."""

    max_pairs: int = 200_000
    max_degree: int = 12

    def __post_init__(self):
        if self.max_pairs < 1:
            raise GraphInputError(f"pair budget must be >= 1, got {self.max_pairs}")
        if self.max_degree > _MAX_EXPONENT:
            # packed exponent fields would overflow silently above the cap
            raise GraphInputError(
                f"degree budget {self.max_degree} exceeds the hard cap {_MAX_EXPONENT}"
            )


#: Default budget for plain Groebner bases.
DEFAULT_BUDGET = GBBudget()

#: Tag-variable eliminations (intersections, colons) produce intermediate
#: terms above the degrees of their inputs, so they get extra headroom.
ELIMINATION_BUDGET = GBBudget(max_pairs=200_000, max_degree=32)


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the primes up to 41 as bases: exact below 3.3e24,
    a strong probable-prime test above."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2 or any(p % q == 0 for q in bases):
        return p in bases
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RingSpec:
    """Polynomial ring K[x_{i,j} : i in [m], j in [n]] with the row-major
    lex order.  ``p`` is a prime modulus, or None for exact rationals."""

    def __init__(self, m: int, n: int, p: Optional[int] = 32003):
        if m < 1 or n < 1:
            raise GraphInputError(f"ring needs m, n >= 1, got {m}x{n}")
        if p is not None and not _is_prime(p):
            # inverses are taken as c^(p-2), which needs a prime field
            raise GraphInputError(f"coefficient modulus {p} is not prime")
        self.m = m
        self.n = n
        self.p = p
        self.nvars = m * n
        self.names = tuple(
            f"x[{i},{j}]" for i in range(1, m + 1) for j in range(1, n + 1)
        )
        self._init_masks()
        self._ext: Optional[_TagRing] = None

    def _init_masks(self):
        top = 0
        for k in range(self.nvars):
            top |= 0x80 << (_FIELD_BITS * k)
        self._top = top
        self._nbytes = self.nvars

    # -- monomial arithmetic on packed integers ---------------------------

    def var_mono(self, idx: int) -> int:
        return 1 << (_FIELD_BITS * (self.nvars - 1 - idx))

    def var_index(self, i: int, j: int) -> int:
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise GraphInputError(f"variable x[{i},{j}] outside {self.m}x{self.n}")
        return (i - 1) * self.n + (j - 1)

    def mono_divides(self, a: int, b: int) -> bool:
        """Does a divide b (componentwise a <= b)?"""
        return ((b | self._top) - a) & self._top == self._top

    def mono_lcm(self, a: int, b: int) -> int:
        d = (a | self._top) - b
        sel = d & self._top
        full = (sel >> 7) * 0xFF
        return b + (d & full & ~self._top)

    def mono_gcd(self, a: int, b: int) -> int:
        d = (a | self._top) - b
        sel = d & self._top
        full = (sel >> 7) * 0xFF
        return a - (d & full & ~self._top)

    def mono_degree(self, a: int) -> int:
        return sum(a.to_bytes(self._nbytes, "big"))

    def mono_exponents(self, a: int) -> tuple[int, ...]:
        return tuple(a.to_bytes(self._nbytes, "big"))

    def mono_from_exponents(self, exps: Sequence[int]) -> int:
        if len(exps) != self.nvars:
            raise GraphInputError("exponent vector length mismatch")
        return int.from_bytes(bytes(exps), "big")

    def mono_text(self, a: int) -> str:
        parts = []
        for idx, e in enumerate(self.mono_exponents(a)):
            if e:
                parts.append(self.names[idx] + (f"^{e}" if e > 1 else ""))
        return "*".join(parts)

    # -- field helpers -----------------------------------------------------

    def coeff(self, c) -> object:
        if self.p is not None:
            return c % self.p
        return Fraction(c)

    def inv(self, c):
        if self.p is not None:
            return pow(c, self.p - 2, self.p)
        return Fraction(1) / c

    def extended(self) -> "_TagRing":
        """Ring with one extra elimination variable greater than everything."""
        if self._ext is None:
            self._ext = _TagRing(self)
        return self._ext

    def same_signature(self, other: "RingSpec") -> bool:
        return (
            self.nvars == other.nvars and self.p == other.p and self.names == other.names
        )

    def to_record(self) -> dict:
        return {
            "rows": self.m,
            "cols": self.n,
            "field": "QQ" if self.p is None else f"GF({self.p})",
            "order": "lex, row-major, x[1,1] greatest",
        }

    def __repr__(self):
        field = "QQ" if self.p is None else f"GF({self.p})"
        return f"RingSpec({self.m}x{self.n}, {field})"


class _TagRing(RingSpec):
    """Base ring extended by one tag variable t ordered above all x[i,j]."""

    def __init__(self, base: RingSpec):
        self.base = base
        self.m = base.m
        self.n = base.n
        self.p = base.p
        self.nvars = base.nvars + 1
        self.names = ("t",) + base.names
        self._init_masks()
        self._ext = None
        #: packed tag monomial; base monomials embed unchanged below it
        self.tag = 1 << (_FIELD_BITS * base.nvars)
        self.tag_threshold = self.tag


class Polynomial:
    """Immutable sparse polynomial: packed monomial -> nonzero coefficient."""

    __slots__ = ("ring", "terms", "_lt")

    def __init__(self, ring: RingSpec, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lt = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero(ring: RingSpec) -> "Polynomial":
        return Polynomial(ring, {})

    @staticmethod
    def one(ring: RingSpec) -> "Polynomial":
        return Polynomial(ring, {0: ring.coeff(1)})

    @staticmethod
    def variable(ring: RingSpec, i: int, j: int) -> "Polynomial":
        return Polynomial(ring, {ring.var_mono(ring.var_index(i, j)): ring.coeff(1)})

    @staticmethod
    def from_terms(ring: RingSpec, items: Iterable[tuple[int, object]]) -> "Polynomial":
        d = {}
        for m, c in items:
            c = ring.coeff(c)
            if m in d:
                c = d[m] + c
                if ring.p is not None:
                    c %= ring.p
            if c:
                d[m] = c
            elif m in d:
                del d[m]
        return Polynomial(ring, d)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lt(self) -> Optional[int]:
        if self._lt is None and self.terms:
            self._lt = max(self.terms)
        return self._lt

    def lc(self):
        lt = self.lt()
        return self.terms[lt] if lt is not None else 0

    def degree(self) -> int:
        if not self.terms:
            return -1
        dg = self.ring.mono_degree
        return max(dg(m) for m in self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring.same_signature(other.ring)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.ring, _add(self.ring, self.terms, other.terms, 1))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.ring, _add(self.ring, self.terms, other.terms, -1))

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        if p is not None:
            return Polynomial(self.ring, {m: (-c) % p for m, c in self.terms.items()})
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.ring, _mul(self.ring, self.terms, other.terms))

    def scale(self, c) -> "Polynomial":
        ring = self.ring
        c = ring.coeff(c)
        if not c:
            return Polynomial.zero(ring)
        if ring.p is not None:
            return Polynomial(ring, {m: (v * c) % ring.p for m, v in self.terms.items()})
        return Polynomial(ring, {m: v * c for m, v in self.terms.items()})

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return Polynomial(self.ring, _monic(self.ring, self.terms))

    def __repr__(self):
        return f"Polynomial({poly_to_text(self)})"


def _add(ring: RingSpec, a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    p = ring.p
    for m, c in b.items():
        v = out.get(m, 0) + (c if sign > 0 else -c)
        if p is not None:
            v %= p
        if v:
            out[m] = v
        elif m in out:
            del out[m]
    return out


def _mul(ring: RingSpec, a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    dg = ring.mono_degree
    if max(dg(m) for m in a) + max(dg(m) for m in b) > _MAX_EXPONENT:
        raise BudgetExceededError(
            f"product degree would exceed the hard cap {_MAX_EXPONENT}"
        )
    out: dict = {}
    p = ring.p
    if len(a) > len(b):
        a, b = b, a
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = ma + mb
            v = out.get(key, 0) + ca * cb
            if p is not None:
                v %= p
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


# ---------------------------------------------------------------------------
# normal forms and Buchberger
# ---------------------------------------------------------------------------


def _monic(ring: RingSpec, g: dict) -> dict:
    """g scaled so that its leading coefficient is 1 (g nonzero)."""
    inv = ring.inv(g[max(g)])
    p = ring.p
    if p is not None:
        return {m: (c * inv) % p for m, c in g.items()}
    return {m: c * inv for m, c in g.items()}


def _reducer(g: dict) -> tuple:
    """The division-loop form (lt, tail items) of a nonzero monic g.

    Every reducer is built from a monic element: a new basis element, a
    reduced basis or a known monic Groebner basis.  So no inverse of the
    leading coefficient is needed.
    """
    lt = max(g)
    return lt, tuple((m, c) for m, c in g.items() if m != lt)


def _lead(reducer: tuple) -> int:
    return reducer[0]


def _prepare_reducers(basis: Sequence[dict]) -> list:
    """Reducers of the nonzero elements of a monic basis, sorted by
    leading term."""
    return sorted((_reducer(g) for g in basis if g), key=_lead)


def _nf(ring: RingSpec, f: dict, red: list, max_degree: Optional[int] = None) -> dict:
    """Full normal form of f against prepared reducers.

    Terms are processed greatest-first via a lazy max-heap; each surfaced
    term either reduces against the first reducer whose leading term
    divides it or moves to the remainder.  A term whose degree exceeds
    ``max_degree`` raises BudgetExceededError (possible only for
    inhomogeneous input, e.g. tag eliminations).  Only _buchberger passes
    ``max_degree``, and the degree is read as m % 255, which is exact under
    its degree invariant (module docstring).
    """
    if not f:
        return {}
    p = ring.p
    top = ring._top
    work = dict(f)
    out: dict = {}
    heap = [-m for m in work]
    heapq.heapify(heap)
    while heap:
        m = -heapq.heappop(heap)
        c = work.get(m)
        if not c:
            continue
        del work[m]
        if max_degree is not None and m % 255 > max_degree:
            raise BudgetExceededError(
                f"normal form hit degree {m % 255} > budget {max_degree}"
            )
        hit = None
        mt = m | top
        for r in red:
            lt = r[0]
            if lt > m:
                break
            if (mt - lt) & top == top:
                hit = r
                break
        if hit is None:
            out[m] = c
            continue
        lt, tail = hit
        q = m - lt
        for tm, tc in tail:
            key = tm + q
            prev = work.get(key)
            v = (prev or 0) - c * tc
            if p is not None:
                v %= p
            if v:
                if prev is None:
                    heapq.heappush(heap, -key)
                work[key] = v
            elif prev is not None:
                del work[key]
    return out


def _spoly(ring: RingSpec, f: dict, g: dict) -> dict:
    """S-polynomial of two monic f and g: their leading terms cancel
    without any coefficient arithmetic."""
    p = ring.p
    ltf, ltg = max(f), max(g)
    lcm = ring.mono_lcm(ltf, ltg)
    uf, ug = lcm - ltf, lcm - ltg
    out = {m + uf: c for m, c in f.items()}
    for m, c in g.items():
        key = m + ug
        v = out.get(key, 0) - c
        if p is not None:
            v %= p
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return out


def _gm_update(ring, lts: list, pairs: dict, heap: list, new_idx: int):
    """Gebauer-Moeller pair update for the element just appended at new_idx.

    ``pairs`` maps alive (i, j) -> lcm; ``heap`` holds
    (lcm degree, lcm, i, j) entries, dead ones skipped lazily at pop.
    Called by _buchberger only: lcm degrees are read as l % 255.
    """
    top = ring._top
    low = (top >> 7) * 0x7F
    lt_h = lts[new_idx]
    lcms = []
    for a in lts[:new_idx]:
        d = (a | top) - lt_h
        lcms.append(lt_h + (d & ((d & top) >> 7) * 0xFF & low))
    cand = sorted((l % 255, l, g) for g, l in enumerate(lcms))
    # criterion M: keep an lcm only if no kept lcm divides it; a divisor
    # has lower degree or is equal, so it is always walked first.  Coprime
    # lcms are kept as dominators, and criterion B1 drops their pairs.
    kept: list[int] = []
    new_pairs = []
    for d, l, g in cand:
        lt_ = l | top
        for k in kept:
            if (lt_ - k) & top == top:
                break
        else:
            kept.append(l)
            if lts[g] + lt_h != l:
                new_pairs.append((d, l, g))
    # prune old pairs via the chain criterion
    for (i, j), l in list(pairs.items()):
        if (
            ((l | top) - lt_h) & top == top
            and lcms[i] != l
            and lcms[j] != l
        ):
            del pairs[(i, j)]
    for d, l, g in new_pairs:
        pairs[(g, new_idx)] = l
        heapq.heappush(heap, (d, l, g, new_idx))


def _reduce_basis(ring: RingSpec, basis: list) -> list:
    """Minimalize and tail-reduce a basis that is already a Groebner basis.

    One pass in increasing leading-term order: an element whose leading
    term a kept one divides is dropped, every other one is reduced against
    the kept ones and made monic.  An element kept later cannot reduce an
    earlier one: its leading term is larger than every term of the earlier
    one, and a divisor is never larger than the term it divides.
    """
    top = ring._top
    out: list = []
    red: list = []
    for g in sorted((g for g in basis if g), key=max):
        lt_ = max(g) | top
        if any((lt_ - r[0]) & top == top for r in red):
            continue
        g = _monic(ring, _nf(ring, g, red))
        out.append(g)
        red.append(_reducer(g))
    out.reverse()
    return out


def _buchberger(
    ring: RingSpec, gens: Sequence[dict], budget: GBBudget, known: Sequence[dict] = ()
) -> list:
    """Reduced Groebner basis of the ideal generated by ``known`` and ``gens``.

    ``known`` must be a monic Groebner basis of the ideal it generates.
    Its elements open the basis as they are, and no pair among them is
    ever formed: each such S-polynomial already has a standard
    representation over ``known``, so for criterion M and the chain
    criterion those pairs count as treated.  Every other basis element is
    made monic when it is added, so _spoly sees monic elements only.

    Every term of every generator and every known element is checked
    against ``budget.max_degree`` exactly at entry, even a term a later
    reduction would cancel; an S-pair's lcm is checked before its
    S-polynomial is formed, and a term before it is reduced.  So every
    monomial of the run has degree at most 2 * max_degree < 255, and its
    degree is read as m % 255 (module docstring).
    """
    for g in itertools.chain(known, gens):
        d = max(map(ring.mono_degree, g), default=0)
        if d > budget.max_degree:
            raise BudgetExceededError(
                f"input element of degree {d} > budget {budget.max_degree}"
            )
    basis: list = list(known)
    lts: list[int] = [max(g) for g in basis]
    red: list = _prepare_reducers(basis)
    pairs: dict = {}
    heap: list = []

    def add(r: dict):
        r = _monic(ring, r)
        basis.append(r)
        lts.append(max(r))
        insort(red, _reducer(r), key=_lead)
        _gm_update(ring, lts, pairs, heap, len(basis) - 1)

    for g in sorted((g for g in gens if g), key=lambda g: (max(g) % 255, max(g))):
        r = _nf(ring, g, red, budget.max_degree)
        if r:
            add(r)
    reductions = 0
    while heap:
        deg_l, l, i, j = heapq.heappop(heap)
        if pairs.get((i, j)) != l:
            continue
        del pairs[(i, j)]
        if deg_l > budget.max_degree:
            raise BudgetExceededError(
                f"S-pair lcm degree {deg_l} > budget {budget.max_degree}"
            )
        reductions += 1
        if reductions > budget.max_pairs:
            raise BudgetExceededError(
                f"S-pair count exceeded budget {budget.max_pairs}"
            )
        r = _nf(ring, _spoly(ring, basis[i], basis[j]), red, budget.max_degree)
        if r:
            add(r)
    return _reduce_basis(ring, basis)


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """Ideal with cached reduced Groebner basis.

    Two ideals in the same ring are equal exactly when their reduced bases
    coincide, which is what ``equals`` checks.
    """

    __slots__ = ("ring", "gens", "_gb", "_red")

    def __init__(self, ring: RingSpec, gens: Iterable[Polynomial], _gb=None):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        self._gb = _gb
        self._red = None

    def groebner(self, budget: GBBudget = DEFAULT_BUDGET) -> tuple[Polynomial, ...]:
        if self._gb is None:
            basis = _buchberger(self.ring, [g.terms for g in self.gens], budget)
            self._gb = tuple(Polynomial(self.ring, g) for g in basis)
        return self._gb

    def _reducers(self, budget: GBBudget = DEFAULT_BUDGET):
        if self._red is None:
            self._red = _prepare_reducers([g.terms for g in self.groebner(budget)])
        return self._red

    def normal_form(self, f: Polynomial, budget: GBBudget = DEFAULT_BUDGET) -> Polynomial:
        return Polynomial(self.ring, _nf(self.ring, f.terms, self._reducers(budget)))

    def contains(self, f: Polynomial, budget: GBBudget = DEFAULT_BUDGET) -> bool:
        return not _nf(self.ring, f.terms, self._reducers(budget))

    def equals(self, other: "Ideal", budget: GBBudget = DEFAULT_BUDGET) -> bool:
        if not self.ring.same_signature(other.ring):
            return False
        a = [g.terms for g in self.groebner(budget)]
        b = [g.terms for g in other.groebner(budget)]
        return a == b

    def is_known_groebner(self) -> bool:
        return self._gb is not None

    def to_record(self, include_gb: bool = False) -> dict:
        rec = {
            "ring": self.ring.to_record(),
            "generators": [poly_to_text(g) for g in self.gens],
        }
        if include_gb and self._gb is not None:
            rec["reduced_gb"] = [poly_to_text(g) for g in self._gb]
        return rec

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens over {self.ring!r})"


# ---------------------------------------------------------------------------
# constructors: minors, edge ideals, cut-set primes
# ---------------------------------------------------------------------------


def minor(ring: RingSpec, rows: tuple[int, int], cols: tuple[int, int]) -> Polynomial:
    """The 2-minor x[i,k] x[j,l] - x[i,l] x[j,k] for i<j, k<l."""
    i, j = rows
    k, l = cols
    if not (1 <= i < j <= ring.m):
        raise GraphInputError(f"row pair ({i},{j}) must be increasing within 1..{ring.m}")
    if not (1 <= k < l <= ring.n):
        raise GraphInputError(f"column pair ({k},{l}) must be increasing within 1..{ring.n}")
    vm = ring.var_mono
    vi = ring.var_index
    return Polynomial.from_terms(
        ring,
        [
            (vm(vi(i, k)) + vm(vi(j, l)), 1),
            (vm(vi(i, l)) + vm(vi(j, k)), -1),
        ],
    )


def generalized_minor(
    ring: RingSpec, rows: Sequence[int], cols: Sequence[int]
) -> Polynomial:
    """Determinant of the submatrix (x[r,c]) over the given rows and columns.

    The column order is taken as given; rows and columns must have equal
    length.  Expansion is over permutations, fine for the small sizes used
    here (at most m)."""
    if len(rows) != len(cols):
        raise GraphInputError("determinant needs a square submatrix")
    k = len(rows)
    vm = ring.var_mono
    vi = ring.var_index
    items = []
    for perm in itertools.permutations(range(k)):
        sign = 1
        seen = list(perm)
        for a in range(k):
            for b in range(a + 1, k):
                if seen[a] > seen[b]:
                    sign = -sign
        mono = 0
        for r_idx, c_idx in enumerate(perm):
            mono += vm(vi(rows[r_idx], cols[c_idx]))
        items.append((mono, sign))
    return Polynomial.from_terms(ring, items)


def binomial_edge_ideal(ring: RingSpec, G: SimpleGraph) -> Ideal:
    """Generators [i,j|k,l] over all row pairs of the m rows and edges {k,l}."""
    if ring.n != G.n:
        raise GraphInputError(
            f"ring has {ring.n} columns but the graph has {G.n} vertices"
        )
    gens = []
    for i in range(1, ring.m + 1):
        for j in range(i + 1, ring.m + 1):
            for k, l in G.edge_list():
                gens.append(minor(ring, (i, j), (k, l)))
    return Ideal(ring, gens)


def cut_set_prime(ring: RingSpec, G: SimpleGraph, T: Iterable[int]) -> Ideal:
    """The prime ideal attached to a cut set T: the variables over T plus
    the edge ideal of each completed component of G minus T.

    The listed generators are already the reduced Groebner basis: the
    variables have no tails, and the 2-minors of a generic submatrix form
    a Groebner basis under any diagonal order (the classical determinantal
    fact), with leading terms that no variable over T divides.  The cached
    basis is set directly; tests cross-check it against Buchberger.
    """
    Tset = sorted(set(T))
    gens: list[Polynomial] = []
    for j in Tset:
        for i in range(1, ring.m + 1):
            gens.append(Polynomial.variable(ring, i, j))
    for comp in G.components(frozenset(Tset)):
        vs = sorted(comp)
        for i in range(1, ring.m + 1):
            for j in range(i + 1, ring.m + 1):
                for a_idx in range(len(vs)):
                    for b_idx in range(a_idx + 1, len(vs)):
                        gens.append(minor(ring, (i, j), (vs[a_idx], vs[b_idx])))
    gb = sorted((g.monic() for g in gens), key=lambda g: -g.lt())
    return Ideal(ring, gens, _gb=tuple(gb))


def witness_polynomial(
    ring: RingSpec,
    minor_blocks: Sequence[Sequence[int]],
    isolated_vars: Sequence[int],
) -> Polynomial:
    """Product of one l x l top-row minor per block (rows 1..l, the given
    columns) and x[1,v] for each isolated column v."""
    f = Polynomial.one(ring)
    for cols in minor_blocks:
        f = f * generalized_minor(ring, list(range(1, len(cols) + 1)), list(cols))
    for v in isolated_vars:
        f = f * Polynomial.variable(ring, 1, v)
    return f


# ---------------------------------------------------------------------------
# ideal calculus
# ---------------------------------------------------------------------------


def intersect(
    I: Ideal, J: Ideal, budget: GBBudget = ELIMINATION_BUDGET
) -> Ideal:
    """I cap J by tag elimination: eliminate t from t*I + (1-t)*J.

    Warm start: the elimination opens with t*g for g in the reduced basis
    of I (computed under ``budget`` if not cached yet).  Multiplying by t
    keeps the leading terms' divisibility, so t*GB(I) is a Groebner basis
    of t*I, and S(t*g_i, t*g_j) = t*S(g_i, g_j) already reduces to zero
    over it; those pairs are never formed.  Only the (1-t)*J generators
    go through the seed loop, reduced against everything before them.
    The reduced basis is unique, so the result is the one a run from the
    raw generators of t*I gives, with fewer S-pairs.
    """
    ring = I.ring
    ext = ring.extended()
    known = [{m + ext.tag: c for m, c in g.terms.items()} for g in I.groebner(budget)]
    gens_ext: list[dict] = []
    for h in J.gens:
        d = dict(h.terms)
        p = ring.p
        for m, c in h.terms.items():
            key = m + ext.tag
            d[key] = (-c) % p if p is not None else -c
        gens_ext.append(d)
    gb = _buchberger(ext, gens_ext, budget, known)
    kept = [Polynomial(ring, g) for g in gb if max(g) < ext.tag_threshold]
    return Ideal(ring, kept, _gb=tuple(kept))


def intersect_many(
    ideals: Sequence[Ideal], budget: GBBudget = ELIMINATION_BUDGET
) -> Ideal:
    """Iterated pairwise intersection, largest generator sets first so the
    intermediate ideals shrink toward the answer."""
    if not ideals:
        raise GraphInputError("intersection of an empty family is the whole ring")
    todo = sorted(ideals, key=lambda I: -len(I.gens))
    acc = todo[0]
    for nxt in todo[1:]:
        acc = intersect(acc, nxt, budget)
    return acc


def poly_divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact quotient f/g; raises if g does not divide f."""
    ring = f.ring
    p = ring.p
    rem = dict(f.terms)
    gt = dict(g.terms)
    ltg = max(gt)
    inv = ring.inv(gt[ltg])
    q: dict = {}
    while rem:
        m = max(rem)
        if not ring.mono_divides(ltg, m):
            raise ArithmeticError("exact division failed: remainder is nonzero")
        u = m - ltg
        c = rem[m] * inv
        if p is not None:
            c %= p
        q[u] = c
        for mg, cg in gt.items():
            key = mg + u
            v = rem.get(key, 0) - c * cg
            if p is not None:
                v %= p
            if v:
                rem[key] = v
            elif key in rem:
                del rem[key]
    return Polynomial(ring, q)


def colon_poly(
    I: Ideal, f: Polynomial, budget: GBBudget = ELIMINATION_BUDGET
) -> Ideal:
    """(I : f) computed as (I cap (f)) / f.

    The termwise quotients of a Groebner basis of I cap (f) by f again
    form a Groebner basis, so the result only needs the cheap final
    reduction, not a fresh Buchberger run."""
    if f.is_zero():
        raise GraphInputError("colon by the zero polynomial")
    ring = I.ring
    meet = intersect(I, Ideal(ring, [f]), budget)
    quot = [poly_divexact(g, f) for g in meet.groebner(budget)]
    basis = [Polynomial(ring, b) for b in _reduce_basis(ring, [q.terms for q in quot])]
    return Ideal(ring, basis, _gb=tuple(basis))


def ideal_power(I: Ideal, k: int) -> Ideal:
    """Generated by all k-fold products of generators."""
    if k < 1:
        raise GraphInputError(f"power exponent must be >= 1, got {k}")
    if k == 1:
        return I
    gens = []
    for combo in itertools.combinations_with_replacement(I.gens, k):
        f = combo[0]
        for g in combo[1:]:
            f = f * g
        gens.append(f)
    return Ideal(I.ring, gens)


def _minimal_monomials(ring: RingSpec, monos: Iterable[int]) -> list[int]:
    monos = sorted(set(monos), key=lambda m: (ring.mono_degree(m), m))
    out: list[int] = []
    for m in monos:
        if not any(ring.mono_divides(g, m) for g in out):
            out.append(m)
    return out


def monomial_ideal_power(ring: RingSpec, monos: Sequence[int], k: int) -> list[int]:
    prods = {sum(c) for c in itertools.combinations_with_replacement(monos, k)}
    return _minimal_monomials(ring, prods)


def monomial_ideal_colon(ring: RingSpec, monos: Sequence[int], u: int) -> list[int]:
    return _minimal_monomials(ring, [m - ring.mono_gcd(m, u) for m in monos])


def monomial_ideals_equal(
    ring: RingSpec, a: Sequence[int], b: Sequence[int]
) -> bool:
    amin, bmin = _minimal_monomials(ring, a), _minimal_monomials(ring, b)
    return amin == bmin


# ---------------------------------------------------------------------------
# the v-number oracle
# ---------------------------------------------------------------------------


def _ini_colon_certificate(
    I: Ideal, f: Polynomial, P: Ideal, budget: GBBudget
) -> bool:
    """Cheap sufficient test for (I : f) = P, given P inside (I : f).

    Any h with h f in I satisfies ini(h) ini(f) in ini(I), so
    ini((I : f)) sits inside the monomial colon (ini I : ini f).  When that
    monomial colon lands inside ini(P), the chain
    ini(P) <= ini(I : f) <= (ini I : ini f) <= ini(P) collapses, and an
    inclusion of ideals with equal initial ideals is an equality.
    Returns False when inconclusive.
    """
    ring = I.ring
    ini_I = [g.lt() for g in I.groebner(budget)]
    ini_P = [g.lt() for g in P.groebner(budget)]
    Q = monomial_ideal_colon(ring, ini_I, f.lt())
    return all(any(ring.mono_divides(g, q) for g in ini_P) for q in Q)


def verify_witness(
    I: Ideal,
    f: Polynomial,
    P: Ideal,
    budget: GBBudget = ELIMINATION_BUDGET,
) -> bool:
    """Does (I : f) equal the prime P?

    P must be prime (every caller passes a cut-set prime).  The necessary
    conditions I <= P and f*P <= I are checked first, and then the
    inclusion (I : f) <= P is certified by the cheapest applicable
    argument:

    * f outside P: for any h with h f in I <= P, primeness forces h in P;
    * the initial-ideal certificate of _ini_colon_certificate;
    * otherwise the exact tag-elimination colon.
    """
    if not all(P.contains(g, budget) for g in I.gens):
        return False  # (I : f) contains I, so it could never equal P
    if not all(I.contains(f * g, budget) for g in P.gens):
        return False
    if not P.contains(f, budget):
        return True
    if _ini_colon_certificate(I, f, P, budget):
        return True
    return colon_poly(I, f, budget).equals(P, budget)


def _homogeneous_degree2_gens(P: Ideal) -> list[Polynomial]:
    out = []
    for g in P.gens:
        d = g.degree()
        if d == 2:
            out.append(g)
        elif d == 1:
            out.append(g * g)
    return out


def separating_element(target: Ideal, others: Sequence[Ideal]) -> Polynomial:
    """A homogeneous quadric inside ``target`` but outside every ideal in
    ``others``.

    Only a few of the degree-2 generators are combined, so that the
    eliminations this element feeds carry few terms.  ``others`` is walked
    in order, and for each ideal that no picked generator avoids yet, the
    first generator outside it is picked, in ``target.gens`` order (for a
    cut-set prime the one-term variable squares come first).  For
    pairwise incomparable primes such a generator always exists.
    Deterministic weighted sums of the picked generators are then tried in
    a fixed escalation of 64 weightings until the membership checks
    against every ideal in ``others`` pass.  brute_local_v does not depend
    on which element is returned: (J : f0) is the intersection of the
    other primes for every f0 in P_T outside them.
    """
    ring = target.ring
    hs = _homogeneous_degree2_gens(target)
    picked: list[Polynomial] = []
    for o in others:
        if all(o.contains(h) for h in picked):
            picked.extend(itertools.islice((h for h in hs if not o.contains(h)), 1))
    base = ring.p if ring.p is not None else (1 << 31) - 1
    for a in range(1, 65):
        f = Polynomial.zero(ring)
        for idx, h in enumerate(picked):
            f = f + h.scale(pow(a + 1, idx + 1, base))
        if f.is_zero():
            continue
        if all(not o.contains(f) for o in others):
            return f
    raise BudgetExceededError(
        "no separating element found; the prime family looks degenerate"
    )


def brute_local_v(
    ring: RingSpec,
    G: SimpleGraph,
    T: Iterable[int],
    budget: GBBudget = ELIMINATION_BUDGET,
) -> tuple[int, Polynomial]:
    """Exact local v-number of the edge ideal of G at the cut set T, by
    ideal arithmetic alone.  Returns (degree, witness); there is no degree
    cap, and the Groebner budget is the only bound on the work.

    Method.  The edge ideal J is radical with minimal primes P_{T'} over
    the cut sets T', pairwise incomparable.  For f in P_T outside every
    other prime, (J : f) = cap_{T' != T} P_{T'} =: A, since colon
    distributes over the intersection and (P_{T'} : f) is P_{T'} or the
    whole ring according to whether f avoids P_{T'}.  Now
    (J : h) = P_T  iff  h lies in A but not in P_T: one direction is the
    same distribution argument, and conversely h in P_T cap A = J would
    give (J : h) = (1).  Finally, for homogeneous A the minimum degree of
    an element of A outside P_T is attained on the reduced Groebner basis
    of A: a basis element outside P_T is itself a witness, while if every
    basis element of degree <= d lies in P_T then so does every element of
    A of degree <= d, each being a combination of monomial multiples of
    basis elements of no larger degree.  So the answer is the least degree
    of a reduced-basis element of A outside P_T.  Such an element exists
    by prime avoidance, as A is not inside P_T; finding none, like a
    witness failing its re-verification against the definition
    ((J : witness) = P_T via the prime membership test), is an internal
    inconsistency and raises AssertionError.
    """
    Tkey = tuple(sorted(set(T)))
    cut_sets = [c.vertices for c in enumerate_cut_sets(G)]
    if Tkey not in cut_sets:
        raise NotACutSetError(f"{list(Tkey)} is not a cut set of the graph")
    primes = {ts: cut_set_prime(ring, G, ts) for ts in cut_sets}
    J = binomial_edge_ideal(ring, G)
    J.groebner(budget)
    target = primes[Tkey]
    others = [primes[ts] for ts in cut_sets if ts != Tkey]
    if not others:
        return (0, Polynomial.one(ring))
    f0 = separating_element(target, others)
    A = colon_poly(J, f0, budget)
    w = next(
        (g for g in sorted(A.groebner(budget), key=lambda g: (g.degree(), g.lt()))
         if not target.contains(g)),
        None,
    )
    if w is None or not verify_witness(J, w, target, budget):
        raise AssertionError(
            "internal inconsistency: the least reduced-basis element of A "
            "outside P_T is missing or fails re-verification"
        )
    return w.degree(), w


def all_monomials_of_degree(ring: RingSpec, d: int) -> list[int]:
    """All packed monomials of total degree d, descending (lex order)."""
    out = []

    def rec(idx: int, rest: int, acc: int):
        if idx == ring.nvars - 1:
            out.append(acc + rest * ring.var_mono(idx))
            return
        for e in range(rest, -1, -1):
            rec(idx + 1, rest - e, acc + e * ring.var_mono(idx))

    rec(0, d, 0)
    out.sort(reverse=True)
    return out


def _kernel_witness_at_degree(
    ring: RingSpec,
    d: int,
    Jk: Ideal,
    P: Ideal,
    budget: GBBudget,
) -> Optional[Polynomial]:
    """A witness of degree d for (Jk : f) = P, or None, by streaming
    elimination over the degree-d slice of (Jk : P).

    For each monomial u of degree d the stacked vector of normal forms
    NF(u * g, Jk) over generators g of P is reduced against previously
    stored pivot rows; a vanishing reduction yields a kernel combination,
    i.e. an f with f*P inside Jk.  Membership of f in P is linear, so it
    is enough to inspect each kernel basis vector as it appears.  Prime
    field coefficients only.
    """
    p = ring.p
    pivots: dict = {}
    for u in all_monomials_of_degree(ring, d):
        vec: dict = {}
        for gi, g in enumerate(P.gens):
            prod = Polynomial(ring, {u: ring.coeff(1)}) * g
            nf = Jk.normal_form(prod, budget)
            for m, c in nf.terms.items():
                vec[(gi, m)] = c
        combo = {u: 1}
        while vec:
            key = max(vec)
            if key not in pivots:
                inv = ring.inv(vec[key])
                vec = {kk: (vv * inv) % p for kk, vv in vec.items()}
                combo = {kk: (vv * inv) % p for kk, vv in combo.items()}
                pivots[key] = (vec, combo)
                combo = None
                break
            pv, pc = pivots[key]
            factor = vec[key]
            for kk, vv in pv.items():
                nv = (vec.get(kk, 0) - factor * vv) % p
                if nv:
                    vec[kk] = nv
                elif kk in vec:
                    del vec[kk]
            for kk, vv in pc.items():
                nv = (combo.get(kk, 0) - factor * vv) % p
                if nv:
                    combo[kk] = nv
                elif kk in combo:
                    del combo[kk]
        if combo is not None and combo:
            # kernel element: f * P lies in Jk by construction, but the
            # reverse inclusion (Jk : f) <= P still needs verification
            f = Polynomial(ring, dict(combo)).monic()
            if verify_witness(Jk, f, P, budget):
                return f
    return None


def search_power_witness(
    ring: RingSpec,
    G: SimpleGraph,
    T: Iterable[int],
    k: int,
    d_max: int,
    budget: GBBudget = ELIMINATION_BUDGET,
) -> Optional[dict]:
    """Search for f of least degree <= d_max with (J^k : f) = P_T.

    One exact sweep over the degree slices d = 0..d_max.  J^k lies in the
    prime P_T, so (J^k : f) = P_T holds exactly for the f in (J^k : P_T)
    outside P_T; the degree-d part of (J^k : P_T) is the kernel of a
    linear map (_kernel_witness_at_degree), and a homogeneous component of
    a witness is a witness of no larger degree.  The first degree whose
    kernel leaves P_T is therefore the least witness degree at P_T.  A hit
    is certified by verify_witness before being reported; a miss is
    reported as None, never as a lower bound.  The sweep needs a
    prime-field ring; any other ring raises GraphInputError.
    """
    if ring.p is None:
        raise GraphInputError("the power witness search needs a prime-field ring")
    J = binomial_edge_ideal(ring, G)
    Jk = ideal_power(J, k)
    Jk.groebner(budget)
    P = cut_set_prime(ring, G, T)
    for d in range(d_max + 1):
        f = _kernel_witness_at_degree(ring, d, Jk, P, budget)
        if f is not None:
            return {"degree": d, "witness": f, "via": "degree-slice"}
    return None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def poly_to_text(f: Polynomial) -> str:
    """Canonical text: terms sorted descending in the ring order, each term
    ``c*x[i,j]^e*...`` with the canonical coefficient representative."""
    if f.is_zero():
        return "0"
    parts = []
    for m in sorted(f.terms, reverse=True):
        c = f.terms[m]
        body = f.ring.mono_text(m)
        parts.append(f"{c}*{body}" if body else str(c))
    return " + ".join(parts)
