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
The hot loops (the reducer scan of _nf, the criterion-M scan of
_gm_update, the chain test of _chain_drops and the leading-term check of
_reduce_basis) inline that test with b | top formed once per term, and
_chain_drops the lcm, _gm_update lcm(a, b) / b; the RingSpec methods
serve the cold callers.  _buchberger reads each leading term once: _nf
emits its terms in descending order, and _record makes its output monic
and builds its reducer (lt, tail) in one pass, the element's record, read
by _spoly, the stop test and the finish.  Inside _buchberger the total
degree of a packed monomial is m % 255: as 256 = 1 (mod 255) this is the
byte sum, exact while the degree is below 255.  Every monomial a run sees
has degree at most 2 * max_degree <= 2 * _MAX_EXPONENT = 240, because
every term of its input is checked exactly at entry, an S-pair's lcm is
checked before its S-polynomial is formed, and a term is checked before
it is reduced.  There, and on search_power_witness's rows, _nf finds the
divisor of a term no larger in degree than every leading term by one
lookup, not by the scan.  On the rows alone, a term one degree above the
least leading term takes one lookup per variable of the term, and a row
whose terms these lookups show to have no divisor is its own normal form
and skips _nf.  RingSpec.mono_degree stays exact for every input.

Determinism: S-pairs are processed in ascending (lcm degree, lcm, i, j)
order, where brute_local_v's truncated elimination reads the degree
without the tag t (x-degree); the Gebauer-Moeller update walks the new
candidates by (lcm / lt, index), which puts every divisor first and keeps
the smallest index among equal lcms; the chain criterion is tested at pop.
A tag elimination opens with the reduced basis of its first ideal in its
stored order, and pairs a new element only with its own kind, t-free or
tagged (_buchberger); as two kinds never share an lcm, heap entries that
index a kind's list pop in the same order.  The basis of a power from
ideal_power skips the pairs of products that share a factor; the factor
indices are kept in sets, which decide only whether a pair is queued,
never the order in which queued pairs are popped, and each seed is
tested in the seed loop's sorted order.  The oracle's separating element
covers the other primes by generators of P_T picked greedily, ties to
the first, with fixed weights, and is linear if all are variables.  No
choice reaches the output: reduced bases are unique, returned monic by
descending leading term, so repeated runs produce byte-identical output.
The lookups find the scan's reducer (the first divisor by leading term),
so normal forms keep their terms and their order.

Sums, scalings, products, S-polynomials, exact division and the power
sweep's pivot elimination share one coefficient update, _sub_mul
(acc - c * x^u * b); _nf keeps an inline copy, as each new key it makes
goes onto its heap.

Exact rules skip steps whose outcome is fixed.  A proper divisor has
lower degree, so _minimal_monomials tests division only by lower degrees,
and _colon_route's certificate, where no lower one can divide, only looks
up equal ones.  A product that is a generator of I lies in I, so the
inclusions f*Q <= I and f*P <= I take no normal form for it (_is_gen, a
lookup by leading term).  search_power_witness builds rows only for row
contents that can hold a witness, one per row permutation.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from bisect import bisect_left, insort
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

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
        if self.max_degree < 0:
            raise GraphInputError(f"degree budget must be >= 0, got {self.max_degree}")
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
        self._ext, self._inv = None, {}  # extended(), and c -> c^(p-2) shared with it

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
        if self.p is not None:  # kept: a run meets few coefficients, and at most p
            return self._inv.get(c) or self._inv.setdefault(c, pow(c, self.p - 2, self.p))
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

    def __repr__(self):
        field = "QQ" if self.p is None else f"GF({self.p})"
        return f"RingSpec({self.m}x{self.n}, {field})"


class _TagRing(RingSpec):
    """Base ring extended by one tag variable t ordered above all x[i,j]."""

    def __init__(self, base: RingSpec):
        self.m = base.m
        self.n = base.n
        self.p = base.p
        self.nvars = base.nvars + 1
        self.names = ("t",) + base.names
        self._init_masks()
        self._ext, self._inv = None, base._inv
        #: packed tag monomial; base monomials embed unchanged below it
        self.tag = 1 << (_FIELD_BITS * base.nvars)


class Polynomial:
    """Immutable sparse polynomial: packed monomial -> nonzero coefficient."""

    __slots__ = ("ring", "terms", "_lt", "_deg")

    def __init__(self, ring: RingSpec, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lt = None
        self._deg = None

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
        for m, c in items:  # not _sub_mul: raw coefficients are coerced first
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

    def degree(self) -> int:
        if self._deg is None:
            self._deg = max(map(self.ring.mono_degree, self.terms), default=-1)
        return self._deg

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
        return Polynomial(self.ring, _sub_mul(self.ring, dict(self.terms), other.terms, -1))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.ring, _sub_mul(self.ring, dict(self.terms), other.terms, 1))

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.terms and other.terms and self.degree() + other.degree() > _MAX_EXPONENT:
            raise BudgetExceededError(f"product degree would exceed the hard cap {_MAX_EXPONENT}")
        return Polynomial(self.ring, _mul(self.ring, self.terms, other.terms))

    def scale(self, c) -> "Polynomial":
        return Polynomial(self.ring, _sub_mul(self.ring, {}, self.terms, -self.ring.coeff(c)))

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return Polynomial(self.ring, _record(self.ring, self.terms, self.lt())[0])

    def __repr__(self):
        return f"Polynomial({poly_to_text(self)})"


def _sub_mul(ring: RingSpec, acc: dict, b: dict, c, shift: int = 0) -> dict:
    """acc - c * x^shift * b, in place and returned, reduced mod p in a
    prime field and with zero coefficients deleted (module docstring)."""
    p = ring.p
    for m, v in b.items():
        key = m + shift
        v = acc.get(key, 0) - c * v
        if p is not None:
            v %= p
        if v:
            acc[key] = v
        elif key in acc:
            del acc[key]
    return acc


def _mul(ring: RingSpec, a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ma, ca in a.items():
        _sub_mul(ring, out, b, -ca, ma)
    return out


# ---------------------------------------------------------------------------
# normal forms and Buchberger
# ---------------------------------------------------------------------------


def _record(ring: RingSpec, g: dict, lt: Optional[int] = None) -> tuple:
    """(monic g, its reducer (lt, tail)) in one pass, for a nonzero g with
    leading term ``lt``, by default its first key: _nf emits its terms in
    descending order.  The one helper that makes a polynomial monic."""
    lt = next(iter(g)) if lt is None else lt
    inv, p = ring.inv(g[lt]), ring.p
    tail = tuple([(m, v * inv % p if p else v * inv) for m, v in g.items() if m != lt])
    return dict(((lt, ring.coeff(1)),) + tail), (lt, tail)


def _reducer(g: dict) -> tuple:
    """The reducer (lt, tail items) of a nonzero g that is already monic,
    as the elements of reduced and known bases are."""
    lt = max(g)
    return lt, tuple((m, c) for m, c in g.items() if m != lt)


def _lead(reducer: tuple) -> int:
    return reducer[0]


def _prepare_reducers(basis: Sequence[dict]) -> list:
    """Reducers of the nonzero elements of a monic basis, sorted by
    leading term."""
    return sorted((_reducer(g) for g in basis if g), key=_lead)


def _lead_lookup(red: list, top_degree: int, *, one_up: bool = False) -> Optional[list]:
    """_nf's ``leads`` for terms of degree <= top_degree: the least lead
    degree, each lead's first reducer, and whether a term one degree above
    the least takes _one_up's lookups or the scan; None from 255 up, where
    m % 255 is inexact.  search_power_witness sets ``one_up``: its rows'
    terms meet the whole reduced basis of J^k.  _buchberger leaves it off:
    there the scan of such a term stops after a few reducers, fewer steps
    than the lookups take."""
    if top_degree >= 255:
        return None
    low = min((r[0] % 255 for r in red), default=255)
    return [low, {r[0]: r for r in reversed(red)}, one_up]


def _one_up(m: int, by_lead: dict) -> Optional[tuple]:
    """The scan's reducer for a term m one degree above the least lead
    degree: the first, by leading term, whose lead divides m, or None.

    A dividing lead is then m itself or m / y for a variable y dividing m.
    The lookups go from the largest y down, m last, so in increasing lead
    order, and the first found is the scan's: ``by_lead`` keeps each lead's
    first reducer, and the scan walks the reducers sorted by lead."""
    rest = m
    while rest:
        y = 1 << ((rest.bit_length() - 1) & -_FIELD_BITS)  # the top field's unit
        hit = by_lead.get(m - y)
        if hit is not None:
            return hit
        rest &= y - 1
    return by_lead.get(m)


def _nf(ring: RingSpec, f: dict, red: list, max_degree: Optional[int] = None, leads=None) -> dict:
    """Full normal form of f against prepared reducers.

    Terms are processed greatest-first via a lazy max-heap; each surfaced
    term either reduces against the first reducer whose leading term
    divides it or moves to the remainder.  A term whose degree exceeds
    ``max_degree`` raises BudgetExceededError (possible only for
    inhomogeneous input, e.g. tag eliminations).

    ``leads`` (_lead_lookup) replaces the scan by a lookup for a term m of
    degree at most every lead's: a divisor of m is never of larger degree,
    and of equal degree only m itself.  With its ``one_up`` set, a term one
    degree above the least lead degree takes _one_up's lookups, one per
    variable of m.  Both read the degree as m % 255, so only callers where
    it is exact pass them: _buchberger, by its degree invariant (module
    docstring), and search_power_witness, the one caller with ``one_up``.
    """
    if not f:
        return {}
    p = ring.p
    top = ring._top
    low, by_lead, one_up = leads if leads is not None else (-1, None, False)
    up = low + 1 if one_up else -1
    cap = 255 if max_degree is None else max_degree  # m % 255 never exceeds 254
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
        d = m % 255
        if d > cap:
            raise BudgetExceededError(f"normal form hit degree {d} > budget {max_degree}")
        if d <= low:
            hit = by_lead.get(m)
        elif d == up:
            hit = _one_up(m, by_lead)
        else:
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
        # _sub_mul's update inline: a new key goes onto the heap, in the hottest loop
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


def _spoly(ring: RingSpec, f: tuple, g: tuple, l: int) -> dict:
    """S-polynomial of two monic elements given as reducers (lt, tail), l
    the lcm of their leads: the leads cancel, so only the tails are read."""
    uf = l - f[0]
    return _sub_mul(ring, {m + uf: c for m, c in f[1]}, dict(g[1]), 1, l - g[0])


def _gm_update(ring, lts: list, heap: list, new_idx: int, mask=-1, treated=()):
    """Gebauer-Moeller pair update for the element just appended at new_idx:
    push its pairs that criterion M keeps onto ``heap`` as (lcm degree, lcm,
    i, j) entries; the chain criterion runs at pop (_chain_drops).
    Called by _buchberger only: lcm degrees are read as (l & mask) % 255,
    the degree in the fields ``mask`` keeps (all of them by default).
    Pairs of the new element with an index in ``treated`` are
    _buchberger's treated pairs: never queued, like B1's coprime pairs.
    Criterion M compares the quotients q_g = lcm(lt_g, lt_h) / lt_h: a zero
    one leaves only its pair; the first of each degree-1 one, a variable, is
    kept and drops by one AND every quotient it divides; the rest are walked
    by (q, index), which meets every divisor first.  Coprime (q_g = lt_g) and
    treated quotients stay dominators, but their pairs are not queued.
    """
    top = ring._top
    lt_h = lts[new_idx]
    qs = [(d := (a | top) - lt_h) & ((d & top) >> 7) * 0x7F for a in lts[:new_idx]]
    if 0 in qs:
        pairs = [(0, qs.index(0))]
    else:
        first = dict(reversed([(q, g) for g, q in enumerate(qs) if q % 255 == 1]))
        ones = sum(first) * 0x7F  # the fields of these distinct variables
        pairs = list(first.items())
        kept: list[int] = []
        for q, g in sorted((q, g) for g, q in enumerate(qs) if not q & ones):
            q_ = q | top
            for k in kept:
                if (q_ - k) & top == top:
                    break
            else:
                kept.append(q)
                pairs.append((q, g))
    for q, g in pairs:
        if lts[g] != q and g not in treated:
            l = lt_h + q
            heapq.heappush(heap, ((l & mask) % 255, l, g, new_idx))


def _chain_drops(top: int, lts: list, i: int, j: int, l: int) -> bool:
    """Gebauer-Moeller chain criterion for the popped pair (i, j), lcm l:
    some h born after j, so in an update the pair was queued through, has
    lt_h | l, and lcm(lt_i, lt_h) and lcm(lt_j, lt_h) both differ from l."""
    low = (top >> 7) * 0x7F
    l_, a, b = l | top, lts[i] | top, lts[j] | top
    for h in lts[j + 1:]:
        if (l_ - h) & top == top and (
            h + ((d := a - h) & ((d & top) >> 7) * 0xFF & low) != l
            and h + ((d := b - h) & ((d & top) >> 7) * 0xFF & low) != l
        ):
            return True
    return False


def _reduce_basis(ring: RingSpec, basis: list, *, born: Sequence[tuple] = ()) -> list:
    """Minimalize and tail-reduce a basis that is already a Groebner basis.

    One pass in increasing leading-term order: an element whose leading
    term a kept one divides is dropped, every other one is reduced against
    the kept ones and made monic.  An element kept later cannot reduce an
    earlier one: its leading term is larger than every term of the earlier
    one, and a divisor is never larger than the term it divides.

    With ``born``, the reducers of ``basis``, which is in birth order, each
    element monic and in normal form against all born before it, as
    _buchberger adds them.  An element g whose kept predecessors in the
    pass were all born before it is then kept as it is, with its reducer,
    since the pass reduces g against them alone.  A later-born element with
    a larger leading term divides no term of g, and a dropped one acts only
    through the kept one dividing it; any other g takes the full path.
    """
    top = ring._top
    out, red = [], []
    newest = -1  # the latest birth among the kept elements so far
    keyed = ((born[i][0] if born else max(g), i, g) for i, g in enumerate(basis) if g)
    for lt, i, g in sorted(keyed):
        if born and newest < i:
            rd = born[i]
        else:
            lt_ = lt | top
            if any((lt_ - r[0]) & top == top for r in red):
                continue
            g, rd = _record(ring, _nf(ring, g, red))
        newest = max(newest, i)
        out.append(g)
        red.append(rd)
    out.reverse()
    return out


#: _buchberger's start on a monic reduced basis: dicts, records, leads, sorted records, top degree
_Opening = namedtuple("_Opening", "basis rds lts red degree")


def _open(ring: RingSpec, known: Sequence[dict]) -> _Opening:
    rds = [_reducer(g) for g in known]
    degree = max((ring.mono_degree(m) for g in known for m in g), default=0)
    return _Opening(list(known), rds, [rd[0] for rd in rds], sorted(rds, key=_lead), degree)


def _buchberger(
    ring: RingSpec, gens: Sequence[dict], budget: GBBudget, known: Sequence[dict] = (),
    stop: Optional[Callable[[list], object]] = None,
    factors: Optional[Sequence[Iterable[int]]] = None,
) -> list | object:
    """Reduced Groebner basis of the ideal generated by ``known`` and ``gens``,
    or, when ``stop`` is given, the first non-None value ``stop`` returns.

    ``known`` is the monic reduced basis of an ideal, or its _Opening.
    Its elements open the basis as they are, and no pair among them is
    ever formed: each such S-polynomial already has a standard
    representation over ``known``, so for criterion M and the chain
    criterion those pairs count as treated.  Every element's record (module
    docstring) is kept by birth in ``rds``.

    Treated pairs.  Some other pairs are never formed either, because
    their S-polynomial has a representation over the basis strictly below
    their lcm.  Like B1's coprime pairs, such a pair counts as treated and
    its lcm stays a criterion-M dominator.  There are two kinds:

    * Cross-kind pairs, in a tag elimination on a _TagRing: ``known`` is
      t*GB(I) and ``gens`` are (1-t)*h for h in H, so a t-free element h
      lies in (t*I + (1-t)*H) cap K[x] = I cap H, inside I.  With a known
      t*g, S(t*g, h) = t*S(g, h) has t times a representation over GB(I)
      (quiet pairs).  With any tagged g and lcm L, (L / lt h)*h = t*u*h
      with u*h in I, so some known t*g_k has a lead dividing L (likewise
      for a tagged h, through (L / lt g)*g): in the new element's update
      g_k's quotient, of smaller index, divides g's, so a cross-kind
      quotient drops nothing a known one does not, and none is queued.
      So _gm_update reads only the new element's own kind, t-free or
      tagged (the known block first; a plain ring has one kind), and for
      a pair with a t-free lcm, which no tagged lead divides, _chain_drops
      scans only the later t-free elements.
    * Shared-factor pairs, given ``factors``: then ``gens`` are the k-fold
      products F_k of the generators g_1..g_r of an ideal I,
      ``factors[i]`` holds the indices of the factors of ``gens[i]``, and
      the caller has certified that the (k-1)-fold products F_{k-1} are a
      Groebner basis of I^(k-1).  Take two seeds whose leading term the
      seed loop left unchanged, reduced from products p = g_a*b and
      q = g_a*c that share the factor g_a, with b, c in F_{k-1}, and let
      L be the lcm of their leading terms.  Then S(p, q) = g_a*S(b, c) (up
      to the monic scalings), S(b, c) has a standard representation
      sum h_i*f_i over F_{k-1}, and sum h_i*(g_a*f_i) represents S(p, q)
      over F_k with every term below lt(g_a)*lcm(lt b, lt c) = L.  Every
      product in F_k is a seed, and the seed loop writes it over the final
      basis with no term above its leading term, so S(p, q) has a
      representation over the basis below L.  The seeds themselves are
      p and q minus multiples of earlier basis elements with leading terms
      below lt(p) and lt(q), so their S-polynomial differs from S(p, q) by
      such multiples times L/lt(p) and L/lt(q), all below L as well.  A
      seed whose leading term was reduced, and every S-polynomial result,
      carries no factors.

    Every input term is checked against ``budget.max_degree`` exactly at
    entry (the known ones once, in _open), even a term a later reduction
    would cancel; an S-pair's lcm is checked before its S-polynomial is
    formed, and a term before it is reduced.  So every monomial of the run
    has degree at most 2 * max_degree < 255, read as m % 255 (module docstring).

    ``stop`` is brute_local_v's truncated elimination on a _TagRing: pairs
    are then ordered by the x-degree of their lcm (the tag t of weight 0;
    the budget still reads total degree), and ``stop(basis, lts)`` is called
    at the end and before each new x-degree's first pair _chain_drops keeps.
    """
    op = known if isinstance(known, _Opening) else _open(ring, known)
    mask = -1 if stop is None else ring.tag - 1
    basis, rds, lts, red = list(op.basis), list(op.rds), list(op.lts), list(op.red)
    reductions = peak = 0

    def over(why) -> BudgetExceededError:
        return BudgetExceededError(
            f"{why} (pairs treated {reductions}, basis size {len(basis)}, peak lcm degree {peak})")

    for d in [op.degree] + [max(map(ring.mono_degree, g), default=0) for g in gens]:
        if d > budget.max_degree:
            raise over(f"input element of degree {d} > budget {budget.max_degree}")
    leads = _lead_lookup(red, 2 * budget.max_degree)
    heap: list = []  # (lcm degree, lcm, i, j), i and j indexing the pair's kind
    owners: dict = {}  # factor index -> kind indices of the products with it
    # kinds (basis indices, leads): t-free, and the rest (all of a run with one kind)
    top, tag = ring._top, ring.tag if isinstance(ring, _TagRing) and basis else 0
    free, rest = ([], []), (list(range(len(basis))), list(lts))

    def nf(f: dict) -> dict:
        try:
            return _nf(ring, f, red, budget.max_degree, leads)
        except BudgetExceededError as e:
            raise over(e) from None

    def add(r: dict, shared=()):
        g, rd = _record(ring, r)  # r comes from _nf
        basis.append(g)
        rds.append(rd)
        lts.append(lt := rd[0])
        insort(red, rd, key=_lead)
        leads[0] = min(leads[0], lt % 255)
        leads[1][lt] = rd  # leading terms of a run are distinct
        ids, own = rest if lt >= tag else free
        ids.append(len(basis) - 1)
        own.append(lt)
        treated = {i for a in shared for i in owners.get(a, ())}
        for a in shared:
            owners.setdefault(a, []).append(len(own) - 1)
        _gm_update(ring, own, heap, len(own) - 1, mask, treated)

    seeds = zip(gens, factors if factors is not None else itertools.repeat(()))
    for g, shared in sorted(
        ((g, s) for g, s in seeds if g), key=lambda e: (max(e[0]) % 255, max(e[0]))
    ):
        r = nf(g)
        if r:
            add(r, shared if next(iter(r)) == max(g) else ())
    closed = -1
    while heap:
        deg_l, l, i, j = heapq.heappop(heap)
        if l < tag:  # no tagged lead divides l: scan the later t-free elements
            dropped, i, j = _chain_drops(top, free[1], i, j, l), free[0][i], free[0][j]
        else:
            i, j = rest[0][i], rest[0][j]
            dropped = _chain_drops(top, lts, i, j, l)
        if dropped:
            continue
        if stop is not None and deg_l > closed:
            closed, found = deg_l, stop(basis, lts)
            if found is not None:
                return found
        peak = max(peak, l % 255)
        if l % 255 > budget.max_degree:
            raise over(f"S-pair lcm degree {l % 255} > budget {budget.max_degree}")
        if reductions == budget.max_pairs:
            raise over(f"S-pair count exceeded budget {budget.max_pairs}")
        reductions += 1
        r = nf(_spoly(ring, rds[i], rds[j], l))
        if r:
            add(r)
    return _reduce_basis(ring, basis, born=rds) if stop is None else stop(basis, lts)


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """Ideal with cached reduced Groebner basis.

    Two ideals in the same ring are equal exactly when their reduced bases
    coincide, which is what ``equals`` checks.
    """

    __slots__ = ("ring", "gens", "_gb", "_red", "_view", "_tag", "_keys", "_power")

    def __init__(self, ring: RingSpec, gens: Iterable[Polynomial], _gb=None, _power=None):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        self._gb = _gb
        self._red = self._view = self._tag = self._keys = None  # lazily built caches
        self._power = _power  # ideal_power's (lower power, factor indices of each gen)

    def groebner(self, budget: GBBudget = DEFAULT_BUDGET) -> tuple[Polynomial, ...]:
        """The reduced basis, computed once.  A power from ideal_power
        skips its shared-factor pairs when the generators of the lower
        power are certified to be a Groebner basis of it (_buchberger)."""
        if self._gb is None:
            factors = None
            if self._power is not None and _gens_are_groebner(self._power[0], budget):
                factors = [set(c) for c in self._power[1]]
            basis = _buchberger(self.ring, [g.terms for g in self.gens], budget, factors=factors)
            self._gb = tuple(Polynomial(self.ring, g) for g in basis)
        return self._gb

    @property
    def lower_power(self) -> Optional["Ideal"]:
        """For ideal_power(I, k) with k >= 2, the (k-1)-th power it was
        built from (I itself at k = 2); None for any other ideal."""
        return None if self._power is None else self._power[0]

    def _reducers(self, budget: GBBudget = DEFAULT_BUDGET):
        if self._red is None:
            self._red = _prepare_reducers([g.terms for g in self.groebner(budget)])
        return self._red

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
    return generalized_minor(ring, rows, cols)


def generalized_minor(
    ring: RingSpec, rows: Sequence[int], cols: Sequence[int]
) -> Polynomial:
    """Determinant of the submatrix (x[r,c]) over the given rows and columns.

    The column order is taken as given; rows and columns must have equal
    length.  It expands over permutations, fine for the small sizes used
    here (at most m); edge ideals and primes build their 2-minors with
    _minors instead."""
    if len(rows) != len(cols):
        raise GraphInputError("determinant needs a square submatrix")
    k = len(rows)
    vm = ring.var_mono
    vi = ring.var_index
    items = []
    for perm in itertools.permutations(range(k)):
        sign = 1
        for a, b in itertools.combinations(perm, 2):
            if a > b:
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
    return Ideal(ring, _minors(ring, G.edge_list()))


def _minors(ring: RingSpec, cols: Sequence[tuple[int, int]]) -> list[Polynomial]:
    """minor() over the row pairs (outer) and the column pairs a < b of ``cols``
    (inner), from packed variables: each is monic, its leading term first."""
    one, neg, n, width = ring.coeff(1), ring.coeff(-1), ring.n, _FIELD_BITS * ring.nvars
    rows = [[1 << width - _FIELD_BITS * (i * n + a) for a in range(n + 1)] for i in range(ring.m)]
    return [Polynomial(ring, {x[a] + y[b]: one, x[b] + y[a]: neg})
            for x, y in itertools.combinations(rows, 2) for a, b in cols]


def cut_set_prime(ring: RingSpec, G: SimpleGraph, T: Iterable[int]) -> Ideal:
    """The prime ideal attached to a cut set T: the variables over T plus
    the edge ideal of each completed component of G minus T.

    The listed generators are already the reduced Groebner basis: the
    variables have no tails, and the 2-minors of a generic submatrix form
    a Groebner basis under any diagonal order (the classical determinantal
    fact), with leading terms that no variable over T divides.  The cached
    basis is set directly; tests cross-check it against Buchberger.
    """
    if ring.n != G.n:
        raise GraphInputError(f"ring has {ring.n} columns but the graph has {G.n} vertices")
    Tset = sorted(set(T))
    gens = [Polynomial.variable(ring, i, j) for j in Tset for i in range(1, ring.m + 1)]
    for comp in G.components(frozenset(Tset)):
        gens.extend(_minors(ring, list(itertools.combinations(sorted(comp), 2))))
    return Ideal(ring, gens, _gb=tuple(sorted(gens, key=lambda g: -g.lt())))


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
    ext = I.ring.extended()
    seeds, known = _tagged(I, J.gens, budget)
    gb = _buchberger(ext, seeds, budget, known)
    kept = [Polynomial(I.ring, g) for g in gb if max(g) < ext.tag]
    return Ideal(I.ring, kept, _gb=tuple(kept))


def _tagged(I: Ideal, gens: Sequence[Polynomial], budget: GBBudget) -> tuple:
    """Seeds (1-t)*g for g in ``gens`` and the opening on t*GB(I), built
    once per ideal, of t*I + (1-t)*(gens)."""
    ring, tag = I.ring, I.ring.extended().tag
    if I._tag is None:
        tagged = [{m + tag: c for m, c in g.terms.items()} for g in I.groebner(budget)]
        I._tag = _open(ring.extended(), tagged)
    return [g.terms | {m + tag: ring.coeff(-c) for m, c in g.terms.items()} for g in gens], I._tag


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
    ring, ltg = f.ring, g.lt()
    inv = ring.inv(g.terms[ltg])
    rem = dict(f.terms)
    q: dict = {}
    while rem:
        m = max(rem)
        if not ring.mono_divides(ltg, m):
            raise ArithmeticError("exact division failed: remainder is nonzero")
        q[m - ltg] = c = ring.coeff(rem[m] * inv)
        _sub_mul(ring, rem, g.terms, c, m - ltg)
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
    meet = intersect(I, Ideal(I.ring, [f]), budget).groebner(budget)
    quot = _reduce_basis(I.ring, [poly_divexact(g, f).terms for g in meet])
    basis = [Polynomial(I.ring, b) for b in quot]
    return Ideal(I.ring, basis, _gb=tuple(basis))


def ideal_power(I: Ideal, k: int) -> Ideal:
    """Generated by all k-fold products of generators, in the order of
    itertools.combinations_with_replacement(I.gens, k).

    The powers are built up from I: each k-fold product is a (k-1)-fold
    product of the previous power times one generator.  For k >= 2 the
    result records the factor indices of each product and links down to
    the (k-1)-th power (``lower_power``), never back up, so a chain of
    powers holds no reference cycle; Ideal.groebner uses both for
    _buchberger's shared-factor pairs.
    """
    if k < 1:
        raise GraphInputError(f"power exponent must be >= 1, got {k}")
    power, combos = I, [(i,) for i in range(len(I.gens))]
    for _ in range(k - 1):
        gens, longer = [], []
        for f, c in zip(power.gens, combos):
            for j in range(c[-1], len(I.gens)):
                gens.append(f * I.gens[j])
                longer.append(c + (j,))
        combos = longer
        power = Ideal(I.ring, gens, _power=(power, tuple(combos)))
    return power


def _gens_are_groebner(I: Ideal, budget: GBBudget) -> bool:
    """Do I's generators form a Groebner basis of I?  Exactly when their
    leading terms generate ini(I), which the leading terms of I's reduced
    basis generate."""
    ini = [g.lt() for g in I.groebner(budget)]
    return monomial_ideals_equal(I.ring, [g.lt() for g in I.gens], ini)


def _minimal_monomials(ring: RingSpec, monos: Iterable[int]) -> list[int]:
    """The minimal generators of (monos), ascending, walked by (degree, m)
    deduplicated: a proper divisor has lower degree, so lower levels only."""
    top, lower, level, d0 = ring._top, [], [], None
    for d, m in sorted((ring.mono_degree(m), m) for m in set(monos)):
        if d != d0:
            lower, level, d0 = lower + level, [], d
        mt = m | top
        for g in lower:
            if (mt - g) & top == top:
                break
        else:
            level.append(m)
    return sorted(lower + level)


def monomial_ideal_power(ring: RingSpec, monos: Sequence[int], k: int) -> list[int]:
    prods = {sum(c) for c in itertools.combinations_with_replacement(monos, k)}
    return _minimal_monomials(ring, prods)


def monomial_ideal_colon(ring: RingSpec, monos: Sequence[int], u: int) -> list[int]:
    return _minimal_monomials(ring, [m - ring.mono_gcd(m, u) for m in monos])


def monomial_ideals_equal(ring: RingSpec, a: Sequence[int], b: Sequence[int]) -> bool:
    return _minimal_monomials(ring, a) == _minimal_monomials(ring, b)


# ---------------------------------------------------------------------------
# the v-number oracle
# ---------------------------------------------------------------------------


def _colon_route(
    I: Ideal, f: Polynomial, Q: Ideal, budget: GBBudget
) -> Optional[str]:
    """Decide (I : f) = Q.  Returns the argument that decided it, "monomial
    colon" or "tag elimination", or None when the equality fails.

    The inclusion Q <= (I : f), that is f*Q <= I, is checked first.  Given
    it, a cheap sufficient test comes next: any h with h f in I satisfies
    ini(h) ini(f) in ini(I), so ini((I : f)) sits inside the monomial colon
    (ini I : ini f).  When that monomial colon lands inside ini(Q), the
    chain ini(Q) <= ini(I : f) <= (ini I : ini f) <= ini(Q) collapses, and
    an inclusion of ideals with equal initial ideals is an equality.  When
    it does not, the exact tag-elimination colon decides.  A product f*g
    that is a generator of I (each of a power peel's is) takes no normal
    form.  Given the inclusion, ini(Q) <= (ini I : ini f), so a minimal
    generator q of the latter lies in ini(Q) only as a leading term of Q's
    basis: a divisor in ini(Q) of lower degree would make q not minimal, and
    one of equal degree is q.  So a set lookup decides each q, no division.
    """
    if not all(_is_gen(I, h := f * g) or I.contains(h, budget) for g in Q.gens):
        return None
    ini_I, ini_Q = [g.lt() for g in I.groebner(budget)], {g.lt() for g in Q.groebner(budget)}
    if ini_Q.issuperset(monomial_ideal_colon(I.ring, ini_I, f.lt())):
        return "monomial colon"
    if colon_poly(I, f, budget).equals(Q, budget):
        return "tag elimination"
    return None


def verify_witness(
    I: Ideal,
    f: Polynomial,
    P: Ideal,
    budget: GBBudget = ELIMINATION_BUDGET,
) -> bool:
    """Does (I : f) equal the prime P?

    P must be prime (every caller passes a cut-set prime); (I : 0) is the
    ring, never P.  (I : f) contains I, so I <= P is checked first, by
    normal forms only for the generators that the lookups of P's basis, if
    cached, do not show inside P (_outside_by_lookup, sound for any ideal).
    For f outside P, f*P <= I decides by prime avoidance: for any h with
    h f in I <= P, primeness forces h in P; f*g for a generator g of P that
    is one of I too lies in I, and is not formed.  Otherwise _colon_route decides.
    """
    todo = _outside_by_lookup(I.gens, [P]) if P.is_known_groebner() else itertools.repeat(1)
    if f.is_zero() or not all(P.contains(g, budget) for g, out in zip(I.gens, todo) if out):
        return False  # (I : 0) is the ring; (I : f) contains I, so I <= P
    if not P.contains(f, budget):
        return all(_is_gen(I, g) or I.contains(f * g, budget) for g in P.gens)
    return _colon_route(I, f, P, budget) is not None


def _is_gen(I: Ideal, g: Polynomial) -> bool:
    """Is g, term by term, a generator of I?  Looked up by leading term."""
    if I._keys is None:
        I._keys = {}
        for h in I.gens:
            I._keys.setdefault(h.lt(), []).append(h.terms)
    return any(h == g.terms for h in I._keys.get(g.lt(), ()))


def _outside_by_lookup(gs: Iterable[Polynomial], ideals: Sequence[Ideal]) -> Iterable[set]:
    """For each nonzero g of ``gs``, the indices of the ``ideals`` that
    lookups in their reduced bases do not show to contain g.

    A variable x lies in I exactly when 1 or x is a basis element: only 1
    and x divide x, and the tail of a basis element x + tail is the normal
    form of -x.  So g is in I when each of its terms has such a variable
    (a term has the low bit of a field only at an odd exponent), or when
    monic g is a basis element.  This is exact for a variable, and for a
    2-minor [i,j|k,l] against a cut-set prime P_T: if k or l is in T, each
    term has a variable of that column; else g is in P_T exactly when k
    and l share a component of G - T (else e_i in the columns of k's
    component, e_j in those of l's and 0 elsewhere is a zero of P_T but
    not of g), and then it is a basis element up to sign.
    """
    for I in ideals:  # each ideal's view is built once and cached on it
        if I._view is None:
            red, low = I._reducers(), I.ring._top >> 7  # the low bit of every field
            found = sum(x for x, tail in red if not tail and x & low and x & (x - 1) == 0)
            I._view = (red, low if red[:1] == [(0, ())] else found)
    views = [I._view for I in ideals]
    for g in gs:
        lt, own, avoided = max(g.terms), None, set()
        for k, (red, found) in enumerate(views):
            if found and all(u & found for u in g.terms):
                continue
            i = bisect_left(red, lt, key=_lead)
            if i < len(red) and red[i][0] == lt:
                if own is None:  # a minor from _minors is monic, its lead first
                    head, *tail = g.terms.items()
                    own = (lt, tuple(tail)) if head == (lt, 1) else _record(g.ring, g.terms, lt)[1]
                if red[i] == own:
                    continue
            avoided.add(k)
        yield avoided


def separating_element(target: Ideal, others: Sequence[Ideal]) -> Polynomial:
    """A homogeneous element of ``target`` outside every ideal in ``others``.

    Few generators of degree 1 or 2 are combined, so that the eliminations
    it feeds carry few terms and a low degree.  Greedy cover picks them:
    the next is the generator outside the most still unavoided ideals of
    ``others``, the first in ``target.gens`` order on a tie, until none is
    left (pairwise incomparable primes leave none); _outside_by_lookup
    reads what each avoids, exactly for cut-set primes, the oracle's case.
    The element is a linear form in the picked generators if all are
    variables, else the sum of the minors and the variables squared, under
    the first of 64 fixed weightings that normal forms show to lie outside
    every ideal of ``others``: exact for any input, and brute_local_v does
    not depend on which is returned.
    """
    ring = target.ring
    gens = [(g, d) for g in target.gens if (d := g.degree()) in (1, 2)]
    outside = _outside_by_lookup([g for g, _ in gens], others)
    cover = [(g, d, out) for (g, d), out in zip(gens, outside)]
    left, picked = set(range(len(others))), []
    while left and cover:
        g, d, avoided = max(cover, key=lambda c: len(c[2] & left))  # first on ties
        if not avoided & left:
            break  # nothing avoids the rest, so every weighting below fails
        picked.append((g, d))
        left -= avoided
    linear = all(d == 1 for _, d in picked)
    hs = [g if linear or d == 2 else g * g for g, d in picked]
    base = ring.p if ring.p is not None else (1 << 31) - 1
    for a in range(1, 65):
        f = Polynomial.zero(ring)
        for idx, h in enumerate(hs):
            f = f + h.scale(pow(a + 1, idx + 1, base))
        if f.is_zero():
            continue
        if all(not o.contains(f) for o in others):
            return f
    raise BudgetExceededError(
        "no separating element found; the prime family looks degenerate"
    )


@functools.lru_cache(maxsize=1)
def _oracle_context(ring: RingSpec, G: SimpleGraph, budget: GBBudget) -> tuple:
    """brute_local_v's per-graph part, for callers that loop over one
    graph's cut sets: the prime of every cut set (from the generic
    enumeration, which keeps the oracle independent of the closed block
    route it checks) and J, their bases cached on first use.  The ring is
    keyed by identity, and J's basis is computed under the keyed budget."""
    primes = {c.vertices: cut_set_prime(ring, G, c.vertices) for c in enumerate_cut_sets(G)}
    return primes, binomial_edge_ideal(ring, G)


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

    Truncation.  A = (J cap (f0)) / f0 comes from eliminating t from
    t*J + (1-t)*(f0), stopped at the answer.  With t of weight 0 every
    element of the run is homogeneous in the x-degree, and pairs are
    popped by the x-degree of their lcm.  Once a pair of x-degree D + 1 is
    popped, Buchberger's criterion holds up to x-degree D: its rewriting
    uses only S-pairs whose lcm divides a term of the degree at hand, and
    needs a well-order and a grading, not a positive weight (Becker and
    Weispfenning, Groebner Bases, 1993, sec. 10.2).  With t above every x,
    the t-free elements form a D-truncated basis of J cap (f0), and their
    quotients by f0 of degree e one of A up to degree D - e, as leading
    terms and normal forms in degree <= D see nothing above it.  So the
    first D with an element of A's reduced basis outside P_T gives the
    degree, and the least by (degree, lt) is the full basis's.

    The stop test.  Its new t-free elements come from pairs of x-degree at
    least the last closed degree, above all it saw.  It takes them, and so
    their quotients, by (degree, lt), skips one whose quotient's leading
    term a kept one divides (not in A's reduced basis) and tests any other
    quotient a for P_T as it is: a minus the reduced element with its
    leading term is a combination of kept quotients, all before a, present
    (the basis is complete up to the closed degree) and found in P_T.  A
    kept a joins a minimal Groebner basis of A in the degrees seen; the
    first a outside P_T is the witness, and only its tail is reduced,
    against that basis, as normal forms against any Groebner basis agree.
    """
    Tkey = tuple(sorted(set(T)))
    primes, J = _oracle_context(ring, G, budget)
    if Tkey not in primes:
        raise NotACutSetError(f"{list(Tkey)} is not a cut set of the graph")
    target = primes[Tkey]
    others = [P for ts, P in primes.items() if ts != Tkey]
    if not others:
        return (0, Polynomial.one(ring))
    f0 = separating_element(target, others)
    seeds, known = _tagged(J, [f0], budget)
    tag, top, lt0 = ring.extended().tag, ring._top, f0.lt()
    A_red: list = []  # reducers of A's kept quotients, all in P_T
    seen = 0  # basis elements the stop test has looked at

    def least_witness(basis: list, lts: list) -> Optional[Polynomial]:
        nonlocal seen
        new, seen = range(seen, len(basis)), len(basis)
        for _, lh, i in sorted((lh % 255, lh, i) for i in new if (lh := lts[i]) < tag):
            u_ = (lh - lt0) | top
            if any((u_ - r[0]) & top == top for r in A_red):
                continue
            q = poly_divexact(Polynomial(ring, basis[i]), f0)
            a, r = _record(ring, q.terms, q.lt())
            if not target.contains(Polynomial(ring, a)):
                return Polynomial(ring, {r[0]: a[r[0]], **_nf(ring, dict(r[1]), A_red)})
            insort(A_red, r, key=_lead)
        return None

    w = _buchberger(ring.extended(), seeds, budget, known, least_witness)
    if w is None or not verify_witness(J, w, target, budget):
        raise AssertionError(
            "internal inconsistency: the least reduced-basis element of A "
            "outside P_T is missing or fails re-verification"
        )
    return w.degree(), w


def _shifted_nf(ring: RingSpec, r: dict, x: int, red: list, leads: Optional[list]) -> dict:
    """_nf of x * r for a monomial x, as search_power_witness shifts its rows.

    A polynomial no term of which has a dividing lead is its own normal
    form, with the same items in the same (descending, for r from _nf)
    order.  The lookups of ``leads`` decide that for every term of degree
    at most one above the least lead degree; a row with a term above that,
    or with a term that has a divisor, goes through _nf.
    """
    row = {m + x: c for m, c in r.items()}
    if leads is not None:
        low, by_lead, _ = leads
        for m in row:
            d = m % 255
            if d > low + 1 or (by_lead.get(m) if d <= low else _one_up(m, by_lead)):
                break
        else:
            return row
    return _nf(ring, row, red, None, leads)


def search_power_witness(
    ring: RingSpec,
    G: SimpleGraph,
    T: Iterable[int],
    k: int,
    d_max: int,
    budget: GBBudget = ELIMINATION_BUDGET,
) -> Optional[dict]:
    """A verified f of degree <= d_max with (J^k : f) = P_T, or None.

    One exact sweep over the degree slices d = 0..d_max of (J^k : P_T).
    For each monomial u of degree d the stacked vector of normal forms
    NF(u * g, J^k) over generators g of P_T is reduced against the stored
    pivot rows.  Keys are packed ints: term m of the gi-th normal form is
    m + (gi + 1) * 2^(8 nvars), and each row carries its monomial
    combination under the keys u' themselves, below every vector key, so
    pivots are vector keys and a row reduced to its combination alone is a
    kernel vector f: f * P_T lies in J^k.  f is refuted if x * f is in J^k
    for a variable x outside P_T (so (J^k : f) != P_T), else reported once
    verify_witness certifies (J^k : f) = P_T.

    J^k and P_T are multigraded by (row content, column content), so a key
    fixes gi and u's block, and blocks never mix.  A witness is an element
    of (J^k : P_T) outside the ideal J^k R_P cap R, so a block's kernel
    holds one iff one of its basis vectors is one.  Two exact rules skip
    blocks.  (1) Row permutations map J^k, P_T and the witnesses onto
    themselves: only u whose row content a (a_r, u's degree in row r) is
    non-increasing are swept, in the full sweep's order.  (2) For nonzero f
    in a block's kernel and g in P_T, f * g is nonzero in J^k, so some lead
    of J^k's basis has row content <= a + rowc(g): else a has no kernel.  A
    row is built on demand from u / x, x the smallest variable dividing u
    (in u's last nonzero row, so u / x keeps rule (1)), as normal forms
    against a Groebner basis are unique: NF(u * g) = NF(x * NF(u / x * g)).

    J^k is homogeneous, so its reduced basis is (Becker and Weispfenning,
    Groebner Bases, 1993): reduction keeps a term's degree, so a slice-d row
    has degree at most d + lift, lift the top degree of P_T's generators,
    and takes _nf's lookups, the one-up lookup included, while that is
    below 255, where m % 255 is exact.  NF(u / x * g) is in normal form, so
    its shift often is too: _shifted_nf returns such a row as it is, and
    calls _nf for the rest (a term with a divisor, or past the lookups).

    A hit is a verified witness, so its degree is a certified upper bound
    and nothing more.  For k >= 2 no witness lies outside P_T (localize at
    P_T: P_T R_P <= P_T^k R_P contradicts Nakayama); by the block argument
    no slice has witnesses that are only combinations of kernel basis
    vectors.  A miss is None, never a lower bound.  A ring that is not a
    prime field raises GraphInputError.
    """
    if ring.p is None:
        raise GraphInputError("the power witness search needs a prime-field ring")
    unit, n = 1 << _FIELD_BITS * ring.nvars, ring.n
    Jk = ideal_power(binomial_edge_ideal(ring, G), k)
    red = Jk._reducers(budget)
    P = cut_set_prime(ring, G, T)
    lift = max((g.degree() for g in P.gens), default=0)
    variables = [ring.var_mono(i) for i in range(ring.nvars)]
    outside = [x for x in variables if all(g.terms.keys() != {x} for g in P.gens)]
    by_row = [variables[i:i + n] for i in range(0, ring.nvars, n)]
    def rowc(u):  # u's degree in each row
        return tuple(map(sum, zip(*[iter(ring.mono_exponents(u))] * n)))
    lead_c, gen_c = {rowc(r[0]) for r in red}, {rowc(g.lt()) for g in P.gens}
    rows = {0: [_nf(ring, g.terms, red) for g in P.gens]}  # u -> its NF(u * g), once built
    for d in range(d_max + 1):
        pivots, leads = {}, _lead_lookup(red, d + lift, one_up=True)
        kept = [a for a in itertools.combinations_with_replacement(range(d, -1, -1), ring.m)
                if sum(a) == d and all(any(all(l <= x + y for l, x, y in zip(L, a, b))
                                           for L in lead_c) for b in gen_c)]
        monos = {sum(map(sum, c)) for a in kept
                 for c in itertools.product(*map(itertools.combinations_with_replacement, by_row, a))}
        for u in sorted(monos, reverse=True):
            chain = [u]  # down by the smallest variable to a built row, then back up
            while (v := chain[-1]) not in rows:
                chain.append(v - (1 << ((v & -v).bit_length() - 1) // _FIELD_BITS * _FIELD_BITS))
            for v, w in itertools.pairwise(reversed(chain)):
                rows[w] = [_shifted_nf(ring, r, w - v, red, leads) for r in rows[v]]
            vec = {m + (gi + 1) * unit: c for gi, nf in enumerate(rows[u]) for m, c in nf.items()}
            vec[u] = 1
            while (key := max(vec)) >= unit:
                if key not in pivots:
                    pivots[key] = _record(ring, vec, key)[0]
                    break
                _sub_mul(ring, vec, pivots[key], vec[key])
            else:  # only the combination is left: a kernel vector
                f = Polynomial(ring, _record(ring, vec, key)[0])
                if all(_nf(ring, {m + x: c for m, c in f.terms.items()}, red, None, leads)
                       for x in outside) and verify_witness(Jk, f, P, budget):
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
