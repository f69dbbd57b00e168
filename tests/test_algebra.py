import collections
import hashlib
import heapq
import itertools
import random
import sys
from bisect import insort
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from vnum.errors import BudgetExceededError, GraphInputError
from vnum.enumeration import closed_graphs, connected_graphs_up_to_iso
from vnum.graphs import (
    build_graph,
    complete_graph,
    enumerate_cut_sets,
    find_closed_labeling,
    graph_from_intervals,
    path_graph,
)
from vnum.algebra import (
    DEFAULT_BUDGET,
    ELIMINATION_BUDGET,
    GBBudget,
    Ideal,
    Polynomial,
    RingSpec,
    binomial_edge_ideal,
    brute_local_v,
    colon_poly,
    cut_set_prime,
    generalized_minor,
    ideal_power,
    intersect,
    intersect_many,
    minor,
    monomial_ideal_power,
    monomial_ideals_equal,
    poly_divexact,
    poly_to_text,
    search_power_witness,
    separating_element,
    verify_witness,
    witness_polynomial,
    _FIELD_BITS,
    _MAX_EXPONENT,
    _buchberger,
    _chain_drops,
    _gm_update,
    _lead_lookup,
    _minimal_monomials,
    _nf,
    _outside_by_lookup,
    _prepare_reducers,
    _record,
    _reduce_basis,
    _reducer,
    _shifted_nf,
    _sub_mul,
    _spoly,
)
from vnum.vnumbers import local_v_number


def mono_from_exponents(exps) -> int:
    """The packed monomial with the given exponents, x[1,1] first."""
    return int.from_bytes(bytes(exps), "big")


def normal_form(I: Ideal, f: Polynomial) -> Polynomial:
    """Full normal form of f against the reduced basis of I."""
    return Polynomial(I.ring, _nf(I.ring, f.terms, I._reducers()))


# -- packed monomials ---------------------------------------------------------

def naive_ops(exps_a, exps_b):
    divides = all(a <= b for a, b in zip(exps_a, exps_b))
    lcm = tuple(max(a, b) for a, b in zip(exps_a, exps_b))
    gcd = tuple(min(a, b) for a, b in zip(exps_a, exps_b))
    return divides, lcm, gcd


def test_packed_monomial_ops_match_naive():
    rng = random.Random(3)
    ring = RingSpec(3, 4)
    for _ in range(500):
        ea = tuple(rng.randrange(0, 9) for _ in range(ring.nvars))
        eb = tuple(rng.randrange(0, 9) for _ in range(ring.nvars))
        a, b = mono_from_exponents(ea), mono_from_exponents(eb)
        divides, lcm, gcd = naive_ops(ea, eb)
        assert ring.mono_divides(a, b) == divides
        assert ring.mono_exponents(ring.mono_lcm(a, b)) == lcm
        assert ring.mono_exponents(ring.mono_gcd(a, b)) == gcd
        assert ring.mono_degree(a) == sum(ea)
        # lex comparison is integer comparison
        assert (a > b) == (ea > eb)


# -- the shared coefficient loop ---------------------------------------------

def naive_poly(f: Polynomial) -> dict:
    """f as exponent tuple -> coefficient."""
    return {f.ring.mono_exponents(m): c for m, c in f.terms.items()}


def naive_combine(ring, pairs) -> dict:
    """sum of c * x^e * a over (c, e, a) in ``pairs``, a given by naive_poly."""
    out = collections.defaultdict(int)
    for c, e, a in pairs:
        for ea, ca in a.items():
            out[tuple(x + y for x, y in zip(e, ea))] += c * ca
    if ring.p is not None:
        out = {e: c % ring.p for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def random_poly(ring, rng, terms=5, degree=3) -> Polynomial:
    """A nonconstant polynomial: every term has degree 1..degree."""
    items = []
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(1, degree)):
            exps[rng.randrange(ring.nvars)] += 1
        c = rng.choice([-3, -2, -1, 1, 2, 5])
        items.append((mono_from_exponents(exps), c if ring.p else Fraction(c, rng.randint(1, 4))))
    return Polynomial.from_terms(ring, items)


@pytest.mark.parametrize("p", [32003, None])
def test_ring_laws_of_the_shared_loop(p):
    ring = RingSpec(2, 3, p=p)
    rng = random.Random(29)
    zero = (0,) * ring.nvars
    for _ in range(40):
        f, g = random_poly(ring, rng), random_poly(ring, rng)
        nf, ng = naive_poly(f), naive_poly(g)
        assert naive_poly(f + g) == naive_combine(ring, [(1, zero, nf), (1, zero, ng)])
        assert naive_poly(f - g) == naive_combine(ring, [(1, zero, nf), (-1, zero, ng)])
        assert naive_poly(-f) == naive_combine(ring, [(-1, zero, nf)])
        assert naive_poly(f.scale(3)) == naive_combine(ring, [(3, zero, nf)])
        fg = f * g
        assert naive_poly(fg) == naive_combine(
            ring, [(c, e, ng) for e, c in nf.items()]
        )
        assert (f + g) - g == f
        assert (f - f).is_zero() and f.scale(0).is_zero()
        assert poly_divexact(fg, g) == f
        with pytest.raises(ArithmeticError):
            poly_divexact(fg + Polynomial.one(ring), g)
        (a, ra), (b, rb) = _record(ring, f.terms, f.lt()), _record(ring, g.terms, g.lt())
        assert a[max(a)] == b[max(b)] == 1 and (ra, rb) == (_reducer(a), _reducer(b))
        lcm = ring.mono_lcm(max(a), max(b))
        s = _spoly(ring, ra, rb, lcm)
        assert lcm not in s
        ua = ring.mono_exponents(lcm - max(a))
        ub = ring.mono_exponents(lcm - max(b))
        ma, mb = naive_poly(Polynomial(ring, a)), naive_poly(Polynomial(ring, b))
        assert naive_poly(Polynomial(ring, s)) == naive_combine(ring, [(1, ua, ma), (-1, ub, mb)])


def test_minor_examples():
    R = RingSpec(2, 3)
    p = minor(R, (1, 2), (1, 2))
    assert poly_to_text(p) == "1*x[1,1]*x[2,2] + 32002*x[1,2]*x[2,1]"
    assert R.mono_text(p.lt()) == "x[1,1]*x[2,2]"
    R35 = RingSpec(3, 5)
    q = minor(R35, (1, 3), (2, 5))
    assert poly_to_text(q) == "1*x[1,2]*x[3,5] + 32002*x[1,5]*x[3,2]"
    with pytest.raises(GraphInputError):
        minor(R, (2, 1), (1, 2))


def test_edge_ideal_generator_counts():
    R = RingSpec(2, 3)
    assert len(binomial_edge_ideal(R, path_graph(3)).gens) == 2
    R3 = RingSpec(3, 3)
    assert len(binomial_edge_ideal(R3, path_graph(3)).gens) == 6
    with pytest.raises(GraphInputError):
        binomial_edge_ideal(R, path_graph(4))


def minor_binomial_edge_ideal(ring, G) -> Ideal:
    """binomial_edge_ideal through minor(): the reference for the test below."""
    rows = itertools.combinations(range(1, ring.m + 1), 2)
    return Ideal(ring, [minor(ring, r, e) for r in rows for e in G.edge_list()])


def minor_cut_set_prime(ring, G, T) -> Ideal:
    """cut_set_prime through minor() and monic copies: the reference for
    the test below."""
    Tset = sorted(set(T))
    gens = [Polynomial.variable(ring, i, j) for j in Tset for i in range(1, ring.m + 1)]
    rows = list(itertools.combinations(range(1, ring.m + 1), 2))
    for comp in G.components(frozenset(Tset)):
        pairs = list(itertools.combinations(sorted(comp), 2))
        gens.extend(minor(ring, r, c) for r in rows for c in pairs)
    gb = sorted((g.monic() for g in gens), key=lambda g: -g.lt())
    return Ideal(ring, gens, _gb=tuple(gb))


def test_packed_constructors_match_the_minor_route():
    # the same generators term for term, in the same order and with the
    # same coefficient types, and the same cached basis, at every cut set
    # of every connected graph with n <= 5 at m = 2, 3, 4, and over Q
    def terms(polys):
        return None if polys is None else [
            [(m, c, type(c)) for m, c in g.terms.items()] for g in polys
        ]

    cases = [(RingSpec(m, n), G) for n in range(1, 6) for G in connected_graphs_up_to_iso(n)
             for m in (2, 3, 4)]
    cases.append((RingSpec(3, 5, None), path_graph(5)))
    primes = 0
    for R, G in cases:
        got, want = binomial_edge_ideal(R, G), minor_binomial_edge_ideal(R, G)
        assert terms(got.gens) == terms(want.gens) and terms(got._gb) == terms(want._gb)
        for cut in enumerate_cut_sets(G):
            got, want = cut_set_prime(R, G, cut.vertices), minor_cut_set_prime(R, G, cut.vertices)
            assert terms(got.gens) == terms(want.gens), (R, G, cut)
            assert terms(got._gb) == terms(want._gb), (R, G, cut)
            primes += 1
    assert primes == 3 * 80 + 5  # 80 cut sets over the 31 graphs, 5 of P5
    # a ring whose columns are not the graph's vertices is rejected
    for n in (4, 6):
        with pytest.raises(GraphInputError):
            binomial_edge_ideal(RingSpec(2, n), path_graph(5))
        with pytest.raises(GraphInputError):
            cut_set_prime(RingSpec(2, n), path_graph(5), [2])


# -- Groebner engine ----------------------------------------------------------

def test_closed_generators_form_basis():
    for n in (3, 4, 5):
        for m in (2, 3):
            R = RingSpec(m, n)
            J = binomial_edge_ideal(R, path_graph(n))
            gb = J.groebner()
            gens = sorted((g.monic() for g in J.gens), key=lambda g: -g.lt())
            assert list(gb) == gens


def test_nonclosed_basis_grows(c4):
    R = RingSpec(2, 4)
    J = binomial_edge_ideal(R, c4)
    assert len(J.groebner()) > len(J.gens)


def _sympy_gb(ring, gens):
    syms = sympy.symbols(f"y0:{ring.nvars}")
    dom = sympy.GF(ring.p) if ring.p is not None else sympy.QQ

    def to_sympy(f):
        expr = 0
        for mono, c in f.terms.items():
            term = sympy.Integer(int(c)) if ring.p else sympy.Rational(c)
            for idx, e in enumerate(ring.mono_exponents(mono)):
                if e:
                    term *= syms[idx] ** e
            expr += term
        return expr

    out = []
    gb = sympy.groebner([to_sympy(g) for g in gens], *syms, order="lex", domain=dom)
    for g in gb.exprs:
        poly = sympy.Poly(g, *syms, domain=dom)
        terms = {}
        for mono_exp, c in poly.terms():
            mono = sum(e * ring.var_mono(i) for i, e in enumerate(mono_exp))
            terms[mono] = int(c) if ring.p else Fraction(str(c))
        out.append(poly_to_text(Polynomial.from_terms(ring, terms.items()).monic()))
    return sorted(out)


def test_buchberger_matches_sympy_random():
    rng = random.Random(7)
    budget = GBBudget(200_000, 60)
    for _ in range(30):
        ring = RingSpec(rng.choice([2, 3]), rng.choice([2, 3]), rng.choice([32003, None]))
        gens = []
        for _ in range(rng.randint(1, 4)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = sum(
                    ring.var_mono(rng.randrange(ring.nvars))
                    for _ in range(rng.randint(0, 3))
                )
                terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
            f = Polynomial.from_terms(ring, terms.items())
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        mine = sorted(poly_to_text(g) for g in Ideal(ring, gens).groebner(budget))
        assert mine == _sympy_gb(ring, gens)


def test_buchberger_matches_sympy_edge_ideals(c4, c5):
    for G, m in [(c4, 2), (path_graph(4), 3), (c5, 2)]:
        ring = RingSpec(m, G.n)
        J = binomial_edge_ideal(ring, G)
        mine = sorted(poly_to_text(g) for g in J.groebner())
        assert mine == _sympy_gb(ring, J.gens)


def test_budgets_raise(c4, c5):
    R = RingSpec(2, 4)
    J = binomial_edge_ideal(R, c4)
    with pytest.raises(BudgetExceededError):
        J.groebner(GBBudget(max_pairs=1, max_degree=12))
    R2 = RingSpec(2, 2)
    f = Polynomial.variable(R2, 1, 1)
    g = f
    with pytest.raises(BudgetExceededError):
        for _ in range(200):
            g = g * f
    assert g.degree() == _MAX_EXPONENT
    # the cap reads both operands' degrees; a zero operand gives zero
    # whatever the other's degree
    big = Polynomial.from_terms(R2, [(100 * R2.var_mono(0) + 25 * R2.var_mono(1), 1)])
    for zero in (Polynomial.zero(R2), f - f):
        assert zero.degree() == -1 and (zero * big).is_zero() and (big * zero).is_zero()
    with pytest.raises(BudgetExceededError):
        big * Polynomial.one(R2)
    # the S-pairs that survive the pair criteria, pinned: N pairs suffice
    # and N - 1 do not
    for G, m, pairs in [(c4, 2, 8), (c5, 2, 20), (c4, 3, 66)]:
        ring = RingSpec(m, G.n)
        binomial_edge_ideal(ring, G).groebner(GBBudget(max_pairs=pairs))
        with pytest.raises(BudgetExceededError):
            binomial_edge_ideal(ring, G).groebner(GBBudget(max_pairs=pairs - 1))


def test_degree_budget_covers_every_generator():
    R = RingSpec(2, 2)
    high = Polynomial.from_terms(R, [(13 * R.var_mono(0), 1)])
    low = Polynomial.variable(R, 2, 2)
    for gens in ([high], [low, high]):
        with pytest.raises(BudgetExceededError):
            Ideal(R, gens).groebner(GBBudget(max_degree=12))
    assert len(Ideal(R, [low, high]).groebner(GBBudget(max_degree=13))) == 2
    # every term counts, even one that a reduction cancels before it is
    # reached: g = x[1,2] * r cancels its degree-13 term against r's tail
    r = Polynomial.variable(R, 1, 1) - Polynomial.from_terms(R, [(12 * R.var_mono(3), 1)])
    g = Polynomial.variable(R, 1, 2) * r
    assert g.degree() == 13 and len(Ideal(R, [r]).groebner(GBBudget(max_degree=12))) == 1
    with pytest.raises(BudgetExceededError):
        Ideal(R, [r, g]).groebner(GBBudget(max_degree=12))
    # a known basis is held to the budget too: t*GB(J) has degree 3, and
    # the zero ideal adds no generator that could hit the budget instead
    J = binomial_edge_ideal(RingSpec(2, 3), path_graph(3))
    known = [g.terms for g in J.groebner()]
    with pytest.raises(BudgetExceededError):
        _buchberger(J.ring, [], GBBudget(max_degree=1), known)
    assert _buchberger(J.ring, [], GBBudget(max_degree=2), known) == known
    with pytest.raises(BudgetExceededError):
        intersect(J, Ideal(J.ring, []), GBBudget(max_degree=2))
    assert intersect(J, Ideal(J.ring, []), GBBudget(max_degree=3)).gens == ()


def test_buchberger_opens_with_known_on_a_plain_ring():
    # a plain ring has one kind of element and no quiet pairs: a run that
    # opens with P3's reduced basis and adds a generator gives the reduced
    # basis of both
    J = binomial_edge_ideal(RingSpec(2, 3), path_graph(3))
    known = [g.terms for g in J.groebner()]
    for f in (Polynomial.variable(J.ring, 1, 2), minor(J.ring, (1, 2), (1, 3))):
        want = Ideal(J.ring, [f, *J.groebner()]).groebner()
        assert _buchberger(J.ring, [f.terms], DEFAULT_BUDGET, known) == [g.terms for g in want]


def test_degree_budget_is_exact_at_and_above_255():
    # inside _buchberger degrees are read as m % 255, so the entry check
    # must be exact: 260 = 5 and 255 = 0 (mod 255) both fit a budget of 12
    R = RingSpec(2, 2)
    budget = GBBudget(max_degree=12)
    x = [R.var_mono(k) for k in range(R.nvars)]
    for last in (60, 55):
        g = Polynomial.from_terms(R, [(100 * x[0] + 100 * x[1] + last * x[2], 1)])
        assert R.mono_degree(g.lt()) == 200 + last
        with pytest.raises(BudgetExceededError):
            Ideal(R, [g]).groebner(budget)
        with pytest.raises(BudgetExceededError):
            _buchberger(R, [], budget, [g.terms])


def scan_nf(ring, f, red):
    """_nf as it was before the lead lookup: every term scans the reducers
    for the first whose leading term divides it.  The reference for the
    tests below."""
    p, top = ring.p, ring._top
    work, out = dict(f), {}
    heap = [-m for m in work]
    heapq.heapify(heap)
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        hit = next(
            (r for r in red if r[0] <= m and ((m | top) - r[0]) & top == top), None
        )
        if hit is None:
            out[m] = c
            continue
        for tm, tc in hit[1]:
            key = tm + m - hit[0]
            if key not in work:
                heapq.heappush(heap, -key)
            work[key] = (work.get(key, 0) - c * tc) % p
    return out


class CountingDict(dict):
    def get(self, key, default=None):
        self.hits = getattr(self, "hits", 0) + 1
        return super().get(key, default)


def test_lead_lookup_picks_the_scan_reducer():
    # a term of degree at most the least leading-term degree takes one
    # lookup in place of the scan, and with ``one_up`` a term one degree
    # above it takes one per variable; on random monic reducers,
    # homogeneous or of mixed lead degrees (tails never above their lead's
    # degree, so no term outgrows the lookup), some with duplicate leads,
    # and terms below, at, one and two above the least lead degree,
    # including leads, their multiples (exponents >= 2 among them) and
    # terms several leads divide, _nf must return the scan's items in the
    # scan's order, with and without ``one_up``
    rng = random.Random(23)
    ring = RingSpec(2, 3)
    nv, p = ring.nvars, ring.p
    x = [ring.var_mono(k) for k in range(nv)]

    def mono(deg):
        e = [0] * nv
        for _ in range(deg):
            e[rng.randrange(nv)] += 1
        return mono_from_exponents(e)

    kinds = [
        "below", "at", "above", "homogeneous", "mixed", "duplicate leads", "one up",
        "one up, a lead equal to the term", "one up, two or more leads divide",
        "one up, an exponent >= 2", "one up, mixed lead degrees",
    ]
    seen = collections.Counter(dict.fromkeys(kinds, 0))  # a kind never seen stays at 0
    lookups = {False: 0, True: 0}  # the lookup's gets, without and with one_up
    for trial in range(400):
        homogeneous = trial % 2 == 0
        d0 = rng.randrange(1, 4)
        basis = []
        for _ in range(rng.randrange(1, 9)):
            lt = mono(d0 if homogeneous else rng.randrange(1, 5))
            deg = ring.mono_degree(lt)
            tail = [mono(deg if homogeneous else rng.randrange(deg + 1)) for _ in range(3)]
            basis.append({lt: 1, **{t: rng.randrange(1, p) for t in tail if t < lt}})
        if trial % 4 < 2:  # a second reducer with the first one's lead
            lt = max(basis[0])
            tail = [mono(ring.mono_degree(lt)) for _ in range(3)]
            basis.append({lt: 1, **{t: rng.randrange(1, p) for t in tail if t < lt}})
        red = _prepare_reducers(basis)
        leads = sorted({r[0] for r in red})
        low = min(ring.mono_degree(lt) for lt in leads)
        terms = [mono(low + s) for s in (-1, 0, 0, 1, 1, 2) if low + s >= 0]
        terms += rng.sample(leads, min(2, len(leads)))
        terms += [lt + rng.choice(x) for lt in rng.sample(leads, min(3, len(leads)))]
        terms += [ring.mono_lcm(a, b) for a, b in itertools.combinations(leads, 2)]
        f = {t: rng.randrange(1, p) for t in terms}
        for one_up in (False, True):
            lookup = _lead_lookup(red, max(map(ring.mono_degree, f)), one_up=one_up)
            lookup[1] = CountingDict(lookup[1])
            got = _nf(ring, f, red, None, lookup)
            assert list(got.items()) == list(scan_nf(ring, f, red).items()), (trial, one_up)
            lookups[one_up] += getattr(lookup[1], "hits", 0)
        seen["homogeneous" if homogeneous else "mixed"] += 1
        seen["duplicate leads"] += len(leads) < len(red)
        for t in f:
            d = ring.mono_degree(t)
            seen["below" if d < low else "at" if d == low else "above"] += 1
            if d == low + 1:
                dividing = [lt for lt in leads if ring.mono_divides(lt, t)]
                seen["one up"] += 1
                seen["one up, a lead equal to the term"] += t in leads
                seen["one up, two or more leads divide"] += len(dividing) > 1
                seen["one up, an exponent >= 2"] += max(ring.mono_exponents(t)) > 1
                seen["one up, mixed lead degrees"] += not homogeneous and bool(dividing)
    assert list(seen) == kinds and min(seen.values()) > 100, seen
    # the same terms surface either way, so the surplus with one_up is _one_up's
    assert lookups[False] > 400 and lookups[True] - lookups[False] > 2000, lookups


def test_buchberger_keeps_its_lead_lookup_current(monkeypatch):
    # _buchberger updates its lookup as it adds elements; every normal form
    # it takes must see the lookup built afresh from its reducers, and
    # leave the terms one degree above the least lead degree to the scan
    import vnum.algebra as algebra

    checked = []

    def nf(ring, f, red, max_degree=None, leads=None):
        if max_degree is not None:
            assert leads == _lead_lookup(red, 2 * max_degree) and leads[2] is False
            checked.append(len(red))
        return _nf(ring, f, red, max_degree, leads)

    monkeypatch.setattr(algebra, "_nf", nf)
    R, P4 = RingSpec(2, 4), path_graph(4)
    ideal_power(binomial_edge_ideal(R, complete_graph(4)), 2).groebner()
    primes = [cut_set_prime(R, P4, c.vertices) for c in enumerate_cut_sets(P4)]
    assert intersect_many(primes).equals(binomial_edge_ideal(R, P4))
    assert brute_local_v(R, P4, [2])[0] == 2
    assert len(checked) > 50 and max(checked) > 5, checked


def test_lead_lookup_is_exact_at_and_above_degree_255(monkeypatch):
    # m % 255 reads a term of degree 256 as 1, at most the least lead
    # degree 2 of I = (x[1,1]*x[1,2]); a lookup there would miss the lead
    # dividing it.  Ideal.contains keeps the scan, and a search_power_witness
    # slice d builds its lookup, with the one-up lookups, for the top row
    # degree d + 2, which gives none from 255 up
    import vnum.algebra as algebra

    R = RingSpec(2, 3)
    x = [R.var_mono(k) for k in range(R.nvars)]
    I = Ideal(R, [Polynomial.from_terms(R, [(x[0] + x[1], 1)])])
    term = Polynomial.from_terms(R, [(100 * x[0] + 100 * x[1] + 56 * x[3], 1)])
    assert R.mono_degree(term.lt()) == 256 and term.lt() % 255 == 1
    assert I.contains(term)
    red = I._reducers()
    assert _lead_lookup(red, 254) == [2, {x[0] + x[1]: red[0]}, False]
    assert _lead_lookup(red, 254, one_up=True) == [2, {x[0] + x[1]: red[0]}, True]
    assert _lead_lookup(red, 255) is None
    assert _lead_lookup(red, 255, one_up=True) is None
    assert _nf(R, term.terms, red, None, _lead_lookup(red, 256)) == {}

    tops = []

    def spy(red, top_degree, **kwargs):
        if sys._getframe(1).f_code.co_name == "search_power_witness":
            tops.append((top_degree, kwargs))
        return _lead_lookup(red, top_degree, **kwargs)

    monkeypatch.setattr(algebra, "_lead_lookup", spy)
    assert search_power_witness(RingSpec(2, 4), path_graph(4), [2], 2, d_max=3) is None
    assert tops == [(d, {"one_up": True}) for d in (2, 3, 4, 5)]


def test_reduce_basis_of_redundant_groebner_basis(c4):
    R = RingSpec(2, 4)
    gb = binomial_edge_ideal(R, c4).groebner()
    x = Polynomial.variable(R, 2, 3)
    redundant = [g.scale(3) for g in gb]
    redundant += [gb[i] + gb[i + 1].scale(5) for i in range(len(gb) - 1)]
    redundant += [x * g for g in gb]
    got = _reduce_basis(R, [g.terms for g in reversed(redundant)])
    assert [Polynomial(R, g) for g in got] == list(gb)


def test_birth_reduced_interreduction_matches_the_full_pass(monkeypatch, c4):
    # _buchberger's finish hands _reduce_basis bases reduced at birth, and
    # it keeps an element as it is when every kept element below it was
    # born before it.  Every such call must give exactly the full pass's
    # output, on plain bases, powers, tag eliminations and the oracle's
    # contexts.  On some calls the input itself is not the answer, so a
    # pass that always keeps the input as it is fails
    import vnum.algebra as algebra
    from vnum.verify import suite_colon_variable

    full = algebra._reduce_basis
    calls = needed = 0

    def checked(ring, basis, *, born=()):
        nonlocal calls, needed
        if not born:
            return full(ring, basis)
        want = full(ring, basis)
        got = full(ring, basis, born=born)
        assert [list(g.items()) for g in got] == [list(g.items()) for g in want]
        as_given = sorted((g for g in basis if g), key=max, reverse=True)
        calls += 1
        needed += want != as_given
        return got

    monkeypatch.setattr(algebra, "_reduce_basis", checked)
    for n in range(2, 6):
        for G, _ in closed_graphs(n):
            for m, ks in ((2, (1, 2, 3)), (3, (2,) if n <= 4 else ())):
                J = binomial_edge_ideal(RingSpec(m, n), G)
                for k in ks:
                    ideal_power(J, k).groebner()
            R = RingSpec(2, n)
            for cut in enumerate_cut_sets(G):
                brute_local_v(R, G, cut.vertices)
    P4 = path_graph(4)
    for G in (P4, c4):
        assert all(r.status == "pass" for r in suite_colon_variable(G, 2))
    R = RingSpec(2, 4)
    primes = [cut_set_prime(R, P4, c.vertices) for c in enumerate_cut_sets(P4)]
    assert intersect_many(primes).equals(binomial_edge_ideal(R, P4))
    assert calls > 0 and needed > 0, (calls, needed)


def degree_first_gm_update(ring, lts, pairs, heap, new_idx, mask=-1, treated=()):
    """The Gebauer-Moeller update walking its candidates by (lcm degree,
    lcm, index), with the alive pairs in ``pairs`` and the chain criterion
    as a scan of them at each update, as _gm_update did before it walked
    by (lcm, index) and left the chain criterion to the pop: the reference
    for the test below."""
    top = ring._top
    low = (top >> 7) * 0x7F
    lt_h = lts[new_idx]
    lcms = []
    for a in lts[:new_idx]:
        d = (a | top) - lt_h
        lcms.append(lt_h + (d & ((d & top) >> 7) * 0xFF & low))
    cand = sorted(((l & mask) % 255, l, g) for g, l in enumerate(lcms))
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
    for (i, j), l in list(pairs.items()):
        if ((l | top) - lt_h) & top == top and lcms[i] != l and lcms[j] != l:
            del pairs[(i, j)]
    for d, l, g in new_pairs:
        if g not in treated:
            pairs[(g, new_idx)] = l
            heapq.heappush(heap, (d, l, g, new_idx))


def test_pair_update_matches_the_degree_first_walk():
    # _gm_update's heap, filtered at each pop by _chain_drops, pops the
    # reference's alive pairs in the same order: the same lcms, the same
    # smallest index among equal ones and the same chain deletions, with
    # or without the tag mask and treated indices, through the zero and
    # degree-1 quotient paths; pops between updates stand in for
    # _buchberger's, and each trial ends by draining both
    rng = random.Random(22)
    ring = RingSpec(2, 3).extended()
    equal_lcms = treated_hits = chain_drops = zero_quotients = degree_one_drops = 0

    def pop(lts, heap, ref_pairs, ref_heap):
        nonlocal chain_drops
        got = want = None
        while heap and got is None:
            entry = heapq.heappop(heap)
            if _chain_drops(ring._top, lts, entry[2], entry[3], entry[1]):
                chain_drops += 1
            else:
                got = entry
        while ref_heap and want is None:
            entry = heapq.heappop(ref_heap)
            if ref_pairs.pop(entry[2:], None) == entry[1]:
                want = entry
        return got, want

    for trial in range(300):
        mask = -1 if trial % 2 else ring.tag - 1
        lts, heap, ref_pairs, ref_heap = [], [], {}, []
        for new_idx in range(rng.randrange(2, 14)):
            lts.append(sum(rng.choice((0, 0, 1, 2)) << (8 * v) for v in range(ring.nvars)))
            treated = set(rng.sample(range(new_idx), rng.randrange(new_idx + 1)))
            _gm_update(ring, lts, heap, new_idx, mask, treated)
            degree_first_gm_update(ring, lts, ref_pairs, ref_heap, new_idx, mask, treated)
            untreated: list = []
            _gm_update(ring, lts, untreated, new_idx, mask)
            treated_hits += any(e[2] in treated for e in untreated)
            lcms = [ring.mono_lcm(a, lts[-1]) for a in lts[:-1]]
            equal_lcms += len(set(lcms)) < len(lcms)
            # the quotient paths: a zero quotient (an earlier leading term
            # divides the new one), or a degree-1 quotient that divides
            # another candidate's quotient
            quotients = [l - lts[-1] for l in lcms]
            ones = {q for q in quotients if ring.mono_degree(q) == 1}
            zero_quotients += 0 in quotients
            degree_one_drops += 0 not in quotients and len(ones) < sum(
                any(ring.mono_divides(v, q) for v in ones) for q in quotients
            )
            for _ in range(rng.randrange(3)):
                got, want = pop(lts, heap, ref_pairs, ref_heap)
                assert got == want, (trial, new_idx)
        while heap or ref_heap:
            got, want = pop(lts, heap, ref_pairs, ref_heap)
            assert got == want, trial
    assert equal_lcms > 100 and treated_hits > 100 and chain_drops > 100, (
        equal_lcms, treated_hits, chain_drops
    )
    assert zero_quotients > 100 and degree_one_drops > 100, (zero_quotients, degree_one_drops)


def test_budget_rejects_degree_above_exponent_cap():
    # packed 8-bit exponent fields would overflow silently
    assert GBBudget(max_degree=_MAX_EXPONENT).max_degree == _MAX_EXPONENT
    with pytest.raises(GraphInputError):
        GBBudget(max_degree=_MAX_EXPONENT + 1)


def test_budget_rejects_empty_pair_allowance():
    with pytest.raises(GraphInputError):
        GBBudget(max_pairs=0)


def test_budget_rejects_negative_degree():
    # every non-constant input would fail as a budget overrun, not as input
    assert GBBudget(max_degree=0).max_degree == 0
    for d in (-1, -3):
        with pytest.raises(GraphInputError):
            GBBudget(max_degree=d)


def test_ring_rejects_composite_modulus():
    for p in (2, 7, 32003, 2**61 - 1):
        assert RingSpec(2, 3, p).p == p
    for p in (0, 1, 4, 32001, 3215031751, (2**31 - 1) * (2**61 - 1)):
        with pytest.raises(GraphInputError):
            RingSpec(2, 3, p)


# -- normal forms, membership -------------------------------------------------

def test_principal_monomial_basis():
    R = RingSpec(2, 3)
    I = Ideal(R, [Polynomial.variable(R, 1, 1)])
    assert [poly_to_text(g) for g in I.groebner()] == ["1*x[1,1]"]


def test_membership_examples():
    R = RingSpec(2, 3)
    J = binomial_edge_ideal(R, path_graph(3))
    skew = minor(R, (1, 2), (1, 3))
    assert not J.contains(skew)
    assert J.contains(Polynomial.variable(R, 1, 2) * skew)
    assert normal_form(J, Polynomial.zero(R)).is_zero()
    g = J.gens[0]
    assert Ideal(R, [g]).contains(Polynomial.variable(R, 1, 1) * g)


# -- intersections, colons, powers ---------------------------------------------

def test_intersection_examples():
    R = RingSpec(2, 3)
    J = binomial_edge_ideal(R, path_graph(3))
    assert intersect(J, J).equals(J)
    a = Ideal(R, [Polynomial.variable(R, 1, 1)])
    b = Ideal(R, [Polynomial.variable(R, 2, 1)])
    meet = intersect(a, b)
    want = Ideal(R, [Polynomial.variable(R, 1, 1) * Polynomial.variable(R, 2, 1)])
    assert meet.equals(want)
    primes = [cut_set_prime(R, path_graph(3), c.vertices)
              for c in enumerate_cut_sets(path_graph(3))]
    assert intersect_many(primes).equals(J)


def reference_intersect(I, J):
    """I cap J by eliminating t from the raw generators of t*I + (1-t)*J,
    with no basis of I known in advance."""
    ring = I.ring
    ext = ring.extended()
    t = Polynomial(ext, {ext.tag: ext.coeff(1)})
    one_minus_t = Polynomial.one(ext) - t
    gens = [(t * Polynomial(ext, g.terms)).terms for g in I.gens]
    gens += [(one_minus_t * Polynomial(ext, h.terms)).terms for h in J.gens]
    gb = _buchberger(ext, gens, ELIMINATION_BUDGET)
    return [Polynomial(ring, g) for g in gb if max(g) < ext.tag]


def test_intersect_matches_elimination_from_raw_generators(c4, c5):
    cases = []
    for G in (c4, c5):
        R = RingSpec(2, G.n)
        J = binomial_edge_ideal(R, G)
        primes = [cut_set_prime(R, G, c.vertices) for c in enumerate_cut_sets(G)]
        cases += [(J, Ideal(R, [Polynomial.variable(R, 1, 2)])),
                  (J, Ideal(R, [minor(R, (1, 2), (1, 3))])),
                  (primes[0], primes[-1]), (primes[-1], J)]
    R = RingSpec(2, 4)
    J2 = ideal_power(binomial_edge_ideal(R, path_graph(4)), 2)
    for f in (Polynomial.variable(R, 1, 2), Polynomial.variable(R, 2, 3),
              minor(R, (1, 2), (1, 3)), minor(R, (1, 2), (2, 4))):
        cases.append((J2, Ideal(R, [f])))
    for I, J in cases:
        want = reference_intersect(I, J)
        # the warm start reads I's cached basis: with and without it cached
        assert list(intersect(Ideal(I.ring, I.gens), J).groebner()) == want
        assert list(intersect(I, J).groebner()) == want


def full_update_events(ring, gens, known, masked, limit=None):
    """The popped (lcm, lt_i, lt_j, dropped) entries of a tag elimination
    whose pair update reads every earlier leading term, with a t-free
    element's pairs with the known block treated (quiet pairs), and whose
    chain criterion scans every later element; then the number of
    candidate quotients the updates formed.  It stops after ``limit`` pops
    or when no pair is left: the reference for the test below."""
    mask = ring.tag - 1 if masked else -1
    rds = [_reducer(g) for g in known]
    lts, red, heap, events, candidates = [r[0] for r in rds], sorted(rds), [], [], 0

    def add(r):
        nonlocal candidates
        rd = _record(ring, r)[1]
        rds.append(rd)
        lts.append(rd[0])
        insort(red, rd)  # by lead: the leads of a run are distinct
        candidates += len(lts) - 1
        treated = range(len(known)) if rd[0] < ring.tag else ()
        _gm_update(ring, lts, heap, len(lts) - 1, mask, treated)

    for g in sorted(gens, key=lambda g: (max(g) % 255, max(g))):
        if r := _nf(ring, g, red):
            add(r)
    while heap and len(events) != limit:
        _, l, i, j = heapq.heappop(heap)
        dropped = _chain_drops(ring._top, lts, i, j, l)
        events.append((l, lts[i], lts[j], dropped))
        if not dropped and (r := _nf(ring, _spoly(ring, rds[i], rds[j], l), red)):
            add(r)
    return events, candidates


def test_elimination_pairs_by_kind_match_the_full_update(monkeypatch, c4, c5):
    # a tag elimination pairs each new element only with its own kind (the
    # t-free ones, or the tagged ones with the known block first), and
    # scans only the later t-free elements for a t-free lcm at pop; the
    # popped entries, read as leading terms, and every chain decision are
    # those of the full update, on intersections and colons and on the
    # oracle's truncated runs (compared up to the pop where it stopped)
    import vnum.algebra as algebra

    real, update, chain = algebra._buchberger, algebra._gm_update, algebra._chain_drops
    events: list = []
    run = {"tag": None, "known": ()}
    seen = collections.Counter()

    def own_kind(ring, lts, heap, new_idx, mask=-1, treated=()):
        tagged = lts[new_idx] >= ring.tag
        assert all((a >= ring.tag) == tagged for a in lts[:new_idx])
        assert not tagged or lts[:len(run["known"])] == run["known"]
        seen["candidates"] += new_idx
        return update(ring, lts, heap, new_idx, mask, treated)

    def recorded(top, lts, i, j, l):
        dropped = chain(top, lts, i, j, l)
        events.append((l, lts[i], lts[j], dropped))
        if l < run["tag"]:
            assert all(h < run["tag"] for h in lts)
            seen["t-free scans"] += 1
        seen["drops"] += dropped
        return dropped

    def checked(ring, gens, budget, known=(), stop=None, factors=None):
        if not isinstance(known, algebra._Opening):
            return real(ring, gens, budget, known, stop, factors)
        events.clear()
        run.update(tag=ring.tag, known=known.lts)
        monkeypatch.setattr(algebra, "_gm_update", own_kind)
        monkeypatch.setattr(algebra, "_chain_drops", recorded)
        try:
            out = real(ring, gens, budget, known, stop, factors)
        finally:
            monkeypatch.setattr(algebra, "_gm_update", update)
            monkeypatch.setattr(algebra, "_chain_drops", chain)
        want, candidates = full_update_events(
            ring, gens, known.basis, stop is not None, len(events) if stop else None)
        assert events == want
        seen["runs"] += 1
        seen["full candidates"] += candidates
        return out

    monkeypatch.setattr(algebra, "_buchberger", checked)
    for G in (c4, c5):
        R = RingSpec(2, G.n)
        J = binomial_edge_ideal(R, G)
        primes = [cut_set_prime(R, G, c.vertices) for c in enumerate_cut_sets(G)]
        intersect(primes[0], primes[-1])
        intersect(primes[-1], J)
        colon_poly(J, Polynomial.variable(R, 1, 2))
        colon_poly(J, minor(R, (1, 2), (1, 3)))
    R = RingSpec(2, 4)
    J2 = ideal_power(binomial_edge_ideal(R, path_graph(4)), 2)
    for f in (Polynomial.variable(R, 1, 2), Polynomial.variable(R, 2, 3),
              minor(R, (1, 2), (1, 3)), minor(R, (1, 2), (2, 4))):
        colon_poly(J2, f)
    graphs = [(m, G) for m in (2, 3) for n in range(1, 6) for G, _ in closed_graphs(n)]
    graphs += [(2, G) for n in range(1, 6) for G in connected_graphs_up_to_iso(n)]
    for m, G in graphs:
        R = RingSpec(m, G.n)
        for cut in enumerate_cut_sets(G):
            brute_local_v(R, G, cut.vertices)
    assert seen["runs"] == 181 and seen["drops"] > 0 and seen["t-free scans"] > 0, seen
    assert seen["candidates"] < seen["full candidates"], seen  # cross-kind ones skipped


def test_colon_pair_budget_pinned():
    # the elimination behind one colon of J^2 opens with t*GB(J^2) and forms
    # no pair inside it, nor any of it with a t-free element; 19 pairs
    # suffice (29 from the raw generators)
    R = RingSpec(2, 4)
    J2 = ideal_power(binomial_edge_ideal(R, path_graph(4)), 2)
    J2.groebner()
    f = minor(R, (1, 2), (2, 4))
    colon_poly(J2, f, GBBudget(max_pairs=19, max_degree=32))
    with pytest.raises(BudgetExceededError):
        colon_poly(J2, f, GBBudget(max_pairs=18, max_degree=32))


def test_colon_examples():
    R = RingSpec(2, 4)
    P4 = path_graph(4)
    J = binomial_edge_ideal(R, P4)
    assert colon_poly(J, Polynomial.one(R)).equals(J)
    from vnum.graphs import completion_graph

    for j in (1, 2, 3, 4):
        RHS = binomial_edge_ideal(R, completion_graph(P4, j))
        for i in (1, 2):
            C = colon_poly(J, Polynomial.variable(R, i, j))
            assert C.equals(RHS), (i, j)


def colon_ideal(
    I: Ideal, J: Ideal, budget: GBBudget = ELIMINATION_BUDGET
) -> Ideal:
    """(I : J) as the intersection of (I : g) over the generators of J."""
    parts = [colon_poly(I, g, budget) for g in J.gens]
    if not parts:
        raise GraphInputError("colon by the zero ideal")
    return intersect_many(parts, budget)


def test_colon_ideal_peels_one_prime():
    # (J : P_T) is the intersection of the other minimal primes
    R = RingSpec(2, 4)
    P4 = path_graph(4)
    J = binomial_edge_ideal(R, P4)
    cuts = [c.vertices for c in enumerate_cut_sets(P4)]
    primes = {T: cut_set_prime(R, P4, T) for T in cuts}
    for T in cuts:
        others = [primes[S] for S in cuts if S != T]
        got = colon_ideal(J, primes[T])
        assert got.equals(intersect_many(others)), T


def initial_ideal(I, budget=DEFAULT_BUDGET):
    """Monomial ideal of the leading terms of the reduced basis."""
    ring = I.ring
    lts = sorted({g.lt() for g in I.groebner(budget)})
    minimal = _minimal_monomials(ring, lts)
    gens = [Polynomial(ring, {m: ring.coeff(1)}) for m in sorted(minimal, reverse=True)]
    return Ideal(ring, gens, _gb=tuple(gens))


def test_power_and_initial():
    R = RingSpec(2, 4)
    J = binomial_edge_ideal(R, path_graph(4))
    assert ideal_power(J, 1) is J
    iniJ = [g.lt() for g in initial_ideal(J).gens]
    for k in (2, 3):
        Jk = ideal_power(J, k)
        got = [g.lt() for g in initial_ideal(Jk, GBBudget(500_000, 12)).gens]
        assert monomial_ideals_equal(R, got, monomial_ideal_power(R, iniJ, k))


def packed_minimal_monomials(ring, monos):
    """The walk in packed order: each monomial against every kept one (a
    divisor is never larger as an integer, so it is kept first)."""
    out = []
    for m in sorted(set(monos)):
        if not any(ring.mono_divides(g, m) for g in out):
            out.append(m)
    return out


def test_minimal_monomials_matches_the_packed_walk():
    # the walk by degree level tests each monomial only against kept ones of
    # lower degree; the packed-order walk against every kept one is the
    # reference, on mixed degrees, duplicates, divisor chains, the unit
    # monomial, degrees past 255 (where m % 255 is no degree) and no input
    rng = random.Random(33)
    assert _minimal_monomials(RingSpec(2, 3), []) == []
    cases = past_255 = 0
    for ring in (RingSpec(2, 3), RingSpec(3, 4), RingSpec(2, 5, p=None), RingSpec(4, 4)):
        nv = ring.nvars
        for trial in range(60):
            top = (1, 2, 4, 120)[trial % 4]
            monos = [mono_from_exponents([rng.choice((0, 0, rng.randint(0, top)))
                                          for _ in range(nv)])
                     for _ in range(rng.randint(1, 25))]
            for m in rng.sample(monos, min(3, len(monos))):  # divisor chains
                for _ in range(rng.randint(1, 4)):
                    e = list(ring.mono_exponents(m))
                    i = rng.randrange(nv)
                    e[i] = min(e[i] + rng.randint(1, 2), 127)
                    m = mono_from_exponents(e)
                    monos.append(m)
            monos += rng.choices(monos, k=rng.randint(0, 5))  # duplicates
            if trial % 7 == 0:
                monos.append(0)
            rng.shuffle(monos)
            want = packed_minimal_monomials(ring, monos)
            assert _minimal_monomials(ring, monos) == want, (ring, monos)
            assert _minimal_monomials(ring, iter(monos)) == want
            cases += len(want) < len(set(monos)) < len(monos)
            past_255 += max(map(ring.mono_degree, monos)) >= 255
    assert cases > 100 and past_255 > 20


def test_ideal_power_products_and_links():
    # each k-fold product is the (k-1)-fold one times a generator, in
    # combinations_with_replacement order; the chain links down only
    R = RingSpec(2, 4)
    J = binomial_edge_ideal(R, path_graph(4))
    J3 = ideal_power(J, 3)
    J2 = J3.lower_power
    assert J2.lower_power is J and J.lower_power is None
    for Jk, k in ((J2, 2), (J3, 3)):
        want = []
        for combo in itertools.combinations_with_replacement(J.gens, k):
            f = combo[0]
            for g in combo[1:]:
                f = f * g
            want.append(f)
        assert [f.terms for f in Jk.gens] == [f.terms for f in want]
        assert all(list(a.terms) == list(b.terms) for a, b in zip(Jk.gens, want))


def test_power_groebner_matches_the_plain_run():
    # the shared-factor pairs are skipped only when the lower power's
    # products are certified to be a Groebner basis; the generators of the
    # plain reference carry no factor indices.  The connected graphs are
    # the guard: on the 32 cases whose minors are no Groebner basis, the
    # pairs cannot be skipped
    cases = [(G, 2, k) for n in range(2, 6) for G, _ in closed_graphs(n) for k in (2, 3)]
    cases += [(G, 3, 2) for n in range(2, 5) for G, _ in closed_graphs(n)]
    cases += [(G, 2, 2) for n in range(2, 6) for G in connected_graphs_up_to_iso(n)]
    cases += [(G, 3, 2) for n in range(2, 5) for G in connected_graphs_up_to_iso(n)]
    uncertified = 0
    for G, m, k in cases:
        R = RingSpec(m, G.n)
        Jk = ideal_power(binomial_edge_ideal(R, G), k)
        want = Ideal(R, Jk.gens).groebner()
        assert Jk.groebner() == want, (m, k, G.edges)
        lower = Jk.lower_power
        uncertified += (
            set(_minimal_monomials(R, [g.lt() for g in lower.gens]))
            != {g.lt() for g in lower.groebner()}
        )
    assert len(cases) == 91 and uncertified == 32


def test_power_pair_budget_pinned():
    # with J's basis cached, J^2 for P4 at m = 3 forms 9 S-pairs: the
    # products that share a factor pair up for free (185 from the raw
    # generators)
    R = RingSpec(3, 4)
    for budget, ok in ((9, True), (8, False)):
        J = binomial_edge_ideal(R, path_graph(4))
        J.groebner()
        J2 = ideal_power(J, 2)
        if ok:
            J2.groebner(GBBudget(max_pairs=budget))
        else:
            with pytest.raises(BudgetExceededError):
                J2.groebner(GBBudget(max_pairs=budget))
    with pytest.raises(BudgetExceededError):
        Ideal(R, J2.gens).groebner(GBBudget(max_pairs=184))


def test_cut_set_prime_fast_path_matches_buchberger():
    for n in range(2, 5):
        for G in connected_graphs_up_to_iso(n):
            for m in (2, 3):
                ring = RingSpec(m, n)
                for cut in enumerate_cut_sets(G):
                    P = cut_set_prime(ring, G, cut.vertices)
                    fresh = Ideal(ring, P.gens)
                    assert list(fresh.groebner()) == list(P.groebner()), (
                        n, m, cut.vertices, sorted(G.edges),
                    )


# -- the oracle ----------------------------------------------------------------

def test_brute_local_v_examples():
    assert brute_local_v(RingSpec(2, 4), path_graph(4), [2])[0] == 2
    assert brute_local_v(RingSpec(2, 3), path_graph(3), [])[0] == 1
    assert brute_local_v(RingSpec(3, 5), path_graph(5), [3])[0] == 2
    assert brute_local_v(RingSpec(2, 5), complete_graph(5), [])[0] == 0
    with pytest.raises(Exception):
        brute_local_v(RingSpec(2, 4), path_graph(4), [2, 3])


def test_separating_element_gives_the_other_primes():
    # (J : f0) is the intersection of the other primes, whichever f0 is used
    cases = [(G, 2) for n in range(2, 6) for G, _ in closed_graphs(n)]
    cases += [(G, 3) for n in (3, 4) for G, _ in closed_graphs(n)]
    checked = 0
    for G, m in cases:
        R = RingSpec(m, G.n)
        J = binomial_edge_ideal(R, G)
        cuts = [c.vertices for c in enumerate_cut_sets(G)]
        primes = {T: cut_set_prime(R, G, T) for T in cuts}
        for T in cuts:
            others = [primes[S] for S in cuts if S != T]
            if not others:
                continue
            f0 = separating_element(primes[T], others)
            assert primes[T].contains(f0)
            assert not any(o.contains(f0) for o in others)
            assert colon_poly(J, f0).equals(intersect_many(others)), (G.edges, m, T)
            checked += 1
    assert checked == 58


def test_contains_variable_is_the_membership_test():
    # the lookup in the reduced basis agrees with the normal form on every
    # variable, on cut-set primes (x[i,j] is in P_T exactly when j is in
    # T), on J, and on ideals with a linear binomial, the unit or nothing
    R = RingSpec(3, 4)
    G = path_graph(4)
    x = [[Polynomial.variable(R, i, j) for j in range(1, 5)] for i in range(1, 4)]
    ideals = [cut_set_prime(R, G, c.vertices) for c in enumerate_cut_sets(G)]
    ideals += [binomial_edge_ideal(R, G), Ideal(R, [x[0][0] - x[1][1], x[2][3]]),
               Ideal(R, [x[0][0] * x[0][1] - x[2][3]]), Ideal(R, [x[1][2] + Polynomial.one(R)]),
               Ideal(R, [Polynomial.one(R)]), Ideal(R, [])]
    variables = [v for row in x for v in row]
    for v, outside in zip(variables, _outside_by_lookup(variables, ideals)):
        assert outside == {k for k, I in enumerate(ideals) if not I.contains(v)}, v
    P = ideals[1]  # T = {2}
    assert list(_outside_by_lookup([x[i][1] for i in range(3)], [P])) == [set()] * 3
    others = [x[i][j] for i in range(3) for j in (0, 2, 3)]
    assert list(_outside_by_lookup(others, [P])) == [{0}] * 9


def test_minor_lookup_is_the_membership_test():
    # a 2-minor [i,j|k,l] of one cut-set prime lies in another, P_T, exactly
    # when k or l is in T or k and l share a component of G - T; the lookup
    # must agree with the normal form on every such pair of the oracle's
    # families.  Beyond them it may only overstate: a sum of two minors of
    # P_T is in P_T but is no basis element, so P_T is listed
    graphs = [G for n in range(1, 7) for G, _ in closed_graphs(n)]
    graphs += [G for n in range(1, 6) for G in connected_graphs_up_to_iso(n)]
    pairs = inside = 0
    for m in (2, 3):
        for G in graphs:
            R = RingSpec(m, G.n)
            primes = [cut_set_prime(R, G, c.vertices) for c in enumerate_cut_sets(G)]
            for P in primes:
                minors = [g for g in P.gens if g.degree() == 2]
                for g, outside in zip(minors, _outside_by_lookup(minors, primes)):
                    assert outside == {k for k, Q in enumerate(primes) if not Q.contains(g)}, (
                        m, G.edges, g)
                    pairs += len(primes)
                    inside += len(primes) - len(outside)
    assert (pairs, inside) == (20564, 17532)
    R = RingSpec(2, 3)
    P = cut_set_prime(R, path_graph(3), [])
    g = minor(R, (1, 2), (1, 2)) + minor(R, (1, 2), (2, 3))
    assert P.contains(g) and list(_outside_by_lookup([g], [P])) == [{0}]


@pytest.mark.parametrize("p", [32003, None])
def test_minor_lookup_takes_no_record_of_a_monic_minor(monkeypatch, p):
    # a minor from _minors is monic with its lead first, so the view compares
    # it with the basis element as it is; a scaled minor, or one whose lead
    # is not its first key, is made monic first and is still found inside
    import vnum.algebra as algebra

    R, G = RingSpec(2, 5, p=p), path_graph(5)
    J, P = binomial_edge_ideal(R, G), cut_set_prime(R, G, [3])
    records, real = [], algebra._record
    monkeypatch.setattr(algebra, "_record", lambda *a: records.append(a) or real(*a))
    assert list(_outside_by_lookup(J.gens, [P])) == [set()] * 4 and records == []
    g = minor(R, (1, 2), (1, 2))
    scaled, reordered = g.scale(3), Polynomial(R, dict(reversed(g.terms.items())))
    assert reordered == g and list(reordered.terms) != list(g.terms)
    assert list(_outside_by_lookup([scaled, reordered], [P])) == [set(), set()]
    assert len(records) == 2


@pytest.mark.parametrize("p", [32003, None])
def test_nf_emits_descending_keys_and_lookup_views_match_a_fresh_build(monkeypatch, p):
    # _buchberger's records read the leading term of a new element as the
    # first key of _nf's output, so _nf must emit its keys in strictly
    # descending order: on random monic reducers and inputs, with and
    # without ``leads``, and on every normal form of oracle runs
    import vnum.algebra as algebra

    rng = random.Random(37)
    ring = RingSpec(2, 3, p=p)
    coeff = (lambda: rng.randrange(1, p)) if p else (lambda: Fraction(rng.choice([-3, 1, 5]), 7))
    for trial in range(300):
        basis = []
        for g in (random_poly(ring, rng, terms=4) for _ in range(rng.randrange(1, 6))):
            lt = g.lt()
            basis.append({lt: ring.coeff(1), **{m: coeff() for m in g.terms if m != lt}})
        red = _prepare_reducers(basis)
        f = random_poly(ring, rng, terms=8, degree=5).terms
        top = max(map(ring.mono_degree, f))
        for leads in (None, _lead_lookup(red, top), _lead_lookup(red, top, one_up=True)):
            keys = list(_nf(ring, f, red, None, leads))
            assert all(a > b for a, b in zip(keys, keys[1:])), (trial, leads is None)
    calls = []

    def ordered(ring, f, red, max_degree=None, leads=None):
        out = _nf(ring, f, red, max_degree, leads)
        keys = list(out)
        assert all(a > b for a, b in zip(keys, keys[1:]))
        calls.append(len(keys))
        return out

    monkeypatch.setattr(algebra, "_nf", ordered)
    R = RingSpec(2, 5, p=p)
    for cut in enumerate_cut_sets(path_graph(5)):
        brute_local_v(R, path_graph(5), cut.vertices)
    assert len(calls) > 100 and max(calls) > 3, (len(calls), max(calls))
    # each prime's lookup view is built once, cached on it, and gives the
    # same sets as a fresh build, at every cut set of the closed graphs
    # with n <= 5
    monkeypatch.undo()
    for n in range(1, 6):
        R = RingSpec(2, n, p=p)
        for G, _ in closed_graphs(n):
            primes = {c.vertices: cut_set_prime(R, G, c.vertices) for c in enumerate_cut_sets(G)}
            for T, target in primes.items():
                others = [P for S, P in primes.items() if S != T]
                gens = [g for g in target.gens if g.degree() in (1, 2)]
                views = [P._view for P in others]
                cached = list(_outside_by_lookup(gens, others))
                fresh = [Ideal(R, P.gens, _gb=P._gb) for P in others]
                assert cached == list(_outside_by_lookup(gens, fresh)), (G.edges, T)
                assert [P._view for P in fresh] == [P._view for P in others]
                assert all(v is None or v is P._view for v, P in zip(views, others))


def picked_generators(P: Ideal, f0: Polynomial):
    """The generators of P that f0 is a weighted sum of, read off its terms
    (each variable squared when f0 is a quadric), or None if it is none.
    Distinct variables and minors of a cut-set prime share no term."""
    left = dict(f0.terms)
    picked = []
    for g in P.gens:
        h = g * g if f0.degree() == 2 and g.degree() == 1 else g
        c = left.get(h.lt())
        if c is None:
            continue
        if any(left.get(m) != v for m, v in h.monic().scale(c).terms.items()):
            return None
        for m in h.terms:
            del left[m]
        picked.append(g)
    return None if left else picked


def test_separating_element_is_a_sparse_cover():
    # f0 is homogeneous, in P_T and outside every other prime; it is linear
    # exactly when every generator it combines is a variable, and a
    # generator of P_T that alone avoids every other prime is used alone
    cases = [(G, m) for n in range(2, 6) for G, _ in closed_graphs(n) for m in (2, 3)]
    cases += [(G, m) for n in range(2, 5) for G in connected_graphs_up_to_iso(n)
              for m in (2, 3)]
    checked = linear = alone = 0
    for G, m in cases:
        R = RingSpec(m, G.n)
        primes = {c.vertices: cut_set_prime(R, G, c.vertices) for c in enumerate_cut_sets(G)}
        for T, P in primes.items():
            others = [Q for S, Q in primes.items() if S != T]
            if not others:
                continue
            f0 = separating_element(P, others)
            where = (m, G.edges, T)
            assert len({R.mono_degree(u) for u in f0.terms}) == 1, where
            assert P.contains(f0) and not any(Q.contains(f0) for Q in others), where
            picked = picked_generators(P, f0)
            assert picked, where
            assert (f0.degree() == 1) == all(g.degree() == 1 for g in picked), where
            solo = [g for g in P.gens if not any(Q.contains(g) for Q in others)]
            if solo:
                assert picked == solo[:1], where
                alone += 1
            linear += f0.degree() == 1
            checked += 1
    assert (checked, linear, alone) == (122, 66, 108)


def test_brute_local_v_returns_the_exact_degree():
    R, P4 = RingSpec(2, 4), path_graph(4)
    d, w = brute_local_v(R, P4, [2])
    assert d == w.degree() == 2
    assert verify_witness(binomial_edge_ideal(R, P4), w, cut_set_prime(R, P4, [2]))


def test_brute_local_v_without_witness_is_an_inconsistency(monkeypatch):
    # if (J : f0) fell inside P_T no reduced-basis element could be a
    # witness; prime avoidance rules that out, so the oracle raises.  The
    # stop test divides each new t-free element h of J cap (f0) by f0 at
    # every closed degree: hand back h itself there, which lies in J <= P_T
    import vnum.algebra as algebra

    P4 = path_graph(4)
    R = RingSpec(2, 4)
    monkeypatch.setattr(algebra, "poly_divexact", lambda f, g: f)
    with pytest.raises(AssertionError, match="internal inconsistency"):
        brute_local_v(R, P4, [2])


def test_oracle_stop_test_reads_any_basis_with_the_same_leading_terms(monkeypatch):
    # the stop test must give the same answer from the same divisions on
    # any truncated basis of J cap (f0) with the leading terms of the run's.
    # A run's t-free elements are born reduced in non-decreasing degree:
    # no leading term divides another's, and on these families no
    # witness's quotient has a reducible tail.  So the stop test is fed a
    # shadow basis: each new t-free h, taken by (degree, lt), plus y * h_k
    # for the last t-free h_k before it that keeps lt(h) the leading term,
    # with y the power of x[m,n] that matches the degree (a quotient with
    # a reducible tail, to be reduced only if it is the witness); and
    # x[m,n] * h after it (a quotient outside A's reduced basis, whose
    # leading term a kept one divides, to be skipped undivided)
    import vnum.algebra as algebra

    real, divide = algebra._buchberger, algebra.poly_divexact
    divided, changed = [], set()
    monkeypatch.setattr(
        algebra, "poly_divexact", lambda f, g: divided.append(f.lt()) or divide(f, g))

    def shadowed(ring, gens, budget, known=(), stop=None, factors=None):
        if stop is None:
            return real(ring, gens, budget, known, stop, factors)
        shadow, copied, earlier = [], 0, []

        def fed(basis, lts):
            nonlocal copied
            key = lambda g: (ring.mono_degree(max(g)), max(g))
            shadow.extend(g for g in basis[copied:] if max(g) >= ring.tag)
            for g in sorted((g for g in basis[copied:] if max(g) < ring.tag), key=key):
                (deg, lt), h = key(g), g
                for k in reversed(earlier):
                    y = deg - ring.mono_degree(max(k))  # the exponent of x[m,n]
                    if max(k) + y < lt:
                        h = _sub_mul(ring, dict(g), k, -1, y)
                        changed.add(lt)
                        break
                shadow.extend((h, {u + 1: c for u, c in h.items()}))
                earlier.append(g)
            copied = len(basis)
            return stop(shadow, [max(g) for g in shadow])

        return real(ring, gens, budget, known, fed, factors)

    reached = 0
    for m, n in ((2, 5), (3, 4)):
        R = RingSpec(m, n)
        for G, _ in closed_graphs(n):
            for cut in enumerate_cut_sets(G):
                runs = []
                for route in (real, shadowed):
                    monkeypatch.setattr(algebra, "_buchberger", route)
                    divided.clear()
                    changed.clear()
                    d, w = brute_local_v(R, G, cut.vertices)
                    runs.append((d, poly_to_text(w), len(divided)))
                assert runs[0] == runs[1], (m, G.edges, cut.vertices)
                reached += bool(divided) and divided[-1] in changed  # a changed witness
    assert reached > 0, reached


def full_elimination_local_v(ring, G, T):
    """The oracle by the full elimination: A = colon_poly(J, f0), then the
    least reduced-basis element of A outside P_T, by (degree, lt)."""
    cuts = [c.vertices for c in enumerate_cut_sets(G)]
    primes = {S: cut_set_prime(ring, G, S) for S in cuts}
    others = [primes[S] for S in cuts if S != T]
    if not others:
        return 0, Polynomial.one(ring)
    A = colon_poly(binomial_edge_ideal(ring, G), separating_element(primes[T], others))
    w = min((g for g in A.groebner() if not primes[T].contains(g)),
            key=lambda g: (g.degree(), g.lt()))
    return w.degree(), w


def test_truncated_oracle_matches_the_full_elimination():
    # brute_local_v stops its elimination at the first closed degree with a
    # witness; the degree and the witness text must be the full route's on
    # the oracle workload's families: closed graphs with n <= 6 at m = 2 and
    # n <= 5 at m = 3, and connected graphs with n <= 5 at m = 2
    cases = [(2, G) for n in range(1, 7) for G, _ in closed_graphs(n)]
    cases += [(3, G) for n in range(1, 6) for G, _ in closed_graphs(n)]
    cases += [(2, G) for n in range(1, 6) for G in connected_graphs_up_to_iso(n)]
    checked = 0
    for m, G in cases:
        R = RingSpec(m, G.n)
        for cut in enumerate_cut_sets(G):
            got = brute_local_v(R, G, cut.vertices)
            want = full_elimination_local_v(R, G, cut.vertices)
            assert (got[0], poly_to_text(got[1])) == (want[0], poly_to_text(want[1])), (
                m, G.edges, cut.vertices)
            checked += 1
    assert checked == 329


def test_rational_oracle_matches_the_prime_field():
    # the engine runs over GF(32003); over Q the oracle must give the same
    # local value at every cut set of the closed graphs with n <= 6 at
    # m = 2 and n <= 5 at m = 3
    cases = [(2, G) for n in range(2, 7) for G, _ in closed_graphs(n)]
    cases += [(3, G) for n in range(2, 6) for G, _ in closed_graphs(n)]
    checked = 0
    for m, G in cases:
        cuts = [c.vertices for c in enumerate_cut_sets(G)]
        # one ring at a time: the oracle keeps one context per ring
        values = {
            p: [brute_local_v(RingSpec(m, G.n, p), G, T)[0] for T in cuts]
            for p in (None, 32003)
        }
        assert values[None] == values[32003], (m, G.edges)
        checked += len(cuts)
    assert checked == 247


def _count_calls(monkeypatch, module, names):
    """Wrap module.<name> for each name so that calls are counted."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(*args, **kw)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_oracle_builds_each_graph_once(monkeypatch, c5):
    # brute_local_v keeps one context per (ring, graph, budget), so a loop
    # over one graph's cut sets lists them and builds J once, not per call
    import vnum.algebra as algebra
    from vnum.vnumbers import _least_oracle_value, local_v_number

    calls = _count_calls(monkeypatch, algebra, ("enumerate_cut_sets", "binomial_edge_ideal"))
    value, _ = _least_oracle_value(c5, 2, enumerate_cut_sets(c5))
    assert (value, len(enumerate_cut_sets(c5))) == (3, 6)
    assert calls == {"enumerate_cut_sets": 1, "binomial_edge_ideal": 1}
    G = graph_from_intervals(6, [(1, 2), (2, 4), (3, 5), (5, 6)])
    closed = find_closed_labeling(G)
    ring = RingSpec(2, 6)
    cuts = enumerate_cut_sets(G, closed)
    for cut in cuts:
        assert brute_local_v(ring, G, cut.vertices)[0] == local_v_number(G, closed, cut, 2).value
    assert len(cuts) == 5
    assert calls == {"enumerate_cut_sets": 2, "binomial_edge_ideal": 2}


def test_tag_opening_is_built_once_per_ideal(monkeypatch):
    # the opening on t*GB(J) (records, sorted reducers, degree) is built
    # once for all of a graph's cut sets, not per tag elimination
    import vnum.algebra as algebra

    real, opened = algebra._open, []
    monkeypatch.setattr(algebra, "_open", lambda ring, known: opened.append(ring) or real(ring, known))
    G = graph_from_intervals(6, [(1, 2), (2, 4), (3, 5), (5, 6)])
    ring = RingSpec(2, 6)
    cuts = enumerate_cut_sets(G)
    J = binomial_edge_ideal(ring, G)
    for cut in cuts:
        d, w = brute_local_v(ring, G, cut.vertices)
        assert colon_poly(J, w).equals(cut_set_prime(ring, G, cut.vertices))
    # once for the oracle's J and once for this test's J, over all five cut sets
    assert len(cuts) == 5 and opened.count(ring.extended()) == 2


def test_oracle_context_follows_ring_graph_and_budget(monkeypatch):
    # one slot keyed by the ring object, the graph and the budget
    import vnum.algebra as algebra

    built = _count_calls(monkeypatch, algebra, ("binomial_edge_ideal",))
    P4, P5 = path_graph(4), path_graph(5)
    R4, R5, S5 = RingSpec(2, 4), RingSpec(2, 5), RingSpec(2, 5)
    values = [brute_local_v(R, G, T)[0] for R, G, T in
              ((R4, P4, [2]), (R5, P5, [3]), (R4, P4, [2]), (R4, P4, [3]))]
    assert values == [2, 2, 2, 2]
    assert built["binomial_edge_ideal"] == 3  # A, B, A again, then A kept
    # an equal ring object of its own gets a context of its own, and the
    # witness lives in the caller's ring; an equal graph value reuses it
    d, w = brute_local_v(S5, P5, [3])
    assert (d, built["binomial_edge_ideal"]) == (2, 4) and w.ring is S5
    assert brute_local_v(S5, path_graph(5), [2, 4])[1].ring is S5
    assert built["binomial_edge_ideal"] == 4
    # a smaller budget is its own key: J's cached basis and the default
    # budget's context do not let the 6-pair run through
    with pytest.raises(BudgetExceededError):
        brute_local_v(S5, P5, [3], GBBudget(max_pairs=6, max_degree=32))
    assert brute_local_v(S5, P5, [3], GBBudget(max_pairs=7, max_degree=32))[0] == 2
    assert brute_local_v(S5, P5, [3])[0] == 2


def test_power_sweep_at_k1_matches_the_oracle():
    # J is radical, so at k = 1 its witnesses at T are A minus P_T and the
    # degree-slice sweep is exact; it shares no tag elimination with
    # brute_local_v, and the two must agree at every cut set
    checked = 0
    for m in (2, 3):
        for n in range(2, 6):
            R = RingSpec(m, n)
            for G, closed in closed_graphs(n):
                for cut in enumerate_cut_sets(G, closed):
                    d, _ = brute_local_v(R, G, cut.vertices)
                    hit = search_power_witness(R, G, cut.vertices, 1, d)
                    assert hit is not None and hit["degree"] == d, (m, G.edges, cut.vertices)
                    checked += 1
    assert checked == 102


def test_oracle_pair_budget_pinned():
    # every pair the truncated elimination treats counts against the budget:
    # P5 at m = 2, T = {3} stops after 7 pairs (22 on the full elimination)
    R, P5 = RingSpec(2, 5), path_graph(5)
    brute_local_v(R, P5, [3], GBBudget(max_pairs=7, max_degree=32))
    with pytest.raises(BudgetExceededError):
        brute_local_v(R, P5, [3], GBBudget(max_pairs=6, max_degree=32))


def test_budget_errors_say_how_far_the_run_got():
    # each cap _buchberger enforces keeps its message and adds the pairs
    # treated, the basis size and the peak lcm degree so far: on the
    # oracle's pair pin above (fresh ring, so no cached context), and on
    # the input, lcm and normal-form degree caps of a plain run
    with pytest.raises(BudgetExceededError) as hit:
        brute_local_v(RingSpec(2, 5), path_graph(5), [3], GBBudget(max_pairs=6, max_degree=32))
    assert str(hit.value) == (
        "S-pair count exceeded budget 6 (pairs treated 6, basis size 11, peak lcm degree 4)")
    R = RingSpec(1, 3)
    x1, x2, x3 = (Polynomial.variable(R, 1, j) for j in (1, 2, 3))
    x2_5 = x2 * x2 * x2 * x2 * x2
    for gens, cap, want in (
        ([x1 * x2_5], 5, "input element of degree 6 > budget 5 (pairs treated 0, basis size 0, "
                         "peak lcm degree 0)"),
        ([x1 * x1 * x1 + x2 * x2 * x2, x1 * x2 * x2 + x3 * x3 * x3], 4,
         "S-pair lcm degree 5 > budget 4 (pairs treated 0, basis size 2, peak lcm degree 5)"),
        ([x1 - x2_5, x1 * x3 - x3], 5,
         "normal form hit degree 6 > budget 5 (pairs treated 0, basis size 1, peak lcm degree 0)"),
    ):
        with pytest.raises(BudgetExceededError) as hit:
            Ideal(R, gens).groebner(GBBudget(max_pairs=10, max_degree=cap))
        assert str(hit.value) == want


def test_oracle_outputs_pinned(c4, c5):
    # sha256 over the oracle's (degree, witness) at every (closed graph,
    # cut set) with n <= 5 at m = 2, and the reduced bases of J for C4 and
    # C5 at m = 2, 3; any change to an output moves it
    h = hashlib.sha256()
    pairs = 0
    for n in range(1, 6):
        ring = RingSpec(2, n)
        for G, closed in closed_graphs(n):
            for cut in enumerate_cut_sets(G):
                d, w = brute_local_v(ring, G, cut.vertices)
                h.update(repr((closed.cliques, cut.vertices, d, poly_to_text(w))).encode())
                pairs += 1
    for G in (c4, c5):
        for m in (2, 3):
            basis = binomial_edge_ideal(RingSpec(m, G.n), G).groebner()
            h.update(repr((G.n, m, [poly_to_text(g) for g in basis])).encode())
    assert pairs == 52
    assert h.hexdigest() == (
        "b78d8d338563e5530e919f2fb8e0d67553a707bda79677fbb9815aaed7f2bb99"
    )


def test_determinism_across_processes(tmp_path):
    # reduced bases must be byte-identical regardless of hash seed, also
    # those of powers, whose shared-factor bookkeeping uses sets (J_C4^2,
    # and J_P4^3 where the shared-factor pairs are skipped)
    import subprocess
    import sys

    script = (
        "from vnum.algebra import RingSpec, binomial_edge_ideal, ideal_power, poly_to_text\n"
        "from vnum.graphs import build_graph, path_graph\n"
        "G = build_graph(4, [(1,2),(2,3),(3,4),(1,4)])\n"
        "J = binomial_edge_ideal(RingSpec(2,4), G)\n"
        "P = binomial_edge_ideal(RingSpec(2,4), path_graph(4))\n"
        "for I in (J, ideal_power(J, 2), ideal_power(P, 3)):\n"
        "    print('\\n'.join(poly_to_text(g) for g in I.groebner()))\n"
    )
    from pathlib import Path

    src_dir = Path(__file__).resolve().parent.parent / "src"
    outs = set()
    for seed in ("0", "1", "424242"):
        env = {
            "PYTHONHASHSEED": seed,
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        r = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            cwd=str(src_dir),
        )
        assert r.returncode == 0, r.stderr
        outs.add(r.stdout)
    assert len(outs) == 1


def test_verify_witness_paths_and_primes():
    R = RingSpec(2, 4)
    P4 = path_graph(4)
    J = binomial_edge_ideal(R, P4)
    fT = minor(R, (1, 2), (1, 3))
    P = cut_set_prime(R, P4, [2])
    assert verify_witness(J, fT, P)
    assert colon_poly(J, fT).equals(P)
    bad = minor(R, (1, 2), (1, 2))
    assert not verify_witness(J, bad, P)
    assert not colon_poly(J, bad).equals(P)
    prime = cut_set_prime(R, complete_graph(4), [])
    assert verify_witness(prime, Polynomial.one(R), prime)


def test_verify_witness_needs_the_ideal_inside_the_prime():
    # {3} is a cut set of the path 1-3-2-4, whose prime P separates 1 from 2:
    # J(P4) is not inside P, so no colon of it equals P.  f is in J(P4) and
    # outside P, so the prime-avoidance test alone would accept it
    R = RingSpec(2, 4)
    H = build_graph(4, [(1, 3), (2, 3), (2, 4)])
    assert (3,) in [c.vertices for c in enumerate_cut_sets(H)]
    P = cut_set_prime(R, H, [3])
    J = binomial_edge_ideal(R, path_graph(4))
    f = minor(R, (1, 2), (1, 2))
    assert J.contains(f) and not P.contains(f)
    assert all(J.contains(f * g) for g in P.gens)
    assert not verify_witness(J, f, P)


def test_verify_witness_rejects_the_zero_polynomial():
    # (I : 0) is the whole ring, never a prime; 0 lies in every P, so it
    # would otherwise reach the monomial colon, which has no leading term
    R = RingSpec(2, 4)
    P4 = path_graph(4)
    J = binomial_edge_ideal(R, P4)
    for c in enumerate_cut_sets(P4):
        assert not verify_witness(J, Polynomial.zero(R), cut_set_prime(R, P4, c.vertices))
    prime = cut_set_prime(R, complete_graph(4), [])
    assert not verify_witness(prime, Polynomial.zero(R), prime)


def test_verify_witness_reads_the_lookups_before_normal_forms(monkeypatch):
    # I <= P is read from the lookup view of P's cached basis first; a
    # generator the view cannot show, such as a sum of two minors inside
    # P_T, and every generator against a prime whose basis is not cached
    # yet, take a normal form
    R, G = RingSpec(2, 5), path_graph(5)
    J, P = binomial_edge_ideal(R, G), cut_set_prime(R, G, [3])
    _, w = brute_local_v(R, G, [3])
    inside = minor(R, (1, 2), (1, 2)) + minor(R, (1, 2), (4, 5))
    outside = minor(R, (1, 2), (1, 4))
    real, tested = Ideal.contains, []
    monkeypatch.setattr(
        Ideal, "contains", lambda I, g, *a: (I is Q and tested.append(g)) or real(I, g, *a))
    for Q, I, want, normal_forms in (
        (P, J, True, []),
        (P, Ideal(R, [*J.gens, inside]), True, [inside]),
        (P, Ideal(R, [*J.gens, outside]), False, [outside]),
        (Ideal(R, P.gens), J, True, list(J.gens)),
    ):
        tested.clear()
        assert verify_witness(I, w, Q) == want
        assert tested[:len(normal_forms)] == normal_forms
    assert P.contains(inside) and not P.contains(outside)


def test_search_power_witness_trivial_k1():
    R = RingSpec(2, 4)
    res = search_power_witness(R, path_graph(4), [2], 1, d_max=2)
    assert res is not None and res["degree"] == 2


def test_search_power_witness_finds_degree_zero():
    # on a complete graph J itself is the prime P_{}, so (J : 1) = P_{}
    R = RingSpec(2, 3)
    res = search_power_witness(R, complete_graph(3), [], 1, d_max=2)
    assert res is not None and res["degree"] == 0 and res["witness"] == Polynomial.one(R)
    assert search_power_witness(R, complete_graph(3), [], 2, d_max=0) is None


@pytest.mark.parametrize(
    "G, T, degree, text",
    [
        (
            path_graph(5),
            [3],
            3,
            "1*x[1,2]*x[2,3]*x[3,4] + 32002*x[1,2]*x[2,4]*x[3,3] + 32002*x[1,3]*x[2,2]*x[3,4]"
            " + 1*x[1,3]*x[2,4]*x[3,2] + 1*x[1,4]*x[2,2]*x[3,3] + 32002*x[1,4]*x[2,3]*x[3,2]",
        ),
        (
            graph_from_intervals(4, [(1, 3), (2, 4)]),
            [2, 3],
            4,
            "1*x[1,1]^2*x[2,2]*x[3,4] + 32002*x[1,1]^2*x[2,4]*x[3,2]"
            " + 32002*x[1,1]*x[1,2]*x[2,1]*x[3,4] + 1*x[1,1]*x[1,2]*x[2,4]*x[3,1]"
            " + 1*x[1,1]*x[1,4]*x[2,1]*x[3,2] + 32002*x[1,1]*x[1,4]*x[2,2]*x[3,1]",
        ),
    ],
    ids=["P5-T3", "cliques-13-24-T23"],
)
def test_search_power_witness_pinned(G, T, degree, text):
    # m = 3, k = 2: the sweep reuses the previous degree's normal-form rows,
    # and must still return the witness a from-scratch sweep returns
    res = search_power_witness(RingSpec(3, G.n), G, T, 2, d_max=4)
    assert res["degree"] == degree
    assert poly_to_text(res["witness"]) == text


def minor3_text(a, b, c):
    """poly_to_text of the top 3x3 minor on the columns a < b < c."""
    terms = [((a, b, c), 1), ((a, c, b), 32002), ((b, a, c), 32002),
             ((b, c, a), 1), ((c, a, b), 1), ((c, b, a), 32002)]
    return " + ".join(
        f"{s}*x[1,{i}]*x[2,{j}]*x[3,{k}]" for (i, j, k), s in terms
    )


#: the m = 3, k = 2 power-remark probes of the powers benchmark, at every
#: singleton cut set of a closed graph with n = 3 or 4: (edges, T, degree
#: found up to the shift bound 4, witness text)
POWER_REMARK_PROBES = [
    ([(1, 2), (2, 3)], [2], 3, minor3_text(1, 2, 3)),
    ([(1, 2), (2, 3), (3, 4)], [2], 3, minor3_text(1, 2, 3)),
    ([(1, 2), (2, 3), (3, 4)], [3], 3, minor3_text(2, 3, 4)),
    ([(1, 2), (2, 3), (2, 4), (3, 4)], [2], 3, minor3_text(1, 2, 3)),
    ([(1, 2), (1, 3), (2, 3), (3, 4)], [3], 3, minor3_text(1, 3, 4)),
]


def test_power_sweep_rows_are_normal_forms(monkeypatch):
    # a row x * r that the lookups show to have no term with a divisor
    # skips _nf; every row must still be the scanning reference's normal
    # form of x * r, on the probes above (k = 2: rows at most one degree
    # above the least lead degree) and on k = 1 sweeps, whose rows reach
    # two degrees above it
    import vnum.algebra as algebra

    shifted, nf = algebra._shifted_nf, algebra._nf
    rows = collections.Counter()

    def spy(ring, r, x, red, leads):
        row = {m + x: c for m, c in r.items()}
        got = shifted(ring, r, x, red, leads)
        assert list(got.items()) == list(scan_nf(ring, row, red).items())
        rows["rows"] += 1
        rows["two above"] += max((m % 255 for m in row), default=0) > leads[0] + 1
        return got

    def nf_spy(*args):
        rows["through _nf"] += sys._getframe(1).f_code.co_name == "_shifted_nf"
        return nf(*args)

    monkeypatch.setattr(algebra, "_shifted_nf", spy)
    monkeypatch.setattr(algebra, "_nf", nf_spy)
    found = []
    for n in (3, 4):
        for G, closed in closed_graphs(n):
            for cut in enumerate_cut_sets(G, closed):
                if len(cut.vertices) == 1:
                    res = search_power_witness(RingSpec(3, n), G, cut.vertices, 2, 4)
                    found.append((sorted(G.edges), list(cut.vertices), res["degree"],
                                  poly_to_text(res["witness"])))
    assert found == POWER_REMARK_PROBES
    assert rows["two above"] == 0 and 0 < rows["through _nf"] < rows["rows"] // 2, rows
    # P5 at T = {3}: the minors of P_T are edges, so the rows stop one
    # degree above; at T = {2} the minor on {3, 5} reaches two above
    for m, T, degree in ((2, [3], 2), (3, [3], 2), (2, [2], 3), (3, [2], 3)):
        assert search_power_witness(RingSpec(m, 5), path_graph(5), T, 1, 3)["degree"] == degree
    assert rows["two above"] > 300, rows


def reference_power_sweep(ring, G, T, k, d_max):
    """search_power_witness before its row rules: a row for every monomial
    of every degree slice, built from u / x with x the largest variable
    dividing u, and every kernel vector goes to verify_witness.  The
    reference for the tests below."""
    unit = 1 << _FIELD_BITS * ring.nvars
    Jk = ideal_power(binomial_edge_ideal(ring, G), k)
    red = Jk._reducers(ELIMINATION_BUDGET)
    P = cut_set_prime(ring, G, T)
    lift = max((g.degree() for g in P.gens), default=0)
    variables = [ring.var_mono(i) for i in range(ring.nvars)]
    rows: dict = {}
    for d in range(d_max + 1):
        prev, rows, pivots = rows, {}, {}
        leads = _lead_lookup(red, d + lift, one_up=True)
        monos = {sum(c) for c in itertools.combinations_with_replacement(variables, d)}
        for u in sorted(monos, reverse=True):
            if d:
                x = 1 << (u.bit_length() - 1) // _FIELD_BITS * _FIELD_BITS
                rows[u] = [_shifted_nf(ring, r, x, red, leads) for r in prev[u - x]]
            else:
                rows[u] = [_nf(ring, g.terms, red, None, leads) for g in P.gens]
            vec = {m + (gi + 1) * unit: c for gi, nf in enumerate(rows[u]) for m, c in nf.items()}
            vec[u] = 1
            while (key := max(vec)) >= unit:
                if key not in pivots:
                    pivots[key] = _record(ring, vec, key)[0]
                    break
                _sub_mul(ring, vec, pivots[key], vec[key])
            else:
                f = Polynomial(ring, _record(ring, vec, key)[0])
                if verify_witness(Jk, f, P):
                    return d, poly_to_text(f)
    return None


def test_power_sweep_matches_the_sweep_over_every_row():
    # the row rules (one row content per row permutation, none where no
    # lead of J^k fits) and the refutation by a variable outside P_T skip
    # only rows and kernel vectors that hold no witness, or mirror one:
    # the degree and the witness text are the full sweep's, with d_max the
    # shift bound v_T + 2(k - 1)
    checked = 0
    for n in range(2, 5):
        for G, cs in closed_graphs(n):
            for cut in enumerate_cut_sets(G, cs):
                for m in (2, 3):
                    for k in (1, 2):
                        R = RingSpec(m, n)
                        d_max = local_v_number(G, cs, cut, m).value + 2 * (k - 1)
                        res = search_power_witness(R, G, cut.vertices, k, d_max)
                        got = res and (res["degree"], poly_to_text(res["witness"]))
                        want = reference_power_sweep(R, G, cut.vertices, k, d_max)
                        assert got == want, (cs.cliques, cut.vertices, m, k)
                        checked += want is not None
    assert checked == 56


def permute_rows(f, sigma):
    """f with row i of the variables moved to row sigma[i] (0-based)."""
    ring, n = f.ring, f.ring.n
    out = {}
    for u, c in f.terms.items():
        e = ring.mono_exponents(u)
        moved = [0] * ring.nvars
        for i in range(ring.m):
            moved[sigma[i] * n:sigma[i] * n + n] = e[i * n:i * n + n]
        out[mono_from_exponents(moved)] = c
    return Polynomial(ring, out)


def test_power_remark_witnesses_hold_under_every_row_permutation():
    # J and P_T are generated over all row pairs, so a row permutation
    # maps the witnesses at T onto themselves: the sweep keeps one row
    # content per permutation class.  The probes' witnesses are 3-minors,
    # fixed up to sign; the k = 2 witness on cliques {1,2,3},{2,3,4} at
    # T = {2,3} is x[1,1] times a 3-minor, with six images
    cases = [(build_graph(max(map(max, edges)), edges), T) for edges, T, _, _ in POWER_REMARK_PROBES]
    cases.append((graph_from_intervals(4, [(1, 3), (2, 4)]), [2, 3]))
    images = []
    for G, T in cases:
        R = RingSpec(3, G.n)
        w = search_power_witness(R, G, T, 2, 4)["witness"]
        Jk, P = ideal_power(binomial_edge_ideal(R, G), 2), cut_set_prime(R, G, T)
        moved = [permute_rows(w, sigma) for sigma in itertools.permutations(range(3))]
        assert all(verify_witness(Jk, f, P) for f in moved), (G.edges, T)
        images.append(len({poly_to_text(f) for f in moved}))
    assert images == [2] * 5 + [6]


def test_search_power_witness_rejects_rational_ring():
    with pytest.raises(GraphInputError):
        search_power_witness(RingSpec(2, 4, p=None), path_graph(4), [2], 1, d_max=2)


def test_witness_polynomial_leading_term():
    # the leading term of a block-times-isolated witness is the product of
    # the block diagonals and the isolated variables
    R = RingSpec(3, 7)
    f = witness_polynomial(R, [(1, 3, 5)], [6])
    diag = (
        R.var_mono(R.var_index(1, 1))
        + R.var_mono(R.var_index(2, 3))
        + R.var_mono(R.var_index(3, 5))
        + R.var_mono(R.var_index(1, 6))
    )
    assert f.lt() == diag
    assert f.degree() == 4
    single = witness_polynomial(R, [(2, 4)], [])
    assert poly_to_text(single) == "1*x[1,2]*x[2,4] + 32002*x[1,4]*x[2,2]"


def test_generalized_minor_alternating():
    R = RingSpec(3, 3)
    det = generalized_minor(R, [1, 2, 3], [1, 2, 3])
    assert len(det) == 6 and det.degree() == 3
    with pytest.raises(GraphInputError):
        generalized_minor(R, [1, 2], [1, 2, 3])


# -- rational mode --------------------------------------------------------------

def test_inverse_table_holds_true_inverses():
    # RingSpec.inv keeps c^(p-2) per ring, shared with its extended ring
    R = RingSpec(1, 2, 101)
    assert all(R.inv(c) * c % 101 == 1 for c in range(1, 101))
    assert all(R.extended().inv(c) * c % 101 == 1 for c in range(1, 101))
    S = RingSpec(2, 2)
    sample = random.Random(32003).sample(range(1, 32003), 500)
    assert all(S.inv(c) * c % 32003 == 1 for c in sample + sample)
    assert S.extended()._inv is S._inv and len(S._inv) == 500
    assert RingSpec(1, 1, None).inv(Fraction(3, 4)) == Fraction(4, 3)


def test_rational_field_mode():
    R = RingSpec(2, 3, p=None)
    P3 = path_graph(3)
    J = binomial_edge_ideal(R, P3)
    primes = [cut_set_prime(R, P3, c.vertices) for c in enumerate_cut_sets(P3)]
    assert intersect_many(primes).equals(J)
    assert brute_local_v(R, P3, [])[0] == 1
    assert brute_local_v(R, P3, [2])[0] == 2
    gb = J.groebner()
    assert all(g.terms[g.lt()] == Fraction(1) for g in gb)


# -- serialization ---------------------------------------------------------------

GOLDEN_GB_P3 = [
    "1*x[1,1]*x[2,2] + 32002*x[1,2]*x[2,1]",
    "1*x[1,2]*x[2,3] + 32002*x[1,3]*x[2,2]",
]


def ideal_record(I: Ideal) -> dict:
    """The ring, the generators and the cached reduced basis of I, as text."""
    R = I.ring
    rec = {
        "ring": {
            "rows": R.m,
            "cols": R.n,
            "field": "QQ" if R.p is None else f"GF({R.p})",
            "order": "lex, row-major, x[1,1] greatest",
        },
        "generators": [poly_to_text(g) for g in I.gens],
    }
    if I.is_known_groebner():
        rec["reduced_gb"] = [poly_to_text(g) for g in I.groebner()]
    return rec


def test_golden_basis_text():
    R = RingSpec(2, 3)
    J = binomial_edge_ideal(R, path_graph(3))
    assert [poly_to_text(g) for g in J.groebner()] == GOLDEN_GB_P3
    rec = ideal_record(J)
    assert rec["reduced_gb"] == GOLDEN_GB_P3
    assert rec["ring"]["field"] == "GF(32003)"


def poly_from_text(ring, text):
    """Inverse of poly_to_text."""
    text = text.strip()
    if text == "0":
        return Polynomial.zero(ring)
    items = []
    for chunk in text.split(" + "):
        factors = chunk.split("*")
        if "[" in factors[0]:
            coeff = 1
            vars_part = factors
        else:
            coeff = Fraction(factors[0]) if "/" in factors[0] else int(factors[0])
            vars_part = factors[1:]
        mono = 0
        for fac in vars_part:
            name, _, exp = fac.partition("^")
            e = int(exp) if exp else 1
            inner = name[name.index("[") + 1 : name.index("]")]
            i, j = (int(x) for x in inner.split(","))
            mono += e * ring.var_mono(ring.var_index(i, j))
        items.append((mono, coeff))
    return Polynomial.from_terms(ring, items)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_poly_text_round_trip(data):
    p = data.draw(st.sampled_from([32003, None]))
    ring = RingSpec(2, 3, p)
    terms = {}
    for _ in range(data.draw(st.integers(0, 5))):
        mono = sum(
            ring.var_mono(data.draw(st.integers(0, ring.nvars - 1)))
            for _ in range(data.draw(st.integers(0, 4)))
        )
        if p is None:
            c = Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9)))
        else:
            c = data.draw(st.integers(-9, 9))
        terms[mono] = terms.get(mono, 0) + c
    f = Polynomial.from_terms(ring, terms.items())
    assert poly_from_text(ring, poly_to_text(f)) == f


def test_determinism_repeated_runs(c4):
    R = RingSpec(2, 4)
    first = [poly_to_text(g) for g in Ideal(R, binomial_edge_ideal(R, c4).gens).groebner()]
    second = [poly_to_text(g) for g in Ideal(R, binomial_edge_ideal(R, c4).gens).groebner()]
    assert first == second
