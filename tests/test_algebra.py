import hashlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from vnum.errors import BudgetExceededError, GraphInputError
from vnum.enumeration import closed_graphs, connected_graphs_up_to_iso
from vnum.graphs import complete_graph, enumerate_cut_sets, path_graph
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
    poly_to_text,
    search_power_witness,
    separating_element,
    verify_witness,
    witness_polynomial,
    _MAX_EXPONENT,
    _buchberger,
    _minimal_monomials,
    _reduce_basis,
)


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
        a, b = ring.mono_from_exponents(ea), ring.mono_from_exponents(eb)
        divides, lcm, gcd = naive_ops(ea, eb)
        assert ring.mono_divides(a, b) == divides
        assert ring.mono_exponents(ring.mono_lcm(a, b)) == lcm
        assert ring.mono_exponents(ring.mono_gcd(a, b)) == gcd
        assert ring.mono_degree(a) == sum(ea)
        # lex comparison is integer comparison
        assert (a > b) == (ea > eb)


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


def test_reduce_basis_of_redundant_groebner_basis(c4):
    R = RingSpec(2, 4)
    gb = binomial_edge_ideal(R, c4).groebner()
    x = Polynomial.variable(R, 2, 3)
    redundant = [g.scale(3) for g in gb]
    redundant += [gb[i] + gb[i + 1].scale(5) for i in range(len(gb) - 1)]
    redundant += [x * g for g in gb]
    got = _reduce_basis(R, [g.terms for g in reversed(redundant)])
    assert [Polynomial(R, g) for g in got] == list(gb)


def test_budget_rejects_degree_above_exponent_cap():
    # packed 8-bit exponent fields would overflow silently
    assert GBBudget(max_degree=_MAX_EXPONENT).max_degree == _MAX_EXPONENT
    with pytest.raises(GraphInputError):
        GBBudget(max_degree=_MAX_EXPONENT + 1)


def test_budget_rejects_empty_pair_allowance():
    with pytest.raises(GraphInputError):
        GBBudget(max_pairs=0)


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
    assert J.normal_form(Polynomial.zero(R)).is_zero()
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


def test_colon_pair_budget_pinned():
    # the elimination behind one colon of J^2 opens with t*GB(J^2) and forms
    # no pair inside it; 26 pairs suffice (29 from the raw generators)
    R = RingSpec(2, 4)
    J2 = ideal_power(binomial_edge_ideal(R, path_graph(4)), 2)
    J2.groebner()
    f = minor(R, (1, 2), (2, 4))
    colon_poly(J2, f, GBBudget(max_pairs=26, max_degree=32))
    with pytest.raises(BudgetExceededError):
        colon_poly(J2, f, GBBudget(max_pairs=25, max_degree=32))


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


def test_brute_local_v_returns_the_exact_degree():
    R, P4 = RingSpec(2, 4), path_graph(4)
    d, w = brute_local_v(R, P4, [2])
    assert d == w.degree() == 2
    assert verify_witness(binomial_edge_ideal(R, P4), w, cut_set_prime(R, P4, [2]))


def test_brute_local_v_without_witness_is_an_inconsistency(monkeypatch):
    # if (J : f0) fell inside P_T no reduced-basis element could be a
    # witness; prime avoidance rules that out, so the oracle raises
    import vnum.algebra as algebra

    P4 = path_graph(4)
    R = RingSpec(2, 4)
    monkeypatch.setattr(algebra, "colon_poly", lambda J, f, budget: cut_set_prime(R, P4, [2]))
    with pytest.raises(AssertionError, match="internal inconsistency"):
        brute_local_v(R, P4, [2])


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
    # reduced bases must be byte-identical regardless of hash seed
    import subprocess
    import sys

    script = (
        "from vnum.algebra import RingSpec, binomial_edge_ideal, poly_to_text\n"
        "from vnum.graphs import build_graph\n"
        "G = build_graph(4, [(1,2),(2,3),(3,4),(1,4)])\n"
        "J = binomial_edge_ideal(RingSpec(2,4), G)\n"
        "print('\\n'.join(poly_to_text(g) for g in J.groebner()))\n"
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

def test_rational_field_mode():
    R = RingSpec(2, 3, p=None)
    P3 = path_graph(3)
    J = binomial_edge_ideal(R, P3)
    primes = [cut_set_prime(R, P3, c.vertices) for c in enumerate_cut_sets(P3)]
    assert intersect_many(primes).equals(J)
    assert brute_local_v(R, P3, [])[0] == 1
    assert brute_local_v(R, P3, [2])[0] == 2
    gb = J.groebner()
    assert all(g.lc() == Fraction(1) for g in gb)


# -- serialization ---------------------------------------------------------------

GOLDEN_GB_P3 = [
    "1*x[1,1]*x[2,2] + 32002*x[1,2]*x[2,1]",
    "1*x[1,2]*x[2,3] + 32002*x[1,3]*x[2,2]",
]


def test_golden_basis_text():
    R = RingSpec(2, 3)
    J = binomial_edge_ideal(R, path_graph(3))
    assert [poly_to_text(g) for g in J.groebner()] == GOLDEN_GB_P3
    rec = J.to_record(include_gb=True)
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
