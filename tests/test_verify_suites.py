import collections
import itertools
import json
import random

import pytest

import vnum.algebra
from vnum.algebra import (
    Ideal,
    Polynomial,
    RingSpec,
    binomial_edge_ideal,
    colon_poly,
    cut_set_prime,
    ideal_power,
    minor,
    poly_to_text,
    verify_witness,
    witness_polynomial,
    _colon_route,
)
from vnum.enumeration import closed_graphs, cm_closed_graphs, connected_graphs_up_to_iso
from vnum.graphs import (
    SimpleGraph,
    build_graph,
    check_closed_labeling,
    complete_graph,
    cut_set_from_vertices,
    enumerate_cut_sets,
    find_closed_labeling,
    graph_from_intervals,
    path_graph,
)
from vnum.errors import GraphInputError
from vnum.verify import (
    POWER_BUDGET,
    SCOPES,
    run_suites,
    suite_decomposition,
    suite_power_remark,
    suite_powers,
    suite_witness,
)
from vnum.vnumbers import local_v_number


def test_witness_m3_on_subpath_of_27():
    # leading stretch of the 27-vertex example, small enough for the engine
    G = graph_from_intervals(9, [(1, 3), (3, 6), (6, 7), (7, 9)])
    cs = find_closed_labeling(G)
    cut = cut_set_from_vertices(G, [3, 6], cs)
    res = local_v_number(G, cs, cut, 3)
    ring = RingSpec(3, 9)
    J = binomial_edge_ideal(ring, G)
    P = cut_set_prime(ring, G, cut.vertices)
    f = witness_polynomial(ring, res.witness.minor_blocks, res.witness.isolated_vars)
    assert f.degree() == res.value
    assert verify_witness(J, f, P)
    assert colon_poly(J, f).equals(P)


def test_suites_skip_where_hypotheses_fail(c4):
    # a graph that is not closed gets one skip per closed scope
    for scope in ("witness", "quadratic-gb"):
        res = run_suites(c4, m=2, scope=scope)
        assert [(r.name, r.status) for r in res] == [(scope, "skip")]
    # closed but with a two-vertex overlap: the power suite does not apply
    G = graph_from_intervals(5, [(1, 3), (2, 5)])
    res = suite_powers(G, find_closed_labeling(G), 2)
    assert res[0].status == "skip"


def test_run_suites_recognises_once_and_skips_a_disconnected_graph(monkeypatch):
    # find_closed_labeling alone decides connectivity: a closed input
    # (shuffled, so the sweeps run) is never flooded, and on P3 + K3 each
    # closed scope skips
    calls = collections.Counter()
    real_connected, real_find = SimpleGraph.is_connected, find_closed_labeling

    def connected(self):
        calls["flood"] += 1
        return real_connected(self)

    def find(G):
        calls["recognition"] += 1
        return real_find(G)

    monkeypatch.setattr(SimpleGraph, "is_connected", connected)
    monkeypatch.setattr("vnum.verify.find_closed_labeling", find)
    res = run_suites(path_graph(5).relabel((3, 1, 4, 2, 5)), m=2, scope="quadratic-gb")
    assert [r.status for r in res] == ["pass"] and calls == {"recognition": 1}
    G = path_graph(3).disjoint_union(complete_graph(3))
    for scope in ("quadratic-gb", "witness", "brute-vs-formula", "powers", "power-remark"):
        assert [(r.name, r.status, r.detail) for r in run_suites(G, m=2, scope=scope)] == [
            (scope, "skip", "not a connected closed graph")]


def test_witness_suite_fails_where_j_leaves_the_prime(monkeypatch):
    # an end-to-end negative control for verify_witness's I <= P check:
    # J on P5 gets the minor on columns 1, 5 as its last generator.  It
    # lies outside P_T exactly when T separates 1 from 5, so every nonempty
    # cut set's record fails; at T = {} it lies in P_{} = J_{K_5}, the
    # colon is still P_{}, and that record passes
    G = path_graph(5)
    monkeypatch.setattr("vnum.verify.binomial_edge_ideal", lambda ring, G: Ideal(
        ring, [*binomial_edge_ideal(ring, G).gens, minor(ring, (1, 2), (1, 5))]))
    for m in (2, 3):
        res = suite_witness(G, find_closed_labeling(G), m)
        assert [(r.name, r.status) for r in res] == [
            (f"witness[m={m},T={T}]", "fail" if T else "pass")
            for T in ([], [2], [3], [4], [2, 4])
        ]


def test_peel_chain_matches_direct_route():
    # (J^k : g^(k-1) w) = (J : w) once the peels (J^j : g) = J^(j-1) are
    # proved, here all by the monomial colon; the direct colon by the
    # shifted witness is the reference.
    # Each w is tried at every cut-set prime, so both verdicts occur.
    verdicts = set()
    for n in range(2, 6):
        for G, cs in cm_closed_graphs(n):
            ring = RingSpec(2, n)
            J = binomial_edge_ideal(ring, G)
            g = minor(ring, (1, 2), (1, 2))
            powers = {1: J, 2: ideal_power(J, 2), 3: ideal_power(J, 3)}
            cuts = enumerate_cut_sets(G, cs)
            ws = []
            for cut in cuts:
                spec = local_v_number(G, cs, cut, 2).witness
                ws.append(witness_polynomial(ring, spec.minor_blocks, spec.isolated_vars))
            for k in (2, 3):
                assert all(
                    _colon_route(powers[j], g, powers[j - 1], POWER_BUDGET)
                    == "monomial colon"
                    for j in range(2, k + 1)
                ), (cs.cliques, k)
                gk = Polynomial.one(ring)
                for _ in range(k - 1):
                    gk = gk * g
                for cut in cuts:
                    P = cut_set_prime(ring, G, cut.vertices)
                    for w in ws:
                        chain = verify_witness(J, w, P)
                        direct = verify_witness(powers[k], gk * w, P, POWER_BUDGET)
                        assert chain == direct, (cs.cliques, k, cut.vertices)
                        verdicts.add(chain)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "edges, peel_holds",
    [
        ([(1, 2), (1, 4), (2, 3)], True),
        ([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], False),
    ],
)
def test_peel_helper_certifies_only_what_the_monomial_colon_pins(edges, peel_holds):
    # g lies in J, so the inclusion always holds; in both graphs the
    # monomial certificate is inconclusive, so tag elimination decides
    ring = RingSpec(2, 4)
    J = binomial_edge_ideal(ring, build_graph(4, edges))
    J2 = ideal_power(J, 2)
    g = minor(ring, (1, 2), (1, 2))
    assert all(J2.contains(g * h) for h in J.gens)
    route = _colon_route(J2, g, J, POWER_BUDGET)
    assert route == ("tag elimination" if peel_holds else None)
    assert colon_poly(J2, g).equals(J) == peel_holds
    # the monomial colon lies inside ini of the unit ideal, so only the
    # inclusion g*(1) <= J^2, false as g has degree 2, refuses it
    assert not J2.contains(g)
    assert _colon_route(J2, g, Ideal(ring, [Polynomial.one(ring)]), POWER_BUDGET) is None


def reference_colon_route(I, f, Q, budget):
    """_colon_route with every product reduced and every generator of the
    monomial colon, minimal or not, scanned against every lead of Q."""
    if not all(I.contains(f * g, budget) for g in Q.gens):
        return None
    ring, ini_Q = I.ring, [g.lt() for g in Q.groebner(budget)]
    colon = [m - ring.mono_gcd(m, f.lt()) for m in (g.lt() for g in I.groebner(budget))]
    if all(any(ring.mono_divides(a, q) for a in ini_Q) for q in colon):
        return "monomial colon"
    return "tag elimination" if colon_poly(I, f, budget).equals(Q, budget) else None


def test_power_peel_inclusion_takes_no_normal_form(monkeypatch):
    # every product g*h of the peel (J^k : g) = J^(k-1) on K4 is a generator
    # of J^k, so the inclusion reduces none of them; the reference reduces
    # each one
    ring = RingSpec(2, 4)
    g = minor(ring, (1, 2), (1, 2))
    powers = {3: ideal_power(binomial_edge_ideal(ring, complete_graph(4)), 3)}
    powers[2] = powers[3].lower_power
    powers[1] = powers[2].lower_power
    real, reduced = Ideal.contains, []
    monkeypatch.setattr(Ideal, "contains", lambda I, h, *a: reduced.append(h) or real(I, h, *a))
    for k in (2, 3):
        I, Q = powers[k], powers[k - 1]
        reduced.clear()
        route = _colon_route(I, g, Q, POWER_BUDGET)
        assert reduced == [], k
        assert route == reference_colon_route(I, g, Q, POWER_BUDGET) == "monomial colon"
        assert len(reduced) == len(Q.gens)


def test_colon_route_matches_the_reference_that_scans_every_divisor(monkeypatch):
    # once f*Q <= I holds, ini(Q) lies in (ini I : ini f), so a minimal
    # generator of that colon inside ini(Q) is a lead of Q's basis: the set
    # lookup decides what the divisor scan does.  Every (I, f, Q) of the
    # colon suites on the connected graphs with n <= 4 at m = 2, 3, each also
    # against Q = I, and of the power suite on the CM closed graphs with n <= 4
    import vnum.verify

    calls, real = [], vnum.verify._colon_route
    monkeypatch.setattr(vnum.verify, "_colon_route", lambda *a: calls.append(a) or real(*a))
    for n in range(2, 5):
        for G in connected_graphs_up_to_iso(n):
            for m in (2, 3):
                run_suites(G, m=m, scope="colon")
        for G, cs in cm_closed_graphs(n):
            suite_powers(G, cs, 3)
    calls += [(I, f, I, budget) for I, f, _, budget in calls]
    routes = collections.Counter()
    for I, f, Q, budget in calls:
        route = _colon_route(I, f, Q, budget)
        assert route == reference_colon_route(I, f, Q, budget), (I, f, Q)
        routes[route] += 1
    assert len(routes) == 3 and min(routes.values()) > 50, routes


def test_prime_avoidance_reduces_only_products_outside_the_generators(monkeypatch):
    # for w outside P_T, verify_witness(J, w, P_T) decides w*P_T <= J by prime
    # avoidance; a generator of P_T that is one of J too gives a product in
    # J, so only the others are reduced, in order, up to the first outside
    # J.  Each cut set's witness, 1 and each x[1,v] are tried at every
    # cut-set prime of the closed graphs with n <= 5, and every verdict
    # matches the same check with the generator rule off, which reduces
    # every product
    real, reduced = Ideal.contains, []
    monkeypatch.setattr(
        Ideal, "contains", lambda I, h, *a: (I is J and reduced.append(h)) or real(I, h, *a))
    verdicts, shared, outside, failed_early = collections.Counter(), 0, 0, 0
    for n in range(2, 6):
        for G, cs in closed_graphs(n):
            ring = RingSpec(2, n)
            J = binomial_edge_ideal(ring, G)
            cuts = enumerate_cut_sets(G, cs)
            ws = []
            for cut in cuts:
                spec = local_v_number(G, cs, cut, 2).witness
                ws.append(witness_polynomial(ring, spec.minor_blocks, spec.isolated_vars))
            ws += [Polynomial.one(ring)] + [Polynomial.variable(ring, 1, v) for v in G.vertices()]
            for cut in cuts:
                P = cut_set_prime(ring, G, cut.vertices)
                for w in ws:
                    reduced.clear()
                    got, tested = verify_witness(J, w, P), list(reduced)
                    with monkeypatch.context() as mp:
                        mp.setattr(vnum.algebra, "_is_gen", lambda I, h: False)
                        assert got == verify_witness(J, w, P), (G.edges, cut.vertices)
                    verdicts[got] += 1
                    if real(P, w):
                        continue
                    want = [w * h for h in P.gens if h not in J.gens]
                    assert tested == want[:len(tested)]
                    assert len(tested) == len(want) if got else not real(J, tested[-1])
                    failed_early += len(tested) < len(want)
                    shared += len(P.gens) - len(want)
                    outside += 1
    assert verdicts[True] > 50 and verdicts[False] > 200
    assert outside > 200 and failed_early > 100 and shared > 500


def test_power_suite_runs_no_tag_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tag elimination in suite_powers")

    monkeypatch.setattr(vnum.algebra, "intersect", refuse)
    for n in range(2, 6):
        for G, cs in cm_closed_graphs(n):
            for r in suite_powers(G, cs, 3):
                assert r.status == "pass", (cs.cliques, r.name, r.detail)


def test_power_suite_checks_each_base_witness_once(monkeypatch):
    # with the peel chain proved, every k's shifted witness reduces to
    # (J : w) = P_T, which does not depend on k: one verify_witness(J, w, P_T)
    # per cut set and suite call; with the peels forced to fail, each k
    # checks (J^k : g^(k-1) w) = P_T directly at every cut set
    import vnum.verify

    calls = []

    def power(I):  # k for I = J^k
        return 1 if I.lower_power is None else 1 + power(I.lower_power)

    def spy(I, f, P, budget=vnum.algebra.ELIMINATION_BUDGET):
        calls.append((power(I), tuple(sorted(poly_to_text(g) for g in P.gens))))
        return verify_witness(I, f, P, budget)

    monkeypatch.setattr(vnum.verify, "verify_witness", spy)
    graphs_checked = 0
    for n in (3, 4, 5):
        for G, cs in cm_closed_graphs(n):
            cuts = enumerate_cut_sets(G, cs)
            calls.clear()
            assert all(r.status == "pass" for r in suite_powers(G, cs, 3))
            assert [c[0] for c in calls] == [1] * len(cuts), (cs.cliques, calls)
            assert len({c[1] for c in calls}) == len(cuts)
            graphs_checked += 1
    assert graphs_checked == 14

    monkeypatch.setattr(vnum.verify, "_colon_route", lambda *args: None)
    G = path_graph(4)
    cs = find_closed_labeling(G)
    cuts = enumerate_cut_sets(G, cs)
    calls.clear()
    res = {r.name: r.status for r in suite_powers(G, cs, 3)}
    assert res["power-colon[k=2]"] == res["power-colon[k=3]"] == "fail"
    assert res["power-witness[k=2]"] == res["power-witness[k=3]"] == "pass"
    assert [c[0] for c in calls] == [2] * len(cuts) + [3] * len(cuts)
    assert len({c[1] for c in calls}) == len(cuts)


def test_decomposition_sweep_pair_count(monkeypatch):
    # criterion 6's sweep, every connected graph with n <= 5 at m = 2 and 3,
    # forms 20,005 S-pairs (21,458 before intersect's warm start and the
    # quiet pairs); pinned exactly, so a run that forms S-polynomials
    # without _spoly, which would count 0, fails
    spoly, formed = vnum.algebra._spoly, 0

    def counting(*args):
        nonlocal formed
        formed += 1
        return spoly(*args)

    monkeypatch.setattr(vnum.algebra, "_spoly", counting)
    for n in range(2, 6):
        for G in connected_graphs_up_to_iso(n):
            for m in (2, 3):
                assert [r.status for r in suite_decomposition(G, m)] == ["pass"]
    assert formed == 20_005, formed


def test_all_suites_pass_on_p5(capsys):
    res = run_suites(path_graph(5), m=2, scope="all", k=2)
    assert all(r.status in ("pass", "skip") for r in res)
    assert sum(r.status == "pass" for r in res) >= 15


def test_power_remark_cases_on_p5():
    # P5 at T = {3}: base 2, so the shift bound at k = 2 is 4; the sweep
    # beats it at m = 3 and meets it at m = 2, and k = 1 is the base itself
    cs5 = find_closed_labeling(path_graph(5))
    for m, k, tail in [
        (3, 2, "upper 4, found degree 3 via degree-slice: shift formula fails"),
        (2, 2, "upper 4, found degree 4 via degree-slice: shift attained"),
        (2, 1, "upper 2, found degree 2 via degree-slice: shift attained"),
    ]:
        (r,) = suite_power_remark(cs5.graph, cs5, m, (3,), k)
        assert (r.name, r.status) == (f"power-remark[m={m},k={k},T=[3]]", "pass")
        assert r.detail == "base 2 (proved), " + tail


_REMARK, _POWER = ("all", "power-remark"), ("all", "powers", "power-remark")


@pytest.mark.parametrize("param, value, flag, scopes", [
    ("k", 2, "--k", _POWER),
    ("cutset", (2,), "--cutset", _REMARK),
    ("d_max", 1, "--dmax", _REMARK),
    ("budget_pairs", 1, "--budget-pairs", _POWER),
])
def test_run_suites_rejects_parameters_its_scope_does_not_read(
    monkeypatch, param, value, flag, scopes
):
    # the rejection comes before any check runs
    monkeypatch.setattr("vnum.verify._run", None)
    others = [s for s in ("all",) + SCOPES if s not in scopes]
    for scope in others:
        with pytest.raises(GraphInputError) as exc:
            run_suites(path_graph(4), m=2, scope=scope, **{param: value})
        assert str(exc.value) == f"{flag} needs scope {' or '.join(scopes)}, not {scope}"


def test_closed_suites_run_on_any_labeling():
    # the closed scopes run on the closed copy, so a shuffled input runs
    # every check its identity-labeled twin runs, with cut sets shown in
    # the input labels
    G = graph_from_intervals(7, [(1, 3), (3, 5), (5, 7)])
    order = [4, 1, 6, 3, 7, 2, 5]
    H = G.relabel(order)
    assert not find_closed_labeling(H).is_identity()
    counts = []
    for X in (G, H):
        res = run_suites(X, m=2, scope="all", k=2)
        counts.append(collections.Counter(r.status for r in res))
        for r in res:
            if r.name.startswith(("witness", "brute-vs-formula")):
                T = json.loads(r.name[r.name.index("T=") + 2 : -1])
                assert T == list(cut_set_from_vertices(X, T).vertices), r.name
    assert counts[0] == counts[1] and "skip" not in counts[1]
    assert sum(counts[1].values()) == 33


def test_m3_overlap_locals_match_oracle():
    from vnum.algebra import RingSpec, brute_local_v
    from vnum.enumeration import cm_closed_graphs
    from vnum.graphs import enumerate_cut_sets

    for n in range(2, 6):
        ring = RingSpec(3, n)
        for G, cs in cm_closed_graphs(n):
            for cut in enumerate_cut_sets(G, cs):
                expect = local_v_number(G, cs, cut, 3).value
                got = brute_local_v(ring, G, cut.vertices)[0]
                assert got == expect, (cs.cliques, cut.vertices)


def brute_force_closed(G):
    for perm in itertools.permutations(range(1, G.n + 1)):
        if check_closed_labeling(G.relabel(perm)):
            return True
    return False


def test_rational_mode_suites_n4():
    # paranoia run: the same identities over exact rationals
    from vnum.enumeration import connected_graphs_up_to_iso
    from vnum.verify import suite_colon_variable, suite_decomposition

    for n in range(2, 5):
        for G in connected_graphs_up_to_iso(n):
            for r in suite_decomposition(G, 2, modulus=None):
                assert r.status == "pass", r.name
            for r in suite_colon_variable(G, 2, modulus=None):
                assert r.status == "pass", r.name


def test_lbfs_recognizes_shuffled_closed_profiles():
    rng = random.Random(99)
    from vnum.graphs import graph_from_intervals

    for _ in range(25):
        n = rng.randint(9, 24)
        profile = [(1, rng.randint(2, min(n, 5)))]
        while profile[-1][1] < n:
            a, b = profile[-1]
            profile.append((rng.randint(a + 1, b), rng.randint(b + 1, min(n, b + 4))))
        G = graph_from_intervals(n, profile)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        cs = find_closed_labeling(G.relabel(tuple(perm)))
        assert cs is not None and check_closed_labeling(cs.graph)


def test_m3_conjectured_values_match_oracle_small():
    # on closed graphs without the one-vertex-overlap property the m=3
    # local value is only a certified upper bound; the exact oracle must
    # never exceed it, and on every instance small enough to check it has
    # agreed exactly
    from vnum.algebra import RingSpec, brute_local_v
    from vnum.enumeration import closed_graphs
    from vnum.graphs import enumerate_cut_sets

    for n in range(2, 6):
        ring = RingSpec(3, n)
        for G, cs in closed_graphs(n):
            for cut in enumerate_cut_sets(G, cs):
                res = local_v_number(G, cs, cut, 3)
                got = brute_local_v(ring, G, cut.vertices)[0]
                assert got <= res.value, "oracle above a certified upper bound"
                assert got == res.value, (cs.cliques, cut.vertices, res.status)


def test_m4_local_matches_oracle_once():
    from vnum.algebra import RingSpec, brute_local_v

    P5 = path_graph(5)
    cs5 = find_closed_labeling(P5)
    got = brute_local_v(RingSpec(4, 5), P5, [3])[0]
    assert got == local_v_number(P5, cs5, [3], 4).value == 2


def test_recognition_matches_brute_force_sampled_n6_n7():
    rng = random.Random(23)
    for n in (6, 7):
        for _ in range(12):
            edges = set()
            # bias toward sparse connected-ish graphs where closedness is
            # actually in play
            for _ in range(rng.randint(n - 1, 2 * n)):
                u, v = rng.sample(range(1, n + 1), 2)
                edges.add((min(u, v), max(u, v)))
            G = build_graph(n, edges)
            if not G.is_connected():
                continue
            assert (find_closed_labeling(G) is not None) == brute_force_closed(G)
