import itertools
import random

from vnum.algebra import (
    RingSpec,
    binomial_edge_ideal,
    colon_poly,
    cut_set_prime,
    verify_witness,
    witness_polynomial,
)
from vnum.graphs import (
    build_graph,
    check_closed_labeling,
    cut_set_from_vertices,
    find_closed_labeling,
    graph_from_intervals,
    path_graph,
)
from vnum.verify import run_suites, suite_quadratic_gb, suite_powers
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
    res = run_suites(c4, m=2, scope="witness")
    assert all(r.status == "skip" for r in res)
    res = suite_quadratic_gb(c4, None, 2)
    assert res[0].status == "skip"
    # closed but with a two-vertex overlap: the power suite does not apply
    G = graph_from_intervals(5, [(1, 3), (2, 5)])
    res = suite_powers(G, find_closed_labeling(G), 2)
    assert res[0].status == "skip"


def test_all_suites_pass_on_p5(capsys):
    res = run_suites(path_graph(5), m=2, scope="all", k=2)
    assert all(r.status in ("pass", "skip") for r in res)
    assert sum(r.status == "pass" for r in res) >= 15


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
