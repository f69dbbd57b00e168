import itertools
import random
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from vnum.errors import GraphInputError, InstanceTooLargeError, NotACutSetError
from vnum.enumeration import closed_graphs, closed_interval_profiles, connected_graphs_up_to_iso
from vnum.graphs import (
    DEFAULT_SUBSET_BUDGET,
    SimpleGraph,
    build_graph,
    check_closed_labeling,
    complete_graph,
    completion_graph,
    cut_set_from_vertices,
    enumerate_cut_sets,
    find_closed_labeling,
    format_graph,
    graph_from_intervals,
    is_cone,
    is_cut_set,
    is_reduced_connected_dominating_set,
    parse_graph,
    path_graph,
    reduced_connected_domination_number,
    spine_chain,
)
from conftest import SPINE_27, T_42


# -- construction ----------------------------------------------------------

def test_build_graph_dedupes_and_validates():
    G = build_graph(3, [(1, 2), (2, 1), (2, 3)])
    assert G.edges == frozenset({(1, 2), (2, 3)})
    with pytest.raises(GraphInputError):
        build_graph(3, [(1, 1)])
    with pytest.raises(GraphInputError):
        build_graph(3, [(0, 2)])
    with pytest.raises(GraphInputError):
        build_graph(3, [(1, 4)])


def test_example_27_graph(g27):
    cs = find_closed_labeling(g27)
    assert cs is not None and cs.is_identity()
    assert cs.t == 14
    assert list(cs.spine) == SPINE_27
    assert cs.is_cm


# -- closedness ------------------------------------------------------------

def lex_first_closed_labeling(G):
    """Reference oracle: the first permutation, in lexicographic order,
    under which G passes the identity check, or None."""
    for perm in itertools.permutations(range(1, G.n + 1)):
        if check_closed_labeling(G.relabel(perm)):
            return perm
    return None


def brute_force_closed(G):
    return lex_first_closed_labeling(G) is not None


def test_check_closed_labeling_examples(c4, g42):
    assert check_closed_labeling(path_graph(4))
    assert not any(
        check_closed_labeling(c4.relabel(p))
        for p in itertools.permutations(range(1, 5))
    )
    assert check_closed_labeling(g42)


def test_find_closed_labeling_examples(c4):
    k4 = find_closed_labeling(complete_graph(4))
    assert k4.t == 1 and k4.cliques == ((1, 4),)
    assert find_closed_labeling(c4) is None
    assert brute_force_closed(c4) is False


def test_find_closed_matches_brute_force_small():
    for n in range(2, 6):
        for G in connected_graphs_up_to_iso(n):
            assert (find_closed_labeling(G) is not None) == brute_force_closed(G)


def test_find_closed_labeling_is_lexicographically_first():
    # seeded relabelings of every closed profile with n <= 6, and a sample
    # at n = 7
    rng = random.Random(17)
    pool = [graph_from_intervals(n, p) for n in range(1, 7) for p in closed_interval_profiles(n)]
    sevens = [graph_from_intervals(7, p) for p in closed_interval_profiles(7)]
    pool += rng.sample(sevens, 12)
    for G in pool:
        order = list(G.vertices())
        rng.shuffle(order)
        H = G.relabel(order)
        assert find_closed_labeling(H).order == lex_first_closed_labeling(H), (G.edges, order)


def test_heuristic_recognizes_shuffled_large_closed(g42):
    rng = random.Random(11)
    perm = list(range(1, 43))
    rng.shuffle(perm)
    H = g42.relabel(tuple(perm))
    cs = find_closed_labeling(H)
    assert cs is not None
    assert check_closed_labeling(cs.graph)
    assert cs.t == 16


def maximal_cliques(G: SimpleGraph) -> list[frozenset]:
    """Generic Bron-Kerbosch maximal-clique enumeration (pivotless; small n)."""
    out = []

    def extend(r: set, p: set, x: set):
        if not p and not x:
            out.append(frozenset(r))
            return
        for v in sorted(p):
            extend(r | {v}, p & G.neighbors(v), x & G.neighbors(v))
            p = p - {v}
            x = x | {v}

    extend(set(), set(G.vertices()), set())
    return sorted(out, key=lambda c: (min(c), -len(c)))


def test_cliques_match_generic_enumerator():
    for n in range(2, 7):
        for G, cs in closed_graphs(n):
            generic = {frozenset(range(a, b + 1)) for a, b in cs.cliques}
            assert generic == set(maximal_cliques(G))


def test_disconnected_rejected():
    G = build_graph(4, [(1, 2), (3, 4)])
    with pytest.raises(GraphInputError):
        find_closed_labeling(G)


# -- cut sets ----------------------------------------------------------------

def test_is_cut_set_path4():
    P4 = path_graph(4)
    assert is_cut_set(P4, [])
    assert is_cut_set(P4, [2])
    assert not is_cut_set(P4, [2, 3])


def reference_is_cut_set(G, T) -> bool:
    """The definition: each v in T is a cut vertex of G minus (T - {v})."""
    T = frozenset(T)
    if not T:
        return True
    if not T <= set(G.vertices()):
        return False
    base = G.component_count(T)
    return all(G.component_count(T - {v}) < base for v in T)


def test_is_cut_set_matches_definition():
    graphs = [G for n in range(1, 6) for G in connected_graphs_up_to_iso(n)]
    # every connected graph on 6 vertices is one on 5 plus a vertex joined
    # to a nonempty set (delete a leaf of a spanning tree), so this covers
    # all of them up to isomorphism
    for G in connected_graphs_up_to_iso(5):
        for size in range(1, 6):
            for S in itertools.combinations(range(1, 6), size):
                graphs.append(build_graph(6, sorted(G.edges) + [(v, 6) for v in S]))
    pairs = 0
    for G in graphs:
        for size in range(G.n + 1):
            for T in itertools.combinations(G.vertices(), size):
                assert is_cut_set(G, T) == reference_is_cut_set(G, T), (G.edges, T)
                pairs += 1
    assert pairs == 2 + 4 + 2 * 8 + 6 * 16 + 21 * 32 + 21 * 31 * 64
    assert not is_cut_set(path_graph(3), [2, 4])


def test_enumerate_cut_sets_examples(g42):
    P4 = path_graph(4)
    assert [c.vertices for c in enumerate_cut_sets(P4)] == [(), (2,), (3,)]
    assert [c.vertices for c in enumerate_cut_sets(complete_graph(5))] == [()]
    cs42 = find_closed_labeling(g42)
    all_T = {c.vertices for c in enumerate_cut_sets(g42, cs42)}
    assert tuple(sorted(T_42)) in all_T


def test_cut_set_blocks_on_42(g42):
    cs42 = find_closed_labeling(g42)
    cut = cut_set_from_vertices(g42, T_42, cs42)
    assert cut.blocks == (
        (3, 4), (9, 10), (12, 13), (15, 16), (29, 30), (33, 34),
    )
    assert cut.component_count == 7
    with pytest.raises(NotACutSetError):
        cut_set_from_vertices(g42, [3], cs42)


def test_block_enumeration_equals_generic():
    for n in range(2, 8):
        for G, cs in closed_graphs(n):
            via_blocks = enumerate_cut_sets(G, cs)
            generic = {c.vertices for c in enumerate_cut_sets(G)}
            assert {c.vertices for c in via_blocks} == generic
            for c in via_blocks:
                assert c.component_count == G.component_count(frozenset(c.vertices))


def test_closed_cut_set_check_matches_generic():
    # the block check alone decides, counts and splits every vertex subset
    # of every closed graph as the BFS-based generic path does
    pairs = cuts = 0
    for n in range(1, 8):
        for G, cs in closed_graphs(n):
            for size in range(n + 1):
                for T in itertools.combinations(range(1, n + 1), size):
                    pairs += 1
                    if not is_cut_set(G, T):
                        with pytest.raises(NotACutSetError):
                            cut_set_from_vertices(G, T, cs)
                        continue
                    cuts += 1
                    cut = cut_set_from_vertices(G, T, cs)
                    assert cut.component_count == G.component_count(frozenset(T))
                    runs = []  # maximal runs of consecutive vertices
                    for v in T:
                        if runs and v == runs[-1][-1] + 1:
                            runs[-1].append(v)
                        else:
                            runs.append([v])
                    assert [list(b) for b in cut.blocks] == runs
    assert (pairs, cuts) == (20134, 787)


def test_closed_structure_of_another_graph_rejected():
    P4, P5 = path_graph(4), path_graph(5)
    cs4 = find_closed_labeling(P4)
    with pytest.raises(GraphInputError):
        cut_set_from_vertices(P5, [2], cs4)
    with pytest.raises(GraphInputError):
        enumerate_cut_sets(P5, cs4)


def test_generic_enumeration_budget():
    with pytest.raises(InstanceTooLargeError):
        enumerate_cut_sets(path_graph(20), max_generic_n=16)


# -- completions and domination ---------------------------------------------

def completion_graph_set(G: SimpleGraph, vs: Iterable[int]) -> SimpleGraph:
    """Iterated completion; the result does not depend on the order of vs."""
    H = G
    for v in vs:
        H = completion_graph(H, v)
    return H


def is_cluster(G: SimpleGraph) -> bool:
    """Is G a disjoint union of complete graphs?"""
    for comp in G.components():
        k = len(comp)
        if sum(1 for (u, v) in G.edges if u in comp) != k * (k - 1) // 2:
            return False
    return True


def min_completion_number(
    G: SimpleGraph, max_n: int = DEFAULT_SUBSET_BUDGET
) -> int:
    """Smallest |W| with the iterated completion along W a union of cliques."""
    if G.n > max_n:
        raise InstanceTooLargeError(
            f"minimum-completion search needs n <= {max_n}, got {G.n}"
        )
    verts = list(G.vertices())
    for size in range(G.n + 1):
        for sub in itertools.combinations(verts, size):
            if is_cluster(completion_graph_set(G, sub)):
                return size
    raise AssertionError("unreachable: the full vertex set always completes")


def test_completion_examples():
    assert completion_graph(path_graph(3), 2) == complete_graph(3)
    assert completion_graph(complete_graph(4), 2) == complete_graph(4)
    P5 = path_graph(5)
    assert completion_graph(P5, 3).edges == P5.edges | {(2, 4)}
    assert completion_graph_set(path_graph(4), [2, 3]) == complete_graph(4)
    assert completion_graph_set(P5, []) == P5
    assert completion_graph_set(P5, [2, 3, 4]) == complete_graph(5)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.data())
def test_completion_order_invariant(n, data):
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1]),
            max_size=n * 2,
        )
    )
    G = build_graph(n, edges)
    vs = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=4))
    results = {completion_graph_set(G, order) for order in itertools.permutations(vs)}
    assert len(results) == 1


def exhaustive_rcds(G):
    for size in range(G.n + 1):
        for sub in itertools.combinations(list(G.vertices()), size):
            if is_reduced_connected_dominating_set(G, sub):
                return size
    raise AssertionError


def test_domination_examples(c5):
    Gd = graph_from_intervals(12, [(1, 5), (3, 6), (4, 8), (5, 10), (7, 12)])
    cs = find_closed_labeling(Gd)
    assert spine_chain(cs) == [1, 5, 10, 12]
    assert reduced_connected_domination_number(Gd, cs) == 2
    assert reduced_connected_domination_number(complete_graph(5)) == 0
    # interior vertices of a path are forced
    for n in range(2, 8):
        Pn = path_graph(n)
        assert exhaustive_rcds(Pn) == max(n - 2, 0)
        assert reduced_connected_domination_number(Pn) == max(n - 2, 0)
        assert (
            reduced_connected_domination_number(Pn, find_closed_labeling(Pn))
            == max(n - 2, 0)
        )
    # two adjacent vertices of a 5-cycle route every outside pair but do not
    # dominate; the genuine value is 3
    assert reduced_connected_domination_number(c5) == 3


def test_domination_check_rejects_outside_vertices():
    P4 = path_graph(4)
    for D in ([0, 2], [2, 5], [7]):
        with pytest.raises(GraphInputError):
            is_reduced_connected_dominating_set(P4, D)
    assert is_reduced_connected_dominating_set(P4, [2, 3])
    assert not is_reduced_connected_dominating_set(P4, [1, 3])


def test_greedy_chain_matches_exhaustive_on_closed():
    for n in range(2, 7):
        for G, cs in closed_graphs(n):
            assert reduced_connected_domination_number(G, cs) == exhaustive_rcds(G)


def test_min_completion_examples():
    assert min_completion_number(complete_graph(6)) == 0
    assert min_completion_number(path_graph(4)) == 2
    assert min_completion_number(path_graph(3)) == 1


def test_min_completion_equals_domination_small():
    for n in range(2, 6):
        for G in connected_graphs_up_to_iso(n):
            assert min_completion_number(G) == reduced_connected_domination_number(G)


def test_is_cone():
    assert is_cone(path_graph(3)) == (2, False)
    assert is_cone(complete_graph(4)) == (1, True)
    assert is_cone(path_graph(4)) is None


# -- enumeration ------------------------------------------------------------

def reference_connected_graphs_up_to_iso(n):
    """The canonical form as the minimum over all n! relabelings."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    perms = list(itertools.permutations(range(1, n + 1)))
    seen = set()
    for bits in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        G = SimpleGraph(n, edges)
        if not G.is_connected():
            continue
        canon = min(
            tuple(
                sorted(
                    (min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1])) for u, v in edges
                )
            )
            for p in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        yield G


def test_connected_graph_counts_match_a001349():
    counts = [sum(1 for _ in connected_graphs_up_to_iso(n)) for n in range(1, 7)]
    assert counts == [1, 1, 2, 6, 21, 112]


def test_connected_graphs_match_all_permutations_reference():
    for n in range(1, 6):
        got = [G.edge_list() for G in connected_graphs_up_to_iso(n)]
        assert got == [G.edge_list() for G in reference_connected_graphs_up_to_iso(n)], n


# -- file format --------------------------------------------------------------

def test_parse_line_format_and_warnings():
    G, warnings = parse_graph("# comment\nn 4\ne 1 2\ne 2 1\ne 3 4\n")
    assert G.edges == frozenset({(1, 2), (3, 4)})
    assert warnings and "duplicate" in warnings[0]
    with pytest.raises(GraphInputError):
        parse_graph("n 3\ne 1 1\n")
    with pytest.raises(GraphInputError):
        parse_graph("e 1 2\n")
    with pytest.raises(GraphInputError):
        parse_graph("n 3\nedge 1 2\n")


def test_parse_json_format():
    G, warnings = parse_graph('{"n": 3, "edges": [[1,2],[2,3]]}')
    assert G == path_graph(3)
    assert not warnings
    with pytest.raises(GraphInputError):
        parse_graph('{"n": 3}')


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.data())
def test_graph_text_round_trip(n, data):
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1]),
            max_size=12,
        )
    )
    G = build_graph(n, edges)
    back, warnings = parse_graph(format_graph(G))
    assert back == G and not warnings
