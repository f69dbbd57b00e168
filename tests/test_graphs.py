import hashlib
import itertools
import json
import random
import tracemalloc
from typing import Iterable

import pytest
from hypothesis import given, settings, strategies as st

from vnum import graphs
from vnum.errors import GraphInputError, InstanceTooLargeError, NotACutSetError
from vnum.enumeration import closed_graphs, closed_interval_profiles, connected_graphs_up_to_iso
from vnum.graphs import (
    DEFAULT_SUBSET_BUDGET,
    SimpleGraph,
    _runs,
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



def check_against_edge_list(G: SimpleGraph, n: int, pairs: list) -> None:
    """G, however it was built, is SimpleGraph(n, pairs), and its edge views
    are those of the frozenset of (min, max) pairs that a graph once stored."""
    want = frozenset((min(u, v), max(u, v)) for u, v in pairs)
    ref = SimpleGraph(n, pairs)
    assert G == ref and hash(G) == hash(ref), (G, sorted(want))
    assert G.edges == want and G.edge_list() == sorted(want)
    assert G.edge_count() == len(want)
    assert G.is_complete() == (len(want) == n * (n - 1) // 2)
    assert repr(G) == f"SimpleGraph(n={n}, edges={sorted(want)})"


def test_mask_built_graphs_match_the_edge_list_constructor():
    # every labeled graph with n <= 5, then seeded random ones up to n = 40:
    # each graph vnum derives from masks equals the one the validating
    # constructor builds from the derived edge list
    rng = random.Random(38)
    samples = list(labeled_edge_lists(5))
    samples += [(n, [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < q])
                for n in range(6, 41) for q in (0.1, 0.3, 0.8)]
    for n, es in samples:
        G = SimpleGraph(n, es)
        check_against_edge_list(G, n, es)
        check_against_edge_list(SimpleGraph(n, es[::-1] + [(v, u) for u, v in es]), n, es)
        assert G != SimpleGraph(n + 1, es) and (not es or G != SimpleGraph(n, es[1:]))
        intervals = es[:2 * n] + [(v, v) for v in range(1, n + 1, 2)]  # cliques [u, v]
        check_against_edge_list(
            graph_from_intervals(n, intervals), n,
            [p for a, b in intervals for p in itertools.combinations(range(a, b + 1), 2)])
        for v in G.vertices() if n <= 5 else rng.sample(range(1, n + 1), 2):
            check_against_edge_list(
                completion_graph(G, v), n, es + list(itertools.combinations(G.neighbors(v), 2)))
        keep = [v for v in G.vertices() if rng.random() < 0.6]
        H, back = G.induced(keep[::-1])
        fwd = {v: i for i, v in back.items()}
        assert back == {i: v for i, v in enumerate(keep, 1)}
        check_against_edge_list(H, len(keep),
                                [(fwd[u], fwd[v]) for u, v in es if u in fwd and v in fwd])
        k, other = samples[rng.randrange(len(samples))]
        check_against_edge_list(G.disjoint_union(SimpleGraph(k, other)), n + k,
                                es + [(u + n, v + n) for u, v in other])
        orders = (itertools.permutations(G.vertices()) if n <= 4
                  else [rng.sample(range(1, n + 1), n)])
        for order in orders:
            pos = {v: i for i, v in enumerate(order, 1)}
            check_against_edge_list(G.relabel(order), n, [(pos[u], pos[v]) for u, v in es])
    for n in range(41):
        check_against_edge_list(path_graph(n), n, [(i, i + 1) for i in range(1, n)])
        check_against_edge_list(complete_graph(n), n,
                                list(itertools.combinations(range(1, n + 1), 2)))


def test_graph_input_errors_keep_their_texts():
    P3 = path_graph(3)
    cases = [
        (lambda: SimpleGraph(-1, [(2, 2)]), "vertex count must be non-negative, got -1"),
        (lambda: SimpleGraph(3, [(1, 4)]), "edge (1,4) has an endpoint outside 1..3"),
        (lambda: build_graph(3, [(0, 2)]), "edge (0,2) has an endpoint outside 1..3"),
        (lambda: SimpleGraph(3, [(4, 4)]), "edge (4,4) has an endpoint outside 1..3"),
        (lambda: SimpleGraph(3, [(1, 2), (2, 2), (1, 4)]), "loop edge at vertex 2 rejected"),
        (lambda: path_graph(-1), "vertex count must be non-negative, got -1"),
        (lambda: complete_graph(-2), "vertex count must be non-negative, got -2"),
        (lambda: graph_from_intervals(-1, []), "vertex count must be non-negative, got -1"),
        (lambda: graph_from_intervals(-1, [(1, 1)]), "interval [1,1] outside 1..-1"),
        (lambda: graph_from_intervals(3, [(1, 2), (3, 2)]), "interval [3,2] outside 1..3"),
        (lambda: P3.relabel([1, 1, 2]), "labeling must be a permutation of 1..n"),
        (lambda: completion_graph(P3, 4), "vertex 4 outside 1..3"),
    ]
    for make, text in cases:
        with pytest.raises(GraphInputError) as exc:
            make()
        assert str(exc.value) == text

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


def reference_lbfs(G, start, tiebreak):
    """Lexicographic BFS over label lists, the reference for graphs._lbfs.

    Each pick is a vertex of greatest label, the earliest in ``tiebreak``
    among equals, and appends a falling rank to the labels of its unvisited
    neighbours.  It visits every vertex, the component of ``start`` first.
    """
    pos = {v: i for i, v in enumerate(tiebreak)}
    labels = {v: [] for v in G.vertices()}
    labels[start] = [G.n + 1]
    visited = []
    remaining = set(G.vertices())
    while remaining:
        v = max(remaining, key=lambda u: (labels[u], -pos[u]))
        visited.append(v)
        remaining.remove(v)
        rank = G.n - len(visited)
        for w in G.neighbors(v):
            if w in remaining:
                labels[w].append(rank)
    return visited


def neighbour_lists(G):
    return [sorted(G.neighbors(v)) for v in range(G.n + 1)]


def random_closed_profile(rng, n, cm=False):
    """The seeded maximal cliques [a, b] of a connected closed graph on
    1..n; with ``cm`` consecutive cliques share exactly one vertex."""
    profile = [(1, min(n, rng.randint(2, 5)))]
    while profile[-1][1] < n:
        a, b = profile[-1]
        start = b if cm else rng.randint(a + 1, b)
        profile.append((start, rng.randint(b + 1, min(n, b + 4))))
    return profile


def shuffled(rng, G):
    order = list(G.vertices())
    rng.shuffle(order)
    return G.relabel(order)


def test_lbfs_matches_the_label_list_reference(g42):
    # every labeled graph with n <= 5, from every start, with the other
    # vertices in identity and in shuffled order: the refinement visits the
    # component of the start, in the order in which the label lists visit it
    rng = random.Random(37)
    cases = 0
    for G in labeled_graphs(5):
        nbrs, comps = neighbour_lists(G), G.components()
        for start in G.vertices():
            comp = next(c for c in comps if start in c)
            others = [v for v in G.vertices() if v != start]
            tiebreaks = [[start] + others, [start] + rng.sample(others, len(others))]
            for tiebreak in tiebreaks:
                got = graphs._lbfs(nbrs, tiebreak)
                assert set(got) == comp, (G, tiebreak)
                assert got == reference_lbfs(G, start, tiebreak)[: len(comp)], (G, tiebreak)
                cases += 1
    assert cases == 2 * (1 * 1 + 2 * 2 + 8 * 3 + 64 * 4 + 1024 * 5)
    # recognition's three sweeps on seeded shuffles of closed graphs up to
    # n = 60, and of the 42-vertex example
    pool = [graph_from_intervals(n, random_closed_profile(rng, n)) for n in range(2, 61)]
    for G in [shuffled(rng, H) for H in pool + [g42]]:
        nbrs, tiebreak = neighbour_lists(G), list(G.vertices())
        for _ in range(3):
            got = graphs._lbfs(nbrs, tiebreak)
            assert got == reference_lbfs(G, tiebreak[0], tiebreak), G
            tiebreak = got[::-1]


def test_recognition_of_a_shuffled_2000_vertex_cm_graph():
    from vnum.vnumbers import cm_v_formula, v_number

    profile = random_closed_profile(random.Random(2000), 2000, cm=True)
    H = shuffled(random.Random(1), graph_from_intervals(2000, profile))
    cs = find_closed_labeling(H)
    assert check_closed_labeling(cs.graph) and cs.is_cm
    assert cs.t == len(profile)
    assert v_number(H, 3).value == cm_v_formula(3, len(profile))



def test_a_2000_vertex_closed_graph_is_built_in_little_memory():
    # sliding 40-cliques, 77,220 edges: the masks are all a graph keeps, and
    # no edge list is built on the way (12.7 MB kept, 148 MB peak with one)
    assert "edges" not in SimpleGraph.__slots__
    tracemalloc.start()
    try:
        G = graph_from_intervals(2000, [(i, i + 39) for i in range(1, 1962)])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2 * 2**20 and peak < 8 * 2**20, (kept, peak)
    assert G.edge_count() == 77220
    assert find_closed_labeling(G).t == 1961

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


def labeled_edge_lists(n_max: int):
    """(n, edge list) of every labeled graph on 1..n for n <= n_max."""
    for n in range(n_max + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for size in range(len(pairs) + 1):
            for es in itertools.combinations(pairs, size):
                yield n, list(es)


def labeled_graphs(n_max: int):
    """Every labeled graph on 1..n for n <= n_max."""
    for n, es in labeled_edge_lists(n_max):
        yield build_graph(n, es)


def reference_check_closed(G) -> bool:
    """The definition: for i < j < k, an edge {i,k} forces {i,j} and {j,k}."""
    return all(
        G.has_edge(i, j) and G.has_edge(j, k)
        for i, j, k in itertools.combinations(G.vertices(), 3)
        if G.has_edge(i, k)
    )


def test_closed_check_and_connectivity_match_definitions():
    count = 0
    for G in labeled_graphs(6):
        assert check_closed_labeling(G) == reference_check_closed(G), G
        assert G.is_connected() == (len(G.components()) <= 1), G
        count += 1
    assert count == sum(2 ** (n * (n - 1) // 2) for n in range(7)) == 33_868


def test_disconnected_rejected():
    # identity-closed ones too: their reach shows the gap
    named = [build_graph(4, [(1, 2), (3, 4)]), build_graph(4, [(1, 2), (2, 3)])]
    assert all(check_closed_labeling(G) for G in named)
    disconnected = named + [G for G in labeled_graphs(5) if G.n and not G.is_connected()]
    assert len(disconnected) == 2 + 1 + 4 + 26 + 296
    for G in disconnected:
        with pytest.raises(GraphInputError, match="needs a connected graph"):
            find_closed_labeling(G)
    with pytest.raises(GraphInputError, match="empty graph has no closed structure"):
        find_closed_labeling(build_graph(0, []))
    assert build_graph(0, []).is_connected() and build_graph(1, []).is_connected()


# -- cut sets ----------------------------------------------------------------

def test_is_cut_set_path4():
    P4 = path_graph(4)
    assert is_cut_set(P4, [])
    assert is_cut_set(P4, [2])
    assert not is_cut_set(P4, [2, 3])


def reference_components(G, removed) -> list[frozenset]:
    """Components of G minus ``removed`` by a set-based BFS, sorted by min."""
    seen, comps = set(removed), []
    for s in G.vertices():
        if s in seen:
            continue
        comp, todo = {s}, [s]
        seen.add(s)
        while todo:
            for w in G.neighbors(todo.pop()):
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    todo.append(w)
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def reference_is_cut_set(G, T) -> bool:
    """The definition: each v in T is a cut vertex of G minus (T - {v})."""
    T = frozenset(T)
    if not T:
        return True
    if not T <= set(G.vertices()):
        return False
    base = len(reference_components(G, T))
    return all(len(reference_components(G, T - {v})) < base for v in T)


def cut_set_test_graphs() -> list:
    """Every connected graph with n <= 6 up to isomorphism, with repeats."""
    graphs = [G for n in range(1, 6) for G in connected_graphs_up_to_iso(n)]
    # every connected graph on 6 vertices is one on 5 plus a vertex joined
    # to a nonempty set (delete a leaf of a spanning tree), so this covers
    # all of them up to isomorphism
    for G in connected_graphs_up_to_iso(5):
        for size in range(1, 6):
            for S in itertools.combinations(range(1, 6), size):
                graphs.append(build_graph(6, sorted(G.edges) + [(v, 6) for v in S]))
    return graphs


def test_is_cut_set_matches_definition():
    pairs = 0
    for G in cut_set_test_graphs():
        for size in range(G.n + 1):
            for T in itertools.combinations(G.vertices(), size):
                assert is_cut_set(G, T) == reference_is_cut_set(G, T), (G.edges, T)
                pairs += 1
    assert pairs == 2 + 4 + 2 * 8 + 6 * 16 + 21 * 32 + 21 * 31 * 64
    assert not is_cut_set(path_graph(3), [2, 4])
    # labels outside 1..n, 0 and negative ones included, are no cut set
    for T in ([0], [2, 0], [-1], [2, -1], [-3, 4]):
        assert not is_cut_set(path_graph(3), T)


def test_mask_components_and_cut_sets_match_set_references():
    # the mask floods give the set-based BFS components for every removed
    # set of every labeled graph with n <= 5 (labels outside 1..n are
    # ignored), and the generic enumeration filters every subset by the
    # definition
    count = 0
    for G in labeled_graphs(5):
        for size in range(G.n + 1):
            for removed in map(frozenset, itertools.combinations(G.vertices(), size)):
                assert G.components(removed) == reference_components(G, removed), (G, removed)
                count += 1
        assert G.components(frozenset({0, -1, G.n + 1})) == G.components()
        # the accessors read off the masks agree with the edge set in both
        # argument orders, and a label outside 1..n has no neighbours and
        # no edges
        for u in range(-1, G.n + 2):
            near = {v for e in G.edges if u in e for v in e if v != u}
            assert G.neighbors(u) == near and G.degree(u) == len(near), (G, u)
            for v in range(-1, G.n + 2):
                want = (min(u, v), max(u, v)) in G.edges
                assert G.has_edge(u, v) == want, (G, u, v)
    assert count == sum(2 ** (n * (n - 1) // 2) * 2 ** n for n in range(6))
    for G in cut_set_test_graphs():
        subsets = (T for size in range(G.n + 1) for T in itertools.combinations(G.vertices(), size))
        want = [T for T in subsets if reference_is_cut_set(G, T)]
        assert [c.vertices for c in enumerate_cut_sets(G)] == want, G.edges


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
    assert _runs(cut.vertices) == [
        [3, 4], [9, 10], [12, 13], [15, 16], [29, 30], [33, 34],
    ]
    with pytest.raises(NotACutSetError):
        cut_set_from_vertices(g42, [3], cs42)


def test_block_enumeration_equals_generic():
    for n in range(2, 8):
        for G, cs in closed_graphs(n):
            via_blocks = enumerate_cut_sets(G, cs)
            generic = {c.vertices for c in enumerate_cut_sets(G)}
            assert {c.vertices for c in via_blocks} == generic


def test_closed_cut_set_check_matches_generic():
    # the run check alone decides every vertex subset of every closed graph
    # as the BFS-based generic path does
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
                    assert cut_set_from_vertices(G, T, cs) == cut_set_from_vertices(G, T)
    assert (pairs, cuts) == (20134, 787)


def test_closed_structure_of_another_graph_rejected():
    P4, P5 = path_graph(4), path_graph(5)
    cs4 = find_closed_labeling(P4)
    with pytest.raises(GraphInputError):
        cut_set_from_vertices(P5, [2], cs4)
    with pytest.raises(GraphInputError):
        enumerate_cut_sets(P5, cs4)
    with pytest.raises(GraphInputError):
        reduced_connected_domination_number(P5, cs4)


def full_subset_cut_sets(G, is_cut_mask=graphs._is_cut_mask) -> list[tuple[int, ...]]:
    """Every vertex subset filtered through the cut-set mask test, in (size,
    lex) order: the generic enumeration before it skipped simplicial
    vertices, the reference for the test below."""
    subsets = (T for size in range(G.n + 1) for T in itertools.combinations(G.vertices(), size))
    return [T for T in subsets if is_cut_mask(G, sum(1 << v for v in T))]


def test_generic_enumeration_skips_simplicial_vertices(monkeypatch):
    # the same cut sets in the same order as the full-subset filter, with
    # the mask test run once per subset of the non-simplicial vertices
    tests = 0

    def counted(G, cut):
        nonlocal tests
        tests += 1
        return full_mask_test(G, cut)

    full_mask_test = graphs._is_cut_mask
    monkeypatch.setattr(graphs, "_is_cut_mask", counted)
    cases = [G for n in range(1, 7) for G in connected_graphs_up_to_iso(n)]
    cases += [path_graph(3).disjoint_union(complete_graph(3)),  # disconnected
              build_graph(6, [(1, 2), (2, 3), (2, 4), (3, 4)])]  # 5 and 6 isolated
    for G in cases:
        simplicial = [u for u in G.vertices()
                      if all(G.has_edge(v, w) for v, w in itertools.combinations(G.neighbors(u), 2))]
        tests = 0
        assert [c.vertices for c in enumerate_cut_sets(G)] == full_subset_cut_sets(G), G.edges
        assert tests == 2 ** (G.n - len(simplicial)), G.edges
    assert len(cases) == 1 + 1 + 2 + 6 + 21 + 112 + 2


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


def reference_is_rcds(G, D) -> bool:
    """The set-based test: G minus the vertices outside D is connected (by
    the set BFS above) and every vertex outside D has a neighbour in D."""
    D, V = frozenset(D), frozenset(G.vertices())
    if not D:
        return G.is_complete()
    if len(reference_components(G, V - D)) != 1:
        return False
    return all(v in D or G.neighbors(v) & D for v in G.vertices())


def test_rcds_matches_the_set_reference():
    for G in cut_set_test_graphs():
        for size in range(G.n + 1):
            for D in itertools.combinations(G.vertices(), size):
                assert is_reduced_connected_dominating_set(G, D) == reference_is_rcds(G, D), (
                    G.edges, D)


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


def test_connected_graphs_on_six_vertices_are_pinned():
    # the all-permutations reference is too slow at n = 6, so the 112
    # representatives and their order are pinned by a hash of the edge lists
    got = [G.edge_list() for G in connected_graphs_up_to_iso(6)]
    digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
    assert digest == "f2b5d4379d9ebbba3974c90155ec7acd81220a02008e1036836b5764b07a2094"


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
