import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from vnum.algebra import (
    Polynomial,
    RingSpec,
    binomial_edge_ideal,
    cut_set_prime,
    generalized_minor,
    ideal_power,
    minor,
    search_power_witness,
    verify_witness,
    witness_polynomial,
)
from vnum.errors import GraphInputError, UnsupportedRegimeError
from vnum.enumeration import closed_graphs, cm_closed_graphs, connected_graphs_up_to_iso
from vnum.graphs import (
    CutSet,
    SimpleGraph,
    _lbfs,
    _runs,
    build_graph,
    complete_graph,
    cut_set_from_vertices,
    enumerate_cut_sets,
    find_closed_labeling,
    graph_from_intervals,
    path_graph,
)
from vnum.vnumbers import (
    AnchorGraph,
    CONJECTURED,
    PROVED,
    _assemble_anchor,
    _is_spine_cut_set,
    _least_cut_set,
    _to_original_result,
    build_anchor_graph,
    classify_small_v,
    cm_v_formula,
    local_v_number,
    local_v_number_of_power,
    minimal_slice_partition,
    optimal_cut_set,
    v_number,
    v_number_of_power,
)
from conftest import T_42


# -- anchor graphs -------------------------------------------------------------

def test_anchor_graph_42(g42):
    cs = find_closed_labeling(g42)
    cut = cut_set_from_vertices(g42, T_42, cs)
    L = build_anchor_graph(cs, cut)
    assert L.path_components == ((1, 6, 11, 14, 19), (27, 31, 37))
    assert set(L.isolated) == {21, 24, 40}
    assert L.edges == [(1, 6), (6, 11), (11, 14), (14, 19), (27, 31), (31, 37)]


def test_anchor_graph_27(g27):
    cs = find_closed_labeling(g27)
    cut = cut_set_from_vertices(g27, [3, 6, 9, 18, 21], cs)
    L = build_anchor_graph(cs, cut)
    assert sorted(L.vertices()) == [1, 4, 7, 12, 13, 15, 19, 22, 24, 26]
    assert L.edges == [(1, 4), (4, 7), (7, 12), (15, 19), (19, 22)]
    assert set(L.isolated) == {13, 24, 26}


def test_anchor_graph_p4_hand():
    P4 = path_graph(4)
    cs = find_closed_labeling(P4)
    L = build_anchor_graph(cs, cut_set_from_vertices(P4, [2], cs))
    assert L.path_components == ((1, 3),)
    assert L.isolated == ()


def spine_anchor_graph(closed, T):
    """Reference: the anchor graph of a closed graph whose consecutive
    cliques overlap in one vertex, read off the spine b_0, ..., b_t.  The
    anchors are spine vertices (or the successor of a block vertex where
    two blocks are adjacent on the spine), and the isolated vertices are
    the spine vertices outside T and outside every anchor stretch."""
    b = closed.spine
    t = closed.t
    n = closed.graph.n
    pos = {v: i for i, v in enumerate(b)}
    js = [pos[run[0]] for run in _runs(T.vertices)]
    in_T = set(T.vertices)
    v0 = set(b) - in_T
    if b[1] not in in_T:
        v0.discard(b[0])
    if b[t - 1] not in in_T:
        v0.discard(b[t])
    alphas = [b[js[0] - 1]]
    betas = []
    for ji, jn in zip(js, js[1:]):
        if ji + 1 < jn:
            betas.append(b[ji + 1])
            alphas.append(b[jn - 1])
        else:
            betas.append(b[ji] + 1)
            alphas.append(b[ji] + 1)
    betas.append(b[js[-1] + 1])
    anchor_cover = set()
    for lo, hi in zip(alphas, betas):
        anchor_cover.update(range(lo, hi + 1))
    isolated = sorted(v0 - anchor_cover)
    gaps = [
        tuple(v for v in isolated if lo < v < hi)
        for lo, hi in zip([0] + betas, alphas + [n + 1])
    ]
    return _assemble_anchor(alphas, betas, gaps)


def test_anchor_constructions_agree_on_overlap():
    # on one-vertex-overlap closed graphs the interval construction must
    # reproduce the spine reference at every nonempty cut set
    for n in range(3, 11):
        for G, cs in cm_closed_graphs(n):
            for cut in enumerate_cut_sets(G, cs):
                if not cut.vertices:
                    continue
                want = spine_anchor_graph(cs, cut)
                assert build_anchor_graph(cs, cut) == want, (cs.cliques, cut.vertices)


def test_anchor_graph_rejects_empty(g27):
    cs = find_closed_labeling(g27)
    with pytest.raises(GraphInputError):
        build_anchor_graph(cs, cut_set_from_vertices(g27, [], cs))


def test_local_value_rejects_a_run_that_is_no_connected_cut_set():
    # P5's connected cut sets are its single interior vertices, so the run
    # 2-3 of a hand-built CutSet matches no block
    cs = find_closed_labeling(path_graph(5))
    with pytest.raises(GraphInputError, match=r"run ends \(2, 3\) are not a connected cut set"):
        local_v_number(cs.graph, cs, CutSet((2, 3)), 2)


# -- slice partitions -----------------------------------------------------------

def exhaustive_min_degree(edge_counts, isolated, m):
    """Reference oracle: enumerate all m-compatible partitions."""

    def comp_options(e):
        best = []

        def rec(rest, parts):
            if rest == 0:
                best.append(e + len(parts))
                return
            for take in range(1, min(m - 1, rest) + 1):
                rec(rest - take, parts + [take])

        rec(e, [])
        return min(best)

    return sum(comp_options(e) for e in edge_counts) + isolated


def lgraph(edge_counts, isolated):
    comps = []
    v = 1
    for e in edge_counts:
        comps.append(tuple(range(v, v + e + 1)))
        v += e + 2
    return AnchorGraph(path_components=tuple(comps), isolated=tuple(range(v, v + isolated)))


def test_partition_examples():
    assert minimal_slice_partition(lgraph([2], 0), 2).degree == 4
    assert minimal_slice_partition(lgraph([], 1), 5).degree == 1


def test_partition_optimizer_matches_exhaustive():
    for e in range(1, 9):
        for m in range(2, 6):
            got = minimal_slice_partition(lgraph([e], 0), m).degree
            assert got == exhaustive_min_degree([e], 0, m), (e, m)
    # a couple of mixed shapes
    for counts, iso in [([2, 3], 2), ([1, 1, 4], 1), ([5, 2], 0)]:
        for m in range(2, 6):
            got = minimal_slice_partition(lgraph(counts, iso), m).degree
            assert got == exhaustive_min_degree(counts, iso, m)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=0, max_size=3),
    st.integers(0, 3),
    st.integers(2, 5),
)
def test_partition_optimizer_property(counts, iso, m):
    got = minimal_slice_partition(lgraph(counts, iso), m)
    assert got.degree == exhaustive_min_degree(counts, iso, m)
    assert all(1 <= len(s) - 1 <= m - 1 for s in got.minor_blocks)
    covered = sum(len(s) - 1 for s in got.minor_blocks)
    assert covered == sum(counts)
    assert got.degree == sum(len(s) for s in got.minor_blocks) + len(got.isolated_vars)


def test_witness_spec_27(g27):
    cs = find_closed_labeling(g27)
    cut = cut_set_from_vertices(g27, [3, 6, 9, 18, 21], cs)
    L = build_anchor_graph(cs, cut)
    spec = minimal_slice_partition(L, 3)
    assert spec.degree == 11
    assert spec.minor_blocks == ((1, 4, 7), (7, 12), (15, 19, 22))
    assert set(spec.isolated_vars) == {13, 24, 26}
    # the leading monomial is the product of block diagonals and isolated vars
    from vnum.algebra import RingSpec, witness_polynomial

    R = RingSpec(3, 27)
    f = witness_polynomial(R, spec.minor_blocks, spec.isolated_vars)
    want = 0
    for block in spec.minor_blocks:
        for r, c in enumerate(block, start=1):
            want += R.var_mono(R.var_index(r, c))
    for v in spec.isolated_vars:
        want += R.var_mono(R.var_index(1, v))
    assert f.lt() == want


# -- the closed formula -----------------------------------------------------------

def test_formula_examples():
    assert cm_v_formula(3, 14) == 8
    for m in range(2, 6):
        assert cm_v_formula(m, 1) == 0
    for t in range(1, 1001):
        assert cm_v_formula(2, t) == math.ceil(2 * (t - 1) / 3)


def test_local_value_examples(g27):
    P5 = path_graph(5)
    cs5 = find_closed_labeling(P5)
    res = local_v_number(P5, cs5, [3], 3)
    assert res.value == 2 and res.status == PROVED
    cs27 = find_closed_labeling(g27)
    res27 = local_v_number(g27, cs27, [3, 6, 9, 18, 21], 3)
    assert res27.value == 11 and res27.status == PROVED
    for m in (2, 3, 4, 7):
        res_e = local_v_number(path_graph(4), find_closed_labeling(path_graph(4)), [], m)
        assert res_e.value == 2 and res_e.status == PROVED


def test_conjectured_status_non_overlap_m3(g42):
    cs = find_closed_labeling(g42)
    cut = cut_set_from_vertices(g42, T_42, cs)
    res = local_v_number(g42, cs, cut, 3)
    assert res.status == CONJECTURED
    res2 = local_v_number(g42, cs, cut, 2)
    assert res2.status == PROVED
    assert res2.value == 2 * 6 + 3  # six anchor edges, three isolated


def test_optimal_cut_set_examples(g27):
    cs = find_closed_labeling(g27)
    assert optimal_cut_set(cs, 3).vertices == (6, 9, 15, 19, 24)
    k5 = find_closed_labeling(complete_graph(5))
    assert optimal_cut_set(k5, 2).vertices == ()
    # degenerate remainder: t=3, m=2 boxes nothing; the empty cut set
    # attains the formula value 2
    P4 = path_graph(4)
    cs4 = find_closed_labeling(P4)
    T = optimal_cut_set(cs4, 2)
    assert local_v_number(P4, cs4, T, 2).value == cm_v_formula(2, 3) == 2


def test_min_over_cut_sets_equals_formula():
    # overlap-one closed graphs with t <= 9: local minimum equals the
    # closed formula and the constructed cut set attains it
    cases = []
    for n in range(2, 8):
        cases.extend(cm_closed_graphs(n))
    for t in (8, 9):
        cases.append((path_graph(t + 1), find_closed_labeling(path_graph(t + 1))))
    rng = random.Random(5)
    for _ in range(4):
        t = rng.randint(6, 9)
        spine = [1]
        for _ in range(t):
            spine.append(spine[-1] + rng.randint(1, 3))
        G = graph_from_intervals(spine[-1], list(zip(spine, spine[1:])))
        cases.append((G, find_closed_labeling(G)))
    for G, cs in cases:
        if cs.t > 9:
            continue
        for m in (2, 3, 4):
            best = min(
                local_v_number(G, cs, cut, m).value
                for cut in enumerate_cut_sets(G, cs)
            )
            assert best == cm_v_formula(m, cs.t), (cs.cliques, m)
            attained = local_v_number(G, cs, optimal_cut_set(cs, m), m).value
            assert attained == best


def reference_v_number_closed(G, closed, m):
    """Reference: local_v_number at every cut set, least (value, vertices)
    first; the minimization _v_number_closed ran before its dynamic
    program over the connected cut sets."""
    return min(
        (local_v_number(G, closed, cut, m) for cut in enumerate_cut_sets(G, closed)),
        key=lambda res: (res.value, res.cut_set.vertices),
    )


def test_closed_v_number_matches_enumeration():
    # every closed graph with n <= 9: the dynamic program finds the
    # enumeration's least (value, vertices), and without one-vertex
    # overlaps v_number returns the reference's whole result (value,
    # status, regime, cut set and witness)
    cases = 0
    for n in range(2, 10):
        for G, cs in closed_graphs(n):
            for m in (2, 3, 4):
                want = reference_v_number_closed(G, cs, m)
                got = _least_cut_set(cs, m)
                assert got == (want.value, want.cut_set.vertices), (cs.cliques, m)
                if not cs.is_cm:
                    assert v_number(G, m) == want, (cs.cliques, m)
                cases += 1
    assert cases == 3 * 2055


def test_empty_cut_set_value_independent_of_m():
    for n in range(3, 7):
        for G, cs in closed_graphs(n):
            vals = {local_v_number(G, cs, [], m).value for m in (2, 3, 5)}
            assert len(vals) == 1


# -- global v-number ---------------------------------------------------------------

def test_v_number_paths():
    for n in range(3, 31):
        res = v_number(path_graph(n), 2)
        assert res.value == math.ceil(2 * (n - 2) / 3)
        assert res.status == PROVED


def test_v_number_27(g27):
    res = v_number(g27, 3)
    assert res.value == 8
    assert res.cut_set.vertices == (6, 9, 15, 19, 24)


def test_v_number_disjoint_union():
    G = complete_graph(5).disjoint_union(path_graph(3))
    res = v_number(G, 2)
    assert res.value == 1 and res.regime == "disjoint-union"
    assert len(res.parts) == 2


def test_v_number_recognises_a_closed_graph_once(monkeypatch, g27, g42):
    # the closed labeling decides connectivity: no flood, one recognition
    counts = {"floods": 0, "recognitions": 0}
    real_masks, real_find = SimpleGraph._component_masks, find_closed_labeling

    def masks(self, *args):
        counts["floods"] += 1
        return real_masks(self, *args)

    def find(G):
        counts["recognitions"] += 1
        return real_find(G)

    monkeypatch.setattr(SimpleGraph, "_component_masks", masks)
    monkeypatch.setattr("vnum.vnumbers.find_closed_labeling", find)
    for G, m, want in ((g27, 2, cm_v_formula(2, 14)), (g27, 3, 8), (g42, 2, 9), (g42, 3, 8)):
        counts.update(floods=0, recognitions=0)
        assert v_number(G, m).value == want
        assert counts == {"floods": 0, "recognitions": 1}, (G.n, m)


def test_a_disconnected_graph_stops_recognition_at_the_first_sweep(monkeypatch):
    # a shuffled 300-vertex path plus a disjoint K3: the first sweep, from
    # vertex 1, ends inside one component, so recognition raises with no
    # flood and no further sweep; v_number then sweeps only the path
    order = list(range(1, 304))
    random.Random(36).shuffle(order)
    G = path_graph(300).disjoint_union(complete_graph(3)).relabel(order)
    counts = {"sweeps": 0, "floods": 0}
    real_lbfs, real_masks = _lbfs, SimpleGraph._component_masks

    def lbfs(*args):
        counts["sweeps"] += 1
        return real_lbfs(*args)

    def masks(self, *args):
        counts["floods"] += 1
        return real_masks(self, *args)

    monkeypatch.setattr("vnum.graphs._lbfs", lbfs)
    monkeypatch.setattr(SimpleGraph, "_component_masks", masks)
    with pytest.raises(GraphInputError, match="needs a connected graph"):
        find_closed_labeling(G)
    assert counts == {"sweeps": 1, "floods": 0}
    counts["sweeps"] = 0
    res = v_number(G, 3)
    assert res.regime == "disjoint-union" and res.value == cm_v_formula(3, 299)
    assert counts["sweeps"] == 4


def test_domination_with_a_closed_structure_skips_the_flood(monkeypatch):
    P8 = path_graph(8)
    cs = find_closed_labeling(P8)
    floods, real = [], SimpleGraph._component_masks
    monkeypatch.setattr(SimpleGraph, "_component_masks",
                        lambda self, *a: floods.append(1) or real(self, *a))
    assert local_v_number(P8, cs, [], 2).value == 6
    assert floods == []


def test_v_number_splits_exactly_the_disconnected_graphs():
    # every labeled graph with n <= 4, plus K2 + K2 and P3 + K3 (the latter
    # also relabeled, so that recognition rejects it after its first sweep):
    # 'disjoint-union' exactly when G is disconnected, the components add
    # up, and every record hashes as under the flood-first dispatch
    graphs = [
        build_graph(n, es)
        for n in range(5)
        for size in range(n * (n - 1) // 2 + 1)
        for es in itertools.combinations(itertools.combinations(range(1, n + 1), 2), size)
    ]
    graphs += [complete_graph(2).disjoint_union(complete_graph(2)),
               path_graph(3).disjoint_union(complete_graph(3)),
               path_graph(3).relabel((2, 1, 3)).disjoint_union(complete_graph(3))]
    h = hashlib.sha256()
    for m in (2, 3):
        for G in graphs:
            res = v_number(G, m)
            assert (res.regime == "disjoint-union") == (not G.is_connected()), G
            if res.parts:
                parts = [v_number(G.induced(c)[0], m) for c in G.components()]
                assert res.parts == tuple(parts) and res.value == sum(p.value for p in parts)
            h.update(json.dumps(res.to_record(), sort_keys=True).encode())
    assert len(graphs) == 79
    assert h.hexdigest().startswith("6b1bac16f6eb2640")


def test_v_number_additivity_sampled():
    pool = [G for n in range(2, 6) for G, _ in closed_graphs(n)]
    rng = random.Random(9)
    for _ in range(8):
        A, B = rng.choice(pool), rng.choice(pool)
        lhs = v_number(A.disjoint_union(B), 2).value
        assert lhs == v_number(A, 2).value + v_number(B, 2).value


def test_v_number_cone_not_closed():
    # the 4-star is a cone over three isolated vertices and is not closed
    star = build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert find_closed_labeling(star) is None
    res = v_number(star, 3)
    assert res.value == 1 and res.regime == "cone"


def test_v_number_generic_oracle(c5):
    res = v_number(c5, 2)
    assert res.regime == "generic-oracle"
    assert res.value == 3 and res.status == PROVED


def test_connected_closed_v_number_skips_components(monkeypatch, g42):
    rng = random.Random(3)
    spine = [1]
    while spine[-1] < 300:
        spine.append(min(300, spine[-1] + rng.randint(1, 4)))
    chain = graph_from_intervals(spine[-1], zip(spine, spine[1:]))
    order = list(chain.vertices())
    rng.shuffle(order)
    calls = []
    real = SimpleGraph.components
    monkeypatch.setattr(SimpleGraph, "components", lambda G, *a: calls.append(G.n) or real(G, *a))
    for G, regime in [(g42, "closed"), (chain, "cm-closed"), (chain.relabel(order), "cm-closed-relabeled")]:
        assert v_number(G, 3).regime == regime
    assert calls == []


def test_v_number_relabeled_closed():
    H = path_graph(5).relabel((3, 1, 4, 2, 5))
    res = v_number(H, 2)
    assert res.value == 2
    assert res.regime.endswith("relabeled")


def test_generic_cut_sets_equal_the_closed_route():
    # under cliques [1,2],[2,4],[4,5] the cut set {2,4} induces an edge yet
    # is made of two connected cut sets W_j, {2} and {4}; either route must
    # give the same value and the same local v-number
    G = graph_from_intervals(5, [(1, 2), (2, 4), (4, 5)])
    cs = find_closed_labeling(G)
    cuts = enumerate_cut_sets(G)
    assert [c.vertices for c in cuts] == [(), (2,), (4,), (2, 4)]
    for c in cuts:
        closed_cut = cut_set_from_vertices(G, c.vertices, cs)
        assert local_v_number(G, cs, c, 2).value == local_v_number(G, cs, closed_cut, 2).value
        assert c == closed_cut


def test_relabeled_cut_set_matches_the_generic_route():
    # the closed structure maps its cut sets to the input labels with no
    # graph search: the vertices must be a cut set of the input by the
    # generic test, and reading them back must give the cut set again.
    # Local answers mapped by _to_original_result carry the anchor graph in
    # the input labels, the identity twin's value at the mapped cut set and
    # a witness that passes verify_witness in the input labels; so do
    # v_number's answers
    rng = random.Random(12)
    mapped = locals_ = answers = witnessed = 0

    def check_witness(ring, H, res):
        w = res.witness
        f = witness_polynomial(ring, w.minor_blocks, w.isolated_vars)
        P = cut_set_prime(ring, H, res.cut_set.vertices)
        assert f.degree() == res.value
        return verify_witness(binomial_edge_ideal(ring, H), f, P)

    for n in range(3, 7):
        for G, cs in closed_graphs(n):
            order = list(G.vertices())
            while order == sorted(order):
                rng.shuffle(order)
            H = G.relabel(order)  # H's vertex k is G's vertex order[k-1]
            closed = find_closed_labeling(H)
            if closed.is_identity():
                continue
            place = {v: k for k, v in enumerate(closed.order, 1)}
            for cut in enumerate_cut_sets(closed.graph, closed):
                got = closed.input_labels(cut.vertices)
                assert cut_set_from_vertices(H, got).vertices == tuple(got), (order, cut)
                assert closed.cut_set_from_input(got) == cut
                mapped += 1
                for m in (2, 3):
                    own = local_v_number(closed.graph, closed, cut, m)
                    res = _to_original_result(closed, own)
                    assert res.regime == own.regime + "-relabeled"
                    assert res.cut_set.vertices == tuple(got)
                    if cut.vertices:
                        L, back = res.anchor_graph, own.anchor_graph
                        assert set(L.vertices()) <= set(H.vertices())
                        assert [[place[v] for v in c] for c in L.path_components] == [
                            list(c) for c in back.path_components
                        ]
                        assert sorted(place[v] for v in L.isolated) == sorted(back.isolated)
                    twin = [order[v - 1] for v in got]
                    assert res.value == local_v_number(G, cs, twin, m).value, (order, cut, m)
                    locals_ += 1
                    assert check_witness(RingSpec(m, n), H, res), (order, cut, m)
                    witnessed += 1
            for m in (2, 3):
                res = v_number(H, m)
                assert res.regime.endswith("-relabeled")
                assert res.cut_set == cut_set_from_vertices(H, res.cut_set.vertices)
                answers += 1
                assert check_witness(RingSpec(m, n), H, res), (order, m)
                witnessed += 1
    assert (mapped, locals_, answers, witnessed) == (183, 366, 112, 478)


# -- classification -----------------------------------------------------------------

def test_classify_examples(c5):
    assert classify_small_v(path_graph(3), 2) == "1"
    assert classify_small_v(path_graph(4), 2) == "2"
    assert classify_small_v(complete_graph(6), 2) == "0"
    assert classify_small_v(c5, 2) == ">2"
    # u=1 cones the triangle {1,6,7}, v=2 is a lone tip, S = {3,4} is their
    # common neighborhood and a cut set; pendants 5 and 8 hang off opposite
    # sides of S so no two-vertex connected dominating set exists
    two_cones = build_graph(
        8,
        [(1, 3), (1, 4), (2, 3), (2, 4), (1, 6), (1, 7), (6, 7), (5, 4), (8, 3)],
    )
    from vnum.graphs import reduced_connected_domination_number

    assert reduced_connected_domination_number(two_cones) > 2
    assert classify_small_v(two_cones, 2) == "2"


def test_classify_closed_graphs_above_the_subset_budget():
    # closed recognition does not depend on the subset-search cap: the
    # greedy chain gives gamma_c^* at any size
    for G, want in ((path_graph(17), 10),
                    (graph_from_intervals(18, [(1, 4), (3, 9), (8, 13), (12, 18)]), 2)):
        assert G.n > 16
        v = v_number(G, 2).value
        assert v == want
        assert classify_small_v(G, 2) == (str(v) if v <= 2 else ">2")


def test_classification_leaves_connectivity_to_recognition(monkeypatch, g27, c4):
    # recognition raises exactly on a disconnected input, so classification
    # floods nothing first; a disconnected input keeps its error text
    calls, real = [], SimpleGraph.is_connected
    monkeypatch.setattr(SimpleGraph, "is_connected", lambda G: calls.append(G.n) or real(G))
    assert classify_small_v(g27, 2) == ">2"
    assert classify_small_v(path_graph(4).relabel([2, 4, 1, 3]), 2) == "2"
    assert calls == []
    for G in (path_graph(2).disjoint_union(path_graph(2)), c4.disjoint_union(path_graph(1))):
        with pytest.raises(GraphInputError) as exc:
            classify_small_v(G, 2)
        assert str(exc.value) == "classification needs a connected graph"


# -- powers -------------------------------------------------------------------------

def test_power_formula():
    cs5 = find_closed_labeling(path_graph(5))
    assert v_number_of_power(cs5, 1) == 2
    assert v_number_of_power(cs5, 3) == 6
    cs27 = find_closed_labeling(
        graph_from_intervals(
            27, [(a, b) for a, b in zip(
                [1,3,6,7,9,12,13,15,18,19,21,22,24,26],
                [3,6,7,9,12,13,15,18,19,21,22,24,26,27])]
        )
    )
    assert v_number_of_power(cs27, 2) == math.ceil(26 / 3) + 2 == 11
    with pytest.raises(GraphInputError):
        v_number_of_power(cs5, 0)


def test_power_formula_rejects_two_vertex_overlap(g42):
    with pytest.raises(UnsupportedRegimeError):
        v_number_of_power(find_closed_labeling(g42), 2)


def test_power_values_need_an_edge():
    # on one vertex J = 0, so v(J^k) = 0, not the shift 2(k-1)
    cs1 = find_closed_labeling(path_graph(1))
    for k in (1, 2, 3):
        with pytest.raises(UnsupportedRegimeError, match="need an edge"):
            v_number_of_power(cs1, k)
        with pytest.raises(UnsupportedRegimeError, match="need an edge"):
            local_v_number_of_power(cs1, (), k)


def test_every_cut_set_of_a_path_is_a_spine_cut_set():
    for n in range(2, 11):
        G = path_graph(n)
        cs = find_closed_labeling(G)
        for cut in enumerate_cut_sets(G, cs):
            assert _is_spine_cut_set(cs, cut)
            base = local_v_number(G, cs, cut, 2).value
            for k in (1, 2, 3):
                assert local_v_number_of_power(cs, cut.vertices, k) == base + 2 * (k - 1)


def test_local_power_examples():
    cs4 = find_closed_labeling(path_graph(4))
    assert local_v_number_of_power(cs4, [2], 2) == 4
    assert local_v_number_of_power(cs4, [2], 1) == 2
    cs5 = find_closed_labeling(path_graph(5))
    assert local_v_number_of_power(cs5, [], 2) == 5
    G = graph_from_intervals(7, [(1, 3), (3, 5), (5, 7)])
    cs = find_closed_labeling(G)
    # {3,5} is a cut set of the graph but not of its spine
    assert [c.vertices for c in enumerate_cut_sets(G, cs)].count((3, 5)) == 1
    with pytest.raises(UnsupportedRegimeError):
        local_v_number_of_power(cs, [3, 5], 2)
    assert local_v_number_of_power(cs, [3], 2) == local_v_number(G, cs, [3], 2).value + 2


def test_v_number_unsupported_component():
    cycle8 = build_graph(8, [(i, i + 1) for i in range(1, 8)] + [(1, 8)])
    with pytest.raises(UnsupportedRegimeError):
        v_number(cycle8, 2, oracle_n_limit=6)


def test_v_number_42_global(g42):
    # frozen regression value: exact minimum of the theorem-backed local
    # values over all 5760 cut sets (the per-cut-set machinery is
    # oracle-validated exhaustively at n <= 7)
    res = v_number(g42, 2)
    assert res.value == 9 and res.status == PROVED
    # no cap on the clique count: a chain of 200 cliques, consecutive ones
    # sharing two vertices, has a Fibonacci number of cut sets in t, and
    # the minimization over them answers without listing them
    t = 200
    chain = graph_from_intervals(2 * t + 2, [(2 * i + 1, 2 * i + 4) for i in range(t)])
    cs = find_closed_labeling(chain)
    assert cs.t == t and not cs.is_cm
    for m in (2, 3):
        res = v_number(chain, m)
        assert res.value == local_v_number(chain, cs, res.cut_set, m).value, m


def _degree_combos(atoms, d):
    """Multisets of atoms with total degree exactly d, deterministic order."""

    def rec(start, rest, acc):
        if rest == 0:
            yield tuple(acc)
            return
        for idx in range(start, len(atoms)):
            dg = atoms[idx].degree()
            if dg > rest:
                continue
            acc.append(atoms[idx])
            yield from rec(idx, rest - dg, acc)
            acc.pop()

    yield from rec(0, d, [])


def reference_power_witness(closed, cut, m, k, d_max):
    """Least degree <= d_max of a product witness for (J^k : f) = P_T, or
    None: the product grammar the power search used before the degree-slice
    sweep became its only route, with the empty product at degree 0.  Atoms
    are the variables, the 2-minors over the edges, the top-row minors over
    all column tuples and the slice minors of the anchor graph of
    ``cut``."""
    G = closed.graph
    ring = RingSpec(m, G.n)
    Jk = ideal_power(binomial_edge_ideal(ring, G), k)
    P = cut_set_prime(ring, G, cut.vertices)
    atoms = [
        Polynomial.variable(ring, i, j)
        for i in range(1, m + 1)
        for j in range(1, G.n + 1)
    ]
    for rows in itertools.combinations(range(1, m + 1), 2):
        atoms.extend(minor(ring, rows, e) for e in G.edge_list())
    for size in range(2, m + 1):
        for cols in itertools.combinations(range(1, G.n + 1), size):
            atoms.append(generalized_minor(ring, list(range(1, size + 1)), list(cols)))
    if cut.vertices:
        for comp in build_anchor_graph(closed, cut).path_components:
            e = len(comp) - 1
            for start in range(e):
                for ln in range(1, min(m - 1, e - start) + 1):
                    cols = list(comp[start : start + ln + 1])
                    atoms.append(generalized_minor(ring, list(range(1, ln + 2)), cols))
    uniq = {}
    for a in sorted(atoms, key=lambda f: (f.degree(), f.lt())):
        if not a.is_zero():
            uniq.setdefault(frozenset(a.terms.items()), a)
    atoms = list(uniq.values())
    for d in range(d_max + 1):
        for combo in _degree_combos(atoms, d):
            f = Polynomial.one(ring)
            for g in combo:
                f = f * g
            if f.is_zero() or Jk.contains(f):
                continue
            if not all(Jk.contains(f * q) for q in P.gens):
                continue
            if verify_witness(Jk, f, P):
                return d
    return None


def test_power_witness_search_matches_product_grammar():
    cases = 0
    for n in range(2, 5):
        for G, cs in closed_graphs(n):
            for cut in enumerate_cut_sets(G, cs):
                for m in (2, 3):
                    for k in (1, 2):
                        d_max = local_v_number(G, cs, cut, m).value + 2 * (k - 1)
                        found = search_power_witness(RingSpec(m, G.n), G, cut.vertices, k, d_max)
                        got = None if found is None else found["degree"]
                        want = reference_power_witness(cs, cut, m, k, d_max)
                        assert got == want, (cs.cliques, cut.vertices, m, k)
                        cases += 1
    assert cases > 0
