"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its timing.  Every expected value is exact; the time
limits are asserted as stated.
"""

import math
import time

from vnum.algebra import RingSpec, brute_local_v, search_power_witness
from vnum.enumeration import closed_graphs, cm_closed_graphs, connected_graphs_up_to_iso
from vnum.graphs import (
    cut_set_from_vertices,
    enumerate_cut_sets,
    find_closed_labeling,
    graph_from_intervals,
    path_graph,
    reduced_connected_domination_number,
    spine_chain,
)
from vnum.verify import (
    suite_colon_nonedge,
    suite_colon_variable,
    suite_decomposition,
    suite_powers,
)
from vnum.vnumbers import (
    build_anchor_graph,
    classify_small_v,
    cm_v_formula,
    local_v_number,
    minimal_slice_partition,
    optimal_cut_set,
    v_number,
)
from conftest import SPINE_27, T_42


def report(num: int, ok: bool, started: float, limit: float, detail: str):
    dt = time.perf_counter() - started
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num:<2d} {dt:8.1f}s  {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert dt < limit, f"criterion {num} exceeded its {limit}s budget ({dt:.1f}s)"


def test_criterion_01_path_formula():
    t0 = time.perf_counter()
    ok = all(
        v_number(path_graph(n), 2).value == math.ceil(2 * (n - 2) / 3)
        for n in range(3, 31)
    )
    report(1, ok, t0, 1.0, "v-number of paths n=3..30 matches ceil(2(n-2)/3)")


def test_criterion_02_worked_example_27(g27):
    t0 = time.perf_counter()
    cs = find_closed_labeling(g27)
    ok = list(cs.spine) == SPINE_27
    cut = cut_set_from_vertices(g27, [3, 6, 9, 18, 21], cs)
    L = build_anchor_graph(cs, cut)
    ok &= L.vertices() == [1, 4, 7, 12, 13, 15, 19, 22, 24, 26]
    ok &= L.edges == [(1, 4), (4, 7), (7, 12), (15, 19), (19, 22)]
    ok &= optimal_cut_set(cs, 3).vertices == (6, 9, 15, 19, 24)
    ok &= v_number(g27, 3).value == 8 == cm_v_formula(3, 14)
    report(2, ok, t0, 1.0, "27-vertex example: spine, anchor graph, optimal cut set, value 8")


def test_criterion_03_worked_example_42(g42):
    t0 = time.perf_counter()
    cs = find_closed_labeling(g42)
    cut = cut_set_from_vertices(g42, T_42, cs)
    L = build_anchor_graph(cs, cut)
    ok = L.path_components == ((1, 6, 11, 14, 19), (27, 31, 37))
    ok &= set(L.isolated) == {21, 24, 40}
    Gd = graph_from_intervals(12, [(1, 5), (3, 6), (4, 8), (5, 10), (7, 12)])
    csd = find_closed_labeling(Gd)
    ok &= spine_chain(csd) == [1, 5, 10, 12]
    ok &= reduced_connected_domination_number(Gd, csd) == 2
    report(3, ok, t0, 1.0, "42-vertex anchor graph and greedy-chain domination example")


def test_criterion_04_oracle_equivalence_n7():
    t0 = time.perf_counter()
    pairs = 0
    disagreements = 0
    for n in range(2, 8):
        ring = RingSpec(2, n)
        for G, cs in closed_graphs(n):
            for cut in enumerate_cut_sets(G, cs):
                expect = local_v_number(G, cs, cut, 2).value
                got = brute_local_v(ring, G, cut.vertices)[0]
                pairs += 1
                if got != expect:
                    disagreements += 1
    report(
        4,
        disagreements == 0,
        t0,
        1800.0,
        f"exact oracle vs witness degree on {pairs} (graph, cut set) pairs, n<=7, m=2",
    )


def test_criterion_05_colon_identities():
    t0 = time.perf_counter()
    checks = 0
    bad = []
    for n in range(2, 6):
        for G in connected_graphs_up_to_iso(n):
            for m in (2, 3):
                for r in suite_colon_variable(G, m) + suite_colon_nonedge(G, m):
                    checks += 1
                    if r.status != "pass":
                        bad.append(r.name)
    report(5, not bad, t0, 600.0, f"colon identities, {checks} checks over n<=5, m in {{2,3}}")


def test_criterion_06_radical_decomposition():
    t0 = time.perf_counter()
    checks = 0
    bad = []
    for n in range(2, 6):
        for G in connected_graphs_up_to_iso(n):
            for m in (2, 3):
                for r in suite_decomposition(G, m):
                    checks += 1
                    if r.status != "pass":
                        bad.append(r.name)
    report(6, not bad, t0, 600.0, f"minimal-prime intersection equals the ideal, {checks} cases")


def test_criterion_07_power_identities():
    t0 = time.perf_counter()
    checks = 0
    bad = []
    for n in range(2, 7):
        for G, cs in cm_closed_graphs(n):
            for r in suite_powers(G, cs, 3):
                checks += 1
                if r.status != "pass":
                    bad.append((r.name, r.detail))
    report(
        7,
        not bad,
        t0,
        1200.0,
        f"power identities and shifted witnesses, {checks} checks, n<=6, k<=3 "
        "(witness-based upper bounds; power lower bounds are not independently certified)",
    )


def test_criterion_08_power_remark():
    t0 = time.perf_counter()
    P5 = path_graph(5)
    ring = RingSpec(3, 5)
    ok = brute_local_v(ring, P5, [3])[0] == 2
    found = search_power_witness(ring, P5, [3], 2, d_max=3)
    ok &= found is not None and found["degree"] == 3
    report(8, ok, t0, 300.0, "m=3 path on 5 vertices: v=2, square admits a degree-3 witness")


def test_criterion_09_partition_optimizer():
    t0 = time.perf_counter()
    from test_vnumbers import exhaustive_min_degree, lgraph

    ok = True
    for e in range(1, 9):
        for m in range(2, 6):
            got = minimal_slice_partition(lgraph([e], 0), m).degree
            ok &= got == exhaustive_min_degree([e], 0, m)
    report(9, ok, t0, 60.0, "closed-form slice degree equals exhaustive minimum, e<=8, m<=5")


def test_criterion_10_classification():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 6):
        for G in connected_graphs_up_to_iso(n):
            ring = RingSpec(2, n)
            v = min(
                brute_local_v(ring, G, c.vertices)[0]
                for c in enumerate_cut_sets(G)
            )
            want = str(v) if v <= 2 else ">2"
            if classify_small_v(G, 2) != want:
                bad.append(sorted(G.edges))
    report(10, not bad, t0, 600.0, "classification of v in {0,1,2,>2} vs oracle, all connected n<=5")


def test_criterion_12_general_graph_theorems_at_m_2_and_3():
    # v_emptyset = gamma_c^* and the classification, both for every m: the
    # oracle at m = 2 and m = 3 (n <= 5), and at m = 2 for n = 6, against
    # the graph-side answers, with the generic subset search for gamma_c^*
    # on every graph
    t0 = time.perf_counter()
    bad = []
    pairs = 0
    for n in range(2, 7):
        for G in connected_graphs_up_to_iso(n):
            if G.is_complete():
                continue
            gamma = reduced_connected_domination_number(G)
            for m in (2, 3) if n <= 5 else (2,):
                ring = RingSpec(m, n)
                local = {c.vertices: brute_local_v(ring, G, c.vertices)[0]
                         for c in enumerate_cut_sets(G)}
                v = min(local.values())
                want = str(v) if v <= 2 else ">2"
                pairs += 1
                if local[()] != gamma or classify_small_v(G, m) != want:
                    bad.append((m, sorted(G.edges)))
    report(
        12,
        not bad and pairs == 163,
        t0,
        60.0,
        f"v at the empty cut set equals gamma_c^* and the class of v matches the oracle, "
        f"{pairs} (graph, m) pairs, connected non-complete n<=5 at m in {{2,3}} and n=6 at m=2",
    )
