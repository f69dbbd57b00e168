"""v-number formulas and constructions on closed graphs.

The local v-number of the generalized binomial edge ideal at a cut set T
is computed from a small auxiliary graph: one edge per block of T between
two anchor vertices, plus isolated vertices coming from minimum reduced
connected dominating sets of the stretches between consecutive blocks.
Partitioning the auxiliary edges into runs of at most m-1 consecutive
edges (an m-compatible slice partition) and charging each run its vertex
count, plus one per isolated vertex, yields the degree of a witness
polynomial; minimizing over partitions gives the local v-number in every
proved regime and a certified upper bound elsewhere.

The v-number is the least local value over all cut sets.  On a closed
graph whose consecutive cliques overlap in one vertex a closed formula
gives it; on other closed graphs a dynamic program over the connected
cut sets finds it without listing the cut sets, whose number grows
exponentially with the clique count.

Results carry an explicit ``status``: 'proved' inside the regimes where
the value is a certainty (empty cut set for any m; any cut set for m = 2; any
cut set when consecutive maximal cliques overlap in one vertex) and
'conjectured' for m >= 3 on closed graphs that are not of the latter
kind, where only the upper bound is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import GraphInputError, UnsupportedRegimeError
from .graphs import (
    ClosedStructure,
    CutSet,
    SimpleGraph,
    connected_cut_blocks,
    cut_set_from_vertices,
    enumerate_cut_sets,
    find_closed_labeling,
    is_cone,
    reduced_connected_domination_number,
    spine_chain,
    _check_own_structure,
    _greedy_chain,
    _pair_cut_set,
    _runs,
)

PROVED = "proved"
CONJECTURED = "conjectured"


@dataclass(frozen=True)
class AnchorGraph:
    """The auxiliary graph attached to a nonempty cut set.

    Its edges are the per-block anchor pairs, chained into the paths
    ``path_components`` wherever one pair ends where the next begins;
    ``isolated`` is the union of the minimum reduced connected dominating
    sets of the gaps between consecutive anchor stretches.
    """

    path_components: tuple[tuple[int, ...], ...]
    isolated: tuple[int, ...]

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [e for comp in self.path_components for e in zip(comp, comp[1:])]

    def vertices(self) -> list[int]:
        out = set(self.isolated)
        for comp in self.path_components:
            out.update(comp)
        return sorted(out)

    def to_record(self) -> dict:
        return {
            "paths": [list(c) for c in self.path_components],
            "isolated": list(self.isolated),
            "edges": [list(e) for e in self.edges],
        }


@dataclass(frozen=True)
class WitnessSpec:
    """Symbolic witness: one l x l top-row minor per slice (columns are the
    slice vertices) times x[1,v] for each isolated vertex v.  At a nonempty
    cut set the slices are an m-compatible slice partition of the anchor
    edges, and ``degree`` is its cost."""

    minor_blocks: tuple[tuple[int, ...], ...]
    isolated_vars: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(map(len, self.minor_blocks)) + len(self.isolated_vars)

    def to_record(self) -> dict:
        return {
            "minor_blocks": [list(b) for b in self.minor_blocks],
            "isolated_vars": list(self.isolated_vars),
            "degree": self.degree,
        }

    def relabel(self, label) -> "WitnessSpec":
        """The witness with column v renamed label(v).  Renaming columns is
        a ring automorphism; a minor over permuted columns is +- the one
        over the sorted columns and (J : -w) = (J : w), so columns sort."""
        return WitnessSpec(
            tuple(tuple(sorted(map(label, b))) for b in self.minor_blocks),
            tuple(sorted(map(label, self.isolated_vars))),
        )

    def term_list(self) -> list[str]:
        out = [f"det(rows 1..{len(b)}, cols {list(b)})" for b in self.minor_blocks]
        out += [f"x[1,{v}]" for v in self.isolated_vars]
        return out


@dataclass(frozen=True)
class VNumberResult:
    """A v-number with its provenance: value, proof status, the regime that
    produced it, and (when available) the attaining cut set and witness,
    with the anchor graph a local witness came from."""

    value: int
    status: str
    regime: str
    cut_set: Optional[CutSet] = None
    witness: Optional[WitnessSpec] = None
    parts: tuple = ()
    anchor_graph: Optional[AnchorGraph] = None

    def to_record(self) -> dict:
        rec = {
            "value": self.value,
            "status": self.status,
            "regime": self.regime,
            "cut_set": None if self.cut_set is None else list(self.cut_set.vertices),
            "witness": None if self.witness is None else self.witness.to_record(),
            "witness_terms": None if self.witness is None else self.witness.term_list(),
        }
        if self.parts:
            rec["components"] = [p.to_record() for p in self.parts]
        return rec


# ---------------------------------------------------------------------------
# the anchor graph
# ---------------------------------------------------------------------------


def _shares_anchor(cl: Sequence[tuple[int, int]], ji: int, jn: int) -> bool:
    """Whether the anchor pairs of consecutive chosen blocks W_ji and W_jn
    share a vertex: the clique F_{ji+1} reaches the first clique F_jn of
    W_jn, b_{ji+1} >= a_jn.  The anchor path then goes on through both."""
    return cl[ji + 1][1] >= cl[jn][0]


def build_anchor_graph(closed: ClosedStructure, T: CutSet) -> AnchorGraph:
    """Anchor graph of a nonempty cut set of a connected closed graph.

    Each maximal run of consecutive vertices of T is a connected cut set
    W_j = F_j cap F_{j+1} of the maximal cliques F_j = [a_j, b_j], with
    anchor pair (a_j, b_{j+1}).  When b_{j+1} >= a_{j'} for consecutive
    runs W_j and W_{j'}, their pairs share one anchor instead: the least
    vertex of [a_{j'}, b_{j+1}] outside T.  The stretches before, between
    and after the anchor pairs add the interiors of their greedy chains as
    isolated vertices.  When consecutive cliques overlap in one vertex
    this is the spine construction, which the tests keep as a reference.
    """
    if not T.vertices:
        raise GraphInputError("the anchor graph needs a nonempty cut set")
    cl = closed.cliques
    index = {w: j for j, w in enumerate(connected_cut_blocks(closed))}
    try:
        js = [index[run[0], run[-1]] for run in _runs(T.vertices)]
    except KeyError as exc:
        raise GraphInputError(f"run ends {exc} are not a connected cut set") from None
    Tset = set(T.vertices)
    alphas = [cl[js[0]][0]]
    betas = []
    for ji, jn in zip(js, js[1:]):
        reach, start = cl[ji + 1][1], cl[jn][0]
        if _shares_anchor(cl, ji, jn):
            window = [v for v in range(start, reach + 1) if v not in Tset]
            if not window:
                raise GraphInputError("anchor window swallowed by the cut set")
            betas.append(window[0])
            alphas.append(window[0])
        else:
            betas.append(reach)
            alphas.append(start)
    betas.append(cl[js[-1] + 1][1])
    # each stretch's greedy-chain interior is a minimum reduced connected
    # dominating set of that stretch
    gaps = [
        tuple(_greedy_chain(closed, lo, hi)[1:-1])
        for lo, hi in zip([1] + betas, alphas + [closed.graph.n])
    ]
    return _assemble_anchor(alphas, betas, gaps)


def _assemble_anchor(
    alphas: Sequence[int], betas: Sequence[int], gaps: Sequence[tuple[int, ...]]
) -> AnchorGraph:
    s = len(alphas)
    for i in range(s):
        if not alphas[i] < betas[i]:
            raise GraphInputError(
                f"degenerate anchor pair ({alphas[i]}, {betas[i]})"
            )
        if i + 1 < s and betas[i] > alphas[i + 1]:
            raise GraphInputError("anchor pairs out of order")
    comps: list[list[int]] = []
    for a, b in zip(alphas, betas):
        if comps and comps[-1][-1] == a:
            comps[-1].append(b)
        else:
            comps.append([a, b])
    return AnchorGraph(
        path_components=tuple(map(tuple, comps)),
        isolated=tuple(v for gap in gaps for v in gap),
    )


# ---------------------------------------------------------------------------
# slice partitions and witnesses
# ---------------------------------------------------------------------------


def minimal_slice_partition(L: AnchorGraph, m: int) -> WitnessSpec:
    """The witness of an m-compatible partition of least degree.

    A path component with e edges split into runs of at most m-1 edges
    costs e plus the number of runs, so ceil(e/(m-1)) runs laid out
    greedily (full runs first) are optimal; each isolated vertex costs 1.
    The closed form is validated against exhaustive enumeration in the
    test suite before anything trusts it.
    """
    if m < 2:
        raise GraphInputError(f"clique size parameter must be >= 2, got {m}")
    step = m - 1
    slices = []
    for comp in L.path_components:
        e = len(comp) - 1
        runs = e // step
        sizes = [step] * runs + ([e - runs * step] if e % step else [])
        at = 0
        for size in sizes:
            slices.append(tuple(comp[at : at + size + 1]))
            at += size
    return WitnessSpec(minor_blocks=tuple(slices), isolated_vars=L.isolated)


def _empty_cutset_witness(closed: ClosedStructure) -> WitnessSpec:
    interior = tuple(spine_chain(closed)[1:-1])
    return WitnessSpec(minor_blocks=(), isolated_vars=interior)


# ---------------------------------------------------------------------------
# local and global v-numbers
# ---------------------------------------------------------------------------


def cm_v_formula(m: int, t: int) -> int:
    """Closed-form v-number for a connected closed graph with t maximal
    cliques, consecutive ones sharing one vertex: write
    t-1 = q(2m-1) + A; then the value is q*m + floor((A+1)/2) + B, where B
    is the parity defect (A+1) mod 2 when A > 0 and zero otherwise."""
    if m < 2:
        raise GraphInputError(f"clique size parameter must be >= 2, got {m}")
    if t < 1:
        raise GraphInputError(f"clique count must be >= 1, got {t}")
    q, rem = divmod(t - 1, 2 * m - 1)
    half = (rem + 1) // 2
    parity = (rem + 1) % 2 if rem > 0 else 0
    return q * m + half + parity


def local_v_number(
    G: SimpleGraph,
    closed: ClosedStructure,
    T,
    m: int,
) -> VNumberResult:
    """Local v-number at the cut set T of a connected closed graph.

    T may be a CutSet or an iterable of vertices (in the labels of
    ``closed.graph``, which must equal G).  Status is 'proved' for the
    empty cut set, for m = 2, and for one-vertex clique overlaps;
    otherwise the minimized witness degree is returned as 'conjectured'.
    """
    if m < 2:
        raise GraphInputError(f"clique size parameter must be >= 2, got {m}")
    _check_own_structure(G, closed)
    cut = T if isinstance(T, CutSet) else cut_set_from_vertices(G, T, closed)
    if not cut.vertices:
        value = reduced_connected_domination_number(G, closed)
        return VNumberResult(
            value=value,
            status=PROVED,
            regime="empty-cut-set",
            cut_set=cut,
            witness=_empty_cutset_witness(closed),
        )
    L = build_anchor_graph(closed, cut)
    witness = minimal_slice_partition(L, m)
    proved = m == 2 or closed.is_cm
    return VNumberResult(
        value=witness.degree,
        status=PROVED if proved else CONJECTURED,
        regime="cm-closed" if closed.is_cm else ("closed-m2" if m == 2 else "closed"),
        cut_set=cut,
        witness=witness,
        anchor_graph=L,
    )


def optimal_cut_set(closed: ClosedStructure, m: int) -> CutSet:
    """The cut set realizing the closed-form v-number on a one-vertex-overlap
    closed graph: walk the interior spine in blocks of 2m-1 cut vertices,
    box every second vertex of each full block, then box every second
    vertex of the odd-length head of the remainder."""
    if not closed.is_cm:
        raise UnsupportedRegimeError(
            "the optimal-cut-set construction needs one-vertex clique overlaps"
        )
    if m < 2:
        raise GraphInputError(f"clique size parameter must be >= 2, got {m}")
    b = closed.spine
    t = closed.t
    width = 2 * m - 1
    q, rem = divmod(t - 1, width)
    boxed = []
    for p in range(q):
        for j in range(2, width, 2):
            boxed.append(b[p * width + j])
    if rem > 0:
        k = 2 * ((rem + 1) // 2) - 1
        for j in range(2, k, 2):
            boxed.append(b[q * width + j])
    return cut_set_from_vertices(closed.graph, boxed, closed)


def v_number(
    G: SimpleGraph,
    m: int,
    oracle_n_limit: int = 6,
) -> VNumberResult:
    """The v-number of the generalized binomial edge ideal of G.

    Dispatch per connected component: complete -> 0; closed with
    one-vertex overlaps -> closed formula; other closed -> least local
    value over all cut sets, found by a dynamic program over the connected
    cut sets in polynomial time (proved for m = 2, conjectured otherwise);
    cone over a non-complete base -> 1; anything else falls back to the
    exact ideal-arithmetic oracle when the component has at most
    ``oracle_n_limit`` vertices.  Components add up, and so do their cut
    sets: a vertex's neighbours all lie in its own component.
    """
    if m < 2:
        raise GraphInputError(f"clique size parameter must be >= 2, got {m}")
    if not G.is_connected():
        parts, union = [], []
        for comp in G.components():
            H, back = G.induced(comp)
            parts.append(v_number(H, m, oracle_n_limit))
            union.extend(back[v] for v in parts[-1].cut_set.vertices)
        return VNumberResult(
            value=sum(p.value for p in parts),
            status=PROVED if all(p.status == PROVED for p in parts) else CONJECTURED,
            regime="disjoint-union",
            cut_set=cut_set_from_vertices(G, union),
            witness=None,
            parts=tuple(parts),
        )
    return _v_number_connected(G, m, oracle_n_limit)


def _to_original_result(closed: ClosedStructure, res: VNumberResult) -> VNumberResult:
    """An answer on closed.graph in the input labels: cut set, witness and
    anchor graph mapped back, the regime marked '-relabeled' when the
    labels differ."""
    if closed.is_identity():
        return res
    back, L = closed.to_original, res.anchor_graph
    if L is not None:
        L = AnchorGraph(tuple(tuple(map(back, c)) for c in L.path_components),
                        tuple(closed.input_labels(L.isolated)))
    cut = CutSet(tuple(closed.input_labels(res.cut_set.vertices)))
    return VNumberResult(res.value, res.status, res.regime + "-relabeled", cut,
                         res.witness.relabel(back), anchor_graph=L)


def _v_number_connected(G: SimpleGraph, m: int, oracle_n_limit: int) -> VNumberResult:
    if G.is_complete():
        return VNumberResult(
            value=0,
            status=PROVED,
            regime="complete",
            cut_set=cut_set_from_vertices(G, ()),
            witness=WitnessSpec((), ()),
        )
    closed = find_closed_labeling(G)
    if closed is not None:
        return _to_original_result(closed, _v_number_closed(closed.graph, closed, m))
    cone = is_cone(G)
    if cone is not None:
        apex, base_complete = cone
        return VNumberResult(
            value=1,
            status=PROVED,
            regime="cone",
            cut_set=cut_set_from_vertices(G, ()),
            witness=WitnessSpec((), (apex,)),
        )
    if G.n > oracle_n_limit:
        raise UnsupportedRegimeError(
            f"component with {G.n} vertices is neither closed nor a cone; "
            f"the exact oracle is limited to {oracle_n_limit} vertices"
        )
    value, cut = _least_oracle_value(G, m, enumerate_cut_sets(G))
    return VNumberResult(
        value=value,
        status=PROVED,
        regime="generic-oracle",
        cut_set=cut,
        witness=None,
    )


def _least_oracle_value(
    G: SimpleGraph, m: int, cuts: Sequence[CutSet]
) -> tuple[int, CutSet]:
    """Least exact local v-number over ``cuts`` and a cut set attaining it,
    the least (value, vertices) as in _v_number_closed.  Every cut set gets
    its exact oracle value; a Groebner budget overrun raises
    BudgetExceededError."""
    from .algebra import RingSpec, brute_local_v

    ring = RingSpec(m, G.n)
    return min(
        ((brute_local_v(ring, G, cut.vertices)[0], cut) for cut in cuts),
        key=lambda vc: (vc[0], vc[1].vertices),
    )


def _least_cut_set(closed: ClosedStructure, m: int) -> tuple[int, tuple[int, ...]]:
    """The least (local value, vertices) over all cut sets of a connected
    closed graph, by a dynamic program over its connected cut sets.

    A nonempty cut set chooses blocks W_j = [a_{j+1}, b_j] far enough apart,
    and its value adds up along them: the greedy-chain gap before the first
    block, one anchor edge per block, the gap after the last block, and
    between consecutive blocks W_j, W_k either a shared anchor
    (_shares_anchor: the path goes on) or the gap from b_{j+1} to a_k.  An
    edge costs 1, plus 1 when it opens a slice: when the path it extends
    has a multiple of m-1 edges, none for a new path.  So right to left,
    best[j][r] is the least value from W_j on when W_j's edge extends a
    path of r (mod m-1) edges, and r < j+1.  One reach walk from b_{j+1}
    gives every gap that starts there.  The whole run takes O(t^2 m) steps.

    Cut sets compare by vertices as their block index sequences do (block
    ends increase), a sequence before its extensions.  So the empty cut
    set, of value gamma, is tried first, then the first blocks in
    increasing order; at each block, stopping there is tried first, then
    the next blocks in increasing order.  Only a strictly smaller value
    replaces the best, which makes the result the least (value, vertices)
    over all cut sets.
    """
    cl = closed.cliques
    n = closed.graph.n
    step = m - 1
    nblocks = len(cl) - 1
    best: list[list[int]] = [[] for _ in range(nblocks)]
    succ: list[list[Optional[int]]] = [[] for _ in range(nblocks)]
    for j in range(nblocks - 1, -1, -1):
        walk = _greedy_chain(closed, cl[j + 1][1], n)
        states = min(step, j + 1)
        # stopping at W_j leaves the gap from b_{j+1} to n
        vals = [max(len(walk) - 2, 0)] * states
        nxt: list[Optional[int]] = [None] * states
        at = 0
        for k in range(j + 1, nblocks):
            if cl[j][1] + 1 >= cl[k + 1][0]:
                continue
            if _shares_anchor(cl, j, k):
                options = [best[k][(r + 1) % step] for r in range(states)]
            else:
                while walk[at] < cl[k][0]:
                    at += 1
                options = [at - 1 + best[k][0]] * states
            for r, v in enumerate(options):
                if v < vals[r]:
                    vals[r], nxt[r] = v, k
        best[j] = [v + 1 + (r == 0) for r, v in enumerate(vals)]
        succ[j] = nxt
    spine = _greedy_chain(closed, 1, n)
    value, first = max(len(spine) - 2, 0), None
    at = 0
    for j in range(nblocks):
        while spine[at] < cl[j][0]:
            at += 1
        v = max(at - 1, 0) + best[j][0]
        if v < value:
            value, first = v, j
    vertices: list[int] = []
    j, r = first, 0
    while j is not None:
        vertices.extend(range(cl[j + 1][0], cl[j][1] + 1))
        k = succ[j][r]
        if k is not None:
            r = (r + 1) % step if _shares_anchor(cl, j, k) else 0
        j = k
    return value, tuple(vertices)


def _v_number_closed(G: SimpleGraph, closed: ClosedStructure, m: int) -> VNumberResult:
    """Least local value over the cut sets of a connected closed graph:
    the closed formula at its constructed cut set for one-vertex overlaps,
    else _least_cut_set.  Either way local_v_number at the cut set found
    must give the same value."""
    if closed.is_cm:
        value = cm_v_formula(m, closed.t)
        cut = optimal_cut_set(closed, m)
        attained = local_v_number(G, closed, cut, m)
        if attained.value != value:
            raise AssertionError(
                "closed-form value and constructed cut set disagree; "
                f"{value} vs {attained.value}"
            )
        return VNumberResult(
            value=value,
            status=PROVED,
            regime="cm-closed",
            cut_set=cut,
            witness=attained.witness,
        )
    value, vertices = _least_cut_set(closed, m)
    res = local_v_number(G, closed, cut_set_from_vertices(G, vertices, closed), m)
    if res.value != value:
        raise AssertionError(
            "cut-set minimization and the local value disagree; "
            f"{value} vs {res.value}"
        )
    return res


def classify_small_v(G: SimpleGraph, m: int) -> str:
    """Classify v(G) among '0', '1', '2', '>2' by graph structure alone.

    0 exactly for complete graphs; 1 exactly for cones over non-complete
    bases; 2 exactly when the graph is not a cone and either has reduced
    connected domination number 2 or contains a non-adjacent pair u, v
    whose common neighborhood is a nonempty cut set separating them into
    components coned by u and v respectively, all other components
    complete (graphs._pair_cut_set).  A closed graph is recognized at any
    size; on other graphs gamma_c^* is a capped subset search.
    """
    if m < 2:
        raise GraphInputError(f"clique size parameter must be >= 2, got {m}")
    if not G.is_connected():
        raise GraphInputError("classification needs a connected graph")
    if G.is_complete():
        return "0"
    if is_cone(G) is not None:
        return "1"
    gamma = reduced_connected_domination_number(G, find_closed_labeling(G))
    if gamma == 2 or _pair_cut_set(G) is not None:
        return "2"
    return ">2"


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------


def v_number_of_power(closed: ClosedStructure, k: int) -> int:
    """v-number of the k-th power (m = 2) on a one-vertex-overlap closed
    graph: the base value shifted by 2(k-1)."""
    if k < 1:
        raise GraphInputError(f"power exponent must be >= 1, got {k}")
    _power_needs_an_edge(closed.graph)
    if not closed.is_cm:
        raise UnsupportedRegimeError(
            "the power formula is proved only for one-vertex clique overlaps"
        )
    return cm_v_formula(2, closed.t) + 2 * (k - 1)


def _power_needs_an_edge(G: SimpleGraph) -> None:
    """The shift formulas start from an edge: on the one-vertex graph J = 0."""
    if not G.edges:
        raise UnsupportedRegimeError("power values need an edge: J = 0 on the one-vertex graph")


def _is_spine_cut_set(closed: ClosedStructure, cut: CutSet) -> bool:
    pos = {v: i for i, v in enumerate(closed.spine)}
    idx = sorted(pos.get(v) for v in cut.vertices)
    if any(i is None for i in idx):
        return False
    return all(b - a >= 2 for a, b in zip(idx, idx[1:]))


def local_v_number_of_power(
    closed: ClosedStructure, T, k: int
) -> int:
    """Local v-number of the k-th power at T, m = 2, inside the proved
    regime only: T a cut set of the spine on a one-vertex-overlap closed
    graph with an edge (on a path, every cut set is one).  Outside it the
    call refuses rather than return an unproved number."""
    if k < 1:
        raise GraphInputError(f"power exponent must be >= 1, got {k}")
    G = closed.graph
    _power_needs_an_edge(G)
    cut = T if isinstance(T, CutSet) else cut_set_from_vertices(G, T, closed)
    if not (closed.is_cm and _is_spine_cut_set(closed, cut)):
        raise UnsupportedRegimeError(
            "power shift is proved only for cut sets of the spine of a "
            "one-vertex-overlap closed graph; refusing to guess"
        )
    base = local_v_number(G, closed, cut, 2)
    return base.value + 2 * (k - 1)
