"""Simple graphs on vertex set 1..n and the closed-graph machinery.

Everything here is immutable after construction, so values can be shared
freely across threads.  Exhaustive searches (generic cut-set enumeration,
connected domination on arbitrary graphs) are guarded by an explicit
vertex budget and raise InstanceTooLargeError when asked to go beyond it.

A graph is *closed under the identity labeling* when for all i < j < k,
{i,k} being an edge forces {i,j} and {j,k} to be edges.  Equivalently the
maximal cliques are integer intervals [a,b].  A graph is *closed* when some
relabeling makes it closed; closed graphs coincide with proper interval
graphs, so the exact three-sweep LBFS recognition of proper interval
graphs (Corneil 2004) decides closedness for every n.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import GraphInputError, InstanceTooLargeError, NotACutSetError

#: Largest n for which 2^n-style subset searches run by default.
DEFAULT_SUBSET_BUDGET = 16


class SimpleGraph:
    """Undirected simple graph on vertices 1..n, no loops, no multi-edges.

    Adjacency is kept once, as int bitmasks: bit v of ``_mask[u]`` is set
    iff {u,v} is an edge.  ``neighbors`` builds its frozenset from the mask;
    the closed labeling, the components, the cut-set test and domination
    all read the masks directly.  ``edges`` defines equality.
    """

    __slots__ = ("n", "edges", "_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphInputError(f"vertex count must be non-negative, got {n}")
        canon = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphInputError(f"edge ({u},{v}) has an endpoint outside 1..{n}")
            if u == v:
                raise GraphInputError(f"loop edge at vertex {u} rejected")
            canon.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(canon)
        mask = [0] * (n + 1)
        for u, v in canon:
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        self._mask = tuple(mask)

    # -- basic queries ----------------------------------------------------

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset:
        return frozenset(_bits(self._mask[v] if 0 < v <= self.n else 0))

    def degree(self, v: int) -> int:
        return self._mask[v].bit_count() if 0 < v <= self.n else 0

    def has_edge(self, u: int, v: int) -> bool:
        return 0 < u <= self.n and v > 0 and self._mask[u] >> v & 1 == 1

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={sorted(self.edges)})"

    # -- structure --------------------------------------------------------

    def components(self, removed: frozenset = frozenset()) -> list[frozenset]:
        """Connected components of the graph minus ``removed``, sorted by min."""
        return [frozenset(_bits(c)) for c in self._component_masks(_mask_of(self, removed))]

    def is_connected(self) -> bool:
        """The component of vertex 1 is every vertex (n <= 1: True)."""
        return next(self._component_masks(), 0) == (1 << (self.n + 1)) - 2

    def _component_masks(self, removed: int = 0) -> Iterator[int]:
        """The components of the graph minus the vertex mask ``removed``, as
        masks, each flooded from the least vertex not reached yet, so in
        increasing order of their least vertex."""
        left = ((1 << (self.n + 1)) - 2) & ~removed
        while left:
            frontier = left & -left
            start, left = left, left ^ frontier
            while frontier:
                low = frontier & -frontier
                new = self._mask[low.bit_length() - 1] & left
                left ^= new
                frontier = (frontier ^ low) | new
            yield start ^ left

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def induced(self, vs: Iterable[int]) -> tuple["SimpleGraph", dict[int, int]]:
        """Induced subgraph on ``vs`` relabeled to 1..k preserving order.

        Returns the subgraph and the map new-label -> original vertex.
        """
        ordered = sorted(set(vs))
        back = {i + 1: v for i, v in enumerate(ordered)}
        fwd = {v: i + 1 for i, v in enumerate(ordered)}
        es = [
            (fwd[u], fwd[v])
            for (u, v) in self.edges
            if u in fwd and v in fwd
        ]
        return SimpleGraph(len(ordered), es), back

    def relabel(self, order: Sequence[int]) -> "SimpleGraph":
        """Graph under the labeling that puts ``order[k-1]`` at position k."""
        if sorted(order) != list(self.vertices()):
            raise GraphInputError("labeling must be a permutation of 1..n")
        newpos = {v: i + 1 for i, v in enumerate(order)}
        return SimpleGraph(self.n, [(newpos[u], newpos[v]) for (u, v) in self.edges])

    def disjoint_union(self, other: "SimpleGraph") -> "SimpleGraph":
        shift = self.n
        es = list(self.edges) + [(u + shift, v + shift) for (u, v) in other.edges]
        return SimpleGraph(self.n + other.n, es)


def _mask_of(G: SimpleGraph, vs: Iterable[int]) -> int:
    """The vertex mask of ``vs``; labels outside 1..n are ignored."""
    return sum(1 << v for v in set(vs) if 1 <= v <= G.n)


def _bits(mask: int) -> Iterator[int]:
    """The vertices of a mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> SimpleGraph:
    """Validated constructor; deduplicates edges, rejects loops."""
    return SimpleGraph(n, [(int(u), int(v)) for u, v in edges])


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def graph_from_intervals(n: int, intervals: Iterable[Sequence[int]]) -> SimpleGraph:
    """Union of interval cliques [a,b]; the standard way closed graphs are given."""
    es = []
    for a, b in intervals:
        if not (1 <= a <= b <= n):
            raise GraphInputError(f"interval [{a},{b}] outside 1..{n}")
        es.extend((u, v) for u in range(a, b + 1) for v in range(u + 1, b + 1))
    return SimpleGraph(n, es)


# ---------------------------------------------------------------------------
# closedness
# ---------------------------------------------------------------------------


def check_closed_labeling(G: SimpleGraph) -> bool:
    """Does the identity labeling witness closedness?

    It does exactly when for every i the neighbours above i are the run
    i+1, ..., r_i, and the reach r_i never decreases.  Closed forces both:
    an edge {i,k} makes [i,k] a clique, so i meets every vertex between;
    for i < j < r_i the edge {i, r_i} forces {j, r_i}, so r_j >= r_i (and
    r_j >= j >= r_i when r_i <= j).  Conversely, for i < j < k with {i,k}
    an edge, k <= r_i gives {i,j} and r_j >= r_i >= k gives {j,k}.
    """
    return _closed_reach(G) is not None


def _closed_reach(G: SimpleGraph) -> Optional[tuple[int, ...]]:
    """ClosedStructure.reach if the identity labeling is closed, else None."""
    reach = [0]
    for i in G.vertices():
        up = G._mask[i] >> (i + 1)
        r = i + up.bit_length()
        if up & (up + 1) or r < reach[-1]:
            return None
        reach.append(r)
    return tuple(reach)


@dataclass(frozen=True)
class ClosedStructure:
    """Certificate that a connected graph is closed.

    ``order[k-1]`` is the original vertex placed at position k; ``graph`` is
    the graph *after* relabeling, whose maximal cliques are the integer
    intervals in ``cliques``.  ``spine`` is the endpoint chain
    (a_1, b_1, ..., b_t) and ``cut_vertices`` its interior.  ``is_cm`` marks
    the case where consecutive cliques overlap in exactly one vertex.
    ``reach[v]`` is the largest neighbour of v, or v itself when it has no
    larger one (``reach[0]`` is unused).
    """

    graph: SimpleGraph
    order: tuple[int, ...]
    cliques: tuple[tuple[int, int], ...]
    spine: tuple[int, ...]
    cut_vertices: tuple[int, ...]
    is_cm: bool
    reach: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.cliques)

    def is_identity(self) -> bool:
        return self.order == tuple(range(1, self.graph.n + 1))

    def to_original(self, v: int) -> int:
        return self.order[v - 1]

    def input_labels(self, vertices: Iterable[int]) -> list[int]:
        """Vertices of ``graph`` in the input labels, sorted."""
        return sorted(map(self.to_original, vertices))

    def cut_set_from_input(self, vertices: Iterable[int]) -> "CutSet":
        """The cut set of ``graph`` named by ``vertices`` in the input labels; a
        label outside 1..n or a non-cut set raises NotACutSetError naming them."""
        given = sorted(set(vertices))
        place = {v: k for k, v in enumerate(self.order, 1)}
        try:
            return cut_set_from_vertices(self.graph, [place[v] for v in given], self)
        except (KeyError, NotACutSetError):
            raise NotACutSetError(f"{given} is not a cut set") from None

    def to_record(self) -> dict:
        return {
            "labeling": list(self.order),
            "cliques": [list(c) for c in self.cliques],
            "spine": list(self.spine),
            "cut_vertices": list(self.cut_vertices),
            "is_cm": self.is_cm,
        }


def _structure_from_identity(G: SimpleGraph, order: tuple, reach: tuple) -> ClosedStructure:
    """The structure of a connected identity-closed G from its reach: the
    maximal cliques are the [a, r_a] where the reach grows, and each starts
    by the previous r_a as r_i > i for i < n."""
    cliques = [(a, reach[a]) for a in G.vertices() if reach[a] > reach[a - 1]]
    t = len(cliques)
    spine = (cliques[0][0],) + tuple(b for _, b in cliques)
    is_cm = all(cliques[i][1] == cliques[i + 1][0] for i in range(t - 1))
    return ClosedStructure(
        graph=G,
        order=order,
        cliques=tuple(cliques),
        spine=spine,
        cut_vertices=spine[1:-1],
        is_cm=is_cm,
        reach=reach,
    )


def _lbfs(G: SimpleGraph, start: int, tiebreak: Sequence[int]) -> list[int]:
    """Lexicographic BFS; ties are broken by earliest position in ``tiebreak``."""
    pos = {v: i for i, v in enumerate(tiebreak)}
    labels = {v: [] for v in G.vertices()}
    labels[start] = [G.n + 1]
    visited = []
    remaining = set(G.vertices())  # as a mask: 1,000-vertex recognition took 2x as long
    while remaining:
        v = max(remaining, key=lambda u: (labels[u], -pos[u]))
        visited.append(v)
        remaining.remove(v)
        rank = G.n - len(visited)
        for w in _bits(G._mask[v]):
            if w in remaining:
                labels[w].append(rank)
    return visited


def _lex_first_order(G: SimpleGraph, order: Sequence[int]) -> tuple[int, ...]:
    """The lexicographically first closed labeling of the connected graph G,
    given any closed labeling ``order``: all of them arise from one by
    reversal and by permuting the runs of closed-neighbourhood twins
    (Deng, Hell and Huang 1996), so sort each run and take the smaller of
    the two directions."""
    runs: list[list[int]] = []
    for v in order:
        home = G._mask[v] | 1 << v
        if runs and home == G._mask[runs[-1][0]] | 1 << runs[-1][0]:
            runs[-1].append(v)
        else:
            runs.append([v])
    forward = tuple(v for run in runs for v in sorted(run))
    backward = tuple(v for run in reversed(runs) for v in sorted(run))
    return min(forward, backward)


def find_closed_labeling(G: SimpleGraph) -> Optional[ClosedStructure]:
    """The lexicographically first labeling under which G is closed, or
    None when G is not closed.

    The identity labeling is tried first, being the first permutation.
    Otherwise three LBFS sweeps run, each after the first starting from
    and breaking ties towards the end of the previous one; G is closed iff
    the third sweep is a closed labeling (Corneil 2004).  It is turned into
    the lexicographically first one, which the one-pass check validates, so
    a present answer is always correct.  A disconnected G raises
    GraphInputError; components are searched only before returning None.
    """
    if G.n == 0:
        raise GraphInputError("empty graph has no closed structure")
    H, order = G, tuple(G.vertices())
    reach = _closed_reach(G)
    if reach is None:
        sweep1 = _lbfs(G, 1, list(G.vertices()))
        sweep2 = _lbfs(G, sweep1[-1], sweep1[::-1])
        sweep3 = _lbfs(G, sweep2[-1], sweep2[::-1])
        # swapping twins and reversing neither make nor break closedness
        order = _lex_first_order(G, sweep3)
        H = G.relabel(order)
        reach = _closed_reach(H)
        if reach is None and G.is_connected():
            return None
    # a closed labeling is connected iff r_i > i for all i < n (else no
    # vertex up to i meets one above i)
    if reach is None or any(reach[i] == i for i in range(1, G.n)):
        raise GraphInputError(
            "closed-structure extraction needs a connected graph; "
            "split into components first"
        )
    return _structure_from_identity(H, order, reach)


# ---------------------------------------------------------------------------
# cut sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutSet:
    """A cut set T: its vertices in increasing order.

    T alone fixes the prime P_T, so two routes to the same T build equal
    values.  On a closed graph the maximal runs of consecutive vertices of
    T (see _runs) are the connected cut sets W_j it is made of.
    """

    vertices: tuple[int, ...]


def is_cut_set(G: SimpleGraph, T: Iterable[int]) -> bool:
    """T is a cut set iff each v in T is a cut vertex of G minus (T - {v}).

    Putting v back into G minus T merges exactly the components it has
    neighbours in, so v is such a cut vertex iff it touches at least two
    components of G minus T; those are computed once (_is_cut_mask).
    """
    T = frozenset(T)
    return T <= set(G.vertices()) and _is_cut_mask(G, sum(1 << v for v in T))


def _is_cut_mask(G: SimpleGraph, cut: int) -> bool:
    """is_cut_set for the vertex mask ``cut`` of G: each of its vertices
    has neighbours in two component masks of G minus it."""
    comps = list(G._component_masks(cut))
    return all(len([c for c in comps if c & G._mask[v]]) > 1 for v in _bits(cut))


def connected_cut_blocks(closed: ClosedStructure) -> list[tuple[int, int]]:
    """The intervals W_i = F_i cap F_{i+1} for i = 1..t-1."""
    cl = closed.cliques
    return [(cl[i + 1][0], cl[i][1]) for i in range(len(cl) - 1)]


def _runs(vertices: Iterable[int]) -> list[list[int]]:
    """The maximal runs of consecutive integers in increasing ``vertices``."""
    runs: list[list[int]] = []
    for v in vertices:
        if runs and v == runs[-1][-1] + 1:
            runs[-1].append(v)
        else:
            runs.append([v])
    return runs


def _check_own_structure(G: SimpleGraph, closed: ClosedStructure) -> None:
    if closed.graph != G:
        raise GraphInputError(
            "the closed structure belongs to another graph; "
            "pass closed.graph and cut sets in the same labels"
        )


def cut_set_from_vertices(
    G: SimpleGraph, vertices: Iterable[int], closed: Optional[ClosedStructure] = None
) -> CutSet:
    """Wrap a verified cut set.

    With the ClosedStructure of G, T is a cut set exactly when each maximal
    run of consecutive vertices in T is a connected cut set W_j.  Runs are
    at least two apart, so the gap rule of enumerate_cut_sets holds by
    itself.  Otherwise is_cut_set decides.
    """
    vs = tuple(sorted(set(vertices)))
    if closed is None:
        if not is_cut_set(G, vs):
            raise NotACutSetError(f"{list(vs)} is not a cut set")
        return CutSet(vs)
    _check_own_structure(G, closed)
    runs = _runs(vs)
    wset = set(connected_cut_blocks(closed))
    if any((run[0], run[-1]) not in wset for run in runs):
        raise NotACutSetError(f"{list(vs)} is not a cut set")
    return CutSet(vs)


def enumerate_cut_sets(
    G: SimpleGraph,
    closed: Optional[ClosedStructure] = None,
    max_generic_n: int = DEFAULT_SUBSET_BUDGET,
) -> list[CutSet]:
    """All cut sets of G.

    With the ClosedStructure of G the list is generated directly from the
    connected cut sets W_i under the gap condition
    max(W_{j_i}) + 1 < min(W_{j_{i+1}}).  Otherwise each subset of the
    non-simplicial vertices (one whose neighbours are pairwise adjacent
    touches at most one component of G - T) is filtered, as a mask, through
    is_cut_set's test, exponential and so capped at ``max_generic_n`` vertices.
    """
    if closed is not None:
        _check_own_structure(G, closed)
        out = [CutSet(())]
        blocks = connected_cut_blocks(closed)
        chosen: list[int] = []

        def rec(i: int):
            for j in range(i, len(blocks)):
                if chosen and blocks[chosen[-1]][1] + 1 >= blocks[j][0]:
                    continue
                chosen.append(j)
                vs = tuple(
                    v for idx in chosen for v in range(blocks[idx][0], blocks[idx][1] + 1)
                )
                out.append(CutSet(vs))
                rec(j + 1)
                chosen.pop()

        rec(0)
        return sorted(out, key=lambda c: (len(c.vertices), c.vertices))
    if G.n > max_generic_n:
        raise InstanceTooLargeError(
            f"generic cut-set enumeration needs n <= {max_generic_n}, got {G.n}"
        )
    inner = [u for u in G.vertices()
             if any(G._mask[u] & ~(1 << w) & ~G._mask[w] for w in _bits(G._mask[u]))]
    subsets = (T for size in range(len(inner) + 1) for T in itertools.combinations(inner, size))
    return [CutSet(T) for T in subsets if _is_cut_mask(G, sum(1 << v for v in T))]


# ---------------------------------------------------------------------------
# completions, domination, cones
# ---------------------------------------------------------------------------


def completion_graph(G: SimpleGraph, v: int) -> SimpleGraph:
    """Join all pairs of neighbors of v."""
    if not (1 <= v <= G.n):
        raise GraphInputError(f"vertex {v} outside 1..{G.n}")
    return SimpleGraph(G.n, [*G.edges, *itertools.combinations(_bits(G._mask[v]), 2)])


def is_reduced_connected_dominating_set(G: SimpleGraph, D: Iterable[int]) -> bool:
    """D induces a connected subgraph through which all outside traffic can
    be routed.

    The empty set qualifies exactly for complete graphs (any two outside
    vertices are already adjacent); for a non-complete graph the routing
    requirement makes a reduced set the same thing as a connected
    dominating set.  Merely routing non-adjacent pairs is NOT enough: on a
    5-cycle two adjacent vertices route every outside pair yet leave the
    antipodal vertex undominated, and the completion/colon identities that
    this invariant feeds (minimum completion number, the empty-cut-set
    local value) genuinely take the value 3 there, not 2.

    A vertex of D outside 1..n raises GraphInputError.
    """
    D, V = frozenset(D), frozenset(G.vertices())
    if not D <= V:
        raise GraphInputError(f"vertices {sorted(D - V)} outside 1..{G.n}")
    return _is_rcds_mask(G, _mask_of(G, D))


def _is_rcds_mask(G: SimpleGraph, dom: int) -> bool:
    """is_reduced_connected_dominating_set for the vertex mask ``dom``: the
    first flood of G minus the rest is D, and each other vertex meets D."""
    if not dom:
        return G.is_complete()
    outside = ((1 << (G.n + 1)) - 2) & ~dom
    if next(G._component_masks(outside)) != dom:
        return False
    return all(G._mask[v] & dom for v in _bits(outside))


def _pair_cut_set(G: SimpleGraph) -> Optional[tuple[int, ...]]:
    """The common neighbourhood S of the first non-adjacent pair u < v with
    S nonempty, the components of G minus S holding u and v inside their
    closed neighbourhoods and every other component complete, or None.
    Such an S is a cut set: those two components differ, as v is not near
    u, and every vertex of S meets both."""
    for u in G.vertices():
        for v in range(u + 1, G.n + 1):
            near_u, near_v = G._mask[u] | 1 << u, G._mask[v] | 1 << v
            cut = G._mask[u] & G._mask[v]
            if near_u >> v & 1 or not cut:
                continue
            comps = list(G._component_masks(cut))
            cu = next(c for c in comps if c >> u & 1)
            cv = next(c for c in comps if c >> v & 1)
            if cu & ~near_u or cv & ~near_v:
                continue
            if all((G._mask[w] | 1 << w) & c == c for c in comps if c not in (cu, cv)
                   for w in _bits(c)):
                return tuple(_bits(cut))
    return None


def spine_chain(closed: ClosedStructure) -> list[int]:
    """Greedy maximal-reach chain from 1 to n through the interval cliques.

    c_0 = 1 and c_{i+1} = max over cliques containing c_i of the clique
    endpoint; the interior of the chain is a minimum reduced connected
    dominating set of the graph.
    """
    return _greedy_chain(closed, 1, closed.graph.n)


def _greedy_chain(closed: ClosedStructure, lo: int, hi: int) -> list[int]:
    """Greedy chain from lo to hi in the closed graph induced on [lo, hi].

    In a closed labeling the clique containing v that reaches furthest
    ends at v's largest neighbour, so each step goes from v to its reach,
    clipped at hi.
    """
    reach = closed.reach
    chain = [lo]
    cur = lo
    while cur < hi:
        nxt = min(reach[cur], hi)
        if nxt <= cur:
            raise GraphInputError("interval cliques do not reach the last vertex")
        cur = nxt
        chain.append(cur)
    return chain


def reduced_connected_domination_number(
    G: SimpleGraph, closed: Optional[ClosedStructure] = None
) -> int:
    """gamma_c^*(G) for connected G.

    With a ClosedStructure the greedy chain gives the answer directly;
    otherwise vertex masks are searched by increasing cardinality against
    the reduced-connected-domination test, up to DEFAULT_SUBSET_BUDGET
    vertices.
    """
    if not G.is_connected():
        raise GraphInputError("reduced connected domination needs a connected graph")
    if closed is not None:
        return max(len(spine_chain(closed)) - 2, 0)
    if G.n > DEFAULT_SUBSET_BUDGET:
        raise InstanceTooLargeError(
            f"domination search needs n <= {DEFAULT_SUBSET_BUDGET}, got {G.n}"
        )
    bits = [1 << v for v in G.vertices()]
    for size in range(G.n + 1):
        for sub in itertools.combinations(bits, size):
            if _is_rcds_mask(G, sum(sub)):
                return size
    raise AssertionError("unreachable: V(G) itself dominates")


def is_cone(G: SimpleGraph) -> Optional[tuple[int, bool]]:
    """Smallest vertex adjacent to all others, with completeness of the base.

    Returns (apex, base_is_complete) or None when no universal vertex
    exists.  A one-vertex graph is a degenerate cone over the empty graph.
    """
    if G.n == 1:
        return (1, True)
    for v in G.vertices():
        if G.degree(v) == G.n - 1:
            # v meets every other vertex, so the base is complete iff G is
            return (v, G.is_complete())
    return None


# ---------------------------------------------------------------------------
# graph file format
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> tuple[SimpleGraph, list[str]]:
    """Parse either the line format ('n <count>' then 'e <u> <v>') or a JSON
    object {"n": ..., "edges": [[u,v], ...]}.

    Returns the graph and a list of warnings (duplicate edges); loops,
    malformed lines and non-integer counts or vertices raise
    GraphInputError.
    """
    warnings: list[str] = []
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphInputError(f"bad JSON graph: {exc}") from exc
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise GraphInputError("JSON graph needs fields 'n' and 'edges'")
        n, edges = obj["n"], obj["edges"]
        if not isinstance(edges, list) or any(
            not isinstance(e, list) or len(e) != 2 for e in edges
        ):
            raise GraphInputError("'edges' must be a list of 2-element lists")
        if any(type(x) is not int for x in [n, *itertools.chain(*edges)]):
            raise GraphInputError("'n' and the edge endpoints must be integers")
        raw = [tuple(e) for e in edges]
    else:
        n = None
        raw = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if (parts[0], len(parts)) not in (("n", 2), ("e", 3)):
                raise GraphInputError(f"line {lineno}: unrecognized line {line!r}")
            try:
                nums = tuple(int(x) for x in parts[1:])
            except ValueError:
                raise GraphInputError(f"line {lineno}: non-integer in {line!r}") from None
            if parts[0] == "n":
                if n is not None:
                    raise GraphInputError(f"line {lineno}: duplicate 'n' line")
                n = nums[0]
            else:
                if n is None:
                    raise GraphInputError(f"line {lineno}: 'e' before 'n'")
                raw.append(nums)
        if n is None:
            raise GraphInputError("missing 'n <count>' line")
    seen = set()
    for u, v in raw:
        key = (min(u, v), max(u, v))
        if key in seen:
            warnings.append(f"duplicate edge ({u},{v}) ignored")
        seen.add(key)
    return build_graph(n, raw), warnings


def format_graph(G: SimpleGraph) -> str:
    lines = [f"n {G.n}"]
    lines += [f"e {u} {v}" for u, v in G.edge_list()]
    return "\n".join(lines) + "\n"
