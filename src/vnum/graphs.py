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
from typing import Iterable, Optional, Sequence

from .errors import GraphInputError, InstanceTooLargeError, NotACutSetError

#: Largest n for which 2^n-style subset searches run by default.
DEFAULT_SUBSET_BUDGET = 16


class SimpleGraph:
    """Undirected simple graph on vertices 1..n, no loops, no multi-edges.

    Adjacency is kept both as frozensets (friendly) and as int bitmasks;
    bit v of ``mask[u]`` is set iff {u,v} is an edge.  The masks serve the
    closed labeling: its check, its runs of twins and each vertex's
    largest neighbour.
    """

    __slots__ = ("n", "edges", "_adj", "_mask")

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
        adj = [set() for _ in range(n + 1)]
        mask = [0] * (n + 1)
        for u, v in canon:
            adj[u].add(v)
            adj[v].add(u)
            mask[u] |= 1 << v
            mask[v] |= 1 << u
        self._adj = tuple(frozenset(s) for s in adj)
        self._mask = tuple(mask)

    # -- basic queries ----------------------------------------------------

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (
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
        seen = set(removed)
        comps = []
        for s in self.vertices():
            if s in seen:
                continue
            stack, comp = [s], {s}
            seen.add(s)
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(frozenset(comp))
        return sorted(comps, key=min)

    def component_count(self, removed: frozenset = frozenset()) -> int:
        return len(self.components(removed))

    def is_connected(self) -> bool:
        return self.n <= 1 or self.component_count() == 1

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

    For every edge {i,k} with i < k the whole interval [i,k] must induce a
    clique; with bitmask rows this is a containment test per edge.
    """
    for i, k in G.edges:
        want = ((1 << k) - 1) & ~((1 << (i + 1)) - 1)  # bits i+1 .. k-1
        if G._mask[i] & want != want or G._mask[k] & want != want:
            return False
    return True


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

    @property
    def n(self) -> int:
        return self.graph.n

    def is_identity(self) -> bool:
        return self.order == tuple(range(1, self.graph.n + 1))

    def to_original(self, v: int) -> int:
        return self.order[v - 1]

    def to_record(self) -> dict:
        return {
            "labeling": list(self.order),
            "cliques": [list(c) for c in self.cliques],
            "spine": list(self.spine),
            "cut_vertices": list(self.cut_vertices),
            "is_cm": self.is_cm,
        }


def _interval_cliques(G: SimpleGraph) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """Maximal interval cliques of a connected identity-closed graph, and
    the reach of every vertex.

    It runs only after check_closed_labeling has passed, which both
    branches of find_closed_labeling make sure of.  Then every edge {a, b}
    makes [a, b] a clique, so the reach of a (the largest b with [a, b] a
    clique) is a's largest neighbour, or a itself.  Reaches never decrease
    with a, and [a, b] is maximal exactly when b exceeds the previous reach.
    """
    out = []
    reach = [0]
    for a in G.vertices():
        b = max(a, G._mask[a].bit_length() - 1)
        if b > reach[-1] and (b > a or G.n == 1):
            out.append((a, b))
        reach.append(b)
    return out, tuple(reach)


def _structure_from_identity(G: SimpleGraph, order: tuple[int, ...]) -> ClosedStructure:
    cliques, reach = _interval_cliques(G)
    t = len(cliques)
    if cliques[0][0] != 1 or cliques[-1][1] != G.n:
        raise GraphInputError("interval cliques do not cover 1..n; graph disconnected?")
    for i in range(t - 1):
        if cliques[i + 1][0] > cliques[i][1]:
            raise GraphInputError("consecutive interval cliques do not overlap")
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
    the third sweep is a closed labeling (Corneil 2004).  That labeling is
    turned into the lexicographically first one and re-validated by
    check_closed_labeling, so a present answer is always correct.
    """
    if G.n == 0:
        raise GraphInputError("empty graph has no closed structure")
    if not G.is_connected():
        raise GraphInputError(
            "closed-structure extraction needs a connected graph; "
            "split into components first"
        )
    if check_closed_labeling(G):
        return _structure_from_identity(G, tuple(G.vertices()))
    sweep1 = _lbfs(G, 1, list(G.vertices()))
    sweep2 = _lbfs(G, sweep1[-1], sweep1[::-1])
    sweep3 = _lbfs(G, sweep2[-1], sweep2[::-1])
    if not check_closed_labeling(G.relabel(sweep3)):
        return None
    order = _lex_first_order(G, sweep3)
    H = G.relabel(order)
    if not check_closed_labeling(H):
        raise AssertionError(f"twin-sorted LBFS order {order} is not closed")
    return _structure_from_identity(H, order)


# ---------------------------------------------------------------------------
# cut sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutSet:
    """A cut set T with its block decomposition.

    For a closed graph the blocks are the connected cut sets W_{j_i} in
    increasing order, satisfying max(W_{j_i}) + 1 < min(W_{j_{i+1}}); for
    arbitrary graphs they are the connected components of the induced
    subgraph on T.  ``component_count`` is the number of components of
    G minus T.
    """

    vertices: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    component_count: int

    @property
    def size(self) -> int:
        return len(self.vertices)

    def to_record(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "blocks": [list(b) for b in self.blocks],
            "component_count": self.component_count,
        }


def is_cut_set(G: SimpleGraph, T: Iterable[int]) -> bool:
    """T is a cut set iff each v in T is a cut vertex of G minus (T - {v}).

    Putting v back into G minus T merges exactly the components it has
    neighbours in, so v is such a cut vertex iff it touches at least two
    components of G minus T; those are computed once.
    """
    T = frozenset(T)
    if not T:
        return True
    if not T <= set(G.vertices()):
        return False
    comp_of = {u: i for i, comp in enumerate(G.components(T)) for u in comp}
    return all(
        len({comp_of[w] for w in G.neighbors(v) if w not in T}) >= 2 for v in T
    )


def connected_cut_blocks(closed: ClosedStructure) -> list[tuple[int, int]]:
    """The intervals W_i = F_i cap F_{i+1} for i = 1..t-1."""
    cl = closed.cliques
    return [(cl[i + 1][0], cl[i][1]) for i in range(len(cl) - 1)]


def _check_own_structure(G: SimpleGraph, closed: ClosedStructure) -> None:
    if closed.graph != G:
        raise GraphInputError(
            "the closed structure belongs to another graph; "
            "pass closed.graph and cut sets in the same labels"
        )


def cut_set_from_vertices(
    G: SimpleGraph, vertices: Iterable[int], closed: Optional[ClosedStructure] = None
) -> CutSet:
    """Wrap a verified cut set, recovering the block decomposition.

    With the ClosedStructure of G, T is a cut set exactly when each maximal
    run of consecutive vertices in T is a connected cut set W_j.  Runs are
    at least two apart, so the gap rule of enumerate_cut_sets holds by
    itself, and G minus T has one component more than T has blocks.
    Otherwise is_cut_set decides, and the blocks are the components of the
    subgraph induced on T, that is of G minus the other vertices.
    """
    vs = tuple(sorted(set(vertices)))
    if closed is None:
        if not is_cut_set(G, vs):
            raise NotACutSetError(f"{list(vs)} is not a cut set")
        rest = frozenset(G.vertices()).difference(vs)
        blocks = [tuple(sorted(c)) for c in G.components(rest)]
        return CutSet(vs, tuple(blocks), G.component_count(frozenset(vs)))
    _check_own_structure(G, closed)
    runs: list[list[int]] = []
    for v in vs:
        if runs and v == runs[-1][-1] + 1:
            runs[-1].append(v)
        else:
            runs.append([v])
    wset = set(connected_cut_blocks(closed))
    if any((run[0], run[-1]) not in wset for run in runs):
        raise NotACutSetError(f"{list(vs)} is not a cut set")
    return CutSet(vs, tuple(tuple(run) for run in runs), len(runs) + 1)


def enumerate_cut_sets(
    G: SimpleGraph,
    closed: Optional[ClosedStructure] = None,
    max_generic_n: int = DEFAULT_SUBSET_BUDGET,
) -> list[CutSet]:
    """All cut sets of G, each with its block decomposition.

    With the ClosedStructure of G the list is generated directly from the
    connected cut sets W_i under the gap condition
    max(W_{j_i}) + 1 < min(W_{j_{i+1}}); G minus such a cut set has one
    component more than the cut set has blocks, since what lies before,
    between and after the blocks is a nonempty interval of vertices, and
    so connected (the empty cut set leaves the one component G).
    Otherwise every vertex subset is filtered through is_cut_set, which is
    exponential and therefore capped at ``max_generic_n`` vertices.
    """
    if closed is not None:
        _check_own_structure(G, closed)
        out = [CutSet(vertices=(), blocks=(), component_count=1)]
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
                out.append(
                    CutSet(
                        vertices=vs,
                        blocks=tuple(
                            tuple(range(blocks[idx][0], blocks[idx][1] + 1))
                            for idx in chosen
                        ),
                        component_count=len(chosen) + 1,
                    )
                )
                rec(j + 1)
                chosen.pop()

        rec(0)
        return sorted(out, key=lambda c: (c.size, c.vertices))
    if G.n > max_generic_n:
        raise InstanceTooLargeError(
            f"generic cut-set enumeration needs n <= {max_generic_n}, got {G.n}"
        )
    out = [CutSet(vertices=(), blocks=(), component_count=G.component_count())]
    verts = list(G.vertices())
    for size in range(1, G.n + 1):
        for sub in itertools.combinations(verts, size):
            if is_cut_set(G, sub):
                out.append(cut_set_from_vertices(G, sub))
    return out


# ---------------------------------------------------------------------------
# completions, domination, cones
# ---------------------------------------------------------------------------


def completion_graph(G: SimpleGraph, v: int) -> SimpleGraph:
    """Join all pairs of neighbors of v."""
    if not (1 <= v <= G.n):
        raise GraphInputError(f"vertex {v} outside 1..{G.n}")
    nb = sorted(G.neighbors(v))
    extra = [(nb[i], nb[j]) for i in range(len(nb)) for j in range(i + 1, len(nb))]
    return SimpleGraph(G.n, list(G.edges) + extra)


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

    D is connected when G minus the vertices outside D is; a vertex of D
    outside 1..n raises GraphInputError.
    """
    D, V = frozenset(D), frozenset(G.vertices())
    if not D <= V:
        raise GraphInputError(f"vertices {sorted(D - V)} outside 1..{G.n}")
    if not D:
        return G.is_complete()
    if G.component_count(V - D) != 1:
        return False
    return all(v in D or G.neighbors(v) & D for v in G.vertices())


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
    G: SimpleGraph,
    closed: Optional[ClosedStructure] = None,
    max_n: int = DEFAULT_SUBSET_BUDGET,
) -> int:
    """gamma_c^*(G) for connected G.

    With a ClosedStructure the greedy chain gives the answer directly;
    otherwise subsets are searched by increasing cardinality against the
    verbatim reduced-connected-domination test.
    """
    if not G.is_connected():
        raise GraphInputError("reduced connected domination needs a connected graph")
    if closed is not None:
        return max(len(spine_chain(closed)) - 2, 0)
    if G.n > max_n:
        raise InstanceTooLargeError(
            f"domination search needs n <= {max_n}, got {G.n}"
        )
    verts = list(G.vertices())
    for size in range(G.n + 1):
        for sub in itertools.combinations(verts, size):
            if is_reduced_connected_dominating_set(G, sub):
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
            rest = [u for u in G.vertices() if u != v]
            base_edges = sum(1 for (a, b) in G.edges if a != v and b != v)
            k = len(rest)
            return (v, base_edges == k * (k - 1) // 2)
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
