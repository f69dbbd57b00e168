"""Systematic instance generators for sweeps and surveys.

Closed graphs are generated directly as interval-clique profiles: chains
of intervals [a_1,b_1], ..., [a_t,b_t] with a_1 = 1, b_t = n, both
endpoint sequences strictly increasing, and consecutive intervals
overlapping.  Every such profile is a connected graph that is closed
under the identity labeling with exactly these maximal cliques, and every
connected closed-labeled graph arises this way, so no isomorphism
filtering is needed.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .graphs import ClosedStructure, SimpleGraph, find_closed_labeling, graph_from_intervals


def closed_interval_profiles(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All interval-clique profiles on 1..n, deterministic order."""
    if n == 1:
        yield ((1, 1),)
        return

    def rec(profile: list[tuple[int, int]]):
        a, b = profile[-1]
        if b == n:
            yield tuple(profile)
            return
        for a2 in range(a + 1, b + 1):
            for b2 in range(b + 1, n + 1):
                profile.append((a2, b2))
                yield from rec(profile)
                profile.pop()

    for b1 in range(2, n + 1):
        yield from rec([(1, b1)])


def closed_graphs(n: int) -> Iterator[tuple[SimpleGraph, ClosedStructure]]:
    """Connected closed-labeled graphs on 1..n with their structures."""
    for profile in closed_interval_profiles(n):
        G = graph_from_intervals(n, profile)
        closed = find_closed_labeling(G)
        if closed is None or closed.cliques != profile:
            raise AssertionError(f"profile {profile} did not round-trip")
        yield G, closed


def cm_closed_graphs(n: int) -> Iterator[tuple[SimpleGraph, ClosedStructure]]:
    """Connected closed graphs whose consecutive cliques share one vertex:
    one per choice of interior spine vertices."""
    for interior in _subsets(range(2, n)):
        spine = [1] + list(interior) + [n] if n > 1 else [1]
        profile = tuple((spine[i], spine[i + 1]) for i in range(len(spine) - 1))
        if n == 1:
            profile = ((1, 1),)
        G = graph_from_intervals(n, profile)
        closed = find_closed_labeling(G)
        yield G, closed


def _subsets(rng) -> Iterator[tuple[int, ...]]:
    items = list(rng)
    for size in range(len(items) + 1):
        yield from itertools.combinations(items, size)


def connected_graphs_up_to_iso(n: int) -> Iterator[SimpleGraph]:
    """One representative per isomorphism class of connected graphs on n
    vertices: the first labeled graph of the class in adjacency-bitstring
    order, with the classes in the order of their representatives.

    Orbit marking: the bitstrings are walked in order, and each graph
    yielded has all n! relabelings marked.  So a connected bitstring not
    marked is the first of its class, the graph a canonical form would
    pick, and none is computed.  Intended for small n only.
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    bit = {e: 1 << k for k, e in enumerate(pairs)}
    images = [[bit[min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1])] for u, v in pairs]
              for p in itertools.permutations(range(1, n + 1))]  # each pair's bit, relabeled
    seen = bytearray(1 << len(pairs))  # one flag per bitstring
    for bits in range(1 << len(pairs)):
        if seen[bits]:
            continue
        ks = [k for k in range(len(pairs)) if bits >> k & 1]
        G = SimpleGraph(n, [pairs[k] for k in ks])
        if not G.is_connected():
            continue
        for img in images:
            seen[sum(img[k] for k in ks)] = 1
        yield G
