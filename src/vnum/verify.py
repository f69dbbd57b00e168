"""Certificate suites: every combinatorial claim checked by exact algebra.

Each suite returns a list of CheckResult records (name, status, detail,
seconds).  Statuses are 'pass', 'fail', 'budget' (a Groebner cap was hit,
reported per check, never silently), or 'skip' (hypotheses of the suite
do not apply to the input, with the reason spelled out).

The closed suites (CLOSED_SCOPES) take G = closed.graph, the closed copy
of a closed graph in any labeling, and show cut sets in the input labels.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .algebra import (
    ELIMINATION_BUDGET,
    GBBudget,
    Ideal,
    Polynomial,
    RingSpec,
    binomial_edge_ideal,
    brute_local_v,
    colon_poly,  # unused; perfbench's tracer test binds verify.colon_poly
    cut_set_prime,
    ideal_power,
    intersect_many,
    minor,
    monomial_ideal_power,
    monomial_ideals_equal,
    poly_to_text,
    search_power_witness,
    verify_witness,
    witness_polynomial,
    _colon_route,
)
from .errors import BudgetExceededError, GraphInputError, VnumError
from .graphs import (
    ClosedStructure,
    SimpleGraph,
    completion_graph,
    cut_set_from_vertices,
    enumerate_cut_sets,
    find_closed_labeling,
)
from .vnumbers import local_v_number

#: Powers of edge ideals carry many redundant product generators, so their
#: bases need a larger pair allowance than the plain default.
POWER_BUDGET = GBBudget(max_pairs=1_000_000, max_degree=14)


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | budget | skip
    detail: str
    seconds: float

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
        }


def _run(name: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
        status = "pass" if ok else "fail"
    except BudgetExceededError as exc:
        status, detail = "budget", str(exc)
    return CheckResult(name, status, detail, time.perf_counter() - t0)


def suite_decomposition(
    G: SimpleGraph, m: int, modulus: Optional[int] = 32003
) -> list[CheckResult]:
    """The edge ideal equals the intersection of its cut-set primes."""
    ring = RingSpec(m, G.n, modulus)

    def body():
        J = binomial_edge_ideal(ring, G)
        primes = [
            cut_set_prime(ring, G, c.vertices) for c in enumerate_cut_sets(G)
        ]
        meet = intersect_many(primes)
        ok = meet.equals(J)
        return ok, f"{len(primes)} primes intersected"

    return [_run(f"decomposition[m={m}]", body)]


def suite_colon_variable(
    G: SimpleGraph, m: int, modulus: Optional[int] = 32003
) -> list[CheckResult]:
    """(J : x[i,j]) equals the edge ideal of the completion at j, all i, j."""
    ring = RingSpec(m, G.n, modulus)
    J = binomial_edge_ideal(ring, G)
    out = []
    for j in range(1, G.n + 1):
        RHS = binomial_edge_ideal(ring, completion_graph(G, j))

        def body(j=j, RHS=RHS):
            for i in range(1, m + 1):
                x = Polynomial.variable(ring, i, j)
                if _colon_route(J, x, RHS, ELIMINATION_BUDGET) is None:
                    return False, f"mismatch at x[{i},{j}]"
            return True, f"rows 1..{m} at column {j}"

        out.append(_run(f"colon-variable[m={m},j={j}]", body))
    return out


def _simple_paths(G: SimpleGraph, k: int, l: int) -> list[tuple[int, ...]]:
    paths = []

    def dfs(v, seen, acc):
        if v == l:
            paths.append(tuple(acc[1:-1]))
            return
        for w in sorted(G.neighbors(v)):
            if w not in seen:
                seen.add(w)
                acc.append(w)
                dfs(w, seen, acc)
                acc.pop()
                seen.remove(w)

    dfs(k, {k}, [k])
    return [p for p in paths if p]


def _nonedge_dagger(G: SimpleGraph, k: int, l: int) -> SimpleGraph:
    # l is no neighbour of k, so completing at k leaves l's neighbours alone
    return completion_graph(completion_graph(G, k), l)


def suite_colon_nonedge(G: SimpleGraph, m: int = 2) -> list[CheckResult]:
    """(J : [i,j|k,l]) for a non-edge {k,l}: the edge ideal of the graph with
    both endpoint neighborhoods completed, plus one monomial per simple
    path from k to l per row assignment of its interior, at every m."""
    ring = RingSpec(m, G.n)
    J = binomial_edge_ideal(ring, G)
    out = []
    nonedges = [
        (k, l)
        for k in range(1, G.n + 1)
        for l in range(k + 1, G.n + 1)
        if not G.has_edge(k, l)
    ]
    for k, l in nonedges:

        def body(k=k, l=l):
            gens = list(binomial_edge_ideal(ring, _nonedge_dagger(G, k, l)).gens)
            for interior in _simple_paths(G, k, l):
                for rows in itertools.product(range(1, m + 1), repeat=len(interior)):
                    mono = 0
                    for r, v in zip(rows, interior):
                        mono += ring.var_mono(ring.var_index(r, v))
                    gens.append(Polynomial(ring, {mono: ring.coeff(1)}))
            RHS = Ideal(ring, gens)
            g = minor(ring, (1, 2), (k, l))
            ok = _colon_route(J, g, RHS, ELIMINATION_BUDGET) is not None
            return ok, f"non-edge ({k},{l})"

        out.append(_run(f"colon-nonedge[m={m},({k},{l})]", body))
    return out


def suite_quadratic_gb(
    G: SimpleGraph, closed: Optional[ClosedStructure], m: int
) -> list[CheckResult]:
    """For a closed-labeled graph the generating minors are the basis."""
    ring = RingSpec(m, G.n)
    where = "" if closed is None else " in the lex order of the closed copy"

    def body():
        J = binomial_edge_ideal(ring, G)
        gb = J.groebner()
        gens = sorted(
            (g.monic() for g in J.gens),
            key=lambda g: -g.lt(),
        )
        return list(gb) == gens, f"{len(gb)} basis elements{where}"

    return [_run(f"quadratic-gb[m={m}]", body)]


def suite_witness(G: SimpleGraph, closed: ClosedStructure, m: int) -> list[CheckResult]:
    """Every cut set's combinatorial witness satisfies (J : f) = P_T with
    the predicted degree."""
    ring = RingSpec(m, G.n)
    J = binomial_edge_ideal(ring, G)
    out = []
    for cut in enumerate_cut_sets(G, closed):
        T = closed.input_labels(cut.vertices)

        def body(cut=cut, T=T):
            res = local_v_number(G, closed, cut, m)
            spec = res.witness
            f = witness_polynomial(ring, spec.minor_blocks, spec.isolated_vars)
            if f.degree() != res.value:
                return False, f"degree {f.degree()} != predicted {res.value}"
            P = cut_set_prime(ring, G, cut.vertices)
            ok = verify_witness(J, f, P)
            back = spec.relabel(closed.to_original)
            shown = poly_to_text(witness_polynomial(ring, back.minor_blocks, back.isolated_vars))
            if len(shown) > 90:
                shown = shown[:87] + "..."
            return ok, f"T={T} deg={res.value} ({res.status}) f={shown}"

        out.append(_run(f"witness[m={m},T={T}]", body))
    return out


def suite_brute_vs_formula(G: SimpleGraph, closed: ClosedStructure, m: int) -> list[CheckResult]:
    """Exact oracle value equals the witness degree at every cut set."""
    ring = RingSpec(m, G.n)
    out = []
    for cut in enumerate_cut_sets(G, closed):
        T = closed.input_labels(cut.vertices)

        def body(cut=cut, T=T):
            res = local_v_number(G, closed, cut, m)
            got = brute_local_v(ring, G, cut.vertices)[0]
            return got == res.value, f"T={T}: oracle {got}, formula {res.value} ({res.status})"

        out.append(_run(f"brute-vs-formula[m={m},T={T}]", body))
    return out


def suite_powers(
    G: SimpleGraph,
    closed: ClosedStructure,
    k_max: int = 3,
    budget: GBBudget = POWER_BUDGET,
) -> list[CheckResult]:
    """Power behavior over a one-vertex-overlap closed graph, m = 2:
    initial ideals of powers are powers of the initial ideal, the colon by
    the leftmost edge binomial peels one power off, and the shifted
    witnesses land on every cut-set prime at the predicted degree.

    Each peel (J^j : g) = J^{j-1} is decided once, by _colon_route, the
    route of verify_witness and the colon suites: the inclusion
    g J^{j-1} <= J^j, then the monomial colon (ini J^j : ini g) inside
    ini J^{j-1}, which needs no tag elimination, then the exact elimination
    under the suite's budget.

    A shifted witness g^{k-1} w goes through the peel chain: once the peels
    are proved, by either route, for j = 2..k,
    (J^k : g^{k-1} w) = ((J^k : g^{k-1}) : w) = (J : w), and w lies outside
    P_T, so verify_witness(J, w, P_T) is decided by prime avoidance.  That
    verdict does not depend on k, so, like the peels, it is decided once per
    call, and each cut set's w, P_T and local v-number are built once.  A k
    with a failed peel checks (J^k : g^{k-1} w) = P_T directly.
    """
    if not closed.is_cm:
        return [CheckResult("powers", "skip", "needs one-vertex clique overlaps", 0.0)]
    if not G.edge_count():
        return [CheckResult("powers", "skip", "needs an edge", 0.0)]
    ring = RingSpec(2, G.n)
    J = binomial_edge_ideal(ring, G)
    g = minor(ring, (1, 2), (1, 2))
    out = []
    powers = {k_max: ideal_power(J, k_max)}  # one chain: each basis computed once
    for k in range(k_max, 1, -1):
        powers[k - 1] = powers[k].lower_power

    @functools.cache
    def peel(j):
        return _colon_route(powers[j], g, powers[j - 1], budget)

    @functools.cache
    def bases():
        """Per cut set: the cut, its local v-number, witness w and prime P_T."""
        out = []
        for cut in enumerate_cut_sets(G, closed):
            res = local_v_number(G, closed, cut, 2)
            spec = res.witness
            w = witness_polynomial(ring, spec.minor_blocks, spec.isolated_vars)
            out.append((cut, res.value, w, cut_set_prime(ring, G, cut.vertices)))
        return out

    @functools.cache
    def base_holds(i):
        _, _, w, P = bases()[i]
        return verify_witness(J, w, P, budget)

    for k in range(2, k_max + 1):

        def body_ini(k=k):
            ini_k = [h.lt() for h in powers[k].groebner(budget)]
            want = monomial_ideal_power(ring, [h.lt() for h in J.groebner(budget)], k)
            return (
                monomial_ideals_equal(ring, ini_k, want),
                f"{len(ini_k)} monomial generators",
            )

        out.append(_run(f"power-initial[k={k}]", body_ini))

        def body_colon(k=k):
            route = peel(k)
            if route is None:
                return False, "(J^k : g) differs from J^(k-1)"
            if route == "monomial colon":
                return True, "certified by the monomial colon"
            return True, "checked by tag elimination"

        out.append(_run(f"power-colon[k={k}]", body_colon))

        def body_witness(k=k):
            gk = Polynomial.one(ring)
            for _ in range(k - 1):
                gk = gk * g
            chain = all(peel(j) for j in range(2, k + 1))
            for i, (cut, value, w, P) in enumerate(bases()):
                if gk.degree() + w.degree() != value + 2 * (k - 1):  # deg(gk * w): a domain
                    T = closed.input_labels(cut.vertices)
                    return False, f"degree bookkeeping off at T={T}"
                if not (base_holds(i) if chain else verify_witness(powers[k], gk * w, P, budget)):
                    return False, f"witness fails at T={closed.input_labels(cut.vertices)}"
            return True, f"all {len(bases())} cut sets"

        out.append(_run(f"power-witness[k={k}]", body_witness))
    return out


def suite_power_remark(
    G: SimpleGraph,
    closed: ClosedStructure,
    m: int,
    T: Iterable[int],
    k: int,
    d_max: Optional[int] = None,
    budget: GBBudget = ELIMINATION_BUDGET,
) -> list[CheckResult]:
    """Probe the shift-by-2 upper bound v_T + 2(k-1) for v_T(J^k) against
    the exact witness search at T, a cut set of closed.graph: over
    GF(32003), up to d_max, by default the bound itself, under ``budget``.
    A witness below the bound means the shift formula fails at (T, k)."""

    def body():
        cut = cut_set_from_vertices(G, T, closed)
        base = local_v_number(G, closed, cut, m)
        upper = base.value + 2 * (k - 1)
        cap = upper if d_max is None else d_max
        found = search_power_witness(RingSpec(m, G.n), G, cut.vertices, k, cap, budget)
        if found is None:
            if cap < upper:  # reported as budget by _run
                raise BudgetExceededError(
                    f"no witness up to degree {cap}, below the upper bound {upper}; "
                    "a miss under a cap proves nothing"
                )
            return False, f"no witness found up to degree {cap}"
        verdict = "shift formula fails" if found["degree"] < upper else "shift attained"
        return True, (
            f"base {base.value} ({base.status}), upper {upper}, "
            f"found degree {found['degree']} via {found['via']}: {verdict}"
        )

    return [_run(f"power-remark[m={m},k={k},T={closed.input_labels(T)}]", body)]


#: the scopes whose claims are about a closed labeling
CLOSED_SCOPES = ("quadratic-gb", "witness", "brute-vs-formula", "powers", "power-remark")
SCOPES = ("decomposition", "colon") + CLOSED_SCOPES


def run_suites(
    G: SimpleGraph,
    m: int = 2,
    scope: str = "all",
    k: Optional[int] = None,
    cutset: Optional[tuple[int, ...]] = None,
    d_max: Optional[int] = None,
    budget_pairs: Optional[int] = None,
) -> list[CheckResult]:
    """Dispatch the named suite ('all' runs everything applicable).

    ``k`` is the largest power of the power suites, 2 or 3, and the power
    of the power-remark check, any k >= 1; both default to 2.  ``cutset``
    is in the input labels.  ``budget_pairs`` replaces the pair cap of both
    power suites.  A parameter given to a scope that does not read it
    raises GraphInputError, named by its CLI flag."""
    remark, power = ("all", "power-remark"), ("all", "powers", "power-remark")
    for flag, value, scopes in (
        ("--cutset", cutset, remark), ("--dmax", d_max, remark),
        ("--k", k, power), ("--budget-pairs", budget_pairs, power),
    ):
        if value is not None and scope not in scopes:
            raise GraphInputError(f"{flag} needs scope {' or '.join(scopes)}, not {scope}")
    k = 2 if k is None else k
    if scope in ("all", "powers") and not 2 <= k <= 3:
        raise GraphInputError(f"scope {scope} checks the powers k = 2..3, got k={k}")
    power_budget, remark_budget = POWER_BUDGET, ELIMINATION_BUDGET
    if budget_pairs is not None:  # replaces the pair caps, keeps the degree caps
        power_budget = GBBudget(budget_pairs, POWER_BUDGET.max_degree)
        remark_budget = GBBudget(budget_pairs, ELIMINATION_BUDGET.max_degree)
    try:
        closed = find_closed_labeling(G)
    except GraphInputError:
        if G.n == 0:  # the empty graph stays an input error
            raise
        closed = None  # G is disconnected
    results: list[CheckResult] = []
    want = SCOPES if scope == "all" else (scope,)
    for s in want:
        if s in CLOSED_SCOPES and closed is None:
            results.append(CheckResult(s, "skip", "not a connected closed graph", 0.0))
        elif s == "powers" and m != 2:
            results.append(CheckResult(s, "skip", "needs m = 2", 0.0))
        elif s == "decomposition":
            results += suite_decomposition(G, m)
        elif s == "colon":
            results += suite_colon_variable(G, m)
            results += suite_colon_nonedge(G, m)
        elif s == "quadratic-gb":
            results += suite_quadratic_gb(closed.graph, closed, m)
        elif s == "witness":
            results += suite_witness(closed.graph, closed, m)
        elif s == "brute-vs-formula":
            results += suite_brute_vs_formula(closed.graph, closed, m)
        elif s == "powers":
            results += suite_powers(closed.graph, closed, k, power_budget)
        elif s == "power-remark":
            if cutset is None:
                T = _default_probe_cutset(closed)
            else:
                T = closed.cut_set_from_input(cutset).vertices
            if T is None:
                results.append(CheckResult(s, "skip", "no nonempty cut set", 0.0))
            else:
                results += suite_power_remark(closed.graph, closed, m, T, k, d_max, remark_budget)
        else:
            raise VnumError(f"unknown scope {s!r}")
    return results


def _default_probe_cutset(closed: ClosedStructure) -> Optional[tuple[int, ...]]:
    cuts = [c for c in enumerate_cut_sets(closed.graph, closed) if c.vertices]
    return cuts[0].vertices if cuts else None
