"""Certificate suites: every combinatorial claim checked by exact algebra.

Each suite returns a list of CheckResult records (name, status, detail,
seconds).  Statuses are 'pass', 'fail', 'budget' (a Groebner cap was hit,
reported per check, never silently), or 'skip' (hypotheses of the suite
do not apply to the input, with the reason spelled out).
"""

from __future__ import annotations

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
    colon_poly,
    cut_set_prime,
    ideal_power,
    intersect_many,
    minor,
    monomial_ideal_power,
    monomial_ideals_equal,
    poly_to_text,
    verify_witness,
    witness_polynomial,
    _ini_colon_certificate,
)
from .errors import BudgetExceededError, GraphInputError, VnumError
from .graphs import (
    ClosedStructure,
    SimpleGraph,
    completion_graph,
    enumerate_cut_sets,
    find_closed_labeling,
)
from .vnumbers import local_v_number, probe_power_shift

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
                C = colon_poly(J, Polynomial.variable(ring, i, j))
                if not C.equals(RHS):
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
    extra = []
    for center in (k, l):
        nb = sorted(G.neighbors(center))
        extra.extend(
            (nb[a], nb[b]) for a in range(len(nb)) for b in range(a + 1, len(nb))
        )
    return SimpleGraph(G.n, list(G.edges) + extra)


def suite_colon_nonedge(G: SimpleGraph, m: int = 2) -> list[CheckResult]:
    """(J : [i,j|k,l]) for a non-edge {k,l}: the edge ideal of the graph with
    both endpoint neighborhoods completed, plus one monomial per simple
    path from k to l per row assignment of its interior."""
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
            C = colon_poly(J, minor(ring, (1, 2), (k, l)))
            return C.equals(RHS), f"non-edge ({k},{l})"

        out.append(_run(f"colon-nonedge[m={m},({k},{l})]", body))
    return out


def suite_quadratic_gb(
    G: SimpleGraph, closed: Optional[ClosedStructure], m: int
) -> list[CheckResult]:
    """For a closed-labeled graph the generating minors are the basis."""
    if closed is None or not closed.is_identity():
        return [
            CheckResult(
                f"quadratic-gb[m={m}]",
                "skip",
                "input is not closed under the identity labeling",
                0.0,
            )
        ]
    ring = RingSpec(m, G.n)

    def body():
        J = binomial_edge_ideal(ring, G)
        gb = J.groebner()
        gens = sorted(
            (g.monic() for g in binomial_edge_ideal(ring, G).gens),
            key=lambda g: -g.lt(),
        )
        return list(gb) == gens, f"{len(gb)} basis elements"

    return [_run(f"quadratic-gb[m={m}]", body)]


def suite_witness(
    G: SimpleGraph, closed: Optional[ClosedStructure], m: int
) -> list[CheckResult]:
    """Every cut set's combinatorial witness satisfies (J : f) = P_T with
    the predicted degree."""
    if closed is None or not closed.is_identity():
        return [
            CheckResult(
                f"witness[m={m}]", "skip", "needs a closed-labeled input", 0.0
            )
        ]
    ring = RingSpec(m, G.n)
    J = binomial_edge_ideal(ring, G)
    out = []
    for cut in enumerate_cut_sets(G, closed):

        def body(cut=cut):
            res = local_v_number(G, closed, cut, m)
            spec = res.witness
            f = witness_polynomial(ring, spec.minor_blocks, spec.isolated_vars)
            if f.degree() != res.value:
                return False, f"degree {f.degree()} != predicted {res.value}"
            P = cut_set_prime(ring, G, cut.vertices)
            ok = verify_witness(J, f, P)
            shown = poly_to_text(f)
            if len(shown) > 90:
                shown = shown[:87] + "..."
            return ok, f"T={list(cut.vertices)} deg={res.value} ({res.status}) f={shown}"

        out.append(_run(f"witness[m={m},T={list(cut.vertices)}]", body))
    return out


def suite_brute_vs_formula(
    G: SimpleGraph,
    closed: Optional[ClosedStructure],
) -> list[CheckResult]:
    """Exact oracle value equals the witness degree at every cut set, m=2."""
    if closed is None or not closed.is_identity():
        return [
            CheckResult("brute-vs-formula", "skip", "needs a closed-labeled input", 0.0)
        ]
    ring = RingSpec(2, G.n)
    out = []
    for cut in enumerate_cut_sets(G, closed):

        def body(cut=cut):
            expect = local_v_number(G, closed, cut, 2).value
            got = brute_local_v(ring, G, cut.vertices)[0]
            return got == expect, f"T={list(cut.vertices)}: oracle {got}, formula {expect}"

        out.append(_run(f"brute-vs-formula[T={list(cut.vertices)}]", body))
    return out


def suite_powers(
    G: SimpleGraph,
    closed: Optional[ClosedStructure],
    k_max: int = 3,
    budget: Optional[GBBudget] = None,
) -> list[CheckResult]:
    """Power behavior over a one-vertex-overlap closed graph, m = 2:
    initial ideals of powers are powers of the initial ideal, the colon by
    the leftmost edge binomial peels one power off, and the shifted
    witnesses land on every cut-set prime at the predicted degree.

    The colon identity is certified without a tag elimination whenever the
    monomial colon (ini J^k : ini g) lies inside ini J^{k-1} (the
    certificate of _ini_colon_certificate): together with g J^{k-1} inside
    J^k that pins both the inclusion and the initial ideals, which forces
    equality.  If the monomial route is inconclusive the exact elimination
    runs instead.
    """
    if closed is None or not closed.is_identity() or not closed.is_cm:
        return [
            CheckResult(
                "powers",
                "skip",
                "needs a closed-labeled graph with one-vertex clique overlaps",
                0.0,
            )
        ]
    budget = budget or POWER_BUDGET
    ring = RingSpec(2, G.n)
    J = binomial_edge_ideal(ring, G)
    g = minor(ring, (1, 2), (1, 2))
    out = []
    powers = {1: J}
    for k in range(2, k_max + 1):
        powers[k] = ideal_power(J, k)
    ini1 = [h.lt() for h in J.groebner(budget)]
    for k in range(2, k_max + 1):

        def body_ini(k=k):
            ini_k = [h.lt() for h in powers[k].groebner(budget)]
            want = monomial_ideal_power(ring, ini1, k)
            return (
                monomial_ideals_equal(ring, ini_k, want),
                f"{len(ini_k)} monomial generators",
            )

        out.append(_run(f"power-initial[k={k}]", body_ini))

        def body_colon(k=k):
            prev = powers[k - 1]
            if not all(powers[k].contains(g * h, budget) for h in prev.gens):
                return False, "inclusion g*J^(k-1) in J^k fails"
            if _ini_colon_certificate(powers[k], g, prev, budget):
                return True, "certified by the monomial colon"
            C = colon_poly(powers[k], g, ELIMINATION_BUDGET)
            return C.equals(prev), "checked by tag elimination"

        out.append(_run(f"power-colon[k={k}]", body_colon))

        def body_witness(k=k):
            gk = Polynomial.one(ring)
            for _ in range(k - 1):
                gk = gk * g
            cuts = enumerate_cut_sets(G, closed)
            for cut in cuts:
                res = local_v_number(G, closed, cut, 2)
                spec = res.witness
                f = gk * witness_polynomial(ring, spec.minor_blocks, spec.isolated_vars)
                want_deg = res.value + 2 * (k - 1)
                if f.degree() != want_deg:
                    return False, f"degree bookkeeping off at T={list(cut.vertices)}"
                P = cut_set_prime(ring, G, cut.vertices)
                if not verify_witness(powers[k], f, P, budget):
                    return False, f"witness fails at T={list(cut.vertices)}"
            return True, f"all {len(cuts)} cut sets"

        out.append(_run(f"power-witness[k={k}]", body_witness))
    return out


def suite_power_remark(
    G: SimpleGraph,
    closed: Optional[ClosedStructure],
    m: int,
    T: Iterable[int],
    k: int,
    d_max: Optional[int] = None,
) -> list[CheckResult]:
    """Probe the shift-by-2 upper bound against the oracle witness search."""
    if closed is None or not closed.is_identity():
        return [CheckResult("power-remark", "skip", "needs a closed-labeled input", 0.0)]

    def body():
        rep = probe_power_shift(closed, m, tuple(T), k, d_max)
        found = rep["witness_found"]
        if found is None:
            cap = d_max if d_max is not None else rep["upper_bound"]
            return False, f"no witness found up to degree {cap}"
        verdict = (
            "shift formula fails" if rep.get("shift_formula_fails") else "shift attained"
        )
        return True, (
            f"base {rep['base_local_v']} ({rep['base_status']}), "
            f"upper {rep['upper_bound']}, found degree {found['degree']} "
            f"via {found['via']}: {verdict}"
        )

    return [_run(f"power-remark[m={m},k={k},T={list(T)}]", body)]


SCOPES = ("decomposition", "colon", "quadratic-gb", "witness", "brute-vs-formula", "powers", "power-remark")


def run_suites(
    G: SimpleGraph,
    m: int = 2,
    scope: str = "all",
    k: int = 2,
    cutset: Optional[tuple[int, ...]] = None,
    d_max: Optional[int] = None,
    budget_pairs: Optional[int] = None,
) -> list[CheckResult]:
    """Dispatch the named suite ('all' runs everything applicable).

    ``k`` is the largest power of the power suites, 2 or 3, and the power
    of the power-remark check, any k >= 1."""
    if scope in ("all", "powers") and not 2 <= k <= 3:
        raise GraphInputError(f"scope {scope} checks the powers k = 2..3, got k={k}")
    power_budget = (
        POWER_BUDGET
        if budget_pairs is None
        else GBBudget(budget_pairs, POWER_BUDGET.max_degree)
    )
    closed = find_closed_labeling(G) if G.is_connected() else None
    results: list[CheckResult] = []
    want = SCOPES if scope == "all" else (scope,)
    for s in want:
        if s == "decomposition":
            results += suite_decomposition(G, m)
        elif s == "colon":
            results += suite_colon_variable(G, m)
            if m == 2:
                results += suite_colon_nonedge(G, 2)
        elif s == "quadratic-gb":
            results += suite_quadratic_gb(G, closed, m)
        elif s == "witness":
            results += suite_witness(G, closed, m)
        elif s == "brute-vs-formula":
            results += suite_brute_vs_formula(G, closed)
        elif s == "powers":
            results += suite_powers(G, closed, k, power_budget)
        elif s == "power-remark":
            T = cutset if cutset is not None else _default_probe_cutset(G, closed)
            if T is None:
                results.append(
                    CheckResult("power-remark", "skip", "no nonempty cut set", 0.0)
                )
            else:
                results += suite_power_remark(G, closed, m, T, k, d_max)
        else:
            raise VnumError(f"unknown scope {s!r}")
    return results


def _default_probe_cutset(G, closed) -> Optional[tuple[int, ...]]:
    if closed is None:
        return None
    cuts = [c for c in enumerate_cut_sets(closed.graph, closed) if c.vertices]
    return cuts[0].vertices if cuts else None
