"""The traced layer entry points and the per-layer metrics derived from them.

Span names are ``<module>.<callable>`` after the vnum module that defines
the callable.  Which end-to-end metric each span should move, on which
workload, is written down in README.md.
"""

from __future__ import annotations

from tracing import SpanSpec, Tracer, layer_metrics


def _count_len(key):
    def after(tracer: Tracer, args, result):
        tracer.add(key, len(result))

    return after


def _count_gens(key):
    def after(tracer: Tracer, args, result):
        tracer.add(key, len(result.gens))

    return after


def _groebner_cache_probe(tracer: Tracer, args):
    tracer.add("algebra.Ideal.groebner.cache_hits", 1 if args[0].is_known_groebner() else 0)


SPECS = (
    SpanSpec("graphs.find_closed_labeling", "vnum.graphs", "find_closed_labeling"),
    SpanSpec("graphs.enumerate_cut_sets", "vnum.graphs", "enumerate_cut_sets",
             after=_count_len("graphs.enumerate_cut_sets.cut_sets")),
    SpanSpec("vnumbers.v_number", "vnum.vnumbers", "v_number"),
    SpanSpec("vnumbers.local_v_number", "vnum.vnumbers", "local_v_number"),
    SpanSpec("vnumbers.build_anchor_graph", "vnum.vnumbers", "build_anchor_graph"),
    SpanSpec("vnumbers.minimal_slice_partition", "vnum.vnumbers", "minimal_slice_partition"),
    SpanSpec("cli.main", "vnum.cli", "main"),
    SpanSpec("algebra.brute_local_v", "vnum.algebra", "brute_local_v"),
    SpanSpec("algebra.separating_element", "vnum.algebra", "separating_element"),
    SpanSpec("algebra.colon_poly", "vnum.algebra", "colon_poly"),
    SpanSpec("algebra.intersect", "vnum.algebra", "intersect",
             after=_count_gens("algebra.intersect.basis_size")),
    SpanSpec("algebra.cut_set_prime", "vnum.algebra", "cut_set_prime"),
    SpanSpec("algebra.binomial_edge_ideal", "vnum.algebra", "binomial_edge_ideal"),
    SpanSpec("enumeration.connected_graphs_up_to_iso", "vnum.enumeration",
             "connected_graphs_up_to_iso"),
    SpanSpec("enumeration.closed_graphs", "vnum.enumeration", "closed_graphs"),
    SpanSpec("algebra.Ideal.groebner", "vnum.algebra", "groebner", cls="Ideal",
             before=_groebner_cache_probe,
             after=_count_len("algebra.Ideal.groebner.basis_size")),
    SpanSpec("algebra.Ideal.contains", "vnum.algebra", "contains", cls="Ideal"),
    SpanSpec("algebra.ideal_power", "vnum.algebra", "ideal_power",
             after=_count_gens("algebra.ideal_power.gens")),
    SpanSpec("algebra.verify_witness", "vnum.algebra", "verify_witness"),
    SpanSpec("algebra.search_power_witness", "vnum.algebra", "search_power_witness"),
    SpanSpec("verify.suite_powers", "vnum.verify", "suite_powers"),
)

#: counters recorded beside the spans, with their units
COUNTERS = {
    "graphs.enumerate_cut_sets.cut_sets": "count",
    "algebra.intersect.basis_size": "count",
    "enumeration.connected_graphs_up_to_iso.graphs": "count",
    "enumeration.closed_graphs.graphs": "count",
    "algebra.Ideal.groebner.basis_size": "count",
    "algebra.Ideal.groebner.cache_hit_ratio": "ratio",
    "algebra.ideal_power.gens": "count",
    "algebra.verify_witness.elimination_share": "ratio",
    "algebra.budget_errors": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for spec in SPECS:
        units[spec.name + ".calls"] = "count"
        units[spec.name + ".self_s"] = "s"
    units.update(COUNTERS)
    return units


def per_layer(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (without the two trace.*
    timings, which the caller measures)."""
    raw = layer_metrics(tracer, SPECS)
    calls = raw["algebra.Ideal.groebner.calls"]
    hits = raw.pop("algebra.Ideal.groebner.cache_hits", 0)
    raw["algebra.Ideal.groebner.cache_hit_ratio"] = hits / calls if calls else 0.0
    witness = [i for i, s in enumerate(tracer.spans) if s[0] == "algebra.verify_witness"]
    eliminating = {s[3] for s in tracer.spans if s[0] == "algebra.colon_poly"}
    raw["algebra.verify_witness.elimination_share"] = (
        sum(1 for i in witness if i in eliminating) / len(witness) if witness else 0.0
    )
    units = metric_units()
    return {k: raw.get(k, 0) for k in units if not k.startswith("trace.")}
