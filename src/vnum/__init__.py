"""v-numbers of generalized binomial edge ideals.

Combinatorial formulas on closed graphs (spine chains, cut-set block
decompositions, anchor graphs and their slice partitions) paired with an
exact Groebner-basis oracle that certifies every claim at small scale.

All values are immutable after construction and safe to share across
threads; exhaustive searches and basis computations carry explicit
budgets and raise rather than truncate.
"""

from .errors import (
    BudgetExceededError,
    GraphInputError,
    InstanceTooLargeError,
    NotACutSetError,
    UnsupportedRegimeError,
    VnumError,
)
from .graphs import (
    ClosedStructure,
    CutSet,
    SimpleGraph,
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
from .vnumbers import (
    AnchorGraph,
    SlicePartition,
    VNumberResult,
    WitnessSpec,
    build_anchor_graph,
    classify_small_v,
    cm_v_formula,
    local_v_number,
    local_v_number_of_power,
    minimal_slice_partition,
    optimal_cut_set,
    probe_power_shift,
    v_number,
    v_number_of_power,
    witness_spec,
)
from .algebra import (
    DEFAULT_BUDGET,
    ELIMINATION_BUDGET,
    GBBudget,
    Ideal,
    Polynomial,
    RingSpec,
    binomial_edge_ideal,
    brute_local_v,
    colon_poly,
    cut_set_prime,
    generalized_minor,
    ideal_power,
    intersect,
    intersect_many,
    minor,
    poly_to_text,
    search_power_witness,
    verify_witness,
    witness_polynomial,
)
from .verify import CheckResult, run_suites

__all__ = [name for name in dir() if not name.startswith("_")]
