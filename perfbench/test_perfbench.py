"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench

They import vnum from ./src and run trimmed copies of the workloads, so
they take a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from vnum import algebra, enumeration, graphs, verify, vnumbers  # noqa: E402
from vnum.errors import BudgetExceededError  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def fingerprint(inputs) -> str:
    """The inputs as text: graphs by their edges, paths by file name."""

    def describe(value):
        if isinstance(value, graphs.SimpleGraph):
            return f"n={value.n} E={sorted(value.edges)}"
        if isinstance(value, graphs.ClosedStructure):
            return f"closed{value.order}"
        if isinstance(value, (list, tuple)):
            return "(" + ",".join(describe(v) for v in value) + ")"
        if isinstance(value, str) and os.sep in value:
            return os.path.basename(value)
        return repr(value)

    return ";".join(f"{k}={describe(v)}" for k, v in sorted(vars(inputs).items()))


# ---------------------------------------------------------------------------
# percentiles and self time
# ---------------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 90) == 90
    assert sum(1 for v in values if v > tracing.percentile(values, 90)) == 10
    assert tracing.percentile([1, 2, 3, 4], 50) == 2
    assert tracing.percentile([7], 90) == 7
    with pytest.raises(ValueError):
        tracing.percentile([], 50)


def test_p90_keeps_ten_samples_above_it_from_100_items():
    for n in (100, 101, 250):
        values = [float(i) for i in range(n)]
        p90 = tracing.percentile(values, 90)
        assert sum(1 for v in values if v > p90) >= 10


def test_items_are_scaled_by_the_references_around_them(monkeypatch):
    refs = iter([0.002, 0.004])
    monkeypatch.setattr(calibrate, "timed_reference", lambda: next(refs))
    rec = workloads.Recorder()
    rec.call("one", sum, [1, 2])
    (out,) = rec.outputs
    assert out.result == 3 and out.ref_seconds == pytest.approx(0.003)
    assert rec.ref_total == pytest.approx(0.006)
    assert out.scaled == pytest.approx(out.seconds * calibrate.NOMINAL_S / 0.003)


def test_self_time_of_nested_spans():
    tr = tracing.Tracer(FakeClock(0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0, 10.0))
    root = tr.open("root")
    a = tr.open("a")
    tr.close(a)
    b = tr.open("b")
    c = tr.open("c")
    tr.close(c)
    tr.close(b)
    tr.close(root)
    assert tracing.self_times(tr.spans) == [6.0, 2.0, 1.5, 0.5]
    assert [s[3] for s in tr.spans] == [None, 0, 0, 2]


def test_self_time_of_recursive_v_number_on_disjoint_union():
    G = graphs.path_graph(4).disjoint_union(graphs.path_graph(5))
    tr = tracing.Tracer()
    with tracing.installed(tr, layers.SPECS, BudgetExceededError):
        vnumbers.v_number(G, 2)
    spans = tr.spans
    outer = [i for i, s in enumerate(spans) if s[0] == "vnumbers.v_number" and s[3] is None]
    assert len(outer) == 1
    inner = [i for i, s in enumerate(spans) if s[0] == "vnumbers.v_number" and s[3] == outer[0]]
    assert len(inner) == 2
    own = tracing.self_times(spans)
    children = [i for i, s in enumerate(spans) if s[3] == outer[0]]
    dur = spans[outer[0]][2] - spans[outer[0]][1]
    child_dur = sum(spans[i][2] - spans[i][1] for i in children)
    assert own[outer[0]] == pytest.approx(dur - child_dur)
    # self times partition the root span
    assert sum(own) == pytest.approx(dur)
    assert all(t >= 0 for t in own)


def test_generator_spans_time_each_resumption():
    tr = tracing.Tracer()
    with tracing.installed(tr, layers.SPECS, BudgetExceededError):
        consumer = tr.open("consumer")
        got = list(enumeration.connected_graphs_up_to_iso(4))
        tr.close(consumer)
    gen = [i for i, s in enumerate(tr.spans) if s[0] == "enumeration.connected_graphs_up_to_iso"]
    assert len(got) == 6
    assert len(gen) == 7  # one per graph plus the resumption that ends it
    assert tr.counts["enumeration.connected_graphs_up_to_iso.graphs"] == 6
    assert all(tr.spans[i][3] == consumer for i in gen)
    own = tracing.self_times(tr.spans)
    busy = sum(tr.spans[i][2] - tr.spans[i][1] for i in gen)
    total = tr.spans[consumer][2] - tr.spans[consumer][1]
    assert own[consumer] == pytest.approx(total - busy)


def test_wrappers_bind_every_importer_and_are_restored():
    originals = (algebra.colon_poly, verify.colon_poly, algebra.Ideal.groebner,
                 vnumbers.find_closed_labeling)
    tr = tracing.Tracer()
    with tracing.installed(tr, layers.SPECS, BudgetExceededError):
        assert verify.colon_poly is algebra.colon_poly is not originals[0]
        assert vnumbers.find_closed_labeling is graphs.find_closed_labeling
        assert algebra.Ideal.groebner is not originals[2]
    assert (algebra.colon_poly, verify.colon_poly, algebra.Ideal.groebner,
            vnumbers.find_closed_labeling) == originals
    assert verify.colon_poly is originals[0]


def test_budget_errors_are_counted_once():
    tr = tracing.Tracer()
    P5 = graphs.path_graph(5)
    ring = algebra.RingSpec(2, 5)
    tiny = algebra.GBBudget(max_pairs=1, max_degree=8)
    with tracing.installed(tr, layers.SPECS, BudgetExceededError):
        with pytest.raises(BudgetExceededError):
            algebra.brute_local_v(ring, P5, [3], budget=tiny)
    assert tr.counts["algebra.budget_errors"] == 1


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_on_the_seed_only(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    one = fingerprint(wl.build(1, str(tmp_path)))
    again = fingerprint(wl.build(1, str(tmp_path)))
    other = fingerprint(wl.build(2, str(tmp_path)))
    assert one == again
    assert one != other


def test_shuffled_copies_are_not_identity_closed(tmp_path):
    inp = workloads.WORKLOADS["closed-combinatorics"].build(3, str(tmp_path))
    assert all(not graphs.check_closed_labeling(H) for H, _, _ in inp.shuffled)
    small = [H for H, _, _ in inp.shuffled if H.n <= 8]
    assert {H.n for H in small} == {7, 8}
    assert len(small) < len(inp.shuffled)
    # the permutation search finds its first closed labeling in the block
    # of orderings that start with vertex 4
    assert all(graphs.find_closed_labeling(H).order[0] == 4 for H in small)


# ---------------------------------------------------------------------------
# traced against untraced
# ---------------------------------------------------------------------------


def _trimmed(name, tmp_path):
    """A small copy of a workload's inputs, so that a pass takes seconds."""
    wl = workloads.WORKLOADS[name]
    inp = wl.build(5, str(tmp_path))
    if name == "closed-combinatorics":
        inp.noncm = inp.noncm[:2]
        inp.cm = inp.cm[:3]
        inp.shuffled = [s for s in inp.shuffled if s[0].n != 8][:6]
        inp.worked = inp.worked[:1]
    else:
        inp.graphs = [gc for gc in inp.graphs if gc[0].n <= 4]
        inp.probes = inp.probes[:1]
    return wl, inp


def _traced(wl, inp):
    tr = tracing.Tracer()
    with tracing.installed(tr, layers.SPECS, BudgetExceededError):
        _, outputs = worker._run_pass(wl, inp, tr)
    return tr, outputs


@pytest.mark.parametrize("name", ["closed-combinatorics", "powers"])
def test_traced_and_untraced_runs_agree(name, tmp_path):
    wl, inp = _trimmed(name, tmp_path)
    _, plain = worker._run_pass(wl, inp)
    tr, traced = _traced(wl, inp)
    attempted, failed, digest = worker.evaluate(wl, inp, [plain, traced])
    assert failed == 0 and attempted == 2 * len(plain)
    assert digest == workloads.digest(traced, wl.canonical)
    assert tr.spans and all(s[2] is not None for s in tr.spans)
    assert all(s[4] is not None for s in tr.spans)


@pytest.mark.parametrize("name", ["closed-combinatorics", "powers"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    wl, inp = _trimmed(name, tmp_path)
    units = layers.metric_units()
    first = layers.per_layer(_traced(wl, inp)[0])
    second = layers.per_layer(_traced(wl, inp)[0])
    counted = [k for k in first if units[k] != "s"]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    if name == "closed-combinatorics":
        assert all(first[k] == 0 for k in counted if k.startswith("algebra."))
        assert first["cli.main.calls"] == 1
    else:
        assert first["verify.suite_powers.calls"] > 0
        assert first["graphs.find_closed_labeling.calls"] == 0


def test_a_wrong_output_is_counted_as_failed(tmp_path):
    wl, inp = _trimmed("closed-combinatorics", tmp_path)
    _, outputs = worker._run_pass(wl, inp)
    wrong = next(o for o in outputs if o.meta[0] == "cm")
    wrong.result = dataclasses.replace(wrong.result, value=wrong.result.value + 1)
    attempted, failed, _ = worker.evaluate(wl, inp, [outputs, outputs])
    assert (attempted, failed) == (2 * len(outputs), 2)


# ---------------------------------------------------------------------------
# the command and BENCHMARK.json
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()


def test_run_refuses_a_tree_without_sources():
    with tempfile.TemporaryDirectory() as empty:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "oracle",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
