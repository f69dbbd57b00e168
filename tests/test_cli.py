import collections
import json
import random

import pytest

import vnum.cli

from vnum.algebra import (
    RingSpec, binomial_edge_ideal, brute_local_v, cut_set_prime, verify_witness,
    witness_polynomial,
)
from vnum.cli import main
from vnum.errors import BudgetExceededError
from vnum.verify import CheckResult
from vnum.graphs import (
    complete_graph, enumerate_cut_sets, find_closed_labeling, format_graph,
    graph_from_intervals, path_graph,
)
from vnum.vnumbers import build_anchor_graph, minimal_slice_partition, v_number
from conftest import SPINE_27, T_42


@pytest.fixture
def g27_file(tmp_path, g27):
    p = tmp_path / "g27.txt"
    p.write_text(format_graph(g27))
    return str(p)


@pytest.fixture
def p5_file(tmp_path):
    p = tmp_path / "p5.txt"
    p.write_text(format_graph(path_graph(5)))
    return str(p)


@pytest.fixture
def shuffled_p5_file(tmp_path):
    # the path 2-4-1-3-5: closed, but not under its given labeling
    p = tmp_path / "p5-shuffled.txt"
    p.write_text(format_graph(path_graph(5).relabel((3, 1, 4, 2, 5))))
    return str(p)


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text("n 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_check_closed_27(capsys, g27_file):
    rc, out, _ = run(capsys, "check-closed", g27_file)
    assert rc == 0
    assert "CM): True" in out
    assert str(SPINE_27) in out


def test_check_closed_structured_roundtrip(capsys, g27_file):
    rc, out, _ = run(capsys, "check-closed", g27_file, "--format", "structured")
    assert rc == 0
    rec = json.loads(out)
    assert rec["closed"] is True and rec["is_cm"] is True
    assert rec["spine"] == SPINE_27


def test_check_closed_c4(capsys, c4_file):
    rc, out, _ = run(capsys, "check-closed", c4_file)
    assert rc == 0 and "not closed" in out


def test_check_closed_k4(capsys, tmp_path):
    p = tmp_path / "k4.json"
    p.write_text(json.dumps({"n": 4, "edges": [[i, j] for i in range(1, 5) for j in range(i + 1, 5)]}))
    rc, out, _ = run(capsys, "check-closed", str(p), "--format", "structured")
    assert rc == 0 and json.loads(out)["cliques"] == [[1, 4]]


def test_vnumber_27_m3(capsys, g27_file):
    rc, out, _ = run(capsys, "vnumber", g27_file, "--m", "3", "--format", "structured")
    assert rc == 0
    rec = json.loads(out)
    assert rec["value"] == 8
    assert rec["cut_set"] == [6, 9, 15, 19, 24]
    assert rec["status"] == "proved"


def test_vnumber_power(capsys, p5_file):
    rc, out, _ = run(capsys, "vnumber", p5_file, "--m", "2", "--k", "3", "--format", "structured")
    assert rc == 0
    rec = json.loads(out)
    assert rec["value"] == 2 and rec["power"] == {"k": 3, "value": 6}


def test_vnumber_power_and_witness_on_a_relabeled_path(capsys, p5_file, shuffled_p5_file):
    powers = []
    for path in (p5_file, shuffled_p5_file):
        rc, out, _ = run(capsys, "vnumber", path, "--k", "2", "--format", "structured")
        assert rc == 0
        rec = json.loads(out)
        powers.append(rec["power"])
    assert powers[0] == powers[1] == {"k": 2, "value": 4}
    # the witness printed for the relabeled input is one in its own labels
    assert rec["regime"] == "cm-closed-relabeled"
    ring = RingSpec(2, 5)
    H = path_graph(5).relabel((3, 1, 4, 2, 5))
    w = rec["witness"]
    f = witness_polynomial(ring, w["minor_blocks"], w["isolated_vars"])
    assert f.degree() == rec["value"]
    assert verify_witness(
        binomial_edge_ideal(ring, H), f, cut_set_prime(ring, H, rec["cut_set"])
    )


def test_vnumber_k6(capsys, tmp_path):
    p = tmp_path / "k6.txt"
    p.write_text(format_graph(graph_from_intervals(6, [(1, 6)])))
    rc, out, _ = run(capsys, "vnumber", str(p), "--format", "structured")
    assert rc == 0 and json.loads(out)["value"] == 0


def test_vnumber_power_unsupported(capsys, tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(format_graph(graph_from_intervals(5, [(1, 3), (2, 5)])))
    rc, _, err = run(capsys, "vnumber", str(p), "--m", "2", "--k", "2")
    assert rc == 2 and "one-vertex" in err


def test_vnumber_power_needs_an_edge(capsys, tmp_path):
    p = tmp_path / "k1.txt"
    p.write_text("n 1\n")
    rc, out, err = run(capsys, "vnumber", str(p), "--k", "2")
    assert rc == 2 and out == "" and "power values need an edge" in err
    rc, out, _ = run(capsys, "vnumber", str(p), "--format", "structured")
    assert rc == 0 and json.loads(out)["value"] == 0


def test_vnumber_power_finds_the_labeling_once(capsys, monkeypatch, tmp_path):
    # a 7-vertex closed graph with one-vertex overlaps, not closed as given
    G = graph_from_intervals(7, [(1, 3), (3, 4), (4, 7)]).relabel((5, 2, 7, 1, 4, 6, 3))
    p = tmp_path / "g7.txt"
    p.write_text(format_graph(G))
    calls = []

    def counting(*args, real=find_closed_labeling):
        calls.append(1)
        return real(*args)

    for module in ("graphs", "vnumbers", "cli"):
        monkeypatch.setattr(f"vnum.{module}.find_closed_labeling", counting)
    rc, out, _ = run(capsys, "vnumber", str(p), "--k", "2", "--format", "structured")
    assert rc == 0
    rec = json.loads(out)
    assert rec["regime"] == "cm-closed-relabeled"
    assert rec["power"] == {"k": 2, "value": rec["value"] + 2}
    assert len(calls) <= 1


def test_local_42(capsys, tmp_path, g42):
    p = tmp_path / "g42.txt"
    p.write_text(format_graph(g42))
    rc, out, _ = run(
        capsys, "local", str(p), "--m", "2",
        "--cutset", "3,4,9,10,12,13,15,16,29,30,33,34", "--format", "structured",
    )
    assert rc == 0
    # the whole record, partition, witness and anchor edges included
    slices = [[1, 6], [6, 11], [11, 14], [14, 19], [27, 31], [31, 37]]
    assert json.loads(out) == {
        "command": "local",
        "m": 2,
        "value": 15,
        "status": "proved",
        "regime": "closed-m2",
        "cut_set": T_42,
        "anchor_graph": {
            "paths": [[1, 6, 11, 14, 19], [27, 31, 37]],
            "isolated": [21, 24, 40],
            "edges": slices,
        },
        "partition": {"m": 2, "slices": slices, "isolated": [21, 24, 40], "degree": 15},
        "witness": {"minor_blocks": slices, "isolated_vars": [21, 24, 40], "degree": 15},
        "witness_terms": [f"det(rows 1..2, cols {s})" for s in slices]
        + ["x[1,21]", "x[1,24]", "x[1,40]"],
    }


def test_local_42_table_lists_the_runs(capsys, tmp_path, g42):
    p = tmp_path / "g42.txt"
    p.write_text(format_graph(g42))
    rc, out, _ = run(capsys, "local", str(p), "--m", "2", "--cutset", ",".join(map(str, T_42)))
    assert rc == 0
    assert out.splitlines()[0] == (
        f"cut set: {T_42} "
        "(blocks [[3, 4], [9, 10], [12, 13], [15, 16], [29, 30], [33, 34]])"
    )


def test_local_builds_the_anchor_graph_once(capsys, monkeypatch, tmp_path, g42):
    p = tmp_path / "g42.txt"
    p.write_text(format_graph(g42))
    calls = []
    for real in (build_anchor_graph, minimal_slice_partition):
        def counting(*args, real=real):
            calls.append(real.__name__)
            return real(*args)

        monkeypatch.setattr(f"vnum.vnumbers.{real.__name__}", counting)
        # a binding of its own in the CLI would be counted too
        monkeypatch.setattr(f"vnum.cli.{real.__name__}", counting, raising=False)
    rc, _, _ = run(capsys, "local", str(p), "--m", "2", "--cutset", ",".join(map(str, T_42)))
    assert rc == 0
    assert sorted(calls) == ["build_anchor_graph", "minimal_slice_partition"]


def test_local_empty_cutset(capsys, p5_file):
    rc, out, _ = run(capsys, "local", p5_file, "--cutset", "", "--format", "structured")
    assert rc == 0 and json.loads(out)["value"] == 3


def test_local_bad_cutset(capsys, p5_file):
    rc, _, err = run(capsys, "local", p5_file, "--cutset", "2,3")
    assert rc == 2 and "cut set" in err


def _under(rec, label):
    """An identity-labeled ``vnum local`` record with each vertex v renamed
    label[v - 1]: vertex sets and minor columns sorted, paths in order."""
    def sort(vs):
        return sorted(label[v - 1] for v in vs)

    def path(vs):
        return [label[v - 1] for v in vs]

    w = rec["witness"]
    blocks, iso = [sort(b) for b in w["minor_blocks"]], sort(w["isolated_vars"])
    out = dict(rec, regime=rec["regime"] + "-relabeled", cut_set=sort(rec["cut_set"]),
               witness=dict(w, minor_blocks=blocks, isolated_vars=iso))
    out["witness_terms"] = [f"det(rows 1..{len(b)}, cols {b})" for b in blocks]
    out["witness_terms"] += [f"x[1,{v}]" for v in iso]
    if "anchor_graph" in rec:
        a = rec["anchor_graph"]
        out["anchor_graph"] = {"paths": [path(c) for c in a["paths"]],
                               "isolated": sort(a["isolated"]),
                               "edges": [path(e) for e in a["edges"]]}
        out["partition"] = dict(rec["partition"], slices=blocks, isolated=iso)
    return out


@pytest.mark.parametrize("m", ["2", "3"])
def test_local_on_a_relabeled_path_answers_in_the_input_labels(capsys, p5_file,
                                                               shuffled_p5_file, m):
    # the input is the path 2-4-1-3-5, so P5's vertex v has the input label
    # label[v - 1]; at every cut set its record is P5's under that labeling
    label = (2, 4, 1, 3, 5)
    P5 = path_graph(5)
    cuts = enumerate_cut_sets(P5, find_closed_labeling(P5))
    assert len(cuts) == 5
    for cut in cuts:
        shown = [str(label[v - 1]) for v in cut.vertices]
        rc, out, _ = run(capsys, "local", p5_file, "--m", m, "--format", "structured",
                         "--cutset", ",".join(map(str, cut.vertices)))
        assert rc == 0
        want = _under(json.loads(out), label)
        rc, out, _ = run(capsys, "local", shuffled_p5_file, "--m", m,
                         "--format", "structured", "--cutset", ",".join(shown))
        assert rc == 0 and json.loads(out) == want, cut


def test_local_table_on_a_relabeled_path(capsys, shuffled_p5_file):
    # removing 4 and 3 from the path 2-4-1-3-5 leaves 2, 1 and 5; the
    # blocks come in the order of the closed copy, 4 before 3
    rc, out, _ = run(capsys, "local", shuffled_p5_file, "--cutset", "3,4")
    assert rc == 0 and out.splitlines() == [
        "cut set: [3, 4] (blocks [[4], [3]])",
        "anchor paths: [[2, 1, 5]]",
        "isolated: []",
        "optimal partition slices: [[1, 2], [1, 5]]",
        "local v-number: 4  [proved]",
        "witness: det(rows 1..2, cols [1, 2]) * det(rows 1..2, cols [1, 5])",
    ]


@pytest.mark.parametrize("cutset,shown", [("9", "[9]"), ("0", "[0]"), ("2", "[2]"),
                                          ("4,1", "[1, 4]")])
def test_local_rejects_non_cut_sets_in_the_input_labels(capsys, shuffled_p5_file,
                                                        cutset, shown):
    # 9 and 0 are no vertices, 2 is an end of the path 2-4-1-3-5, and 4
    # is no cut vertex once 1 is removed
    rc, out, err = run(capsys, "local", shuffled_p5_file, "--cutset", cutset)
    assert rc == 2 and out == "" and f"{shown} is not a cut set" in err


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.txt"
    p.write_text(format_graph(path_graph(4)))
    return str(p)


def _checks(capsys, *argv):
    rc, out, _ = run(capsys, "verify", *argv, "--format", "structured")
    return rc, [(c["name"], c["status"], c["detail"]) for c in json.loads(out)["checks"]]


def test_verify_brute_vs_formula_honours_m(capsys, p5_file):
    # at m = 3 the anchor path 1-3-5 of T = {2, 4} is one slice, degree 3;
    # at m = 2 it would be two slices, degree 4
    rc, checks = _checks(capsys, p5_file, "--scope", "brute-vs-formula", "--m", "3")
    assert rc == 0 and checks == [
        (f"brute-vs-formula[m=3,T={T}]", "pass", f"T={T}: oracle {v}, formula {v} (proved)")
        for T, v in (([], 3), ([2], 3), ([3], 2), ([4], 3), ([2, 4], 3))
    ]


@pytest.mark.parametrize("scope,ran", [("powers", []), ("colon", [1, 2, 3, 4])])
def test_verify_m2_suites_skip_at_other_m(capsys, p4_file, scope, ran):
    # the power suite checks m = 2 claims; at m = 3 it says so in one skip
    # record instead of running at m = 2.  Both colon suites run at m = 3,
    # the non-edge one at P4's non-edges
    rc, checks = _checks(capsys, p4_file, "--scope", scope, "--m", "3")
    tail = [("powers", "skip")] if scope == "powers" else [
        (f"colon-nonedge[m=3,({k},{l})]", "pass") for k, l in ((1, 3), (1, 4), (2, 4))
    ]
    assert rc == 0 and [c[:2] for c in checks] == [
        (f"colon-variable[m=3,j={j}]", "pass") for j in ran
    ] + tail
    assert scope != "powers" or checks[-1][2] == "needs m = 2"


def test_verify_all_p4(capsys, tmp_path):
    p = tmp_path / "p4.txt"
    p.write_text(format_graph(path_graph(4)))
    rc, out, _ = run(capsys, "verify", str(p), "--scope", "all", "--format", "structured")
    assert rc == 0
    rec = json.loads(out)
    assert rec["summary"]["fail"] == 0
    assert rec["summary"]["pass"] > 10


def test_verify_power_remark(capsys, p5_file):
    rc, out, _ = run(
        capsys, "verify", p5_file, "--scope", "power-remark", "--m", "3",
        "--k", "2", "--cutset", "3", "--format", "structured",
    )
    assert rc == 0
    rec = json.loads(out)
    assert rec["checks"][0]["status"] == "pass"
    assert "found degree 3" in rec["checks"][0]["detail"]


def test_verify_vacuous_k3(capsys, tmp_path):
    p = tmp_path / "k3.txt"
    p.write_text(format_graph(graph_from_intervals(3, [(1, 3)])))
    rc, out, _ = run(capsys, "verify", str(p), "--scope", "all", "--format", "structured")
    assert rc == 0 and json.loads(out)["summary"]["fail"] == 0


def test_verify_all_on_one_vertex_skips_the_powers(capsys, tmp_path):
    p = tmp_path / "k1.txt"
    p.write_text("n 1\n")
    rc, out, _ = run(capsys, "verify", str(p), "--scope", "all", "--format", "structured")
    assert rc == 0
    rec = json.loads(out)
    assert rec["summary"]["fail"] == 0
    powers = next(c for c in rec["checks"] if c["name"] == "powers")
    assert (powers["status"], powers["detail"]) == ("skip", "needs an edge")


def test_verify_budget_pairs_exits_budget(capsys, tmp_path):
    # K4's power checks at k = 2 need 8 S-pairs in one basis run, so a
    # budget of 7 overruns and exits 3
    p = tmp_path / "k4.txt"
    p.write_text(format_graph(complete_graph(4)))
    argv = ("verify", str(p), "--scope", "powers", "--k", "2", "--format", "structured")
    rc, out, _ = run(capsys, *argv, "--budget-pairs", "7")
    assert rc == 3
    assert json.loads(out)["summary"]["budget"] > 0
    rc, out, _ = run(capsys, *argv, "--budget-pairs", "8")
    assert rc == 0 and json.loads(out)["summary"]["budget"] == 0


def test_verify_budget_pairs_caps_the_power_remark_search(capsys, tmp_path):
    # P4's power-remark probe at m = 3 needs 9 S-pairs in one basis run;
    # under scope all the cap reaches it too, past the powers checks
    p = tmp_path / "p4.txt"
    p.write_text(format_graph(path_graph(4)))
    argv = ("verify", str(p), "--m", "3", "--format", "structured")
    rc, out, _ = run(capsys, *argv, "--scope", "power-remark", "--budget-pairs", "8")
    assert rc == 3
    assert [c["status"] for c in json.loads(out)["checks"]] == ["budget"]
    rc, out, _ = run(capsys, *argv, "--scope", "power-remark", "--budget-pairs", "9")
    assert rc == 0 and json.loads(out)["summary"]["budget"] == 0
    rc, out, _ = run(capsys, *argv, "--scope", "all", "--budget-pairs", "8")
    budget = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "budget"]
    assert rc == 3 and budget == ["power-remark[m=3,k=2,T=[2]]"]


@pytest.mark.parametrize("scope", ["decomposition", "colon", "quadratic-gb", "witness",
                                   "brute-vs-formula"])
@pytest.mark.parametrize("flags", [["--k", "3"], ["--k", "2"], ["--budget-pairs", "5"]])
def test_verify_power_flags_need_a_power_scope(capsys, p5_file, scope, flags):
    rc, out, err = run(capsys, "verify", p5_file, "--scope", scope, *flags)
    assert rc == 2 and out == "" and "needs scope all or powers or power-remark" in err


def test_budget_pairs_only_on_verify(capsys, p5_file):
    with pytest.raises(SystemExit) as exc:
        main(["vnumber", p5_file, "--budget-pairs", "5"])
    assert exc.value.code == 2


def test_budget_n_only_on_vnumber(capsys, p5_file):
    with pytest.raises(SystemExit) as exc:
        main(["local", p5_file, "--cutset", "3", "--budget-n", "1"])
    assert exc.value.code == 2
    rc, out, _ = run(capsys, "vnumber", p5_file, "--budget-n", "1", "--format", "structured")
    assert rc == 0 and json.loads(out)["value"] == 2


@pytest.mark.parametrize("value", ["0", "-1"])
def test_budget_n_rejects_values_below_one(capsys, p5_file, value):
    with pytest.raises(SystemExit) as exc:
        main(["vnumber", p5_file, "--budget-n", value])
    assert exc.value.code == 2
    assert "--budget-n: must be >= 1" in capsys.readouterr().err


def _oracle_over_budget(*args, **kw):
    raise BudgetExceededError("S-pair budget of 1 exceeded")


def test_vnumber_oracle_miss_exits_budget(capsys, monkeypatch, p5_file):
    monkeypatch.setattr("vnum.algebra.brute_local_v", _oracle_over_budget)
    rc, _, err = run(capsys, "vnumber", p5_file, "--oracle")
    assert rc == 3 and "S-pair budget" in err


def test_vnumber_oracle_needs_a_connected_graph(capsys, tmp_path):
    p = tmp_path / "two-edges.txt"
    p.write_text("n 4\ne 1 2\ne 3 4\n")
    rc, out, err = run(capsys, "vnumber", str(p), "--oracle")
    assert rc == 2 and out == "" and "error: --oracle needs a connected graph" in err


def _forced_fail(G, closed, m):
    return [CheckResult(f"quadratic-gb[m={m}]", "fail", "forced", 0.0)]


def test_verify_failure_exits_verify(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("vnum.verify.suite_quadratic_gb", _forced_fail)
    p = tmp_path / "p4.txt"
    p.write_text(format_graph(path_graph(4)))
    argv = ("verify", str(p), "--m", "3", "--format", "structured")
    rc, out, _ = run(capsys, *argv, "--scope", "quadratic-gb")
    assert rc == 4 and json.loads(out)["summary"]["fail"] == 1
    # a failure outranks a budget overrun: the power-remark cap of 8
    # S-pairs is hit in the same run (see the budget-pairs test above)
    rc, out, _ = run(capsys, *argv, "--scope", "all", "--budget-pairs", "8")
    summary = json.loads(out)["summary"]
    assert rc == 4 and summary["fail"] == 1 and summary["budget"] == 1


def test_vnumber_oracle_disagreement_exits_verify(capsys, monkeypatch, p5_file):
    monkeypatch.setattr("vnum.cli._least_oracle_value", lambda G, m, cuts: (3, None))
    rc, out, _ = run(capsys, "vnumber", p5_file, "--oracle")
    assert rc == 4 and "oracle cross-check: 3 (DISAGREES)" in out
    rc, out, _ = run(capsys, "vnumber", p5_file, "--oracle", "--format", "structured")
    rec = json.loads(out)
    assert rc == 4 and rec["value"] == 2 and rec["oracle_v"] == 3
    assert rec["oracle_agrees"] is False and rec["oracle_is_value"] is False


def test_survey_oracle_disagreement_exits_verify(capsys, monkeypatch):
    real, calls = vnum.cli._least_oracle_value, []

    def one_wrong(G, m, cuts):
        value, cut = real(G, m, cuts)
        calls.append(G)
        return (value + 1 if len(calls) == 2 else value), cut

    monkeypatch.setattr("vnum.cli._least_oracle_value", one_wrong)
    rc, out, _ = run(capsys, "survey", "--n-max", "3", "--oracle")
    assert rc == 4 and len(calls) >= 2
    assert out.count("DISAGREE") == 1 and out.rstrip().endswith("disagreements: 1")
    calls.clear()
    rc, out, _ = run(capsys, "survey", "--n-max", "3", "--oracle", "--format", "structured")
    rec = json.loads(out)
    assert rc == 4 and rec["disagreements"] == 1
    assert [r["agree"] for r in rec["rows"]].count(False) == 1


def test_survey_oracle_miss_exits_budget(capsys, monkeypatch):
    monkeypatch.setattr("vnum.algebra.brute_local_v", _oracle_over_budget)
    rc, _, err = run(capsys, "survey", "--n-max", "3", "--oracle")
    assert rc == 3 and "S-pair budget" in err


def test_generic_value_is_the_least_oracle_answer(capsys, tmp_path, c5):
    # c5 is neither closed nor a cone, so v_number takes the oracle route;
    # its cut set is the least (value, vertices) over the oracle's answers
    p = tmp_path / "c5.txt"
    p.write_text(format_graph(c5))
    rc, out, _ = run(capsys, "vnumber", str(p), "--oracle", "--format", "structured")
    rec = json.loads(out)
    assert rc == 0 and rec["regime"] == "generic-oracle"
    assert rec["oracle_v"] == rec["value"] == v_number(c5, 2).value
    ring = RingSpec(2, 5)
    answers = [(brute_local_v(ring, c5, c.vertices)[0], c.vertices)
               for c in enumerate_cut_sets(c5)]
    assert (rec["value"], tuple(rec["cut_set"])) == min(answers)


def test_vnumber_oracle_reuses_the_generic_value(capsys, monkeypatch, tmp_path, c5,
                                                  p5_file):
    # c5 has 6 cut sets; the generic branch already asks the oracle once
    # for each, and the cross-check must not ask again
    calls = []

    def counting(*args, **kw):
        calls.append(args[2])
        return brute_local_v(*args, **kw)

    monkeypatch.setattr("vnum.algebra.brute_local_v", counting)
    p = tmp_path / "c5.txt"
    p.write_text(format_graph(c5))
    rc, out, _ = run(capsys, "vnumber", str(p), "--oracle", "--format", "structured")
    rec = json.loads(out)
    assert rc == 0 and rec["oracle_is_value"] is True and rec["oracle_agrees"] is True
    assert len(enumerate_cut_sets(c5)) == len(calls) == 6
    rc, out, _ = run(capsys, "vnumber", str(p), "--oracle")
    assert "(the value is the oracle's own)" in out
    # a closed graph's value comes from the formulas, so the oracle runs
    # once per cut set for a real cross-check
    calls.clear()
    rc, out, _ = run(capsys, "vnumber", p5_file, "--oracle", "--format", "structured")
    rec = json.loads(out)
    assert rc == 0 and rec["oracle_is_value"] is False and rec["oracle_agrees"] is True
    assert len(calls) == len(enumerate_cut_sets(path_graph(5)))


def test_survey(capsys):
    rc, out, _ = run(capsys, "survey", "--n-max", "4", "--m", "2", "--oracle",
                     "--format", "structured")
    assert rc == 0
    rec = json.loads(out)
    assert rec["disagreements"] == 0
    assert len(rec["rows"]) == 1 + 2 + 5
    single_edge = [r for r in rec["rows"] if r["n"] == 2]
    assert single_edge[0]["v"] == 0


def test_missing_file(capsys):
    rc, _, err = run(capsys, "vnumber", "/nonexistent/file.txt")
    assert rc == 2 and "cannot read" in err


def test_loop_edge_rejected(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("n 3\ne 1 1\n")
    rc, _, err = run(capsys, "check-closed", str(p))
    assert rc == 2 and "loop" in err


@pytest.mark.parametrize("text", [
    "n five\n",
    "n 3\ne 1 x\n",
    '{"n": "3", "edges": [[1, 2]]}',
    '{"n": 3, "edges": [[1, "a"]]}',
    '{"n": 3, "edges": 5}',
])
def test_malformed_graph_file_exits_input(capsys, tmp_path, text):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    rc, out, err = run(capsys, "check-closed", str(p))
    assert rc == 2 and out == "" and err.startswith("error: ")


def test_duplicate_edge_warns(capsys, tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("n 3\ne 1 2\ne 2 1\ne 2 3\n")
    rc, out, err = run(capsys, "check-closed", str(p))
    assert rc == 0 and "duplicate" in err


@pytest.mark.parametrize("value", ["1", "0"])
def test_survey_rejects_n_max_below_two(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--n-max", value])
    assert exc.value.code == 2
    assert "--n-max: must be >= 2" in capsys.readouterr().err


def test_verify_dmax_rejects_negative(capsys, p5_file):
    with pytest.raises(SystemExit) as exc:
        main(["verify", p5_file, "--scope", "power-remark", "--m", "3", "--k", "2",
              "--cutset", "3", "--dmax", "-1"])
    assert exc.value.code == 2
    assert "--dmax: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--dmax", "7"], ["--cutset", "3"],
                                   ["--dmax", "7", "--cutset", "9"]])
def test_verify_power_remark_flags_need_that_scope(capsys, p5_file, flags):
    rc, _, err = run(capsys, "verify", p5_file, "--scope", "decomposition", *flags)
    assert rc == 2 and "power-remark" in err


def test_verify_cutset_is_read_in_the_input_labels(capsys, shuffled_p5_file):
    rc, out, _ = run(capsys, "verify", shuffled_p5_file, "--scope", "power-remark",
                     "--cutset", "4", "--format", "structured")
    checks = json.loads(out)["checks"]
    assert rc == 0 and [(c["name"], c["status"]) for c in checks] == [
        ("power-remark[m=2,k=2,T=[4]]", "pass")
    ]


@pytest.mark.parametrize("cutset,shown", [("9", "[9]"), ("0", "[0]"), ("2", "[2]"),
                                          ("4,1", "[1, 4]")])
def test_verify_cutset_rejects_non_cut_sets_of_a_relabeled_graph(
    capsys, shuffled_p5_file, cutset, shown
):
    # 9 and 0 are no vertices, 2 is an end of the path 2-4-1-3-5, and 4
    # is no cut vertex once 1 is removed
    rc, out, err = run(capsys, "verify", shuffled_p5_file, "--scope", "power-remark",
                       "--cutset", cutset)
    assert rc == 2 and out == "" and f"{shown} is not a cut set" in err


def test_verify_dmax_honoured_with_scope_all(capsys, p5_file):
    rc, out, _ = run(capsys, "verify", p5_file, "--scope", "all", "--m", "3", "--dmax", "1",
                     "--format", "structured")
    assert rc == 3
    remark = [c for c in json.loads(out)["checks"] if c["name"].startswith("power-remark")]
    assert [c["status"] for c in remark] == ["budget"]
    assert "no witness up to degree 1, below the upper bound" in remark[0]["detail"]


@pytest.mark.parametrize("scope,k", [("powers", "1"), ("powers", "4"), ("all", "1"),
                                     ("all", "5")])
def test_verify_power_suites_reject_k_outside_two_to_three(capsys, p5_file, scope, k):
    rc, out, err = run(capsys, "verify", p5_file, "--scope", scope, "--k", k)
    assert rc == 2 and out == "" and "k = 2..3" in err


def test_verify_powers_honours_k_three(capsys, p5_file):
    rc, out, _ = run(capsys, "verify", p5_file, "--scope", "powers", "--k", "3",
                     "--format", "structured")
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert rc == 0 and "power-initial[k=3]" in names


def test_verify_power_remark_takes_k_one(capsys, p5_file):
    rc, out, _ = run(capsys, "verify", p5_file, "--scope", "power-remark", "--k", "1",
                     "--format", "structured")
    checks = json.loads(out)["checks"]
    assert rc == 0 and [(c["name"], c["status"]) for c in checks] == [
        ("power-remark[m=2,k=1,T=[2]]", "pass")
    ]


@pytest.mark.parametrize("command, flag", [
    pytest.param("verify", "--k", id="--k"),
    pytest.param("verify", "--budget-pairs", id="--budget-pairs"),
    pytest.param("vnumber", "--k", id="vnumber---k"),
])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_k_and_budget_pairs_reject_values_below_one(capsys, p5_file, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, p5_file, flag, value])
    assert exc.value.code == 2
    assert f"{flag}: must be >= 1" in capsys.readouterr().err


def test_check_closed_rejects_m(capsys, p5_file):
    with pytest.raises(SystemExit) as exc:
        main(["check-closed", p5_file, "--m", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["vnumber", None], ["local", None, "--cutset", "3"],
                                  ["verify", None], ["survey", "--n-max", "3"]])
def test_m_rejects_values_below_two(capsys, p5_file, argv):
    # None stands for the input file
    with pytest.raises(SystemExit) as exc:
        main([p5_file if a is None else a for a in argv] + ["--m", "1"])
    assert exc.value.code == 2
    assert "--m: must be >= 2" in capsys.readouterr().err


def _fuzz_graph_text(rng):
    """A graph file with n <= 5: well-formed, or broken in one of many ways."""
    n = rng.randint(1, 5)
    edges = [[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.6]
    broken = rng.random() < 0.4
    if broken and rng.random() < 0.4:  # a loop, an endpoint out of range, a float or a string
        edges.append(rng.choice([[1, 1], [0, 1], [1, n + 1], [-1, 2], [1.5, 2], ["1", 2]]))
    bad_n = rng.choice([0, -1, "5", 2.0, True, None]) if broken and rng.random() < 0.3 else n
    if rng.random() < 0.3:
        obj = {"n": bad_n, "edges": edges}
        if broken:
            obj = rng.choice([obj, [obj], {"n": n}, {"edges": edges}, {"n": n, "edges": [edges]},
                              {"n": n, "edges": 7}, {"n": n, "edges": [[1, 2, 3]]}])
        text = json.dumps(obj)
        return rng.choice([text, text[:-1], text + "x"]) if broken else text
    lines = [f"n {bad_n}"] + [f"e {u} {v}" for u, v in edges]
    if broken and rng.random() < 0.5:  # a line that is not 'n <count>' or 'e <u> <v>'
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(
            ["e 1", "e 1 2 3", "1 2", "n 3", "x", "e a b", "n", "e 1 2"]))
    return "\n".join(lines) + rng.choice(["\n", "", "\n# comment\n"])


#: the flags of each subcommand, and random values for each flag: valid
#: ones, then invalid ones
_FUZZ_FLAGS = {
    "check-closed": ("--format",),
    "vnumber": ("--m", "--format", "--k", "--oracle", "--budget-n"),
    "local": ("--m", "--format", "--cutset"),
    "verify": ("--m", "--format", "--scope", "--k", "--cutset", "--dmax", "--budget-pairs"),
    "survey": ("--m", "--format", "--n-max", "--oracle"),
}
_FUZZ_VALUES = {
    "--m": (["2", "2", "3"], ["1", "x"]),
    "--format": (["table", "structured"], ["xml"]),
    "--k": (["1", "2", "3", "4"], ["0", "x"]),
    "--oracle": None,
    "--budget-n": (["1", "4", "6"], ["0", "x"]),
    "--cutset": (["", "1", "2", "3", "2,3", "3,2", "2,4"], ["0", "9", "a", "1,,2"]),
    "--scope": (["all", "decomposition", "colon", "quadratic-gb", "witness",
                 "brute-vs-formula", "powers", "power-remark"], ["nope"]),
    "--dmax": (["1", "3", "5"], ["0", "x"]),
    "--budget-pairs": (["1", "5", "50"], ["0", "x"]),
    "--n-max": (["2", "3", "4"], ["1", "x"]),
}


def _fuzz_argv(rng, path):
    """One vnum call on ``path``: a random subcommand, mostly with its own
    flags, mostly at valid values."""
    command = rng.choice(sorted(_FUZZ_FLAGS)) if rng.random() < 0.97 else "bogus"
    argv = [command] if command == "survey" else [command, path]
    own = _FUZZ_FLAGS.get(command, ())
    flags = [f for f in ("--n-max", "--cutset") if f in own and rng.random() < 0.9]
    flags += [rng.choice(own if own and rng.random() < 0.9 else sorted(_FUZZ_VALUES))
              for _ in range(rng.randint(0, 3))]
    for flag in flags:
        argv.append(flag)
        if _FUZZ_VALUES[flag] is not None:
            argv.append(rng.choice(_FUZZ_VALUES[flag][rng.random() < 0.15]))
    return argv


def test_exit_code_contract_under_fuzzing(capsys, tmp_path):
    # every call ends in a documented exit code, 0, 2 (input, including
    # argparse's rejections), 3 (budget) or 4 (verification), never in a
    # traceback: malformed files, every subcommand, random flag values.
    # Both floors keep the calls from being all rejections or all answers
    rng = random.Random(26)
    codes = collections.Counter()
    for call in range(300):
        path = tmp_path / f"g{call}.txt"
        if rng.random() < 0.05:  # a missing file, or a directory
            path = rng.choice([tmp_path / "missing.txt", tmp_path])
        else:
            path.write_text(_fuzz_graph_text(rng))
        argv = _fuzz_argv(rng, str(path))
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        capsys.readouterr()
        assert rc in (0, 2, 3, 4), (call, argv)
        codes[rc] += 1
    assert codes[0] > 60 and codes[2] > 60, codes
