"""Command-line front end.

Subcommands: check-closed, vnumber, local, verify, survey.  Input graphs
come from files in either the line format ('n 5' then 'e 1 2' lines, '#'
comments) or a JSON object with fields n and edges.  Output is a human
table by default or a single self-contained JSON record with
``--format structured``.

Exit codes: 0 success, 2 input error, 3 budget exceeded, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .errors import (
    BudgetExceededError,
    GraphInputError,
    InstanceTooLargeError,
    NotACutSetError,
    UnsupportedRegimeError,
)
from .graphs import (
    DEFAULT_SUBSET_BUDGET,
    SimpleGraph,
    _runs,
    enumerate_cut_sets,
    find_closed_labeling,
    parse_graph,
)
from .vnumbers import (
    _least_oracle_value,
    _power_needs_an_edge,
    _to_original_result,
    local_v_number,
    v_number,
)
from . import verify as verify_mod
from .enumeration import closed_graphs

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


def _load_graph(path: str) -> SimpleGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphInputError(f"cannot read {path}: {exc}") from exc
    G, warnings = parse_graph(text)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return G


def _parse_cutset(text: Optional[str]) -> Optional[tuple[int, ...]]:
    if text is None:
        return None
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise GraphInputError(f"bad --cutset {text!r}: {exc}") from exc


def _emit(record: dict, fmt: str, table: str) -> None:
    if fmt == "structured":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(table)


def cmd_check_closed(args) -> int:
    G = _load_graph(args.input)
    try:
        closed = find_closed_labeling(G)
    except GraphInputError:
        if G.n == 0:  # the empty graph stays an input error
            raise
        record = {"command": "check-closed", "connected": False, "closed": None}
        _emit(record, args.format, "graph is disconnected; check components separately")
        return EXIT_OK
    if closed is None:
        _emit(
            {"command": "check-closed", "connected": True, "closed": False},
            args.format,
            "not closed (no labeling found)",
        )
        return EXIT_OK
    record = {
        "command": "check-closed",
        "connected": True,
        "closed": True,
        "identity_labeling": closed.is_identity(),
        **closed.to_record(),
    }
    lines = [
        f"closed: yes ({'identity' if closed.is_identity() else 'relabeled'})",
        f"labeling: {list(closed.order)}",
        f"cliques (t={closed.t}): {[list(c) for c in closed.cliques]}",
        f"spine: {list(closed.spine)}",
        f"cut vertices: {list(closed.cut_vertices)}",
        f"one-vertex overlaps (CM): {closed.is_cm}",
    ]
    _emit(record, args.format, "\n".join(lines))
    return EXIT_OK


def cmd_vnumber(args) -> int:
    G = _load_graph(args.input)
    res = v_number(G, args.m, oracle_n_limit=args.budget_n or 6)
    record = {"command": "vnumber", "m": args.m, **res.to_record()}
    lines = [
        f"v-number (m={args.m}): {res.value}  [{res.status}, {res.regime}]",
    ]
    if res.cut_set is not None:
        lines.append(f"attaining cut set: {list(res.cut_set.vertices)}")
    if res.witness is not None:
        lines.append(f"witness: {' * '.join(res.witness.term_list()) or '1'}")
    if args.k is not None:
        # the regimes of a connected closed graph with one-vertex overlaps
        if args.m != 2 or res.regime not in ("complete", "cm-closed", "cm-closed-relabeled"):
            raise UnsupportedRegimeError(
                "power values are proved only for m=2 on a connected closed "
                "graph with one-vertex clique overlaps"
            )
        _power_needs_an_edge(G)
        pw = res.value + 2 * (args.k - 1)  # v(J^k) = v(J) + 2(k-1)
        record["power"] = {"k": args.k, "value": pw}
        lines.append(f"v-number of the {args.k}-th power: {pw}")
    if args.oracle:
        if res.regime == "disjoint-union":  # v_number's own verdict: G is disconnected
            raise UnsupportedRegimeError("--oracle needs a connected graph")
        own = res.regime == "generic-oracle"
        if own:
            # v_number already took the least oracle value over every cut set
            oracle_v, verdict = res.value, "the value is the oracle's own"
        else:
            cuts = enumerate_cut_sets(G, max_generic_n=args.budget_n or DEFAULT_SUBSET_BUDGET)
            oracle_v, _ = _least_oracle_value(G, args.m, cuts)
            verdict = "agrees" if oracle_v == res.value else "DISAGREES"
        record["oracle_v"] = oracle_v
        record["oracle_agrees"] = oracle_v == res.value
        record["oracle_is_value"] = own
        lines.append(f"oracle cross-check: {oracle_v} ({verdict})")
        if oracle_v != res.value:
            _emit(record, args.format, "\n".join(lines))
            return EXIT_VERIFY
    _emit(record, args.format, "\n".join(lines))
    return EXIT_OK


def cmd_local(args) -> int:
    # find_closed_labeling raises GraphInputError on a disconnected graph
    closed = find_closed_labeling(_load_graph(args.input))
    if closed is None:
        raise UnsupportedRegimeError("local values need a closed graph")
    T = _parse_cutset(args.cutset)
    if T is None:
        raise GraphInputError("--cutset is required (use --cutset '' for the empty set)")
    cut = closed.cut_set_from_input(T)
    res = _to_original_result(closed, local_v_number(closed.graph, closed, cut, args.m))
    blocks = [closed.input_labels(run) for run in _runs(cut.vertices)]
    record = {"command": "local", "m": args.m, **res.to_record()}
    lines = [f"cut set: {list(res.cut_set.vertices)} (blocks {blocks})"]
    if cut.vertices:
        record["anchor_graph"] = res.anchor_graph.to_record()
        w = res.witness
        record["partition"] = {
            "m": args.m,
            "slices": [list(s) for s in w.minor_blocks],
            "isolated": list(w.isolated_vars),
            "degree": w.degree,
        }
        lines.append(f"anchor paths: {[list(c) for c in res.anchor_graph.path_components]}")
        lines.append(f"isolated: {list(res.anchor_graph.isolated)}")
        lines.append(f"optimal partition slices: {[list(s) for s in w.minor_blocks]}")
    lines.append(f"local v-number: {res.value}  [{res.status}]")
    if res.witness is not None:
        lines.append(f"witness: {' * '.join(res.witness.term_list()) or '1'}")
    _emit(record, args.format, "\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    G = _load_graph(args.input)
    results = verify_mod.run_suites(
        G,
        m=args.m,
        scope=args.scope,
        k=args.k,
        cutset=_parse_cutset(args.cutset),
        d_max=args.dmax,
        budget_pairs=args.budget_pairs,
    )
    record = {
        "command": "verify",
        "m": args.m,
        "scope": args.scope,
        "checks": [r.to_record() for r in results],
        "summary": {
            "pass": sum(r.status == "pass" for r in results),
            "fail": sum(r.status == "fail" for r in results),
            "budget": sum(r.status == "budget" for r in results),
            "skip": sum(r.status == "skip" for r in results),
        },
    }
    lines = [
        f"{r.status:6s} {r.name:40s} {r.seconds:7.2f}s  {r.detail}" for r in results
    ]
    lines.append(
        "summary: "
        + ", ".join(f"{k}={v}" for k, v in record["summary"].items())
    )
    _emit(record, args.format, "\n".join(lines))
    if record["summary"]["fail"]:
        return EXIT_VERIFY
    if record["summary"]["budget"]:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_survey(args) -> int:
    rows = []
    disagreements = 0
    for n in range(2, args.n_max + 1):
        for G, closed in closed_graphs(n):
            res = v_number(G, args.m)
            row = {
                "n": n,
                "cliques": [list(c) for c in closed.cliques],
                "t": closed.t,
                "cm": closed.is_cm,
                "v": res.value,
                "status": res.status,
                "cut_set": None if res.cut_set is None else list(res.cut_set.vertices),
            }
            if args.oracle:
                best, _ = _least_oracle_value(G, args.m, enumerate_cut_sets(G, closed))
                row["oracle_v"] = best
                row["agree"] = best == res.value
                if not row["agree"]:
                    disagreements += 1
            rows.append(row)
    record = {
        "command": "survey",
        "m": args.m,
        "n_max": args.n_max,
        "rows": rows,
        "disagreements": disagreements if args.oracle else None,
    }
    width = max(len(str(r["cliques"])) for r in rows)
    lines = []
    for r in rows:
        base = (
            f"n={r['n']}  t={r['t']:2d}  cm={str(r['cm']):5s}  "
            f"v={r['v']:2d} [{r['status']}]  {str(r['cliques']):{width}s}"
        )
        if args.oracle:
            base += f"  oracle={r['oracle_v']} {'OK' if r['agree'] else 'DISAGREE'}"
        lines.append(base)
    if args.oracle:
        lines.append(f"disagreements: {disagreements}")
    _emit(record, args.format, "\n".join(lines))
    return EXIT_VERIFY if disagreements else EXIT_OK


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


@functools.cache  # argparse reads the terminal size on every add_argument
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vnum",
        description=(
            "v-numbers of generalized binomial edge ideals: closed-graph "
            "formulas certified by an exact Groebner oracle"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, takes_m=True):
        if needs_input:
            p.add_argument("input", help="graph file (line format or JSON)")
        if takes_m:
            p.add_argument("--m", type=_int_at_least(2), default=2,
                           help="row count of the variable matrix (>= 2)")
        p.add_argument("--format", choices=("table", "structured"), default="table")

    p = sub.add_parser("check-closed", help="recognize a closed labeling and extract its structure")
    common(p, takes_m=False)
    p.set_defaults(fn=cmd_check_closed)

    p = sub.add_parser("vnumber", help="v-number of the edge ideal (and of its k-th power)")
    common(p)
    p.add_argument("--k", type=_int_at_least(1), default=None, help="also report the k-th power (m=2, one-vertex overlaps)")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the value against the exact engine")
    p.add_argument("--budget-n", type=_int_at_least(1), default=None, dest="budget_n",
                   help="vertex cap of the oracle fallback (default 6) and of the "
                        "--oracle cut-set enumeration (default 16)")
    p.set_defaults(fn=cmd_vnumber)

    p = sub.add_parser("local", help="local v-number at a cut set")
    common(p)
    p.add_argument("--cutset", default=None, help="comma-separated vertices, '' for the empty set")
    p.set_defaults(fn=cmd_local)

    p = sub.add_parser("verify", help="run oracle certificate suites")
    common(p)
    p.add_argument("--scope", default="all", choices=("all",) + verify_mod.SCOPES)
    p.add_argument("--k", type=_int_at_least(1), default=None,
                   help="max power of the powers check (2 or 3) and the power of the "
                        "power-remark check (default 2)")
    p.add_argument("--cutset", default=None, help="cut set for power-remark")
    p.add_argument("--dmax", type=_int_at_least(1), default=None,
                   help="degree cap of the power-remark witness search")
    p.add_argument("--budget-pairs", type=_int_at_least(1), default=None, dest="budget_pairs",
                   help="S-pair cap for the basis computations of the power suites")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("survey", help="sweep all closed graphs up to a vertex count")
    common(p, needs_input=False)
    p.add_argument("--n-max", type=_int_at_least(2), required=True, dest="n_max")
    p.add_argument("--oracle", action="store_true", help="cross-check each value against the exact oracle")
    p.set_defaults(fn=cmd_survey)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphInputError, NotACutSetError, UnsupportedRegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InstanceTooLargeError, BudgetExceededError) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
