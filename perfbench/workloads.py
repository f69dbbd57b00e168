"""The three benchmark workloads: seeded inputs, one timed pass, checks.

An item is one user-level call.  A pass runs the workload's fixed item
list once, in a closed loop: each item starts when the previous one has
returned.  Every call goes through a module attribute (``vnumbers.v_number``,
not a name imported here), so the tracing wrappers see it.

Each workload has
* ``build(seed)``: the inputs, a pure function of the seed;
* ``run_pass(inputs, rec)``: one pass, reporting each item to ``rec``;
* ``check(inputs, outputs)``: per item, whether the output agrees with a
  reference that does not share the code path that produced it;
* ``canonical(item)``: the output as text, for the digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import calibrate
from vnum import algebra, cli, enumeration, graphs, verify, vnumbers

#: v-numbers of the worked examples, as ``vnum vnumber`` prints them
#: (27-vertex example at m=3; 42-vertex example at m=2 and m=3).
WORKED_VALUES = {("g27", 3): 8, ("g42", 2): 9, ("g42", 3): 8}
SPINE_27 = [1, 3, 6, 7, 9, 12, 13, 15, 18, 19, 21, 22, 24, 26, 27]
CLIQUES_42 = [
    (1, 4), (3, 9), (6, 10), (9, 13), (12, 16), (15, 19), (18, 21), (20, 23),
    (21, 24), (22, 25), (23, 28), (27, 30), (29, 34), (33, 37), (36, 40), (39, 42),
]


@dataclass
class Output:
    key: str
    seconds: float
    result: object = None
    error: Optional[str] = None
    meta: tuple = ()
    #: mean time of the reference computation right before and after the item
    ref_seconds: float = calibrate.NOMINAL_S

    @property
    def scaled(self) -> float:
        """The item's time at the reference speed (see calibrate.py)."""
        return self.seconds * calibrate.NOMINAL_S / self.ref_seconds


class Recorder:
    """Times items and keeps their outputs; tells the tracer which item
    is running.  Each item is bracketed by two timed runs of the
    reference computation; ``ref_total`` is the time they took."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.outputs: list[Output] = []
        self.ref_total = 0.0

    def _set_item(self, key: Optional[str]) -> None:
        if self.tracer is not None:
            self.tracer.item = key

    def _reference(self) -> float:
        t = calibrate.timed_reference()
        self.ref_total += t
        return t

    def _append(self, out: Output, ref_before: float) -> None:
        out.ref_seconds = (ref_before + self._reference()) / 2
        self.outputs.append(out)

    def call(self, key: str, fn: Callable, *args, meta: tuple = ()):
        ref = self._reference()
        self._set_item(key)
        t0 = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a raising item is counted as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        self._set_item(None)
        self._append(Output(key, seconds, result, error, meta), ref)

    @contextlib.contextmanager
    def suite_checks(self, prefix: str):
        """Record every check a suite runs through ``vnum.verify._run`` as
        one item, timed around the check alone."""
        original = verify._run

        def timed_run(name, fn):
            key = f"{prefix}/{name}"
            ref = self._reference()
            self._set_item(key)
            t0 = time.perf_counter()
            res = original(name, fn)
            seconds = time.perf_counter() - t0
            self._set_item(prefix)
            self._append(Output(key, seconds, res), ref)
            return res

        verify._run = timed_run
        self._set_item(prefix)
        try:
            yield
        except Exception as exc:  # the suite itself raised
            self.outputs.append(Output(prefix, 0.0, None, f"{type(exc).__name__}: {exc}"))
        finally:
            verify._run = original
            self._set_item(None)


def digest(outputs, canonical) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(f"{out.key}\t{canonical(out)}\n".encode())
    return h.hexdigest()


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


# ---------------------------------------------------------------------------
# closed-combinatorics
# ---------------------------------------------------------------------------


def _chain_profile(rng: random.Random, t: int, overlaps=(2, 3)):
    """t interval cliques; consecutive cliques share ``overlaps`` vertices.

    An inner clique is exactly the union of its two overlaps, so two
    consecutive connected cut sets never fit in one cut set while any two
    further apart do: the cut sets number a Fibonacci number of t, and the
    cost of minimizing over them depends on t rather than on the draw."""
    ovs = [rng.randint(*overlaps) for _ in range(t - 1)]
    b = ovs[0] + rng.randint(1, 2)
    prof = [(1, b)]
    for i in range(1, t):
        a = b - ovs[i - 1] + 1
        b += ovs[i] if i < t - 1 else rng.randint(1, 3)
        prof.append((a, b))
    return b, prof


def _shuffled(rng: random.Random, G):
    """A relabeled copy of G on which the identity labeling is not closed."""
    order = list(G.vertices())
    while True:
        rng.shuffle(order)
        H = G.relabel(order)
        if not graphs.check_closed_labeling(H):
            return H


def _end_vertices(G) -> set:
    """Vertices that can come first in a closed labeling of the connected
    identity-closed graph G: the twins of vertex 1 or of vertex n (a proper
    interval order is unique up to reversal and to permuting twins)."""
    ends = set()
    for v in (1, G.n):
        home = G.neighbors(v) | {v}
        ends.update(u for u in G.vertices() if G.neighbors(u) | {u} == home)
    return ends


def _shuffled_first_end_at(rng: random.Random, G, label: int):
    """A relabeled copy of G whose smallest end-vertex label is ``label``.

    The permutation search tries orderings in lexicographic order, so it
    scans ``label - 1`` whole blocks of (n-1)! orderings that start with a
    vertex no closed labeling starts with: the depth of the search, and
    with it the cost of the item, is fixed while the graph and the labels
    are drawn at random."""
    ends = _end_vertices(G)
    order = list(G.vertices())
    while True:
        rng.shuffle(order)
        if next(k for k, v in enumerate(order, 1) if v in ends) == label:
            return G.relabel(order)


def _write_graph(directory: str, name: str, G) -> str:
    path = os.path.join(directory, name + ".txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {G.n}\n")
        fh.writelines(f"e {u} {v}\n" for u, v in sorted(G.edges))
    return path


def _cli_vnumber(path: str, m: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["vnumber", path, "--m", str(m), "--format", "structured"])
    return code, buf.getvalue()


@dataclass
class ClosedInputs:
    noncm: list = field(default_factory=list)     # (G, m)
    cm: list = field(default_factory=list)        # (G, m, t)
    shuffled: list = field(default_factory=list)  # (H, m, twin)
    worked: list = field(default_factory=list)    # (name, path, m)


class ClosedCombinatorics:
    name = "closed-combinatorics"

    def build(self, seed: int, workdir: str) -> ClosedInputs:
        rng = _rng(self.name, seed)
        inp = ClosedInputs()
        for t in range(12, 17):
            for m in (2, 3):
                for _ in range(2):
                    n, prof = _chain_profile(rng, t)
                    inp.noncm.append((graphs.graph_from_intervals(n, prof), m))
        # the median item falls among these, so their sizes and values of
        # m are fixed and only the spines and the pairing are drawn
        ms = [2, 3] * 20
        rng.shuffle(ms)
        for n, m in zip(range(280, 320), ms):
            spine = [1] + sorted(rng.sample(range(2, n), n // 4)) + [n]
            prof = [(spine[i], spine[i + 1]) for i in range(len(spine) - 1)]
            inp.cm.append((graphs.graph_from_intervals(n, prof), m, len(prof)))
        for n, count in ((7, 14), (8, 2)):
            # three vertices outside the end classes, so that label 4 can be
            # the first end vertex; the search then outlasts the t = 15 chains
            pool = [graphs.graph_from_intervals(n, p)
                    for p in enumeration.closed_interval_profiles(n)]
            pool = [G for G in pool if n - len(_end_vertices(G)) >= 3]
            for _ in range(count):
                G = rng.choice(pool)
                H = _shuffled_first_end_at(rng, G, 4)
                inp.shuffled.append((H, rng.choice((2, 3)), G))
        for _ in range(24):
            n = 0
            while n < 9:  # recognition by LBFS starts at nine vertices
                n, prof = _chain_profile(rng, rng.randint(4, 7), overlaps=(1, 3))
            G = graphs.graph_from_intervals(n, prof)
            inp.shuffled.append((_shuffled(rng, G), rng.choice((2, 3)), G))
        g27 = graphs.graph_from_intervals(
            27, [(SPINE_27[i], SPINE_27[i + 1]) for i in range(len(SPINE_27) - 1)]
        )
        g42 = graphs.graph_from_intervals(42, CLIQUES_42)
        paths = {"g27": _write_graph(workdir, "g27", g27), "g42": _write_graph(workdir, "g42", g42)}
        for name, m in WORKED_VALUES:
            inp.worked.append((name, paths[name], m))
        return inp

    def run_pass(self, inp: ClosedInputs, rec: Recorder) -> None:
        for i, (G, m) in enumerate(inp.noncm):
            rec.call(f"noncm/{i}", vnumbers.v_number, G, m, meta=("noncm", G, m))
        for i, (G, m, t) in enumerate(inp.cm):
            rec.call(f"cm/{i}", vnumbers.v_number, G, m, meta=("cm", m, t))
        for i, (H, m, twin) in enumerate(inp.shuffled):
            rec.call(f"shuffled/{i}", vnumbers.v_number, H, m, meta=("shuffled", m, twin))
        for name, path, m in inp.worked:
            rec.call(f"cli/{name}/m={m}", _cli_vnumber, path, m, meta=("cli", name, m))

    def canonical(self, out: Output) -> str:
        if out.error is not None:
            return "error " + out.error
        if out.meta[0] == "cli":
            code, text = out.result
            rec = json.loads(text)
            return f"exit={code} value={rec['value']} cut={rec['cut_set']}"
        res = out.result
        cut = None if res.cut_set is None else list(res.cut_set.vertices)
        return f"value={res.value} status={res.status} cut={cut}"

    def check(self, inp: ClosedInputs, outputs) -> list[bool]:
        ok = []
        for out in outputs:
            if out.error is not None:
                ok.append(False)
                continue
            kind = out.meta[0]
            if kind == "cli":
                code, text = out.result
                want = WORKED_VALUES[(out.meta[1], out.meta[2])]
                ok.append(code == 0 and json.loads(text)["value"] == want)
            elif kind == "cm":
                _, m, t = out.meta
                ok.append(out.result.value == vnumbers.cm_v_formula(m, t))
            elif kind == "shuffled":
                _, m, twin = out.meta
                ok.append(out.result.value == vnumbers.v_number(twin, m).value)
            else:
                _, G, m = out.meta
                closed = graphs.find_closed_labeling(G)
                best = min(
                    vnumbers.local_v_number(G, closed, cut, m).value
                    for cut in graphs.enumerate_cut_sets(G, closed)
                )
                attained = vnumbers.local_v_number(G, closed, out.result.cut_set, m).value
                ok.append(out.result.value == best == attained)
        return ok


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleInputs:
    sample_m2_n7: list = field(default_factory=list)  # (G, closed, cut)
    sample_m3: list = field(default_factory=list)     # (G, closed, cut)


def _closed_pairs(n: int):
    out = []
    for prof in enumeration.closed_interval_profiles(n):
        G = graphs.graph_from_intervals(n, prof)
        closed = graphs.find_closed_labeling(G)
        out.extend((G, closed, cut) for cut in graphs.enumerate_cut_sets(G, closed))
    return out


class Oracle:
    name = "oracle"

    def build(self, seed: int, workdir: str) -> OracleInputs:
        rng = _rng(self.name, seed)
        small = [p for n in range(2, 6) for p in _closed_pairs(n)]
        return OracleInputs(
            sample_m2_n7=rng.sample(_closed_pairs(7), 8),
            sample_m3=rng.sample(small, 8),
        )

    def run_pass(self, inp: OracleInputs, rec: Recorder) -> None:
        for n in range(2, 7):
            ring = algebra.RingSpec(2, n)
            for gi, (G, closed) in enumerate(enumeration.closed_graphs(n)):
                for cut in graphs.enumerate_cut_sets(G, closed):
                    rec.call(f"closed/m=2/n={n}/{gi}/T={cut.vertices}", algebra.brute_local_v,
                             ring, G, cut.vertices, meta=("closed", G, closed, cut, 2))
        for m, sample in ((2, inp.sample_m2_n7), (3, inp.sample_m3)):
            for i, (G, closed, cut) in enumerate(sample):
                ring = algebra.RingSpec(m, G.n)
                rec.call(f"sample/m={m}/{i}", algebra.brute_local_v, ring, G, cut.vertices,
                         meta=("closed", G, closed, cut, m))
        for n in range(2, 6):
            ring = algebra.RingSpec(2, n)
            for gi, G in enumerate(enumeration.connected_graphs_up_to_iso(n)):
                for cut in graphs.enumerate_cut_sets(G):
                    rec.call(f"generic/n={n}/{gi}/T={cut.vertices}", algebra.brute_local_v,
                             ring, G, cut.vertices, meta=("generic", G, (n, gi)))

    def canonical(self, out: Output) -> str:
        if out.error is not None:
            return "error " + out.error
        if out.result is None:
            return "none"
        deg, w = out.result
        return f"{deg} {algebra.poly_to_text(w)}"

    def check(self, inp: OracleInputs, outputs) -> list[bool]:
        ok = []
        generic: dict = {}
        for idx, out in enumerate(outputs):
            good = out.error is None and out.result is not None
            if good and out.meta[0] == "closed":
                _, G, closed, cut, m = out.meta
                good = out.result[0] == vnumbers.local_v_number(G, closed, cut, m).value
            elif out.meta[0] == "generic":
                generic.setdefault(out.meta[2], []).append(idx)
            ok.append(good)
        # the least local value over a graph's cut sets is its v-number,
        # whose class in {0, 1, 2, >2} classify_small_v reads off the graph
        for idxs in generic.values():
            if not all(ok[i] for i in idxs):
                continue
            v = min(outputs[i].result[0] for i in idxs)
            G = outputs[idxs[0]].meta[1]
            if vnumbers.classify_small_v(G, 2) != (str(v) if v <= 2 else ">2"):
                for i in idxs:
                    ok[i] = False
        return ok


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------


@dataclass
class PowersInputs:
    graphs: list = field(default_factory=list)  # (G, closed)
    probes: list = field(default_factory=list)  # (G, closed, T)


class Powers:
    name = "powers"

    def build(self, seed: int, workdir: str) -> PowersInputs:
        rng = _rng(self.name, seed)
        inp = PowersInputs()
        for n in range(2, 6):
            inp.graphs.extend(enumeration.cm_closed_graphs(n))
        # graphs with one or two maximal cliques at n = 6 spend 1-7 s each
        # in the k = 3 basis, so n = 6 takes the five graphs with t >= 4.
        # The seed orders them: the checks of mirror-image graphs differ in
        # cost by up to 40%, so drawing some of the five moved the 90th
        # percentile by 15% from seed to seed.
        sample = [gc for gc in enumeration.cm_closed_graphs(6) if gc[1].t >= 4]
        rng.shuffle(sample)
        inp.graphs.extend(sample)
        for n in (3, 4):
            for G, closed in enumeration.closed_graphs(n):
                for cut in graphs.enumerate_cut_sets(G, closed):
                    if len(cut.vertices) == 1:
                        inp.probes.append((G, closed, cut.vertices))
        return inp

    def run_pass(self, inp: PowersInputs, rec: Recorder) -> None:
        for gi, (G, closed) in enumerate(inp.graphs):
            with rec.suite_checks(f"powers/n={G.n}/{gi}"):
                verify.suite_powers(G, closed, 3)
        for pi, (G, closed, T) in enumerate(inp.probes):
            with rec.suite_checks(f"remark/n={G.n}/{pi}"):
                verify.suite_power_remark(G, closed, 3, T, 2)

    def canonical(self, out: Output) -> str:
        if out.error is not None:
            return "error " + out.error
        r = out.result
        return f"{r.name} {r.status} {r.detail}"

    def check(self, inp: PowersInputs, outputs) -> list[bool]:
        return [out.error is None and out.result.status == "pass" for out in outputs]


WORKLOADS = {w.name: w for w in (ClosedCombinatorics(), Oracle(), Powers())}

