"""One run of one workload, in a fresh process started by run.py.

Untraced (``--trace 0``): repeat the workload's fixed item list as whole
passes until the next pass would end after ``--seconds``, then check every
output and print the end-to-end figures: each item's median time over
the passes, scaled to the reference speed (calibrate.py).  Traced
(``--trace 1``): one untraced pass, then one pass with the layer wrappers
installed; print the per-layer metrics and write the spans to
``.perfbench-out/``.
``--setup-only`` stops after building the inputs, so that run.py can time
interpreter start, ``import vnum`` and input generation.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import statistics
import sys
import tempfile
import time

import calibrate
import layers
import tracing
import workloads
from vnum.errors import BudgetExceededError


def _run_pass(workload, inputs, tracer=None):
    """One pass: (its time less the time of the references, outputs)."""
    rec = workloads.Recorder(tracer)
    t0 = time.perf_counter()
    workload.run_pass(inputs, rec)
    return time.perf_counter() - t0 - rec.ref_total, rec.outputs


class Tally:
    """Checks passes as they finish.

    The first pass is kept and, at the end, checked against the
    references; a later pass fails an item wherever its canonical output
    differs from the first pass.  Later passes are not kept, so memory
    does not grow with the number of passes."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.first = self.want = None
        self.sizes: list[int] = []
        self.differing: list[set] = []

    def add(self, outputs) -> None:
        got = [(o.key, self.workload.canonical(o)) for o in outputs]
        if self.want is None:
            self.first, self.want = outputs, got
        self.sizes.append(len(got))
        self.differing.append({
            i for i, item in enumerate(got) if i >= len(self.want) or item != self.want[i]
        })

    def totals(self) -> tuple[int, int, str]:
        """(attempted, failed, digest of the first pass)."""
        ok = self.workload.check(self.inputs, self.first)
        failed = sum(
            sum(1 for i in range(size) if i in differing or not ok[i])
            for size, differing in zip(self.sizes, self.differing)
        )
        digest = workloads.digest(self.first, self.workload.canonical)
        return sum(self.sizes), failed, digest


def evaluate(workload, inputs, passes) -> tuple[int, int, str]:
    tally = Tally(workload, inputs)
    for outputs in passes:
        tally.add(outputs)
    return tally.totals()


def timed_run(workload, inputs, seconds: float) -> dict:
    """Repeat whole passes and report each item's median scaled time.

    The host's speed swings by up to a factor of two, within seconds and
    between minutes, so every item's time is scaled to the reference
    speed measured right around it (calibrate.py), and an item's time in
    the run is the median of its scaled times over the passes.
    ``wall_s`` is the sum of those medians plus the median scaled time a
    pass spent outside items and references (the enumerators of the
    oracle run there)."""
    tally = Tally(workload, inputs)
    durations = []
    scaled: list[list[float]] = []
    rests = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall, outputs = _run_pass(workload, inputs)
        durations.append(time.perf_counter() - t0)
        for i, out in enumerate(outputs):
            if i == len(scaled):
                scaled.append([])
            scaled[i].append(out.scaled)
        rest = wall - sum(o.seconds for o in outputs)
        ref = statistics.median(o.ref_seconds for o in outputs)
        rests.append(rest * calibrate.NOMINAL_S / ref)
        tally.add(outputs)
        del outputs
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, digest = tally.totals()
    items = [statistics.median(times) for times in scaled]
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "passes": len(durations),
        "metrics": {
            "wall_s": sum(items) + statistics.median(rests),
            "item_p50_ms": tracing.percentile(items, 50) * 1000.0,
            "item_p90_ms": tracing.percentile(items, 90) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        },
    }


def traced_run(workload, inputs, seed: int, out_dir: str) -> dict:
    wall_plain, plain = _run_pass(workload, inputs)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, layers.SPECS, BudgetExceededError):
        wall_traced, traced = _run_pass(workload, inputs, tracer)
    attempted, failed, digest = evaluate(workload, inputs, [plain, traced])
    metrics = layers.per_layer(tracer)
    metrics["trace.wall_s"] = wall_traced
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({
            "workload": workload.name,
            "seed": seed,
            "span_fields": ["index", "name", "start", "end", "parent"],
            "items": tracing.spans_by_item(tracer),
        }, fh)
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "passes": 2,
        "trace_file": path,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=".", prefix=".perfbench-") as workdir:
        inputs = workload.build(args.seed, workdir)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced_run(workload, inputs, args.seed, ".perfbench-out")
        else:
            result = timed_run(workload, inputs, args.seconds)
    result["items_per_pass"] = result["attempted"] // result["passes"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
