"""vnum benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Run it from the root of a vnum source tree; it imports vnum from ./src and
nothing else, and exits with code 2 when ./src/vnum is missing.

Each run starts fresh single-threaded Python processes:
* fifteen set-up probes, each starting the interpreter, importing vnum and
  generating the seeded inputs; ``setup_s`` is their median, each probe
  scaled to the reference speed measured right around it (calibrate.py);
* one worker (worker.py) that measures the workload and checks every
  output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones.  The line before it carries the sha256 digest of the outputs.  The
exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate  # stdlib only, like layers.py; the worker imports vnum
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("closed-combinatorics", "oracle", "powers")
SETUP_PROBES = 15
#: reference timings taken before and after each set-up probe
PROBE_REFERENCES = 5
#: every run must end within 180 s; the worker gets what the probes left
DEADLINE_S = 170.0

UNITS = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _reference_time() -> float:
    return statistics.median(calibrate.timed_reference() for _ in range(PROBE_REFERENCES))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vnum benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vnum", "__init__.py")):
        print(f"error: no vnum sources under {src}; run from a vnum checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    base = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    started = time.perf_counter()

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            # a plain wait() blocks in waitpid; subprocess.run(timeout=...)
            # would poll with sleeps and round the time up to its schedule
            before = _reference_time()
            t0 = time.perf_counter()
            probe = subprocess.Popen(base + ["--setup-only"], env=env, cwd=root,
                                     stdout=subprocess.DEVNULL)
            if probe.wait() != 0:
                raise subprocess.CalledProcessError(probe.returncode, probe.args)
            seconds = time.perf_counter() - t0
            ref = (before + _reference_time()) / 2
            setup.append(seconds * calibrate.NOMINAL_S / ref)

    budget = DEADLINE_S - (time.perf_counter() - started)
    proc = subprocess.run(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, cwd=root, check=True, stdout=subprocess.PIPE, text=True,
        timeout=budget,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if args.trace:
        units = layers.metric_units()
    else:
        metrics["setup_s"] = statistics.median(setup)
        units = UNITS
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed={args.seed}: {result['items_per_pass']} items per pass, "
          f"{result['passes']} passes, fail_rate {failed}/{attempted}")
    if "trace_file" in result:
        print(f"spans written to {os.path.relpath(result['trace_file'], root)}")
    print(f"digest {args.workload} seed={args.seed} sha256={result['digest']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
