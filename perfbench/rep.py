"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N [--profile] [--tiny]

Prints one JSON object as its last line of standard output: the
repetition's spans, operation counts, failures, simulated counts,
digests, host times and peak RSS; with ``--profile`` also the cProfile
self times and call counts attributed by ``layers.LAYER_MAP``.  Exits
with 2 when the program cannot be imported.

``run.py`` starts one of these per repetition, so host-side memos
(decode cache, predecode tables) start empty in every repetition, as
they do for a user's job.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb() -> float:
    """Max RSS of this process and of its largest waited-for child."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as error:
        print(f"cannot import the program: {error}", file=sys.stderr)
        return 2
    import layers

    spans = workloads.Spans()
    # Calibration slices would be profiled too; profiled repetitions
    # report raw host time.
    batch = workloads.Batch(calibrating=not args.profile)
    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    with spans.span("setup"):
        work = workloads.WORKLOADS[args.workload](
            spans, batch, args.seed, args.tiny, args.profile)
    setup_end = time.monotonic()
    with spans.span("work") as span:
        work()
    if profiler is not None:
        profiler.disable()

    record = {
        "setup_end": setup_end,
        "wall": batch.wall if batch.wall is not None
        else span["end"] - span["start"] - batch.calibration_s,
        "host_speed": batch.host_speed,
        "instructions": batch.instructions
        if batch.instructions is not None else batch.sim["instructions"],
        "attempted": batch.attempted,
        "failures": batch.failures,
        "sim": batch.sim,
        "reference_frac": (batch.reference_runs / batch.runs
                           if batch.runs else 0.0),
        "digests": batch.digests,
        "report_digest": batch.report_digest,
        "values": batch.values,
        "peak_rss_mb": _peak_rss_mb(),
        "spans": spans.records,
        "problems": layers.module_layer_problems(
            module.__file__ for name, module in list(sys.modules.items())
            if name.split(".")[0] == "repro"),
    }
    if profiler is not None:
        import pstats
        seconds, calls, problems = layers.attribute(
            pstats.Stats(profiler).stats)
        record.update(layers=seconds, calls=calls)
        record["problems"] += problems
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
