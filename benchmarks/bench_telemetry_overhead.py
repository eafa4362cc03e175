"""Wall-clock overhead of the telemetry subsystem.

Measures the same monitored workload three ways, all on the default
fast engine (telemetry does not move a run to the reference loop):

* **off**  — ``telemetry=None`` (the default every benchmark and
  campaign uses): must stay within ~2% of the pre-telemetry seed,
  because the only added work is a handful of ``is not None`` checks
  on paths the timing model already branches on (checked by
  comparing *off* seconds across builds);
* **metrics** — counters/gauges/histograms enabled, no tracing;
* **trace** — metrics plus full cycle-accurate event tracing into the
  ring buffer.

Run as a script to emit ``BENCH_telemetry.json``::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py [SCALE [REPEATS]]

The JSON records per-mode wall-clock seconds (best of ``repeats``),
the overhead ratios versus *off*, the engine each mode ran on, and
the run digest — which must be identical across all three modes
(telemetry observes, never perturbs).  The goals in ``target`` are
reported against, not enforced.
"""

from __future__ import annotations

import json
import sys
import time

from repro.extensions import create_extension
from repro.flexcore import run_program
from repro.telemetry import Telemetry, run_digest
from repro.workloads import build_workload

#: (workload, extension, clock ratio) — one FIFO-bound point and one
#: meta-data-bound point, so both hot paths are exercised.
SCENARIOS = (
    ("crc32", "sec", 0.25),
    ("sha", "dift", 0.5),
)

MODES = ("off", "metrics", "trace")


def _telemetry(mode: str) -> Telemetry | None:
    if mode == "off":
        return None
    return Telemetry.enabled(trace=(mode == "trace"))


def measure(workload: str, extension: str, ratio: float,
            scale: float, repeats: int) -> dict:
    program = build_workload(workload, scale).build()
    timings: dict[str, float] = {}
    digests: dict[str, str] = {}
    engines: dict[str, str] = {}
    for mode in MODES:
        best = float("inf")
        for _ in range(repeats):
            telemetry = _telemetry(mode)
            start = time.perf_counter()
            result = run_program(
                program, create_extension(extension),
                clock_ratio=ratio, telemetry=telemetry,
            )
            best = min(best, time.perf_counter() - start)
        timings[mode] = best
        digests[mode] = run_digest(result)
        engines[mode] = result.engine
    if len(set(digests.values())) != 1:
        raise AssertionError(
            f"telemetry perturbed the run: digests {digests}"
        )
    off = timings["off"]
    return {
        "workload": workload,
        "extension": extension,
        "clock_ratio": ratio,
        "seconds": {m: round(t, 4) for m, t in timings.items()},
        "overhead_vs_off": {
            m: round(timings[m] / off, 4) for m in MODES
        },
        "digest": digests["off"],
        "engine": engines,
    }


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    scale = float(args[0]) if args else 0.125
    repeats = int(args[1]) if len(args) > 1 else 3
    rows = [
        measure(workload, extension, ratio, scale, repeats)
        for workload, extension, ratio in SCENARIOS
    ]
    document = {
        "benchmark": "telemetry_overhead",
        "scale": scale,
        "repeats": repeats,
        "target": "off <= 1.02x of the untelemetered hot path; "
                  "on the fast engine: metrics <= 1.15x and "
                  "trace <= 1.5x of off",
        "scenarios": rows,
    }
    with open("BENCH_telemetry.json", "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    header = f"{'scenario':<16} " + "".join(f"{m:>10}" for m in MODES)
    print(header)
    for row in rows:
        label = f"{row['workload']}+{row['extension']}"
        print(f"{label:<16} " + "".join(
            f"{row['seconds'][m]:>9.3f}s" for m in MODES
        ))
        print(f"{'  vs off':<16} " + "".join(
            f"{row['overhead_vs_off'][m]:>9.2f}x" for m in MODES
        ))
    print("written: BENCH_telemetry.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
