"""The FlexCore reproduction's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload (``table4``, ``baseline``,
``campaign`` or ``traced``, see ``workloads.py``), each in a fresh
process started by ``rep.py``, until ``--seconds`` have passed, and
checks every repetition's outputs.  With ``--trace 0`` it reports the
end-to-end metrics of ``BENCHMARK.json``, medians over the
repetitions.  With ``--trace 1`` it alternates plain and profiled
repetitions and reports the per-layer metrics: those marked "plain" in
``README.md`` come from the plain repetitions, the self times and call
counts from the profiled ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are a human-readable report.  Every repetition's spans and
numbers are written once, at the end, to
``.perfbench/<workload>-seed<N>-trace<T>.json``.  Exits with 2,
printing no result, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402

WORKLOADS = ("table4", "baseline", "campaign", "traced")

#: fewest plain repetitions a ``--trace 0`` run reports medians over.
MIN_REPS = 3

#: a repetition that runs longer than this is killed and failed.
REP_TIMEOUT = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_mips": "Minstr/s",
    "peak_rss_mb": "MB",
    "ok_frac": "share",
}

#: per-layer metrics taken from plain repetitions (medians) and units.
UNTRACED_UNITS = {
    "table4.baseline_s": "s",
    "table4.umc_s": "s",
    "table4.dift_s": "s",
    "table4.bc_s": "s",
    "table4.sec_s": "s",
    "table4_err_pct": "%",
    "campaign.golden_s": "s",
    "campaign.faulted_s": "s",
    "campaign.retries": "count",
    "campaign.respawns": "count",
    "campaign.quarantined": "count",
    "faults_per_s": "1/s",
    "engine.reference_frac": "share",
    "telemetry.events": "count",
    "metrics_x": "ratio",
    "trace_x": "ratio",
    "host.speed": "ratio",
}

SIM_UNITS = {
    "sim.instructions": "count",
    "sim.cycles": "cycles",
    "sim.icache_misses": "count",
    "sim.dcache_misses": "count",
    "sim.mcache_misses": "count",
    "sim.bus_wait_cycles": "cycles",
    "sim.fifo_full_stall_cycles": "cycles",
    "sim.meta_stall_cycles": "cycles",
    "sim.forwarded": "count",
}

#: per-layer metrics taken from profiled repetitions.
TRACED_UNITS = {
    **{name: "s" for name in layers.LAYERS},
    "isa.physical_index_calls": "count",
    "memory.cache_lookups": "count",
    "flexcore.packets": "count",
    "flexcore.fifo_checks_per_packet": "ratio",
    "extensions.process_calls": "count",
    "checkpoint.snapshot_calls": "count",
    "profile_overhead_x": "ratio",
}

PER_LAYER_UNITS = {**UNTRACED_UNITS, **SIM_UNITS, **TRACED_UNITS}


class Failed(Exception):
    """A repetition that did not report."""


class MissingProgram(Exception):
    """The program cannot be imported here."""


def run_rep(workload: str, seed: int, profile: bool, tiny: bool) -> dict:
    """Run one repetition in a fresh process and return its record,
    with ``setup_s`` measured from the moment the process is started."""
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", workload, "--seed", str(seed)]
    command += ["--profile"] * profile + ["--tiny"] * tiny
    started = time.monotonic()
    # A session of its own, so a timeout also stops the repetition's
    # pool workers.
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, err = process.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise Failed(f"repetition timed out after {REP_TIMEOUT} s")
    if process.returncode == 2:
        raise MissingProgram(err.strip())
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise Failed(f"repetition exited {process.returncode}: {tail}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["setup_end"] - started
    return record


def rep_seed(seed: int, index: int) -> int:
    """Repetition ``index``'s seed.  Only the campaign uses it: each
    repetition draws other faults, so a run's median is over several
    draws and depends less on one draw's cost."""
    return seed * 1000 + index


def _median(records, key):
    return statistics.median(key(r) for r in records)


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


class Outcome:
    """Operations attempted and failures, named, across a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failures.append(message)

    def check_repeats(self, records, what, key) -> None:
        """A deterministic output must read the same in every
        repetition."""
        values = [json.dumps(key(r), sort_keys=True) for r in records]
        if len(set(values)) > 1:
            self.fail(f"{what} differs between repetitions")


def _scaled(record, seconds):
    """Host seconds at the reference host speed (see ``README.md``)."""
    return seconds * record["host_speed"]


def end_to_end(plain) -> dict:
    return {
        "setup_s": _median(plain, lambda r: _scaled(r, r["setup_s"])),
        "wall_s": _median(plain, lambda r: _scaled(r, r["wall"])),
        "sim_mips": _median(plain, lambda r: r["instructions"]
                            / _scaled(r, r["wall"]) / 1e6),
        "peak_rss_mb": _median(plain, lambda r: r["peak_rss_mb"]),
    }


def per_layer(workload, plain, profiled) -> dict:
    values = {}
    for name, unit in UNTRACED_UNITS.items():
        values[name] = _median(plain, lambda r: r["values"].get(name, 0)
                               * (r["host_speed"] if unit == "s" else 1))
    if workload == "campaign":
        values["faults_per_s"] = _median(
            plain, lambda r: r["attempted"] / _scaled(r, r["wall"]))
    values["host.speed"] = _median(plain, lambda r: r["host_speed"])
    values["engine.reference_frac"] = _median(
        plain, lambda r: r["reference_frac"])
    for name in SIM_UNITS:
        values[name] = plain[0]["sim"][name.split(".", 1)[1]]
    for name in layers.LAYERS:
        values[name] = _median(profiled, lambda r: r["layers"][name])
    for name in TRACED_UNITS:
        if name in layers.CALL_COUNTS:
            values[name] = _median(profiled, lambda r: r["calls"][name])
    values["flexcore.fifo_checks_per_packet"] = _median(
        profiled, lambda r: (r["calls"]["flexcore.fifo_checks"]
                             / r["calls"]["flexcore.packets"]
                             if r["calls"]["flexcore.packets"] else 0.0))
    values["profile_overhead_x"] = (
        _median(profiled, lambda r: r["wall"])
        / _median(plain, lambda r: r["wall"]))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="FlexCore reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (the benchmark's "
                             "own test)")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro is missing; nothing to measure",
              file=sys.stderr)
        return 2

    outcome = Outcome()
    plain: list[dict] = []
    profiled: list[dict] = []
    start = time.monotonic()
    try:
        for index in itertools.count():
            # In a traced run, every other repetition is profiled.
            profile = trace and index % 2 == 1
            try:
                record = run_rep(args.workload, rep_seed(args.seed, index),
                                 profile, args.tiny)
            except Failed as error:
                outcome.fail(f"{'profiled ' * profile}repetition {index}: "
                             f"{error}")
            else:
                (profiled if profile else plain).append(record)
                outcome.attempted += record["attempted"]
                outcome.failures += record["failures"]
                outcome.failures += [f"layer map: {p}"
                                     for p in record["problems"]]
            if time.monotonic() - start >= args.seconds and (
                    (plain and profiled) if trace
                    else len(plain) >= MIN_REPS):
                break
            if not plain and len(outcome.failures) >= MIN_REPS:
                break
    except MissingProgram as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2

    if not plain or (trace and not profiled):
        outcome.fail("no repetition completed")
        metrics = {}
    else:
        # Profiling must not change what is simulated either.
        outcome.check_repeats(plain + profiled, "run digests",
                              lambda r: r["digests"])
        outcome.check_repeats(plain + profiled, "simulated counts",
                              lambda r: r["sim"])
        failed = len(outcome.failures)
        if trace:
            metrics = per_layer(args.workload, plain, profiled)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(plain)
            metrics["ok_frac"] = 1 - failed / max(outcome.attempted, 1)
            units = END_TO_END_UNITS
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in units.items()}

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "repetitions": {"plain": len(plain), "profiled": len(profiled)},
    }
    report(environment, metrics, outcome, plain)
    write_spans(environment, metrics, outcome, plain, profiled)
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0


def report(environment, metrics, outcome, plain) -> None:
    """The human-readable lines before the result."""
    print(" ".join(f"{k}={v}" for k, v in environment.items()
                   if k != "repetitions")
          + f" reps={environment['repetitions']}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    if plain:
        values = plain[0]["values"]
        # The model's error beside every speed figure.
        if "table4_err_pct" in values:
            print(f"  table4_err_pct (vs paper Table IV)"
                  f" {values['table4_err_pct']:>14.6g} %")
        if plain[0]["report_digest"]:
            print(f"  campaign report digest (repetition 0) "
                  f"{plain[0]['report_digest']}")
    for failure in outcome.failures:
        print(f"  FAILED {failure}")


def write_spans(environment, metrics, outcome, plain, profiled) -> None:
    """Write the run's spans and numbers, once, at the end."""
    directory = os.path.join(ROOT, ".perfbench")
    os.makedirs(directory, exist_ok=True)
    name = (f"{environment['workload']}-seed{environment['seed']}"
            f"-trace{environment['trace']}.json")
    reps = []
    for kind, records in (("plain", plain), ("profiled", profiled)):
        for record in records:
            origin = record["spans"][0]["start"] if record["spans"] else 0
            spans = [{**s, "start": s["start"] - origin,
                      "end": s["end"] - origin} for s in record["spans"]]
            reps.append({"kind": kind, **{k: v for k, v in record.items()
                                          if k != "spans"},
                         "spans": spans})
    with open(os.path.join(directory, name), "w") as handle:
        json.dump({"environment": environment, "metrics": metrics,
                   "failures": outcome.failures, "repetitions": reps},
                  handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
