"""The benchmark's own test, at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit for every workload, and that the layer map covers every ``repro``
module the workloads import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_layer_map_covers_every_module_the_workloads_import():
    for name, make in workloads.WORKLOADS.items():
        batch = workloads.Batch()
        # Profiled, the campaign runs in-process, as in the traced run.
        make(workloads.Spans(), batch, 1, True, True)()
        assert batch.attempted >= 1 and not batch.failures, name
    modules = [module.__file__ for name, module in list(sys.modules.items())
               if name.split(".")[0] == "repro"]
    assert len(modules) > 50
    assert layers.module_layer_problems(modules) == []


@pytest.mark.parametrize("filename, funcname, layer", [
    ("/x/src/repro/engine/predecode.py", "handler", "engine.dispatch_s"),
    ("/x/src/repro/engine/predecode.py", "_make_load", "engine.build_s"),
    ("/x/src/repro/engine/predecode.py", "_compile_block",
     "engine.build_s"),
    ("<superblock 0x40>", "run", "engine.dispatch_s"),
    ("<string>", "__init__", "engine.dispatch_s"),
    ("/x/src/repro/core/cpu_state.py", "snapshot_state",
     "checkpoint.snapshot_s"),
    ("/x/src/repro/isa/registers.py", "physical_index", "isa.regwin_s"),
    ("/x/src/repro/__init__.py", "<module>", "flexcore.system_s"),
    ("/usr/lib/python3.11/json/encoder.py", "encode", "other.python_s"),
    ("~", "<built-in method builtins.len>", "other.python_s"),
])
def test_layer_of(filename, funcname, layer):
    assert layers.layer_of(filename, funcname) == layer


def test_attribute_sums_layers_to_the_profiled_total():
    stats = {
        ("/x/src/repro/memory/cache.py", 80, "_locate"): (3, 3, 0.5, 0.5),
        ("/x/src/repro/flexcore/fifo.py", 55, "occupancy"): (2, 2, 0.25,
                                                             0.25),
        ("~", 0, "<built-in method builtins.len>"): (9, 9, 0.125, 0.125),
    }
    seconds, calls, problems = layers.attribute(stats)
    assert problems == []
    assert sum(seconds.values()) == 0.875
    assert seconds["memory.cache_s"] == 0.5
    assert calls["memory.cache_lookups"] == 3
    assert calls["flexcore.fifo_checks"] == 2


def test_an_unknown_repro_package_is_reported():
    _seconds, _calls, problems = layers.attribute(
        {("/x/src/repro/newpkg/mod.py", 1, "f"): (1, 1, 0.1, 0.1)})
    assert problems == ["no layer for newpkg/mod.py:f"]
