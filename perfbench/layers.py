"""Layer map: attributes cProfile self time and call counts to layers.

``LAYER_MAP`` is the single table that says which layer a profiled
function belongs to.  Rows are tried in order; the first that matches
wins.  A row matches on the code's file -- a path relative to
``src/repro`` (a trailing ``/`` matches a whole package, ``*`` any
file) or the prefix of a ``<...>`` pseudo-filename of generated code
-- and, optionally, on the function name.  Every name a row gives is
a per-layer metric in ``BENCHMARK.json``; the layer self times therefore sum to the profiled
total, which :func:`attribute` checks.

Code outside ``src/repro`` (the standard library, builtins, this
benchmark's own files) is ``other.python_s``.
"""

from __future__ import annotations

import os
import re

#: (file pattern, function-name regex or None, layer), first match wins.
LAYER_MAP = (
    # Checkpointing is attributed wherever its protocol is implemented.
    ("*", r"^(snapshot_state|restore_state)$",
     "checkpoint.snapshot_s"),
    ("checkpoint/", None, "checkpoint.snapshot_s"),
    # Predecode: table construction and block compilation are build
    # work; the closures they return (handler, loadfn, forward, ...)
    # are dispatch.
    ("engine/predecode.py",
     r"^(__init__|build|block_at|invalidate|_context|_word_accessors"
     r"|_make_\w+|_compile_\w+|_emit_\w+|_block_\w+|emit_\w+"
     r"|interlock_cond)$",
     "engine.build_s"),
    ("engine/predecode.py", None, "engine.dispatch_s"),
    ("engine/fastloop.py", None, "engine.dispatch_s"),
    # Compiled superblocks, and dataclass-generated methods.
    ("<superblock", None, "engine.dispatch_s"),
    ("<string>", None, "engine.dispatch_s"),
    ("engine/", None, "engine.orchestration_s"),
    # Sweep configuration, and packages the workloads only import.
    ("evaluation/", None, "engine.orchestration_s"),
    ("explore/", None, "engine.orchestration_s"),
    ("service/", None, "engine.orchestration_s"),
    ("__main__.py", None, "engine.orchestration_s"),
    ("isa/registers.py", None, "isa.regwin_s"),
    ("isa/", None, "isa.assemble_s"),
    # Kernel sources are generated and assembled at set-up.
    ("workloads/", None, "isa.assemble_s"),
    ("core/timing.py", None, "core.timing_s"),
    ("core/", None, "core.execute_s"),
    ("memory/cache.py", None, "memory.cache_s"),
    ("memory/bus.py", None, "memory.bus_s"),
    ("memory/", None, "memory.backing_s"),
    ("flexcore/fifo.py", None, "flexcore.fifo_s"),
    ("flexcore/interface.py", None, "flexcore.interface_s"),
    ("flexcore/packet.py", None, "flexcore.interface_s"),
    ("flexcore/cfgr.py", None, "flexcore.interface_s"),
    ("flexcore/shadow.py", None, "flexcore.interface_s"),
    ("flexcore/", None, "flexcore.system_s"),
    ("__init__.py", None, "flexcore.system_s"),
    ("extensions/", None, "extensions.monitor_s"),
    ("mdl/", None, "extensions.monitor_s"),
    # Monitor hardware and software-monitor models the extensions import.
    ("fabric/", None, "extensions.monitor_s"),
    ("software/", None, "extensions.monitor_s"),
    ("faultinject/", None, "faultinject.campaign_s"),
    # Seeded fault draws and coverage confidence intervals.
    ("util/", None, "faultinject.campaign_s"),
    ("telemetry/trace.py", None, "telemetry.trace_s"),
    ("telemetry/summary.py", None, "telemetry.digest_s"),
    ("telemetry/", None, "telemetry.metrics_s"),
)

OTHER = "other.python_s"

#: every layer self-time metric, in report order.
LAYERS = tuple(dict.fromkeys(row[2] for row in LAYER_MAP)) + (OTHER,)

#: call-count metrics: name -> (file pattern, function name).
CALL_COUNTS = {
    "isa.physical_index_calls": ("isa/registers.py", "physical_index"),
    "memory.cache_lookups": ("memory/cache.py", "_locate"),
    "flexcore.packets": ("flexcore/fifo.py", "push"),
    "flexcore.fifo_checks": ("flexcore/fifo.py", "occupancy|is_full"),
    "extensions.process_calls": ("extensions/|mdl/", "process"),
    "checkpoint.snapshot_calls": ("flexcore/system.py", "snapshot_state"),
}

_COMPILED = tuple(
    (pattern, re.compile(func) if func else None, layer)
    for pattern, func, layer in LAYER_MAP
)


def repro_path(filename: str) -> str | None:
    """The path below ``src/repro/`` of a profiled code filename, the
    filename itself for generated ``<...>`` code, or ``None`` for code
    outside the program."""
    if filename.startswith("<") and not filename.startswith("<frozen"):
        return filename
    marker = os.sep + os.path.join("src", "repro") + os.sep
    index = filename.rfind(marker)
    if index < 0:
        return None
    return filename[index + len(marker):].replace(os.sep, "/")


def layer_of(filename: str, funcname: str) -> str:
    """The layer a profiled function belongs to."""
    path = repro_path(filename)
    if path is None:
        return OTHER
    for pattern, func, layer in _COMPILED:
        if _file_matches(path, pattern) and (
                func is None or func.match(funcname)):
            return layer
    raise LookupError(f"no layer for {path}:{funcname}")


def _file_matches(path: str, pattern: str) -> bool:
    if pattern == "*":
        return not path.startswith("<")
    if pattern.startswith("<") or pattern.endswith("/"):
        return path.startswith(pattern)
    return path == pattern


def _counted(path: str | None, funcname: str, spec) -> bool:
    files, funcs = spec
    return (path is not None
            and any(_file_matches(path, f) for f in files.split("|"))
            and re.fullmatch(funcs, funcname) is not None)


def attribute(stats: dict) -> tuple[dict, dict, list[str]]:
    """Split a ``pstats.Stats(...).stats`` table by layer.

    Returns ``(self_seconds, calls, problems)``: self time per layer
    (every name in :data:`LAYERS`), the :data:`CALL_COUNTS` totals, and
    a list of self-check failures -- a ``repro`` function with no layer,
    or layer self times that do not sum to the profiled total.
    """
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(CALL_COUNTS, 0)
    problems = []
    total = 0.0
    for (filename, _line, funcname), row in stats.items():
        _cc, ncalls, self_time = row[0], row[1], row[2]
        total += self_time
        try:
            layer = layer_of(filename, funcname)
        except LookupError as error:
            problems.append(str(error))
            layer = OTHER
        seconds[layer] += self_time
        path = repro_path(filename)
        for name, spec in CALL_COUNTS.items():
            if _counted(path, funcname, spec):
                calls[name] += ncalls
    if abs(sum(seconds.values()) - total) > 1e-6 * max(total, 1.0):
        problems.append(
            f"layer self times sum to {sum(seconds.values()):.6f} s, "
            f"profiled total is {total:.6f} s")
    return seconds, calls, problems


def module_layer_problems(module_files) -> list[str]:
    """Modules of ``repro`` whose import-time code has no layer."""
    problems = []
    for filename in module_files:
        try:
            layer = layer_of(filename, "<module>")
        except LookupError as error:
            problems.append(str(error))
            continue
        if layer == OTHER:
            problems.append(f"{filename} maps outside the program")
    return problems
