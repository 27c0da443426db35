"""Layers of the simulator, and cProfile self time grouped by layer.

A layer is a set of source files under ``src/repro``. The trace is
taken from outside the program: ``cProfile`` around one
``run_scenario`` call, then every function's *self* time is charged to
the layer its file belongs to. Functions that are not repro code
(builtins such as ``heappush`` or ``len``, and stdlib Python such as
``random.py``) are charged to the layer of whoever called them,
through the profiler's caller edges, so no time is lost and the shares
sum to 1. What cannot be charged to a repro caller (the benchmark's
own frames, interpreter start of the profiled call) is ``other``.

All of ``repro.sim._ckernel`` is one layer, ``sim.ckernel``: the C
engine loop and the switch/host/port kernels run inside it without a
Python frame, so the profiler sees only their boundary.
"""

from __future__ import annotations

import os

#: layer -> path prefixes relative to ``src/repro`` (first match wins,
#: so longer prefixes come first).
LAYER_PATHS = {
    "sim": ("sim/",),
    "net.link": ("net/link.py",),
    "net.node": ("net/node.py", "net/topology.py", "net/__init__.py"),
    "net.packet": ("net/packet.py",),
    "net.routing": ("net/routing.py",),
    "switchsim": ("switchsim/",),
    "transport": ("transport/",),
    "core": ("core/",),
    "workload": ("workload/", "apps/"),
    "service": ("service/",),
    "stats": ("stats/",),
    "experiments": ("experiments/", "__init__.py", "version.py"),
    # Subsystems every benchmark run leaves switched off; a share
    # above zero means one leaked into the hot path.
    "offpath": ("audit/", "faults/", "telemetry/", "net/faults.py"),
}

#: Every layer that gets a row, in print order.
LAYERS = ("sim", "sim.ckernel") + tuple(name for name in LAYER_PATHS if name != "sim")

_CKERNEL_TAG = "_ckernel"


def layer_of_path(relative: str):
    """Layer of a path relative to ``src/repro`` (``/``-separated), or None."""
    for layer, prefixes in LAYER_PATHS.items():
        for prefix in prefixes:
            if relative == prefix or (prefix.endswith("/") and relative.startswith(prefix)):
                return layer
    return None


def _own_layer(func, package_dir: str):
    """Layer a profiled function belongs to by itself, or None when it
    has to be charged to its callers."""
    filename, _line, name = func
    if filename == "~":  # builtin or C-extension function
        return "sim.ckernel" if _CKERNEL_TAG in name else None
    if filename.startswith(package_dir):
        relative = os.path.relpath(filename, package_dir).replace(os.sep, "/")
        return layer_of_path(relative) or "other"
    return None


def attribute(stats, package_dir: str) -> dict:
    """Group a ``pstats.Stats``'s self time by layer.

    Returns ``{"share": {layer: fraction}, "calls": {layer: n}, "other_share": f}``.
    ``calls`` counts calls of the layer's own functions (not of the
    builtins charged to it), which repeat exactly.
    """
    package_dir = os.path.join(os.path.abspath(package_dir), "")
    table = stats.stats
    seconds = dict.fromkeys(LAYERS + ("other",), 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    own = {func: _own_layer(func, package_dir) for func in table}

    def charge(func, amount: float, seen: frozenset) -> None:
        """Charge ``amount`` seconds spent below ``func`` to a layer."""
        layer = own[func]
        if layer is not None:
            seconds[layer] += amount
            return
        # ``func`` is not repro code either: pass the time on to its
        # callers, in proportion to the cumulative time of each edge
        # (edge value: calls, primitive calls, self time, cumulative).
        edges = [(caller, edge[3]) for caller, edge in table[func][4].items()
                 if caller not in seen]
        weight = sum(cumulative for _caller, cumulative in edges)
        if weight <= 0.0:
            seconds["other"] += amount
            return
        for caller, cumulative in edges:
            charge(caller, amount * cumulative / weight, seen | {func})

    for func, (_cc, ncalls, self_time, _ct, callers) in table.items():
        layer = own[func]
        if layer is not None:
            seconds[layer] += self_time
            if layer != "other":
                calls[layer] += ncalls
        elif not callers:
            seconds["other"] += self_time
        else:
            for caller, edge in callers.items():
                charge(caller, edge[2], frozenset((func,)))
    total = sum(seconds.values())
    return {
        "share": {layer: seconds[layer] / total for layer in LAYERS},
        "calls": calls,
        "other_share": seconds["other"] / total,
    }
