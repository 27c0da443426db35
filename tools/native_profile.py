#!/usr/bin/env python3
"""Where does the CPU of a benchmark workload go, below the Python frames?

cProfile sees Python functions and the C entry points they call, but
nothing inside ``repro.sim._ckernel``: a kernel that spends its time in
CPython's attribute lookups looks like one opaque call. This tool samples
native stacks instead. It

- compiles a small helper (``setitimer(ITIMER_PROF)`` + a ``SIGPROF``
  handler calling glibc's ``backtrace()``) with ``sysconfig``'s compiler
  into a temporary directory and loads it with ``ctypes``;
- runs every sub-run of one ``bench/workloads.py`` workload (``base`` and
  ``tlt``) through ``run_scenario`` on the chosen backend, with the timer
  armed (``bench`` is imported, never written to);
- maps each sampled PC through ``/proc/self/maps`` and ``nm`` to a
  function, and prints the leaf functions' shares by category and by the
  innermost ``_ckernel`` function on the stack.

Usage::

    python tools/native_profile.py --workload fabric96-mixed [--backend compiled]
        [--seed 11] [--quick] [--passes 1] [--out FILE]

The compiled backend needs the extension built in place first
(``python setup.py build_ext --inplace``). Linux/glibc only.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time
from collections import Counter, defaultdict

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
INTERVAL_US = 1000              # CPU time between samples (the kernel rounds up to its tick)
BUFFER_BYTES = 16 << 20         # about two minutes of CPU at 250 samples/s; the rest is dropped
TOP = 25                        # rows of the two function tables

#: The sampler: a preallocated buffer of (depth, pc...) records, filled
#: from the signal handler (no allocation there); backtrace() is called
#: once before the timer is armed so libgcc is loaded outside it.
HELPER = r"""
#include <execinfo.h>
#include <signal.h>
#include <string.h>
#include <sys/time.h>

#define DEPTH 64
static void **buf;
static long cap, used, dropped;
static struct sigaction previous;

static void
on_prof(int sig, siginfo_t *info, void *context)
{
    (void)sig; (void)info; (void)context;
    if (used + DEPTH + 1 > cap) {
        dropped++;
        return;
    }
    int n = backtrace(buf + used + 1, DEPTH);
    buf[used] = (void *)(long)n;
    used += n + 1;
}

int
np_start(void **buffer, long capacity, long interval_us)
{
    void *warm[4];
    struct sigaction sa;
    struct itimerval it;
    backtrace(warm, 4);
    buf = buffer;
    cap = capacity;
    used = dropped = 0;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, &previous) != 0)
        return -1;
    it.it_interval.tv_sec = interval_us / 1000000;
    it.it_interval.tv_usec = interval_us % 1000000;
    it.it_value = it.it_interval;
    return setitimer(ITIMER_PROF, &it, NULL);
}

long
np_stop(void)
{
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    sigaction(SIGPROF, &previous, NULL);
    return used;
}

long
np_dropped(void)
{
    return dropped;
}
"""

#: Leaf categories of CPython's functions, first match wins. A leaf in the
#: ``_ckernel`` object is "heap" or "kernel self"; anything else "other".
#: A dict probe (DICT_INTERNALS) counts as an attribute lookup when the
#: first frame above the probes is one of the attribute protocol's.
ATTRIBUTE = "attribute lookup"
DICT = "dict lookup"
CATEGORIES = (
    ("int conversion", r"^(PyLong_AsLongLong|PyLong_AsLong|_PyLong_AsByteArray"
                       r"|PyLong_AsLongLongAndOverflow|PyLong_AsLongAndOverflow)$"),
    (ATTRIBUTE, r"^(_PyType_Lookup|find_name_in_mro|PyObject_GetAttr\w*|PyObject_GenericGetAttr"
                r"|_PyObject_GenericGetAttrWithDict|_PyObject_LookupAttr\w*|_PyObject_GetMethod"
                r"|PyObject_SetAttr\w*|PyObject_GenericSetAttr|_PyObject_GenericSetAttrWithDict"
                r"|_PyObject_GetInstanceAttribute|_PyObject_StoreInstanceAttribute"
                r"|_PyObject_GetDictPtr|_PyObject_MakeDictFromInstanceAttributes"
                r"|PyObject_CallMethod\w*|PyObject_VectorcallMethod|callmethod|object_vacall"
                r"|method_get|func_descr_get|PyMethod_New|slot_tp_getattr\w*|module_getattro)$"),
    (DICT, r"^(lookdict\w*|\w*keys_lookup\w*|_Py_dict_lookup|_PyDictKeys_\w+|PyDict_GetItem\w*"
           r"|_PyDict_GetItem\w*|PyDict_SetItem\w*|_PyDict_SetItem\w*|PyDict_Contains"
           r"|PyDict_DelItem\w*|insertdict|insert_to_emptydict|dict_subscript)$"),
    ("alloc/free", r"^(_PyObject_Malloc|_PyObject_Free|PyObject_Malloc|PyObject_Free"
                   r"|pymalloc_\w+|_PyMem_\w+|PyMem_\w+|malloc|free|realloc|calloc"
                   r"|_int_malloc|_int_free|cfree|_PyObject_GC_\w+|PyObject_GC_\w+"
                   r"|gc_alloc|_Py_Dealloc|\w+_dealloc|_PyLong_New|_PyLong_FromSTwoDigits"
                   r"|PyLong_From\w+|PyTuple_New|PyTuple_Pack|tuple_alloc|PyList_New"
                   r"|list_resize|PyFloat_FromDouble|_PyTuple_\w+|clear_freelist\w*)$"),
    ("gc", r"^(gc_\w+|collect\w*|visit_\w+|subtract_refs|update_refs|move_\w+"
           r"|deduce_unreachable|\w+_traverse|handle_\w+_finalizer\w*|delete_garbage"
           r"|_PyGC_\w+|PyGC_\w+)$"),
    ("heap", r"^(heap_\w+|entry_lt|siftup\w*|siftdown\w*|_heapq\w*|heappush|heappop"
             r"|heapq_\w+|cmp_lt)$"),
    ("bytecode", r"^(_PyEval_\w+|PyEval_\w+|_PyFunction_Vectorcall|_Py\w*Frame\w*"
                 r"|_PyObject_VectorcallTstate|_PyObject_Call\w*|PyObject_Vectorcall\w*"
                 r"|PyObject_Call\w*|cfunction_\w+|method_vectorcall\w*|vectorcall\w*"
                 r"|_PyCFunction\w+)$"),
)
CATEGORY_RES = [(name, re.compile(pattern)) for name, pattern in CATEGORIES]
DICT_INTERNALS = re.compile(r"^(lookdict\w*|\w*keys_lookup\w*|_Py_dict_lookup|_PyDictKeys_\w+)$")
KERNEL_SELF = "kernel self"
OTHER = "other"


def build_helper(work: str) -> ctypes.CDLL:
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc") or ["cc"]
    if shutil.which(compiler[0]) is None:
        raise SystemExit(f"native_profile: no C compiler found (sysconfig's CC is "
                         f"{compiler[0]!r}); install gcc or clang to build the sampler")
    source, library = os.path.join(work, "sampler.c"), os.path.join(work, "sampler.so")
    with open(source, "w") as fh:
        fh.write(HELPER)
    done = subprocess.run(compiler + ["-O2", "-shared", "-fPIC", "-o", library, source],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"native_profile: building the sampler failed:\n{done.stderr}")
    helper = ctypes.CDLL(library)
    helper.np_start.argtypes = (ctypes.c_void_p, ctypes.c_long, ctypes.c_long)
    helper.np_start.restype = ctypes.c_int
    helper.np_stop.argtypes = helper.np_dropped.argtypes = ()
    helper.np_stop.restype = helper.np_dropped.restype = ctypes.c_long
    return helper


def read_maps() -> list:
    """Executable mappings of this process: (start, end, bias, path), sorted."""
    maps = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.split(maxsplit=5)
            if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            maps.append((start, end, start - int(fields[2], 16), fields[5].strip()))
    return sorted(maps)


class Symbols:
    """PC -> (object basename, function name), through ``nm`` per object."""

    def __init__(self) -> None:
        self.maps = read_maps()
        self.starts = [m[0] for m in self.maps]
        self.tables: dict = {}

    def _table(self, path: str) -> tuple:
        if path not in self.tables:
            symbols = {}
            for flags in (["--defined-only"], ["-D", "--defined-only"]):
                done = subprocess.run(["nm"] + flags + [path], capture_output=True, text=True)
                for line in done.stdout.splitlines():
                    parts = line.split()
                    if len(parts) == 3 and parts[1] in "tTwWiI":
                        symbols.setdefault(int(parts[0], 16), parts[2].split("@")[0])
                if symbols:
                    break
            addresses = sorted(a for a in symbols if a)
            self.tables[path] = (addresses, [symbols[a] for a in addresses])
        return self.tables[path]

    def resolve(self, pc: int) -> tuple:
        index = bisect.bisect_right(self.starts, pc) - 1
        if index < 0 or pc >= self.maps[index][1]:
            return "?", f"0x{pc:x}"
        _start, _end, bias, path = self.maps[index]
        addresses, names = self._table(path)
        at = bisect.bisect_right(addresses, pc - bias) - 1
        name = names[at] if at >= 0 else "?"
        # The PLT stubs follow .init: a call out of this object in flight.
        return os.path.basename(path), "(PLT stub)" if name == "_init" else name


def category(obj: str, name: str) -> str:
    for label, pattern in CATEGORY_RES:
        if pattern.match(name) and (label == "heap" or not obj.startswith("_ckernel")):
            return label
    return KERNEL_SELF if obj.startswith("_ckernel") else OTHER


def leaf_category(names: list) -> str:
    """The category of a stack's leaf; ``names`` are (object, function)
    pairs, innermost first."""
    label = category(*names[0])
    if label == DICT and DICT_INTERNALS.match(names[0][1]):
        above = next((n for n in names[1:] if not DICT_INTERNALS.match(n[1])), None)
        if above is not None and category(*above) == ATTRIBUTE:
            return ATTRIBUTE
    return label


def samples(raw, used: int):
    """The stacks of the buffer, innermost first, without the handler and
    the signal trampoline; return addresses moved back into their call."""
    at = 0
    while at < used:
        depth = int(raw[at] or 0)
        frames = [raw[at + 1 + i] or 0 for i in range(depth)]
        at += depth + 1
        if len(frames) > 2:  # on_prof, __restore_rt, then the interrupted PC
            yield [frames[2]] + [pc - 1 for pc in frames[3:]]


def run_workload(args) -> tuple:
    from repro.experiments.scenarios import run_scenario
    from repro.sim import backend
    from workloads import scheme_pairs, warm_up

    work = tempfile.mkdtemp(prefix="native-profile-")
    try:
        helper = build_helper(work)
        backend.set_backend(args.backend)
        run_scenario(warm_up(args.workload))
        configs = [c for pair in scheme_pairs(args.workload, args.seed, args.quick) for c in pair]
        capacity = BUFFER_BYTES // ctypes.sizeof(ctypes.c_void_p)
        raw = (ctypes.c_void_p * capacity)()  # kept referenced until np_stop
        started = time.process_time()
        if helper.np_start(raw, capacity, INTERVAL_US) != 0:
            raise SystemExit("native_profile: could not arm ITIMER_PROF")
        try:
            for config in configs * args.passes:
                run_scenario(config)
        finally:
            used = helper.np_stop()
        cpu = time.process_time() - started
        dropped = helper.np_dropped()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return raw, used, dropped, cpu, len(configs) * args.passes


def report(args, raw, used, dropped, cpu, runs) -> str:
    symbols = Symbols()
    resolved: dict = {}

    def name_of(pc):
        if pc not in resolved:
            resolved[pc] = symbols.resolve(pc)
        return resolved[pc]

    leaves, by_category, by_caller = Counter(), Counter(), defaultdict(Counter)
    total = 0
    for stack in samples(raw, used):
        total += 1
        names = [name_of(pc) for pc in stack]
        label = leaf_category(names)
        leaves[(label, names[0][1])] += 1
        by_category[label] += 1
        caller = next((name for obj, name in names if obj.startswith("_ckernel")),
                      "(no _ckernel frame)")
        by_caller[caller][label] += 1
    if not total:
        raise SystemExit("native_profile: no samples (is the run too short?)")

    def pct(n):
        return f"{100.0 * n / total:5.1f} %"

    lines = [f"native profile: {args.workload}, {args.backend}, seed {args.seed}"
             f"{', quick' if args.quick else ''}: {runs} sub-runs, {cpu:.2f} s CPU, "
             f"{total} samples"
             + (f", {dropped} dropped (buffer full)" if dropped else ""),
             "", "leaf share by category:"]
    for label, count in by_category.most_common():
        lines.append(f"  {pct(count)}  {label}")
    lines += ["", f"top {TOP} leaf functions:"]
    for (label, leaf), count in leaves.most_common(TOP):
        lines.append(f"  {pct(count)}  {leaf:<44} {label}")
    lines += ["", "by innermost _ckernel function on the stack: its share, then the "
              "share of its samples whose leaf is an attribute lookup, a dict lookup or "
              "an int conversion:"]
    for caller, counts in sorted(by_caller.items(), key=lambda kv: -sum(kv[1].values()))[:TOP]:
        n = sum(counts.values())
        lines.append(f"  {pct(n)}  {caller:<34} attr {pct(counts[ATTRIBUTE])}  "
                     f"dict {pct(counts[DICT])}  int {pct(counts['int conversion'])}")
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    from spec import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--backend", choices=("pure", "compiled"), default="compiled")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true", help="TINY sizes (seconds)")
    parser.add_argument("--passes", type=int, default=1,
                        help="run the sub-runs this many times (more samples: Linux's "
                             "CPU timers tick at HZ, 250/s on many hosts)")
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args()
    if not sys.platform.startswith("linux"):
        raise SystemExit("native_profile: needs Linux (/proc/self/maps, glibc backtrace)")
    text = report(args, *run_workload(args))
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
