#!/usr/bin/env python3
"""Which C of ``repro/sim/_ckernelmodule.c`` does anything run?

ROADMAP 1(c): new C in the compiled backend is paid for with C nobody
reaches. This tool copies the tracked files of the checkout into a
temporary directory, builds the extension there with ``-O0 --coverage``
(a ``CC`` wrapper drops ``setup.py``'s ``-O2``), and runs against it

- tier-1 with ``TLT_BACKEND=compiled``, and
- the four ``bench/run.py --quick`` workloads (each forces its own
  rebuilds, so line counts are summed per phase from ``gcov --json-format``
  rather than merged as ``.gcda`` files).

It prints the share of executable lines that ran, the functions never
entered, and inside entered functions every never-taken arm that does
more than unwind an error: hand-backs to Python, shape fallbacks,
defensive branches. A function or arm on the list is either missing a
test or is dead: parametrise a test over both engines where the name is
part of a contract, delete where nothing in ``src tests tools benchmarks
bench`` can reach it.

Usage::

    python tools/ckernel_coverage.py [--skip-tests] [--skip-bench] [--keep]

Needs gcc and gcov (any version with ``--json-format``, gcc >= 9).
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SOURCE = os.path.join("src", "repro", "sim", "_ckernelmodule.c")
WORKLOADS = ("incast-star", "fabric96-mixed", "roce-leafspine", "service-open-loop")

#: The compiler ``setup.py`` gets: gcc without its optimisation and debug
#: flags, with coverage instrumentation (also needed at link time).
CC_WRAPPER = """#!/bin/sh
for arg do
  shift
  case "$arg" in -O[0-9s]|-g|-g[0-9]) ;; *) set -- "$@" "$arg" ;; esac
done
exec gcc -O0 --coverage "$@"
"""

#: Lines that only unwind after a failed call: not an arm of their own.
UNWIND = re.compile(
    r"^\s*(return (-1|NULL|0|status|rc|r)?;|goto \w+;|[{}]|}? ?else ?{?|Py_X?DECREF\(.*\);"
    r"|Py_CLEAR\(.*\);|PyErr_\w+\(.*|\"[^\"]*\"\);?|.*\? -1 : 0;|break;|continue;"
    r"|status = -1;|\w+:|)\s*$")


def run(command, cwd, env=None, check=True):
    print("+", " ".join(command), flush=True)
    done = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
    if check and done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        raise SystemExit(f"{command[0]} failed with status {done.returncode}")
    return done


def copy_checkout(dest):
    files = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, capture_output=True,
                           check=True).stdout.decode().split("\0")
    for name in filter(None, files):
        if os.path.isfile(os.path.join(ROOT, name)):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(dest, name))


def collect(work, lines, functions):
    """Add this phase's counts (the .gcda beside the last-built object)."""
    notes = [os.path.join(d, f) for d, _, fs in os.walk(os.path.join(work, "build"))
             for f in fs if f.endswith(".gcda")]
    if not notes:
        raise SystemExit("no .gcda written: the extension was not exercised")
    out = os.path.join(work, "gcov-out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    run(["gcov", "--json-format", "--object-directory", os.path.dirname(notes[0]),
         os.path.join(work, SOURCE)], cwd=out)
    for name in os.listdir(out):
        with gzip.open(os.path.join(out, name), "rt") as fh:
            report = json.load(fh)
        for unit in report["files"]:
            if not unit["file"].endswith("_ckernelmodule.c"):
                continue
            for line in unit["lines"]:
                lines[line["line_number"]] += line["count"]
            for fn in unit["functions"]:
                functions[fn["name"]][0] = (fn["start_line"], fn["end_line"])
                functions[fn["name"]][1] += fn["execution_count"]
    for path in notes:  # the next phase starts from zero
        os.remove(path)


def report(work, lines, functions):
    with open(os.path.join(work, SOURCE)) as fh:
        source = fh.read().split("\n")
    ran = sum(1 for count in lines.values() if count)
    print(f"\n{ran} of {len(lines)} executable lines ran ({100.0 * ran / len(lines):.1f} %)")
    dead = sorted((span, name) for name, (span, count) in functions.items() if not count)
    dead_lines = sum(1 for (lo, hi), _ in dead for n in range(lo, hi + 1) if n in lines)
    print(f"\nnever entered: {len(dead)} functions, {dead_lines} executable lines")
    for (lo, hi), name in dead:
        print(f"  {lo:5d}-{hi:<5d} {name}")
    print("\nnever taken, in functions that ran (error unwinding left out):")
    for name, ((lo, hi), count) in sorted(functions.items(), key=lambda kv: kv[1][0]):
        if not count:
            continue
        arm = []
        for number in list(range(lo, hi + 1)) + [None]:
            if number in lines and not lines[number]:
                arm.append(number)
            elif arm and (number is None or number in lines):
                if any(not UNWIND.match(source[n - 1]) for n in arm):
                    first = next(n for n in arm if not UNWIND.match(source[n - 1]))
                    print(f"  {arm[0]:5d}-{arm[-1]:<5d} {name}: {source[first - 1].strip()[:70]}")
                arm = []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--skip-tests", action="store_true", help="leave tier-1 out")
    parser.add_argument("--skip-bench", action="store_true", help="leave bench/run.py out")
    parser.add_argument("--keep", action="store_true", help="keep the temporary directory")
    args = parser.parse_args()
    work = tempfile.mkdtemp(prefix="ckernel-cov-")
    try:
        copy_checkout(work)
        wrapper = os.path.join(work, "cc-coverage")
        with open(wrapper, "w") as fh:
            fh.write(CC_WRAPPER)
        os.chmod(wrapper, os.stat(wrapper).st_mode | stat.S_IXUSR)
        env = {k: v for k, v in os.environ.items() if not k.startswith("TLT_")}
        env.update(CC=wrapper, TLT_REQUIRE_COMPILED="1",
                   PYTHONPATH=os.path.join(work, "src"))
        lines, functions = defaultdict(int), defaultdict(lambda: [None, 0])
        if not args.skip_tests:
            run([sys.executable, "setup.py", "build_ext", "--inplace", "--force"], work, env)
            tests = run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                        work, dict(env, TLT_BACKEND="compiled"), check=False)
            print(tests.stdout.strip().split("\n")[-1])
            if tests.returncode != 0:
                sys.stderr.write(tests.stdout[-4000:])
                raise SystemExit("tier-1 failed on the coverage build")
            collect(work, lines, functions)
        if not args.skip_bench:
            for workload in WORKLOADS:
                run([sys.executable, os.path.join("bench", "run.py"), "--quick",
                     "--workload", workload], work, env)
                collect(work, lines, functions)
        if lines:
            report(work, lines, functions)
    finally:
        if args.keep:
            print(f"kept {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
