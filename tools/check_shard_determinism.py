#!/usr/bin/env python3
"""Sharded-execution determinism gate for CI.

Runs the determinism suite's pinned scenarios (``tests/
test_determinism.py``) through the sharded executor and fails unless
every fingerprint field matches the committed single-core EXPECTED
values bit-for-bit. This is the contract of ``repro.sim.sharding``:
``--shards N`` is an execution strategy, not an approximation.

Every pinned transport family is gated, including the RoCE RED/ECN
family: each switch draws its marking decisions from its own
name-seeded RNG stream (``derive_seed(seed, "ecn.<switch>")``), so
every shard replica derives identical streams and only the owning
shard consumes them — the fabric-global RNG that once excluded
``dcqcn_pfc`` from this gate is gone.

Usage::

    python tools/check_shard_determinism.py --shards 4
    python tools/check_shard_determinism.py --shards 2 --configs dctcp_tlt
    python tools/check_shard_determinism.py --shards 2 --inline

``--inline`` forces the in-process worker path (TLT_SHARD_INLINE);
the default exercises real worker processes.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "tests"))

#: Pinned configs that the sharded executor reproduces bit-for-bit: the
#: three loss-free EXPECTED pins plus one lossy pin per recovery flavour
#: (byte-stream SACK, PSN selective repeat, go-back-N) so drops,
#: retransmissions and RTOs cross shard boundaries too.
SHARDABLE = ("dctcp_tlt", "dcqcn_pfc", "hpcc_tlt",
             "dctcp_tlt_s3", "irn_tlt_s3", "dcqcn_s3")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=2, metavar="N",
                        help="shard count to verify (default: 2)")
    parser.add_argument("--configs", default=",".join(SHARDABLE), metavar="IDS",
                        help="comma-separated determinism-suite config names "
                             f"(default: {','.join(SHARDABLE)})")
    parser.add_argument("--inline", action="store_true",
                        help="run shard workers inline instead of in worker "
                             "processes")
    args = parser.parse_args(argv)

    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if args.inline:
        os.environ["TLT_SHARD_INLINE"] = "1"

    import test_determinism as pins

    fingerprint = pins.fingerprint
    CONFIGS = {**pins.CONFIGS, **pins.LOSSY_CONFIGS}
    EXPECTED = {**pins.EXPECTED, **pins.LOSSY_EXPECTED}

    names = [n for n in args.configs.split(",") if n]
    unknown = [n for n in names if n not in CONFIGS]
    if unknown:
        print(f"unknown determinism config(s): {unknown}; "
              f"available: {sorted(CONFIGS)}", file=sys.stderr)
        return 2

    failures = 0
    for name in names:
        config = replace(CONFIGS[name](), shards=args.shards)
        actual = fingerprint(config)
        expected = EXPECTED[name]
        diffs = [(k, actual[k], expected[k])
                 for k in expected if actual[k] != expected[k]]
        if diffs:
            failures += 1
            print(f"{name} shards={args.shards}: MISMATCH")
            for key, got, want in diffs:
                print(f"  {key}: sharded {got} != single-core {want}")
        else:
            print(f"{name} shards={args.shards}: bit-identical "
                  f"({len(expected)} fingerprint fields)")
    if failures:
        print(f"\n{failures} config(s) diverged from the single-core "
              f"fingerprint", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
