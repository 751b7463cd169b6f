"""Rebuild perfbench/reference.json from the checked-out code.

    python3 perfbench/make_reference.py [--scale default|toy ...]

Run from the repository root, at the commit whose outputs define "correct"
(the reference commit).  It runs every op any workload seed can draw (every
pool entry) once and stores its observation: exit code, PASS/FAIL verdict
and reported values.  Entries for scales not rebuilt are kept.  Fails if
any op raises or fails a reference-free check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from onepass import run_op  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", action="append", choices=sorted(workloads.GRIDS))
    args = ap.parse_args(argv)
    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    workdir = os.path.join(HERE, "_work", "reference")
    for scale in args.scale or sorted(workloads.GRIDS):
        for wl in workloads.WORKLOADS:
            for op in workloads.all_pool_ops(wl, workdir, scale):
                code, out, err, res = run_op(op)
                if code is None:
                    print(f"{op.ref_key}: raised\n{err}", file=sys.stderr)
                    return 1
                obs, problems = check.observe(op, code, out, err, res)
                if problems:
                    print(f"{op.ref_key}: {problems}", file=sys.stderr)
                    return 1
                reference[op.ref_key] = obs
                print(f"{op.ref_key}: exit={obs['exit']} verdict={obs['verdict']}", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
