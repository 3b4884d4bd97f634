"""Compute and store the reference outputs of every pooled input.

    python3 benchmarks/reference.py [--workload NAME ...]

Writes `benchmarks/reference.json`, keeping the entries of workloads not
named. Each entry holds the outputs, the verdict and its detail, and the
engine's hashes. A failing verdict is stored as it is and reported: the
benchmark then fails on that input, which is the point.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

PATH = os.path.join(HERE, "reference.json")


def pool_ops(wl):
    if isinstance(wl, workloads.PointwiseCli):
        return [{"key": f"{kind}:{i}", "kind": kind, "index": i}
                for kind in workloads.POINTWISE_KINDS for i in range(workloads.POINT_POOL)]
    return [{"key": f"mc{s}", "mc_seed": s} for s in workloads.MC_SEEDS]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    stored = {}
    if os.path.exists(PATH):
        with open(PATH) as fh:
            stored = json.load(fh)
    failures = 0
    for name in args.workload or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        ctx = wl.build()
        entries = {}
        for op in pool_ops(wl):
            out = wl.execute(ctx, op)
            entries[op["key"]] = out
            failures += not out["verdict"]
            print(f"{name} {op['key']}: {'pass' if out['verdict'] else 'FAIL'}  {out['detail']}",
                  flush=True)
        stored[name] = entries
    with open(PATH, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if failures:
        sys.exit(f"{failures} verdict(s) failed")


if __name__ == "__main__":
    main()
