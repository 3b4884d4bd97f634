"""One workload in a fresh interpreter; `run.py` starts it and reads its
last line of output, a JSON object.

    python3 benchmarks/worker.py --workload NAME --seed N --mode MODE
                                 [--seconds S] [--passes K] [--spans PATH]

MODE is `setup` (import, build, warm up, exit), `timed` (set up, then passes
until S seconds are used, give or take half a pass, or K passes are done) or
`traced` (as timed, with every engine layer wrapped in spans; the spans go to
PATH).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import finvar  # noqa: E402

if not os.path.abspath(finvar.__file__).startswith(SRC + os.sep):
    sys.exit(f"finvar was imported from {finvar.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def run_op(wl, ctx, op):
    start = time.perf_counter()
    try:
        out = wl.execute(ctx, op)
    except Exception as err:  # an operation that raises counts as failed
        out = {"error": f"{type(err).__name__}: {err}"}
    out["latency_s"] = time.perf_counter() - start
    out["key"] = op["key"]
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0, help="0: as many as fit")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    phase = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    with phase("bench.setup"):
        ctx = wl.build()
        wl.warm_up(ctx)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "passes": [],
              "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                           "finvar": finvar.__version__}}
    if args.mode != "setup":
        window = time.perf_counter()
        for ops in wl.passes(args.seed):
            start = time.perf_counter()
            with phase("bench.pass"):
                outs = []
                for op in ops:
                    with phase("bench.op"):
                        outs.append(run_op(wl, ctx, op))
            walls = [p["wall_s"] for p in result["passes"]]
            walls.append(time.perf_counter() - start)
            result["passes"].append({"wall_s": walls[-1], "ops": outs})
            if args.passes and len(walls) >= args.passes:
                break
            # stop when the next pass would end more than half a pass past the window
            if time.perf_counter() - window + statistics.median(walls) / 2 > args.seconds:
                break
    if args.workload == "pointwise-cli":
        result["config_hash"] = workloads.PointwiseCli.config_hash()
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans()
        rows, metrics = tracing.aggregate(spans, tracer.names, tracer.counts())
        result["layers"] = rows
        result["layer_metrics"] = metrics
        result["span_count"] = int(len(spans["id"]))
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            tracer.write(args.spans)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
