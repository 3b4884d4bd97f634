"""finvar's benchmark: one workload, checked against its stored reference.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. `--workload all` runs every workload in turn
and ends with a table of their end-to-end metrics. Each process it starts
runs the workload from a fresh interpreter (`worker.py`), so set-up includes
the import and peak memory belongs to that workload alone.

--trace 0 measures the end-to-end metrics: set-up time (median over
SETUP_SAMPLES fresh processes), the timed wall time per pass, per-operation
latency (each operation's mean over the run's passes) and peak memory. --trace 1 runs one untraced and one traced pass and
reports the per-layer table. Every operation is compared with
`reference.json`; the last line of output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full record of the run
(machine, inputs, hashes, every operation) goes to `.bench_out/`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("variation-randers", "hessian-sphere", "pointwise-cli")

#: Fresh processes whose set-up is timed in a --trace 0 run (the timed one included).
SETUP_SAMPLES = 3
#: Every run ends within this many seconds, its processes included.
DEADLINE_S = 170.0

#: An output matches its reference when |got - ref| <= REL_TOL * scale, with
#: scale = max(1, largest |ref| of the same operation). Bit-exact equality is
#: reported beside it but not required: a change of summation order may move
#: a jet coefficient by an ulp, and a printed CLI value by one unit of its
#: last digit.
REL_TOL = 1e-7

#: The end-to-end metrics of the result line, and their units. The median
#: latency `op_s.p50` is printed but left out: it falls between the costs of
#: two query kinds and jumps from one to the other (see README, Steadiness).
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_s.p90": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def worker(args, deadline):
    """Run worker.py with `args`; its last line of output, parsed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: "
                         + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def matches(values, ref):
    """(within REL_TOL, bit-exact) for one operation's outputs against its reference."""
    if len(values) != len(ref):
        return False, False
    scale = max([1.0] + [abs(r) for r in ref])
    close = all(abs(v - r) <= REL_TOL * scale for v, r in zip(values, ref))
    return close, all(v == r for v, r in zip(values, ref))


def check(ops, reference):
    """Mark each operation failed or not; an operation fails if it raised, if
    its verdict failed, or if its outputs depart from the reference."""
    for op in ops:
        ref = reference.get(op["key"])
        if "error" in op:
            op["failure"] = op["error"]
        elif not op["verdict"]:
            op["failure"] = f"verdict failed: {op['detail']}"
        elif ref is None:
            op["failure"] = "no stored reference"
        else:
            op["close"], op["exact"] = matches(op["values"], ref["values"])
            if not op["close"]:
                op["failure"] = f"outputs depart from the reference beyond {REL_TOL:g}"


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        cpu = platform.processor() or cpu
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, args, deadline):
    common = ["--workload", workload, "--seed", str(args.seed)]
    setups = [worker(common + ["--mode", "setup"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    timed = worker(common + ["--mode", "timed", "--seconds", str(args.seconds)], deadline)
    setups.append(timed["setup_s"])
    walls = [p["wall_s"] for p in timed["passes"]]
    latencies = [op["latency_s"] for op in ops_of(timed)]
    # every pass repeats the same operations: each one's latency is its mean
    # over the run, so a slow stretch of the machine weighs as in wall_s
    by_key = {}
    for op in ops_of(timed):
        by_key.setdefault(op["key"], []).append(op["latency_s"])
    per_op = [statistics.fmean(v) for v in by_key.values()]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),    # timed wall time per pass
        "op_s.p90": percentile(per_op, 90),
        "peak_rss_mib": timed["peak_rss_mib"],
    }
    n = {"setup_s": f"n={len(setups)}", "wall_s": f"n={len(walls)}",
         "op_s.p90": f"n={len(per_op)} operations x {len(walls)} passes",
         "peak_rss_mib": "n=1"}
    rows = [(k, v, E2E_UNITS[k], n[k]) for k, v in metrics.items()]
    rows[2:2] = [("op_s.p50", statistics.median(per_op), "s", n["op_s.p90"] + "  printed only")]
    rows[4:4] = [(f"op_s.{p}.each", percentile(latencies, q), "s",
                  f"n={len(latencies)} single latencies  printed only")
                 for p, q in (("p50", 50), ("p90", 90))]
    return timed, metrics, rows, E2E_UNITS


def per_layer(workload, args, deadline, spans_path):
    common = ["--workload", workload, "--seed", str(args.seed), "--passes", "1"]
    plain = worker(common + ["--mode", "timed"], deadline)
    traced = worker(common + ["--mode", "traced", "--spans", spans_path], deadline)
    metrics = dict(traced["layer_metrics"])
    wall, plain_wall = traced["passes"][0]["wall_s"], plain["passes"][0]["wall_s"]
    metrics.update({"trace.wall_s": wall, "trace.untraced_wall_s": plain_wall,
                    "trace.overhead": wall / plain_wall, "trace.spans": traced["span_count"]})
    # shares of the summed self time: with worker threads it exceeds the wall time
    total = sum(r["self_s"] for r in traced["layers"])
    rows = [(r["layer"], r["self_s"], "s", f"{100 * r['self_s'] / total:5.1f}% self  "
             f"incl {r['incl_s']:.4f} s  spans {r['spans']}") for r in traced["layers"]]
    rows.append(("tracing overhead", wall / plain_wall, "x",
                 f"traced pass {wall:.4f} s vs untraced {plain_wall:.4f} s"))
    notes = {"jets.gather_mib": "computed (rows x batch x 8 bytes), not measured"}
    rows += [(k, v, _unit(k), notes.get(k, "")) for k, v in metrics.items()
             if k.split(".")[1] not in ("self_s", "incl_s")]
    units = {k: _unit(k) for k in metrics}
    # both passes are checked: the wrapped engine must compute the same numbers
    traced["passes"] += plain["passes"]
    return traced, metrics, rows, units


def _unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("overhead"):
        return "x"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def ops_of(out):
    return [op for p in out["passes"] for op in p["ops"]]


def run(workload, args):
    """Run one workload and print its report; its result object and table rows."""
    deadline = time.monotonic() + DEADLINE_S
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[workload]
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{args.seed}.npz")
    if args.trace:
        out, metrics, rows, units = per_layer(workload, args, deadline, spans_path)
    else:
        out, metrics, rows, units = end_to_end(workload, args, deadline)

    ops = ops_of(out)
    check(ops, reference)
    failed = [op for op in ops if "failure" in op]
    exact = sum(bool(op.get("exact")) for op in ops)
    info = machine()
    info.update(out["versions"])
    print(f"finvar benchmark  workload={workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in info.items()))
    if "config_hash" in out:
        print(f"inputs   {len(ops)} operations on {len({op['key'] for op in ops})} distinct "
              f"pool entries  config_hash={out['config_hash']}")
    for op in {op["key"]: op for op in ops if "spec_hash" in op}.values():
        print(f"input    {op['key']}  spec_hash={op['spec_hash']}  "
              f"structure_hash={op['structure_hash']}  {op['detail']}")
    print(f"check    {len(ops) - len(failed)}/{len(ops)} operations pass (verdict, and "
          f"outputs within {REL_TOL:g} x scale of the reference); bit-exact {exact}/{len(ops)}")
    print(f"failed_frac {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4g}")
    for op in failed[:5]:
        print(f"FAILED   {op['key']}: {op['failure']}")
    for name, value, unit, note in rows:
        print(f"  {name:<28} {value:>14.6g} {unit:<5} {note}")

    os.makedirs(OUT, exist_ok=True)
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "metrics": metrics, "operations": ops,
              "config_hash": out.get("config_hash")}
    with open(os.path.join(OUT, f"run-{workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}, rows


def table(results, rows):
    """The end-to-end figures of every workload, one line each."""
    names = [name for name, *_ in next(iter(rows.values()))]
    print(f"\n{'workload':<18} {'failed_frac':>11} " + " ".join(f"{k:>12}" for k in names))
    for workload, res in results.items():
        print(f"{workload:<18} {res['failed'] / res['attempted']:>11.4g} "
              + " ".join(f"{value:>12.5g}" for _, value, *_ in rows[workload])
              + f"   ({res['attempted']} operations)")


def combined(results):
    """One result object for several workloads; metric names get the workload's as prefix."""
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "finvar", "__init__.py")):
        sys.exit(f"no finvar sources under {os.path.join(ROOT, 'src')}; "
                 "run from the root of a finvar checkout")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, rows = {}, {}
    try:
        for name in names:
            results[name], rows[name] = run(name, args)
    except BenchError as err:
        sys.exit(f"benchmark failed: {err}")
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return
    if not args.trace:
        table(results, rows)
    print(json.dumps(combined(results)))


if __name__ == "__main__":
    main()
