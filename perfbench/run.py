"""Layered benchmark of orthantloop.

    python3 perfbench/run.py --workload scan|shift|epsilon --seed N \
        --seconds S --trace 0|1

Builds the workload's seeded inputs, then repeats its fixed list of
operations in whole rounds for about ``--seconds`` seconds (at least two
rounds) in this one process on one thread.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` one
more round runs under the tracer and the metrics are the per-layer ones.
Progress and per-operation detail go to standard error.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

_START = time.perf_counter()

# Set before numpy loads its BLAS, which happens when orthantloop is imported.
THREAD_VARS = ("ORTHANTLOOP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# Interference from other tenants of the host only ever slows a round down,
# and it comes in bursts of seconds to tens of seconds, so the fastest of at
# least two rounds is the steadiest estimate of the undisturbed time.
MIN_ROUNDS = 2

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"


def process_age() -> float:
    """Seconds since this process started, from /proc when it is readable,
    else since the first statement of this script."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
        if 0.0 < age < 3600.0:
            return age
    except (OSError, ValueError, IndexError):
        pass
    return time.perf_counter() - _START


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("scan", "shift", "epsilon"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    return args


def import_program():
    """Import orthantloop from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import orthantloop
    except ImportError as exc:
        raise SystemExit(f"error: cannot import orthantloop from {src}: {exc}")
    if Path(orthantloop.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: orthantloop loaded from {orthantloop.__file__}, "
                         f"not from {src}")


def run_round(ops):
    from workloads import Outcome
    outcomes = []
    for op in ops:
        try:
            outcomes.append(op.run())
        except Exception as exc:     # an operation that raises is counted as failed
            log(f"{op.name}: raised\n{traceback.format_exc()}")
            outcomes.append(Outcome(converged=False, error=f"{type(exc).__name__}: {exc}"))
    return outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    wl = workloads.build(args.workload, args.seed)
    wl.warmup()
    setup_s = process_age()

    walls, cpus, rounds = [], [], []
    t_begin = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        outcomes = run_round(wl.ops)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        rounds.append(outcomes)
        if len(rounds) >= MIN_ROUNDS and \
                time.perf_counter() - t_begin + walls[-1] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = min(walls)
    log(f"{args.workload} seed={args.seed}: {len(rounds)} rounds of {len(wl.ops)} ops, "
        f"round wall {[round(w, 4) for w in walls]}")

    correct = True
    layer = {}
    if args.trace:
        from tracing import Tracer
        with Tracer() as tracer:
            t0 = time.perf_counter()
            traced = run_round(wl.ops)
            traced_wall = time.perf_counter() - t0
        rounds.append(traced)
        layer = tracer.metrics()
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - wall_s
        if tracer.absent:
            log(f"absent from this version: {', '.join(tracer.absent)}")
        if layer["quadrature.adaptive_batch.nodes"] != layer["quadrature.integrand_nodes"]:
            log("trace: neval total differs from the nodes counted at the integrands")
            correct = False
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")

    from checks import run_checks
    checked = run_checks(wl, rounds[0], args.seed)
    attempted = failed = 0
    for i, op in enumerate(wl.ops):
        results = checked[i]
        for v in results:
            log(f"{op.name}: {'ok' if v.passed else 'FAIL'} {v.detail}")
        check_ok = all(v.passed for v in results)
        correct = correct and check_ok
        for outcomes in rounds:
            out = outcomes[i]
            same = out == rounds[0][i]
            if not same:
                log(f"{op.name}: a later round differs from the first")
                correct = False
            attempted += 1
            failed += 0 if (out.ok and check_ok and same) else 1
        if not rounds[0][i].ok:
            log(f"{op.name}: failed ({rounds[0][i].error or 'not converged'})")

    if args.trace:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in sorted(layer.items())}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "cpu_s": {"value": min(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
