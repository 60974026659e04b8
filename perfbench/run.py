"""Seeded end-to-end benchmark for skelpot.

    python3 perfbench/run.py --workload grid-solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`.  Set-up imports the library and builds every input of the run;
then ops run one at a time, in this process, until their summed CPU time
reaches --seconds (or the input pool is used up).  Every op's output is
checked, outside the op timer.

Times are calibrated CPU times.  On a shared machine the wall time of the
same work swings with other tenants' load, and even its CPU time moves by
up to 1.5x as the host's load changes.  So right before each op (and
each set-up step) the run times `reference()`, a fixed stretch of
interpreter work that does not touch the library, and scales the op's
CPU time by CAL_REF_S / (the median of the nearby reference times): a
calibrated millisecond is the CPU time in which `reference()` runs once.
The last line of stdout is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1 (see README.md)."""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

import checks
import tracing

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("grid-solve", "kinked-pipeline", "superform-identities")
SETUP_REPS = 5
# A run on a busy machine gets less CPU per wall second: the measurement
# loop also stops after WALL_CAP * --seconds of wall time, so that the run
# still ends in time (with fewer ops).
WALL_CAP = 1.5
# Traced and untraced ops alternate in blocks of whole workload cycles,
# so both sides see the same mix of op kinds and shapes.
CYCLE = {"grid-solve": 6, "kinked-pipeline": 1, "superform-identities": 1}


# Calibration: reference() is defined to take CAL_REF_S calibrated
# seconds; each time is divided by the median of the REF_WINDOW reference
# times measured closest to it.
CAL_REF_S = 1e-3
REF_WINDOW = 5


def reference() -> float:
    """CPU seconds of a fixed stretch of interpreter work: Fraction
    arithmetic and dict updates, as in the library, without the library."""
    t0 = time.process_time()
    acc, d = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 17, i)
        d[i % 31] = d.get(i % 31, 0) + i * i
    return time.process_time() - t0


def calibrate(times: list[float], refs: list[float]) -> list[float]:
    """times[i] in calibrated seconds, refs[i] measured right before it."""
    half = REF_WINDOW // 2
    return [t * CAL_REF_S
            / statistics.median(refs[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]


def import_library() -> float:
    """Import skelpot from scratch (dropping any loaded copy); CPU seconds."""
    for name in [n for n in sys.modules
                 if n == "skelpot" or n.startswith("skelpot.")]:
        del sys.modules[name]
    t0 = time.process_time()
    import skelpot.cli  # noqa: F401
    import skelpot.superforms  # noqa: F401
    return time.process_time() - t0


def set_up(workload: str, seed: int, workdir: str):
    """Import and input building, each measured SETUP_REPS times: the
    import from scratch, the inputs in SETUP_REPS equal chunks.
    setup_s = median import + SETUP_REPS * median chunk.  Any input file
    goes under `workdir`."""
    import_s, import_refs = [], []
    for _ in range(SETUP_REPS):
        import_refs.append(reference())
        import_s.append(import_library())
    import skelpot
    if os.path.dirname(os.path.abspath(skelpot.__file__)) != \
            os.path.join(SRC, "skelpot"):
        raise SystemExit(f"error: skelpot imported from {skelpot.__file__}, "
                         f"not from {SRC}")
    import inputs
    os.makedirs(workdir)
    pool = [None] * inputs.POOL[workload]
    chunk_s, chunk_refs = [], []
    for c in range(SETUP_REPS):
        chunk_refs.append(reference())
        t0 = time.process_time()
        chunk = inputs.build_chunk(workload, seed, c, SETUP_REPS, workdir)
        chunk_s.append(time.process_time() - t0)
        pool[c::SETUP_REPS] = chunk
    inputs.check_distinct(pool)
    setup_s = statistics.median(calibrate(import_s, import_refs)) + \
        SETUP_REPS * statistics.median(calibrate(chunk_s, chunk_refs))
    return pool, setup_s


def run_cli(op):
    from skelpot import cli
    results = []
    for call in op.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call.argv)
        results.append((code, out.getvalue()))
    return results


def run_superform(op):
    from skelpot import superforms as sf
    inp = op.payload
    a, b = inp.a, inp.b
    hess = sf.hessian_form(inp.psi)
    return {
        "dd": sf.d_prime(sf.d_prime(a)),
        "ss": sf.d_second(sf.d_second(a)),
        "ds": sf.d_prime(sf.d_second(a)),
        "sd": sf.d_second(sf.d_prime(a)),
        "jj": sf.j_involution(sf.j_involution(a)),
        "leib": sf.d_prime(sf.wedge(a, b)),
        "leib1": sf.wedge(sf.d_prime(a), b),
        "leib2": sf.wedge(a, sf.d_prime(b)),
        "pull_d": sf.pullback(inp.fmap, sf.d_prime(a)),
        "d_pull": sf.d_prime(sf.pullback(inp.fmap, a)),
        "hess": hess,
        "verdict": sf.is_positive_11(hess, inp.points),
    }


def check_op(op, result) -> list[str]:
    if op.payload is not None:
        return checks.superform(op.payload, result)
    problems = []
    for call, (code, out) in zip(op.calls, result):
        if code != call.exit_code:
            problems.append(f"{call.argv[0]}: exit {code}, "
                            f"want {call.exit_code}")
        else:
            problems += [f"{call.argv[0]}: {p}" for p in call.check(out)]
    return problems


def measure(workload: str, pool: list, seconds: float, tracer):
    """Run ops until their summed CPU time reaches `seconds`, or the loop
    has taken WALL_CAP * `seconds` of wall time, but at least two blocks
    of CYCLE[workload] ops.  With a tracer, every other block is traced.
    Returns the ops' CPU times, the reference time before each op, which
    ops were traced, and the failures."""
    run = run_superform if workload == "superform-identities" else run_cli
    times, refs, traced, failures = [], [], [], []
    spent = 0.0
    wall_end = time.perf_counter() + WALL_CAP * seconds
    for i, op in enumerate(pool):
        if i >= 2 * CYCLE[workload] and (
                spent >= seconds or time.perf_counter() >= wall_end):
            break
        on = tracer is not None and (i // CYCLE[workload]) % 2 == 1
        refs.append(reference())
        if on:
            tracer.install()
            tracer.begin_op(i)
        t0 = time.process_time()
        try:
            result = run(op)
            error = None
        except Exception as exc:          # a crash is a failed op
            error = f"{type(exc).__name__}: {exc}"
        dt = time.process_time() - t0
        if on:
            tracer.end_op()
            tracer.uninstall()
        spent += dt
        times.append(dt)
        traced.append(on)
        try:
            problems = [error] if error else check_op(op, result)
        except Exception as exc:          # unreadable output fails the op
            problems = [f"checker: {type(exc).__name__}: {exc}"]
        if problems:
            failures.append((i, problems))
    return times, refs, traced, failures


def end_to_end(cal_times, setup_s) -> dict:
    ms = [t * 1000 for t in cal_times]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) / sum(cal_times), "1/cal_s"),
        "op_p50_ms": (statistics.median(ms), "cal_ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8], "cal_ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


# Spans reported one by one, as calls per traced op and as self seconds
# per traced op.  Every wrapped span also counts in its module's total.
LAYER_CALLS = (
    "linalg.solve_exact", "linalg.is_psd_exact",
    "graph.MetricGraph", "graph.incident_ends", "graph.subdivide",
    "pa_function.PAFunction", "pa_function.eval", "pa_function.ddc",
    "potential.green", "potential.dirichlet_solve",
    "potential.local_green_pairing", "regularize.eval_smoothed",
    "rationalize.rationalize", "superforms.Poly", "superforms.wedge",
    "superforms.d_prime", "superforms.pullback",
    "rational.parse_rational", "rational.format_rational",
)
LAYER_SELF = (
    "linalg.solve_exact", "linalg.is_psd_exact",
    "pa_function.promote_interior_breakpoints", "potential.green",
    "potential.is_subharmonic_green", "regularize.build_regularization",
    "regularize.eval_smoothed", "rationalize.rationalize",
    "superforms.wedge", "superforms.pullback", "superforms.is_positive_11",
    "cli.main",
)
# cli.main and rationalize.rationalize are their modules' only wrapped
# functions, so those two modules get no separate total.
SINGLE = ("cli", "rationalize")


def per_layer(tracer, cal_times, traced) -> dict:
    summary = tracer.summary()
    n = sum(traced)
    on = [t for t, tr in zip(cal_times, traced) if tr]
    off = [t for t, tr in zip(cal_times, traced) if not tr]
    m = {"traced_ops": (n, "count")}
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (summary[name]["calls"] / n, "calls/op")
    for name in LAYER_SELF:
        m[f"{name}.self_s"] = (summary[name]["self_s"] / n, "s/op")
    # the modules' self times and the unattributed time partition the
    # traced op time
    modules = tracing.module_self(summary)
    for mod in tracing.MODULES:
        if mod not in SINGLE:
            m[f"{mod}.self_s"] = (modules[mod] / n, "s/op")
    op_s = summary[tracing.OP]["total_s"] / n
    unattributed = summary[tracing.OP]["self_s"] / n
    m["unattributed_s"] = (unattributed, "s/op")
    m["traced_op_s"] = (op_s, "s/op")
    residual = op_s - unattributed - sum(modules.values()) / n
    if abs(residual) > 1e-9 * max(op_s, 1.0):
        raise RuntimeError(f"self times do not add up: residual {residual}")
    m["linalg.solve_exact.max_n"] = (tracer.solve_max_n, "count")
    m["linalg.solve_exact.max_bits"] = (tracer.solve_max_bits, "bits")
    m["trace_overhead"] = (statistics.mean(on) / statistics.mean(off) - 1,
                           "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skelpot", "__init__.py")):
        print(f"error: no skelpot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(HERE, "_work")
    inputs_dir = os.path.join(work, f"inputs-{os.getpid()}")
    try:
        pool, setup_s = set_up(args.workload, args.seed, inputs_dir)
        gc.collect()
        gc.freeze()       # the pool is long-lived: keep it out of GC scans
        tracer = tracing.Tracer() if args.trace else None
        times, refs, traced, failures = measure(args.workload, pool,
                                                args.seconds, tracer)
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    for i, problems in failures[:20]:
        print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
    cal_times = calibrate(times, refs)
    if tracer is not None:
        metrics = per_layer(tracer, cal_times, traced)
        tracer.write(os.path.join(
            work, f"spans-{args.workload}-{args.seed}.json.gz"))
    else:
        metrics = end_to_end(cal_times, setup_s)
    print(f"{args.workload} seed={args.seed}: {len(times)} ops "
          f"({len(times)} timing samples, {sum(traced)} traced), "
          f"{len(failures)} failed, "
          f"fail_ratio={len(failures) / len(times):.4f}, "
          f"ops took {sum(times):.2f} CPU s (raw p50 "
          f"{statistics.median(times) * 1000:.1f} ms), reference median "
          f"{statistics.median(refs) * 1000:.3f} ms, "
          f"the run {time.perf_counter() - START:.2f} wall s")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
