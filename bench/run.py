"""Benchmark of breatherlab: three workloads, timed end to end and per module.

Run from the root of a checkout:

    python3 bench/run.py --workload spectra --seed 1 --seconds 35 --trace 0

Workloads: spectra, stability-sweep, identity-checks
(see bench/README.md and bench/workloads.py).  The program is imported from
./src of the checkout, in-process, on one CPU with one BLAS thread.  A run

1. times the set-up (import plus the first operation, cold) in a fresh
   interpreter (``--trace 0`` only); this is repeated halfway through the
   timed passes and after them, and the median of the three is reported;
2. runs one warm-up pass over the workload's operations, in an order drawn
   from ``--seed``; it is checked and counted but not timed;
3. runs timed passes, each in a new seeded order, for about ``--seconds``
   (it stops when another pass would end further from that mark than
   stopping now; at least one pass), timing a fixed reference loop after
   every operation for 2% of the operation's time;
4. checks every output and prints one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

Times are reported in seconds at the machine's full speed: each is divided
by the mean slowdown of the reference loop run beside it (see
reference_loop).  The run record keeps the raw times and the slowdowns too.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced (bench/tracing.py); the metrics are then the per-layer figures,
per pass, and the tracing overhead.  Each run also writes a record under
bench/runs/ (and the spans of a traced run).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import gzip
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PROBE_TIMEOUT_S = 150
# The reference loop's time at full speed (the 5th percentile of 390
# samples) on the machine the figures in bench/README.md come from: 2-vCPU
# KVM guest, Xeon at 2.0 GHz, one CPU, one BLAS thread.
REF_LOOP_S = 0.0021
REF_LOOPS_PER_PROBE = 20
REF_SHARE = 0.02  # loop time after each operation, as a share of its time
MODULES = ("cli", "breathers", "functionals", "galerkin", "jets", "linops",
           "quadrature", "specfun", "stability")


def program_source(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "breatherlab", "__init__.py")):
        raise FileNotFoundError(f"no program source at {src}/breatherlab; run from the repository root")
    return src


def import_program(root: str) -> SimpleNamespace:
    """Import breatherlab from the checkout's src/, never from elsewhere."""
    src = program_source(root)
    sys.path.insert(0, src)
    import importlib

    mods = {name: importlib.import_module(f"breatherlab.{name}") for name in MODULES}
    where = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if where != os.path.join(os.path.abspath(src), "breatherlab"):
        raise ImportError(f"breatherlab was imported from {where}, not from {src}")
    return SimpleNamespace(**mods)


def load_refs() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def blas_facts() -> dict:
    import numpy as np

    facts = {"numpy": np.__version__}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        facts["blas"] = "unknown"
    facts["blas_threads"] = None
    libdir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                break
    return facts


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "BREATHER_THREADS": os.environ.get("BREATHER_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    facts.update(blas_facts())
    return facts


# ---------------------------------------------------------------------------
# the machine's speed
# ---------------------------------------------------------------------------


def reference_loop() -> float:
    """Slowdown of a fixed loop of the two kinds of work the program does
    most, numpy ufuncs on a 5-element array and pure-Python integer
    arithmetic: its time over REF_LOOP_S.

    On a shared 2-vCPU KVM guest (Xeon, 2.0 GHz) the same code runs up to 2x
    slower in slow phases seconds long, and the share of time they take
    drifts over tens of minutes; wall and CPU time both rise.  The loop is
    timed after every operation, and every time metric is divided by its
    mean slowdown over the same stretch of the run."""
    import numpy as np

    y, s = np.ones(5), 0
    t0 = time.perf_counter()
    for _ in range(600):
        y = np.sin(y) * 0.5 + np.cos(y)
    for i in range(12000):
        s += i * i % 7
    return (time.perf_counter() - t0) / REF_LOOP_S


def speed_factor(slowdowns) -> float:
    """How much slower than full speed the machine ran: the mean slowdown of
    the reference loop, each loop weighing alike."""
    return statistics.fmean(slowdowns)


# ---------------------------------------------------------------------------
# set-up probe: import plus the first operation, in a fresh interpreter
# ---------------------------------------------------------------------------


def probe(workload: str) -> int:
    refs = load_refs()
    t0 = time.perf_counter()
    program = import_program(os.getcwd())
    first = workloads.build(workload, program, refs)[0]
    out = first.call()
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "ok": first.check(out).ok}))
    return 0


def setup_sample(workload: str) -> dict:
    """One set-up probe, scaled by reference loops run in this process just
    before and just after it, on the same CPU, so that they bracket it."""
    reference_loop()  # the first call loads numpy and its ufunc caches
    before = [reference_loop() for _ in range(REF_LOOPS_PER_PROBE)]
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    after = [reference_loop() for _ in range(REF_LOOPS_PER_PROBE)]
    rec = json.loads(lines[-1])
    if not rec["ok"]:
        raise RuntimeError("set-up probe: the first operation gave a wrong result")
    rec["slowdown"] = before + after
    rec["scaled_s"] = rec["setup_s"] / speed_factor(rec["slowdown"])
    return rec


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, ops, seed):
        self.ops = ops
        self.rng = random.Random(seed)
        self.tracer = None
        self.passes = []

    def one_pass(self) -> dict:
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        index = len(self.passes)
        tracer = self.tracer
        if tracer is not None:
            tracer.maxima.clear()
            before = tracer.totals()
        results, slowdown = [], []
        wall = cpu = 0.0
        for j, i in enumerate(order):
            if tracer is not None:
                tracer.begin_op(index * 1000 + j)
            c_op, t_op = time.process_time(), time.perf_counter()
            try:
                out, err = self.ops[i].call(), None
            except Exception as exc:  # the op fails; the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            t = time.perf_counter() - t_op
            wall, cpu = wall + t, cpu + time.process_time() - c_op
            results.append((i, out, err, t))
            # loops for REF_SHARE of the operation's time, so that the
            # slowdowns weigh each stretch of the pass by its length
            loops = time.perf_counter()
            while True:
                slowdown.append(reference_loop())
                if time.perf_counter() - loops >= REF_SHARE * t:
                    break
        rec = {"wall_s": wall, "cpu_s": cpu, "slowdown": slowdown, "traced": tracer is not None,
               "order": [self.ops[i].name for i, _, _, _ in results],
               "op_s": {self.ops[i].name: t for i, _, _, t in results}, "failed": {}, "digits": 16.0}
        for i, out, err, _ in results:
            op = self.ops[i]
            if err is None:
                try:
                    outcome = op.check(out)
                except (KeyError, ValueError, IndexError, TypeError) as bad:
                    outcome = workloads.Outcome(False, [], [f"unreadable output: {bad!r}"])
            else:
                outcome = workloads.Outcome(False, [], [err])
            if outcome.ok:
                rec["digits"] = min(rec["digits"], workloads.digits(outcome.errors))
            else:
                rec["failed"][op.name] = outcome.why[:5]
        if tracer is not None:
            after = tracer.totals()
            rec["layers"] = {k: after[k] - before.get(k, 0.0) for k in after}
            rec["layers"].update(tracer.maxima)
        self.passes.append(rec)
        return rec

    def timed(self, seconds: float, first: int, halfway=None) -> list[dict]:
        """Passes while another one would end nearer to `seconds` than
        stopping now; at least one.  `halfway` runs once, between passes,
        when half the time has gone."""
        start = time.perf_counter()
        while True:
            self.one_pass()
            done = self.passes[first:]
            typical = statistics.median(p["wall_s"] for p in done)
            elapsed = time.perf_counter() - start
            if halfway is not None and elapsed >= seconds / 2.0:
                halfway()
                halfway = None
            if elapsed + typical / 2.0 > seconds:
                return done


def scaled(rec: dict, key: str) -> float:
    """One pass's time in seconds at full speed."""
    return rec[key] / speed_factor(rec["slowdown"])


def run_scaled(passes: list[dict], key: str) -> float:
    """Mean time per pass over the run, in seconds at full speed: the mean
    over the run's reference loops gives the speed factor.  A mean over the
    whole run, not a median of passes: with passes of seconds and slow
    phases of seconds, pass times are bimodal and their median jumps."""
    slowdown = [x for p in passes for x in p["slowdown"]]
    return statistics.fmean(p[key] for p in passes) / speed_factor(slowdown)


def per_layer(traced: list[dict]) -> dict:
    """Median per pass of each per-layer metric declared in BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    out = {}
    for metric in declared:
        vals = [p["layers"].get(metric["name"], 0.0) for p in traced]
        out[metric["name"]] = {"value": statistics.median(vals), "unit": metric["unit"]}
    return out


def write_record(workload, args, record, tracer):
    outdir = os.path.join(HERE, "runs")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with gzip.open(stem + ".spans.jsonl.gz", "wt") as fh:
            fh.write(json.dumps(["sid", "name", "start", "end", "parent", "op", "thread", "self_s"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


def run(args) -> dict:
    root = os.getcwd()
    program_source(root)
    refs = load_refs()
    # three cold starts, spread over the run so that they see the machine at
    # different moments: before the warm-up, halfway and at the end
    setup = []

    def probe_setup():
        setup.append(setup_sample(args.workload))

    if not args.trace:
        probe_setup()
    program = import_program(root)
    ops = workloads.build(args.workload, program, refs)
    runner = Runner(ops, args.seed)
    runner.one_pass()  # warm-up: fills the Gauss-rule and k* caches
    tracer = None
    if args.trace:
        import tracing  # imports numpy; kept out of the set-up probe's timed import

        untraced = runner.timed(args.seconds / 2.0, len(runner.passes))
        tracer = tracing.Tracer()
        tracing.install(tracer, program)
        runner.tracer = tracer
        try:
            traced = runner.timed(args.seconds / 2.0, len(runner.passes))
        finally:
            tracer.uninstall()
        for p in traced:
            p["layers"]["trace.overhead"] = scaled(p, "wall_s") / statistics.median(
                scaled(q, "wall_s") for q in untraced)
        metrics = per_layer(traced)
    else:
        timed = runner.timed(args.seconds, 1, halfway=probe_setup)
        probe_setup()
        metrics = {
            "setup_s": {"value": statistics.median(p["scaled_s"] for p in setup), "unit": "s"},
            "pass_s": {"value": run_scaled(timed, "wall_s"), "unit": "s"},
            "pass_cpu_s": {"value": run_scaled(timed, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "digits": {"value": min(p["digits"] for p in runner.passes), "unit": "digits"},
        }
    attempted = len(ops) * len(runner.passes)
    failed_names = [name for p in runner.passes for name in p["failed"]]
    unexpected = sorted(set(failed_names) - workloads.KNOWN_FAILURES.get(args.workload, set()))
    result = {"correct": not unexpected, "attempted": attempted, "failed": len(failed_names),
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(), "setup_samples": setup,
              "unexpected_failures": unexpected, "passes": runner.passes, "result": result}
    write_record(args.workload, args, record, tracer)
    for name in unexpected:
        why = next(p["failed"][name] for p in runner.passes if name in p["failed"])
        print(f"unexpected failure: {name}: {why}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=workloads.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One CPU and one BLAS thread, set before numpy loads (the set-up probe
    # inherits both): the reference loop then gauges the speed of the CPU the
    # work runs on.  With two BLAS threads on two vCPUs the work depends on
    # both vCPUs' slow phases and the loop on one of them.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.probe:
            return probe(args.probe)
        if not args.workload:
            parser.error("--workload is required")
        result = run(args)
    except (FileNotFoundError, ImportError, RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
