"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public functions of the program's modules from outside
(nothing under src/ changes).  Three kinds of wrapper:

- ``span``: records name, start, end, parent span, operation id and thread.
  Each thread keeps its own span stack; a span opened on a thread with an
  empty stack (a worker of the CLI's thread pool) takes the operation's root
  span as its parent.
- ``leaf``: for the complete elliptic integrals, called about 330k times per
  stability pass.  Calls and time are summed per thread instead of kept as
  spans, and the time is removed from the enclosing span's self time.
- ``counter``: counted, not timed (jet arithmetic).

Self time is a span's duration minus the time covered by its children: the
sum of same-thread child spans and leaf time, plus the union of the
intervals of child spans on other threads.
"""

from __future__ import annotations

import functools
import resource
import threading
import time
from collections import defaultdict

import numpy as np

SMALL_GRID = 8  # grids of at most this many points count as small


class _Frame:
    __slots__ = ("sid", "start", "parent", "child", "leaf0", "cross")

    def __init__(self, sid, parent, leaf0):
        self.sid, self.start, self.parent = sid, 0.0, parent
        self.child, self.leaf0, self.cross = 0.0, leaf0, []


class _ThreadState:
    def __init__(self, tid):
        self.tid = tid
        self.stack = []
        self.leaf_time = 0.0
        self.sums = defaultdict(float)  # per-thread counters and leaf totals


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self.spans = []  # (sid, name, start, end, parent, op, tid, self_time)
        self.op = -1
        self.maxima = defaultdict(int)  # per-pass maxima, reset by the runner
        self._root = None
        self._next = iter(range(1, 1 << 62)).__next__
        self._restore = []

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.st = st
        return st

    def begin_op(self, op: int):
        self.op, self._root = op, None

    def totals(self) -> dict:
        """Counters and leaf totals summed over every thread seen so far."""
        out = defaultdict(float)
        for st in list(self._threads):
            for k, v in list(st.sums.items()):
                out[k] += v
        return out

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, measure=None):
        """Wrap fn in a span; measure(args, kwargs, st) may add to counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            if measure is not None:
                measure(args, kwargs, st)
            stack = st.stack
            if stack:
                parent = stack[-1]
            else:
                parent = self._root
            frame = _Frame(self._next(), parent, st.leaf_time)
            if parent is None:
                self._root = frame
            stack.append(frame)
            frame.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame.start
                covered = frame.child + (st.leaf_time - frame.leaf0)
                if frame.cross:
                    covered += _union_length(frame.cross, frame.start, end)
                self_time = max(0.0, dur - covered)
                st.sums[name + ".calls"] += 1
                st.sums[name + ".self_s"] += self_time
                if stack:
                    stack[-1].child += dur
                elif frame.parent is not None:
                    frame.parent.cross.append((frame.start, end))
                self.spans.append((frame.sid, name, frame.start, end,
                                   frame.parent.sid if frame.parent else 0,
                                   self.op, st.tid, self_time))

        return wrapper

    def leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st = self._state()
                st.leaf_time += dt
                st.sums[name + ".calls"] += 1
                st.sums[name + ".self_s"] += dt

        return wrapper

    def counter(self, name, fn, grid_size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sums = self._state().sums
            sums[name + ".calls"] += 1
            if grid_size(args) <= SMALL_GRID:
                sums[name + ".small_grid_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def patch(self, owner, attr, wrapper_of):
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper_of(original))
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def _eval_points(args, kwargs, st):
    t = args[1] if len(args) > 1 else kwargs.get("t", 0.0)
    x = args[2] if len(args) > 2 else kwargs["x"]
    n = np.broadcast(np.asarray(t), np.asarray(x)).size
    st.sums["breathers.eval.points"] += n
    if n <= SMALL_GRID:
        st.sums["breathers.eval.small_grid_calls"] += 1


def _stack_bytes(args, kwargs, st):
    basis, x = args[0], args[1]
    orders = args[2] if len(args) > 2 else kwargs["orders"]
    st.sums["specfun.stack.bytes"] += (orders + 1) * basis.size * np.size(x) * 8


def _assemble_nodes(args, kwargs, st):
    plan = args[0].plan
    st.sums["galerkin.assemble.nodes"] += sum(plan.nodes_weights(r)[0].size for r in (1, 2))


def _with_faults(tracer, name, fn):
    """Add the minor page faults taken inside fn to a counter."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._state().sums[name] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0

    return wrapper


def _jet_grid(args):
    a, b, deg = args
    return max(a.size, b.size) // ((deg + 1) ** 2)


def install(tracer: Tracer, program) -> None:
    """Wrap the program's public functions, including names imported into
    other modules, where callers look them up."""
    cli, gk, lin, stab = program.cli, program.galerkin, program.linops, program.stability
    sf, br, fn, qd, jets = program.specfun, program.breathers, program.functionals, program.quadrature, program.jets

    def span(name, measure=None):
        return lambda f: tracer.span(name, f, measure)

    def matrix_dim(args, kwargs, state):
        dim = np.shape(args[0])[0]
        tracer.maxima["galerkin.matrix_dim"] = max(tracer.maxima["galerkin.matrix_dim"], dim)

    tracer.patch(cli, "main", span("cli.main"))
    tracer.patch(gk, "assemble", lambda f: tracer.span(
        "galerkin.assemble", _with_faults(tracer, "galerkin.assemble.minor_faults", f), _assemble_nodes))
    tracer.patch(gk, "eig_sym", span("galerkin.eig_sym", matrix_dim))
    for cls in (sf.HermiteBasis, sf.FourierBasis):
        tracer.patch(cls, "stack", span("specfun.stack", _stack_bytes))
    for cls in (lin.ScalarOperator, lin.SgBlockOperator):
        tracer.patch(cls, "coefficients", span("linops.coefficients"))
    for name in ("solve_commensurability", "solve_commensurability_from_m"):
        tracer.patch(stab, name, span("stability.commensurability"))
    tracer.patch(stab, "discriminant_and_hg", span("stability.discriminant"))
    tracer.patch(stab, "stability_report", span("stability.report"))
    tracer.patch(stab, "sg_weinstein_check", span("stability.weinstein"))
    for owner in (sf, stab):
        for name in ("ellip_k", "ellip_e"):
            tracer.patch(owner, name, lambda f: tracer.leaf("specfun.ellip", f))
    for name in ("jacobi_sncndn_jet", "jacobi_jet", "jacobi", "jacobi_amplitude"):
        tracer.patch(sf, name, span("specfun.jacobi"))
    for cls in (br.MkdvBreather, br.GardnerBreather, br.SgBreather, br.KkshBreather,
                br.NonzeroMeanBreather, br.MkdvSoliton, br.GardnerSoliton, br.SgKink):
        tracer.patch(cls, "eval", span("breathers.eval", _eval_points))
    tracer.patch(br, "periodicity_check", span("breathers.periodicity_check"))
    tracer.patch(jets, "_mul_coeffs", lambda f: tracer.counter("jets", f, _jet_grid))
    for name in ("pde_residual", "stationary_residual", "evaluate_functional"):
        tracer.patch(fn, name, span(f"functionals.{name}"))
    for owner in (qd, fn):
        tracer.patch(owner, "checked_integral", span("quadrature.checked_integral"))
    tracer.patch(lin, "sg_scaling_direction", span("linops.scaling_direction"))

