"""Show that each kind of check in the benchmark can fail.

Run from the repository root:

    python3 bench/selftest.py

It runs one operation of each kind through the program, checks that the
real output passes, then feeds the same check copies of that output with one
printed number changed, each of which must be counted as failed.  Exit code 0
when every case behaves so, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def edit(text: str, where: dict, column: str, change) -> str:
    """Copy of a CSV output with one cell changed: the row whose cells match
    `where`, the cell in `column`, replaced by change(value)."""
    lines = text.splitlines()
    header = None
    hits = 0
    for n, line in enumerate(lines):
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        row = dict(zip(header, cells))
        if all(row[k] == v if isinstance(v, str) else float(row[k]) == v for k, v in where.items()):
            old = row[column]
            new = change(float(old))
            if "." not in old:
                cells[header.index(column)] = str(int(new))
            else:
                cells[header.index(column)] = f"{new:.10e}" if "e" in old else f"{new:.10f}"
            lines[n] = ",".join(cells)
            hits += 1
    if hits != 1:
        raise ValueError(f"{hits} rows match {where}")
    return "\n".join(lines) + "\n"


# (workload, operation, what is changed, how)
CASES = [
    ("spectra", "table fig2", "lambda_1 moved by 1e-2",
     lambda t: edit(t, {"x1": 0.81}, "eig1", lambda v: v + 1e-2)),
    ("spectra", "table fig2", "kernel_dim 2 -> 3",
     lambda t: edit(t, {"x1": 0.81}, "kernel_dim", lambda v: 3)),
    ("spectra", "table fig2", "lambda_4 moved below the continuum edge",
     lambda t: edit(t, {"x1": 0.81}, "eig4", lambda v: 1.5)),
    ("spectra", "table fig14-right", "row at x1 = 0.1 moved by 1e-8",
     lambda t: edit(t, {"x1": 0.1}, "eig4", lambda v: v + 1e-8)),
    ("spectra", "table table-6-9", "eigenvalue 4 moved by 1e-2",
     lambda t: edit(t, {"eig_index": 4}, "eigenvalue", lambda v: v + 1e-2)),
    ("spectra", "table table-6-9", "eigenvalue 1 moved by 1e-2",
     lambda t: edit(t, {"eig_index": 1}, "eigenvalue", lambda v: v + 1e-2)),
    ("stability-sweep", "stability beta=1.0", "HG with its sign flipped",
     lambda t: edit(t, {"k": 0.03}, "HG", lambda v: -v)),
    ("stability-sweep", "stability beta=1.0", "m moved by 1e-9",
     lambda t: edit(t, {"k": 0.03}, "m", lambda v: v + 1e-9)),
    ("stability-sweep", "stability beta=1.0", "D moved by 1e-5 relative",
     lambda t: edit(t, {"k": 0.0545}, "D", lambda v: v * (1.0 + 1e-5))),
    ("identity-checks", "residual mkdv", "residual set to 1e-6",
     lambda t: edit(t, {"check": "stationary"}, "value", lambda v: 1e-6)),
    ("identity-checks", "conserved kksh mass", "mass moved by 1e-8 relative",
     lambda t: edit(t, {"t": 0.7}, "value", lambda v: v * (1.0 + 1e-8))),
    ("identity-checks", "weinstein beta=0.9 v=0.0", "pairing moved by 1e-6 relative",
     lambda t: repr(float(t) * (1.0 + 1e-6))),
]


def main() -> int:
    program = run.import_program(os.getcwd())
    refs = run.load_refs()
    ops = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, program, refs):
            ops[(workload, op.name)] = op
    outputs = {}
    bad = 0
    for workload, name, what, mutate in CASES:
        op = ops[(workload, name)]
        if name not in outputs:
            outputs[name] = op.call()
            clean = op.check(outputs[name])
            print(f"{'pass' if clean.ok else 'FAIL'}  {name}: unchanged output")
            bad += not clean.ok
        outcome = op.check(mutate(outputs[name]))
        print(f"{'fail' if not outcome.ok else 'PASS'}  {name}: {what}"
              f"{' -- ' + outcome.why[0] if outcome.why else ''}")
        bad += outcome.ok
    print("self-test", "ok" if not bad else f"found {bad} cases that behaved wrongly")
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
