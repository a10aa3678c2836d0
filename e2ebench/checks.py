"""Output checks made apart from the program.

The program decodes a best genome into a list of placed operations
``(job, stage, machine, start, end)``.  Everything else here is re-derived
from the raw instance arrays: which operations must exist, on which
machines, for how long, in which order; a lower bound for every problem
class; and the optimum of the one instance small enough to enumerate.
"""

from __future__ import annotations

import itertools

import numpy as np

#: Published optimum of Fisher & Thompson's ft06 (Muth & Thompson, 1963).
FT06_OPTIMUM = 55.0

TOL = 1e-6


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


def _kind(inst) -> str:
    name = type(inst).__name__
    return {"JobShopInstance": "jssp", "FlowShopInstance": "fs",
            "OpenShopInstance": "os", "FlexibleJobShopInstance": "fjsp",
            "FlexibleFlowShopInstance": "hfs"}[name]


def lower_bound(inst) -> float:
    """Job-work / machine-load makespan bound, for every problem class.

    Job shop, flow shop, open shop: the longest job and the most loaded
    machine.  Flexible job shop: each job's work at its fastest eligible
    machines, and the total fastest work spread over all machines.  Hybrid
    flow shop: each job's work over the stages, and each stage's work
    spread over its parallel machines.
    """
    kind = _kind(inst)
    if kind in ("jssp", "fs", "os"):
        p = np.asarray(inst.processing, dtype=float)
        job = p.sum(axis=1).max()
        if kind == "jssp":
            loads = np.zeros(int(np.max(inst.routing)) + 1)
            np.add.at(loads, np.asarray(inst.routing).ravel(), p.ravel())
        else:
            loads = p.sum(axis=0)
        return float(max(job, loads.max()))
    if kind == "fjsp":
        fastest = [[min(alts.values()) for alts in job]
                   for job in inst.operations]
        job = max(sum(ops) for ops in fastest)
        total = sum(sum(ops) for ops in fastest)
        return float(max(job, total / inst.n_machines))
    p = np.asarray(inst.processing, dtype=float)
    per_stage = p.sum(axis=0) / np.asarray(inst.machines_per_stage)
    return float(max(p.sum(axis=1).max(), per_stage.max()))


def _expected_ops(inst):
    """(job, stage) -> (allowed machines, duration per machine)."""
    kind = _kind(inst)
    out = {}
    if kind == "jssp":
        for j in range(inst.processing.shape[0]):
            for s in range(inst.processing.shape[1]):
                out[j, s] = {int(inst.routing[j, s]):
                             float(inst.processing[j, s])}
    elif kind == "fs":
        for j, row in enumerate(inst.processing):
            for s, dur in enumerate(row):
                out[j, s] = {s: float(dur)}
    elif kind == "fjsp":
        for j, job in enumerate(inst.operations):
            for s, alts in enumerate(job):
                out[j, s] = {int(m): float(d) for m, d in alts.items()}
    elif kind == "hfs":
        offsets = np.concatenate([[0], np.cumsum(inst.machines_per_stage)])
        for j, row in enumerate(inst.processing):
            for s, dur in enumerate(row):
                out[j, s] = {int(offsets[s] + q): float(dur)
                             for q in range(inst.machines_per_stage[s])}
    return out


def check_schedule(inst, operations, reported: float,
                   bound: float) -> None:
    """Verify a decoded schedule against ``inst`` and a lower ``bound``.

    ``operations`` holds objects with ``job``, ``stage``, ``machine``,
    ``start`` and ``end``.  The instances the benchmark uses carry no
    release dates, setups or time lags, so durations must match exactly,
    and the makespan must equal the ``reported`` objective.
    """
    ops = list(operations)
    kind = _kind(inst)
    if kind == "os":
        p = np.asarray(inst.processing, dtype=float)
        seen = {(op.job, op.machine) for op in ops}
        if len(ops) != p.size or len(seen) != p.size:
            _fail(f"open shop: {len(ops)} operations cover {len(seen)} "
                  f"of {p.size} (job, machine) pairs")
        for op in ops:
            if abs((op.end - op.start) - p[op.job, op.machine]) > TOL:
                _fail(f"open shop: {op} lasts {op.end - op.start}, "
                      f"instance says {p[op.job, op.machine]}")
    else:
        expected = _expected_ops(inst)
        placed = {(op.job, op.stage): op for op in ops}
        if len(ops) != len(expected) or set(placed) != set(expected):
            _fail(f"{kind}: placed operations {len(ops)} do not match the "
                  f"instance's {len(expected)}")
        for key, op in placed.items():
            allowed = expected[key]
            if op.machine not in allowed:
                _fail(f"{kind}: {op} on machine {op.machine}, eligible "
                      f"{sorted(allowed)}")
            if abs((op.end - op.start) - allowed[op.machine]) > TOL:
                _fail(f"{kind}: {op} lasts {op.end - op.start}, instance "
                      f"says {allowed[op.machine]}")
        # job precedence: stage s+1 starts after stage s ends
        for (j, s), op in placed.items():
            nxt = placed.get((j, s + 1))
            if nxt is not None and nxt.start < op.end - TOL:
                _fail(f"{kind}: job {j} stage {s + 1} starts at "
                      f"{nxt.start} before stage {s} ends at {op.end}")
    for op in ops:
        if op.start < -TOL:
            _fail(f"{op} starts before time 0")
    for key in ("machine", "job"):
        groups: dict[int, list] = {}
        for op in ops:
            groups.setdefault(getattr(op, key), []).append(op)
        for ident, seq in groups.items():
            seq.sort(key=lambda o: o.start)
            for a, b in zip(seq, seq[1:]):
                if b.start < a.end - TOL:
                    _fail(f"{key} {ident}: {a} and {b} overlap")
    makespan = max(op.end for op in ops)
    if abs(makespan - reported) > TOL:
        _fail(f"reported objective {reported} != schedule makespan "
              f"{makespan}")
    if reported < bound - TOL:
        _fail(f"objective {reported} below the lower bound {bound}")
    if inst.name == "ft06" and reported < FT06_OPTIMUM - TOL:
        _fail(f"ft06 objective {reported} below the published optimum 55")


def flow_shop_makespan(p: np.ndarray, order) -> float:
    """Permutation flow shop makespan by the textbook recurrence."""
    done = np.zeros(p.shape[1])
    for j in order:
        t = 0.0
        for k in range(p.shape[1]):
            t = max(t, done[k]) + p[j, k]
            done[k] = t
    return float(done[-1])


def enumerate_flow_shop_optimum(inst) -> float:
    """Exact permutation flow shop optimum by trying every job order."""
    p = np.asarray(inst.processing, dtype=float)
    return min(flow_shop_makespan(p, order)
               for order in itertools.permutations(range(p.shape[0])))
