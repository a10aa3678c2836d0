#!/usr/bin/env python3
"""End-to-end benchmark of ``repro.solve`` and the solver service.

    python3 e2ebench/run.py --workload solve-array --seed 1 --seconds 30 --trace 0

Runs one workload (see ``specs.py`` and README.md) from the root of a
checkout, against the package in ``src/``, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` makes a separate traced run that
reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import specs as specs_mod  # noqa: E402
from client import Client, timed  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_SAMPLES = 3
LAYERS = ("core.observe", "operators.variation", "scheduling.evaluate",
          "core.merge", "core.init", "parallel.migration")
#: service operations that fail every time today (README: Counted faults)
KNOWN_FAULTS = ("malformed", "delete")


def med(values):
    """Median, or None when nothing succeeded to take it over."""
    return median(values) if values else None


def percentile(values, q: float):
    """Nearest-rank percentile, or None if there are no values."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def same_result(a: dict, b: dict) -> bool:
    keys = ("best_objective", "best_genome", "generations", "evaluations")
    return all(a.get(k) == b.get(k) for k in keys)


class Bench:
    """One workload process: set-up, rounds, checks and metrics."""

    def __init__(self, workload: str, seed: int) -> None:
        self.wl = specs_mod.build(workload, seed)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()
        self._service_seq = 0
        self.results: dict[str, dict] = {}   # service job id -> result
        self.times: dict = defaultdict(list)  # (kind, spec key, round) -> s
        self.first: dict = {}                 # fixed spec key -> round 0
        self.gaps: list[float] = []
        self.problems: dict = {}
        self.fail_reasons: dict = {}
        self.handle = None

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> None:
        """Imports, instance builds, warm-up solves, server and first job."""
        import repro
        if not Path(repro.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"repro imported from {repro.__file__}, not "
                             f"from this checkout's {SRC}")
        from repro.instances import get_instance
        from repro.instances.library import KNOWN_OPTIMA
        from repro.service import serve_in_thread

        self.repro = repro
        wl = self.wl
        names = {s["instance"] for s in wl.fixed.values()}
        names |= {s["instance"] for s in wl.ttt.values()}
        names |= {wl.ga_job["instance"], *wl.inline}
        self.instances = {n: get_instance(n) for n in sorted(names)}
        self.bounds = {n: checks.lower_bound(i)
                       for n, i in self.instances.items()}
        if "tiny-fs-6x3" in self.instances:
            optimum = checks.enumerate_flow_shop_optimum(
                self.instances["tiny-fs-6x3"])
            if optimum != KNOWN_OPTIMA["tiny-fs-6x3"]:
                self.error(f"tiny-fs-6x3: enumerated optimum {optimum} != "
                           f"the library's {KNOWN_OPTIMA['tiny-fs-6x3']}")
            self.bounds["tiny-fs-6x3"] = optimum
        # time-to-target threshold, from the same bound proven_gap uses
        self.targets = {
            key: KNOWN_OPTIMA[spec["instance"]]
            * (1 + spec["termination"]["proven_gap"])
            for key, spec in wl.ttt.items()}
        warm = [dict(s, termination={"max_generations": 1}, seed=1)
                for s in list(wl.fixed.values())
                + list(wl.ttt.values())]
        for spec in warm:
            repro.solve(spec)
        self.handle = serve_in_thread(workers=1)
        self.client = Client(self.handle.server.host, self.handle.server.port)
        first = self.next_ga_spec(wl.ga_job)
        op = self.op_ga(first)
        if not op["ok"]:
            raise RuntimeError(f"first pool job failed: {op}")
        self.previous_ga = [first]

    def teardown(self) -> None:
        if self.handle is not None:
            self.handle.stop()
        for proc in multiprocessing.active_children():
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()

    def error(self, msg: str) -> None:
        with self._lock:
            self.errors.append(msg)

    def tally(self, r: int, kind: str, ok: bool, why=None) -> None:
        """Count one operation of round ``r``.

        ``attempted`` and ``failed`` cover the first ``min_rounds`` rounds,
        which every run holds whatever its length, so both counts are the
        same in every run.  A failure in a later round is counted as well,
        unless it is one of the known faults, so none is hidden.
        """
        if not ok:
            self.fail_reasons[kind] = why
        if r < self.wl.min_rounds or not (ok or kind in KNOWN_FAULTS):
            self.attempted += 1
            self.failed += not ok

    def next_ga_spec(self, base: dict) -> dict:
        self._service_seq += 1
        return dict(base, seed=self.wl.seeds["service"] + self._service_seq)

    # -- in-process solves ----------------------------------------------------
    def check(self, instance: str, seed: int, operations,
              reported: float) -> None:
        try:
            checks.check_schedule(self.instances[instance], operations,
                                  reported, self.bounds[instance])
        except checks.CheckFailed as exc:
            self.error(f"{instance} seed {seed}: {exc}")

    def check_report(self, report) -> None:
        self.check(report.spec.instance, report.spec.seed,
                   report.schedule().operations, report.best_objective)

    def solve_round(self, r: int, record: dict) -> None:
        """Every fixed spec once, every time-to-target spec once per seed."""
        wl = self.wl
        jobs = [("fixed", key, dict(spec, seed=wl.seeds["fixed"][key]))
                for key, spec in wl.fixed.items()]
        jobs += [("ttt", key, dict(spec, seed=seed))
                 for seed in specs_mod.ttt_seeds(wl, r)
                 for key, spec in wl.ttt.items()]
        solve = self.repro.solve
        for kind, key, spec in jobs:
            t0 = time.perf_counter()
            report = solve(spec)
            dt = time.perf_counter() - t0
            record["solve_s"] += dt
            record["resolve_s"] += report.timings["resolve"]
            self.times[kind, key, r].append(dt)
            if kind == "ttt":
                self.tally(r, "ttt",
                           report.best_objective <= self.targets[key],
                           f"{key} seed {spec['seed']} missed its target")
                if r == 0:
                    self.check_report(report)
                continue
            self.tally(r, "fixed", True)
            record["fixed", key] = dt
            snapshot = report.to_dict()
            if r == 0:
                self.check_report(report)
                self.first[key] = snapshot
                b = self.bounds[spec["instance"]]
                self.gaps.append((report.best_objective - b) / b)
            elif not same_result(snapshot, self.first[key]):
                self.error(f"{key} seed {spec['seed']}: round {r} result "
                           f"differs from round 0 (non-deterministic)")

    # -- service operations ---------------------------------------------------
    def op_ga(self, spec: dict) -> dict:
        t0 = time.perf_counter()
        status, body = self.client.request("POST", "/solve", spec)
        if status != 202:
            return {"kind": "ga", "ok": False, "why": f"POST {status} {body}"}
        state, gens = self.client.stream(body["job_id"])
        latency = time.perf_counter() - t0
        _s, job = self.client.request("GET", f"/jobs/{body['job_id']}")
        op = {"kind": "ga", "ok": state == "done", "latency": latency,
              "spec": spec, "generations": gens,
              "queue_wait": (job["started"] - job["submitted"]
                             if job.get("started") else None),
              "worker": job.get("elapsed")}
        if state != "done":
            op["why"] = job.get("error", state)
            return op
        result = job["result"]
        self.results[body["job_id"]] = result
        op["job_id"] = body["job_id"]
        self.check_service_result(spec, result)
        return op

    def check_service_result(self, spec: dict, result: dict) -> None:
        """Decode the returned genome and check the schedule it gives."""
        import numpy as np
        from repro.api.components import resolve_problem
        from repro.api.spec import SolverSpec
        resolved = SolverSpec.from_dict(result["spec"])
        key = (resolved.instance, resolved.encoding)
        problem = self.problems.get(key)
        if problem is None:
            problem = self.problems[key] = resolve_problem(resolved)
        genome = result["best_genome"]
        # composite genomes (the two-part HFS chromosome) are lists of parts
        genome = (tuple(np.asarray(part) for part in genome)
                  if isinstance(genome[0], list) else np.asarray(genome))
        schedule = problem.decode(genome)
        self.check(resolved.instance, spec["seed"], schedule.operations,
                   result["best_objective"])

    def op_hit(self, spec: dict) -> dict:
        latency, (status, body) = timed(self.client.request, "POST",
                                        "/solve", spec)
        ok = status == 200 and body.get("cached") and \
            body.get("state") == "done"
        if ok and body.get("result") != self.results.get(body["job_id"]):
            self.error(f"cache hit {body['job_id']} returned a result that "
                       f"differs from the original")
        return {"kind": "hit", "ok": bool(ok), "latency": latency,
                "why": None if ok else f"{status} {body}"}

    def op_inline(self, spec: dict) -> dict:
        latency, (status, body) = timed(self.client.request, "POST",
                                        "/solve", spec)
        ok = status == 200 and body.get("state") == "done"
        op = {"kind": "inline", "ok": ok, "latency": latency, "spec": spec,
              "why": None if ok else f"{status} {body}"}
        if ok:
            op["result"] = body["result"]
        return op

    def op_delete_running(self, spec: dict) -> dict:
        """Cancel a job while it runs; succeeds only on 200 + cancelled."""
        t0 = time.perf_counter()
        status, body = self.client.request("POST", "/solve", spec)
        if status != 202:
            return {"kind": "delete", "ok": False, "why": f"POST {status}"}
        answer = {}

        def on_event(event: str) -> None:
            if event == "running" and not answer:
                answer["status"], answer["body"] = self.client.request(
                    "DELETE", f"/jobs/{body['job_id']}")

        state, _gens = self.client.stream(body["job_id"], on_event)
        ok = answer.get("status") == 200 and \
            answer["body"].get("state") == "cancelled"
        return {"kind": "delete", "ok": ok,
                "latency": time.perf_counter() - t0,
                "why": None if ok else
                f"DELETE of a running job answered {answer.get('status')}; "
                f"job ran to {state}"}

    def op_malformed(self, _spec=None) -> dict:
        latency, reply = timed(self.client.raw, b"NOT-HTTP\r\n\r\n")
        ok = reply.startswith(b"HTTP/1.1 4")
        return {"kind": "malformed", "ok": ok, "latency": latency,
                "why": None if ok else
                f"malformed request line answered {reply[:40]!r} "
                f"instead of a 4xx status"}

    def round_ops(self) -> list:
        wl = self.wl
        ga = [(self.op_ga, self.next_ga_spec(wl.ga_job))
              for _ in range(wl.ga_jobs_per_round)]
        prev = self.previous_ga
        hits = [(self.op_hit, prev[i % len(prev)])
                for i in range(wl.hits_per_round)]
        inline = []
        for name in wl.inline:
            self._service_seq += 1
            inline.append((self.op_inline, specs_mod.neh_spec(
                name, self.wl.seeds["service"] + self._service_seq)))
        special = []
        if wl.delete_job is not None:
            special.append((self.op_delete_running,
                            self.next_ga_spec(wl.delete_job)))
        special += [(self.op_malformed, None)] * wl.malformed_per_round
        self.previous_ga = [spec for _fn, spec in ga]
        lanes = [special, ga, hits, inline]
        ops = []
        while any(lanes):
            for lane in lanes:
                if lane:
                    ops.append(lane.pop(0))
        return ops

    def service_round(self, r: int) -> tuple[float, list[dict]]:
        ops = self.round_ops()
        out: list[dict] = []
        failure: list[BaseException] = []
        queue = list(reversed(ops))

        def worker() -> None:
            try:
                while True:
                    with self._lock:
                        if not queue:
                            return
                        fn, spec = queue.pop()
                    out.append(fn(spec))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failure.append(exc)

        t0 = time.perf_counter()
        if self.wl.clients == 1:
            worker()
        else:
            threads = [threading.Thread(target=worker)
                       for _ in range(self.wl.clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        wall = time.perf_counter() - t0
        if failure:
            raise failure[0]
        for op in out:
            self.tally(r, op["kind"], op["ok"], op.get("why"))
        return wall, out

    def check_service_round(self, ops: list[dict]) -> None:
        """Round 0: service results equal in-process solves of the spec."""
        for op in ops:
            if op["kind"] == "ga" and op["ok"]:
                theirs = self.results[op["job_id"]]
                mine = self.repro.solve(op["spec"]).to_dict()
                if not same_result(mine, theirs):
                    self.error(f"service GA result for seed "
                               f"{op['spec']['seed']} differs from the "
                               f"in-process solve")
            elif op["kind"] == "inline" and op["ok"]:
                mine = self.repro.solve(op["spec"]).to_dict()
                if not same_result(mine, op["result"]):
                    self.error(f"inline NEH on {op['spec']['instance']} "
                               f"differs from the in-process NEH")
                self.check_service_result(op["spec"], op["result"])

    # -- the run --------------------------------------------------------------
    def run(self, seconds: float, trace: bool) -> dict:
        service_rounds: list[tuple[float, list[dict]]] = []
        tracer = Tracer() if trace else None
        layer_rounds: list[dict] = []
        untraced_fixed: dict = defaultdict(list)
        traced_fixed: dict = defaultdict(list)
        probes: dict = defaultdict(list)
        t_end = time.perf_counter() + seconds
        r = 0
        while r < self.wl.min_rounds or time.perf_counter() < t_end:
            traced = trace and r % 2 == 1
            record = defaultdict(float)
            if traced:
                tracer.reset()
                tracer.install()
            try:
                self.solve_round(r, record)
            finally:
                if traced:
                    tracer.uninstall()
            if trace:
                sink = traced_fixed if traced else untraced_fixed
                for key in self.wl.fixed:
                    sink[key].append(record["fixed", key])
                if traced:
                    layer_rounds.append(self.layer_record(tracer, record))
                _s, m0 = self.client.request("GET", "/metrics")
            wall, ops = self.service_round(r)
            service_rounds.append((wall, ops))
            if r == 0:
                self.check_service_round(ops)
            if r < self.wl.min_rounds:
                # every run holds these rounds, so gap_pct repeats exactly
                for op in ops:
                    if op["kind"] == "ga" and op["ok"]:
                        b = self.bounds[op["spec"]["instance"]]
                        best = self.results[op["job_id"]]["best_objective"]
                        self.gaps.append((best - b) / b)
            if trace:
                self.service_probes(ops, m0, probes)
            r += 1
        self.rounds = r
        if trace:
            return self.layer_metrics(layer_rounds, untraced_fixed,
                                      traced_fixed, probes)
        return self.e2e_metrics(service_rounds)

    # -- metrics --------------------------------------------------------------
    def e2e_metrics(self, service_rounds: list) -> dict:
        """End-to-end metrics: medians over rounds, so that a slow spell
        of the host that covers fewer than half of a run's rounds moves
        none of them."""
        wl, rounds = self.wl, range(self.rounds)
        solve_ms = sum(median(self.times["fixed", k, r][0] for r in rounds)
                       for k in wl.fixed) * 1e3
        # the median over rounds of each round's mean over its target seeds
        ttt_ms = sum(median(fmean(self.times["ttt", k, r]) for r in rounds)
                     for k in wl.ttt) * 1e3
        by_kind = defaultdict(list)
        round_p90, round_rate = [], []
        for wall, ops in service_rounds:
            done = [op for op in ops if op["ok"]]
            for op in done:
                by_kind[op["kind"]].append(op["latency"] * 1e3)
            round_p90.append(percentile(
                [op["latency"] * 1e3 for op in done if op["kind"] == "ga"],
                0.9))
            round_rate.append(len(done) / wall)
        round_p90 = [p for p in round_p90 if p is not None]
        return {
            "setup_s": (None, "s"),
            "solve_ms": (solve_ms, "ms"),
            "ttt_ms": (ttt_ms, "ms"),
            "gap_pct": (100 * fmean(self.gaps) if self.gaps else None, "%"),
            "peak_rss_mb": (None, "MB"),
            "job_p50_ms": (med(by_kind["ga"]), "ms"),
            "job_p90_ms": (med(round_p90), "ms"),
            "hit_p50_ms": (med(by_kind["hit"]), "ms"),
            "inline_p50_ms": (med(by_kind["inline"]), "ms"),
            "jobs_per_s": (median(round_rate), "1/s"),
        }

    def layer_record(self, tracer: Tracer, record: dict) -> dict:
        rec = {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS}
        rec["api.resolve"] = record["resolve_s"]
        rec["core.other"] = (record["solve_s"] - record["resolve_s"]
                             - sum(rec[layer] for layer in LAYERS))
        rec["observe_calls"] = tracer.counts["core.observe.calls"]
        rec["rows"] = tracer.counts["scheduling.evaluate.items"]
        rec["migrants"] = tracer.counts["parallel.migration.items"]
        return rec

    def service_probes(self, ops: list[dict], m0: dict,
                       probes: dict) -> None:
        for _ in range(3):
            dt, _r = timed(self.client.request, "GET", "/healthz")
            probes["http"].append(dt)
        _s, m1 = self.client.request("GET", "/metrics")
        probes["hits"].append(m1["cache"]["hits"] - m0["cache"]["hits"])
        probes["misses"].append(m1["cache"]["misses"]
                                - m0["cache"]["misses"])
        ga = [op for op in ops if op["kind"] == "ga" and op["ok"]]
        for op in ga:
            probes["queue"].append(op["queue_wait"])
            probes["worker"].append(op["worker"])
            probes["dispatch"].append(op["latency"] - op["queue_wait"]
                                      - op["worker"])
            probes["events"].append(op["generations"])
        if ga:
            dt, _r = timed(self.repro.solve, ga[0]["spec"])
            probes["inprocess"].append(dt)
        neh = 0.0
        for op in ops:
            if op["kind"] == "inline":
                dt, _r = timed(self.repro.solve, op["spec"])
                neh += dt
        probes["neh"].append(neh)

    def layer_metrics(self, rounds, untraced, traced, probes) -> dict:
        def rounds_med(key):
            return median([rec[key] for rec in rounds])

        def probe_ms(key):
            return None if not probes[key] else median(probes[key]) * 1e3

        def fixed_sum(samples):
            return sum(median(v) for v in samples.values()) * 1e3

        evaluate_s = rounds_med("scheduling.evaluate")
        out = {
            "api.resolve_ms": (rounds_med("api.resolve") * 1e3, "ms"),
            "core.observe_ms": (rounds_med("core.observe") * 1e3, "ms"),
            "core.observe_calls": (rounds_med("observe_calls"), "count"),
            "operators.variation_ms": (
                rounds_med("operators.variation") * 1e3, "ms"),
            "scheduling.evaluate_ms": (evaluate_s * 1e3, "ms"),
            "scheduling.rows_evaluated": (rounds_med("rows"), "count"),
            "scheduling.rows_per_s": (
                rounds_med("rows") / evaluate_s if evaluate_s else None,
                "1/s"),
            "core.merge_ms": (rounds_med("core.merge") * 1e3, "ms"),
            "core.init_ms": (rounds_med("core.init") * 1e3, "ms"),
            "parallel.migration_ms": (
                rounds_med("parallel.migration") * 1e3, "ms"),
            "parallel.migrants": (rounds_med("migrants"), "count"),
            "core.other_ms": (rounds_med("core.other") * 1e3, "ms"),
            "service.http_p50_ms": (probe_ms("http"), "ms"),
            "service.queue_wait_ms": (probe_ms("queue"), "ms"),
            "service.worker_solve_ms": (probe_ms("worker"), "ms"),
            "service.inprocess_solve_ms": (probe_ms("inprocess"), "ms"),
            "service.dispatch_ms": (probe_ms("dispatch"), "ms"),
            "service.progress_events": (
                fmean(probes["events"]) if probes["events"] else None,
                "count"),
            "service.cache_hits": (med(probes["hits"]), "count"),
            "service.cache_misses": (med(probes["misses"]), "count"),
            "heuristics.neh_ms": (probe_ms("neh"), "ms"),
            "trace.untraced_solve_ms": (fixed_sum(untraced), "ms"),
            "trace.traced_solve_ms": (fixed_sum(traced), "ms"),
        }
        out["trace.overhead_pct"] = (
            100 * (out["trace.traced_solve_ms"][0]
                   / out["trace.untraced_solve_ms"][0] - 1), "%")
        return out


def setup_probe(workload: str, seed: int) -> float:
    """Seconds one fresh process takes to set the workload up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=specs_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    bench = Bench(args.workload, args.seed)
    try:
        bench.setup()
        setup_s = time.perf_counter() - T_START
        if not args.setup_probe:
            metrics = bench.run(args.seconds, bool(args.trace))
    finally:
        bench.teardown()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not args.trace:
        samples = [setup_s] + [setup_probe(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"] = (median(samples), "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    for msg in bench.errors:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for kind, why in bench.fail_reasons.items():
        print(f"failed {kind}: {why}", file=sys.stderr)
    print(f"{args.workload}: {bench.rounds} rounds", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not bench.errors else 1


if __name__ == "__main__":
    sys.exit(main())
