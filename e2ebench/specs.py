"""The three workloads: spec lists, service operation mixes and seeds.

Every spec is plain JSON data, built here from the workload seed; the
program only ever receives these generated specs.  A run repeats whole
*rounds*.  A round solves every fixed-budget spec once and every
time-to-target spec once for each of the round's target seeds (in
process), then runs the workload's service mix against a local
``serve_in_thread`` server.  Fixed-budget specs keep their seed for the
whole run, so each round repeats the same work: the per-spec median over
rounds measures the machine, and any change of result between rounds is a
determinism fault.  Generations to target vary by seed, so target specs
take fresh seeds every round; the median over rounds of each round's mean
over its seeds is what repeats from one run to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("solve-array", "solve-default", "service-mixed")

#: Lower bound on service GA jobs per run, so that a run holds at least
#: ten rounds, over which the median of each round's p90 is taken.
MIN_GA_JOBS = 100

#: Seeds per time-to-target spec and round.
TTT_SEEDS = 12


@dataclass
class Workload:
    name: str
    #: name -> spec dict without ``seed``; solved in process every round
    fixed: dict[str, dict]
    #: name -> time-to-target spec dict without ``seed``
    ttt: dict[str, dict]
    #: service GA job spec (fresh seed per job, so every job is a miss)
    ga_job: dict
    ga_jobs_per_round: int
    hits_per_round: int
    #: inline-tier NEH instances submitted once each per round
    inline: tuple[str, ...]
    #: spec of the job a DELETE tries to cancel while it runs, or None
    delete_job: dict | None = None
    malformed_per_round: int = 0
    clients: int = 1
    seeds: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def min_rounds(self) -> int:
        return -(-MIN_GA_JOBS // self.ga_jobs_per_round)


def _ga(instance: str, pop: int, gens: int, **extra) -> dict:
    spec = {"instance": instance, "ga": {"population_size": pop},
            "termination": {"max_generations": gens}}
    spec.update(extra)
    return spec


def _ttt(instance: str, pop: int, gap: float, **extra) -> dict:
    # the gap is one every seed reaches and the generation cap is far above
    # the slowest seed seen (see README); a miss is a failed operation
    spec = {"instance": instance, "ga": {"population_size": pop},
            "termination": {"proven_gap": gap, "max_generations": 2000}}
    spec.update(extra)
    return spec


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with every GA seed drawn from ``seed``."""
    if name == "solve-array":
        arr = {"substrate": "array"}
        wl = Workload(
            name=name,
            fixed={
                "ft06-simple": _ga("ft06", 200, 60, **arr),
                "ta-fs-20x5-island": _ga("ta-fs-20x5-shaped", 200, 40,
                                         engine="island", **arr),
                "la16-simple": _ga("la16-shaped", 200, 40, **arr),
                "hfs-10x3x2-cellular": _ga("hfs-10x3x2-shaped", 196, 40,
                                           engine="cellular", **arr),
                "ta-fs-20x5-pop1024": _ga("ta-fs-20x5-shaped", 1024, 20,
                                          **arr),
            },
            ttt={
                "ft06": _ttt("ft06", 100, 0.10, **arr),
                "tiny-js-5x5": _ttt("tiny-js-5x5", 60, 0.10, **arr),
            },
            ga_job=_ga("ft06", 50, 20, **arr),
            ga_jobs_per_round=10, hits_per_round=4,
            inline=("ta-fs-20x5-shaped",) * 3)
    elif name == "solve-default":
        wl = Workload(
            name=name,
            fixed={
                "ft06": _ga("ft06", 100, 40),
                "ta-fs-20x5": _ga("ta-fs-20x5-shaped", 100, 40),
                "fjsp-10x6": _ga("fjsp-10x6-shaped", 100, 40),
                "hfs-10x3x2": _ga("hfs-10x3x2-shaped", 100, 40),
                "la16-island": _ga("la16-shaped", 100, 40, engine="island"),
                "ta-os-5x5": _ga("ta-os-5x5-shaped", 30, 15),
            },
            ttt={
                "ft06": _ttt("ft06", 100, 0.10),
                "tiny-js-5x5": _ttt("tiny-js-5x5", 60, 0.10),
                "tiny-fs-6x3": _ttt("tiny-fs-6x3", 40, 0.0),
            },
            ga_job=_ga("ft06", 50, 20),
            ga_jobs_per_round=10, hits_per_round=4,
            inline=("hfs-10x3x2-shaped",) * 3)
    elif name == "service-mixed":
        arr = {"substrate": "array"}
        wl = Workload(
            name=name,
            fixed={"ft06-job": _ga("ft06", 100, 50, **arr),
                   "ft06-island": _ga("ft06", 100, 50, engine="island",
                                      **arr)},
            ttt={"ft06": _ttt("ft06", 100, 0.10, **arr)},
            ga_job=_ga("ft06", 100, 50, **arr),
            ga_jobs_per_round=10, hits_per_round=4,
            inline=("ta-fs-20x5-shaped",) * 3 + ("ta-fs-50x10-shaped",),
            delete_job=_ga("ft06", 100, 100, **arr),
            malformed_per_round=1, clients=2)
    else:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    wl.seeds = {
        "fixed": {key: _draw(rng) for key in wl.fixed},
        # service jobs take consecutive seeds from a drawn base, so no two
        # jobs of a run share a cache key
        "service": _draw(rng),
    }
    wl.seed = seed
    return wl


def _draw(rng: random.Random) -> int:
    return rng.randrange(1, 2**31 - 1)


def ttt_seeds(wl: Workload, round_no: int) -> list[int]:
    """The target seeds of one round, the same for every target spec."""
    rng = random.Random(f"{wl.name}:{wl.seed}:ttt:{round_no}")
    return [_draw(rng) for _ in range(TTT_SEEDS)]


def neh_spec(instance: str, seed: int) -> dict:
    """An inline-tier job: NEH is deterministic, the seed only keys it."""
    return {"instance": instance, "engine": "neh", "seed": seed}
