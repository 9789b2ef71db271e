"""Seeded benchmark inputs: configurations only, standard library only.

Seed 0 gives the shipped demo configurations exactly (with the
workload's precision).  Other seeds move the real anchor of the rho0
search by one step, or pick another 3-adic target class of the char3
search with the same valuations, so every seed keeps the workload's
character: the harvest still finds its lines, and the starved search
still walks 729 or 810 candidates without a verdict.
"""

import random

HARVEST_RESULTS = 20
STARVED_PRECISION = 5
CERTIFY_PRECISION = 60

RHO0_DEMO = {
    "twist": "rho0-archimedean",
    "lambda1": "1",
    "lambda2": "1",
    "seed_point": ["-1", "0", "1", "-1", "-1", "1"],
    "targets": [{"place": "real", "params": ["2", "1/16", "3"]}],
    "k3": 0,
    "k5": 0,
    "height_bound": 50,
    "precision": 12,
    "rng_seed": 0,
}

CHAR3_DEMO = {
    "twist": "char3-x",
    "lambda1": "1",
    "lambda2": "1",
    "seed_point": None,
    "targets": [{"place": 3, "params": [3, 243, 243]}],
    "k3": 4,
    "k5": 0,
    "height_bound": 400,
    "precision": 12,
    "rng_seed": 0,
}


def _copy(config, **changes):
    out = dict(config)
    out["targets"] = [dict(t, params=list(t["params"])) for t in config["targets"]]
    out.update(changes)
    return out


def rho0_config(seed, precision=12):
    """rho0-demo with the anchor's a and c moved by a seeded step in {-1, 0, 1}^2.

    b stays 1/16: moving it to 17/16 or -15/16 raises the heights of
    every candidate and with them the cost per candidate.
    """
    config = _copy(RHO0_DEMO, precision=precision)
    if seed:
        steps = [(da, dc) for da in (-1, 0, 1) for dc in (-1, 0, 1) if da or dc]
        da, dc = random.Random(f"rho0-{seed}").choice(steps)
        config["targets"][0]["params"] = [str(2 + da), "1/16", str(3 + dc)]
    return config


def char3_config(seed, precision=12, height_bound=400):
    """char3-demo with a seeded target class a = 3u mod 81 (u a unit), b = c = 0 mod 81."""
    config = _copy(CHAR3_DEMO, precision=precision, height_bound=height_bound)
    if seed:
        units = [u for u in range(1, 27) if u % 3]
        config["targets"][0]["params"][0] = 3 * random.Random(f"char3-{seed}").choice(units)
    return config
