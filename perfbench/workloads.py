"""The benchmark's workloads, each a scenario dict on famtarsim's public schema.

Every workload is a function of the seed alone, so the same seed always
yields the same document.  The program sees only the generated dict.
"""

from __future__ import annotations

import importlib.resources
import random

import yaml

DEFAULT_SEED = 1
TINY_DURATION_S = 3.0


def bundled(name: str, seed: int, tiny: bool = False) -> dict:
    """A bundled scenario file as a dict, re-seeded (and shrunk when ``tiny``)."""
    path = importlib.resources.files("famtarsim") / "scenarios" / f"{name}.yaml"
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    raw["seed"] = seed
    if tiny:
        raw["duration_s"] = TINY_DURATION_S
        raw["measurement_window_s"] = [0, int(TINY_DURATION_S)]
    return raw


MESH_SIDE = 6
MESH_DURATION_S = 45.0
MESH_FLAPS_PER_S = 11.0
MESH_DOWN_S = (0.2, 1.5)


def mesh_churn(seed: int, tiny: bool = False) -> dict:
    """A router grid whose core links flap while CBR flows cross it.

    A 6 x 6 router grid with seeded link costs of 5-15 and eight hosts, two
    on each border of the grid.  Every host sends two CBR flows of 400
    kbit/s in 500-byte packets, one to the host facing it across the grid
    and one to the host three places on.  Router-router links fail as a
    Poisson process of 11/s conditioned on its count: the number of
    failures is fixed and their times are uniform, so every seed asks for
    the same amount of routing work.  Each failure hits a random link that
    is up and is repaired after 0.2-1.5 s.
    """
    side = MESH_SIDE
    duration_s = TINY_DURATION_S if tiny else MESH_DURATION_S
    rng = random.Random(seed)
    grid = [[f"R{r}{c}" for c in range(side)] for r in range(side)]
    nodes = [{"id": rid, "kind": "router"} for row in grid for rid in row]
    core = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                core.append(f"{grid[r][c]}-{grid[r][c + 1]}")
            if r + 1 < side:
                core.append(f"{grid[r][c]}-{grid[r + 1][c]}")
    links = [{"id": link_id, "a": link_id.split("-")[0],
              "b": link_id.split("-")[1], "capacity_bps": 10_000_000,
              "cost": rng.randint(5, 15)} for link_id in core]

    near, far = 1, side - 2
    attach = [grid[0][near], grid[0][far], grid[near][-1], grid[far][-1],
              grid[-1][far], grid[-1][near], grid[far][0], grid[near][0]]
    hosts = [f"H{i + 1}" for i in range(len(attach))]
    for hid, rid in zip(hosts, attach):
        nodes.append({"id": hid, "kind": "host"})
        links.append({"id": f"{hid}-{rid}", "a": hid, "b": rid,
                      "capacity_bps": 100_000_000, "delay_ms": 0.1})

    flows = []
    for i, src in enumerate(hosts):
        for step in (len(hosts) // 2, 3):
            flows.append({"src": src, "dst": hosts[(i + step) % len(hosts)],
                          "rate_bps": 400_000.0, "packet_size_bytes": 500,
                          "start_s": round(rng.uniform(0.0, 1.0), 6)})

    failures = []
    down_until = {link_id: -1.0 for link_id in core}
    count = round(MESH_FLAPS_PER_S * duration_s)
    for t in sorted(round(rng.uniform(0.0, duration_s), 6) for _ in range(count)):
        link_id = rng.choice([l for l in core if down_until[l] < t])
        up_at = round(t + rng.uniform(*MESH_DOWN_S), 6)
        failure = {"link": link_id, "down_at_s": t}
        if up_at < duration_s:
            failure["up_at_s"] = up_at
        down_until[link_id] = up_at
        failures.append(failure)

    return {"version": 1, "name": "mesh-churn", "seed": seed,
            "duration_s": duration_s,
            "topology": {"nodes": nodes, "links": links},
            "workload": {"kind": "custom", "flows": flows},
            "famtar": {"enabled": True},
            "failures": failures}


WORKLOADS = {
    "elastic-k4-famtar": lambda seed, tiny=False: bundled("scenario1-k4.famtar", seed, tiny),
    "elastic-k4-ip": lambda seed, tiny=False: bundled("scenario1-k4.ip", seed, tiny),
    "mesh-churn": mesh_churn,
}
