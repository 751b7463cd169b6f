"""Workload definitions: the operations each workload runs and the inputs
it generates from the workload seed.

A workload seed selects entries from small fixed pools (experiment seeds,
generated 2-D fields).  Each pool entry has a stored seed-commit reference
in reference.json, so any workload seed can be checked for correctness.
The structure of a pass (which commands, in which order, at which grid) is
the same for every seed, so per-layer counts repeat across seeds.

Scales: "default" is the measured benchmark at the package's working grids;
"toy" runs the same command kinds on tiny grids for the self-test.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("family-1d", "graded-1d", "plane-2d")

# Pool sizes per scale.  Changing a pool changes which references exist,
# so make_reference.py must be rerun against the reference commit.
POOLS = {
    "default": {"family": 16, "gfun": 16, "plane": 8},
    "toy": {"family": 4, "gfun": 4, "plane": 2},
}
FAMILY_SEEDS_PER_PASS = {"default": 4, "toy": 2}

# per-scale grid settings: (1-D n, 1-D L, 2-D n, 2-D L)
GRIDS = {"default": (4096, 32.0, 512, 16.0), "toy": (256, 16.0, 64, 16.0)}


@dataclass
class Op:
    """One operation of a pass: a CLI command run through scalesq.cli.main
    with argv, or the library call duality_residual (command "synthesis",
    argv = kernel id, field path, eps).  outputs names the files the op
    writes that the correctness gate reads."""

    command: str
    argv: list
    ref_key: str
    outputs: dict = field(default_factory=dict)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def write_field_binary(path: str, n: int, half_length: float, pool_seed: int) -> None:
    """A smooth mean-zero 2-D field in the package's binary field format
    (magic "SFLD", little-endian dim, N, L, interleaved re/im float64).

    Built here with numpy alone, so the program only sees the file: six
    Gaussian bumps, three of them modulated, with seeded centres, widths
    and amplitudes.
    """
    rng = np.random.default_rng(1000 + pool_seed)
    ax = -half_length + np.arange(n) * (2.0 * half_length / n)
    x, y = ax[:, None], ax[None, :]
    vals = np.zeros((n, n))
    for i in range(6):
        cx, cy = rng.uniform(-half_length / 3, half_length / 3, size=2)
        w = rng.uniform(0.6, 2.5) * half_length / 16.0
        amp = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        bump = amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * w * w))
        if i % 2:
            kx, ky = rng.uniform(0.2, 1.5, size=2)
            bump = bump * np.cos(2.0 * np.pi * (kx * x + ky * y))
        vals += bump
    vals -= vals.mean()
    data = np.empty(2 * n * n, dtype="<f8")
    data[0::2] = vals.ravel()
    data[1::2] = 0.0
    with open(path, "wb") as fh:
        fh.write(b"SFLD")
        fh.write(struct.pack("<qqd", 2, n, half_length))
        fh.write(data.tobytes())


def _draws(workload: str, seed: int, scale: str) -> dict:
    """Pool indices drawn from the workload seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pools = POOLS[scale]
    return {
        "family": sorted(int(s) for s in rng.choice(pools["family"], FAMILY_SEEDS_PER_PASS[scale], replace=False)),
        "gfun": int(rng.integers(pools["gfun"])),
        "field2d": int(rng.integers(pools["plane"])),
        "sobolev2d": int(rng.integers(pools["plane"])),
    }


def family_ops(workdir: str, scale: str, seeds) -> list[Op]:
    n1, l1, _, _ = GRIDS[scale]
    grid = {"dim": 1, "n_samples": n1, "half_length": l1}
    experiments = [
        ("equivalence", "haar", {"operator": "gfun", "kernel": "haar", "p": 2, "weight": "const"}),
        ("equivalence", "poisson-q", {"operator": "gfun", "kernel": "poisson-q", "p": 3, "weight": "pow:0.3"}),
        ("equivalence", "riesz-diff", {"operator": "dyadic", "kernel": "riesz-diff:0.5:ball", "p": 2, "weight": "const"}),
        ("sobolev", "order0.5", {"operator": "sobolev", "order": 0.5, "profile": "ball", "p": 2, "weight": "const"}),
    ]
    ops = []
    for s in seeds:
        for command, tag, cfg in experiments:
            cfg_path = os.path.join(workdir, f"{command}-{tag}-s{s}.json")
            _write_json(cfg_path, dict(cfg, seed=s, grid=grid))
            out = os.path.join(workdir, f"{command}-{tag}-s{s}.report.json")
            ops.append(Op(command, [command, "--config", cfg_path, "--out", out],
                          f"{scale}/family-1d/{command}:{tag}/s{s}", {"report": out}))
    return ops


def graded_ops(workdir: str, scale: str, gfun_seed: int) -> list[Op]:
    n1, _, _, _ = GRIDS[scale]
    if scale == "toy":
        kernels, gm, alpha, scan_flags = ["haar"], "haar", "1.0", ["--no-refine"]
        grid_flags = ["--grid-n", str(n1)]
    else:
        kernels, gm, alpha, scan_flags = ["gm:0.75", "riesz-diff:0.5:ball", "sgn-diff:ball"], "gm:0.75", "0.75", []
        grid_flags = []
    ops = []
    for k in kernels:
        out = os.path.join(workdir, f"conditions-{k.replace(':', '_')}.json")
        ops.append(Op("conditions", ["conditions", "--kernel", k, "--out", out],
                      f"{scale}/graded-1d/conditions:{k}", {"report": out}))
    ops.append(Op("gfun", ["gfun", "--kernel", gm, "--seed", str(gfun_seed)] + grid_flags,
                  f"{scale}/graded-1d/gfun:{gm}/s{gfun_seed}"))
    csv = os.path.join(workdir, "symbol-graded.csv")
    ops.append(Op("symbol", ["symbol", "--kernel", gm, "--out", csv] + grid_flags,
                  f"{scale}/graded-1d/symbol:{gm}", {"csv": csv, "report": csv + ".json"}))
    out = os.path.join(workdir, "mar-scan.json")
    ops.append(Op("mar-scan", ["mar-scan", "--alpha", alpha, "--out", out] + scan_flags,
                  f"{scale}/graded-1d/mar-scan:{alpha}", {"report": out}))
    return ops


def plane_ops(workdir: str, scale: str, field_seed: int, sobolev_seed: int) -> list[Op]:
    _, _, n2, l2 = GRIDS[scale]
    field_path = os.path.join(workdir, f"field2d-f{field_seed}.bin")
    write_field_binary(field_path, n2, l2, field_seed)
    g_csv = os.path.join(workdir, "gfun2d.csv")
    ops = [Op("gfun", ["gfun", "--kernel", "poisson-q:2", "--input", field_path, "--out", g_csv],
              f"{scale}/plane-2d/gfun:poisson-q:2/f{field_seed}", {"field_csv": g_csv})]
    cfg_path = os.path.join(workdir, f"sobolev2d-s{sobolev_seed}.json")
    _write_json(cfg_path, {"operator": "sobolev", "order": 0.5, "profile": "ball", "p": 2,
                           "seed": sobolev_seed, "grid": {"dim": 2, "n_samples": n2, "half_length": l2}})
    out = os.path.join(workdir, f"sobolev2d-s{sobolev_seed}.report.json")
    ops.append(Op("sobolev", ["sobolev", "--config", cfg_path, "--out", out],
                  f"{scale}/plane-2d/sobolev:order0.5/s{sobolev_seed}", {"report": out}))
    csv = os.path.join(workdir, "symbol-plane.csv")
    ops.append(Op("symbol", ["symbol", "--kernel", "poisson-q:2", "--out", csv, "--grid-n", str(n2),
                             "--grid-l", repr(l2)],
                  f"{scale}/plane-2d/symbol:poisson-q:2", {"csv": csv, "report": csv + ".json"}))
    ops.append(Op("synthesis", ["poisson-q:2", field_path, "0.25"],
                  f"{scale}/plane-2d/synthesis:poisson-q:2/f{field_seed}"))
    return ops


def build(workload: str, seed: int, workdir: str, scale: str = "default") -> list[Op]:
    """Write the workload's generated inputs into workdir and return its ops."""
    os.makedirs(workdir, exist_ok=True)
    d = _draws(workload, seed, scale)
    if workload == "family-1d":
        return family_ops(workdir, scale, d["family"])
    if workload == "graded-1d":
        return graded_ops(workdir, scale, d["gfun"])
    if workload == "plane-2d":
        return plane_ops(workdir, scale, d["field2d"], d["sobolev2d"])
    raise ValueError(f"unknown workload '{workload}' (known: {', '.join(WORKLOADS)})")


def all_pool_ops(workload: str, workdir: str, scale: str) -> list[Op]:
    """Every op any seed can produce, for building the reference."""
    os.makedirs(workdir, exist_ok=True)
    pools = POOLS[scale]
    if workload == "family-1d":
        return family_ops(workdir, scale, range(pools["family"]))
    if workload == "graded-1d":
        ops = graded_ops(workdir, scale, 0)
        extra = [op for s in range(1, pools["gfun"])
                 for op in graded_ops(workdir, scale, s) if op.command == "gfun"]
        return ops + extra
    ops = []
    for i in range(pools["plane"]):
        ops += [op for op in plane_ops(workdir, scale, i, i) if i == 0 or op.command != "symbol"]
    return ops
