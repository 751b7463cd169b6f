"""Correctness gate: turn an op's outputs into an observation and compare it
against the seed-commit reference.

An op fails when it raises, when its exit code or PASS/FAIL verdict differs
from the reference, when it reports a non-finite number, or when a reported
value leaves the reference by more than the tolerance the repository's own
tests use for that quantity (see TOLERANCES).  Two checks need no stored
reference: the duality residual stays at round-off, and a gfun --out field
CSV has the norm that gfun printed.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

# key -> (rel_tol, abs_tol), chosen from the tests that pin the same quantity
TOLERANCES = {
    # square-function and equivalence ratios: test_sobolev (|ratio - target| < 1e-3),
    # test_cli.test_gfun_seeded_field (rel 1e-3); spreads and norms follow them
    "ratios": (1e-3, 0.0), "min": (1e-3, 0.0), "max": (1e-3, 0.0), "spread": (1e-3, 0.0),
    "ratio": (1e-3, 0.0), "gfun_l2": (1e-3, 0.0), "csv_l2": (1e-3, 0.0),
    # test_cli.test_gfun_input_file: input norm rel 1e-10
    "input_l2": (1e-10, 0.0),
    # symbol values: test_cli.test_symbol_csv_and_sidecar (rel 1e-4, defect < 1e-4,
    # imaginary part < 1e-15 on the real symbol)
    "annulus_min_modulus": (1e-4, 0.0), "homogeneity_defect": (0.0, 1e-4),
    "re_at_one": (1e-4, 0.0), "re_max": (1e-4, 0.0), "re_mean": (1e-4, 0.0),
    "im_absmax": (0.0, 1e-12), "c_inf": (1e-4, 0.0), "c_zero": (1e-4, 0.0),
    # condition checkers: test_conditions (decay rel 1e-3, tail moment rel 1e-5,
    # local power rel 1e-9, majorant rel 1e-4); acceptance criterion 09 (abs 1e-8)
    "c_est": (1e-3, 0.0), "c_doubled": (1e-3, 0.0), "cancellation_modulus": (0.0, 1e-8),
    "tail_moment.value": (1e-5, 1e-12), "local_power.value": (1e-9, 1e-12),
    "majorant_l1.value": (1e-4, 0.0), "min_value": (1e-4, 0.0),
    # scale-shift energy: test_conditions.test_hormander_energy_quadrature_oracle (rel 1e-6)
    "max_ratio": (1e-6, 0.0), "refinement_delta": (0.0, 1e-6),
}
EXACT = (1e-12, 1e-300)  # config echoes, grid points, counts

# test_squarefn: duality residual < 1e-10
DUALITY_LIMIT = 1e-10
# gfun prints norms with 12 significant digits
PRINTED_REL = 1e-9

_GFUN_LINE = re.compile(r"input_l2=(\S+) gfun_l2=(\S+) ratio=(\S+)")
_VERDICT = re.compile(r"^(PASS|FAIL)\b", re.M)
VOLATILE_KEYS = ("generated_at", "diagnostics")


def tolerance(path: tuple) -> tuple[float, float]:
    keys = [k for k in path if isinstance(k, str)]
    for k in keys[:-1]:
        if f"{k}.{keys[-1]}" in TOLERANCES:
            return TOLERANCES[f"{k}.{keys[-1]}"]
    for k in reversed(keys):
        if k in TOLERANCES:
            return TOLERANCES[k]
    return EXACT


def compare(obs, ref, path=()) -> list[str]:
    """Differences between an observed value tree and the reference tree."""
    where = "/".join(str(p) for p in path) or "<root>"
    if isinstance(ref, dict):
        if not isinstance(obs, dict) or set(obs) != set(ref):
            return [f"{where}: keys {sorted(obs) if isinstance(obs, dict) else obs!r} != {sorted(ref)}"]
        return [d for k in sorted(ref) for d in compare(obs[k], ref[k], path + (k,))]
    if isinstance(ref, list):
        if not isinstance(obs, list) or len(obs) != len(ref):
            return [f"{where}: length/type differs from reference"]
        return [d for i, (o, r) in enumerate(zip(obs, ref)) for d in compare(o, r, path + (i,))]
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if obs == ref and type(obs) is type(ref) else [f"{where}: {obs!r} != reference {ref!r}"]
    if isinstance(obs, bool) or not isinstance(obs, (int, float)):
        return [f"{where}: {obs!r} is not a number (reference {ref!r})"]
    if not math.isfinite(obs):
        return [f"{where}: non-finite {obs!r}"]
    rel, absolute = tolerance(path)
    if not math.isclose(obs, ref, rel_tol=rel, abs_tol=absolute):
        return [f"{where}: {obs!r} vs reference {ref!r} (rel {rel:g}, abs {absolute:g})"]
    return []


def nonfinite(tree, path=()) -> list[str]:
    """Non-finite numbers anywhere in an observation."""
    where = "/".join(str(p) for p in path)
    if isinstance(tree, dict):
        return [d for k, v in tree.items() for d in nonfinite(v, path + (k,))]
    if isinstance(tree, list):
        return [d for i, v in enumerate(tree) for d in nonfinite(v, path + (i,))]
    if isinstance(tree, float) and not math.isfinite(tree):
        return [f"{where}: non-finite {tree!r}"]
    return []


def _load_report(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    for k in VOLATILE_KEYS:
        payload.pop(k, None)
    return payload


def _symbol_csv_stats(path: str) -> dict:
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    xi, re_, im = rows[:, 0], rows[:, 1], rows[:, 2]
    return {
        "rows": int(rows.shape[0]),
        "re_at_one": float(re_[int(np.argmin(np.abs(xi - 1.0)))]),
        "re_max": float(np.max(re_)),
        "re_mean": float(np.mean(re_)),
        "im_absmax": float(np.max(np.abs(im))),
    }


def _field_csv_l2(path: str) -> tuple[int, float]:
    with open(path) as fh:
        meta = dict(tok.split("=") for tok in fh.readline()[1:].split())
    rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    dim, n, L = int(meta["dim"]), int(meta["n"]), float(meta["half_length"])
    cell = (2.0 * L / n) ** dim
    return int(rows.shape[0]), float(np.sqrt(cell * np.sum(rows[:, 1] ** 2 + rows[:, 2] ** 2)))


def observe(op, exit_code: int, out: str, err: str, result=None) -> tuple[dict, list[str]]:
    """Observation of one finished op, plus the reference-free check failures."""
    problems: list[str] = []
    found = _VERDICT.findall(out + "\n" + err)
    obs = {"exit": exit_code, "verdict": found[-1] if found else None, "values": {}}
    values = obs["values"]
    if op.command == "synthesis":
        values["residual_ok"] = bool(result is not None and math.isfinite(result) and result < DUALITY_LIMIT)
        if not values["residual_ok"]:
            problems.append(f"duality residual {result!r} not below {DUALITY_LIMIT:g}")
        return obs, problems
    if "report" in op.outputs:
        values["report"] = _load_report(op.outputs["report"])
    if op.command == "gfun" and exit_code == 0:
        m = _GFUN_LINE.search(out)
        if m is None:
            problems.append("gfun printed no norm line")
        else:
            values.update(input_l2=float(m.group(1)), gfun_l2=float(m.group(2)), ratio=float(m.group(3)))
            if "field_csv" in op.outputs:
                rows, l2 = _field_csv_l2(op.outputs["field_csv"])
                values.update(csv_rows=rows, csv_l2=l2)
                if not math.isclose(l2, values["gfun_l2"], rel_tol=PRINTED_REL):
                    problems.append(f"--out field norm {l2!r} != printed gfun_l2 {values['gfun_l2']!r}")
    if "csv" in op.outputs:
        values["csv"] = _symbol_csv_stats(op.outputs["csv"])
    problems += nonfinite(values)
    return obs, problems


def check(obs: dict, ref: dict | None) -> list[str]:
    """Failures of an observation against its stored reference."""
    if ref is None:
        return ["no stored reference for this op"]
    problems = []
    if obs["exit"] != ref["exit"]:
        problems.append(f"exit code {obs['exit']} != reference {ref['exit']}")
    if obs["verdict"] != ref["verdict"]:
        problems.append(f"verdict {obs['verdict']} != reference {ref['verdict']}")
    return problems + compare(obs["values"], ref["values"])


def fields_squared(op, obs: dict) -> int:
    """Square functions of one full-grid field that the op completed."""
    if op.command == "gfun":
        return 1
    if op.command in ("equivalence", "sobolev"):
        rep = obs["values"].get("report", {})
        return int(rep.get("members", 0)) - len(rep.get("skipped", []))
    return 0
