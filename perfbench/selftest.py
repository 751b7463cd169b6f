"""Self-test of the benchmark at toy grids (about a minute).

    python3 perfbench/selftest.py

From the repository root.  For every workload it checks that:

* an untraced run passes the correctness gate and prints every end-to-end
  metric of BENCHMARK.json, by name with its unit, in the table and in the
  JSON line;
* two traced runs, with different seeds, print every per-layer metric, and
  every count repeats exactly between them;
* a reference with one deliberately perturbed value per op makes the gate
  fail (failed > 0), so the gate is not vacuous.

It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = os.path.join(HERE, "_work", "selftest")


def run(workload: str, trace: int, reference: str | None = None, seed: int = 7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    if reference:
        cmd += ["--reference", reference]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(proc, spec: list[dict]) -> dict:
    line = last_json(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    for m in spec:
        got = line["metrics"].get(m["name"])
        assert got is not None, f"metric {m['name']} missing"
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), m["name"]
        table = [ln for ln in proc.stdout.splitlines() if ln.split()[:1] == [m["name"]]]
        assert table and table[0].split()[2] == m["unit"], f"{m['name']} not in the table with its unit"
    return line


def perturbed_reference(path: str) -> None:
    """Copy of the reference with one numeric value per toy op moved well
    beyond its tolerance."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)

    def bump(tree, trail=()):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for k, v in items:
            if isinstance(v, float) and any(str(t) in check.TOLERANCES for t in trail + (k,)):
                rel, absolute = check.tolerance(trail + (k,))
                tree[k] = v + 10.0 * (rel * abs(v) + absolute) + 1e-6
                return True
            if isinstance(v, (dict, list)) and bump(v, trail + (k,)):
                return True
        return False

    for key, entry in ref.items():
        if key.startswith("toy/") and not bump(entry["values"]):
            entry["exit"] = -1  # ops without a toleranced value (synthesis)
    with open(path, "w") as fh:
        json.dump(ref, fh)


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    bad_ref = os.path.join(WORK, "perturbed-reference.json")
    perturbed_reference(bad_ref)
    for wl in WORKLOADS:
        line = check_metrics(run(wl, 0), bench["end_to_end"])
        assert line["correct"] and line["failed"] == 0, f"{wl}: gate failed on the clean reference"
        traced = [check_metrics(run(wl, 1, seed=s), bench["per_layer"]) for s in (7, 8)]
        for name in COUNT_METRICS:
            a, b = (t["metrics"][name]["value"] for t in traced)
            assert a == b, f"{wl}: count {name} differs between traced runs: {a} vs {b}"
        bad = last_json(run(wl, 0, reference=bad_ref))
        assert bad["failed"] > 0 and not bad["correct"], f"{wl}: perturbed reference went unnoticed"
        print(f"ok {wl}: {line['attempted']} ops clean; perturbed reference failed "
              f"{bad['failed']}/{bad['attempted']}")

    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable] + bench["command"][1:] +
                          ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip(), "bare directory run did not refuse"
    shutil.rmtree(bare)
    print("ok bare directory: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
