"""scalesq benchmark: one workload, one run.

    python3 perfbench/run.py --workload {family-1d,graded-1d,plane-2d}
        --seed N --seconds S --trace {0,1}

Run from the repository root (the package is imported from ./src).  A run
starts fresh processes one after another (perfbench/onepass.py), each doing
the workload's command list once, until S seconds have been spent on
passes (at least MIN_PASSES).  It reports medians over the passes.  Before
the passes, SETUP_PROBES processes only set up, so that set-up time gets
more samples.

The shared host's speed drifts by 30-40% over tens of seconds, the same for
numpy and pure-Python work, so raw pass times of the same code spread that
much between runs.  The timed end-to-end metrics are therefore normalised:
each op's time is multiplied by CAL_NOMINAL_S over the time of a fixed
calibration job (onepass.Calibration, no scalesq code) measured just before
and after it, in the same process (wall time by the calibration's wall
time, CPU time by its CPU time), and each set-up time by CAL_NOMINAL_S over
the calibration just after it.  wall_norm_s is then the pass's time on
a host running the calibration job in CAL_NOMINAL_S.  The raw times are
printed in the table and reported as per-layer metrics (raw.*).

--trace 0 prints the end-to-end metrics.  --trace 1 cycles through an
untraced pass, a traced pass (spans and counts) and a memory pass (spans
plus tracemalloc, for the *_peak_mb metrics), at least once each, and
prints the per-layer metrics, the per-command times of the untraced passes
and the tracing overhead.  A table for people goes first; the last line of
standard output is the JSON result.  Exit code 2 means the run could not
be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import COUNT_METRICS, LAYER_METRICS, PEAK_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
SETUP_PROBES = 3
PASS_TIMEOUT_S = 150
COMMANDS = ("equivalence", "sobolev", "gfun", "symbol", "conditions", "mar-scan", "synthesis")

# calibration time the normalised metrics are scaled to: about the
# calibration's time on the 2-core Xeon host of baseline.json when that host
# is quiet, so that normalised and raw times then roughly agree
CAL_NOMINAL_S = 0.012

END_TO_END = {
    "setup_s": "s", "wall_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MB",
    "fields_per_norm_s": "fields/s",
}
# normalised per-command times of the untraced passes, reported beside the
# layer metrics, and the raw (unnormalised) pass figures with the host speed
COMMAND_METRICS = {f"cmd.{c.replace('-', '_')}_s": "s" for c in COMMANDS}
RAW_METRICS = {"raw.setup_s": "s", "raw.wall_s": "s", "raw.cpu_s": "s", "raw.fields_per_s": "fields/s",
               "host.cal_s": "s"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def machine() -> dict:
    """The machine a result was measured on."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), None)
    except OSError:
        info["cpu_model"] = None
    llc = None
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, idx, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(base, idx, "size")) as fh:
                    size = fh.read().strip()
            except (OSError, ValueError):
                continue
            if llc is None or level >= llc[0]:
                llc = (level, size)
    info["llc"] = f"L{llc[0]} {llc[1]}" if llc else None
    for mod in ("numpy", "scipy"):
        try:
            info[mod] = __import__(mod).__version__
        except ImportError:
            info[mod] = None
    return info


def child_env() -> dict:
    """Environment for the pass processes: thread pools pinned to <= nproc."""
    env = dict(os.environ)
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            env[var] = str(min(int(env[var]), nproc))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, workdir: str, tag: str, trace: str | None, setup_only: bool) -> dict:
    out = os.path.join(workdir, f"{tag}.result.json")
    cmd = [sys.executable, os.path.join(HERE, "onepass.py"), "--root", os.getcwd(),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", os.path.join(workdir, "io"), "--out", out, "--scale", args.scale]
    if args.reference:
        cmd += ["--reference", args.reference]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process {tag} exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def host_factors(p: dict, clock: int) -> list[float]:
    """Per op, CAL_NOMINAL_S over the mean of the calibrations run just
    before and just after it, timed by the wall clock (clock 0) or in CPU
    time (clock 1).  The first calibration of a process only warms numpy up
    and is left out."""
    cal = [c[clock] for c in p["cal_s"][1:]]
    return [CAL_NOMINAL_S / ((a + b) / 2.0) for a, b in zip(cal, cal[1:])]


def setup_norm(p: dict) -> float:
    """Set-up time scaled by CAL_NOMINAL_S over the calibration just after it."""
    return p["setup_s"] * CAL_NOMINAL_S / p["cal_s"][1][0]


def pass_metrics(p: dict) -> dict:
    per_cmd = {name: 0.0 for name in COMMAND_METRICS}
    wall = cpu = 0.0
    for op, fw, fc in zip(p["ops"], host_factors(p, 0), host_factors(p, 1)):
        per_cmd[f"cmd.{op['command'].replace('-', '_')}_s"] += fw * op["seconds"]
        wall += fw * op["seconds"]
        # CPU time against the calibration's CPU time: time the host steals
        # from the VM is in neither
        cpu += fc * op["cpu_seconds"]
    # per second of the whole pass: the time of the field commands alone is
    # too short on graded-1d (one gfun) to measure steadily
    fields = sum(op["fields"] for op in p["ops"])
    return {
        "wall_norm_s": wall, "cpu_norm_s": cpu, "peak_rss_mb": p["peak_rss_mb"],
        "fields_per_norm_s": fields / wall, **per_cmd,
        "raw.wall_s": p["wall_s"], "raw.cpu_s": p["cpu_s"], "raw.fields_per_s": fields / p["wall_s"],
        "host.cal_s": statistics.median(c[0] for c in p["cal_s"][1:]),
    }


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="scalesq benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("default", "toy"), default="default",
                    help="toy: tiny grids, for the self-test")
    ap.add_argument("--reference", default=None, help="reference file (default: perfbench/reference.json)")
    args = ap.parse_args(argv)
    # SystemExit makes subprocess.run kill and reap the running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join("src", "scalesq", "__init__.py")):
        print("error: run from the repository root; src/scalesq not found", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = [run_child(args, workdir, f"setup{i}", None, True) for i in range(SETUP_PROBES)]
        cycle = (None, "time", "memory") if args.trace else (None,)
        runs = {mode: [] for mode in cycle}
        start = time.monotonic()
        k = 0
        while True:
            mode = cycle[k % len(cycle)]
            t = time.monotonic()
            p = run_child(args, workdir, f"pass{k}", mode, False)
            took = time.monotonic() - t
            if mode is None:
                setup.append(p)
            runs[mode].append(p)
            k += 1
            enough = k >= len(cycle) if args.trace else k >= MIN_PASSES
            if enough and time.monotonic() - start + took > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(os.path.join(workdir, "io"), ignore_errors=True)

    passes, traced, memory = runs[None], runs.get("time", []), runs.get("memory", [])
    result = summarize(args, setup, passes, traced, memory)
    print_table(args, result, setup, passes, traced + memory, workdir)
    print(json.dumps(result["line"]))
    return 0


def summarize(args, setup, passes, traced, memory) -> dict:
    all_passes = passes + traced + memory
    attempted = sum(len(p["ops"]) for p in all_passes)
    failures = []
    for p in all_passes:
        failures += [(op["ref_key"], op["problems"]) for op in p["ops"] if op["problems"]]
    # determinism: every pass must observe exactly what the first one did
    first = {op["ref_key"]: json.dumps(op["observed"], sort_keys=True) for op in all_passes[0]["ops"]}
    for p in all_passes[1:]:
        for op in p["ops"]:
            if not op["problems"] and json.dumps(op["observed"], sort_keys=True) != first.get(op["ref_key"]):
                failures.append((op["ref_key"], ["output differs from the first pass"]))
    rows = [pass_metrics(p) for p in passes]
    values = {"setup_s": statistics.median(setup_norm(p) for p in setup),
              "raw.setup_s": statistics.median(p["setup_s"] for p in setup)}
    values.update({k: median_of(rows, k) for k in END_TO_END if k != "setup_s"})
    values.update({k: median_of(rows, k) for k in {**COMMAND_METRICS, **RAW_METRICS} if k != "raw.setup_s"})
    if args.trace:
        layer_rows = [p["layers"] for p in traced]
        for key in LAYER_METRICS:
            values[key] = median_of(layer_rows, key)
        for key in PEAK_METRICS:
            values[key] = median_of([p["layers"] for p in memory], key)
        unsteady = [k for k in COUNT_METRICS
                    if len({p["layers"][k] for p in traced + memory}) > 1]
        if unsteady:
            failures.append(("trace", [f"counts differ between traced passes: {unsteady}"]))
        traced_wall = statistics.median(pass_metrics(p)["wall_norm_s"] for p in traced)
        values["trace.overhead_frac"] = traced_wall / values["wall_norm_s"] - 1.0
        units = {**LAYER_METRICS, **COMMAND_METRICS, **RAW_METRICS, "trace.overhead_frac": "ratio"}
    else:
        units = END_TO_END
    failed = len(failures)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return {"line": line, "values": values, "failures": failures}


def print_table(args, result, setup, passes, traced, workdir: str) -> None:
    info = machine()
    values, line = result["values"], result["line"]
    print(f"# scalesq benchmark  workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}")
    print(f"# machine: nproc={info['nproc']} cpu={info['cpu_model']!r} llc={info['llc']} "
          f"python={info['python']} numpy={info['numpy']} scipy={info['scipy']}")
    env = child_env()
    print("# threads: " + " ".join(f"{v}={env[v]}" for v in THREAD_VARS))
    print(f"# passes: {len(passes)} untraced, {len(traced)} traced; set-up samples: {len(setup)}")
    print("# untraced pass raw wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    print("# untraced pass wall_norm_s: " + " ".join(f"{pass_metrics(p)['wall_norm_s']:.3f}" for p in passes))
    print("# set-up samples raw s: " + " ".join(f"{p['setup_s']:.3f}" for p in setup))
    if args.workload == "plane-2d" and args.trace:
        print(f"# squarefn.stack_bytes (computed from array sizes) = "
              f"{values['squarefn.stack_bytes'] / 2**20:.0f} MiB against LLC {info['llc']}")
    print(f"{'metric':34s} {'value':>16s}  unit")
    fail_frac = line["failed"] / line["attempted"]
    units = {**END_TO_END, **COMMAND_METRICS, **RAW_METRICS}
    for k, unit in units.items():
        print(f"{k:34s} {values[k]:16.6g}  {unit}")
    print(f"{'fail_frac':34s} {fail_frac:16.6g}  ratio")
    if args.trace:
        for k, unit in {**LAYER_METRICS, "trace.overhead_frac": "ratio"}.items():
            label = f"{unit} (computed)" if unit == "bytes" or k.endswith("_points") else unit
            print(f"{k:34s} {values[k]:16.6g}  {label}")
        print(f"# spans: {os.path.relpath(workdir)}/pass*.spans.jsonl")
    for key, problems in result["failures"]:
        print(f"# FAILED {key}: {'; '.join(problems)}")


if __name__ == "__main__":
    sys.exit(main())
