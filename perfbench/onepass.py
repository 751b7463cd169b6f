"""One pass of a workload in a fresh process.

    python3 perfbench/onepass.py --root DIR --workload W --seed N --workdir D
        --spawned-at T --out RESULT.json [--trace {time,memory}] [--setup-only] [--scale S]
        [--reference FILE]

Set-up is process start (T, a time.monotonic() stamp taken by the parent
just before it started this process) until scalesq is imported and the
generated inputs are written.  The pass then runs the workload's ops once,
in order, through scalesq.cli.main(argv) or the library, and checks every
output.  A short calibration job runs after set-up and after every op
(Calibration), so that the parent can scale set-up and each op's wall and
CPU time to a fixed host speed; the pass's wall_s and cpu_s are the sums over the ops and
leave the calibrations out.  The process runs a command list once on
purpose: the package's quadrature-rule caches persist for the life of a
process, as they do in one CLI invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# seconds of calibration after set-up, and after each op as a share of the op
SETUP_CAL_S = 0.1
CAL_SHARE = 0.03


class Calibration:
    """A fixed compute-bound job that does not use scalesq: FFTs and
    elementwise numpy work on a 20 x 4096 batch, then a pure-Python loop.
    Run between ops, it measures how fast the shared host lets this process
    run at that moment.  Its arrays are allocated and touched once, here,
    so that its time does not depend on what the ops left in the allocator
    (a fresh 1 MB array costs page faults or not, depending on malloc's
    adaptive mmap threshold)."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.random.default_rng(0).standard_normal((20, 4096)) + 0j
        self.y = np.empty_like(self.x)
        self.z = np.empty_like(self.x)

    def run(self, at_least_s: float = 0.0) -> list[float]:
        """Wall and CPU seconds of the job: each the median of at least three
        runs, repeated until at_least_s is spent, so that one preemption
        does not count."""
        np, x, y, z = self.np, self.x, self.y, self.z
        walls, cpus = [], []
        while len(walls) < 3 or sum(walls) < at_least_s:
            t, c = time.perf_counter(), time.process_time()
            for _ in range(4):
                np.fft.fft(x, axis=1, out=y)
                np.conjugate(y, out=z)
                np.multiply(y, z, out=z)
                np.fft.ifft(z, axis=1, out=y)
            s = 0
            for i in range(35_000):
                s += i * i
            walls.append(time.perf_counter() - t)
            cpus.append(time.process_time() - c)
        return [statistics.median(walls), statistics.median(cpus)]


def run_op(op):
    """Run one op; returns (exit code, stdout, stderr, library result)."""
    import scalesq.cli

    out, err = io.StringIO(), io.StringIO()
    result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op.command == "synthesis":
                import scalesq.grid
                import scalesq.kernels
                import scalesq.squarefn

                kid, path, eps = op.argv
                field = scalesq.grid.load_field_binary(path)
                result = scalesq.squarefn.duality_residual(
                    field, scalesq.kernels.kernel_from_id(kid), float(eps))
                code = 0
            else:
                code = scalesq.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue(), result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--scale", default="default")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    ap.add_argument("--trace", choices=("time", "memory"), default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-s{args.seed}-{os.getpid()}", memory=args.trace == "memory")
        tracer.install_fft()
    import scalesq

    if not os.path.abspath(scalesq.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported scalesq from {scalesq.__file__}, not from {src}")
    if tracer is not None:
        tracer.install_package()
    import workloads

    ops = workloads.build(args.workload, args.seed, args.workdir, args.scale)
    for op in ops:
        for path in op.outputs.values():
            if os.path.exists(path):
                os.remove(path)
    setup_s = time.monotonic() - args.spawned_at
    # the first run warms numpy's FFT up; the second sets the host speed for
    # set-up and for the first op
    calibration = Calibration()
    cal = [calibration.run(), calibration.run(SETUP_CAL_S)]
    result = {"setup_s": setup_s, "cal_s": cal}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    import check

    timings, cpu_times, raw = [], [], []
    for op in ops:
        if tracer is not None:
            tracer.active = True
        a, c = time.perf_counter(), time.process_time()
        raw.append(run_op(op))
        timings.append(time.perf_counter() - a)
        cpu_times.append(time.process_time() - c)
        if tracer is not None:
            tracer.active = False
        cal.append(calibration.run(CAL_SHARE * timings[-1]))
    wall, cpu = sum(timings), sum(cpu_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(args.reference) as fh:
        reference = json.load(fh)
    op_results = []
    for op, dt, dc, (code, out, err, res) in zip(ops, timings, cpu_times, raw):
        if code is None:
            obs, problems = None, [f"raised: {err.strip().splitlines()[-1] if err.strip() else '?'}"]
        else:
            try:
                obs, problems = check.observe(op, code, out, err, res)
                problems += check.check(obs, reference.get(op.ref_key))
            except (OSError, ValueError, KeyError) as exc:
                obs, problems = None, [f"unreadable output: {exc!r}"]
        op_results.append({
            "ref_key": op.ref_key, "command": op.command, "seconds": dt, "cpu_seconds": dc,
            "fields": check.fields_squared(op, obs) if obs else 0,
            "observed": obs, "problems": problems,
        })
    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_rss_mb, ops=op_results)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(os.path.splitext(args.out)[0] + ".spans.jsonl")
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
