#!/usr/bin/env python3
"""Benchmark of the blochpacket command line on three workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One fresh process runs one workload:
it imports the package from `src/`, runs a small vacuum `bands` command as
set-up (package import plus the first LAPACK call), then repeats whole rounds
of the workload's commands through `blochpacket.cli.main` until `--seconds`
have passed (at least one round).  After every round the artifacts are checked
by `checks.py`.  BLAS and OpenMP run one thread, set before numpy loads.  The
last line of standard output is one JSON object:

    {"correct": bool, "attempted": commands run, "failed": commands that exited
     non-zero or raised, "metrics": {name: {"value": v, "unit": u}}}

With `--trace 0` the metrics are `cpu_s` (median over rounds of the process
CPU time, all threads, that one round of the commands takes), `setup_s`
(process CPU time from its start to the end of set-up) and `peak_rss_mb`.  With
`--trace 1` one round runs with the per-layer tracer of `tracing.py`
installed; the metrics are its per-layer figures plus `trace.overhead_s`, the
CPU time its wrappers added (`Tracer.overhead_s`).  Artifacts go to
`.bench_out/<workload>/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: CPU time then excludes the time the VM's other tenants take
# (steal), which two threads waiting on each other would turn into spinning.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = HERE / "configs"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402

# workload -> ((artifact directory, CLI command, config), ...), artifact check.
# No workload runs at cutoff 3: its dense work on 68 MB matrices is bound by
# memory traffic, and on a shared host its CPU time drifted too much between
# runs to bound (README, "Steadiness").
WORKLOADS = {
    # ~40 dense full-spectrum solves at 6K = 750, each re-assembling its
    # operator: theta-path tracking plus the Richardson finite-difference
    # Hessian and the 1000-direction speed-limit check
    "layered_dispersion": (
        (("bands", "bands", "bands_layered"),
         ("dispersion", "dispersion", "bands_layered")),
        checks.check_layered_dispersion,
    ),
    # small band work; time goes to quadrature-node preparation, seminorms,
    # envelope stepping and the pseudo-spectral RK4 integrator
    "oracle_checks": (
        (("validate_identity", "validate", "validate_identity"),
         ("validate_modulated", "validate", "wkb_modulated"),
         ("oracle", "oracle", "oracle_layered")),
        checks.check_oracle_checks,
    ),
}
SETUP_CONFIG = "setup_vacuum"


def seconds_since_process_start() -> float:
    """Wall time since this process was created, from /proc (clock ticks)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def write_configs(names, seed: int, dest: Path) -> dict:
    """Copy the workload's configs with the seed applied; returns the documents.
    The config `seed` drives the random directions of the speed-limit check."""
    dest.mkdir(parents=True, exist_ok=True)
    docs = {}
    for name in names:
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        doc["seed"] = seed
        (dest / f"{name}.json").write_text(json.dumps(doc, indent=1))
        docs[name] = doc
    return docs


def run_command(cli, command: str, config: Path, out: Path, log) -> bool:
    """One CLI call; True when it exited 0.  Its own output goes to `log`."""
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main([command, "--config", str(config), "--out", str(out)])
    except Exception:  # a crash counts as a failed operation, not a benchmark error
        traceback.print_exc(file=log)
        return False
    return rc == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import blochpacket.cli as cli
    except ImportError as exc:
        print(f"cannot import blochpacket from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"blochpacket imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    commands, check = WORKLOADS[args.workload]
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    docs = write_configs({c for _d, _c, c in commands} | {SETUP_CONFIG}, args.seed, work / "configs")
    problems = []
    attempted = failed = 0
    cpus = []  # per round
    command_times = []  # per round, per command: (wall, CPU)
    with open(work / "commands.log", "w") as log:
        if not run_command(cli, "bands", work / "configs" / f"{SETUP_CONFIG}.json", work / "setup", log):
            problems.append("set-up command failed")
        else:
            problems += checks.check_setup(work / "setup", docs[SETUP_CONFIG])
        setup_wall_s = seconds_since_process_start()
        setup_s = time.process_time()

        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        t_start = time.perf_counter()
        while True:
            rnd = work / f"round{len(cpus)}"
            ok, times = [], []
            for label, command, cfg in commands:
                t0, c0 = time.perf_counter(), time.process_time()
                ok.append(run_command(cli, command, work / "configs" / f"{cfg}.json", rnd / label, log))
                times.append((time.perf_counter() - t0, time.process_time() - c0))
            cpus.append(sum(c for _w, c in times))
            command_times.append([(round(w, 3), round(c, 3)) for w, c in times])
            attempted += len(ok)
            failed += ok.count(False)
            if all(ok):
                problems += [f"round {len(cpus) - 1}: {p}" for p in check(rnd, docs)]
            if args.trace or time.perf_counter() - t_start >= args.seconds:
                break

    if args.trace:
        tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = {"value": tracer.overhead_s(), "unit": "s"}
        absent = tracer.absent_metrics()
        if absent:
            print("absent per-layer metrics (function not found, reported as 0): " + ", ".join(absent))
    else:
        metrics = {
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    for p in problems:
        print(f"check failed: {p}")
    print(f"set-up: wall {setup_wall_s:.3f} s, CPU {setup_s:.3f} s")
    print(f"command (wall, CPU) times per round: {command_times}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
