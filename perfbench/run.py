#!/usr/bin/env python3
"""Build and run the record/replay/farm benchmark (see NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload compute-long --seed 1 --seconds 15 --trace 0

The last line of stdout is the JSON result. Set-up time is taken from five
separate processes and reported as their median: two set-up-only runs
before the measured run, the measured run itself, and two after it, so the
samples straddle the run and one slow host phase does not decide it. Each
process scales its set-up time to the reference host speed (dvbench.ml,
reference_spin_ms).
Separate processes, because in one process the memoized race audit makes a
repeat cheaper. Temporary files, including those the libraries make, stay
under .bench_work/ in the checkout.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "dvbench.exe")
SETUP_RUNS_AROUND = 2  # set-up-only runs on each side of the measured run
TMP_DIR = os.path.join(".bench_work", "tmp")
RUN_BUDGET_S = 170  # everything after the build


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, deadline, **kw):
    env = dict(os.environ, TMPDIR=os.path.abspath(TMP_DIR))
    try:
        return subprocess.run(
            cmd, timeout=max(1.0, deadline - time.monotonic()), env=env, **kw
        )
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (dune-project and lib/ not found)")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/dvbench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    os.makedirs(TMP_DIR, exist_ok=True)
    try:
        print(json.dumps(measure(argv, time.monotonic() + RUN_BUDGET_S)))
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(TMP_DIR))
        except OSError:
            pass  # another run is still using it


def measure(argv, deadline):
    traced = "--trace" in argv and argv[argv.index("--trace") + 1 :][:1] == ["1"]
    setups = []

    def setup_runs():
        for _ in range(0 if traced else SETUP_RUNS_AROUND):
            r = run([EXE, *argv, "--setup-only"], deadline, stdout=subprocess.PIPE, text=True)
            if r.returncode != 0 or not r.stdout.strip():
                fail("set-up run failed")
            setups.append(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])

    setup_runs()
    r = run([EXE, *argv], deadline, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if r.returncode != 0 or not lines:
        fail(f"benchmark exited with code {r.returncode}")
    result = json.loads(lines[-1])
    if not traced:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup_runs()
        setup["value"] = statistics.median(setups)
        print("setup_s runs: " + " ".join(f"{s:.4f}" for s in setups))
    return result

if __name__ == "__main__":
    main(sys.argv[1:])
