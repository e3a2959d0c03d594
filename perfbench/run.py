#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload gph_sumeuler --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is built from the sources
in the checkout into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then run once. Its standard output is passed
through; the last line is one JSON object with the keys correct,
attempted, failed and metrics. Records of each run (host, every metric's
median, quartiles and sample count) and, for traced runs, the spans land
in the build directory's results/ folder.

Exit status is the benchmark's: 0 when every value matched its oracle.
A failed build or a run past its time limit exits 1 without a result.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gph_sumeuler", "eden_apsp", "serve_small")
RUN_TIMEOUT_S = 170


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure.append("-DCMAKE_BUILD_TYPE=RelWithDebInfo")
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-sha1-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    exe = build(build_dir)
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out-dir", out_dir, "--commit", source_id()]
    sys.stdout.flush()
    # A session of its own, so that whatever happens to the run, every
    # worker process it forked is stopped with it.
    p = subprocess.Popen(cmd, start_new_session=True)
    try:
        return p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the session is already empty
        p.wait()


if __name__ == "__main__":
    sys.exit(main())
