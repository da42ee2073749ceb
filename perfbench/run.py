#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first form builds the benchmark
(perfbench/bench.exe) and the server it drives (bin/approx_cli.exe) with
dune, then runs one workload; the last line of standard output is the
JSON record. The second form is the smoke-size self-test: every workload
runs, every metric named in BENCHMARK.json is printed, and a forged reply
value and a widened envelope must each fail the correctness check.

Exit status: the benchmark's own (0 correct, 1 a correctness check
failed), 2 when the build or the run could not complete.
"""

import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ["./perfbench/bench.exe", "./bin/approx_cli.exe"]
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", os.path.join("bin", "approx_cli.ml"),
                 os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("%s not found: run from the root of a full checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune not found on PATH")
    except subprocess.TimeoutExpired:
        die("build did not finish within %d s" % BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        die("build failed")


def run_bench(args, timeout=RUN_TIMEOUT_S):
    """Run bench.exe in its own process group; return (code, stdout)."""
    proc = subprocess.Popen([BENCH_EXE] + args, stdout=subprocess.PIPE,
                            start_new_session=True)

    def stop_group():
        # SIGTERM lets bench.exe stop its server children and remove its
        # scratch dir; SIGKILL whatever is left after 5 s.
        for sig, grace in ((signal.SIGTERM, 5), (signal.SIGKILL, None)):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                return
            try:
                proc.wait(timeout=grace)
                return
            except subprocess.TimeoutExpired:
                pass

    def on_signal(*_):
        stop_group()
        sys.exit(3)

    old = {s: signal.signal(s, on_signal)
           for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group()
        proc.communicate()
        die("benchmark did not finish within %d s" % timeout)
    finally:
        for s, h in old.items():
            signal.signal(s, h)
    return proc.returncode, out.decode(errors="replace")


def last_record(out):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        rec = json.loads(lines[-1])
    except ValueError:
        return None
    return rec if isinstance(rec, dict) else None


def selftest():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    problems = []

    def check(label, args, want_correct, names):
        code, out = run_bench(args)
        rec = last_record(out)
        if rec is None:
            problems.append("%s: no record (exit %d)" % (label, code))
            return
        if rec["correct"] != want_correct or code != (0 if want_correct else 1):
            problems.append("%s: correct=%s exit=%d, wanted correct=%s"
                            % (label, rec["correct"], code, want_correct))
        missing = [n for n in names if n not in rec["metrics"]]
        if missing:
            problems.append("%s: metrics missing: %s" % (label, missing))
        report = "\n".join(out.strip().splitlines()[:-1])
        unprinted = [n for n in names if n not in report]
        if unprinted:
            problems.append("%s: not in the report: %s" % (label, unprinted))
        print("selftest %-40s correct=%s failed=%d exit=%d"
              % (label, rec["correct"], rec["failed"], code), flush=True)

    for w in spec["workloads"]:
        base = ["--workload", w["name"], "--seed", "7", "--seconds", "2",
                "--smoke"]
        check(w["name"] + " trace 0", base + ["--trace", "0"], True, e2e)
        check(w["name"] + " trace 1", base + ["--trace", "1"], True, layers)
        check(w["name"] + " forged reply", base + ["--trace", "0", "--forge"],
              False, e2e)
        check(w["name"] + " widened envelope",
              base + ["--trace", "0", "--widen"], False, e2e)
    for p in problems:
        print("selftest FAILED: " + p, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--selftest"]:
        sys.exit(selftest())
    start = time.monotonic()
    code, out = run_bench(argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code in (0, 1) and last_record(out) is None:
        die("benchmark printed no record")
    if code not in (0, 1):
        die("benchmark failed (exit %d after %.1f s)"
            % (code, time.monotonic() - start))
    sys.exit(code)


if __name__ == "__main__":
    main()
