#!/usr/bin/env python3
"""Wall-clock GEMM benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload gemm_mixed --seed 1 --seconds 10 --trace 0

Builds the gemmtune libraries and the perfbench binary from source into
.bench_build/perfbench (Release), fills the per-workload JIT caches with an
untimed prepare pass whenever the binary differs from the one that last
filled them (a codegen or kernelir change gives kernels new cache keys),
then runs one workload. The last line of stdout is the benchmark's JSON
result. Pinned settings: the library's GEMMTUNE_* environment overrides
are removed, so the binary picks the backend, thread count and caches
itself; compiler temporaries stay in the build directory.

    python3 perfbench/run.py --self-test

runs the benchmark's own tests: request-stream determinism, the corrupted-C
check, and that every workload prints exactly the metrics BENCHMARK.json
names.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("gemm_mixed", "verify_large")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEMMTUNE_")}
    tmp = os.path.abspath(os.path.join(BUILD, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def run_logged(cmd, logfile, timeout):
    with open(logfile, "ab") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              timeout=timeout, env=child_env()).returncode


def build():
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, logfile, 900) != 0:
            with open(logfile, errors="replace") as f:
                sys.stderr.write(f.read()[-4000:])
            log("build failed: " + " ".join(cmd))
            if not os.path.exists(os.path.join(BUILD, "perfbench")):
                shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit(2)
    with open(BINARY, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    # Written after a complete prepare pass, which starts by removing jit/.
    marker = os.path.join(BUILD, "jit", "binary.sha256")
    prepared = None
    if os.path.exists(marker):
        with open(marker) as f:
            prepared = f.read().strip()
    if prepared != digest:
        log("preparing JIT caches (cold compiles, untimed)")
        if run_logged([BINARY, "--prepare", "--root", BUILD], logfile,
                      840) != 0:
            log("prepare failed; see " + logfile)
            sys.exit(2)
        with open(marker, "w") as f:
            f.write(digest + "\n")


def run_binary(args, timeout=RUN_TIMEOUT_S):
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            env=child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("timed out after %d s" % timeout)
        sys.exit(2)
    return proc.returncode, out


def self_test():
    failed = 0
    code, out = run_binary(["--self-test"])
    sys.stdout.write(out)
    failed += code != 0
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {"0": [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            "1": [(m["name"], m["unit"]) for m in bench["per_layer"]]}
    code, out = run_binary(["--list-metrics"])
    listed = {"0": [], "1": []}
    for line in out.splitlines():
        kind, name, unit = line.split()
        listed["0" if kind == "end_to_end" else "1"].append((name, unit))
    ok = listed == want
    print(("ok   " if ok else "FAIL ") + "metric lists match BENCHMARK.json")
    failed += not ok
    names = [w["name"] for w in bench["workloads"]]
    ok = sorted(names) == sorted(WORKLOADS)
    print(("ok   " if ok else "FAIL ") + "workloads match BENCHMARK.json")
    failed += not ok
    for w in names:
        for trace in ("0", "1"):
            code, out = run_binary(["--workload", w, "--seed", "5",
                                    "--seconds", "1", "--trace", trace,
                                    "--root", BUILD])
            lines = out.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            printed = [(k, v["unit"]) for k, v in res.get("metrics", {}).items()]
            ok = (code == 0 and res.get("correct") is True
                  and res.get("failed") == 0
                  and sorted(printed) == sorted(want[trace]))
            print(("ok   " if ok else "FAIL ")
                  + "%s --trace %s prints the BENCHMARK.json metrics" % (w, trace))
            failed += not ok
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        return self_test()
    if a.workload is None:
        p.error("--workload is required")
    code, out = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", repr(a.seconds), "--trace",
                            str(a.trace), "--root", BUILD])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
