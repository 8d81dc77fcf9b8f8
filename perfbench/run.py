#!/usr/bin/env python3
"""Builds perfbench from the checkout it sits in, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench at the checkout root (configured on
first use, incremental afterwards) and its log to stderr, so stdout carries
only the benchmark's own output; its last line is the JSON result. The exit
status is the benchmark's. --selftest also checks that the metric tables
compiled into the binary match BENCHMARK.json.
"""
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no system sources at {ROOT / 'src'}", file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def run(args, capture=False):
    try:
        return subprocess.run([str(BINARY), *args], timeout=RUN_TIMEOUT_S,
                              check=False, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None


def selftest():
    done = run(["--selftest"], capture=True)
    if done is None:
        return 1
    sys.stdout.write(done.stdout)
    tables = {"end_to_end": [], "per_layer": []}
    for line in done.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in tables:
            name, unit = rest.split()
            tables[kind].append((name, unit))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = done.returncode == 0
    for kind, rows in tables.items():
        listed = [(m["name"], m["unit"]) for m in spec[kind]]
        match = listed == rows
        ok = ok and match
        print(f"{'ok  ' if match else 'FAIL'} BENCHMARK.json {kind} matches "
              f"the binary's table ({len(rows)} metrics)")
    print(f"run.py selftest: {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # child (cmake or the benchmark) before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not build():
        return 2
    sys.stdout.flush()
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    done = run(sys.argv[1:])
    return 1 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main())
