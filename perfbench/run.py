#!/usr/bin/env python3
"""Run one workload of the surro benchmark.

    python3 perfbench/run.py --workload wire_small --seed 1 --seconds 25 --trace 0

Run from the root of a surro checkout. The first run configures and builds
perfbench/ (and the library and worker CLI it drives) into .bench_build;
later runs only re-check the build. Human-readable lines go to stdout first;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (see perfbench/NOTES.md).

Exit status: 0 when the run finished and every check passed; 1 when a
returned table's bytes or the pinned digest did not match; 2 when the
benchmark could not build or run.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

BUILD_DIR = pathlib.Path(".bench_build")
RUN_TIMEOUT_S = 170
PINS = pathlib.Path(__file__).resolve().parent / "pins.json"
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build():
    """Configure once, then bring the benchmark binary up to date."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "perfbench", "-j", "4"], check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def stop_strays(out_dir):
    """Kill worker processes a killed run left behind (they run in their
    own process groups, with the run's scratch directory on their command
    line)."""
    markers = {str(out_dir).encode(), str(out_dir.resolve()).encode()}
    for proc in pathlib.Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            cmdline = (proc / "cmdline").read_bytes()
            if any(m in cmdline for m in markers):
                os.kill(int(proc.name), signal.SIGKILL)
        except (OSError, ValueError):
            continue


def pinned_digest(workload, seed, simd):
    pins = json.loads(PINS.read_text())
    if seed != pins["seed"]:
        return None
    return pins["digests"].get(simd, {}).get(workload)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (pathlib.Path("CMakeLists.txt").is_file()
            and pathlib.Path("src/serve/sample_service.hpp").is_file()):
        return fail("run from the root of a surro checkout (no sources here)")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        return fail(f"build failed: {e}")

    out_dir = BUILD_DIR / "perfbench-out" / args.workload
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        stop_strays(out_dir)
        return fail(f"run exceeded {RUN_TIMEOUT_S}s")

    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        stop_strays(out_dir)
        return fail(f"benchmark exited with status {proc.returncode}")
    raw = json.loads(lines[-1])
    result = {key: raw[key] for key in RESULT_KEYS}

    expected = None if args.trace else pinned_digest(args.workload,
                                                     args.seed, raw["simd"])
    if expected is not None and expected != raw["folded_digest"]:
        print(f"pinned digest mismatch: {raw['folded_digest']} != "
              f"{expected} ({raw['simd']}, seed {args.seed})")
        result["correct"] = False
    else:
        pin = ("not checked in a traced run" if args.trace else
               "matched" if expected else "not pinned for this seed")
        print(f"folded digest {raw['folded_digest']} ({raw['simd']}); "
              f"pin {pin}")
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
