#!/usr/bin/env python3
"""Builds and runs the perfbench runner, then prints its result line.

    python3 perfbench/run.py --workload tpcds_cold --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
runner (CMake, RelWithDebInfo) under $CARGO_TARGET_DIR (default
.bench_build). Every metric is printed with its unit and base; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. A wrong result still prints that line
(with "correct": false) and then exits non-zero. --out DIR keeps the full
result (sample counts, bases, simulated metrics, nproc, build type,
compiler) as a JSON file in DIR for perfbench/compare.py.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tpcds_cold", "dashboard_warm", "ingest_mixed", "tenant_replay")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the runner; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found at {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory to keep the full result in")
    ap.add_argument("--selftest", action="store_true",
                    help="check the benchmark's own helpers and exit")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}", 1)
    if args.selftest:
        sys.exit(subprocess.run([str(binary), "--selftest"]).returncode)

    e2e_names, layer_names = metric_spec()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds * 2 + 120)
    except subprocess.TimeoutExpired:
        fail("runner timed out", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        fail(f"runner exited with {proc.returncode} and no result", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("runner printed no JSON result", 1)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = layer_names if args.trace else e2e_names
    emitted = result[section]
    missing = [n for n in wanted if n not in emitted]
    if missing:
        fail(f"runner did not report {', '.join(missing)}", 1)
    metrics = {}
    for name in wanted:
        value = float(emitted[name]["value"])
        if not math.isfinite(value):
            fail(f"{name} is not a finite number", 1)
        metrics[name] = {"value": value, "unit": emitted[name]["unit"]}

    info = result["info"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={info['nproc']} build={info['build_type']} "
          f"compiler={info['compiler']} rounds={result['rounds']}")
    for sec in ("end_to_end", "extra_end_to_end", "per_layer"):
        for name, m in sorted(result[sec].items()):
            kind = "deterministic" if m["deterministic"] else "measured"
            print(f"{sec:16s} {name:44s} {float(m['value']):>16.6g} "
                  f"{m['unit']:<12s} {kind:13s} {m['base']}")
    for err in result["errors"]:
        print(f"error: {err}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S") + f"{time.time_ns() % 10**9:09d}"
        path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")

    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 3)


if __name__ == "__main__":
    main()
