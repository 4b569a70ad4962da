#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-jobs --seed 1 --seconds 36 --trace 0

builds the Go program in perfbench/ against the checkout's sources and runs
it; the last line of standard output is the JSON result. Everything the
build and the run write stays under .bench_build/ in the checkout.

    python3 perfbench/run.py --noise 10 --workload small-jobs --seconds 36

runs the benchmark ten times on consecutive seeds and prints, for every
metric by name, the min, quartiles and max of its values and the spread
(interquartile range over median) against the metric's bound in
BENCHMARK.json, so a noise verdict names the metric that flapped.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def go_env(out):
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTMPDIR=str(out / "tmp"),
        GOCACHE=str(out / "gocache"),
        GOMODCACHE=str(out / "gomodcache"),
        GOPATH=str(out / "gopath"),
        XDG_CONFIG_HOME=str(out / "xdg"),
        GOENV="off",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    return env


def build(out):
    exe = out / "perfbench" / "perfbench"
    exe.parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", str(exe), "."],
        cwd=BENCH, env=go_env(out), stdout=sys.stderr, stderr=sys.stderr,
    )
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return exe


def run_once(exe, out, args, capture):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(out / "perfbench")]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT, timeout=170).returncode, None
    proc = subprocess.run(cmd, cwd=ROOT, timeout=170, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    res = json.loads(lines[-1])
    for line in lines:
        if line.startswith('{"host"'):
            res["host"] = json.loads(line)["host"]
    return 0, res


def bounds():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def noise(exe, out, args):
    workloads = [args.workload]
    if args.workload == "all":
        cfg = json.loads((BENCH / "config.json").read_text())
        workloads = [w["name"] for w in cfg["workloads"]]
    limits = bounds()
    first = args.seed
    for wl in workloads:
        values = {}
        for i in range(args.noise):
            args.workload, args.seed = wl, first + i
            code, res = run_once(exe, out, args, capture=True)
            if res is None:
                sys.exit(f"perfbench: {wl} seed {args.seed} failed (exit {code})")
            ok = "correct" if res["correct"] else "INCORRECT"
            print(f"# {wl} seed={args.seed} {ok} attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            values.setdefault("host.calib_ms", []).append(res["host"]["calib_ms"])
        print(f"\n{wl}: {args.noise} runs, seeds {first}..{first + args.noise - 1}")
        print(f"{'metric':28} {'min':>12} {'q1':>12} {'median':>12} {'q3':>12} {'max':>12} {'spread':>8} {'bound':>6}")
        for name in sorted(values):
            xs = values[name]
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = limits.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  NOISY"
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of bound"
            print(f"{name:28} {min(xs):12.6g} {q1:12.6g} {med:12.6g} {q3:12.6g} {max(xs):12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
        print(flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="workload name, or 'all' with --noise")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--noise", type=int, default=0, metavar="RUNS",
                    help="run RUNS times on consecutive seeds and print the per-metric noise report")
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    if args.noise:
        noise(exe, out, args)
        return 0
    code, _ = run_once(exe, out, args, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
