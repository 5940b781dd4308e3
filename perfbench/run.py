"""Benchmark entry point.

    python3 perfbench/run.py [--workload solve|torus|decompose|converge]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  For each workload (all four, one after
another, when --workload is not given) it generates the seeded inputs
(untimed) and starts ``worker.py`` in a process of its own, which sets the
program up, runs the timed closed loop and checks the outputs.  It prints
each metric by name and unit, the operations attempted and failed, and as
its last line the JSON result: of the one workload, or with --workload
omitted, ``{"workloads": {name: result, ...}}``.

With --trace 1 the run reports the per-layer metrics instead of the
end-to-end ones, and writes its spans to perfbench/out/trace-<workload>.bin.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("solve", "torus", "decompose", "converge")
WORKER_TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    sys.path.insert(0, str(HERE))
    import inputs

    work = OUT / f"inputs-{name}-{seed}-{os.getpid()}"
    try:
        inputs.generate(name, seed, work)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--inputs", str(work), "--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            cmd += ["--trace-file", str(OUT / f"trace-{name}.bin")]
        # A fixed hash seed keeps set iteration order, and with it the
        # program's work, the same in every run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def show(name: str, result: dict, raw: dict, kinds: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']:.6g} {entry['unit']}")
    print("  uncalibrated: " + ", ".join(
        f"{metric} {entry['value']:.6g} {entry['unit']}" for metric, entry in raw.items()))
    jobs = sum(n for n, _ in kinds.values())
    seconds = sum(s for _, s in kinds.values())
    print("  job mix (share of jobs / of job time): " + ", ".join(
        f"{kind} {n / jobs:.0%}/{s / seconds:.0%}" for kind, (n, s) in sorted(kinds.items())))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bottleneck_ot" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        show(name, results[name], results[name].pop("raw"), results[name].pop("kinds"))
    print(json.dumps(results[args.workload] if args.workload else {"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
