"""One workload in its own process: set-up, a timed closed loop, checks.

Usage: python3 perfbench/worker.py --workload NAME --inputs DIR --seconds S --trace 0|1

Reads the inputs that ``run.py`` generated into DIR and prints one JSON
object as its last line of output.  The loop is single-threaded with one
caller: a job starts when the previous one ends.  It runs whole rounds of the
manifest's job list until at least S seconds of job time and at least
MIN_JOBS jobs are done, so every run has the same mix of jobs.  The set-up is
timed in SETUP_SLOTS slots spread over the run, before the rounds that start
at 0, 1/3 and 2/3 of S, so its median does not rest on one stretch of the
machine's speed; the rounds after a slot use the state it built.  Peak RSS
is read before the checks import numpy and scipy.

Times are calibrated.  On the 2-core reference machine the speed moves by
up to 70% for stretches of several seconds (a fixed loop runs at 1.0 s, then
at 1.7 s), which no affordable run length averages away.  A fixed calibration
loop of pure-Python work runs between consecutive jobs and around every
set-up; each interval is scaled by CALIBRATION_NOMINAL_S over the mean of
the two calibration times that bracket it.  The figures are therefore
seconds at the speed at which the loop takes CALIBRATION_NOMINAL_S, which is
about the reference machine's fast state.  The loop uses nothing from the package, so
a change to the program moves the job times and not the scale.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (needs the path set above)
import workloads  # noqa: E402

# At least this many jobs per run, so the 90th percentile has ten jobs beyond it.
MIN_JOBS = 100
# Each set-up slot repeats the set-up until the slot has taken this long, so
# that short set-ups are timed many times; the median over all is reported.
SETUP_SLOTS = 3
SETUP_SLOT_SECONDS = 0.3
CALIBRATION_NOMINAL_S = 0.001


def calibration() -> float:
    """The faster of two passes of a fixed loop of Fraction, dict and sort
    work, with the cyclic garbage collector held off so that it cannot land
    in one pass and not the next."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            acc = Fraction(0)
            table = {}
            for i in range(1, 400):
                acc += Fraction(i % 7 + 1, i % 5 + 3)
                table[i] = (i * 2654435761) % 1009
            sorted(table.values())
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def scale(before: float, after: float) -> float:
    """Calibration factor of an interval bracketed by two calibration times."""
    return CALIBRATION_NOMINAL_S / ((before + after) / 2)


def setup_slot(workload, recorder, raw: list, factors: list):
    """Repeat the set-up for SETUP_SLOT_SECONDS, appending each raw time and
    its calibration factor; return the state the last one built."""
    spent = 0.0
    while spent < SETUP_SLOT_SECONDS:
        state = None
        gc.collect()
        if recorder is not None:
            recorder.job_id = spans.SETUP - len(raw)
        before = calibration()
        t0 = time.perf_counter()
        state = workload.setup()
        raw.append(time.perf_counter() - t0)
        factors.append(scale(before, calibration()))
        spent += raw[-1]
    return state


class Run:
    """Raw times and calibration factors of the set-ups and jobs of one run,
    the first round's outputs, the (round, job) pairs whose output differed
    from the first round's, the number of rounds and the last state."""

    def __init__(self):
        self.setup_raw, self.setup_factors = [], []
        self.raw, self.factors = [], []
        self.first, self.mismatched = [], set()
        self.rounds = 0
        self.state = None


def timed_run(workload, jobs, seconds, recorder) -> Run:
    run = Run()
    slots = 0
    while True:
        if slots < SETUP_SLOTS and sum(run.raw) >= slots * seconds / SETUP_SLOTS:
            run.state = None  # let the old state go before building the next
            run.state = setup_slot(workload, recorder, run.setup_raw, run.setup_factors)
            slots += 1
        before = calibration()
        for k, job in enumerate(jobs):
            if recorder is not None:
                recorder.job_id = len(run.raw)
            t0 = time.perf_counter()
            output = workload.run(run.state, job)
            run.raw.append(time.perf_counter() - t0)
            after = calibration()
            run.factors.append(scale(before, after))
            before = after
            if run.rounds == 0:
                run.first.append((output, workload.fingerprint(output)))
            elif workload.fingerprint(output) != run.first[k][1]:
                run.mismatched.add((run.rounds, k))
        run.rounds += 1
        if slots == SETUP_SLOTS and sum(run.raw) >= seconds and len(run.raw) >= MIN_JOBS:
            return run


def end_to_end_metrics(setup_times, times, peak_rss_mb) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "job_p50_s": {"value": statistics.median(times), "unit": "s"},
        "job_p90_s": {"value": statistics.quantiles(times, n=10)[8], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    manifest = json.loads((args.inputs / "manifest.json").read_text())
    jobs = manifest["jobs"]
    workload = workloads.WORKLOADS[args.workload](args.inputs, manifest)

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        recorder.install()
        for name in recorder.missing:
            print(f"trace: {name} does not exist; its metrics are left out", file=sys.stderr)

    run = timed_run(workload, jobs, args.seconds, recorder)
    state, first, rounds = run.state, run.first, run.rounds
    if "numpy" in sys.modules or "scipy" in sys.modules:
        raise RuntimeError("numpy or scipy imported before peak RSS was read")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.uninstall()

    import checks

    check, corrupt = checks.CHECKS[args.workload]
    failed_jobs = set()
    for k, (job, (output, _)) in enumerate(zip(jobs, first)):
        problems = check(args.inputs, manifest, state, job, output)
        if problems:
            failed_jobs.add(k)
            print(f"check failed: {job['kind']} #{k}: {'; '.join(problems)}", file=sys.stderr)
    failed = rounds * len(failed_jobs) + sum(1 for _, k in run.mismatched if k not in failed_jobs)
    for r, k in sorted(run.mismatched):
        print(f"round {r} job #{k} differs from round 0", file=sys.stderr)

    # Self-test: the first job of each kind, corrupted, must be rejected.
    selftest_ok = True
    seen = set()
    for k, (job, (output, _)) in enumerate(zip(jobs, first)):
        if job["kind"] in seen or k in failed_jobs:
            continue
        seen.add(job["kind"])
        for what, bad in corrupt(args.inputs, manifest, state, job, output):
            if not check(args.inputs, manifest, state, job, bad):
                selftest_ok = False
                print(f"self-test: {what} on {job['kind']} was not rejected", file=sys.stderr)

    times = [t * f for t, f in zip(run.raw, run.factors)]
    setup_times = [t * f for t, f in zip(run.setup_raw, run.setup_factors)]
    result = {"correct": selftest_ok, "attempted": len(times), "failed": failed}
    end_to_end = end_to_end_metrics(setup_times, times, peak_rss_mb)
    if recorder is None:
        result["metrics"] = end_to_end
    else:
        result["metrics"] = recorder.layer_metrics(run.factors, run.setup_factors)
        if args.trace_file is not None:
            recorder.write(args.trace_file, {
                "workload": args.workload, "seed": manifest["seed"], "jobs": len(times),
                "rounds": rounds, "setups": len(setup_times), "end_to_end": end_to_end,
                "job_scale": run.factors, "setup_scale": run.setup_factors,
            })
    # Uncalibrated figures and the job mix, for the table that run.py prints.
    result["raw"] = end_to_end_metrics(run.setup_raw, run.raw, peak_rss_mb)
    kinds: dict = {}
    for k, t in enumerate(times):
        entry = kinds.setdefault(jobs[k % len(jobs)]["kind"], [0, 0.0])
        entry[0] += 1
        entry[1] += t
    result["kinds"] = kinds
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
