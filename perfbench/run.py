"""curvecover benchmark: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
The program under test is ``curvecover.cli.main(argv)`` called in-process
on curve files, plus the README's library calls: one process, one client,
closed loop, main thread only, BLAS and OpenMP pinned to one thread.

Workloads (see workloads.py):
  dense       65k- and 262k-vertex curves re-read by many jobs: file
              parsing and build_curve dominate
  search-4k   the default 4,096-vertex corpus: the best-shift search, the
              1,024-shift sweep and point queries dominate
  many-small  coarse polylines, a fresh one per job group: fixed per-call
              costs (argparse, rendering, the 4,096-point min-chord grid,
              scalar golden-section loops) dominate

Every job's output is re-checked independently (checks.py).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the same jobs untraced
and then traced, checks that their outputs are byte-identical, and prints
the per-layer metrics listed in BENCHMARK.json.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A full
record (seed, commit, versions, nproc, failed jobs, per-function trace
totals, and every time as measured) is written to .perfbench/results/ in
the checkout.

Times at reference speed.  The machine these runs share drifts in speed
by 20-40 % over tens of seconds, which swamps a change of a few percent.
So every end-to-end time is reported at one reference speed: a job's
measured time is multiplied by REF_KERNEL_S over the median time of the
reference kernel (worker.ReferenceKernel, which runs no curvecover code)
in the KERNEL_WINDOW samples taken around that job (preempted samples
left out), and set-up time by REF_KERNEL_S over the median of the
samples taken right after set-up.
A program change does not touch the kernel, so it moves these times as
it moves the measured ones; the measured values are in the record.
"""

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import KNOWN_DEFECT, Checker  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REF_KERNEL_S = 0.004    # reference-kernel time at the reference speed (a unit only)
KERNEL_WINDOW = 4       # kernel samples around a job that give its speed
SPIKE_RATIO = 1.5       # kernel samples slower than this times the run's median are dropped
SETUP_RUNS = 3          # set-ups per end-to-end run; setup_s is their median
TIME_LIMIT_S = 170.0    # the whole run, set-ups included
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(Exception):
    pass


def metric_units(kind):
    """Metric name -> unit, for kind "end_to_end" or "per_layer" of BENCHMARK.json."""
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _worker(root, workdir, args, deadline, *extra):
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in PINNED_THREADS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(root / "src"),
           "--workdir", str(workdir), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time limit reached before the worker started")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def provenance(root):
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == root:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    h = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        h.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest(), "nproc": os.cpu_count()}


def check_records(checker, records):
    """Violated properties per record, and the failures other than the known defect."""
    fails = [checker.check(rec) for rec in records]
    unknown = [(rec["name"], f) for rec, f in zip(records, fails)
               if f and not set(f) <= KNOWN_DEFECT]
    return fails, unknown


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed_scales(kernel_s, records):
    """Per job, REF_KERNEL_S over the median kernel time of the samples around it.

    Samples above SPIKE_RATIO times the median of the run's samples are left
    out: there another process preempted the kernel, which a 4 ms kernel
    feels and a job of a second does not.  Such samples come one at a time;
    two in the window around a long job skewed its time by a third.
    """
    cap = SPIKE_RATIO * statistics.median(d for _, d in kernel_s)
    kept = [(t, d) for t, d in kernel_s if d <= cap]
    at = [t for t, _ in kept]
    durations = [d for _, d in kept]
    scales = []
    for rec in records:
        i = bisect.bisect(at, rec["t"] + rec["s"] / 2)
        lo = max(0, min(i - KERNEL_WINDOW // 2, len(durations) - KERNEL_WINDOW))
        scales.append(REF_KERNEL_S / statistics.median(durations[lo:lo + KERNEL_WINDOW]))
    return scales


def end_to_end(timed, fails, setups, peak_rss_mb):
    """End-to-end metrics at reference speed, and the same metrics as measured."""
    measured = [rec["s"] for rec in timed["records"]]
    times = [s * k for s, k in zip(measured, speed_scales(timed["kernel_s"], timed["records"]))]
    wall = timed["wall_s"] * sum(times) / sum(measured)
    setup = [s * REF_KERNEL_S / statistics.median(k) for s, k in setups]
    n = len(times)
    failed = sum(bool(f) for f in fails)
    p90 = _quantile(times, 90) * 1e3
    metrics = {
        "jobs_per_s": n / wall,
        "job_p50_ms": statistics.median(times) * 1e3,
        "job_p90_ms": p90,
        "job_ok_frac": 1.0 - failed / n,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    as_measured = dict(metrics, jobs_per_s=n / timed["wall_s"],
                       job_p50_ms=statistics.median(measured) * 1e3,
                       job_p90_ms=_quantile(measured, 90) * 1e3,
                       setup_s=statistics.median(s for s, _ in setups))
    notes = {
        "jobs_per_s": f"{n} jobs in {timed['wall_s']:.3f} s, {timed['blocks']} blocks",
        "job_p50_ms": f"n={n}",
        "job_p90_ms": f"n={n}, {sum(t * 1e3 > p90 for t in times)} beyond",
        "job_ok_frac": f"failed_frac={failed / n:.6g} ({failed}/{n} jobs)",
        "peak_rss_mb": "worker process ru_maxrss",
        "setup_s": f"median of {len(setup)}: " + ", ".join(f"{s:.4f}" for s in setup),
    }
    for name in ("jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s"):
        notes[name] += f"; {as_measured[name]:.6g} as measured"
    return metrics, notes, as_measured


def run(args, root, work):
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not args.trace:
        for i in range(SETUP_RUNS - 1):
            out = _worker(root, work / f"setup{i}", args, deadline, "--setup-only")
            setup = json.loads(out.strip().splitlines()[-1])
            setups.append((setup["setup_s"], setup["kernel_s"]))
            shutil.rmtree(work / f"setup{i}")
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _worker(root, work / "run", args, deadline,
            "--seconds", repr(args.seconds), "--trace", str(args.trace))
    if args.trace:
        shutil.move(work / "run" / "spans.jsonl", results_dir / f"{tag}.spans.jsonl")
    with open(work / "run" / "worker.json") as fh:
        wres = json.load(fh)
    setups.append((wres["setup_s"], wres["kernel_s"]))

    checker = Checker(work / "run")
    passes = wres["passes"]
    for p in passes.values():
        with open(work / "run" / p["records"]) as fh:
            p["records"] = [json.loads(line) for line in fh]
    timed = passes["traced" if args.trace else "timed"]
    first = passes["untraced"] if args.trace else timed
    fails, unknown = check_records(checker, first["records"])
    mismatched = []
    if args.trace:
        for a, b in zip(first["records"], timed["records"]):
            if (a["exit"], a["error"]) != (b["exit"], b["error"]) or \
                    _digest(work / "run" / a["out"]) != _digest(work / "run" / b["out"]):
                mismatched.append(a["name"])
        if len(first["records"]) != len(timed["records"]):
            mismatched.append("<job count>")
    if wres["threads"] != 1:
        unknown.append(("<worker>", [f"{wres['threads']} threads"]))

    if args.trace:
        units = metric_units("per_layer")
        overhead = timed["wall_s"] / first["wall_s"] - 1.0
        metrics = layer_metrics(units, wres["layers"], overhead)
        notes, as_measured = {}, None
    else:
        metrics, notes, as_measured = end_to_end(timed, fails, setups, wres["peak_rss_mb"])
        units = metric_units("end_to_end")

    failed = {}
    for rec, f in zip(first["records"], fails):
        if f:
            failed.setdefault(rec["name"], {"name": rec["name"], "count": 0, "checks": f})
            failed[rec["name"]]["count"] += 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **provenance(root), "python": wres["python"],
        "numpy": wres["numpy"], "threads_pinned": PINNED_THREADS,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failed_jobs": sorted(failed.values(), key=lambda e: e["name"]),
        "unexpected_failures": unknown, "trace_mismatches": mismatched,
        "as_measured": as_measured, "setup_samples": setups,
        "jobs": [[rec["name"], rec["s"], bool(f), rec["t"]]
                 for rec, f in zip(timed["records"], fails)],
        "kernel_s": timed["kernel_s"],
        "functions": wres.get("layers"),
    }
    with open(results_dir / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"commit={record['commit']} src_sha256={record['src_sha256'][:12]} "
          f"python={record['python']} numpy={record['numpy']} nproc={record['nproc']}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:>10}  {name:<44} {value:>16.6f} {units[name]}{note}")
    for entry in record["failed_jobs"]:
        print(f"# failed x{entry['count']}: {entry['name']}  {entry['checks']}")
    for name, f in unknown:
        print(f"# UNEXPECTED: {name}  {f}")
    for name in mismatched:
        print(f"# TRACED OUTPUT DIFFERS: {name}")
    return {"correct": not unknown and not mismatched, "attempted": len(timed["records"]),
            "failed": sum(bool(f) for f in fails),
            "metrics": record["metrics"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "curvecover" / "__init__.py").is_file():
        print(f"error: {root} holds no src/curvecover; run from a source checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, root, work)
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
