"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads dense ...] [--baseline FILE]

Run from the checkout root; ``--seeds 1`` runs every workload once.  The
runs are untraced.  Each run's metric lines (name, value, unit, sample
counts) are echoed.  With two or more seeds it then prints, per workload
and metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json; a
spread of a third of the bound or more is flagged.  ``--baseline`` writes
the per-workload medians, quartiles, set-up samples and failing jobs (by
name, with the number of runs each failed in), as in baseline.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    print("\n".join(proc.stdout.strip().splitlines()[:-1]), flush=True)
    record = json.loads((Path.cwd() / ".perfbench" / "results"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--baseline", default=None)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, baseline = {}, {}
    for w in args.workloads:
        runs[w] = []
        failed_in = Counter()
        for seed in args.seeds:
            res, record = run_once(w, seed, bench["run_seconds"])
            runs[w].append({"seed": seed, **res})
            failed_in.update(job["name"] for job in record["failed_jobs"])
            print(f"# {w} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
        if len(args.seeds) < 2:
            continue
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        print(f"\n{w}: {len(args.seeds)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"{failed} of {attempted} jobs failed ({failed / attempted:.6g})")
        baseline[w] = {"metrics": {}, "failed_jobs": dict(sorted(failed_in.items()))}
        for name in runs[w][0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs[w]]
            med, q1, q3, rel = spread(vals)
            baseline[w]["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                            "unit": runs[w][0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and rel >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"  {name:<44} median {med:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {rel:7.4f}" + (f"  bound {bound}" if bound is not None else "") + flag)
    if args.baseline and len(args.seeds) >= 2:
        meta = {k: record[k] for k in ("commit", "src_sha256", "python", "numpy", "nproc")}
        Path(args.baseline).write_text(json.dumps(
            {**meta, "seconds": bench["run_seconds"],
             "seeds": f"{args.seeds[0]}-{args.seeds[-1]}", "workloads": baseline},
            indent=1) + "\n")


if __name__ == "__main__":
    main()
