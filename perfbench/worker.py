"""Run one workload in this (fresh) process; started by run.py.

Set-up is timed from the first statement of this file: it covers the
import of curvecover, building the seeded job list and writing the
workload's input files with ``generate`` and ``save_curve``.  After one
warm-up job the worker runs whole blocks of jobs, closed loop on the main
thread, until the time is up, streaming every job's record to a
``.jsonl`` file in the run directory.  Output checks happen afterwards in
run.py, so they neither take time from the jobs nor add to this
process's peak resident set.

With ``--trace 1`` the worker runs the blocks untraced for half the time,
then installs the tracer, writes the inputs again and runs the same
blocks traced, so the two passes can be compared job by job.  The spans
go to ``spans.jsonl`` in the run directory.

Machine speed.  The machine is shared, and its speed drifts by 20-40 %
over tens of seconds.  So that run.py can report times at one reference
speed, the worker runs a fixed reference kernel (``ReferenceKernel``, no
curvecover code) right after set-up and then at least every
``CAL_EVERY_S`` seconds between jobs, and records its time beside the
jobs.  Kernel time is kept out of job times and pass wall times.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import workloads  # noqa: E402

CAL_EVERY_S = 0.2  # longest gap between two reference-kernel samples in a pass


def write_inputs(cc, specs):
    os.makedirs("inputs", exist_ok=True)
    for spec in specs:
        curve = cc.generate(cc.CurveSpec(spec["kind"], dict(spec["params"]),
                                         spec["resolution"], spec["dim"],
                                         spec["normalize"]))
        cc.save_curve(curve, spec["path"])


def _library(cc, job):
    if job["kind"] == "crosscheck":
        curve = cc.load_curve(job["curve"], normalize=True)
        return {"exact": cc.average_chord(curve, job["s"]),
                "sampled": cc.average_chord(curve, job["s"], cc.QuadratureConfig("sampled"))}
    # README library example
    circle = cc.generate(cc.CurveSpec("circle"))
    cover = cc.optimized_partition(circle, k=job["k"])
    m = cc.cover_metrics(circle, cover)
    s_k, bound = cc.solve_sk(job["k"])
    return {"pieces": [{"t_start": a.t_start, "length_frac": a.length_frac,
                        "piece_length": float(length)}
                       for a, length in zip(cover.pieces, cover.piece_lengths)],
            "beta": m.beta, "gamma": m.gamma, "s_k": s_k, "bound": bound}


def run_job(cc, job):
    """Run one job; only the call into curvecover is timed."""
    out, err = io.StringIO(), io.StringIO()
    code = error = payload = None
    t = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job["kind"] == "cli":
                code = cc.cli.main(job["argv"])
            else:
                payload = _library(cc, job)
    except SystemExit as e:  # argparse rejects the argv
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a job that raises is a failed job, not a failed run
        error = f"{type(e).__name__}: {e}"
    seconds = perf_counter() - t
    if payload is not None:
        with open(job["out"], "w") as fh:
            json.dump(payload, fh, sort_keys=True)
    elif job.get("stdout"):
        with open(job["out"], "w") as fh:
            fh.write(out.getvalue())
    return {"name": job["name"], "kind": job["kind"], "s": seconds, "exit": code,
            "error": error, "out": job["out"], "check": job["check"]}


class ReferenceKernel:
    """Fixed work that runs no curvecover code: float formatting and
    parsing, a JSON parse and numpy vector work, as the jobs do."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        self.np, self.vec = np, rng.random(32768)
        self.doc = json.dumps(rng.random((1024, 2)).tolist())

    def __call__(self):
        np, vec = self.np, self.vec
        t = perf_counter()
        x = 0.0
        for i in range(3000):
            x += float(repr(i * 0.37))
        json.loads(self.doc)
        c = np.cumsum(np.sqrt(vec * vec + 1.0))
        np.searchsorted(c, c[::7])
        np.sort(vec)
        return perf_counter() - t


def run_pass(cc, args, inputs, pass_dir, kernel, seconds=None, blocks=None, tracer=None):
    """Whole blocks until ``seconds`` have passed, or exactly ``blocks`` blocks.

    Records are streamed to ``<pass_dir>.jsonl`` so that the worker's
    memory does not grow with the number of jobs.  Each record holds the
    job's start ``t`` in seconds since the pass began; ``kernel_s`` lists
    [time since the pass began, kernel seconds] for every kernel sample.
    """
    os.makedirs(pass_dir)
    jobs = b = 0
    samples = []
    with open(f"{pass_dir}.jsonl", "w") as log:
        t0 = last = perf_counter()
        samples.append([0.0, kernel()])
        while (b < blocks) if blocks is not None else (b == 0 or perf_counter() - t0 < seconds):
            for job in workloads.block(args.workload, args.seed, b, inputs, pass_dir):
                if tracer is not None:
                    tracer.job = jobs
                if perf_counter() - last >= CAL_EVERY_S:
                    last = perf_counter()
                    samples.append([last - t0, kernel()])
                start = perf_counter() - t0
                rec = run_job(cc, job)
                rec["block"], rec["t"] = b, start
                log.write(json.dumps(rec) + "\n")
                jobs += 1
            b += 1
        wall = perf_counter() - t0 - sum(s for _, s in samples)
        samples.append([perf_counter() - t0, kernel()])
    return {"wall_s": wall, "blocks": b, "jobs": jobs, "records": f"{pass_dir}.jsonl",
            "kernel_s": samples}


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, args.src)
    import curvecover as cc
    import curvecover.cli  # noqa: F401  (the console-script entry point)
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    inputs = workloads.inputs(args.workload, args.seed)
    warmup_job = workloads.block(args.workload, args.seed, 0, inputs, "warmup")[0]
    write_inputs(cc, inputs)
    setup_s = perf_counter() - T0
    kernel = ReferenceKernel()
    setup = {"setup_s": setup_s, "kernel_s": [kernel() for _ in range(7)]}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import numpy
    result = {**setup, "python": platform.python_version(), "numpy": numpy.__version__}
    os.makedirs("warmup")
    result["warmup"] = run_job(cc, warmup_job)
    if args.trace:
        from tracer import Tracer, summarize
        untraced = run_pass(cc, args, inputs, "untraced", kernel, seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.job = "setup"
            write_inputs(cc, inputs)
            traced = run_pass(cc, args, inputs, "traced", kernel, blocks=untraced["blocks"],
                              tracer=tracer)
        finally:
            tracer.uninstall()
        result["passes"] = {"untraced": untraced, "traced": traced}
        result["layers"] = summarize(tracer.spans)
        with open("spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        result["passes"] = {"timed": run_pass(cc, args, inputs, "timed", kernel,
                                              seconds=args.seconds)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["threads"] = threading.active_count()
    with open("worker.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
