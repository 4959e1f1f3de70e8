"""Seeded job lists for the three benchmark workloads.

A workload is a set of input curve files, written once during set-up,
and an endless stream of blocks.  Every block of a workload has the same
composition (the same commands on the same size classes); the seed picks
k, s, curve parameters, random-curve seeds and the job order inside each
block.  Runs stop on a block boundary, so every run measures the same mix
of jobs whatever its length, which keeps medians and percentiles steady
across seeds.

This module only describes jobs; it imports nothing from curvecover.
A job is a plain dict:

  name   human-readable command, stable across runs of one seed
  kind   "cli" (argv for curvecover.cli.main), "crosscheck" or "readme-library"
  argv   for "cli" jobs
  out    output path, relative to the run directory (inputs/ for set-up
         files, the pass directory for everything a job writes)
  stdout true when the command writes its report to stdout (README form)
  check  what the independent checker verifies (see checks.py)
"""

import random

WORKLOADS = ("dense", "search-4k", "many-small")

MODES = ("uniform", "theorem2", "optimized")


def _rng(workload, seed, tag):
    # str seeds are hashed with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{tag}")


def _s_values(rng, lo, hi):
    return sorted(round(rng.uniform(0.02, 0.5), 3) for _ in range(rng.randint(lo, hi)))


# Every `verify` of a circle holds s = 1/2.  At the seed commit the
# min-chord search lands above the average chord there on the 4,096- and
# the 65,536-vertex circle (ROADMAP item 1), so each block fails the same
# jobs whatever the seed, and a run's failure fraction does not depend on
# the seed or on how many blocks fit in it.  Seeded s values alone would
# fail a circle `verify` in some blocks and not in others.
CIRCLE_S = 0.5


def _circle_s_values(rng, lo, hi):
    """``lo``..``hi`` values of s, one of them CIRCLE_S."""
    return sorted(set(_s_values(rng, lo - 1, hi - 1)) | {CIRCLE_S})


def _input(path, kind, params=None, resolution=4096, dim=None, normalize=True):
    return {"path": path, "kind": kind, "params": params or {},
            "resolution": resolution, "dim": dim, "normalize": normalize}


def _partition(curve, k, mode, out, rng, tol=1e-6):
    argv = ["partition", curve, "--k", str(k), "--mode", mode]
    if mode == "uniform":
        argv += ["--shift", repr(round(rng.random() / k, 6))]
    return {"name": " ".join(argv), "kind": "cli",
            "argv": argv + ["--render", "json", "--out", out], "out": out,
            "check": {"type": "partition", "curve": curve, "k": k,
                      "mode": mode, "tol": tol}}


def _verify(curve, s_values, out):
    argv = ["verify", curve, "--s"] + [repr(s) for s in s_values]
    return {"name": " ".join(argv), "kind": "cli",
            "argv": argv + ["--render", "json", "--out", out], "out": out,
            "check": {"type": "verify", "curve": curve, "s": s_values}}


def _sweep(curve, k, samples, out):
    argv = ["sweep", curve, "--k", str(k)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    return {"name": " ".join(argv), "kind": "cli",
            "argv": argv + ["--render", "json", "--out", out], "out": out,
            "check": {"type": "sweep", "curve": curve, "k": k,
                      "samples": samples or 1024, "tol": 1e-6}}


def _gen(kind, params, out, resolution=None, dim=None):
    argv = ["gen", "--kind", kind]
    if params:
        argv += ["--params"] + [f"{k}={v!r}" for k, v in params.items()]
    if resolution is not None:
        argv += ["--resolution", str(resolution)]
    if dim is not None:
        argv += ["--dim", str(dim)]
    if kind == "random_closed":
        n = params["n"]
    elif kind == "regular_polygon":
        n = params["m"]
    elif kind == "rectangle":
        n = 4
    else:
        n = resolution or 4096
    exp_dim = dim or (3 if kind == "lissajous3d" else 2)
    return {"name": " ".join(argv), "kind": "cli", "argv": argv + ["--out", out],
            "out": out, "check": {"type": "gen", "curve": out, "n": n,
                                  "dim": exp_dim}}


def _bounds(kmax, out):
    argv = ["bounds", "--kmax", str(kmax)]
    return {"name": " ".join(argv), "kind": "cli",
            "argv": argv + ["--render", "json", "--out", out], "out": out,
            "check": {"type": "bounds", "kmax": kmax}}


def _smooth_params(rng, kind):
    if kind == "ellipse":
        return {"a": round(rng.uniform(1.5, 4.0), 3), "b": 1.0}
    if kind == "lissajous3d":
        return {"freq_a": rng.randint(2, 4), "freq_b": rng.randint(3, 5)}
    return {}


# --------------------------------------------------------------------------
# dense: 65,536- and 262,144-vertex smooth curves, re-read by many jobs.
# Loading (JSON parse plus build_curve) is most of every job here.

D_MOST = 65536
D_FEW = 262144


def _dense_inputs(seed):
    rng = _rng("dense", seed, "inputs")
    return [
        _input("inputs/circle-65k.json", "circle", resolution=D_MOST),
        _input("inputs/ellipse-65k.json", "ellipse", _smooth_params(rng, "ellipse"),
               resolution=D_MOST, normalize=False),
        _input("inputs/lissajous-65k.json", "lissajous3d",
               _smooth_params(rng, "lissajous3d"), resolution=D_MOST),
        _input("inputs/circle-raw-65k.json", "circle", resolution=D_MOST, normalize=False),
        _input("inputs/ellipse-262k.json", "ellipse", _smooth_params(rng, "ellipse"),
               resolution=D_FEW),
    ]


def _dense_block(seed, b, inputs, prefix):
    # Job mix per block: 3 jobs on normalized 65k files, 5 on raw 65k files
    # (each parsed twice by the CLI) and 2 on the normalized 262k file.  The
    # median then falls inside the raw-file cluster and p90 inside the 262k
    # cluster instead of on a boundary between clusters.  File roles rotate
    # with the block index, so a few consecutive blocks read the same files
    # on every seed.  Modes rotate with the block index too: on the 262k
    # file a uniform cover costs about 20 % less than the other two, so a
    # seeded choice of modes there would move p90 from seed to seed.  The
    # `verify` reads the raw circle in every block (see CIRCLE_S).
    rng = _rng("dense", seed, b)
    out = lambda i: f"{prefix}-{i}.json"
    small = [f["path"] for f in inputs[:4]]
    normalized = [p for p, f in zip(small, inputs) if f["normalize"]]
    raw = [p for p, f in zip(small, inputs) if not f["normalize"]]
    big = inputs[4]["path"]
    modes = [MODES[(b + i) % 3] for i in range(5)]
    jobs = [_partition(curve, rng.randint(3, 12), mode, out(i), rng)
            for i, (curve, mode) in enumerate(zip(normalized + raw + [raw[b % 2]], modes))]
    jobs.append(_verify(raw[1], _circle_s_values(rng, 3, 5), out(len(jobs))))
    jobs.append(_sweep(raw[b % 2], rng.randint(2, 5), None, out(len(jobs))))
    kind = ("circle", "ellipse", "lissajous3d")[b % 3]
    jobs.append(_gen(kind, _smooth_params(rng, kind), out(len(jobs)), resolution=D_MOST))
    for mode in (MODES[b % 3], MODES[(b + 1) % 3]):
        jobs.append(_partition(big, rng.randint(3, 12), mode, out(len(jobs)), rng))
    rng.shuffle(jobs)
    return jobs


# --------------------------------------------------------------------------
# search-4k: the default 4,096-vertex corpus; the shift search, the sweep
# and point queries dominate, loading is cheap.

README_CIRCLE = "inputs/circle.json"


def _search_inputs(seed):
    rng = _rng("search-4k", seed, "inputs")
    return [
        _input(README_CIRCLE, "circle"),
        _input("inputs/ellipse.json", "ellipse", _smooth_params(rng, "ellipse")),
        _input("inputs/lissajous.json", "lissajous3d", _smooth_params(rng, "lissajous3d")),
    ] + [_input(f"inputs/random-d{d}.json", "random_closed",
                {"n": 4096, "seed": rng.getrandbits(31)}, dim=d) for d in (3, 4, 5)]


# k=50 on its own, so the largest shift search (and peak memory) is the same on every seed
BEST_K_STRATA = ((5, 12), (13, 21), (22, 30), (31, 40), (41, 49), (50, 50))
SWEEP_K_STRATA = ((3, 7), (8, 11), (12, 15), (16, 20))


def readme_verify(out):
    """The README's `verify` example, verbatim, report on stdout."""
    argv = ["verify", README_CIRCLE, "--s", "0.05", "0.25", "0.5"]
    return {"name": "readme: " + " ".join(argv), "kind": "cli", "argv": argv,
            "out": out, "stdout": True,
            "check": {"type": "verify", "curve": README_CIRCLE, "s": [0.05, 0.25, 0.5]}}


def readme_library(out):
    """The README's library example: optimized cover of the default circle, k=5."""
    return {"name": "readme: library optimized_partition(circle, k=5)",
            "kind": "readme-library", "k": 5, "out": out,
            "check": {"type": "readme-library", "k": 5, "tol": 1e-6}}


def _search_block(seed, b, inputs, prefix):
    # Files rotate over the k strata with the block index, so every few
    # blocks pair each stratum with each file whatever the seed.
    rng = _rng("search-4k", seed, b)
    out = lambda i: f"{prefix}-{i}.json"
    files = [f["path"] for f in inputs]
    jobs = []
    for i, (lo, hi) in enumerate(BEST_K_STRATA):
        jobs.append(_partition(files[(i + b) % len(files)], rng.randint(lo, hi), "best",
                               out(len(jobs)), rng))
    for i, (lo, hi) in enumerate(SWEEP_K_STRATA):
        jobs.append(_sweep(files[(i + b) % len(files)], rng.randint(lo, hi), 1024,
                           out(len(jobs))))
    for curve in files:
        s_values = (_circle_s_values if curve == README_CIRCLE else _s_values)(rng, 3, 5)
        jobs.append(_verify(curve, s_values, out(len(jobs))))
    jobs.append(readme_verify(out(len(jobs))))
    jobs.append(readme_library(out(len(jobs))))
    rng.shuffle(jobs)
    return jobs


# --------------------------------------------------------------------------
# many-small: a fresh coarse polyline per job group, nothing shared between
# groups; each job takes milliseconds, so fixed per-call costs dominate.

def _small_group(rng, prefix, g, shape, mode):
    path = f"{prefix}-g{g}.json"
    out = lambda tag: f"{prefix}-g{g}-{tag}.json"
    if shape == "random_closed":
        gen = _gen(shape, {"n": rng.randint(8, 256), "seed": rng.getrandbits(31)}, path,
                   dim=rng.randint(2, 6))
    elif shape == "regular_polygon":
        gen = _gen(shape, {"m": rng.randint(3, 64)}, path)
    else:
        gen = _gen(shape, {"aspect": round(rng.uniform(1.0, 20.0), 3)}, path)
    s = round(rng.uniform(0.02, 0.5), 3)
    cross = {"name": f"library average_chord {path} s={s!r} exact vs sampled",
             "kind": "crosscheck", "curve": path, "s": s, "out": out("x"),
             "check": {"type": "crosscheck", "s": s}}
    return [gen,
            _partition(path, rng.randint(3, 12), mode, out("p"), rng),
            _verify(path, _s_values(rng, 1, 3), out("v")),
            cross]


def _small_block(seed, b, inputs, prefix):
    rng = _rng("many-small", seed, b)
    shapes = ("random_closed", "regular_polygon", "rectangle")
    modes = rng.sample(("theorem2", "optimized", "best"), 3)
    groups = [_small_group(rng, prefix, g, shape, mode)
              for g, (shape, mode) in enumerate(zip(shapes, modes))]
    groups.append([_bounds(rng.randint(3, 200), f"{prefix}-bounds.json")])
    rng.shuffle(groups)
    return [job for group in groups for job in group]


_SPECS = {
    "dense": (_dense_inputs, _dense_block),
    "search-4k": (_search_inputs, _search_block),
    "many-small": (lambda seed: [], _small_block),
}


def inputs(workload, seed):
    """Input files the set-up writes, as generator specs."""
    return _SPECS[workload][0](seed)


def block(workload, seed, b, inputs_list, pass_dir):
    """Jobs of block ``b``; outputs and generated curves go under ``pass_dir``."""
    return _SPECS[workload][1](seed, b, inputs_list, f"{pass_dir}/b{b}")
