"""Independent checks of every job's output.

Nothing here imports curvecover: curve files are parsed with the json
module and evaluated by the small polyline evaluator below, and the
bound formulas are restated from the paper.  Each check returns the
names of the properties a job's output violates; an empty list means the
output is correct.

Known defect.  At the seed commit ``min_chord_start`` can return a chord
above the average chord on near-circular curves (the README ``verify``
example on the default circle exits 1 at s=0.5).  The excess is at most
about 6e-8 on the 4,096-vertex circle and 2.5e-10 on the 65,536-vertex
one.  Failures whose only cause is that defect are still counted as
failed jobs; they are listed in ``KNOWN_DEFECT`` so that the run's
``correct`` flag stays reserved for wrong outputs of any other kind.  An
excess above ``DEFECT_MAX_EXCESS`` is not that defect and is reported as
``verify.min_chord_far_above_average_chord``.
"""

import json
import math

import numpy as np

KNOWN_DEFECT = frozenset({"verify.min_chord_le_average_chord",
                          "verify.exit_status.min_chord_above_bound"})

PIECE_RTOL = 1e-9
TILE_TOL = 1e-9
THEOREM_TOL = 1e-12
DEFECT_MAX_EXCESS = 1e-6  # largest min_chord - average_chord excused as KNOWN_DEFECT
ORACLE_TOL = 1e-6


class Polyline:
    """Closed polyline with arc-length parameter t in [0, 1)."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        edges = np.roll(v, -1, axis=0) - v
        seg = np.sqrt((edges * edges).sum(axis=1))
        keep = seg > 0.0
        v, edges, seg = v[keep], edges[keep], seg[keep]
        self.raw_length = float(seg.sum())
        if abs(self.raw_length - 1.0) > 1e-9:  # the CLI's auto-normalization
            v, edges, seg = v / self.raw_length, edges / self.raw_length, seg / self.raw_length
        self.v, self.edges, self.seg = v, edges, seg
        self.length = float(seg.sum())
        self.cum = np.concatenate(([0.0], np.cumsum(seg)))

    def point(self, t):
        target = np.mod(np.asarray(t, dtype=float), 1.0) * self.length
        i = np.clip(np.searchsorted(self.cum, target, side="right") - 1, 0, len(self.seg) - 1)
        frac = (target - self.cum[i]) / self.seg[i]
        return self.v[i] + frac[..., None] * self.edges[i]

    def chord(self, t, s):
        d = self.point(np.asarray(t, dtype=float) + s) - self.point(t)
        return np.sqrt((d * d).sum(axis=-1))


def read_curve(path):
    with open(path) as fh:
        doc = json.load(fh)
    return doc, Polyline(doc["vertices"])


def sk_residual(k, s):
    return s + math.sin(math.pi * s) / math.pi - 2.0 * (1.0 - s) / (k - 1)


def solve_sk(k):
    """Root of s + sin(pi s)/pi = 2(1-s)/(k-1) on (0, 1/2) by Newton's method."""
    s = 1.0 / k
    for _ in range(100):
        step = sk_residual(k, s) / (1.0 + math.cos(math.pi * s) + 2.0 / (k - 1))
        s -= step
        if abs(step) < 1e-15:
            break
    return s


def _pieces(report, curve, k, fails):
    """Tiling and piece-length checks shared by CLI and library covers."""
    pieces = report["pieces"]
    if len(pieces) != k:
        fails.append("partition.k")
        return
    starts = np.array([p["t_start"] for p in pieces])
    fracs = np.array([p["length_frac"] for p in pieces])
    order = np.argsort(starts)
    ends = starts[order] + fracs[order]
    nxt = np.roll(starts[order], -1)
    nxt[-1] += 1.0
    if abs(fracs.sum() - 1.0) > TILE_TOL or np.max(np.abs(ends - nxt)) > TILE_TOL:
        fails.append("partition.arcs_tile")
    chords = np.where(fracs >= 1.0, 0.0, curve.chord(starts, fracs))
    expect = fracs * curve.length + chords
    got = np.array([p["piece_length"] for p in pieces])
    if np.any(np.abs(got - expect) > PIECE_RTOL * np.abs(expect)):
        fails.append("partition.piece_length")
    if abs(report["gamma"] - got.max() / curve.length) > PIECE_RTOL:
        fails.append("partition.gamma_is_max_piece")


def _bound(mode, k, report, fails):
    if mode in ("uniform", "best"):
        return 2.0 / k
    if mode == "theorem2":
        return 2.0 / k - 1.0 / (4.0 * k**4)
    s = report["shift_or_s"]
    if abs(sk_residual(k, s)) > THEOREM_TOL:
        fails.append("partition.s_k_residual")
    return 2.0 * (1.0 - s) / (k - 1)


def check_partition(spec, report, code, curves):
    fails = []
    k, mode = spec["k"], spec["mode"]
    _pieces(report, curves(spec["curve"]), k, fails)
    bound = _bound(mode, k, report, fails)
    holds = report["gamma"] <= bound + spec["tol"]
    if not holds:
        fails.append("partition.gamma_le_bound")
    if code != (0 if holds else 1):
        fails.append("partition.exit_status")
    return fails


def check_verify(spec, report, code, curves):
    fails = []
    results = report["results"]
    if [r["s"] for r in results] != list(spec["s"]):
        return ["verify.s_values"]
    program_ok = True
    for r in results:
        s, avg = r["s"], r["average_chord"]
        if avg > math.sin(math.pi * s) / math.pi + THEOREM_TOL:
            fails.append("verify.average_chord_le_sin_bound")
        program_ok &= r["pass"]
        if s > 0.0:
            excess = r["min_chord"]["chord"] - avg
            if excess > DEFECT_MAX_EXCESS:
                fails.append("verify.min_chord_far_above_average_chord")
            elif excess > THEOREM_TOL:
                fails.append("verify.min_chord_le_average_chord")
            program_ok &= r["min_chord"]["below_bound"]
    if code != 0:
        if all(r["pass"] for r in results) and not program_ok:
            fails.append("verify.exit_status.min_chord_above_bound")
        else:
            fails.append("verify.exit_status")
    return sorted(set(fails))


def check_sweep(spec, report, code, curves):
    fails = []
    k, samples = spec["k"], spec["samples"]
    rows = report["rows"]
    if len(rows) != samples:
        return ["sweep.one_row_per_sample"]
    if any(abs(r["shift"] - j / (k * samples)) > 1e-15 for j, r in enumerate(rows)):
        fails.append("sweep.shift_grid")
    betas = [r["beta"] for r in rows]
    if abs(math.fsum(betas) / samples - report["mean_beta"]) > 1e-12:
        fails.append("sweep.mean_beta")
    bound = 1.0 / k + math.sin(math.pi / k) / math.pi
    holds = report["mean_beta"] <= bound + spec["tol"]
    if not holds:
        fails.append("sweep.mean_beta_le_bound")
    if code != (0 if holds else 1):
        fails.append("sweep.exit_status")
    return fails


def check_bounds(spec, report, code, curves):
    fails = []
    rows = report["rows"]
    if [r["k"] for r in rows] != list(range(1, spec["kmax"] + 1)):
        return ["bounds.rows"]
    for r in rows:
        k = r["k"]
        if abs(r["lower"] - (1.0 / k + math.sin(math.pi / k) / math.pi)) > THEOREM_TOL:
            fails.append("bounds.lower")
        if k >= 3:
            if abs(sk_residual(k, r["s_k"])) > THEOREM_TOL:
                fails.append("bounds.s_k_residual")
            if abs(r["new_upper"] - 2.0 * (1.0 - r["s_k"]) / (k - 1)) > THEOREM_TOL:
                fails.append("bounds.new_upper")
            if r["lower"] > r["new_upper"]:
                fails.append("bounds.lower_le_new_upper")
    if code != 0:
        fails.append("bounds.exit_status")
    return sorted(set(fails))


def check_gen(spec, report, code, curves):
    doc, curve = curves(spec["curve"])
    fails = []
    verts = np.asarray(doc["vertices"], dtype=float)
    if doc["dim"] != spec["dim"] or verts.shape != (spec["n"], spec["dim"]):
        fails.append("gen.shape")
    if abs(curve.raw_length - 1.0) > 1e-9:  # gen normalizes by default
        fails.append("gen.unit_length")
    if doc["length_normalized"] is not True:
        fails.append("gen.length_normalized_flag")
    if code != 0:
        fails.append("gen.exit_status")
    return fails


def check_crosscheck(spec, report, code, curves):
    fails = []
    s = spec["s"]
    if abs(report["exact"] - report["sampled"]) > ORACLE_TOL:
        fails.append("crosscheck.exact_vs_sampled")
    if report["exact"] > math.sin(math.pi * s) / math.pi + THEOREM_TOL:
        fails.append("crosscheck.average_chord_le_sin_bound")
    return fails


def default_circle(n=4096):
    theta = 2.0 * math.pi * np.arange(n) / n
    return Polyline(np.column_stack((np.cos(theta), np.sin(theta))))


def check_readme_library(spec, report, code, curves):
    k = spec["k"]
    fails = []
    _pieces(report, curves("<default circle>"), k, fails)
    bound = 2.0 * (1.0 - solve_sk(k)) / (k - 1)
    if abs(report["bound"] - bound) > THEOREM_TOL:
        fails.append("readme.bound")
    if report["gamma"] > bound + spec["tol"]:
        fails.append("readme.gamma_le_bound")
    return fails


CHECKS = {
    "partition": check_partition, "verify": check_verify, "sweep": check_sweep,
    "bounds": check_bounds, "gen": check_gen, "crosscheck": check_crosscheck,
    "readme-library": check_readme_library,
}


class Checker:
    """Checks job records, caching parsed curve files by path."""

    def __init__(self, root):
        self.root = root
        self._curves = {}

    def _curve(self, path):
        if path == "<default circle>":
            return self._curves.setdefault(path, default_circle())
        if path not in self._curves:
            self._curves[path] = read_curve(self.root / path)[1]
        return self._curves[path]

    def check(self, rec):
        """Names of the violated properties of one job record."""
        if rec["error"] is not None:
            return ["raised"]
        spec = rec["check"]
        kind = spec["type"]
        try:
            if kind == "gen":
                report = None
                curves = lambda p: read_curve(self.root / p)
            else:
                with open(self.root / rec["out"]) as fh:
                    report = json.load(fh)
                curves = self._curve
            return CHECKS[kind](spec, report, rec["exit"], curves)
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            return [f"{kind}.output_unreadable"]
