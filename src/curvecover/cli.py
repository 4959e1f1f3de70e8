"""Command-line front end.

Subcommands:
  gen        write a corpus curve to --out FILE
  bounds     print the bounds table
  partition  build a cover of a curve file and check its certified bound
  sweep      tabulate beta/gamma of the uniform cover over a shift grid
  verify     check the average-chord inequality on a curve file

Every command but gen writes a report to --out FILE (default stdout)
as --render json, csv or table; table is the aligned table for bounds,
the CSV for sweep and the JSON for partition and verify.  Report
commands only compute; main adds the auto-normalized note of a rescaled
curve file, renders the one view asked for, and prints the FAIL lines.
A verdict value <= bound FAILs iff value > bound + err, err an a priori
rounding bound from the curve's vertex count, dimension and largest
vertex norm and the two values; sweep judges the exact mean of beta
over all shifts, 1/k + average_chord(1/k).  Each failed verdict prints
one FAIL line on stderr.  Exit status: 0 if every certified verdict
passes, 1 if one fails, 2 on bad input.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import bounds as bnd, chords, curveio, generators, partition as part
from .errors import BadFlag, CurveCoverError, _count

# bkk_table is quadratic in kmax: 0.2-0.5 s at this kmax with Python 3.11 on 2
# shared cores, so about 7 hours at 10^6
_MAX_KMAX = 4096


def _fmt3(x):
    return "--" if x is None else f"{x:.3f}"


def _csv(records, *trailer):
    """CSV lines: the header, the first record's keys, then one row per record
    (a dict with those keys), each value as its repr or empty for None, then
    the (name, value) pairs of ``trailer`` on one '# name=value ...' line."""
    columns = list(records[0])
    lines = [",".join(columns)]
    lines += [",".join(["" if r[c] is None else repr(r[c]) for c in columns])
              for r in records]
    if trailer:
        lines.append("# " + " ".join(f"{name}={v!r}" for name, v in trailer))
    return lines


# Each report command only computes, and returns (curve, doc, rows, trailer,
# verdicts): the curve file it read (None for bounds), the JSON doc, the CSV's
# rows (dicts, never empty) and trailer (name, value) pairs, and its verdicts as
# (check, bound_name, chords.Verdict): every verdict key and the exit code read it.

def cmd_bounds(args):
    if args.kmax > _MAX_KMAX:
        raise BadFlag(f"--kmax must be <= {_MAX_KMAX}, got {args.kmax}")
    rows = bnd.table1(_count(args.kmax, 1, "--kmax"))
    rendered = dict(zip(("lower", "bkk_upper", "new_upper"),
                        bnd.rendered_rows(rows)))
    doc = {"command": "bounds", "kmax": args.kmax,
           "rows": [dict(vars(r)) for r in rows], "rendered": rendered}
    return None, doc, doc["rows"], (), []


def cmd_gen(args):
    if not args.out:
        raise BadFlag("gen requires --out FILE")
    params = {}
    for kv in args.params or []:
        key, eq, val = kv.partition("=")
        if not eq:
            raise BadFlag(f"--params entries must be key=value, got {kv!r}")
        try:  # a JSON number; an infinity such as 1e400 parses, and the spec's rule refuses it
            if not curveio._JSON_NUMBER.fullmatch(val):
                raise ValueError(val)
            params[key] = float(val) if "." in val or "e" in val.lower() else int(val)
        except ValueError:  # not a JSON number, or over int()'s digit limit
            raise BadFlag(f"--params values must be finite numbers, got {kv!r}") from None
    spec = generators.CurveSpec(kind=args.kind, params=params,
                                resolution=args.resolution, dim=args.dim,
                                normalize=not args.no_normalize)
    curveio.save_curve(generators.generate(spec), args.out)


def cmd_partition(args):
    _count(args.k, 1, "--k")
    if args.shift is not None and args.mode != "uniform":
        raise BadFlag("--shift is only valid with --mode uniform")
    curve = curveio.load_curve(args.curve, normalize=True)
    k = args.k
    if args.mode == "theorem2":
        cover = part.theorem2_partition(curve, k)
        bound = bnd.gamma_upper_refined(k)
        shift_or_s = cover.pieces[0].length_frac
    elif args.mode == "optimized":
        cover = part.optimized_partition(curve, k)
        shift_or_s, bound = bnd.solve_sk(k)
    else:  # a uniform cover, judged by the simple bound
        if args.mode == "uniform":
            shift_or_s = args.shift or 0.0
            cover = part.uniform_partition(curve, k, shift_or_s)
        else:  # best
            shift_or_s, cover = part.best_uniform_shift(curve, k, "max")
        bound = bnd.gamma_upper_simple(k) if k >= 2 else 1.0
    report = part.cover_report(curve, cover, bound, shift_or_s)
    report["command"] = "partition"
    # the Verdict cover_report judged and wrote as gamma, bound and err
    v = chords.Verdict(report["gamma"], report["bound"], report["err"])
    trailer = (("gamma", v.value), ("bound", v.bound), ("pass", v.passes), ("err", v.err))
    return curve, report, report["pieces"], trailer, [("gamma", "certified bound", v)]


def cmd_sweep(args):
    _count(args.samples, 2, "--samples")
    _count(args.k, 1, "--k")
    _count(args.samples * args.k, 1, "--samples times --k")
    curve = curveio.load_curve(args.curve, normalize=True)
    k = args.k
    # row j is the uniform cover with shift j / (k samples)
    shifts = np.arange(args.samples) / (k * args.samples)
    starts = np.mod(shifts[:, None] + np.arange(k) / k, 1.0)
    lengths = part._piece_lengths(curve, starts, np.full(starts.shape, 1.0 / k))
    betas = lengths.sum(axis=1) / (k * curve.length)
    gammas = lengths.max(axis=1) / curve.length
    rows = [{"shift": a, "beta": b, "gamma": g} for a, b, g in
            zip(shifts.tolist(), betas.tolist(), gammas.tolist())]
    mean_beta = math.fsum(betas.tolist()) / len(rows)
    exact = 1.0 if k == 1 else 1.0 / k + chords.average_chord(curve, 1.0 / k)
    v = chords._verdict(curve, exact, bnd.beta_extremal(k))
    doc = {"command": "sweep", "k": k, "samples": args.samples, "rows": rows,
           "mean_beta": mean_beta, "exact_mean_beta": v.value, "beta_bound": v.bound,
           "mean_beta_within_bound": v.passes, "err": v.err}
    trailer = (("mean_beta", mean_beta), ("exact_mean_beta", v.value),
               ("bound", v.bound), ("pass", v.passes), ("err", v.err))
    return curve, doc, rows, trailer, [("mean beta over all shifts", "bound", v)]


def cmd_verify(args):
    curve = curveio.load_curve(args.curve, normalize=True)
    results, rows, verdicts = [], [], []
    for s in args.s:
        value, t_star, chord = chords._both_chords(curve, s)
        v = chords._verdict(curve, value, math.sin(math.pi * s) / math.pi)
        entry = {"s": s, "average_chord": v.value, "bound": v.bound,
                 "slack": v.margin, "pass": v.passes, "err": v.err}
        # the CSV row: its min chord columns stay empty at s = 0, which has none
        row = dict(entry, min_chord=None, min_chord_pass=None, min_chord_err=None)
        checked = [("average_chord", v)]
        if s > 0.0:
            v = chords._verdict(curve, chord, v.bound)
            entry["min_chord"] = {"t_star": t_star, "chord": v.value,
                                  "below_bound": v.passes, "err": v.err}
            row.update(min_chord=v.value, min_chord_pass=v.passes, min_chord_err=v.err)
            checked.append(("min_chord", v))
        verdicts += [(f"{name} at s={s!r}", "sin(pi s)/pi =", v) for name, v in checked]
        results.append(entry)
        rows.append(row)
    return curve, {"command": "verify", "results": results}, rows, (), verdicts


def _report_flags(sp):
    sp.add_argument("--out", default=None, help="output file (default stdout)")
    sp.add_argument("--render", choices=("table", "json", "csv"), default="table")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="curvecover", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bounds", help="print the bounds table")
    sp.add_argument("--kmax", type=int, required=True)
    _report_flags(sp)

    sp = sub.add_parser("gen", help="generate a corpus curve file")
    sp.add_argument("--kind", choices=generators.KINDS, required=True)
    sp.add_argument("--params", nargs="*", metavar="KEY=VALUE")
    sp.add_argument("--resolution", type=int, default=4096)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--no-normalize", action="store_true")
    sp.add_argument("--out", required=True,
                    help="curve file to write (json or csv by extension)")

    sp = sub.add_parser("partition", help="cover a curve file with k pieces")
    sp.add_argument("curve", help="curve file (json or csv)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--mode", choices=("uniform", "best", "theorem2", "optimized"),
                    default="uniform")
    sp.add_argument("--shift", type=float, default=None)
    _report_flags(sp)

    sp = sub.add_parser("sweep", help="uniform-cover metrics over a shift grid")
    sp.add_argument("curve")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--samples", type=int, default=1024)
    _report_flags(sp)

    sp = sub.add_parser("verify", help="check the average-chord inequality")
    sp.add_argument("curve")
    sp.add_argument("--s", type=float, nargs="+", required=True)
    _report_flags(sp)
    return p


_parser = build_parser()  # built once, at import; every main() call reuses it


def main(argv=None) -> int:
    args = _parser.parse_args(argv)
    try:
        # looked up per call, so a handler rebound after import runs
        report = globals()["cmd_" + args.command](args)
        if report is None:  # gen wrote its curve file
            return 0
        curve, doc, rows, trailer, verdicts = report
        if curve is not None:  # a note when the curve file was rescaled
            doc["notes"] = [] if curve.input_length == curve.length else [
                f"input curve length {curve.input_length:.12g} != 1; auto-normalized"]
        view = args.render
        if view == "table":  # the aligned table for bounds, the CSV for sweep
            view = {"bounds": "aligned", "sweep": "csv"}.get(args.command, "json")
        if view == "json":
            lines = [json.dumps(doc, sort_keys=True)]
        elif view == "csv":
            lines = _csv(rows, *trailer)
        else:  # the aligned bounds table: k, then one row per rendered bound
            lines = ["k".ljust(16) + " ".join(f"{r['k']:>6d}" for r in doc["rows"])]
            lines += [name.ljust(16) + " ".join(f"{_fmt3(x):>6}" for x in values)
                      for name, values in doc["rendered"].items()]
        text = "\n".join(lines) + "\n"
        if args.out:
            curveio._write_text(args.out, [text])
        else:
            sys.stdout.write(text)
    except (CurveCoverError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    failed = [(check, name, v) for check, name, v in verdicts if not v.passes]
    for check, bound_name, v in failed:
        print(f"FAIL: {check} is {v.value!r}, above {bound_name} {v.bound!r} "
              f"by {v.value - v.bound:.3g} (err {v.err:.3g})", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
