"""Command-line front end.

Subcommands:
  gen        write a corpus curve to a file
  bounds     print the bounds table
  partition  build a cover of a curve file and check its certified bound
  sweep      tabulate beta/gamma of the uniform cover over a shift grid
  verify     check the average-chord inequality on a curve file

Exit status is 0 only if every certified verdict passes.
"""

import argparse
import json
import math
import sys

from . import bounds as bnd
from . import chords, curveio, generators, partition as part
from .curve import _assemble
from .errors import BadFlag, CurveCoverError, OutOfRange


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_normalized(path, report_notes: list):
    curve = curveio.load_curve(path)
    if not curve.is_unit_length:
        report_notes.append(
            f"input curve length {curve.length:.12g} != 1; auto-normalized")
        # same merged vertices, so equal to load_curve(path, normalize=True)
        curve = _assemble(curve.vertices, normalize=True)
    return curve


def _fmt3(x):
    return "--" if x is None else f"{x:.3f}"


def cmd_bounds(args) -> int:
    if args.kmax < 1:
        raise BadFlag("--kmax must be >= 1")
    rows = bnd.table1(args.kmax)
    if args.render == "csv":
        lines = ["k,lower,bkk_upper,new_upper,s_k"]
        for r in rows:
            sk = "" if r.s_k is None else repr(r.s_k)
            lines.append(f"{r.k},{r.lower!r},{r.bkk_upper!r},{r.new_upper!r},{sk}")
        _emit("\n".join(lines) + "\n", args.out)
    elif args.render == "json":
        lo, bk, nw = bnd.rendered_rows(rows)
        doc = {
            "command": "bounds",
            "kmax": args.kmax,
            "rows": [
                {"k": r.k, "lower": r.lower, "bkk_upper": r.bkk_upper,
                 "new_upper": r.new_upper, "s_k": r.s_k}
                for r in rows
            ],
            "rendered": {"lower": lo, "bkk_upper": bk, "new_upper": nw},
        }
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        lo, bk, nw = bnd.rendered_rows(rows)
        ks = [r.k for r in rows]
        width = 16
        lines = [
            "k".ljust(width) + " ".join(f"{k:>6d}" for k in ks),
            "lower".ljust(width) + " ".join(f"{_fmt3(x):>6}" for x in lo),
            "bkk_upper".ljust(width) + " ".join(f"{_fmt3(x):>6}" for x in bk),
            "new_upper".ljust(width) + " ".join(f"{_fmt3(x):>6}" for x in nw),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gen(args) -> int:
    params = {}
    for kv in args.params or []:
        if "=" not in kv:
            raise BadFlag(f"--params entries must be key=value, got {kv!r}")
        key, val = kv.split("=", 1)
        params[key] = float(val) if "." in val or "e" in val.lower() else int(val)
    spec = generators.CurveSpec(kind=args.kind, params=params,
                                resolution=args.resolution, dim=args.dim,
                                normalize=not args.no_normalize)
    curve = generators.generate(spec)
    if not args.out:
        raise BadFlag("gen requires --out FILE")
    curveio.save_curve(curve, args.out)
    return 0


def cmd_partition(args) -> int:
    if args.k < 1:
        raise BadFlag("--k must be >= 1")
    if args.shift is not None and args.mode != "uniform":
        raise BadFlag("--shift is only valid with --mode uniform")
    notes: list = []
    curve = _load_normalized(args.curve, notes)
    k = args.k
    if args.mode == "uniform":
        shift = args.shift or 0.0
        cover = part.uniform_partition(curve, k, shift)
        bound = bnd.gamma_upper_simple(k) if k >= 2 else 1.0
        shift_or_s = shift
    elif args.mode == "best":
        shift_or_s, cover = part.best_uniform_shift(curve, k, "max")
        bound = bnd.gamma_upper_simple(k) if k >= 2 else 1.0
    elif args.mode == "theorem2":
        cover = part.theorem2_partition(curve, k)
        bound = bnd.gamma_upper_refined(k)
        shift_or_s = cover.pieces[0].length_frac
    else:  # optimized
        cover = part.optimized_partition(curve, k)
        s_k, bound = bnd.solve_sk(k)
        shift_or_s = s_k
    report = part.cover_report(curve, cover, bound, shift_or_s, tol=args.tol)
    report["command"] = "partition"
    report["notes"] = notes
    if args.render == "csv":
        lines = ["t_start,length_frac,piece_length"]
        lines += [f"{p['t_start']!r},{p['length_frac']!r},{p['piece_length']!r}"
                  for p in report["pieces"]]
        lines.append(f"# gamma={report['gamma']!r} bound={report['bound']!r} "
                     f"pass={report['bound_satisfied']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(report, sort_keys=True) + "\n", args.out)
    if not report["bound_satisfied"]:
        print(f"FAIL: gamma {report['gamma']} exceeds certified bound "
              f"{report['bound']}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    if args.samples < 2:
        raise BadFlag("--samples must be >= 2")
    if args.k < 1:
        raise BadFlag("--k must be >= 1")
    notes: list = []
    curve = _load_normalized(args.curve, notes)
    k = args.k
    shifts = [j / (k * args.samples) for j in range(args.samples)]
    rows = []
    for sh in shifts:
        cover = part.uniform_partition(curve, k, sh)
        m = part.cover_metrics(curve, cover)
        rows.append((sh, m.beta, m.gamma))
    mean_beta = math.fsum(r[1] for r in rows) / len(rows)
    bound = bnd.beta_extremal(k)
    ok = mean_beta <= bound + args.tol
    if args.render == "json":
        doc = {"command": "sweep", "k": k, "samples": args.samples,
               "rows": [{"shift": a, "beta": b, "gamma": g} for a, b, g in rows],
               "mean_beta": mean_beta, "beta_bound": bound,
               "mean_beta_within_bound": ok, "notes": notes}
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    else:
        lines = ["shift,beta,gamma"]
        lines += [f"{a!r},{b!r},{g!r}" for a, b, g in rows]
        lines.append(f"# mean_beta={mean_beta!r} bound={bound!r} pass={ok}")
        _emit("\n".join(lines) + "\n", args.out)
    if not ok:
        print(f"FAIL: mean beta {mean_beta} exceeds bound {bound}",
              file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    notes: list = []
    curve = _load_normalized(args.curve, notes)
    results, fails = [], []
    for s in args.s:
        if not (0.0 <= s <= 0.5):
            raise OutOfRange(f"s must lie in [0, 1/2], got {s}")
        value = chords.average_chord(curve, s)
        bound = math.sin(math.pi * s) / math.pi
        slack = bound - value
        entry = {"s": s, "average_chord": value, "bound": bound, "slack": slack,
                 "pass": value <= bound + args.tol, "near_equality": slack < 1e-4}
        checked = [("average_chord", value, entry["pass"])]
        if s > 0.0:
            t_star, chord = chords.min_chord_start(curve, s)
            entry["min_chord"] = {"t_star": t_star, "chord": chord,
                                  "below_bound": chord <= bound + args.tol}
            checked.append(("min_chord", chord, entry["min_chord"]["below_bound"]))
        fails += [f"FAIL: {name} at s={s!r} is {v!r}, above sin(pi s)/pi = "
                  f"{bound!r} by {v - bound:.3g}" for name, v, ok in checked if not ok]
        results.append(entry)
    if args.render == "csv":
        lines = ["s,average_chord,bound,slack,pass"]
        lines += [f"{r['s']!r},{r['average_chord']!r},{r['bound']!r},"
                  f"{r['slack']!r},{r['pass']}" for r in results]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {"command": "verify", "results": results, "notes": notes}
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    for line in fails:
        print(line, file=sys.stderr)
    return 1 if fails else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="curvecover", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tol=1e-6):
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--render", choices=("table", "json", "csv"),
                        default="table")
        sp.add_argument("--tol", type=float, default=tol, help="verdict slack")

    sp = sub.add_parser("bounds", help="print the bounds table")
    sp.add_argument("--kmax", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("gen", help="generate a corpus curve file")
    sp.add_argument("--kind", choices=generators.KINDS, required=True)
    sp.add_argument("--params", nargs="*", metavar="KEY=VALUE")
    sp.add_argument("--resolution", type=int, default=4096)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--no-normalize", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("partition", help="cover a curve file with k pieces")
    sp.add_argument("curve", help="curve file (json or csv)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--mode", choices=("uniform", "best", "theorem2", "optimized"),
                    default="uniform")
    sp.add_argument("--shift", type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("sweep", help="uniform-cover metrics over a shift grid")
    sp.add_argument("curve")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--samples", type=int, default=1024)
    common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="check the average-chord inequality")
    sp.add_argument("curve")
    sp.add_argument("--s", type=float, nargs="+", required=True)
    common(sp, tol=1e-9)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CurveCoverError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
