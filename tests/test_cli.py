import json
import math
import warnings
from pathlib import Path

import pytest

from curvecover import (bounds, chords, cover_metrics, cover_report, load_curve,
                        optimized_partition, save_curve, solve_sk,
                        uniform_partition)
from curvecover import cli, curveio
from curvecover import curve as curve_module
from curvecover.cli import main


@pytest.fixture(scope="module")
def circle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("curves") / "circle.json"
    assert main(["gen", "--kind", "circle", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def square_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("curves") / "square.json"
    assert main(["gen", "--kind", "regular_polygon", "--params", "m=4",
                 "--out", str(path)]) == 0
    return str(path)


class TestBounds:
    def test_table_render(self, capsys):
        assert main(["bounds", "--kmax", "10"]) == 0
        out = capsys.readouterr().out
        assert "0.644" in out and "0.475" in out and "--" in out
        assert main(["bounds", "--kmax", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "k                    1      2      3",
            "lower            1.000  0.818  0.609",
            "bkk_upper        1.000  0.818  0.737",
            "new_upper           --     --  0.644",
        ]

    def test_csv_render(self, capsys):
        assert main(["bounds", "--kmax", "3", "--render", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        r = bounds.table1(3)
        # k = 1 and k = 2 have no s_k: their rows end in an empty field
        assert lines == [
            "k,lower,bkk_upper,new_upper,s_k",
            "1,1.0,1.0,1.0,",
            f"2,{r[1].lower!r},{r[1].bkk_upper!r},1.0,",
            f"3,{r[2].lower!r},{r[2].bkk_upper!r},{r[2].new_upper!r},{r[2].s_k!r}",
        ]

    def test_json_render(self, capsys):
        assert main(["bounds", "--kmax", "5", "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rendered"]["lower"][:3] == [1.0, 0.818, 0.609]

    def test_kmax_one(self, capsys):
        assert main(["bounds", "--kmax", "1", "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0] == {"k": 1, "lower": 1.0, "bkk_upper": 1.0,
                                  "new_upper": 1.0, "s_k": None}

    def test_bad_kmax(self, capsys):
        assert main(["bounds", "--kmax", "0"]) == 2
        assert "kmax" in capsys.readouterr().err


class TestPartition:
    def test_uniform_circle(self, circle_file, capsys):
        code = main(["partition", circle_file, "--k", "4", "--mode", "uniform",
                     "--shift", "0", "--render", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma"] == pytest.approx(0.475079, abs=1e-5)
        assert doc["bound"] == 0.5
        assert doc["bound_satisfied"] is True

    def test_best_square(self, square_file, capsys):
        assert main(["partition", square_file, "--k", "4", "--mode", "best",
                     "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma"] == pytest.approx(0.25 + math.sqrt(2) / 8, abs=1e-6)

    def test_theorem2_k2_rejected(self, square_file, capsys):
        assert main(["partition", square_file, "--k", "2",
                     "--mode", "theorem2"]) == 2

    def test_shift_only_with_uniform(self, square_file):
        assert main(["partition", square_file, "--k", "4", "--mode", "best",
                     "--shift", "0.1"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["partition", str(tmp_path / "no.json"), "--k", "3"]) == 2

    @pytest.mark.parametrize("shift", ["inf", "-inf", "nan"])
    def test_non_finite_shift(self, shift, tmp_path, capsys):
        # rejected before the curve is read (there is none), with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["partition", str(tmp_path / "no.json"), "--k", "3",
                         f"--shift={shift}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --shift must be a finite number, got {shift}\n"

    @pytest.mark.parametrize("shift", ["-1e-20", "1e16"])
    def test_finite_shift_far_from_zero(self, shift, circle_file, capsys):
        # -1e-20 used to start an arc at 1.0, and 1e16 lost j/k: both exited 2
        assert main(["partition", circle_file, "--k", "4", "--mode", "uniform",
                     f"--shift={shift}", "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [p["t_start"] for p in doc["pieces"]] == [0.0, 0.25, 0.5, 0.75]
        assert doc["shift_or_s"] == float(shift)

    @pytest.mark.parametrize("argv", [
        ["sweep", "{circle}", "--k", "3", "--samples", "1000000000000000"],
        ["partition", "{circle}", "--k", "10000000000000000"],
    ])
    def test_unallocatable_size(self, argv, circle_file, capsys):
        # numpy refuses these sizes before allocating anything
        assert main([a.format(circle=circle_file) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate ")

    @pytest.mark.parametrize("argv, message", [
        (["partition", "{circle}", "--k", str(2**60)], "--k must be <= "),
        (["sweep", "{circle}", "--k", "3", "--samples", str(2**62)],
         "--samples must be <= "),
        (["sweep", "{circle}", "--k", str(2**30), "--samples", str(2**40)],
         f"--samples times --k must be <= {2**60 - 1}, got {2**70}"),
    ])
    def test_count_numpy_cannot_index(self, argv, message, circle_file, capsys):
        # numpy cannot index arrays this large (ValueError, not MemoryError):
        # the counts, and sweep's grid, are rejected before any array is built
        assert main([a.format(circle=circle_file) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + message)

    @pytest.mark.parametrize("params, k, mode", [
        (["m=7"], 11, "best"), (["m=4"], 12, "optimized"), (["m=8"], 12, "best"),
    ], ids=["heptagon-best", "square-optimized", "octagon-best"])
    def test_rounding_at_equality_passes(self, params, k, mode, tmp_path, capsys):
        # pieces on the straight sides reach the bound exactly; gamma lands a
        # few ulp above it, within err
        path = str(tmp_path / "p.json")
        assert main(["gen", "--kind", "regular_polygon", "--params"] + params
                    + ["--out", path]) == 0
        assert main(["partition", path, "--k", str(k), "--mode", mode,
                     "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["gamma"] - doc["bound"] <= doc["err"]
        assert doc["bound_satisfied"] is True

    def test_csv_render(self, circle_file, monkeypatch, capsys):
        # header, one row per piece, then the verdict line, passed and failed
        argv = ["partition", circle_file, "--k", "3", "--mode", "theorem2",
                "--render"]
        for code, verdict in ((0, "True"), (1, "False")):
            if code:
                monkeypatch.setattr(bounds, "gamma_upper_refined", lambda k: 0.1)
            assert main(argv + ["json"]) == code
            doc = json.loads(capsys.readouterr().out)
            assert main(argv + ["csv"]) == code
            assert capsys.readouterr().out.splitlines() == [
                "t_start,length_frac,piece_length"] + [
                f"{p['t_start']!r},{p['length_frac']!r},{p['piece_length']!r}"
                for p in doc["pieces"]] + [
                f"# gamma={doc['gamma']!r} bound={doc['bound']!r} pass={verdict} "
                f"err={doc['err']!r}"]


class TestLoadOnce:
    def test_raw_file_read_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "ellipse.json"
        assert main(["gen", "--kind", "ellipse", "--resolution", "512",
                     "--no-normalize", "--out", str(path)]) == 0
        reads = []
        read_bytes = Path.read_bytes

        def counting(self, *args, **kwargs):
            reads.append(self)
            return read_bytes(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", counting)
        assert main(["partition", str(path), "--k", "5", "--mode", "optimized",
                     "--render", "json"]) == 0
        assert reads == [path]
        monkeypatch.undo()

        raw = load_curve(path)
        curve = load_curve(path, normalize=True)
        assert curve.input_length == raw.length
        s_k, bound = solve_sk(5)
        expect = cover_report(curve, optimized_partition(curve, 5), bound, s_k)
        expect["command"] = "partition"
        expect["notes"] = [
            f"input curve length {raw.length:.12g} != 1; auto-normalized"]
        assert capsys.readouterr().out == json.dumps(expect, sort_keys=True) + "\n"

    @pytest.mark.parametrize("flag", [["--no-normalize"], []], ids=["raw", "unit"])
    def test_one_build_per_command(self, flag, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "ellipse.json")
        assert main(["gen", "--kind", "ellipse", "--resolution", "512", "--out", path]
                    + flag) == 0
        builds = []
        build_curve = curve_module.build_curve

        def counting(*args, **kwargs):
            builds.append(args)
            return build_curve(*args, **kwargs)

        # every module that binds build_curve, so a build anywhere counts
        for module in (curve_module, curveio, cli):
            if hasattr(module, "build_curve"):
                monkeypatch.setattr(module, "build_curve", counting)
        for argv in (["partition", path, "--k", "5"],
                     ["sweep", path, "--k", "3", "--samples", "8"],
                     ["verify", path, "--s", "0.25"]):
            builds.clear()
            assert main(argv) == 0, argv
            assert len(builds) == 1, argv
        notes = json.loads(capsys.readouterr().out.splitlines()[-1])["notes"]
        assert bool(notes) == bool(flag)


class TestSweep:
    def test_circle_k3(self, circle_file, capsys):
        assert main(["sweep", circle_file, "--k", "3", "--samples", "100",
                     "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        betas = [r["beta"] for r in doc["rows"]]
        assert all(abs(b - 0.609) < 1e-3 for b in betas)
        assert doc["mean_beta_within_bound"] is True

    def test_csv_columns(self, square_file, monkeypatch, capsys):
        # header, one row per shift, then the verdict line, passed and failed
        argv = ["sweep", square_file, "--k", "4", "--samples", "64", "--render"]
        for code, verdict in ((0, "True"), (1, "False")):
            if code:
                monkeypatch.setattr(bounds, "beta_extremal", lambda k: 0.1)
            assert main(argv + ["json"]) == code
            doc = json.loads(capsys.readouterr().out)
            assert main(argv + ["table"]) == code  # the CSV
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 66
            assert lines == ["shift,beta,gamma"] + [
                f"{r['shift']!r},{r['beta']!r},{r['gamma']!r}"
                for r in doc["rows"]] + [
                f"# mean_beta={doc['mean_beta']!r} "
                f"exact_mean_beta={doc['exact_mean_beta']!r} "
                f"bound={doc['beta_bound']!r} pass={verdict} err={doc['err']!r}"]

    @pytest.mark.parametrize("gen, k, samples", [
        (["--kind", "circle", "--resolution", "256"], 2, 64),
        (["--kind", "regular_polygon", "--params", "m=8"], 2, 2),
    ], ids=["circle-256", "octagon"])
    def test_judges_the_exact_shift_average(self, gen, k, samples, tmp_path,
                                           capsys):
        # the grid means are 8.0e-6 and 8.3e-3 over the bound; the exact
        # averages 1/k + average_chord(1/k) are below it
        path = str(tmp_path / "c.json")
        assert main(["gen"] + gen + ["--out", path]) == 0
        assert main(["sweep", path, "--k", str(k), "--samples", str(samples),
                     "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        curve = load_curve(path)
        assert doc["mean_beta"] > doc["beta_bound"]
        assert doc["exact_mean_beta"] == 1 / k + chords.average_chord(curve, 1 / k)
        assert doc["exact_mean_beta"] <= doc["beta_bound"]
        assert doc["mean_beta_within_bound"] is True

    def test_k1_exact_mean_is_one(self, circle_file, capsys):
        assert main(["sweep", circle_file, "--k", "1", "--samples", "4",
                     "--render", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["exact_mean_beta"] == 1.0

    def test_min_gamma_sample(self, square_file, capsys):
        assert main(["sweep", square_file, "--k", "4", "--samples", "1024",
                     "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert min(r["gamma"] for r in doc["rows"]) == pytest.approx(
            0.4268, abs=1e-3)

    def test_one_sample_rejected(self, circle_file):
        assert main(["sweep", circle_file, "--k", "3", "--samples", "1"]) == 2

    def test_rows_match_per_shift_covers(self, corpus, tmp_path, capsys):
        # the batched sweep against uniform_partition + cover_metrics per shift
        samples = 64
        for name, curve in corpus.items():
            path = tmp_path / f"{name}.json"
            save_curve(curve, path)
            loaded = load_curve(path)
            assert loaded.is_unit_length
            for k in (1, 2, 3, 7, 13):
                assert main(["sweep", str(path), "--k", str(k), "--samples",
                             str(samples), "--render", "csv"]) == 0
                rows = capsys.readouterr().out.splitlines()[1:-1]
                expect = []
                for j in range(samples):
                    shift = j / (k * samples)
                    m = cover_metrics(loaded, uniform_partition(loaded, k, shift))
                    expect.append(f"{shift!r},{m.beta!r},{m.gamma!r}")
                assert rows == expect, (name, k)


class TestVerify:
    def test_circle_near_equality(self, circle_file, capsys):
        assert main(["verify", circle_file, "--s", "0.25",
                     "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        res = doc["results"][0]
        assert res["pass"] is True
        assert "near_equality" not in res
        assert res["slack"] < 1e-4

    def test_square_strict(self, square_file, capsys):
        assert main(["verify", square_file, "--s", "0.5",
                     "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        res = doc["results"][0]
        assert res["average_chord"] == pytest.approx(0.286949, abs=1e-4)
        assert res["average_chord"] < res["bound"]

    def test_s_out_of_range(self, circle_file):
        assert main(["verify", circle_file, "--s", "0.6"]) == 2

    @pytest.mark.parametrize("check", ["average_chord", "min_chord"])
    def test_failure_names_the_check(self, check, square_file, monkeypatch,
                                     capsys):
        bound = math.sin(math.pi * 0.25) / math.pi
        both = chords._both_chords

        def raised(curve, s):  # one of verify's two chords set above the bound
            value, t_star, chord = both(curve, s)
            if check == "average_chord":
                return bound + 1e-3, t_star, chord
            return value, t_star, bound + 1e-3

        monkeypatch.setattr(chords, "_both_chords", raised)
        assert main(["verify", square_file, "--s", "0.25"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"FAIL: {check} at s=0.25 ")
        slack = chords._verdict(load_curve(square_file), bound + 1e-3, bound)[1]
        assert err[0].endswith(f" by 0.001 (err {slack:.3g})")

    def test_csv_lines(self, square_file, monkeypatch, capsys):
        # average chord 0.1 at every s; the min chord 0.3 fails at s = 0.25,
        # and its columns are empty at s = 0, which has no minimum chord
        both = chords._both_chords

        def patched(curve, s):
            _, t_star, chord = both(curve, s)
            return 0.1, t_star, 0.3 if s == 0.25 else chord

        monkeypatch.setattr(chords, "_both_chords", patched)
        assert main(["verify", square_file, "--s", "0", "0.05", "0.25",
                     "--render", "csv"]) == 1
        lines = capsys.readouterr().out.splitlines()
        square = load_curve(square_file)
        b05, b25 = (math.sin(math.pi * s) / math.pi for s in (0.05, 0.25))
        e0, e05, e25 = (chords._verdict(square, 0.1, b)[1] for b in (0.0, b05, b25))
        c05 = chords.min_chord_start(square, 0.05)[1]
        m05, m25 = (chords._verdict(square, c, b)[1] for c, b in ((c05, b05), (0.3, b25)))
        assert lines == [
            "s,average_chord,bound,slack,pass,err,min_chord,min_chord_pass,min_chord_err",
            f"0.0,0.1,0.0,-0.1,False,{e0!r},,,",
            f"0.05,0.1,{b05!r},{b05 - 0.1!r},False,{e05!r},{c05!r},True,{m05!r}",
            f"0.25,0.1,{b25!r},{b25 - 0.1!r},True,{e25!r},0.3,False,{m25!r}"]

    def test_fail_lines_in_order(self, square_file, monkeypatch, capsys):
        # s in argv order, the average chord before the min chord
        monkeypatch.setattr(chords, "_both_chords",
                            lambda curve, s: (0.4, 0.0, 0.45))
        assert main(["verify", square_file, "--s", "0.25", "0.05"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(" is ")[0] for line in err] == [
            "FAIL: average_chord at s=0.25", "FAIL: min_chord at s=0.25",
            "FAIL: average_chord at s=0.05", "FAIL: min_chord at s=0.05"]

    def test_readme_circle_errs(self, circle_file, capsys):
        # every verdict of the README commands on the 4,096-vertex circle:
        # err at most 1e-11, below its margin (the smallest is 4.9e-9)
        margins = []
        for argv in (["verify", "--s", "0.05", "0.25", "0.5"],
                     ["partition", "--k", "4", "--mode", "uniform", "--shift", "0"],
                     ["partition", "--k", "5", "--mode", "optimized"],
                     ["partition", "--k", "13", "--mode", "best"],
                     ["sweep", "--k", "3", "--samples", "1024"]):
            assert main(argv[:1] + [circle_file] + argv[1:] + ["--render", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            if argv[0] == "verify":
                margins += [(r["slack"], r["err"]) for r in doc["results"]]
                margins += [(r["bound"] - r["min_chord"]["chord"], r["min_chord"]["err"])
                            for r in doc["results"]]
            elif argv[0] == "partition":
                margins.append((doc["bound"] - doc["gamma"], doc["err"]))
            else:
                margins.append((doc["beta_bound"] - doc["exact_mean_beta"], doc["err"]))
        assert len(margins) == 10
        assert all(err <= 1e-11 and err < margin for margin, err in margins)
        assert min(m for m, _ in margins) > 4.8e-9

    def test_one_cell_pass_per_s(self, circle_file, monkeypatch, capsys):
        # both chords of each s > 0 come from one _cells call; s = 0 needs none
        calls = []
        cells = chords._cells
        monkeypatch.setattr(chords, "_cells",
                            lambda curve, s: calls.append(s) or cells(curve, s))
        assert main(["verify", circle_file, "--s", "0", "0.05", "0.25", "0",
                     "0.5"]) == 0
        assert calls == [0.05, 0.25, 0.5]

    def test_chords_equal_the_library(self, corpus, random4k, tmp_path, capsys):
        s_values = [0.01, 0.05, 0.25, 0.5]
        for name, curve in {**corpus, "random4k": random4k}.items():
            path = tmp_path / f"{name}.json"
            save_curve(curve, path)
            main(["verify", str(path), "--s"] + [repr(s) for s in s_values]
                 + ["--render", "json"])
            results = json.loads(capsys.readouterr().out)["results"]
            loaded = load_curve(path, normalize=True)
            for s, r in zip(s_values, results, strict=True):
                assert r["average_chord"] == chords.average_chord(loaded, s), (name, s)
                t_star, chord = chords.min_chord_start(loaded, s)
                assert r["min_chord"]["t_star"] == t_star, (name, s)
                assert r["min_chord"]["chord"] == chord, (name, s)

    def test_readme_example(self, circle_file, capsys):
        # `curvecover verify circle.json --s 0.05 0.25 0.5` from the README
        assert main(["verify", circle_file, "--s", "0.05", "0.25", "0.5",
                     "--render", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert [r["s"] for r in results] == [0.05, 0.25, 0.5]
        for r in results:
            assert r["min_chord"]["chord"] <= r["average_chord"], r["s"]


def test_grid_flag_removed(circle_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partition", circle_file, "--k", "3", "--mode", "best",
              "--grid", "64"])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


class TestReportPath:
    @pytest.mark.parametrize("argv, same_as", [
        (["partition", "{circle}", "--k", "5", "--mode", "optimized"], "json"),
        (["verify", "{circle}", "--s", "0.1", "0.5"], "json"),
        (["sweep", "{circle}", "--k", "3", "--samples", "16"], "csv"),
    ])
    def test_table_mode(self, argv, same_as, circle_file, capsys):
        argv = [a.format(circle=circle_file) for a in argv]
        outs = []
        for render in ("table", same_as):
            assert main(argv + ["--render", render]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [
        ["partition", "{circle}", "--k", "5", "--mode", "optimized"],
        ["sweep", "{circle}", "--k", "3", "--samples", "16"],
        ["verify", "{circle}", "--s", "0", "0.25"],
    ])
    def test_json_builds_no_csv(self, argv, circle_file, monkeypatch, capsys):
        def no_csv(*args):
            raise AssertionError("CSV built for a JSON report")

        monkeypatch.setattr(cli, "_csv", no_csv)
        argv = [a.format(circle=circle_file) for a in argv]
        assert main(argv + ["--render", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]

    def test_out_file_matches_stdout(self, circle_file, tmp_path, capsys):
        argv = ["verify", circle_file, "--s", "0.25", "--render", "csv"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "report.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout

    @pytest.mark.parametrize("argv, patch, line", [
        (["partition", "{square}", "--k", "4"], "gamma_upper_simple",
         "FAIL: gamma "),
        (["sweep", "{square}", "--k", "4", "--samples", "16"], "beta_extremal",
         "FAIL: mean beta "),
    ])
    def test_failure_prints_one_line(self, argv, patch, line, square_file,
                                     monkeypatch, capsys):
        monkeypatch.setattr(bounds, patch, lambda k: 0.1)
        argv = [a.format(square=square_file) for a in argv]
        assert main(argv + ["--render", "json"]) == 1
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # the report is still written in full
        value = doc["gamma" if argv[0] == "partition" else "exact_mean_beta"]
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(line) and f" is {value!r}, above " in err[0]
        assert err[0].endswith(f" 0.1 by {value - 0.1:.3g} (err {doc['err']:.3g})")

    @pytest.mark.parametrize("argv, flag", [
        (["bounds", "--kmax", "3", "--tol", "1e-3"], "--tol"),
        (["gen", "--kind", "circle", "--out", "{out}", "--tol", "1e-3"], "--tol"),
        (["gen", "--kind", "circle", "--out", "{out}", "--render", "json"],
         "--render"),
        (["gen", "--kind", "circle"], "--out"),
        (["partition", "{out}", "--k", "3", "--tol", "1e-3"], "--tol"),
        (["sweep", "{out}", "--k", "3", "--tol", "1e-3"], "--tol"),
        (["verify", "{out}", "--s", "0.25", "--tol", "1e-3"], "--tol"),
    ])
    def test_unread_flags_rejected(self, argv, flag, tmp_path, monkeypatch,
                                   capsys):
        def no_curve(spec):
            raise AssertionError("curve built before the flags were checked")

        monkeypatch.setattr("curvecover.generators.generate", no_curve)
        out = tmp_path / "c.json"
        with pytest.raises(SystemExit) as exc:
            main([a.format(out=out) for a in argv])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_gen_non_numeric_param(self, value, tmp_path, capsys):
        out = tmp_path / "e.json"
        assert main(["gen", "--kind", "ellipse", "--params", "b=1.0",
                     f"a={value}", "--out", str(out)]) == 2
        assert f"'a={value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "{circle}", "--k", "3", "--samples", "4", "--out",
         "{tmp}/nodir/x.csv"],
        ["sweep", "{circle}", "--k", "3", "--samples", "4", "--out", "{tmp}"],
        ["gen", "--kind", "circle", "--out", "{tmp}/nodir/c.json"],
    ])
    def test_unwritable_out(self, argv, circle_file, tmp_path, capsys):
        argv = [a.format(circle=circle_file, tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write {argv[-1]}: ")

    @pytest.mark.parametrize("content, message", [
        (b'[[0,0],[1,0],["1",true],[0,1]]', "coordinates must be JSON numbers"),
        (b"[[0,0],[1,0],[" + b"9" * 400 + b",1],[0,1]]", "int too large"),
        (b'[[0,0],[1,0],[1,1],[0,1]], "note": "\xff"', "can't decode byte 0xff"),
    ], ids=["string-and-bool", "400-digit-int", "invalid-utf8"])
    def test_bad_curve_file(self, content, message, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"dim": 2, "vertices": ' + content + b"}")
        assert main(["partition", str(path), "--k", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot parse curve file {path}: ")
        assert message in err[0]

    @pytest.mark.parametrize("params, message", [
        (["--kind", "circle", "--params", "bogus=1"], "does not read params"),
        (["--kind", "rectangle", "--params", "aspct=10"], "reads ['aspect']"),
        (["--kind", "ellipse", "--params", "a=1e308"], "not finite"),
        (["--kind", "regular_polygon", "--params", "m=3.5"],
         "regular_polygon param 'm' must be an integer, got 3.5"),
        (["--kind", "random_closed", "--params", "n=8.9", "seed=1"],
         "random_closed param 'n' must be an integer, got 8.9"),
        (["--kind", "lissajous3d", "--params", "freq_a=2.5"],
         "lissajous3d param 'freq_a' must be an integer, got 2.5"),
        (["--kind", "regular_polygon", "--params", "m=1e30"], "over the cap"),
        (["--kind", "circle", "--resolution", str(10**14)], "over the cap"),
        (["--kind", "random_closed", "--params", "n=16", "seed=7", "--dim", str(10**8)],
         "over the cap"),
    ])
    def test_gen_rejects_spec(self, params, message, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["gen"] + params + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not out.exists()


    def test_gen_integral_float_param(self, tmp_path):
        paths = [tmp_path / "int.json", tmp_path / "float.json"]
        for path, m in zip(paths, ("m=4", "m=4.0")):
            assert main(["gen", "--kind", "regular_polygon", "--params", m,
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestOneParser:
    def test_flags_do_not_leak_between_calls(self, circle_file, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_partition", lambda args: seen.append(args))
        main(["partition", circle_file, "--k", "4", "--shift", "0.1"])
        main(["partition", circle_file, "--k", "4"])
        assert (seen[0].shift, seen[1].shift) == (0.1, None)
        assert vars(seen[1]) == vars(cli.build_parser().parse_args(
            ["partition", circle_file, "--k", "4"]))

    def test_bad_argv_then_good_call(self, capsys):
        assert main(["bounds", "--kmax", "4"]) == 0
        first = capsys.readouterr().out
        for argv in (["bounds", "--kmax", "x"], ["bounds"], ["nope"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()
        assert main(["bounds", "--kmax", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_handler_rebound_after_first_call(self, monkeypatch, capsys):
        assert main(["bounds", "--kmax", "2"]) == 0
        monkeypatch.setattr(cli, "cmd_bounds",
                            lambda args: (None, {}, ("patched",), [], (), []))
        assert main(["bounds", "--kmax", "2", "--render", "csv"]) == 0
        assert capsys.readouterr().out.endswith("patched\n")


class TestDeterminism:
    def test_byte_identical_reports(self, circle_file, capsys):
        outs = []
        for _ in range(2):
            assert main(["partition", circle_file, "--k", "5",
                         "--mode", "optimized", "--render", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_gen_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            assert main(["gen", "--kind", "random_closed", "--params", "n=16",
                         "seed=7", "--dim", "3", "--out", str(p)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
