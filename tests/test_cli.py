import json
import math
from pathlib import Path

import pytest

from curvecover import (chords, cover_report, load_curve, optimized_partition,
                        solve_sk)
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

    def test_csv_render(self, capsys):
        assert main(["bounds", "--kmax", "3", "--render", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,lower,bkk_upper,new_upper,s_k"
        assert len(lines) == 4

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

    def test_csv_render(self, circle_file, capsys):
        assert main(["partition", circle_file, "--k", "3",
                     "--render", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t_start,length_frac,piece_length"
        assert len(lines) == 5  # header + 3 pieces + verdict comment


class TestLoadOnce:
    def test_raw_file_read_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "ellipse.json"
        assert main(["gen", "--kind", "ellipse", "--resolution", "512",
                     "--no-normalize", "--out", str(path)]) == 0
        reads = []
        read_text = Path.read_text

        def counting(self, *args, **kwargs):
            reads.append(self)
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)
        assert main(["partition", str(path), "--k", "5", "--mode", "optimized",
                     "--render", "json"]) == 0
        assert reads == [path]
        monkeypatch.undo()

        raw = load_curve(path)
        curve = load_curve(path, normalize=True)
        s_k, bound = solve_sk(5)
        expect = cover_report(curve, optimized_partition(curve, 5, 4096), bound,
                              s_k, tol=1e-6)
        expect["command"] = "partition"
        expect["notes"] = [
            f"input curve length {raw.length:.12g} != 1; auto-normalized"]
        assert capsys.readouterr().out == json.dumps(expect, sort_keys=True) + "\n"


class TestSweep:
    def test_circle_k3(self, circle_file, capsys):
        assert main(["sweep", circle_file, "--k", "3", "--samples", "100",
                     "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        betas = [r["beta"] for r in doc["rows"]]
        assert all(abs(b - 0.609) < 1e-3 for b in betas)
        assert doc["mean_beta_within_bound"] is True

    def test_csv_columns(self, square_file, capsys):
        assert main(["sweep", square_file, "--k", "4", "--samples", "64"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "shift,beta,gamma"
        assert len(lines) == 66

    def test_min_gamma_sample(self, square_file, capsys):
        assert main(["sweep", square_file, "--k", "4", "--samples", "1024",
                     "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert min(r["gamma"] for r in doc["rows"]) == pytest.approx(
            0.4268, abs=1e-3)

    def test_one_sample_rejected(self, circle_file):
        assert main(["sweep", circle_file, "--k", "3", "--samples", "1"]) == 2


class TestVerify:
    def test_circle_near_equality(self, circle_file, capsys):
        assert main(["verify", circle_file, "--s", "0.25",
                     "--render", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        res = doc["results"][0]
        assert res["pass"] is True
        assert res["near_equality"] is True
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
        if check == "average_chord":
            monkeypatch.setattr(chords, "average_chord",
                                lambda curve, s: bound + 1e-3)
        else:
            monkeypatch.setattr(chords, "min_chord_start",
                                lambda curve, s: (0.125, bound + 1e-3))
        assert main(["verify", square_file, "--s", "0.25"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"FAIL: {check} at s=0.25 ")
        assert err[0].endswith(" by 0.001")

    def test_tol_sets_the_slack(self, square_file, monkeypatch):
        bound = math.sin(math.pi * 0.25) / math.pi
        monkeypatch.setattr(chords, "min_chord_start",
                            lambda curve, s: (0.125, bound + 1e-3))
        assert main(["verify", square_file, "--s", "0.25"]) == 1
        assert main(["verify", square_file, "--s", "0.25", "--tol", "1e-2"]) == 0

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
