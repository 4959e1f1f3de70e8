"""The Verdict type, and a targeted search for a curve that refutes a verdict."""

import ast
import dataclasses
import functools
import json
import math
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import curvecover
from curvecover import build_curve, cli, save_curve
from curvecover.chords import Verdict, _verdict
from curvecover.errors import DegenerateCurve


def test_verdict_rule_and_margin(square):
    v = _verdict(square, 0.3, 0.25)
    assert (v.value, v.bound) == (0.3, 0.25)
    at = Verdict(0.25 + v.err, 0.25, v.err)
    assert at.passes  # value = bound + err passes
    assert not Verdict(math.nextafter(at.value, math.inf), 0.25, v.err).passes
    assert v.margin == 0.25 - 0.3 and not v.passes


def test_verdict_is_frozen_and_not_a_tuple(square):
    v = _verdict(square, 0.1, 0.2)
    with pytest.raises(TypeError):
        v[1]  # an index left from the (passes, err) pair fails loudly
    with pytest.raises(TypeError):
        tuple(v)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.err = 0.0
    assert "Verdict" not in curvecover.__all__  # reports are the public interface


@st.composite
def polylines(draw):
    """A closed polyline of 4-64 vertices in R^2..R^5: random points in [-1, 1]^d,
    or a regular m-gon with small per-vertex jitter, where the chord verdicts
    come near equality."""
    d, n = draw(st.integers(2, 5)), draw(st.integers(4, 64))
    pts = draw(arrays(float, (n, d), elements=st.floats(-1.0, 1.0)))
    if draw(st.booleans()):  # the m-gon in the first plane, pts its jitter
        angle = 2.0 * np.pi * np.arange(n) / n
        pts *= draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]))
        pts[:, 0] += np.cos(angle)
        pts[:, 1] += np.sin(angle)
    try:
        return build_curve(pts)
    except DegenerateCurve:  # fewer than 3 distinct vertices
        assume(False)


@pytest.fixture(scope="module")
def curve_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("refute") / "curve.json")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(polylines(), st.floats(1e-3, 0.5), st.integers(3, 13),
       st.floats(0.0, 1.0, exclude_max=True))
def test_no_verdict_is_refuted(curve_path, curve, s, k, shift):
    # every verdict the CLI judges, as its commands return them, on the file of
    # a raw curve that they auto-normalize: the paper's theorems say each
    # passes, so the search steers toward the least margin over err
    save_curve(curve, curve_path)
    runs = [("verify", cli.cmd_verify(Namespace(curve=curve_path, s=[s]))),
            ("sweep", cli.cmd_sweep(Namespace(curve=curve_path, k=k, samples=2)))]
    runs += [(mode, cli.cmd_partition(Namespace(curve=curve_path, k=k, mode=mode,
                                                shift=shift if mode == "uniform" else None)))
             for mode in ("uniform", "best", "theorem2", "optimized")]
    for command, (*_, verdicts) in runs:
        for check, _, v in verdicts:
            label = f"{command} {check.split(' at ')[0]}"
            target(-v.margin / v.err, label=label)
            assert v.passes, (label, v)


def _readme_verdict_map():
    """(command and view, [value, bound, pass, err keys]) rows of README's table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    head = "| command and view | value | bound | pass | err |\n|---|---|---|---|---|\n"
    for row in readme.split(head)[1].split("\n\n")[0].splitlines():
        view, *keys = (cell.strip() for cell in row.strip("|").split("|"))
        yield view, [key.strip("`") for key in keys]


def test_readme_verdict_map(tmp_path, monkeypatch, capsys):
    # each key the README names holds the value, bound, pass or err of the
    # Verdict its command returned
    path = tmp_path / "square.json"
    save_curve(build_curve([(0, 0), (1, 0), (1, 1), (0, 1)]), path)
    argv = {"partition": ["--k", "3", "--mode", "theorem2"],
            "sweep": ["--k", "3", "--samples", "4"], "verify": ["--s", "0.25"]}
    returned = []
    for command in argv:
        monkeypatch.setattr(cli, "cmd_" + command, lambda args, cmd=getattr(
            cli, "cmd_" + command): returned.append(cmd(args)) or returned[-1])
    rows = list(_readme_verdict_map())
    assert len(rows) == 7
    for view, keys in rows:
        command = view.split("`")[1]
        render = "csv" if "CSV" in view else "json"
        assert cli.main([command, str(path), *argv[command], "--render", render]) == 0
        out = capsys.readouterr().out
        if render == "json":
            record = json.loads(out)
            record = record["results"][0] if command == "verify" else record
        elif command == "verify":  # the row of s = 0.25
            record = {k: ast.literal_eval(x) for k, x in
                      zip(*(line.split(",") for line in out.splitlines()[:2]))}
        else:  # the trailer, '# name=value ...'
            record = {k: ast.literal_eval(x) for k, x in
                      (pair.split("=") for pair in out.splitlines()[-1][2:].split())}
        v = returned[-1][-1]["minimum" in view][2]
        got = [functools.reduce(dict.__getitem__, key.split("."), record) for key in keys]
        assert got == [v.value, v.bound, v.passes, v.err], view
