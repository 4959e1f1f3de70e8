"""Self-checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/selftest.py

Run from the checkout root.  Covers the BENCHMARK.json shape, the
independent output checks, the tracer's binding coverage, and one short
traced run per workload in which every per-layer function gets a span on
the workload that layers.json says does most of its work.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())["metrics"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCH["workloads"])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])
    assert [m["name"] for m in BENCH["per_layer"]] == list(LAYERS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])


def test_layer_table_names_known_metrics_and_workloads():
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for m in LAYERS.values():
        assert set(m["moves"]) <= e2e
        assert set(m["most_work"]) | set(m["not_move"]) <= set(run.WORKLOADS)


# --- independent output checks ---------------------------------------------

def _circle(n=64):
    theta = 2 * math.pi * np.arange(n) / n
    return checks.Polyline(np.column_stack((np.cos(theta), np.sin(theta))))


def test_polyline_evaluator_normalizes_and_measures_chords():
    square = checks.Polyline([[0, 0], [2, 0], [2, 2], [0, 2]])
    assert square.raw_length == pytest.approx(8.0)
    assert square.length == pytest.approx(1.0)
    assert square.chord(0.0, 0.5) == pytest.approx(math.sqrt(2) / 4)
    assert square.chord(0.125, 0.25) == pytest.approx(math.sqrt(2) / 8)


def test_solve_sk_matches_its_equation():
    for k in (3, 4, 7, 50):
        assert abs(checks.sk_residual(k, checks.solve_sk(k))) < 1e-15


def _uniform_report(curve, k, shift, nudge=0.0):
    starts = [(shift + i / k) % 1.0 for i in range(k)]
    lengths = [1 / k + float(curve.chord(t, 1 / k)) for t in starts]
    lengths[0] += nudge
    return {"pieces": [{"t_start": t, "length_frac": 1 / k, "piece_length": l}
                       for t, l in zip(starts, lengths)],
            "gamma": max(lengths), "shift_or_s": shift}


def test_partition_check_accepts_a_true_cover_and_rejects_a_wrong_one():
    curve = _circle()
    spec = {"k": 4, "mode": "uniform", "tol": 1e-6, "curve": "c"}
    good = _uniform_report(curve, 4, 0.01)
    assert checks.check_partition(spec, good, 0, lambda p: curve) == []
    bad = _uniform_report(curve, 4, 0.01, nudge=1e-6)
    assert "partition.piece_length" in checks.check_partition(spec, bad, 0, lambda p: curve)
    assert "partition.exit_status" in checks.check_partition(spec, good, 1, lambda p: curve)


def test_verify_check_separates_the_known_defect():
    s = 0.5
    bound = math.sin(math.pi * s) / math.pi
    row = {"s": s, "average_chord": bound - 1e-9, "bound": bound, "pass": True,
           "min_chord": {"chord": bound + 1e-7, "below_bound": False}}
    fails = checks.check_verify({"s": [s]}, {"results": [row]}, 1, None)
    assert fails and set(fails) <= checks.KNOWN_DEFECT
    far = dict(row, min_chord={"chord": bound + 1e-3, "below_bound": False})
    fails = checks.check_verify({"s": [s]}, {"results": [far]}, 1, None)
    assert "verify.min_chord_far_above_average_chord" in fails
    assert not set(fails) <= checks.KNOWN_DEFECT
    row = dict(row, average_chord=bound + 1e-6, **{"pass": False})
    fails = checks.check_verify({"s": [s]}, {"results": [row]}, 1, None)
    assert not set(fails) <= checks.KNOWN_DEFECT


def test_speed_scales_use_the_kernel_samples_around_each_job():
    ref = run.REF_KERNEL_S
    kernel_s = [[0.0, ref], [1.0, ref], [1.5, 5 * ref], [1.6, 5 * ref], [2.0, ref], [3.0, ref],
                [10.0, 2 * ref], [11.0, 2 * ref], [12.0, 2 * ref], [13.0, 2 * ref]]
    jobs = [{"t": 1.2, "s": 0.5}, {"t": 11.2, "s": 0.5}]
    assert run.speed_scales(kernel_s, jobs) == [1.0, 0.5]


# --- tracer coverage --------------------------------------------------------

def test_every_binding_is_wrapped_and_restored():
    import curvecover
    import curvecover.cli  # noqa: F401
    originals = tr.public_functions()
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert {fn for _, _, fn in originals} == set(tracer.wrappers)
        unwrapped = {id(fn) for fn in tracer.wrappers}
        modules = {m for m, _, _ in originals}
        assert curvecover in modules and len(modules) >= 8
        for mod in modules:
            for attr, val in vars(mod).items():
                assert id(val) not in unwrapped, f"{mod.__name__}.{attr} is unwrapped"
        # the same function bound in several modules shares one wrapper
        assert curvecover.chords.chord_length is curvecover.curve.chord_length
        assert curvecover.partition.chord_length is curvecover.chord_length
        assert getattr(curvecover.chord_length, "__wrapped_by_tracer__", False)
    finally:
        tracer.uninstall()
    for mod, attr, fn in originals:
        assert getattr(mod, attr) is fn


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, None, 0, None],
             ["chords.min_chord_start", 1.0, 4.0, 0, 0, None],
             ["curve.chord_length", 2.0, 3.0, 1, 0, {"points": 7}],
             ["b", 5.0, 6.0, 0, 0, None]]
    stats = tr.summarize(spans)
    assert stats["a"]["self_s"] == pytest.approx(6.0)
    assert stats["chords.min_chord_start"]["self_s"] == pytest.approx(2.0)
    assert stats["chords.min_chord_start"]["chord_points"] == 7


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_covers_its_layers(workload):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    record = json.loads((ROOT / ".perfbench" / "results"
                         / f"{workload}-seed1-trace1.json").read_text())
    assert record["trace_mismatches"] == []
    missing = sorted({m["span"] for m in LAYERS.values() if m["span"] and workload in m["most_work"]
                      and record["functions"].get(m["span"], {}).get("calls", 0) < 1})
    assert missing == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
