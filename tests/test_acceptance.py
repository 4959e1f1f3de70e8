"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Criteria 1 and 2 include reference rendered values for the optimized
upper bound at k=4 and k=7 that disagree with ceiling-rounding of the
exact root of the defining equation (0.4929659... and 0.2850055...);
those sub-checks fail and are intentionally not relaxed.
"""

import math
import time

import numpy as np

from curvecover import (QuadratureConfig, average_chord, best_uniform_shift,
                        beta_extremal, chord_length, cover_metrics,
                        gamma_upper_refined, min_chord_start,
                        optimized_partition, rendered_rows, solve_sk, table1,
                        theorem2_partition, uniform_partition)
from curvecover.bounds import round_up3

EXPECTED_LOWER = [1.0, 0.818, 0.609, 0.475, 0.387,
                  0.325, 0.281, 0.246, 0.220, 0.198]
EXPECTED_BKK = [1.0, 0.818, 0.737, 0.670, 0.634,
                0.603, 0.574, 0.548, 0.533, 0.519]
EXPECTED_NEW = [0.644, 0.494, 0.398, 0.333, 0.285, 0.250, 0.222, 0.200]


def finish(name, failures, started, limit=None):
    elapsed = time.time() - started
    verdict = "PASS" if not failures else "FAIL"
    print(f"[{name}] {verdict} ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"{name} exceeded {limit}s ({elapsed:.2f}s)"
    assert not failures, f"{name}: {failures}"


def test_criterion_1_table_reproduction():
    t0 = time.time()
    lo, bkk, new = rendered_rows(table1(10))
    failures = []
    for k, (got, want) in enumerate(zip(lo, EXPECTED_LOWER), start=1):
        if got != want:
            failures.append(f"lower k={k}: {got} != {want}")
    for k, (got, want) in enumerate(zip(bkk, EXPECTED_BKK), start=1):
        if got != want:
            failures.append(f"bkk k={k}: {got} != {want}")
    for k, (got, want) in enumerate(zip(new[2:], EXPECTED_NEW), start=3):
        if got != want:
            failures.append(f"new k={k}: {got} != {want}")
    finish("CRITERION 1", failures, t0, limit=1.0)


def test_criterion_2_root_solver():
    table1(10)  # warm path; timing covers the solves below
    t0 = time.time()
    failures = []
    for k in range(3, 11):
        s, bound = solve_sk(k)
        resid = s + math.sin(math.pi * s) / math.pi - 2 * (1 - s) / (k - 1)
        if abs(resid) >= 1e-12:
            failures.append(f"k={k}: residual {resid}")
        want = EXPECTED_NEW[k - 3]
        if round_up3(bound) != want:
            failures.append(f"k={k}: ceil({bound!r}) = {round_up3(bound)} != {want}")
    finish("CRITERION 2", failures, t0, limit=0.01)


def test_criterion_3_average_chord_inequality(corpus):
    t0 = time.time()
    failures = []
    for name, curve in corpus.items():
        for s in (0.05, 0.1, 0.25, 0.4, 0.5):
            val = average_chord(curve, s)
            bound = math.sin(math.pi * s) / math.pi
            if val > bound + 1e-9:
                failures.append(f"{name} s={s}: {val} > {bound}")
    gap = math.sin(math.pi * 0.25) / math.pi - average_chord(corpus["circle"], 0.25)
    if not (0 <= gap < 1e-4):
        failures.append(f"circle equality gap {gap}")
    for name in ("square", "ellipse_2_1"):
        gap = math.sin(math.pi * 0.25) / math.pi - average_chord(corpus[name], 0.25)
        if gap <= 1e-3:
            failures.append(f"{name} not strict: gap {gap}")
    finish("CRITERION 3", failures, t0, limit=30.0)


def test_criterion_4_proposition_2_over_k(corpus):
    t0 = time.time()
    failures = []
    for name, curve in corpus.items():
        for k in range(2, 13):
            shifts = np.arange(64) / (64 * k)
            starts = np.mod(shifts[:, None] + np.arange(k)[None, :] / k, 1.0)
            chords = np.asarray(
                chord_length(curve, starts.ravel(), 1.0 / k)).reshape(starts.shape)
            gammas = (1.0 / k + chords).max(axis=1)
            worst = float(gammas.max())
            if worst > 2.0 / k + 1e-9:
                failures.append(f"{name} k={k}: gamma {worst} > {2.0/k}")
    finish("CRITERION 4", failures, t0)


def test_criterion_5_averaging(corpus):
    t0 = time.time()
    failures = []
    for name, curve in corpus.items():
        for k in range(2, 11):
            bound = beta_extremal(k)
            shifts = np.arange(1024) / (1024 * k)
            starts = np.mod(shifts[:, None] + np.arange(k)[None, :] / k, 1.0)
            chords = np.asarray(
                chord_length(curve, starts.ravel(), 1.0 / k)).reshape(starts.shape)
            betas = 1.0 / k + chords.mean(axis=1)
            mean_beta = float(betas.mean())
            if mean_beta > bound + 1e-6:
                failures.append(f"{name} k={k}: mean beta {mean_beta} > {bound}")
            _, cover = best_uniform_shift(curve, k, "avg")
            best = cover_metrics(curve, cover).beta
            if best > bound + 1e-6:
                failures.append(f"{name} k={k}: best beta {best} > {bound}")
    finish("CRITERION 5", failures, t0)


def test_criterion_6_construction_certificates(corpus):
    t0 = time.time()
    failures = []
    for name, curve in corpus.items():
        for k in range(3, 11):
            g2 = cover_metrics(curve, theorem2_partition(curve, k)).gamma
            if g2 > gamma_upper_refined(k) + 1e-6:
                failures.append(f"{name} k={k} theorem2: {g2}")
            g_opt = cover_metrics(curve, optimized_partition(curve, k)).gamma
            if g_opt > solve_sk(k)[1] + 1e-6:
                failures.append(f"{name} k={k} optimized: {g_opt}")
    finish("CRITERION 6", failures, t0, limit=60.0)


def test_criterion_7_oracle_equivalence(corpus):
    t0 = time.time()
    failures = []
    cfg = QuadratureConfig("sampled")
    for name, curve in corpus.items():
        for s in (0.05, 0.25, 0.5):
            exact = average_chord(curve, s)
            sampled = average_chord(curve, s, cfg)
            if abs(exact - sampled) > 1e-6:
                failures.append(f"{name} s={s}: |{exact} - {sampled}| > 1e-6")
    for name in ("square", "circle"):
        curve = corpus[name]
        for s in (0.25, 0.3):
            _, chord = min_chord_start(curve, s)
            grid = np.arange(1_000_000) / 1_000_000
            brute = float(np.min(chord_length(curve, grid, s)))
            if abs(chord - brute) > 1e-6:
                failures.append(f"{name} s={s}: min {chord} vs brute {brute}")
    finish("CRITERION 7", failures, t0)


def test_criterion_8_closed_form_spot_checks(corpus):
    t0 = time.time()
    failures = []
    val = average_chord(corpus["square"], 0.5)
    want = (math.sqrt(2) + math.log(1 + math.sqrt(2))) / 8
    if abs(val - want) > 1e-9:
        failures.append(f"square avg chord {val} vs {want}")
    piece = cover_metrics(
        corpus["circle"], uniform_partition(corpus["circle"], 4, 0.0)).gamma
    want = 0.25 + math.sin(math.pi / 4) / math.pi
    if abs(piece - want) > 1e-6:
        failures.append(f"circle k=4 piece {piece} vs {want}")
    finish("CRITERION 8", failures, t0)
