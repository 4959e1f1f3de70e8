"""Coverings of closed curves in R^d by k closed curves."""

from .bounds import (BoundsRow, beta_extremal, bkk_table, gamma_upper_refined,
                     gamma_upper_simple, idle_time_lower, rendered_rows,
                     sin_taylor_upper, solve_sk, table1)
from .chords import QuadratureConfig, average_chord, golden_section, min_chord_start
from .curve import ClosedCurve, build_curve, chord_length, point_at
from .curveio import load_curve, save_curve
from .generators import CurveSpec, SplitMix64, generate
from .partition import (Arc, Cover, CoverMetrics, best_uniform_shift, cover_metrics,
                        cover_piece_length, cover_report, optimized_partition,
                        theorem2_partition, uniform_partition)

__all__ = [
    "Arc", "BoundsRow", "ClosedCurve", "Cover", "CoverMetrics", "CurveSpec",
    "QuadratureConfig", "SplitMix64", "average_chord", "best_uniform_shift",
    "beta_extremal", "bkk_table", "build_curve", "chord_length",
    "cover_metrics", "cover_piece_length", "cover_report", "gamma_upper_refined",
    "gamma_upper_simple", "generate", "golden_section", "idle_time_lower",
    "load_curve", "min_chord_start", "optimized_partition", "point_at",
    "rendered_rows", "save_curve", "sin_taylor_upper", "solve_sk", "table1",
    "theorem2_partition", "uniform_partition",
]
