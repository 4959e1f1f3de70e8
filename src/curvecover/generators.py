"""Test-curve corpus: circles, ellipses, rectangles, polygons, random
closed polylines, and a closed space curve.

Random curves use an in-repo splitmix64 stream so the same spec yields
bit-identical vertices on every platform.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .curve import ClosedCurve, build_curve
from .errors import BadSpec

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Portable 64-bit pseudorandom stream (splitmix64)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        # 53 uniform bits in [0, 1)
        return (self.next_uint64() >> 11) * 2.0**-53


# the params each kind reads; generate rejects any other key
PARAMS = {"circle": (), "ellipse": ("a", "b"), "rectangle": ("aspect",),
          "regular_polygon": ("m",), "random_closed": ("n", "seed"),
          "lissajous3d": ("freq_a", "freq_b")}
KINDS = tuple(PARAMS)
# the params that take integers, as do resolution and dim; an integral float
# such as 4.0 is accepted
_INTEGER_PARAMS = ("m", "n", "seed", "freq_a", "freq_b")
_MAX_COORDS = 2**25  # the most vertices x dim generate builds: 256 MiB of floats


@dataclass(frozen=True)
class CurveSpec:
    """Recipe for one corpus curve.

    ``params`` is kind-specific: ellipse semi-axes ``a``/``b``,
    rectangle ``aspect``, polygon side count ``m``, random vertex count
    ``n`` and ``seed``, lissajous frequencies ``freq_a``/``freq_b``
    (``PARAMS``); any other key is rejected.
    """

    kind: str
    params: dict = field(default_factory=dict)
    resolution: int = 4096
    dim: int | None = None
    normalize: bool = True


def _smooth_points(spec: CurveSpec) -> np.ndarray:
    n = spec.resolution
    theta = 2.0 * math.pi * np.arange(n) / n
    if spec.kind == "circle":
        return np.column_stack((np.cos(theta), np.sin(theta)))
    if spec.kind == "ellipse":
        a = float(spec.params.get("a", 2.0))
        b = float(spec.params.get("b", 1.0))
        if a <= 0 or b <= 0:
            raise BadSpec("ellipse semi-axes must be positive")
        return np.column_stack((a * np.cos(theta), b * np.sin(theta)))
    # lissajous3d
    fa = int(spec.params.get("freq_a", 3))
    fb = int(spec.params.get("freq_b", 4))
    if fa < 1 or fb < 1:
        raise BadSpec("lissajous frequencies must be positive integers")
    return np.column_stack((np.cos(theta), np.sin(fa * theta),
                            np.cos(fb * theta)))


def generate(spec: CurveSpec) -> ClosedCurve:
    """Build the curve described by a spec; deterministic in the spec."""
    if spec.kind not in KINDS:
        raise BadSpec(f"unknown kind {spec.kind!r}")
    unknown = sorted(set(spec.params) - set(PARAMS[spec.kind]))
    if unknown:
        raise BadSpec(f"{spec.kind} does not read params {unknown}; it reads "
                      f"{list(PARAMS[spec.kind]) or 'none'}")
    named = [(f"param {key!r}", v) for key, v in spec.params.items()
             if key in _INTEGER_PARAMS]
    named.append(("resolution", spec.resolution))
    if spec.dim is not None:
        named.append(("dim", spec.dim))
    for name, v in named:
        whole = isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()
        if isinstance(v, bool) or not whole:
            raise BadSpec(f"{spec.kind} {name} must be an integer, got {v!r}")
    spec = replace(spec, resolution=int(spec.resolution),
                   dim=None if spec.dim is None else int(spec.dim))
    count = {"rectangle": 4, "regular_polygon": spec.params.get("m", 3),
             "random_closed": spec.params.get("n", 0)}.get(spec.kind, spec.resolution)
    if count * (spec.dim or 3) > _MAX_COORDS:
        raise BadSpec(f"{count:g} vertices x dim {spec.dim or 3} is over the cap of "
                      f"{_MAX_COORDS} coordinates")
    if spec.kind in ("circle", "ellipse", "lissajous3d"):
        if spec.resolution < 3:
            raise BadSpec("resolution must be >= 3")
        pts = _smooth_points(spec)
    elif spec.kind == "rectangle":
        aspect = float(spec.params.get("aspect", 1.0))
        if aspect <= 0:
            raise BadSpec("aspect must be positive")
        pts = np.array([[0.0, 0.0], [aspect, 0.0], [aspect, 1.0], [0.0, 1.0]])
    elif spec.kind == "regular_polygon":
        m = int(spec.params.get("m", 3))
        if m < 3:
            raise BadSpec("polygon needs at least 3 sides")
        theta = 2.0 * math.pi * np.arange(m) / m
        pts = np.column_stack((np.cos(theta), np.sin(theta)))
    else:  # random_closed
        n = int(spec.params.get("n", 0))
        if n < 4:
            raise BadSpec("random_closed needs n >= 4")
        if "seed" not in spec.params:
            raise BadSpec("random_closed needs a seed")
        d = spec.dim if spec.dim is not None else 2
        if d < 2:
            raise BadSpec("dimension must be >= 2")
        rng = SplitMix64(int(spec.params["seed"]))
        pts = np.array([[rng.next_float() for _ in range(d)] for _ in range(n)])
        if np.any(np.linalg.norm(np.diff(np.vstack((pts, pts[:1])), axis=0),
                                 axis=1) < 1e-12):
            raise BadSpec("seed produced coincident consecutive points")

    d_in = pts.shape[1]
    if spec.dim is not None and spec.kind != "random_closed":
        if spec.dim < d_in:
            raise BadSpec(f"cannot embed a {d_in}-d curve in {spec.dim} dimensions")
        if spec.dim > d_in:
            pts = np.hstack((pts, np.zeros((len(pts), spec.dim - d_in))))
    return build_curve(pts, normalize=spec.normalize)
