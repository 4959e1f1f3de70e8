"""Test-curve corpus: circles, ellipses, rectangles, polygons, random
closed polylines, and a closed space curve.

Random curves use an in-repo splitmix64 stream, drawn as one uint64 array,
so the same spec yields bit-identical vertices on every platform.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import ClosedCurve, _Owned, build_curve
from .errors import BadSpec, DegenerateCurve, _number

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the state's step per draw
_ROUNDS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))  # xor-shift, multiply


class SplitMix64:
    """Portable 64-bit pseudorandom stream (splitmix64)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def _draw(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as one uint64 array: state_i = state + i
        gamma, i = 1..count, mixed.  Every operand is uint64, so products wrap
        mod 2^64 silently and no Python int turns them float64 (numpy < 2)."""
        u = np.uint64
        z = np.arange(1, count + 1, dtype=u) * u(_GAMMA)
        z += u(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        for shift, mult in _ROUNDS:
            z ^= z >> u(shift)
            z *= u(mult)
        return z ^ (z >> u(31))

    def next_uint64(self) -> int:
        return int(self._draw(1)[0])

    def next_float(self) -> float:
        return float(self.next_floats(1)[0])

    def next_floats(self, count: int) -> np.ndarray:
        """``count`` next_float draws as one array: 53 uniform bits in [0, 1) each."""
        return (self._draw(count) >> np.uint64(11)) * 2.0**-53


# each kind's params and their defaults; generate rejects any other key.  A
# float default marks a real param, an int or None (no default) an integer one
PARAMS = {"circle": {}, "ellipse": {"a": 2.0, "b": 1.0}, "rectangle": {"aspect": 1.0},
          "regular_polygon": {"m": 3}, "random_closed": {"n": None, "seed": None},
          "lissajous3d": {"freq_a": 3, "freq_b": 4}}
KINDS = tuple(PARAMS)
_MAX_COORDS = 2**25  # the most vertices x dim generate builds: 256 MiB of floats


@dataclass(frozen=True)
class CurveSpec:
    """Recipe for one corpus curve.

    ``params`` is kind-specific: ellipse semi-axes ``a``/``b``,
    rectangle ``aspect``, polygon side count ``m``, random vertex count
    ``n`` and ``seed``, lissajous frequencies ``freq_a``/``freq_b``
    (``PARAMS`` holds each kind's keys and defaults); any other key is
    rejected.  Every param, ``resolution`` and ``dim`` is a finite real that
    fits a float, never a bool or str; ``resolution``, ``dim`` and the
    integer params must be integral (``4.0`` is accepted).  ``normalize`` is
    True or False, nothing read by its truth value.
    """

    kind: str
    params: dict = field(default_factory=dict)
    resolution: int = 4096
    dim: int | None = None
    normalize: bool = True


def generate(spec: CurveSpec) -> ClosedCurve:
    """Build the curve described by a spec; deterministic in the spec.  A spec
    it cannot build, its curve degenerate included, raises BadSpec."""
    kind = spec.kind
    if kind not in KINDS:
        raise BadSpec(f"unknown kind {kind!r}")
    if not isinstance(spec.normalize, bool):  # by its truth value, "no" would normalize
        raise BadSpec(f"{kind} normalize must be True or False, got {spec.normalize!r}")
    unknown = sorted(set(spec.params) - set(PARAMS[kind]))
    if unknown:
        raise BadSpec(f"{kind} does not read params {unknown}; it reads "
                      f"{list(PARAMS[kind]) or 'none'}")
    p = {}
    for key, default in PARAMS[kind].items():
        if key not in spec.params and default is None:
            raise BadSpec(f"{kind} needs param {key!r}")
        p[key] = _number(spec.params.get(key, default), f"{kind} param {key!r}",
                         not isinstance(default, float), BadSpec)
    resolution = _number(spec.resolution, f"{kind} resolution", True, BadSpec)
    dim = None if spec.dim is None else _number(spec.dim, f"{kind} dim", True, BadSpec)
    if dim is not None and dim < 2:
        raise BadSpec(f"{kind} dim must be >= 2, got {dim}")
    count = {"rectangle": 4, "regular_polygon": p.get("m"),
             "random_closed": p.get("n")}.get(kind, resolution)
    if count * (dim or 3) > _MAX_COORDS:
        raise BadSpec(f"{count:g} vertices x dim {dim or 3} is over the cap of "
                      f"{_MAX_COORDS} coordinates")
    least = 4 if kind == "random_closed" else 3
    if count < least:
        raise BadSpec(f"{kind} needs at least {least} vertices, got {count}")
    if kind != "random_closed" and min(p.values(), default=1) <= 0:
        raise BadSpec(f"{kind} params must be positive, got {p}")
    if kind == "rectangle":
        pts = np.array([[0.0, 0.0], [p["aspect"], 0.0], [p["aspect"], 1.0], [0.0, 1.0]])
    elif kind == "random_closed":
        d = dim or 2
        pts = SplitMix64(p["seed"]).next_floats(count * d).reshape(count, d)
        if np.any(np.linalg.norm(np.diff(np.vstack((pts, pts[:1])), axis=0),
                                 axis=1) < 1e-12):
            raise BadSpec("seed produced coincident consecutive points")
    else:  # sampled at theta = 2 pi j / count
        theta = 2.0 * math.pi * np.arange(count) / count
        if kind == "lissajous3d":
            pts = np.column_stack((np.cos(theta), np.sin(p["freq_a"] * theta),
                                   np.cos(p["freq_b"] * theta)))
        else:  # circle, ellipse and polygon: (a cos, b sin), a = b = 1 but for the ellipse
            pts = np.column_stack((p.get("a", 1.0) * np.cos(theta),
                                   p.get("b", 1.0) * np.sin(theta)))

    d_in = pts.shape[1]
    if dim is not None:
        if dim < d_in:
            raise BadSpec(f"cannot embed a {d_in}-d curve in {dim} dimensions")
        if dim > d_in:
            pts = np.hstack((pts, np.zeros((len(pts), dim - d_in))))
    try:  # such as lissajous3d at resolution 3, whose samples coincide
        return build_curve(pts.view(_Owned), normalize=spec.normalize)
    except DegenerateCurve as e:
        raise BadSpec(f"{kind} spec builds a degenerate curve: {e}") from None
