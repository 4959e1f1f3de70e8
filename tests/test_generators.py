import hashlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvecover import (CurveSpec, SplitMix64, chord_length, cover_metrics,
                        generate, uniform_partition)
from curvecover.cli import main
from curvecover.errors import BadSpec
from curvecover.generators import PARAMS


def _splitmix64_floats(seed, count):
    """Textbook splitmix64 on Python ints: the floats SplitMix64 must draw."""
    out, state = [], seed % 2**64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        out.append(((z ^ (z >> 31)) >> 11) * 2.0**-53)
    return out


class TestSplitMix64:
    def test_reference_stream(self):
        # splitmix64 reference outputs for seed 1234567
        rng = SplitMix64(1234567)
        assert rng.next_uint64() == 6457827717110365317
        assert rng.next_uint64() == 3203168211198807973
        assert rng.next_uint64() == 9817491932198370423

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(42)
        vals = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_array_draw_is_the_scalar_stream(self, seed):
        ref = _splitmix64_floats(seed, 5000)
        rng = SplitMix64(seed)
        assert [rng.next_float() for _ in range(5000)] == ref
        for count in range(1, 5001):
            assert SplitMix64(seed).next_floats(count).tolist() == ref[:count], count
        rng = SplitMix64(seed)  # a draw leaves the state where the stream goes on
        assert rng.next_floats(3).tolist() + [rng.next_float()] == ref[:4]


class TestGenerate:
    def test_circle_unit_perimeter(self):
        c = generate(CurveSpec("circle"))
        assert c.length == pytest.approx(1.0, abs=1e-9)
        assert chord_length(c, 0.1, 0.5) == pytest.approx(1 / math.pi, abs=1e-6)

    def test_rectangle_aspect_10(self):
        c = generate(CurveSpec("rectangle", {"aspect": 10.0}))
        sides = sorted(np.diff(c.cum_lengths))
        assert sides[0] == pytest.approx(1 / 22, abs=1e-12)
        assert sides[-1] == pytest.approx(10 / 22, abs=1e-12)
        gamma = cover_metrics(c, uniform_partition(c, 2, 0.0)).gamma
        assert gamma == pytest.approx(0.5 + 10 / 22, abs=0.005)
        # longer and thinner pushes gamma toward 1
        gamma100 = cover_metrics(
            generate(CurveSpec("rectangle", {"aspect": 100.0})),
            uniform_partition(generate(CurveSpec("rectangle", {"aspect": 100.0})),
                              2, 0.0)).gamma
        assert gamma100 > gamma

    def test_square_polygon(self):
        c = generate(CurveSpec("regular_polygon", {"m": 4}))
        assert c.n == 4
        assert c.length == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(c.params[:-1], [0.0, 0.25, 0.5, 0.75], atol=1e-12)

    def test_random_deterministic(self):
        spec = CurveSpec("random_closed", {"n": 16, "seed": 99}, dim=3)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.vertices, b.vertices)

    def test_random_closed_bits_pinned(self):
        # the vertices as the scalar splitmix64 stream drew them, one by one
        c = generate(CurveSpec("random_closed", {"n": 4096, "seed": 7}, dim=5))
        assert hashlib.sha256(c.vertices.tobytes()).hexdigest() == (
            "3454e39f65856e83ac9a1e0997094f3cceaadcbf0b7f038592ca7d99284615f9")

    def test_dimension_padding(self):
        c = generate(CurveSpec("circle", dim=4, resolution=64))
        assert c.dim == 4
        assert np.all(c.vertices[:, 2:] == 0.0)

    def test_unnormalized(self):
        c = generate(CurveSpec("regular_polygon", {"m": 6}, normalize=False))
        assert c.length == pytest.approx(6.0, abs=1e-9)

    def test_corpus_valid(self, corpus):
        for name, curve in corpus.items():
            assert curve.is_unit_length, name
            assert curve.n >= 3

    @pytest.mark.parametrize("spec", [
        CurveSpec("blob"),
        CurveSpec("ellipse", {"a": -1.0}),
        CurveSpec("rectangle", {"aspect": 0.0}),
        CurveSpec("regular_polygon", {"m": 2}),
        CurveSpec("random_closed", {"n": 3, "seed": 1}),
        CurveSpec("random_closed", {"n": 16}),
        CurveSpec("circle", resolution=2),
        CurveSpec("circle", dim=1),
        CurveSpec("lissajous3d", {"freq_a": 0}),
        CurveSpec("circle", resolution=4.5),
        CurveSpec("circle", resolution=True),
        CurveSpec("circle", dim=2.5),
        CurveSpec("circle", dim=True),
        CurveSpec("random_closed", {"n": 8, "seed": 1}, dim=2.5),
        CurveSpec("random_closed", {"n": 8, "seed": 1}, dim=1),
        CurveSpec("regular_polygon", {"m": 6}, normalize="no"),
        CurveSpec("regular_polygon", {"m": 6}, normalize=None),
        CurveSpec("regular_polygon", {"m": 6}, normalize=1),
        CurveSpec("regular_polygon", {"m": 6}, normalize=0.0),
    ])
    def test_bad_specs(self, spec):
        with pytest.raises(BadSpec):
            generate(spec)

    @pytest.mark.parametrize("kind, params, dim", [
        ("circle", {}, 1), ("circle", {}, 0), ("lissajous3d", {}, 1.0),
        ("random_closed", {"n": 8, "seed": 1}, 1), ("random_closed", {"n": 8, "seed": 1}, -3)])
    def test_dim_below_two_refused(self, kind, params, dim):
        msg = f"{kind} dim must be >= 2, got {int(dim)}"
        with pytest.raises(BadSpec, match=re.escape(msg) + "$"):
            generate(CurveSpec(kind, params, dim=dim))

    def test_dim_below_the_curves_own(self):
        with pytest.raises(BadSpec, match="cannot embed a 3-d curve in 2 dimensions"):
            generate(CurveSpec("lissajous3d", dim=2))

    @pytest.mark.parametrize("spec", [
        CurveSpec("regular_polygon", {"m": 1e30}),
        CurveSpec("circle", resolution=10**14),
        CurveSpec("random_closed", {"n": 16, "seed": 7}, dim=10**8),
    ])
    def test_size_cap_rejects_before_allocating(self, spec):
        tracemalloc.start()
        try:
            with pytest.raises(BadSpec, match="over the cap of 33554432 coordinates"):
                generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("kind, key, value", [
        ("regular_polygon", "m", 3.5), ("regular_polygon", "m", math.inf),
        ("regular_polygon", "m", math.nan), ("regular_polygon", "m", "5"),
        ("regular_polygon", "m", True), ("random_closed", "n", 8.9),
        ("random_closed", "seed", 1.5), ("lissajous3d", "freq_a", 2.5),
        ("lissajous3d", "freq_b", "4"),
    ])
    def test_integer_params_must_be_integers(self, kind, key, value):
        params = {"n": 8, "seed": 1} if kind == "random_closed" else {}
        params[key] = value
        msg = f"{kind} param {key!r} must be an integer, got {value!r}"
        with pytest.raises(BadSpec, match=re.escape(msg)):
            generate(CurveSpec(kind, params))

    # "resolution" and "dim" are CurveSpec fields, the other keys params
    @pytest.mark.parametrize("kind, params", [
        ("regular_polygon", {"m": 4}), ("random_closed", {"n": 8, "seed": 1}),
        ("lissajous3d", {"freq_a": 2, "freq_b": 5}), ("circle", {"resolution": 64}),
        ("circle", {"dim": 3}), ("random_closed", {"n": 8, "seed": 1, "dim": 3})])
    def test_integral_floats_accepted(self, kind, params):
        def spec(cast):
            values = {key: cast(v) for key, v in params.items()}
            fields = {key: values.pop(key) for key in ("resolution", "dim")
                      if key in values}
            return CurveSpec(kind, values, **fields)

        assert (generate(spec(float)).vertices.tobytes()
                == generate(spec(int)).vertices.tobytes())

    @pytest.mark.parametrize("kind, params, reads", [
        ("circle", {"bogus": 1}, "none"),
        ("rectangle", {"aspct": 10}, "['aspect']"),
        ("ellipse", {"a": 2.0, "c": 1.0}, "['a', 'b']"),
        ("random_closed", {"n": 8, "seed": 1, "m": 5}, "['n', 'seed']"),
    ])
    def test_unknown_params_rejected(self, kind, params, reads):
        with pytest.raises(BadSpec, match=r"reads " + re.escape(reads)):
            generate(CurveSpec(kind, params))


# the values tried in each param, resolution and dim: 2**53 + 1 rounds to a
# float, 10**309 does not fit one
POOL = [0, -1, 3, 4.0, 4.5, 2**53 + 1, 10**309, math.inf, -math.inf, math.nan,
        True, "3", None, 1j]


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_spec_value_builds_or_is_refused(data, tmp_path, capsys):
    kind = data.draw(st.sampled_from(list(PARAMS)))
    field = data.draw(st.sampled_from([*PARAMS[kind], "resolution", "dim"]))
    value = data.draw(st.sampled_from(POOL))
    # at most 64 vertices x dim 3, unless the cap refuses the spec
    spec = {"params": {"n": 8, "seed": 1} if kind == "random_closed" else {},
            "resolution": 64, "dim": None}
    if field in ("resolution", "dim"):
        spec[field] = value
    else:
        spec["params"][field] = value
    try:
        assert generate(CurveSpec(kind, **spec)).n >= 3
    except BadSpec:
        pass
    # on the command line every value is a string; argparse itself refuses a
    # --resolution or --dim that is not an int, with its usage lines
    if field in ("resolution", "dim") and type(value) is not int:
        return
    argv = ["gen", "--kind", kind, "--params",
            *[f"{key}={v}" for key, v in spec["params"].items()],
            "--resolution", str(spec["resolution"]),
            *(["--dim", str(spec["dim"])] if spec["dim"] is not None else []),
            "--out", str(tmp_path / "c.json")]
    capsys.readouterr()
    assert main(argv) in (0, 2)
    assert len(capsys.readouterr().err.splitlines()) <= 1


def test_readme_lists_each_kinds_params():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| `--kind` | keys |\n|---|---|\n")[1].split("\n\n")[0]
    rows = [re.fullmatch(r"\| `(\w+)` \| (.+) \|", row).groups()
            for row in table.splitlines()]
    assert {kind: re.findall(r"`(\w+)`", keys) for kind, keys in rows} == {
        kind: list(keys) for kind, keys in PARAMS.items()}
