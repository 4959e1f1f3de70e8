import warnings

import pytest

from curvecover import CurveSpec, build_curve, generate

# A failing @given test makes hypothesis import this module to explain the
# failure, and its libcst import warns DeprecationWarning, which -W
# error::DeprecationWarning turns into an INTERNALERROR that stops the whole
# run.  Imported here once, with that warning ignored for this third-party
# import only, a failing property test fails as one test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def make_corpus():
    """The standard test corpus: one curve per generator family."""
    return {
        "circle": generate(CurveSpec("circle")),
        "ellipse_2_1": generate(CurveSpec("ellipse", {"a": 2.0, "b": 1.0})),
        "square": build_curve(UNIT_SQUARE, normalize=True),
        "rectangle_10": generate(CurveSpec("rectangle", {"aspect": 10.0})),
        "random_d2": generate(CurveSpec("random_closed", {"n": 16, "seed": 2}, dim=2)),
        "random_d3": generate(CurveSpec("random_closed", {"n": 16, "seed": 3}, dim=3)),
        "random_d5": generate(CurveSpec("random_closed", {"n": 16, "seed": 5}, dim=5)),
        "lissajous3d": generate(CurveSpec("lissajous3d", {"freq_a": 3, "freq_b": 4})),
    }


@pytest.fixture(scope="session")
def corpus():
    return make_corpus()


@pytest.fixture(scope="session")
def circle(corpus):
    return corpus["circle"]


@pytest.fixture(scope="session")
def square(corpus):
    return corpus["square"]


@pytest.fixture(scope="session")
def random4k():
    """A 4,096-vertex random closed curve in R^5, where grid searches miss."""
    return generate(CurveSpec("random_closed", {"n": 4096, "seed": 7}, dim=5))


@pytest.fixture(scope="session")
def ellipse262k():
    """The 262,144-vertex unit-length 2:1 ellipse: many blocks of cells and
    many parse chunks of its file."""
    return generate(CurveSpec("ellipse", {"a": 2.0, "b": 1.0}, resolution=262144,
                              normalize=True))
