"""Memory of the large-curve steps: beyond the curve itself and one file
text, no step allocates more than a few blocks of rows or cells.

Tracemalloc peaks on the 262,144-vertex ellipse, whose vertices take 4 MiB,
its JSON file 11.3 MiB and its 524,288 cells 4 MiB per per-cell array.
Building the whole text, list or (cells, d) temporaries at once, as these
steps once did, peaked at 50-78 MiB.
"""

import tracemalloc

import pytest

from curvecover import average_chord, load_curve, min_chord_start, save_curve
from curvecover.chords import _both_chords


def _peak_mib(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def saved(ellipse262k, tmp_path_factory):
    """The ellipse's JSON file, and the peak of the save_curve call that wrote it."""
    path = tmp_path_factory.mktemp("large") / "ellipse.json"
    return path, _peak_mib(save_curve, ellipse262k, path)


def test_save_curve_writes_rows_in_chunks(saved):
    assert saved[1] <= 8


def test_load_curve_holds_one_file_text(saved):
    # the text (11.3 MiB), the whitespace-free array and the parsed vertices
    assert _peak_mib(load_curve, saved[0]) <= 36


@pytest.mark.parametrize("chord", [average_chord, min_chord_start, _both_chords])
def test_chords_read_cells_in_blocks(ellipse262k, chord):
    # the five per-cell arrays of _cells (20 MiB) and one per-cell result
    assert _peak_mib(chord, ellipse262k, 0.1) <= 32
