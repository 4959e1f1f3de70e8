"""Memory of the large-curve steps: beyond the curve itself and one file
text, no step allocates more than a few blocks of rows or a few floats
per cell.

Tracemalloc peaks on the 262,144-vertex ellipse, whose vertices take 4 MiB,
its JSON file 11.3 MiB and its 524,288 cells 4 MiB per per-cell array.
The chord readers walk the cell kernel a window of cells at a time and keep
at most three per-cell arrays; the shift search's gather keeps four.
Building the whole text, list or (cells, d) temporaries at once, as these
steps once did, peaked at 50-78 MiB, and the sampled rule's midpoints of
every cell at once at 556 MiB.
"""

import tracemalloc

import pytest

from curvecover import QuadratureConfig, average_chord, load_curve, min_chord_start, save_curve
from curvecover.chords import _both_chords, _cells


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
    # at most three per-cell results (12 MiB), the sorted shifted parameters
    # and one window's temporaries
    assert _peak_mib(chord, ellipse262k, 0.1) <= 24


def test_sampled_rule_reads_cells_in_windows(ellipse262k):
    # 64 midpoints of one window's cells at a time, not of every cell
    assert _peak_mib(average_chord, ellipse262k, 0.1, QuadratureConfig("sampled")) <= 40


def test_shift_search_gather_fills_whole_arrays(ellipse262k):
    # four preallocated per-cell arrays (16 MiB), filled a window at a time
    assert _peak_mib(_cells, ellipse262k, 1 / 7) <= 24
