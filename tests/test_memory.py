"""Memory of the large-curve steps: beyond the curve itself and one copy
of a file's bytes, no step allocates more than a few blocks of rows or a
few floats per cell.

Tracemalloc peaks on the 262,144-vertex ellipse, whose vertices take 4 MiB,
its JSON file 11.3 MiB and its 524,288 cells 4 MiB per per-cell array.
The chord readers walk the cell kernel a window of cells at a time and keep
at most one per-cell array, plus each window's cells that may tie for the
minimum chord; the shift search's gather keeps four.  Building the whole
text, list or (cells, d) temporaries at once, as these steps once did,
peaked at 50-78 MiB, and the sampled rule's midpoints of every cell at
once at 556 MiB.
"""

import tracemalloc

import pytest

from curvecover import (CurveSpec, QuadratureConfig, average_chord, build_curve, generate,
                        load_curve, min_chord_start, save_curve)
from curvecover.chords import _both_chords, _cells
from curvecover.errors import FileError


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
    # the file's bytes (11.3 MiB) and, while they are parsed a chunk at a
    # time, the vertices (4 MiB), taken over by the build; 24.3 MiB with the
    # bytes and their decoded str held together and the vertices copied
    assert _peak_mib(load_curve, saved[0]) <= 23


def test_unclosed_vertex_array_is_parsed_once(saved, tmp_path):
    # a vertex array with no "]]" after it goes straight to json.loads of the
    # decoded file for its error (58.7 MiB): 74.7 MiB when it was first
    # skipped as a member value, which parsed it whole too
    path = tmp_path / "cut.json"
    path.write_bytes(saved[0].read_bytes()[:-3] + b', "x": 1}')

    def load():
        with pytest.raises(FileError, match="Expecting ','"):
            load_curve(path)
    assert _peak_mib(load) <= 64


def test_build_curve_forms_its_arrays_in_place(ellipse262k):
    # the copied vertices, turned into edges then tangents in place, the
    # edge lengths, cum_lengths and a block of rows: 20.3 MiB with whole
    # temporaries, np.linalg.norm's four times its result among them
    assert _peak_mib(build_curve, ellipse262k.vertices) <= 18


def test_generate_builds_its_own_array(ellipse262k):
    # the sampled vertices go to the build uncopied: 26.3 MiB with a copy
    spec = CurveSpec("ellipse", {"a": 2.0, "b": 1.0}, resolution=ellipse262k.n)
    assert _peak_mib(generate, spec) <= 21


@pytest.mark.parametrize("chord", [average_chord, min_chord_start, _both_chords])
def test_chords_read_cells_in_blocks(ellipse262k, chord):
    # the sorted shifted parameters, one window's temporaries and at most one
    # per-cell row (4 MiB), the integral's; the minimum chord keeps only the
    # cells of a window that may tie: 15.0 and 19.3 MiB with two whole rows
    bound = {average_chord: 24, min_chord_start: 10, _both_chords: 14}[chord]
    assert _peak_mib(chord, ellipse262k, 0.1) <= bound


def test_sampled_rule_reads_cells_in_windows(ellipse262k):
    # 64 midpoints of one window's cells at a time, not of every cell
    assert _peak_mib(average_chord, ellipse262k, 0.1, QuadratureConfig("sampled")) <= 40


def test_shift_search_gather_fills_whole_arrays(ellipse262k):
    # four preallocated per-cell arrays (16 MiB), filled a window at a time
    assert _peak_mib(_cells, ellipse262k, 1 / 7) <= 24
