"""Curve file I/O.

JSON format: {"dim": d, "length_normalized": bool, "vertices": [[...], ...]}
with vertices in traversal order and the closing edge implicit.
CSV alternative: a "# dim=d" header line, then one comma-separated
vertex per line.
"""

import json
from pathlib import Path

import numpy as np

from .curve import ClosedCurve, build_curve
from .errors import FileError


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise FileError(f"cannot write {path}: {e.strerror}") from e


def save_curve(curve: ClosedCurve, path, fmt: str | None = None) -> None:
    path = Path(path)
    fmt = fmt or ("csv" if path.suffix.lower() == ".csv" else "json")
    if fmt == "json":
        doc = {
            "dim": curve.dim,
            "length_normalized": curve.is_unit_length,
            "vertices": curve.vertices.tolist(),
        }
        _write_text(path, json.dumps(doc) + "\n")
    elif fmt == "csv":
        lines = [f"# dim={curve.dim}"]
        lines += [",".join(repr(float(x)) for x in v) for v in curve.vertices]
        _write_text(path, "\n".join(lines) + "\n")
    else:
        raise FileError(f"unknown curve format {fmt!r}")


def load_curve(path, normalize: bool = False) -> ClosedCurve:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise FileError(f"cannot read {path}: {e}") from e
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            doc = json.loads(text)
            verts = np.asarray(doc["vertices"], dtype=float)
            if verts.ndim != 2 or verts.shape[1] != int(doc["dim"]):
                raise FileError(f"{path}: vertex dimensions disagree with 'dim'")
        else:
            rows = [ln for ln in text.splitlines()
                    if ln.strip() and not ln.lstrip().startswith("#")]
            verts = np.asarray([[float(x) for x in ln.split(",")] for ln in rows])
        return build_curve(verts, normalize=normalize)
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as e:
        raise FileError(f"cannot parse curve file {path}: {e}") from e
