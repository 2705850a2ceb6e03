"""File formats: annotation CSVs, embedding pairs, volumes, masks, reports.

Binary formats carry a 4-byte magic plus little-endian dimension header;
text formats are UTF-8 with LF newlines and comma separators.  Numeric
CSV cells use 17 significant digits so 64-bit values round-trip exactly.
All writers go through a temp-file-plus-rename so readers never observe
a partial file, and the renamed file gets the mode the umask allows.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import struct
import tempfile
from collections.abc import Iterable, Sequence
from contextlib import contextmanager

import numpy as np

from .metadata import AnnotationError, AnnotationVector, RawAnnotation, Source, binarize

__all__ = [
    "FileFormatError",
    "atomic_write",
    "fmt_float",
    "read_metadata_rows",
    "write_metadata_rows",
    "group_annotations",
    "read_metadata_csv",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_embeddings",
    "read_embeddings",
    "write_volume",
    "read_volume",
    "write_mask",
    "read_mask",
    "write_json_atomic",
    "write_csv_table",
]

EMB_MAGIC = b"EMB1"
VOL_MAGIC = b"VOL1"
MSK_MAGIC = b"MSK1"

METADATA_HEADER = ["exam_id", "source", "value"]


class FileFormatError(ValueError):
    """Malformed input file; carries the file name and a line or byte offset."""

    def __init__(self, message: str, file: str, line: int | None = None):
        where = f"{file}:{line}" if line is not None else file
        super().__init__(f"{where}: {message}")
        self.file = file
        self.line = line
        self.reason = message


def _umask() -> int:
    """The process umask; reading it means setting it, so set it straight back."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def atomic_write(path: str, binary: bool = False):
    """Write to a same-directory temp file, then rename over the target."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-confcl-")
    try:
        mode = "wb" if binary else "w"
        with os.fdopen(fd, mode, **({} if binary else {"newline": "\n"})) as handle:
            yield handle
        # mkstemp creates the file 0600; give it the mode open() would.
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Annotation CSV
# ---------------------------------------------------------------------------


def read_metadata_rows(path: str) -> list[RawAnnotation]:
    """Parse an exam_id,source,value CSV into validated annotation rows."""
    rows: list[RawAnnotation] = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != METADATA_HEADER:
            raise FileFormatError(
                f"expected header {','.join(METADATA_HEADER)!r}, got {header!r}",
                path,
                1,
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise FileFormatError(f"expected 3 fields, got {len(row)}", path, lineno)
            exam_id, source_str, value_str = row
            try:
                source = Source(source_str)
            except ValueError:
                raise FileFormatError(
                    f"unknown source {source_str!r}; expected pirads or isup", path, lineno
                ) from None
            try:
                value = int(value_str)
            except ValueError:
                raise FileFormatError(
                    f"value {value_str!r} is not an integer", path, lineno
                ) from None
            try:
                rows.append(RawAnnotation(exam_id, source, value))
            except AnnotationError as exc:
                raise FileFormatError(str(exc), path, lineno) from None
    return rows


def write_metadata_rows(path: str, rows: list[RawAnnotation]) -> None:
    with atomic_write(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(METADATA_HEADER)
        for row in rows:
            writer.writerow([row.exam_id, row.source.value, row.value])


def group_annotations(rows: list[RawAnnotation]) -> list[AnnotationVector]:
    """Collapse rows into per-exam vote vectors, exams in first-appearance order.

    Equivocal scores binarize to an abstention and contribute no vote,
    but the exam still appears (possibly with an empty vector).
    """
    order: list[str] = []
    votes: dict[str, list[int]] = {}
    sources: dict[str, list[Source]] = {}
    for row in rows:
        if row.exam_id not in votes:
            order.append(row.exam_id)
            votes[row.exam_id] = []
            sources[row.exam_id] = []
        vote = binarize(row.source, row.value)
        if vote is not None:
            votes[row.exam_id].append(vote)
            sources[row.exam_id].append(row.source)
    return [
        AnnotationVector(eid, tuple(votes[eid]), tuple(sources[eid])) for eid in order
    ]


def read_metadata_csv(path: str) -> list[AnnotationVector]:
    return group_annotations(read_metadata_rows(path))


# ---------------------------------------------------------------------------
# Numeric CSV
# ---------------------------------------------------------------------------


def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    """One line per row (a 1-D vector is one row), cells through fmt_float.

    Each row formats its distinct values once and joins its cells by index
    into them; kernel rows hold only a handful of distinct weights.  Values
    are keyed on their bit pattern, so 0.0 and -0.0 keep their own text.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if m.ndim != 2:
        raise ValueError(f"matrix must be 1D or 2D, got shape {m.shape}")
    with atomic_write(path) as handle:
        for row in m:
            bits, index = np.unique(row.view(np.uint64), return_inverse=True)
            cells = [fmt_float(v) for v in bits.view(np.float64)]
            handle.write(",".join([cells[i] for i in index.tolist()]) + "\n")


def read_matrix_csv(path: str) -> np.ndarray:
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rows.append([float(cell) for cell in line.split(",")])
            except ValueError:
                raise FileFormatError("non-numeric cell", path, lineno) from None
    if not rows:
        raise FileFormatError("empty matrix", path)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FileFormatError("ragged rows", path)
    return np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# Binary formats
# ---------------------------------------------------------------------------


def _read_exact(handle: _io.BufferedReader, count: int, path: str, what: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise FileFormatError(
            f"truncated {what} at byte {handle.tell() - len(data)}", path
        )
    return data


def _read_payload(handle: _io.BufferedReader, count: int, path: str) -> bytes:
    """The rest of the file, which must be exactly the ``count`` bytes the header declared.

    Checked against the file size first, so a corrupt header asks for no buffer.
    """
    remaining = os.fstat(handle.fileno()).st_size - handle.tell()
    if count > remaining:
        raise FileFormatError(
            f"truncated payload: header declares {count} bytes, {remaining} follow it", path
        )
    if count < remaining:
        raise FileFormatError("trailing bytes after payload", path)
    return _read_exact(handle, count, path, "payload")


def write_embeddings(path: str, x1: np.ndarray, x2: np.ndarray) -> None:
    """Two aligned (N, D) float64 views: EMB1 magic, N, D, view 1, view 2."""
    a = np.ascontiguousarray(x1, dtype="<f8")
    b = np.ascontiguousarray(x2, dtype="<f8")
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"views must share an (N, D) shape, got {a.shape} and {b.shape}")
    with atomic_write(path, binary=True) as handle:
        handle.write(EMB_MAGIC)
        handle.write(struct.pack("<ii", *a.shape))
        handle.write(a.tobytes(order="C"))
        handle.write(b.tobytes(order="C"))


def read_embeddings(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as handle:
        magic = _read_exact(handle, 4, path, "magic")
        if magic != EMB_MAGIC:
            raise FileFormatError(f"bad magic {magic!r}, expected {EMB_MAGIC!r}", path)
        n, d = struct.unpack("<ii", _read_exact(handle, 8, path, "header"))
        if n < 1 or d < 1:
            raise FileFormatError(f"bad dimensions ({n}, {d})", path)
        payload = _read_payload(handle, 2 * n * d * 8, path)
    flat = np.frombuffer(payload, dtype="<f8")
    x1 = flat[: n * d].reshape(n, d).astype(np.float64)
    x2 = flat[n * d :].reshape(n, d).astype(np.float64)
    if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise FileFormatError("non-finite embedding values", path)
    return x1, x2


def write_volume(path: str, data: np.ndarray) -> None:
    """(X, Y, Z) float32 grid, x-fastest: VOL1 magic, dims, voxels."""
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 3:
        raise ValueError(f"volume must be 3D, got shape {v.shape}")
    with atomic_write(path, binary=True) as handle:
        handle.write(VOL_MAGIC)
        handle.write(struct.pack("<iii", *v.shape))
        handle.write(v.astype("<f4").tobytes(order="F"))


def _read_grid_header(handle, magic: bytes, path: str) -> tuple[int, int, int]:
    got = _read_exact(handle, 4, path, "magic")
    if got != magic:
        raise FileFormatError(f"bad magic {got!r}, expected {magic!r}", path)
    dims = struct.unpack("<iii", _read_exact(handle, 12, path, "header"))
    if any(d < 1 for d in dims):
        raise FileFormatError(f"bad dimensions {dims}", path)
    return dims  # type: ignore[return-value]


def read_volume(path: str) -> np.ndarray:
    with open(path, "rb") as handle:
        x, y, z = _read_grid_header(handle, VOL_MAGIC, path)
        payload = _read_payload(handle, x * y * z * 4, path)
    data = np.frombuffer(payload, dtype="<f4").reshape((x, y, z), order="F")
    data = data.astype(np.float64)
    if not np.isfinite(data).all() or data.min() < 0.0 or data.max() > 1.0:
        raise FileFormatError("voxels must be finite and lie in [0, 1]", path)
    return data


def write_mask(path: str, data: np.ndarray) -> None:
    """(X, Y, Z) 8-bit {0, 1} grid, x-fastest: MSK1 magic, dims, voxels."""
    m = np.asarray(data)
    if m.ndim != 3:
        raise ValueError(f"mask must be 3D, got shape {m.shape}")
    if m.dtype != np.bool_ and not np.isin(m, (0, 1)).all():
        raise ValueError("mask voxels must be 0 or 1")
    with atomic_write(path, binary=True) as handle:
        handle.write(MSK_MAGIC)
        handle.write(struct.pack("<iii", *m.shape))
        handle.write(m.astype(np.uint8).tobytes(order="F"))


def read_mask(path: str) -> np.ndarray:
    with open(path, "rb") as handle:
        x, y, z = _read_grid_header(handle, MSK_MAGIC, path)
        payload = _read_payload(handle, x * y * z, path)
    data = np.frombuffer(payload, dtype=np.uint8).reshape((x, y, z), order="F")
    if not np.isin(data, (0, 1)).all():
        raise FileFormatError("mask voxels must be 0 or 1", path)
    return data.astype(bool)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def write_json_atomic(path: str, payload: dict) -> None:
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_csv_table(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line plus one line per row; floats go through fmt_float and
    None serializes as an empty cell."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                ["" if v is None else fmt_float(v) if isinstance(v, float) else v for v in row]
            )
