"""File formats: annotation CSVs, embedding pairs, volumes, masks, reports.

Binary formats carry a 4-byte magic plus little-endian dimension header;
text formats are UTF-8 whatever the locale, with LF newlines and comma
separators, and a text reader reports a byte that is not UTF-8 as a
FileFormatError naming the file and its line.  The annotation CSV reader
checks and binarizes each row as it reads it and returns the votes as
columns (``metadata.VoteColumns``).  Numeric CSV cells use 17
significant digits so 64-bit values round-trip exactly; the matrix
writer formats each block of rows from its distinct values, and the
kernel writer joins its K class rows once, in memory linear in N.
All writers go through a temp-file-plus-rename so readers never observe
a partial file, and the renamed file gets the mode the umask allows.
``ProbVolume`` and ``BinaryMask`` alone state what VOL1 and MSK1 files hold:
writers build one before writing and readers return one, so each writer
refuses what its reader rejects.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import struct
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .losses import ViewPairBatch
from .metadata import SOURCES, AnnotationError, AnnotationVector, RawAnnotation, Source, VoteColumns, binarize

__all__ = [
    "FileFormatError",
    "atomic_write",
    "fmt_float",
    "write_metadata_rows",
    "read_metadata_columns",
    "read_metadata_csv",
    "write_matrix_csv",
    "write_kernel_csv",
    "read_matrix_csv",
    "write_embeddings",
    "read_embeddings",
    "ProbVolume",
    "BinaryMask",
    "write_volume",
    "read_volume",
    "write_mask",
    "read_mask",
    "read_json",
    "write_json_atomic",
    "write_csv_table",
]

EMB_MAGIC = b"EMB1"
VOL_MAGIC = b"VOL1"
MSK_MAGIC = b"MSK1"

METADATA_HEADER = ["exam_id", "source", "value"]

# Distinct row codes of read_metadata_columns: 2 * source index + vote.
_CODES = 2 * len(SOURCES)

# Cells per block of rows in write_matrix_csv.
_CSV_BLOCK_CELLS = 2**15
# Bytes atomic_write buffers before handing them to the OS in one write.
_WRITE_BUFFER = 2**20


class FileFormatError(ValueError):
    """Malformed input file; carries the file name and a line or byte offset."""

    def __init__(self, message: str, file: str, line: int | None = None):
        where = f"{file}:{line}" if line is not None else file
        super().__init__(f"{where}: {message}")
        self.file = file
        self.line = line
        self.reason = message


@contextmanager
def atomic_write(path: str, binary: bool = False):
    """Write to a same-directory temp file made with mode 0666 (so the umask
    applies as for open()), then rename it over the target; an OSError from
    making or renaming the temp file names the target instead.  Text is UTF-8
    with LF newlines whatever the locale.  Writes reach the OS in chunks of
    _WRITE_BUFFER bytes, so a writer may hand over many small pieces."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, ".tmp-confcl-" + os.urandom(8).hex())
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with os.fdopen(fd, "wb" if binary else "w", _WRITE_BUFFER, **text) as handle:
            yield handle
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _text_lines(path: str, newline: str | None = None) -> Iterator[str]:
    """The lines of open(path, encoding="utf-8", newline=newline); a byte
    that is not UTF-8 raises a FileFormatError naming its line."""
    with open(path, encoding="utf-8", newline=newline) as handle:
        try:
            yield from handle
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _not_utf8(path: str) -> FileFormatError:
    """The error for path's first byte that is not UTF-8.  A text reader
    decodes ahead in chunks, so its offsets are found again in the bytes."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return FileFormatError(f"not UTF-8 at byte {exc.start}: {exc.reason}", path, line)
    return FileFormatError("not UTF-8 when first read", path)  # the file changed since


# ---------------------------------------------------------------------------
# Annotation CSV
# ---------------------------------------------------------------------------


def write_metadata_rows(path: str, rows: list[RawAnnotation]) -> None:
    write_csv_table(path, METADATA_HEADER, [(r.exam_id, r.source.value, r.value) for r in rows])


def read_metadata_columns(path: str) -> VoteColumns:
    """An exam_id,source,value CSV as VoteColumns, each row checked as read.

    An equivocal score is no vote, but its exam still appears.  An empty
    exam id is an error, and so is a value with an underscore or a
    character that is not ASCII, though int() takes ``0_4`` and
    Arabic-Indic digits.  Each distinct (source, value) text pair is
    checked once; a pair that fails is not remembered, so every bad row is
    reported with its own exam, file and line (a multi-line row's last).
    """
    exams: dict[str, int] = {}  # insertion order is first appearance
    codes: dict[tuple[str, str], int] = {}  # 2 * source index + vote, or -1 to abstain
    packed: list[int] = []  # _CODES * exam index + code, per vote
    reader = csv.reader(_text_lines(path, newline=""))
    try:
        header = next(reader, None)
        if header != METADATA_HEADER:
            raise FileFormatError(
                f"expected header {','.join(METADATA_HEADER)!r}, got {header!r}",
                path,
                1,
            )
        for row in reader:
            if not row:
                continue
            if len(row) != 3 or not row[0]:
                reason = "empty exam id" if len(row) == 3 else f"expected 3 fields, got {len(row)}"
                raise FileFormatError(reason, path, reader.line_num)
            exam_id, source_str, value_str = row
            code = codes.get((source_str, value_str))
            if code is None:
                code = codes[source_str, value_str] = _score(*row, path, reader.line_num)
            exam = exams.setdefault(exam_id, len(exams))
            if code >= 0:
                packed.append(_CODES * exam + code)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise FileFormatError(str(exc), path, reader.line_num) from None
    exam, code = np.divmod(np.array(packed, dtype=np.int64), _CODES)
    return VoteColumns(list(exams), exam, code & 1, (code >> 1).astype(np.int8))


def _score(exam_id: str, source_str: str, value_str: str, path: str, lineno: int) -> int:
    """A row's 2 * source index + vote (-1 abstains), or the FileFormatError naming its line."""
    try:
        source = Source(source_str)
    except ValueError:
        raise FileFormatError(
            f"unknown source {source_str!r}; expected pirads or isup", path, lineno
        ) from None
    try:
        if "_" in value_str or not value_str.isascii():
            raise ValueError
        value = int(value_str)
    except ValueError:
        raise FileFormatError(f"value {value_str!r} is not an integer", path, lineno) from None
    try:
        vote = binarize(source, value)
    except AnnotationError as exc:
        raise FileFormatError(f"exam {exam_id!r}: {exc}", path, lineno) from None
    return -1 if vote is None else 2 * SOURCES.index(source) + vote


def read_metadata_csv(path: str) -> list[AnnotationVector]:
    """read_metadata_columns' exams as per-exam vote vectors."""
    columns = read_metadata_columns(path)
    exams = [([], []) for _ in columns.exam_ids]
    for exam, vote, source in zip(columns.exam.tolist(), columns.votes.tolist(), columns.sources.tolist()):
        exams[exam][0].append(vote)
        exams[exam][1].append(SOURCES[source])
    return [AnnotationVector(e, tuple(v), tuple(s)) for e, (v, s) in zip(columns.exam_ids, exams)]


# ---------------------------------------------------------------------------
# Numeric CSV
# ---------------------------------------------------------------------------


def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    """One line per row (a 1-D vector is one row), cells through fmt_float.

    A NaN or infinity, which read_matrix_csv rejects, raises ValueError
    naming its row and column before any file is made; an empty matrix
    writes an empty file.  Rows go out as ASCII in blocks of about
    _CSV_BLOCK_CELLS cells (at least one row).  Each block formats its
    distinct values once, keyed on their bit pattern so 0.0 and -0.0 keep
    their own text, and joins its rows from them; the temporaries scale
    with one block, not with the matrix.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if m.ndim != 2:
        raise ValueError(f"matrix must be 1D or 2D, got shape {m.shape}")
    # min and max propagate NaN, so this also finds NaN and +-inf.
    if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):
        row, col = np.argwhere(~np.isfinite(m))[0]
        raise ValueError(f"matrix cell at row {row}, column {col} is {m[row, col]}, not finite")
    rows_per_block = max(1, _CSV_BLOCK_CELLS // max(1, m.shape[1]))
    with atomic_write(path, binary=True) as handle:
        for start in range(0, m.shape[0], rows_per_block):
            keys = m[start : start + rows_per_block].view(np.uint64)
            bits, index = np.unique(keys, return_inverse=True)
            cells = np.array([fmt_float(v) for v in bits.view(np.float64)], dtype=object)
            tokens = cells[index.reshape(keys.shape)].tolist()
            handle.write(("\n".join(map(",".join, tokens)) + "\n").encode("ascii"))


def write_kernel_csv(path: str, classes: np.ndarray, table: np.ndarray) -> None:
    """The bytes write_matrix_csv writes for metadata.kernel_classes' table
    gathered over classes with a unit diagonal, in memory linear in N: each
    class's row is joined once with each cell's end offset, and row i is its
    class's row with cell i replaced by fmt_float(1.0)."""
    order = np.asarray(classes).tolist()
    texts = [[fmt_float(v) for v in row] for row in table]
    widths = np.array([list(map(len, row)) for row in texts], dtype=np.intp).reshape(np.shape(table))
    lines = [(",".join(map(row.__getitem__, order)) + "\n").encode("ascii") for row in texts]
    ends = (np.cumsum(widths[:, order] + 1, axis=1) - 1)[order, np.arange(len(order))]
    one = fmt_float(1.0).encode("ascii")
    with atomic_write(path, binary=True) as handle:
        for k, start, end in zip(order, (ends - widths[order, order]).tolist(), ends.tolist()):
            line = memoryview(lines[k])
            handle.writelines((line[:start], one, line[end:]))


def read_matrix_csv(path: str) -> np.ndarray:
    rows: list[list[float]] = []
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if "_" in raw or not raw.isascii():  # float() takes 1_0 and full-width digits
                raise ValueError
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            raise FileFormatError("non-numeric cell", path, lineno) from None
        if not all(map(math.isfinite, row)):
            raise FileFormatError("non-finite cell", path, lineno)
        if rows and len(row) != len(rows[0]):
            raise FileFormatError(f"ragged rows: {len(row)} cells, not {len(rows[0])}", path, lineno)
        rows.append(row)
    if not rows:
        raise FileFormatError("empty matrix", path)
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


def _write_container(path: str, magic: bytes, dims: tuple[int, ...], *payloads: bytes) -> None:
    """Magic, little-endian int32 dims, then the payloads back to back."""
    with atomic_write(path, binary=True) as handle:
        handle.write(magic + struct.pack(f"<{len(dims)}i", *dims))
        handle.writelines(payloads)


def _read_container(
    path: str, magic: bytes, ndims: int, itemsize: int
) -> tuple[tuple[int, ...], bytes]:
    """The dims and payload of a file _write_container wrote.

    Every dim must be at least 1, and the rest of the file must be exactly
    the itemsize * prod(dims) bytes the header declares; that is checked
    against the file size first, so a corrupt header asks for no buffer.
    """
    with open(path, "rb") as handle:
        got = _read_exact(handle, 4, path, "magic")
        if got != magic:
            raise FileFormatError(f"bad magic {got!r}, expected {magic!r}", path)
        dims = struct.unpack(f"<{ndims}i", _read_exact(handle, 4 * ndims, path, "header"))
        if any(d < 1 for d in dims):
            raise FileFormatError(f"bad dimensions {dims}", path)
        count = itemsize * math.prod(dims)
        remaining = os.fstat(handle.fileno()).st_size - handle.tell()
        if count > remaining:
            raise FileFormatError(
                f"truncated payload: header declares {count} bytes, {remaining} follow it", path
            )
        if count < remaining:
            raise FileFormatError("trailing bytes after payload", path)
        return dims, _read_exact(handle, count, path, "payload")


def _build(path: str, cls, *arrays: np.ndarray):
    """cls(*arrays) read from path, whose ValueError becomes a FileFormatError."""
    try:
        return cls(*arrays)
    except ValueError as exc:
        raise FileFormatError(str(exc), path) from None


def write_embeddings(path: str, x1: np.ndarray, x2: np.ndarray) -> None:
    """Two aligned (N, D) float64 views: EMB1 magic, N, D, view 1, view 2.

    The views must make a ViewPairBatch (N, D >= 1, every value finite),
    so the writer refuses what read_embeddings rejects."""
    batch = ViewPairBatch(x1, x2)
    a, b = (np.ascontiguousarray(x, dtype="<f8") for x in (batch.x1, batch.x2))
    _write_container(path, EMB_MAGIC, a.shape, a.tobytes(order="C"), b.tobytes(order="C"))


def read_embeddings(path: str) -> ViewPairBatch:
    """An EMB1 file as a ViewPairBatch; its checks name the file on failure."""
    dims, payload = _read_container(path, EMB_MAGIC, 2, 2 * 8)
    views = np.frombuffer(payload, dtype="<f8").reshape(2, *dims)
    return _build(path, ViewPairBatch, views[0], views[1])


@dataclass(frozen=True)
class ProbVolume:
    """Lesion probabilities on an (X, Y, Z) grid, every voxel in [0, 1]."""

    data: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 3:
            raise ValueError(f"volume must be 3D, got shape {d.shape}")
        # min and max propagate NaN, so this also rejects NaN and +-inf.
        if not (d.min() >= 0.0 and d.max() <= 1.0):
            raise ValueError("volume voxels must be finite and lie in [0, 1]")
        object.__setattr__(self, "data", d)


@dataclass(frozen=True)
class BinaryMask:
    """A {0, 1} voxel mask on an (X, Y, Z) grid."""

    data: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.data)
        if d.ndim != 3:
            raise ValueError(f"mask must be 3D, got shape {d.shape}")
        if d.dtype != np.bool_ and not ((d == 0) | (d == 1)).all():
            raise ValueError("mask voxels must be 0 or 1")
        object.__setattr__(self, "data", d.astype(bool, copy=False))


def _read_grid(path: str, cls, magic: bytes, dtype: str):
    """A VOL1 or MSK1 file as cls."""
    dims, payload = _read_container(path, magic, 3, np.dtype(dtype).itemsize)
    return _build(path, cls, np.frombuffer(payload, dtype=dtype).reshape(dims, order="F"))


def write_volume(path: str, data: np.ndarray) -> None:
    """(X, Y, Z) float32 grid, x-fastest: VOL1 magic, dims, voxels."""
    v = ProbVolume(data).data
    _write_container(path, VOL_MAGIC, v.shape, v.astype("<f4").tobytes(order="F"))


def read_volume(path: str) -> ProbVolume:
    return _read_grid(path, ProbVolume, VOL_MAGIC, "<f4")


def write_mask(path: str, data: np.ndarray) -> None:
    """(X, Y, Z) 8-bit {0, 1} grid, x-fastest: MSK1 magic, dims, voxels."""
    m = BinaryMask(data).data
    _write_container(path, MSK_MAGIC, m.shape, m.astype(np.uint8).tobytes(order="F"))


def read_mask(path: str) -> BinaryMask:
    return _read_grid(path, BinaryMask, MSK_MAGIC, "u1")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def read_json(path: str):
    """A UTF-8 JSON file's value; bad bytes or bad JSON raise FileFormatError."""
    try:
        return json.loads("".join(_text_lines(path)))
    except json.JSONDecodeError as exc:
        raise FileFormatError(exc.msg, path, exc.lineno) from None


def write_json_atomic(path: str, payload: dict) -> None:
    """Strict JSON, encoded whole before the temp file is made: a NaN or
    infinity raises ValueError and leaves no file."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with atomic_write(path) as handle:
        handle.write(text)


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
