"""File formats: annotation CSV, numeric CSV, binary grids, reports.

Round trips are checked for exact value recovery, and the binary
layouts are verified against independently struct-packed byte strings.
"""

import json
import os
import struct

import numpy as np
import pytest

from confcl.io import (
    EMB_MAGIC,
    MSK_MAGIC,
    VOL_MAGIC,
    FileFormatError,
    atomic_write,
    fmt_float,
    group_annotations,
    read_embeddings,
    read_mask,
    read_matrix_csv,
    read_metadata_csv,
    read_metadata_rows,
    read_volume,
    write_csv_table,
    write_embeddings,
    write_json_atomic,
    write_mask,
    write_matrix_csv,
    write_metadata_rows,
    write_volume,
)
from confcl.metadata import (
    KernelVariant,
    MetadataSummary,
    RawAnnotation,
    Source,
    confidence,
    kernel_matrix,
)


# ---------------------------------------------------------------------------
# Annotation CSV
# ---------------------------------------------------------------------------


def test_metadata_rows_round_trip(tmp_path):
    rows = [
        RawAnnotation("a", Source.PIRADS, 4),
        RawAnnotation("a", Source.ISUP, 1),
        RawAnnotation("b", Source.PIRADS, 3),
    ]
    path = str(tmp_path / "meta.csv")
    write_metadata_rows(path, rows)
    assert read_metadata_rows(path) == rows


def test_metadata_header_is_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,src,val\na,pirads,4\n")
    with pytest.raises(FileFormatError) as info:
        read_metadata_rows(str(path))
    assert info.value.line == 1
    assert info.value.file == str(path)


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("a,ct,4", "unknown source"),
        ("a,pirads,x", "not an integer"),
        ("a,pirads,9", "outside"),
        ("a,pirads", "3 fields"),
    ],
)
def test_metadata_bad_rows_name_file_and_line(tmp_path, row, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(f"exam_id,source,value\nb,isup,2\n{row}\n")
    with pytest.raises(FileFormatError, match=fragment) as info:
        read_metadata_rows(str(path))
    assert info.value.line == 3


def test_group_annotations_keeps_first_appearance_order():
    rows = [
        RawAnnotation("b", Source.PIRADS, 4),
        RawAnnotation("a", Source.ISUP, 0),
        RawAnnotation("b", Source.PIRADS, 1),
    ]
    vectors = group_annotations(rows)
    assert [v.exam_id for v in vectors] == ["b", "a"]
    assert vectors[0].votes == (1, 0)
    assert vectors[1].votes == (0,)


def test_group_annotations_drops_abstentions_but_keeps_the_exam():
    rows = [RawAnnotation("only3", Source.PIRADS, 3)]
    vectors = group_annotations(rows)
    assert len(vectors) == 1
    assert vectors[0].exam_id == "only3"
    assert vectors[0].votes == ()


def test_read_metadata_csv_mixes_sources(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("exam_id,source,value\ne,pirads,5\ne,isup,0\n")
    vectors = read_metadata_csv(str(path))
    assert vectors[0].votes == (1, 0)
    assert vectors[0].sources == (Source.PIRADS, Source.ISUP)


# ---------------------------------------------------------------------------
# Numeric CSV
# ---------------------------------------------------------------------------


def test_matrix_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(41)
    m = rng.normal(0, 1e3, (5, 4)) * 10.0 ** rng.integers(-12, 12, (5, 4))
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, m)
    assert np.array_equal(read_matrix_csv(path), m)


def test_matrix_csv_rejects_garbage(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,x\n")
    with pytest.raises(FileFormatError, match="non-numeric") as info:
        read_matrix_csv(str(path))
    assert info.value.line == 2
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FileFormatError, match="ragged"):
        read_matrix_csv(str(path))
    path.write_text("")
    with pytest.raises(FileFormatError, match="empty"):
        read_matrix_csv(str(path))


def _per_element_csv(matrix) -> bytes:
    """The matrix CSV as formatted one cell at a time, the reference layout."""
    rows = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    return "".join(",".join(fmt_float(v) for v in row) + "\n" for row in rows).encode()


def _kernel_300(variant: KernelVariant) -> np.ndarray:
    """A 300-exam kernel over every confidence from 1 to 9 votes."""
    rng = np.random.default_rng(7)
    summaries = []
    for i in range(300):
        n = int(rng.integers(1, 10))
        votes = rng.integers(0, 2, n)
        ones = int(votes.sum())
        if 2 * ones == n:
            votes[0] ^= 1
            ones = int(votes.sum())
        conf = confidence(votes.tolist())
        summaries.append(MetadataSummary.labeled(f"e{i}", int(2 * ones > n), conf))
    return kernel_matrix(summaries, variant).weights


_NEG_NAN = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]
_PAYLOAD_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]

_MATRIX_CASES = {
    "signed zeros": np.array([[0.0, -0.0, 1.0, -0.0, 0.0], [-0.0, -0.0, 0.0, 0.0, -0.0]]),
    "nans": np.array([[np.nan, _NEG_NAN, 1.0, _PAYLOAD_NAN, -np.nan, np.nan]]),
    "infinities": np.array([[np.inf, -np.inf, 0.0], [-np.inf, np.inf, np.inf]]),
    "subnormal": np.array([[5e-324, -5e-324, 0.0, 1e-310, 5e-324]]),
    "vector": np.array([0.1, 0.2, 0.1, 1.0 / 3.0]),
    "empty": np.zeros((0, 0)),
    "no columns": np.zeros((3, 0)),
    "one column": np.array([[0.5], [0.5], [-0.0], [2.0 / 3.0]]),
    "transposed": (np.arange(12.0).reshape(3, 4) / 7.0).T,
    "big endian": (np.arange(6.0).reshape(2, 3) / 3.0).astype(">f8"),
    "all distinct": np.random.default_rng(44).normal(0, 1e3, (40, 30)),
    **{f"kernel {v.value}": _kernel_300(v) for v in KernelVariant},
}


@pytest.mark.parametrize("name", list(_MATRIX_CASES))
def test_matrix_csv_bytes_match_per_element_formatting(tmp_path, name):
    matrix = _MATRIX_CASES[name]
    path = tmp_path / "m.csv"
    write_matrix_csv(str(path), matrix)
    assert path.read_bytes() == _per_element_csv(matrix)


def test_matrix_csv_rejects_more_than_two_dimensions(tmp_path):
    with pytest.raises(ValueError, match="1D or 2D"):
        write_matrix_csv(str(tmp_path / "m.csv"), np.zeros((2, 2, 2)))


def test_fmt_float_survives_a_parse_round_trip():
    rng = np.random.default_rng(42)
    values = list(rng.normal(0, 1, 50)) + [0.0, -0.0, 1e-300, -1e300, 2.0 / 3.0]
    for v in values:
        assert float(fmt_float(v)) == v


# ---------------------------------------------------------------------------
# Binary embeddings
# ---------------------------------------------------------------------------


def test_embeddings_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(43)
    x1 = rng.normal(0, 1, (6, 3))
    x2 = rng.normal(0, 1, (6, 3))
    path = str(tmp_path / "e.bin")
    write_embeddings(path, x1, x2)
    r1, r2 = read_embeddings(path)
    assert np.array_equal(r1, x1) and np.array_equal(r2, x2)


def test_embeddings_byte_layout(tmp_path):
    x1 = np.array([[1.0, 2.0]])
    x2 = np.array([[3.0, 4.0]])
    path = str(tmp_path / "e.bin")
    write_embeddings(path, x1, x2)
    want = EMB_MAGIC + struct.pack("<ii", 1, 2) + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    assert open(path, "rb").read() == want


def test_embeddings_read_errors(tmp_path):
    path = tmp_path / "e.bin"
    path.write_bytes(b"XXXX" + struct.pack("<ii", 1, 1) + struct.pack("<2d", 0, 0))
    with pytest.raises(FileFormatError, match="magic"):
        read_embeddings(str(path))
    path.write_bytes(EMB_MAGIC + struct.pack("<ii", 2, 2))
    with pytest.raises(FileFormatError, match="truncated"):
        read_embeddings(str(path))
    path.write_bytes(EMB_MAGIC + struct.pack("<ii", 0, 2))
    with pytest.raises(FileFormatError, match="dimensions"):
        read_embeddings(str(path))
    path.write_bytes(
        EMB_MAGIC + struct.pack("<ii", 1, 1) + struct.pack("<2d", 0, 0) + b"!"
    )
    with pytest.raises(FileFormatError, match="trailing"):
        read_embeddings(str(path))
    path.write_bytes(
        EMB_MAGIC + struct.pack("<ii", 1, 1) + struct.pack("<2d", np.nan, 0)
    )
    with pytest.raises(FileFormatError, match="non-finite"):
        read_embeddings(str(path))


# ---------------------------------------------------------------------------
# Binary volumes and masks
# ---------------------------------------------------------------------------


def test_volume_round_trip(tmp_path):
    rng = np.random.default_rng(44)
    # float32 grid points survive the 32-bit payload exactly.
    v = rng.uniform(0, 1, (3, 4, 2)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "v.bin")
    write_volume(path, v)
    assert np.array_equal(read_volume(path), v)


def test_volume_byte_layout_is_x_fastest(tmp_path):
    v = np.zeros((2, 2, 1))
    v[0, 0, 0] = 0.125
    v[1, 0, 0] = 0.25
    v[0, 1, 0] = 0.5
    v[1, 1, 0] = 1.0
    path = str(tmp_path / "v.bin")
    write_volume(path, v)
    want = VOL_MAGIC + struct.pack("<iii", 2, 2, 1) + struct.pack(
        "<4f", 0.125, 0.25, 0.5, 1.0
    )
    assert open(path, "rb").read() == want


def test_volume_read_errors(tmp_path):
    path = tmp_path / "v.bin"
    path.write_bytes(MSK_MAGIC + struct.pack("<iii", 1, 1, 1) + struct.pack("<f", 0.5))
    with pytest.raises(FileFormatError, match="magic"):
        read_volume(str(path))
    path.write_bytes(VOL_MAGIC + struct.pack("<iii", 1, 1, 1) + struct.pack("<f", 1.5))
    with pytest.raises(FileFormatError, match=r"\[0, 1\]"):
        read_volume(str(path))
    path.write_bytes(VOL_MAGIC + struct.pack("<iii", 2, 1, 1) + struct.pack("<f", 0.5))
    with pytest.raises(FileFormatError, match="truncated"):
        read_volume(str(path))


def test_mask_round_trip_and_layout(tmp_path):
    m = np.zeros((2, 1, 2), dtype=bool)
    m[0, 0, 0] = True
    m[1, 0, 1] = True
    path = str(tmp_path / "m.bin")
    write_mask(path, m)
    assert np.array_equal(read_mask(path), m)
    want = MSK_MAGIC + struct.pack("<iii", 2, 1, 2) + bytes([1, 0, 0, 1])
    assert open(path, "rb").read() == want


def test_mask_rejects_non_binary_values(tmp_path):
    with pytest.raises(ValueError):
        write_mask(str(tmp_path / "m.bin"), np.full((1, 1, 1), 3))
    path = tmp_path / "m.bin"
    path.write_bytes(MSK_MAGIC + struct.pack("<iii", 1, 1, 1) + bytes([2]))
    with pytest.raises(FileFormatError, match="0 or 1"):
        read_mask(str(path))


BIG = 2**31 - 1


@pytest.mark.parametrize(
    "reader, header",
    [
        (read_volume, VOL_MAGIC + struct.pack("<iii", BIG, BIG, BIG)),
        (read_mask, MSK_MAGIC + struct.pack("<iii", BIG, BIG, BIG)),
        (read_embeddings, EMB_MAGIC + struct.pack("<ii", BIG, BIG) + b"\0" * 4),
    ],
    ids=["volume", "mask", "embeddings"],
)
def test_impossible_header_fails_before_reading(tmp_path, reader, header):
    # A 16-byte file whose header declares far more payload than exists:
    # rejected from the file size, without asking for the buffer.
    path = tmp_path / "huge.bin"
    path.write_bytes(header)
    assert len(header) == 16
    with pytest.raises(FileFormatError, match="truncated payload") as info:
        reader(str(path))
    assert info.value.file == str(path)


# ---------------------------------------------------------------------------
# Atomic writes and reports
# ---------------------------------------------------------------------------


def test_atomic_write_leaves_no_debris_on_failure(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("original")
    with pytest.raises(RuntimeError):
        with atomic_write(str(target)) as handle:
            handle.write("partial")
            raise RuntimeError("simulated failure")
    assert target.read_text() == "original"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_replaces_the_target(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    with atomic_write(str(target)) as handle:
        handle.write("new")
    assert target.read_text() == "new"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_output_follows_the_umask(tmp_path, umask, mode):
    target = tmp_path / "out.txt"
    previous = os.umask(umask)
    try:
        with atomic_write(str(target)) as handle:
            handle.write("new")
    finally:
        os.umask(previous)
    assert target.stat().st_mode & 0o777 == mode


def test_json_report_bytes_are_order_independent(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    write_json_atomic(a, {"x": 1, "y": [1, 2], "z": {"k": 0.5}})
    write_json_atomic(b, {"z": {"k": 0.5}, "y": [1, 2], "x": 1})
    assert open(a, "rb").read() == open(b, "rb").read()
    assert json.load(open(a)) == {"x": 1, "y": [1, 2], "z": {"k": 0.5}}


def test_metrics_csv_serializes_missing_values_as_empty(tmp_path):
    path = str(tmp_path / "m.csv")
    write_csv_table(path, ("metric", "value", "n"), [("auc", 0.75, 10), ("map", None, 0)])
    lines = open(path).read().splitlines()
    assert lines[0] == "metric,value,n"
    assert lines[1] == "auc,0.75,10"
    assert lines[2] == "map,,0"
