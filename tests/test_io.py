"""File formats: annotation CSV, numeric CSV, binary grids, reports.

Round trips are checked for exact value recovery, and the binary
layouts are verified against independently struct-packed byte strings.
"""

import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from confcl import io as cio
from confcl.io import (
    EMB_MAGIC,
    MSK_MAGIC,
    VOL_MAGIC,
    BinaryMask,
    FileFormatError,
    ProbVolume,
    _score as score,
    atomic_write,
    fmt_float,
    read_embeddings,
    read_mask,
    read_matrix_csv,
    read_json,
    read_metadata_csv,
    read_volume,
    write_csv_table,
    write_embeddings,
    write_json_atomic,
    write_kernel_csv,
    write_mask,
    write_matrix_csv,
    write_metadata_rows,
    write_volume,
)
from confcl.metadata import (
    AnnotationVector,
    KernelVariant,
    MetadataSummary,
    RawAnnotation,
    Source,
    confidence,
    kernel_classes,
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
    assert read_metadata_csv(path) == [
        AnnotationVector("a", (1, 0), (Source.PIRADS, Source.ISUP)),
        AnnotationVector("b"),
    ]


@pytest.mark.parametrize(
    "kind", [int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
)
def test_metadata_rows_round_trip_every_accepted_value_type(tmp_path, kind):
    values = {Source.PIRADS: range(1, 6), Source.ISUP: range(0, 6)}
    rows = [RawAnnotation("e", source, kind(v)) for source, vs in values.items() for v in vs]
    path = str(tmp_path / "meta.csv")
    write_metadata_rows(path, rows)
    votes = (0, 0, 1, 1, 0, 0, 1, 1, 1, 1)  # PI-RADS 3 abstains
    sources = (Source.PIRADS,) * 4 + (Source.ISUP,) * 6
    assert read_metadata_csv(path) == [AnnotationVector("e", votes, sources)]


def test_metadata_header_is_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,src,val\na,pirads,4\n")
    with pytest.raises(FileFormatError) as info:
        read_metadata_csv(str(path))
    assert info.value.line == 1
    assert info.value.file == str(path)


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("a,ct,4", "unknown source"),
        ("a,pirads,x", "not an integer"),
        ("a,pirads,9", "outside"),
        ("a,pirads", "3 fields"),
        pytest.param("x" * 200_000 + ",pirads,4", "field larger than field limit", id="over-long-field"),
    ],
)
def test_metadata_bad_rows_name_file_and_line(tmp_path, row, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(f"exam_id,source,value\nb,isup,2\n{row}\n")
    with pytest.raises(FileFormatError, match=fragment) as info:
        read_metadata_csv(str(path))
    assert info.value.line == 3


@pytest.mark.parametrize("value", ["0_4", "\u0664", "\uff14", "4\u00a0"])
def test_metadata_values_are_ascii_without_underscores(tmp_path, value):
    # int() reads each of these as 4; no CSV writer emits them.
    path = tmp_path / "bad.csv"
    path.write_text(f"exam_id,source,value\nb,pirads,4\na,pirads,{value}\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match="is not an integer") as info:
        read_metadata_csv(str(path))
    assert (info.value.file, info.value.line) == (str(path), 3)
    assert info.value.reason == f"value {value!r} is not an integer"


def test_metadata_checks_each_score_once_but_reports_each_bad_row_itself(tmp_path, monkeypatch):
    # The 150 good rows hold 3 distinct (source, value) pairs, checked once
    # each; the pair (pirads, 9) fails wherever it appears, and its error
    # names that row's exam and line.
    checked = []
    monkeypatch.setattr(cio, "_score", lambda *args: checked.append(args[1:3]) or score(*args))
    path = tmp_path / "meta.csv"
    rows = [f"e{i},{s},{v}" for i in range(50) for s, v in (("pirads", 4), ("isup", 0), ("pirads", 3))]
    path.write_text("exam_id,source,value\n" + "\n".join(rows) + "\n")
    vectors = read_metadata_csv(str(path))
    assert vectors == [AnnotationVector(f"e{i}", (1, 0), (Source.PIRADS, Source.ISUP)) for i in range(50)]
    assert checked == [("pirads", "4"), ("isup", "0"), ("pirads", "3")]
    for line, exam in ((2, "x"), (152, "y")):
        body = rows[: line - 2] + [f"{exam},pirads,9"] + rows[line - 2 :]
        path.write_text("exam_id,source,value\n" + "\n".join(body) + "\n")
        with pytest.raises(FileFormatError) as info:
            read_metadata_csv(str(path))
        assert (info.value.line, info.value.reason) == (line, f"exam {exam!r}: pirads value 9 outside [1, 5]")


def test_metadata_errors_name_the_physical_line_after_a_multiline_field(tmp_path):
    # The quoted exam id on lines 2-3 holds a newline, so q's row is line 5.
    path = tmp_path / "bad.csv"
    path.write_text('exam_id,source,value\n"x\ny",pirads,4\na,pirads,4\nq,pirads,9\n')
    with pytest.raises(FileFormatError, match="exam 'q'") as info:
        read_metadata_csv(str(path))
    assert (info.value.file, info.value.line) == (str(path), 5)


def test_metadata_rows_are_utf8_whatever_the_locale(tmp_path):
    # Under the C locale without UTF-8 mode, open()'s default codec is ASCII.
    path = tmp_path / "meta.csv"
    script = (
        "import sys\n"
        "from confcl import io, metadata\n"
        "row = metadata.RawAnnotation('exam-\\xe9', metadata.Source.PIRADS, 4)\n"
        "io.write_metadata_rows(sys.argv[1], [row])\n"
        "assert io.read_metadata_csv(sys.argv[1])[0].exam_id == 'exam-\\xe9'\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cio.__file__)))
    path_var = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONPATH": path_var}
    subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True)
    assert path.read_bytes() == "exam_id,source,value\nexam-\xe9,pirads,4\n".encode("utf-8")


@pytest.mark.parametrize("blank", ["\n", "\r\n", "\n\n\n"])
def test_read_metadata_csv_skips_blank_lines_but_counts_them(tmp_path, blank):
    rows = ["exam_id,source,value", "b,pirads,4", "a,isup,0", "b,pirads,1"]
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join(rows) + "\n")
    spaced = tmp_path / "spaced.csv"
    spaced.write_bytes((rows[0] + "\n" + "".join(row + "\n" + blank for row in rows[1:])).encode())
    assert read_metadata_csv(str(spaced)) == read_metadata_csv(str(plain))
    # Each good row is followed by the blank lines, and then comes q's row.
    spaced.write_bytes(spaced.read_bytes() + b"q,pirads,9\n")
    with pytest.raises(FileFormatError, match="exam 'q'") as info:
        read_metadata_csv(str(spaced))
    assert (info.value.file, info.value.line) == (str(spaced), 5 + 3 * blank.count("\n"))


def test_read_metadata_csv_keeps_first_appearance_order(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("exam_id,source,value\nb,pirads,4\na,isup,0\nb,pirads,1\n")
    vectors = read_metadata_csv(str(path))
    assert [v.exam_id for v in vectors] == ["b", "a"]
    assert vectors[0].votes == (1, 0)
    assert vectors[1].votes == (0,)


def test_read_metadata_csv_drops_abstentions_but_keeps_the_exam(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("exam_id,source,value\nonly3,pirads,3\n")
    vectors = read_metadata_csv(str(path))
    assert len(vectors) == 1
    assert vectors[0].exam_id == "only3"
    assert vectors[0].votes == ()


@pytest.mark.parametrize(
    "reader, body",
    [
        (read_metadata_csv, b"exam_id,source,value\na,pirads,4\nb\xff,isup,2\n"),
        (read_matrix_csv, b"1.0,2.0\n3.0,\xff\n"),
        # Past the first chunk the text decoder reads ahead, so its own
        # offset would not give the line.
        (read_matrix_csv, b"1.0,2.0\n" * 5000 + b"3.0,\xff\n"),
        (read_json, b'{\n"n_exams": "\xff"}\n'),
    ],
)
def test_text_readers_name_file_line_and_byte_of_non_utf8_input(tmp_path, reader, body):
    path = tmp_path / "input"
    path.write_bytes(body)
    with pytest.raises(FileFormatError) as info:
        reader(str(path))
    offset = body.index(b"\xff")
    assert (info.value.file, info.value.line) == (str(path), body.count(b"\n", 0, offset) + 1)
    assert info.value.reason == f"not UTF-8 at byte {offset}: invalid start byte"


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
    with pytest.raises(FileFormatError, match="ragged") as info:
        read_matrix_csv(str(path))
    assert (info.value.file, info.value.line) == (str(path), 2)
    path.write_text("")
    with pytest.raises(FileFormatError, match="empty"):
        read_matrix_csv(str(path))


@pytest.mark.parametrize("cell", ["1_0", "\uff11.\uff15", "\u0661", "1.5\u00a0"])
def test_matrix_csv_rejects_python_only_numerals_naming_file_and_line(tmp_path, cell):
    # float() reads each of these, as 10.0, 1.5, 1.0 and 1.5; no CSV writer emits them.
    path = tmp_path / "m.csv"
    path.write_text(f"1.0,2.0\n3.0,{cell}\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match="non-numeric cell") as info:
        read_matrix_csv(str(path))
    assert (info.value.file, info.value.line) == (str(path), 2)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
def test_matrix_csv_rejects_non_finite_cells_naming_file_and_line(tmp_path, cell):
    path = tmp_path / "m.csv"
    path.write_text(f"1.0,2.0\n\n3.0,4.0\n5.0,{cell}\n6.0,nan\n")
    with pytest.raises(FileFormatError, match="non-finite cell") as info:
        read_matrix_csv(str(path))
    assert (info.value.file, info.value.line) == (str(path), 4)
    assert str(info.value).startswith(f"{path}:4: ")


def test_matrix_csv_ragged_names_the_first_short_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n\n5.0,6.0,7.0\n8.0\n")
    with pytest.raises(FileFormatError, match="ragged rows: 3 cells, not 2") as info:
        read_matrix_csv(str(path))
    assert info.value.line == 4


def _per_element_csv(matrix) -> bytes:
    """The matrix CSV as formatted one cell at a time, the reference layout."""
    rows = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    return "".join(",".join(fmt_float(v) for v in row) + "\n" for row in rows).encode()


def _summaries(exams: int) -> list[MetadataSummary]:
    """Labeled summaries over every confidence from 1 to 9 votes."""
    rng = np.random.default_rng(7)
    summaries = []
    for i in range(exams):
        n = int(rng.integers(1, 10))
        votes = rng.integers(0, 2, n)
        ones = int(votes.sum())
        if 2 * ones == n:
            votes[0] ^= 1
            ones = int(votes.sum())
        conf = confidence(votes.tolist())
        summaries.append(MetadataSummary.labeled(f"e{i}", int(2 * ones > n), conf))
    return summaries


def _kernel(variant: KernelVariant, exams: int = 300) -> np.ndarray:
    """A kernel over every confidence from 1 to 9 votes."""
    return kernel_matrix(_summaries(exams), variant).weights


_NEG_NAN = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]
_PAYLOAD_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]


def _few_values(rows: int, cols: int, seed: int) -> np.ndarray:
    """A rows x cols matrix drawn from a handful of weights, signed zeros included."""
    values = np.array([0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 3.0 / 7.0, 5e-324])
    return np.random.default_rng(seed).choice(values, (rows, cols))


def _zeros_then_negative_zeros() -> np.ndarray:
    """0.0 in the first 32 rows, -0.0 in the next 32 and a mix in the last."""
    m = np.zeros((65, 1024))
    m[32:64] = -0.0
    m[64, 1::2] = -0.0
    return m


def _blocks(*values) -> np.ndarray:
    """Blocks of 32 rows x 1024 columns, block k drawn from values[k]."""
    rng = np.random.default_rng(49)
    return np.concatenate([rng.choice(np.array(v, dtype=np.float64), (32, 1024)) for v in values])


def _k_values(k: int, rows: int, cols: int) -> np.ndarray:
    """Every one of k values, each in about rows * cols / k cells."""
    cells = np.resize(np.arange(k) / 7.0, rows * cols)
    return np.random.default_rng(k).permutation(cells).reshape(rows, cols)


# Later blocks draw from a strict subset of the first block's values, then
# one needs a value it lacks; and -0.0 turns up only in a later block.
_SUBSET = (0.0, 1.0, 0.1, 1.0 / 3.0), (0.1, 1.0 / 3.0)
_SUBSET_THEN_NEW = (*_SUBSET, (0.1, 0.25))
_NEGATIVE_ZERO_LATER = (0.0, 1.0), (1.0,), (0.0, -0.0, 1.0)

# 1024 columns make blocks of 32 rows, so 33 and 65 rows end on a short block.
_MATRIX_CASES = {
    "later block a subset": _blocks(*_SUBSET),
    "later block a subset, then a new value": _blocks(*_SUBSET_THEN_NEW),
    "-0.0 in a later block": _blocks(*_NEGATIVE_ZERO_LATER),
    "one value in every block": _blocks(*((0.5,),) * 4),
    **{f"{cols} columns": _few_values(40, cols, cols) for cols in (2, 3, 5, 6, 7, 9, 10, 11, 1302)},
    "one value": np.full((40, 13), 0.25),
    "two values": _k_values(2, 100, 17),
    "64 values": _k_values(64, 50, 31),
    "65 values": _k_values(65, 50, 31),
    "signed zeros": np.array([[0.0, -0.0, 1.0, -0.0, 0.0], [-0.0, -0.0, 0.0, 0.0, -0.0]]),
    "signed zeros in separate blocks": _zeros_then_negative_zeros(),
    "33 rows": _few_values(33, 1024, 45),
    "65 rows": _few_values(65, 1024, 46),
    "one wide row": _few_values(1, 5000, 47),
    "one tall column": _few_values(2000, 1, 48),
    "subnormal": np.array([[5e-324, -5e-324, 0.0, 1e-310, 5e-324]]),
    "vector": np.array([0.1, 0.2, 0.1, 1.0 / 3.0]),
    "empty": np.zeros((0, 0)),
    "no columns": np.zeros((3, 0)),
    "one column": np.array([[0.5], [0.5], [-0.0], [2.0 / 3.0]]),
    "transposed": (np.arange(12.0).reshape(3, 4) / 7.0).T,
    "big endian": (np.arange(6.0).reshape(2, 3) / 3.0).astype(">f8"),
    "all distinct": np.random.default_rng(44).normal(0, 1e3, (40, 30)),
    **{f"kernel {v.value}": _kernel(v) for v in KernelVariant},
}


@pytest.mark.parametrize("name", list(_MATRIX_CASES))
def test_matrix_csv_bytes_match_per_element_formatting(tmp_path, name):
    matrix = _MATRIX_CASES[name]
    path = tmp_path / "m.csv"
    write_matrix_csv(str(path), matrix)
    assert path.read_bytes() == _per_element_csv(matrix)


# Value counts on both sides of 8, 64 and 4096, in rows from one cell up to
# 1302 wide: each block formats each of its k values once and joins them.
@pytest.mark.parametrize("cols", [1, 2, 3, 7, 8, 9, 1302])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 8, 16, 17, 64, 65, 4096, 4097])
def test_matrix_csv_bytes_match_for_every_value_count_and_width(tmp_path, k, cols):
    matrix = _k_values(k, -(-k // cols), cols)
    assert len(np.unique(matrix)) == k
    path = tmp_path / "m.csv"
    write_matrix_csv(str(path), matrix)
    assert path.read_bytes() == _per_element_csv(matrix)


def test_matrix_csv_rejects_more_than_two_dimensions(tmp_path):
    with pytest.raises(ValueError, match="1D or 2D"):
        write_matrix_csv(str(tmp_path / "m.csv"), np.zeros((2, 2, 2)))


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.array([[1.0, np.nan], [np.inf, 0.0]]), "row 0, column 1 is nan"),
        (np.array([[np.nan, _NEG_NAN, 1.0, _PAYLOAD_NAN, -np.nan, np.nan]]), "row 0, column 0 is nan"),
        (np.array([[1.0, 2.0, 0.0], [-np.inf, np.inf, np.inf]]), "row 1, column 0 is -inf"),
        (np.array([0.5, 0.25, np.inf]), "row 0, column 2 is inf"),
    ],
)
def test_matrix_csv_refuses_non_finite_cells_and_leaves_no_file(tmp_path, matrix, message):
    with pytest.raises(ValueError, match=message):
        write_matrix_csv(str(tmp_path / "m.csv"), matrix)
    assert os.listdir(tmp_path) == []


def test_writer_in_a_missing_directory_names_the_target(tmp_path):
    target = tmp_path / "missing" / "m.csv"
    with pytest.raises(FileNotFoundError) as info:
        write_matrix_csv(str(target), np.eye(2))
    assert info.value.filename == str(target)
    assert ".tmp-confcl" not in str(info.value)


def test_writer_onto_a_directory_names_the_target_and_leaves_no_debris(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write_matrix_csv(str(target), np.eye(2))
    assert info.value.filename == str(target)
    assert ".tmp-confcl" not in str(info.value)
    assert (os.listdir(tmp_path), os.listdir(target)) == (["out"], [])


def test_matrix_csv_writer_memory_stays_near_one_block(tmp_path):
    # The 1024 x 1024 matrix is itself 8 MB; one token table over the whole
    # matrix peaks at about 40 MB.
    matrix = _kernel(KernelVariant.PROPOSED, 1024)
    assert matrix.shape == (1024, 1024)
    tracemalloc.start()
    try:
        write_matrix_csv(str(tmp_path / "m.csv"), matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _labeled(*pairs) -> list[MetadataSummary]:
    return [MetadataSummary.labeled(f"e{i}", label, conf) for i, (label, conf) in enumerate(pairs)]


# The last batch puts exams 0 and 4 in classes of their own, each with a
# 19-character weight for the rest of its label, so row 0's diagonal is
# its first cell and row 4's its last.
_KERNEL_BATCHES = {
    "no exams": [],
    "one exam": _labeled((1, 1.0 / 3.0)),
    "one class": _labeled(*[(0, 1.0 / 3.0)] * 6),
    "300 exams": _summaries(300),
    "diagonal first and last": _labeled((1, 1.0 / 3.0), (1, 1.0), (0, 1.0), (0, 1.0), (0, 2.0 / 3.0)),
}


@pytest.mark.parametrize("variant", list(KernelVariant))
@pytest.mark.parametrize("name", list(_KERNEL_BATCHES))
def test_kernel_csv_bytes_match_per_element_formatting(tmp_path, name, variant):
    summaries = _KERNEL_BATCHES[name]
    path = tmp_path / "k.csv"
    write_kernel_csv(str(path), *kernel_classes(summaries, variant))
    assert path.read_bytes() == _per_element_csv(kernel_matrix(summaries, variant).weights)


def test_kernel_csv_class_build_and_write_stay_far_below_the_full_matrix(tmp_path):
    # The full 1302 x 1302 kernel is 13.6 MB; building it and writing it
    # through write_matrix_csv peaks at about 28 MiB.
    summaries = _summaries(1302)
    tracemalloc.start()
    try:
        write_kernel_csv(str(tmp_path / "k.csv"), *kernel_classes(summaries))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert (tmp_path / "k.csv").read_bytes() == _per_element_csv(kernel_matrix(summaries).weights)


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
    batch = read_embeddings(path)
    assert np.array_equal(batch.x1, x1) and np.array_equal(batch.x2, x2)


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
    with pytest.raises(FileFormatError, match="embeddings must be finite") as info:
        read_embeddings(str(path))
    assert info.value.file == str(path)


@pytest.mark.parametrize(
    "x1, x2, message",
    [
        (np.zeros((2, 2)), np.zeros((2, 3)), "share an"),
        (np.zeros((0, 2)), np.zeros((0, 2)), "N >= 1"),
        (np.array([[0.0, np.nan]]), np.zeros((1, 2)), "finite"),
        (np.zeros((1, 2)), np.array([[np.inf, 0.0]]), "finite"),
    ],
    ids=["shape mismatch", "zero rows", "nan", "inf"],
)
def test_embeddings_writer_refuses_what_the_reader_rejects(tmp_path, x1, x2, message):
    with pytest.raises(ValueError, match=message):
        write_embeddings(str(tmp_path / "e.bin"), x1, x2)
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Binary volumes and masks
# ---------------------------------------------------------------------------


def test_volume_round_trip(tmp_path):
    rng = np.random.default_rng(44)
    # float32 grid points survive the 32-bit payload exactly.
    v = rng.uniform(0, 1, (3, 4, 2)).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "v.bin")
    write_volume(path, v)
    assert np.array_equal(read_volume(path).data, v)


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


@pytest.mark.parametrize("value", [1.5, -0.25, np.nan, np.inf, -np.inf])
def test_volume_content_rules_hold_on_write_and_read(tmp_path, value):
    # The ProbVolume rule refuses the write (leaving no file) and, on a
    # hand-packed file, fails the read with the file's name.
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        write_volume(str(tmp_path / "w.vol"), np.full((1, 1, 2), value))
    assert os.listdir(tmp_path) == []
    path = tmp_path / "r.vol"
    path.write_bytes(VOL_MAGIC + struct.pack("<iii", 2, 1, 1) + struct.pack("<2f", 0.5, value))
    with pytest.raises(FileFormatError, match=r"\[0, 1\]") as info:
        read_volume(str(path))
    assert info.value.file == str(path)


def test_readers_return_the_grid_types(tmp_path):
    vol, msk = str(tmp_path / "v.vol"), str(tmp_path / "m.msk")
    write_volume(vol, np.full((2, 1, 1), 0.5))
    write_mask(msk, np.ones((2, 1, 1), dtype=np.uint8))
    volume, mask = read_volume(vol), read_mask(msk)
    assert type(volume) is ProbVolume and volume.data.dtype == np.float64
    assert type(mask) is BinaryMask and mask.data.dtype == np.bool_
    for bad in (np.zeros((2, 2)), np.zeros((1, 1, 1, 1))):
        with pytest.raises(ValueError, match="3D"):
            write_volume(str(tmp_path / "bad.vol"), bad)
        with pytest.raises(ValueError, match="3D"):
            write_mask(str(tmp_path / "bad.msk"), bad)
    assert sorted(os.listdir(tmp_path)) == ["m.msk", "v.vol"]


def test_mask_round_trip_and_layout(tmp_path):
    m = np.zeros((2, 1, 2), dtype=bool)
    m[0, 0, 0] = True
    m[1, 0, 1] = True
    path = str(tmp_path / "m.bin")
    write_mask(path, m)
    assert np.array_equal(read_mask(path).data, m)
    want = MSK_MAGIC + struct.pack("<iii", 2, 1, 2) + bytes([1, 0, 0, 1])
    assert open(path, "rb").read() == want


def test_mask_rejects_non_binary_values(tmp_path):
    for bad in (3, 0.5, -1, np.nan):
        with pytest.raises(ValueError):
            write_mask(str(tmp_path / "m.bin"), np.full((1, 1, 1), bad))
    assert os.listdir(tmp_path) == []
    path = tmp_path / "m.bin"
    path.write_bytes(MSK_MAGIC + struct.pack("<iii", 1, 1, 1) + bytes([2]))
    with pytest.raises(FileFormatError, match="0 or 1") as info:
        read_mask(str(path))
    assert info.value.file == str(path)


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


# reader -> (magic, dims, payload) of a valid one-element file
CONTAINERS = {
    read_embeddings: (EMB_MAGIC, (1, 1), struct.pack("<2d", 0.25, 0.5)),
    read_volume: (VOL_MAGIC, (1, 1, 1), struct.pack("<f", 0.5)),
    read_mask: (MSK_MAGIC, (1, 1, 1), bytes([1])),
}
CONTAINER_IDS = ["embeddings", "volume", "mask"]


def _container(magic, dims, payload):
    return magic + struct.pack(f"<{len(dims)}i", *dims) + payload


@pytest.mark.parametrize("reader", list(CONTAINERS), ids=CONTAINER_IDS)
def test_container_readers_accept_the_valid_file(tmp_path, reader):
    magic, dims, payload = CONTAINERS[reader]
    path = tmp_path / "ok.bin"
    path.write_bytes(_container(magic, dims, payload))
    got = reader(str(path))
    for array in (got.x1, got.x2) if reader is read_embeddings else [got.data]:
        assert array.shape == dims


@pytest.mark.parametrize("reader", list(CONTAINERS), ids=CONTAINER_IDS)
@pytest.mark.parametrize(
    "case",
    ["wrong magic", "short header", "zero dim", "negative dim", "truncated payload", "trailing byte"],
)
def test_container_readers_reject_malformed_files(tmp_path, reader, case):
    # Each case breaks one part of the valid file above.
    magic, dims, payload = CONTAINERS[reader]
    zero, negative = (*dims[:-1], 0), (-1, *dims[1:])
    data, message = {
        "wrong magic": (_container(b"XXXX", dims, payload), f"bad magic {b'XXXX'!r}"),
        "short header": (magic + b"\1\0", "truncated header at byte 4"),
        "zero dim": (_container(magic, zero, payload), f"bad dimensions {zero}"),
        "negative dim": (_container(magic, negative, payload), f"bad dimensions {negative}"),
        "truncated payload": (_container(magic, dims, payload[:-1]), "truncated payload"),
        "trailing byte": (_container(magic, dims, payload + b"\0"), "trailing bytes after payload"),
    }[case]
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(FileFormatError) as info:
        reader(str(path))
    assert info.value.file == str(path)
    assert info.value.reason.startswith(message)


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


def test_atomic_write_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # Setting the umask, even to read it, changes it for every thread.
    def no_umask(mask):
        raise AssertionError("atomic_write set the umask")

    monkeypatch.setattr(os, "umask", no_umask)
    with atomic_write(str(tmp_path / "out.txt")) as handle:
        handle.write("new")
    assert (tmp_path / "out.txt").read_text() == "new"


def test_json_report_bytes_are_order_independent(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    write_json_atomic(a, {"x": 1, "y": [1, 2], "z": {"k": 0.5}})
    write_json_atomic(b, {"z": {"k": 0.5}, "y": [1, 2], "x": 1})
    assert open(a, "rb").read() == open(b, "rb").read()
    assert json.load(open(a)) == {"x": 1, "y": [1, 2], "z": {"k": 0.5}}


def test_json_report_bytes_are_the_indented_sorted_encoding(tmp_path):
    payload = {
        "zeta": [0.1, 1e-300, -2.5e17, 3, None, True],
        "alpha": {"b": {}, "a": [], "c": [{"y": 0.30000000000000004, "x": "Gleason ≥ 7, naïve"}]},
        "ünïcode": "PI-RADS – 5",
        "empty": "",
    }
    path = tmp_path / "r.json"
    write_json_atomic(str(path), payload)
    want = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_report_refuses_a_non_finite_value_before_making_a_file(tmp_path, monkeypatch, bad):
    opened = []
    real_open = os.open

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return real_open(*args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    with pytest.raises(ValueError):
        write_json_atomic(str(tmp_path / "r.json"), {"metrics": {"auc": 0.5, "map": [1.0, bad]}})
    assert opened == []
    assert os.listdir(tmp_path) == []


def test_metrics_csv_serializes_missing_values_as_empty(tmp_path):
    path = str(tmp_path / "m.csv")
    write_csv_table(path, ("metric", "value", "n"), [("auc", 0.75, 10), ("map", None, 0)])
    lines = open(path).read().splitlines()
    assert lines[0] == "metric,value,n"
    assert lines[1] == "auc,0.75,10"
    assert lines[2] == "map,,0"
