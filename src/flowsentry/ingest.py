"""Flow CSV ingestion: parsing, label encoding and min-max scaling.

Consumes CSVs in the CICDDoS2019 column layout (header row, feature columns
that may carry leading whitespace, a categorical ``Label`` column). Rows with
unparseable or non-finite feature cells are skipped and counted rather than
aborting the run, because the corpus is known to contain inf/NaN cells.

The module also owns the artifact files: the JSON reader and writer that
every stage uses, the CSV row writer, and the staging of a stage's outputs.
"""

from __future__ import annotations

import csv
import errno
import json
import logging
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .errors import DataError, ModelFormatError, ParameterError, SchemaError, ShapeError

logger = logging.getLogger(__name__)

# Top-5 packet-length features shared by the DNS/LDAP/SNMP captures, in the
# order they are fed to the model.
DEFAULT_FEATURES = (
    "Max Packet Length",
    "Fwd Packet Length Max",
    "Fwd Packet Length Min",
    "Average Packet Size",
    "Min Packet Length",
)
DEFAULT_LABEL_COLUMN = "Label"
BENIGN_LABEL = "BENIGN"

SCALER_FILE_VERSION = 1

PARSE_BLOCK = 512  # csv lines parsed or rows written per block: bounds the strings held at once


@dataclass(frozen=True)
class FeatureSpec:
    """Which columns to read: feature columns (ordered) plus the label column."""

    names: tuple[str, ...] = DEFAULT_FEATURES
    label_column: str = DEFAULT_LABEL_COLUMN

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ParameterError("feature list must not be empty")
        if len(set(self.names)) != len(self.names):
            raise ParameterError("feature list contains duplicate column names")
        if not self.label_column:
            raise ParameterError("label column name must not be empty")
        if self.label_column in self.names:
            raise ParameterError(f"label column {self.label_column!r} is also a feature column")

    @property
    def m(self) -> int:
        return len(self.names)


@dataclass
class Scaler:
    """Per-feature min/max fitted on training data only."""

    min: np.ndarray  # (m,)
    max: np.ndarray  # (m,)
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        self.min = np.asarray(self.min, dtype=float)
        self.max = np.asarray(self.max, dtype=float)
        if self.min.shape != self.max.shape or self.min.ndim != 1:
            raise ShapeError("scaler min/max must be 1-D vectors of equal length")
        if np.any(self.min > self.max):
            raise DataError("scaler has min > max for at least one feature")
        self.feature_names = tuple(self.feature_names)

    @property
    def m(self) -> int:
        return self.min.shape[0]


@dataclass
class Dataset:
    """Feature matrix with aligned binary labels and, if parsed, source row indices."""

    matrix: np.ndarray  # (n, m) float64
    labels: np.ndarray  # (n,) int
    rows: np.ndarray | None = None  # (n,) int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.matrix.ndim != 2:
            raise ShapeError(f"dataset matrix must be 2-D, got ndim={self.matrix.ndim}")
        if self.labels.shape != (self.matrix.shape[0],):
            raise ShapeError(
                f"label count {self.labels.shape} does not match row count {self.matrix.shape[0]}"
            )
        if self.labels.size and not 0 <= self.labels.min() <= self.labels.max() <= 1:
            raise DataError("dataset labels must be binary (0 benign, 1 attack)")

    def __len__(self) -> int:
        return self.matrix.shape[0]

    n = property(__len__)

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """`path` opened as UTF-8 text for the csv module. A file that cannot be
    opened, holds a byte that is not UTF-8 or a row the csv module refuses
    (such as a cell over its field size limit) is a DataError naming it."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
        except csv.Error as exc:
            raise DataError(f"{path}: not a readable CSV file ({exc})") from exc


def read_blocks(path: str | Path, spec: FeatureSpec | None = None) -> Iterator[Dataset]:
    """One Dataset per block of a flow CSV's `read_fields` (see `to_dataset`; a
    block may keep no row). A label equal to "BENIGN" (case-insensitive) is 0,
    any other 1. Rows whose features do not parse, or are not finite, are
    skipped; the skip count is logged once the file has been read."""
    spec = spec or FeatureSpec()
    blocks, skipped = read_fields(path, (*spec.names, spec.label_column), "f8," * spec.m + "O"), 0
    while part := to_dataset(blocks):
        skipped, part = skipped + part[1], [part[0]]  # popped as it is yielded
        yield part.pop()
    if skipped:
        logger.warning("%s: skipped %d malformed row(s)", path, skipped)


def read_fields(path: str | Path, needed: Sequence[str], dtype) -> Iterator[tuple]:
    """The `needed` columns of the CSV file `path`, found by their header names
    stripped of surrounding whitespace (one missing or named twice is refused,
    other columns may repeat), a block of `PARSE_BLOCK` text lines at a time:
    one array per field of the structured `dtype` over the block's rows whose
    cells convert, their 0-based data-row indices (blank rows counted) and the
    lines they end on, and the (line, cells) of each row whose cells do not, a
    missing cell as None. numpy's C reader (`plain_columns`) reads a block if it
    can; else the csv module does, reading on until a quoted cell that spans the
    block's end is whole, and converts each cell by its field's scalar type, as
    `float` or `int` (in its range) would."""
    dtype = np.dtype(dtype)
    with open_text(path) as fh:
        reader = csv.reader(fh)
        if (header := next(reader, None)) is None:
            raise SchemaError(f"{path}: empty file, a header row is required")
        names, row, line = [name.strip() for name in header], 0, reader.line_num
        del reader  # its buffers are not held while the blocks are used
        if missing := [c for c in needed if c not in names]:
            raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
        if twice := [c for c in needed if names.count(c) > 1]:
            raise SchemaError(f"{path}: column(s) named more than once: {', '.join(twice)}")
        columns = list(map(names.index, needed))
        while lines := list(islice(fh, PARSE_BLOCK)):
            part, row, line = _read_block(lines, fh, columns, dtype, row, line)
            part = [part]  # popped as it is yielded
            del lines  # the line strings are not held while the consumer uses the part
            yield part.pop()


def _read_block(lines: list[str], fh: TextIO, columns: list[int], dtype: np.dtype, row: int, line: int):
    """One block of `read_fields`, from data row `row` after line `line`, and the row and line after it."""
    try:
        fields = plain_columns(lines, columns, dtype)
    except ValueError:
        reader, block = csv.reader(chain(lines, fh)), []
        while reader.line_num < len(lines):
            block.append((next(reader), line + reader.line_num))
    else:
        n = len(lines)
        return (fields, np.arange(row, row + n), np.arange(line + 1, line + 1 + n), []), row + n, line + n
    # Python's float and str read fastest; np.int64 reads as int does and refuses an integer out of range
    kinds = [{"f": float, "O": str}.get(t.kind, t.type) for t in map(dtype.__getitem__, dtype.names)]
    values, kept, marked = [], [], []
    for i, (cells, end) in enumerate(block, row):
        try:
            values.append(tuple([kind(cells[c]) for kind, c in zip(kinds, columns)]))
            kept.append((i, end))
        except (IndexError, ValueError, OverflowError):  # Overflow: an integer out of range
            if cells:  # a blank row is skipped, not marked
                marked.append((end, [cells[c] if c < len(cells) else None for c in columns]))
    table, (rows, ends) = np.array(values, dtype), np.array(kept, dtype=int).reshape(-1, 2).T
    return ([table[name] for name in dtype.names], rows, ends, marked), row + len(block), block[-1][1]


def parse_csv(path: str | Path, spec: FeatureSpec | None = None) -> Dataset:
    """Every block of `read_blocks` in one Dataset, copied into arrays sized
    up front from a line count."""
    spec = spec or FeatureSpec()
    with open_text(path) as fh:
        size = max(sum(1 for _ in fh) - 1, 0)  # no fewer than the data rows: a row takes 1+ lines
    out = [np.empty((size, spec.m)), np.empty(size, dtype=int), np.empty(size, dtype=int)]
    n = 0
    for part in read_blocks(path, spec):
        for column, values in zip(out, (part.matrix, part.labels, part.rows)):
            column[n : n + len(part)] = values
        n += len(part)
    for column in out:  # in place: a shrinking realloc keeps one copy of the data
        column.resize((n, *column.shape[1:]), refcheck=False)
    return Dataset(*out)


def plain_columns(lines: list[str], columns: Sequence[int], dtype) -> list[np.ndarray]:
    """The `columns` cells of csv lines as one array per field of the
    structured `dtype`, by numpy's C reader. A ValueError if a line holds a
    quote character or is blank (numpy would split a quoted comma or skip the
    line), or if numpy refuses a cell or a row short of a column."""
    if '"' in "".join(lines) or any(map(lines.count, ("\n", "\r\n", "\r"))):
        raise ValueError("a quoted cell or a blank line")
    return np.loadtxt(lines, dtype, delimiter=",", comments=None, usecols=columns, ndmin=1, unpack=True)


def to_dataset(blocks: Iterator[tuple]) -> tuple[Dataset, int] | None:
    """The next block of a flow CSV's `read_fields` (feature fields, then a
    label field), None past the last: its rows with finite features, and how
    many rows it drops, those whose cells do not convert included."""
    if (block := next(blocks, None)) is None:
        return None
    (*features, text), rows, _, marked = block
    keep = np.isfinite(matrix := np.column_stack(features)).all(axis=1)
    labels = np.fromiter(map(BENIGN_LABEL.__ne__, map(str.upper, map(str.strip, text[keep]))), int)
    return Dataset(matrix[keep], labels, rows[keep]), len(marked) + int(np.count_nonzero(~keep))


def fit_scaler(matrix: np.ndarray, feature_names: Sequence[str] = ()) -> Scaler:
    """Column-wise min/max over the given (training) matrix."""
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={x.ndim}")
    if x.shape[0] == 0:
        raise DataError("cannot fit a scaler on an empty matrix")
    return Scaler(x.min(axis=0), x.max(axis=0), tuple(feature_names))


def apply_scaler(matrix: np.ndarray, scaler: Scaler) -> np.ndarray:
    """Min-max transform to [0,1], clamping out-of-range values.

    Columns with zero fitted range map to 0.
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[1] != scaler.m:
        raise ShapeError(
            f"matrix has shape {x.shape}, scaler expects {scaler.m} feature column(s)"
        )
    span = scaler.max - scaler.min
    nz = span > 0  # zero-span columns are never divided; they keep the 0 they start at
    out = np.zeros_like(x)
    np.subtract(x, scaler.min, out=out, where=nz)
    np.divide(out, span, out=out, where=nz)
    np.clip(out, 0.0, 1.0, out=out)
    return out


def split_benign(ds: Dataset, train_fraction: float) -> tuple[Dataset, Dataset]:
    """Split a benign-only dataset by time: the first floor(n * train_fraction)
    rows train, the rest are held out, both in source order, so that adjacent
    rows of either part are adjacent in time and windows hold no gap."""
    if not 0 < train_fraction < 1:
        raise ParameterError(f"train_fraction must be in (0,1), got {train_fraction}")
    if np.any(ds.labels != 0):
        raise DataError("split_benign requires a benign-only dataset (all labels 0)")
    k = int(math.floor(ds.n * train_fraction))
    return Dataset(ds.matrix[:k], ds.labels[:k]), Dataset(ds.matrix[k:], ds.labels[k:])


def assemble_test_set(
    held_out_benign: Dataset, attacks: Dataset, attack_fraction: float, seed: int
) -> Dataset:
    """Concatenate held-out benign rows with a seeded sample of attack rows."""
    if not 0 < attack_fraction <= 1:
        raise ParameterError(f"attack_fraction must be in (0,1], got {attack_fraction}")
    if np.any(attacks.labels != 1):
        raise DataError("attack dataset must contain only label-1 rows")
    if held_out_benign.n == 0:
        logger.warning("assemble_test_set: no held-out benign rows")
    if attacks.n == 0:
        logger.warning("assemble_test_set: no attack rows")
    rng = np.random.default_rng(seed)
    k = int(math.floor(attacks.n * attack_fraction))
    take = np.sort(rng.permutation(attacks.n)[:k])
    matrix = np.concatenate([held_out_benign.matrix, attacks.matrix[take]])
    labels = np.concatenate([held_out_benign.labels, attacks.labels[take]])
    return Dataset(matrix, labels)


def scaler_to_doc(scaler: Scaler) -> dict:
    """The JSON form of a scaler, as scaler.json and th.json store it."""
    return {
        "version": SCALER_FILE_VERSION,
        "feature_names": list(scaler.feature_names),
        "min": scaler.min.tolist(),
        "max": scaler.max.tolist(),
    }


def scaler_from_doc(doc, path: str | Path) -> Scaler:
    """Inverse of `scaler_to_doc`. The feature names are required: every stage
    after preprocess reads its columns from them."""
    try:
        check_version(doc, SCALER_FILE_VERSION, path, "scaler")
        names = tuple(doc["feature_names"])
        scaler = Scaler(np.array(doc["min"], dtype=float), np.array(doc["max"], dtype=float), names)
    except (AttributeError, KeyError, TypeError, ValueError, ShapeError) as exc:  # AttributeError: no object
        raise ModelFormatError(f"{path}: malformed scaler ({exc!r})") from exc
    if not names:
        raise ModelFormatError(f"{path}: the scaler names no feature columns")
    if len(names) != scaler.m:
        raise ModelFormatError(
            f"{path}: the scaler names {len(names)} feature column(s) but holds {scaler.m} min/max pair(s)"
        )
    for bound in ("min", "max"):  # json reads NaN and Infinity; a NaN bound scales its feature to 0
        if not (finite := np.isfinite(getattr(scaler, bound))).all():
            raise ModelFormatError(f"{path}: scaler {bound}[{int(np.argmin(finite))}] is not a finite number")
    return scaler


def check_version(doc: dict, version: int, path: str | Path, kind: str) -> None:
    """Refuse a `kind` file whose "version" is not the integer `version`: true is not 1, nor is 1.0."""
    if type(found := doc.get("version")) is not int or found != version:
        raise ModelFormatError(f"{path}: unsupported {kind} version {found!r}")


def save_scaler(scaler: Scaler, path: str | Path) -> None:
    Path(path).write_text(json_text(scaler_to_doc(scaler)), encoding="utf-8")


def load_scaler(path: str | Path) -> Scaler:
    return scaler_from_doc(read_json(path, "scaler file")[0], path)


def write_csv(
    path: str | Path,
    matrix: np.ndarray,
    labels: np.ndarray,
    spec: FeatureSpec | None = None,
) -> None:
    """Emit rows in the CICDDoS2019 column layout (leading-space headers).

    The extra Flow ID / Timestamp columns mimic the corpus and exercise
    column selection on re-parse.
    """
    spec = spec or FeatureSpec()
    matrix = np.asarray(matrix, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if matrix.shape[1] != spec.m:
        raise ShapeError(
            f"matrix has {matrix.shape[1]} column(s), feature spec expects {spec.m}"
        )
    if labels.shape != (matrix.shape[0],):
        raise ShapeError("label count does not match row count")
    header = ["Flow ID", " Timestamp"] + [f" {name}" for name in spec.names]
    header.append(f" {spec.label_column}")
    # the csv module's line ending; no data cell needs quoting
    line = "flow-%d,%d," + ",".join(["%r"] * spec.m) + ",%s\r\n"
    index, text = np.arange(len(matrix)), np.array([BENIGN_LABEL, "Synthetic"], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        write_rows(fh, line, (index, index, *matrix.T, text[(labels != 0).astype(int)]))


def write_rows(fh: TextIO, line: str, columns: Sequence[np.ndarray]) -> None:
    """Write `line % row` for each row of the equal-length `columns`,
    `PARSE_BLOCK` rows at a time."""
    for lo in range(0, len(columns[0]), PARSE_BLOCK):
        block = [column[lo : lo + PARSE_BLOCK].tolist() for column in columns]
        fh.write("".join(map(line.__mod__, zip(*block))))


def json_text(doc: dict) -> str:
    """`doc` as every JSON artifact holds it: UTF-8 text once written, sorted
    keys, a 2-space indent and a final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def read_json(
    path: str | Path, kind: str, error: type[DataError | ParameterError] = ModelFormatError
) -> tuple[dict, bytes]:
    """The object in the JSON file `path`, a `kind` such as "model file", and the
    bytes it is parsed from. A file that cannot be read is a DataError; one that
    is not valid JSON, or holds no JSON object, is an `error`."""
    try:
        data = Path(path).read_bytes()
        doc = json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {kind} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: malformed {kind} (not a JSON object)")
    return doc, data


@contextmanager
def made_dir(path: str | Path) -> Iterator[Path]:
    """The directory `path`, with its missing levels made; if the block fails, the
    levels it made are removed again, so a failed run leaves no new directory."""
    path = Path(path)
    made = [level for level in (path, *path.parents) if not level.exists()]  # deepest first
    try:
        path.mkdir(parents=True, exist_ok=True)
        yield path
    except BaseException:
        for level in made:
            with suppress(OSError):  # one that holds something else stays
                level.rmdir()
        raise


@contextmanager
def staged(*paths: str | Path | None) -> Iterator[list[str | None]]:
    """A `.part` file beside each output path (None for a None path) to write
    the outputs to. Every part is created on entry, so an output that cannot be
    written, or two that name one file, fail the stage before its work. Each
    part replaces its output only once the block has ended and every part is
    written, so a failed run leaves no output partial or new."""
    parts = [path and f"{path}.part" for path in paths]
    outputs = [(path, part) for path, part in zip(paths, parts) if part]
    real = [os.path.realpath(path) for path, _ in outputs]
    if twice := [str(path) for (path, _), name in zip(outputs, real) if real.count(name) > 1]:
        raise ParameterError(f"outputs {' and '.join(twice)} name one file")
    try:
        for path, part in outputs:
            try:
                if os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                open(part, "w").close()
            except OSError as exc:
                raise DataError(f"cannot write {path}: {exc.strerror}") from exc
        yield parts
        for path, part in outputs:
            os.replace(part, path)
    except BaseException:
        for _, part in outputs:
            Path(part).unlink(missing_ok=True)
        raise
