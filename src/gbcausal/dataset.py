"""Observational data model, fold assignment, and CSV ingestion/emission.

The on-disk format is a plain UTF-8 CSV with header ``x1,...,xd,a,y``, LF
line endings, full-precision decimal floats, and no quoting. Ground truth is
never serialized; it only exists on in-memory DGP outputs.
"""

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvalidFoldCount, ParseError, SchemaError
from .numerics import Rng


@dataclass(frozen=True)
class GroundTruth:
    """Known estimands attached to synthetic data: the scalar ATE and the
    CATE as a vectorized function of covariate rows."""

    ate: float
    cate: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Dataset:
    """Covariates (n x d), binary treatment, outcome, optional ground truth.

    Immutable after construction; the arrays are marked read-only.
    """

    x: np.ndarray
    a: np.ndarray
    y: np.ndarray
    truth: Optional[GroundTruth] = field(default=None, compare=False)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        a = np.asarray(self.a, dtype=float).reshape(-1)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if x.shape[0] != a.shape[0] or a.shape[0] != y.shape[0]:
            raise DomainError("x, a, y must share the same length")
        if x.shape[0] < 1:
            raise DomainError("dataset must contain at least one observation")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("covariates and outcomes must be finite")
        # checked before the integer cast, which would truncate 0.5 to 0
        if not np.all((a == 0) | (a == 1)):
            raise DomainError("treatment must be binary 0/1")
        a = a.astype(np.int64)
        for arr in (x, a, y):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]


@dataclass(frozen=True)
class FoldAssignment:
    """k folds; fold_of[i] is the fold index of observation i."""

    k: int
    fold_of: np.ndarray

    def indices(self, fold):
        return np.flatnonzero(self.fold_of == fold)

    def complement(self, fold):
        return np.flatnonzero(self.fold_of != fold)


def make_folds(n, k, rng: Rng) -> FoldAssignment:
    """Uniformly random balanced partition of {0,...,n-1} into k folds.

    Fold sizes differ by at most one; deterministic given rng.
    """
    if k < 2 or k > n:
        raise InvalidFoldCount(f"fold count must satisfy 2 <= k <= n, got k={k}, n={n}")
    perm = rng.permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    # Deal the shuffled indices into k nearly equal contiguous blocks.
    base, extra = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        fold_of[perm[start : start + size]] = fold
        start += size
    fold_of.setflags(write=False)
    return FoldAssignment(k=k, fold_of=fold_of)


def _format_float(v):
    # repr() is the shortest representation that round-trips exactly.
    return repr(float(v))


def write_csv(ds: Dataset, path):
    header = [f"x{j + 1}" for j in range(ds.d)] + ["a", "y"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(ds.n):
            row = [_format_float(v) for v in ds.x[i]]
            row.append(str(int(ds.a[i])))
            row.append(_format_float(ds.y[i]))
            fh.write(",".join(row) + "\n")


# Characters per read of a CSV body: a chunk's text, lines and parsed rows
# stay a fraction of the table, and np.loadtxt's cost per call is spread.
_CSV_CHUNK = 1 << 18


def read_csv(path) -> Dataset:
    """Read a dataset written in the format above, with or without a
    leading UTF-8 byte-order mark.

    The file is read once, front to back, so a pipe works: the header line,
    then whole lines in chunks of about _CSV_CHUNK characters. Each chunk
    is parsed in one vectorised ``np.loadtxt`` pass, kept only if it has
    exactly one row per line and d + 2 columns, all finite, with a 0/1
    treatment column. Any other chunk (blank lines, a field ``float()``
    reads and numpy does not, such as ``1_0``, or a bad value) is parsed
    again row by row, which raises the ``ParseError`` naming the first bad
    row and column of the file. The chunks' parsed rows are kept and joined
    by one ``np.concatenate`` per column after the last chunk, so the read
    holds about two tables at its peak: the chunks' rows and the joined
    columns.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        header_line = fh.readline()
        if not header_line:
            raise SchemaError("empty file: expected a header row 'x1,...,xd,a,y'")
        header = header_line.removesuffix("\n").split(",")
        if len(header) < 3 or header[-2:] != ["a", "y"]:
            raise SchemaError(f"header must end with 'a,y', got {header!r}")
        d = len(header) - 2
        expected = [f"x{j + 1}" for j in range(d)]
        if header[:d] != expected:
            raise SchemaError(f"covariate columns must be x1..x{d}, got {header[:d]!r}")
        pieces = []  # (x, a, y) of each chunk
        n = 0
        for chunk in _line_chunks(fh):
            pieces.append(_parse_chunk(chunk, d, n))
            n += pieces[-1][0].shape[0]
    if not pieces:
        raise SchemaError("empty body: a dataset needs at least one row")
    return Dataset(*(np.concatenate(col) for col in zip(*pieces)))


def _line_chunks(fh):
    """The rest of the text file fh as strings of whole lines: each read of
    _CSV_CHUNK characters completed to a line end, less that last newline."""
    while text := fh.read(_CSV_CHUNK):
        yield (text + fh.readline()).removesuffix("\n")


def _parse_chunk(text, d, skipped):
    """(x, a, y) of the lines in text, which follow `skipped` body lines."""
    body = text.split("\n")
    # numpy's float parser strips the ASCII separators \x1c-\x1f as
    # whitespace; float() rejects them, so a chunk holding one takes the loop.
    table = None
    if not any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns on an all-blank body
                table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except (ValueError, UserWarning):
            pass
    if (
        table is None
        or table.shape != (len(body), d + 2)
        or not np.isfinite(table).all()
        or not ((table[:, d] == 0.0) | (table[:, d] == 1.0)).all()
    ):
        try:
            rows = _parse_rows(body, d)
        except ParseError as err:
            raise ParseError(err.reason, row=err.row + skipped, col=err.col) from None
        return rows.x, rows.a, rows.y
    return table[:, :d], table[:, d], table[:, d + 1]


def _parse_rows(body, d) -> Dataset:
    """Parse the body lines cell by cell; the first bad cell raises a
    ParseError with its 1-based file row and column."""
    n = len(body)
    x = np.empty((n, d), dtype=float)
    a = np.empty(n, dtype=np.int64)
    y = np.empty(n, dtype=float)
    for i, line in enumerate(body):
        row_no = i + 2  # 1-based file line number
        parts = line.split(",")
        if len(parts) != d + 2:
            raise ParseError(
                f"expected {d + 2} fields, found {len(parts)}", row=row_no, col=len(parts)
            )
        for j, tok in enumerate(parts):
            col_no = j + 1
            try:
                val = float(tok)
            except ValueError:
                raise ParseError(f"could not parse {tok!r} as a number", row=row_no, col=col_no) from None
            if not np.isfinite(val):
                raise ParseError(f"non-finite value {tok!r}", row=row_no, col=col_no)
            if j < d:
                x[i, j] = val
            elif j == d:
                if val not in (0.0, 1.0):
                    raise ParseError(f"treatment must be 0 or 1, got {tok!r}", row=row_no, col=col_no)
                a[i] = int(val)
            else:
                y[i] = val
    return Dataset(x=x, a=a, y=y)
