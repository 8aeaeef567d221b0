import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gbcausal import dataset
from gbcausal.dataset import Dataset, make_folds, read_csv, write_csv
from gbcausal.dgp import default_spec, generate
from gbcausal.errors import DomainError, InvalidFoldCount, ParseError, SchemaError
from gbcausal.numerics import Rng


class TestDataset:
    def test_basic_construction(self):
        ds = Dataset(x=[[1.0, 2.0]], a=[1], y=[0.5])
        assert ds.n == 1 and ds.d == 2

    def test_arrays_read_only(self):
        ds = Dataset(x=[[1.0]], a=[0], y=[2.0])
        with pytest.raises(ValueError):
            ds.y[0] = 3.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x": [[1.0], [2.0]], "a": [0], "y": [1.0, 2.0]},
            {"x": [[np.nan]], "a": [0], "y": [1.0]},
            {"x": [[1.0]], "a": [2], "y": [1.0]},
            {"x": [[1.0]], "a": [0], "y": [np.inf]},
            {"x": np.zeros((0, 1)), "a": [], "y": []},
            {"x": np.zeros((3, 0)), "a": [0, 1, 0], "y": [1.0, 2.0, 3.0]},
        ],
    )
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(DomainError):
            Dataset(**kwargs)

    @pytest.mark.parametrize(
        "a, y", [([0.5, 1.7, 0.2], [0.0, 1.0, 2.0]), ([np.nan, 1.0], [0.0, 1.0])],
        ids=["fractional", "nan"],
    )
    def test_non_binary_treatment_is_not_truncated(self, a, y):
        with pytest.raises(DomainError, match="treatment must be binary 0/1"):
            Dataset(x=np.zeros((len(a), 1)), a=a, y=y)


class TestMakeFolds:
    def test_forced_balance_small(self):
        fold_of = make_folds(4, 2, Rng(0))
        sizes = sorted(np.bincount(fold_of).tolist())
        assert sizes == [2, 2]

    def test_uneven_balance(self):
        fold_of = make_folds(5, 2, Rng(1))
        assert sorted(np.bincount(fold_of).tolist()) == [2, 3]

    def test_large_balance(self):
        fold_of = make_folds(1000, 5, Rng(2))
        assert np.bincount(fold_of).tolist() == [200] * 5

    def test_every_index_assigned_once(self):
        fold_of = make_folds(37, 4, Rng(3))
        assert fold_of.shape == (37,) and fold_of.dtype == np.int64
        assert not fold_of.flags.writeable
        assert set(fold_of.tolist()) == {0, 1, 2, 3}
        joined = np.concatenate([np.flatnonzero(fold_of == k) for k in range(4)])
        assert sorted(joined.tolist()) == list(range(37))

    def test_deterministic(self):
        a = make_folds(100, 5, Rng(7, 3))
        b = make_folds(100, 5, Rng(7, 3))
        np.testing.assert_array_equal(a, b)

    def test_assignment_frequencies_uniform(self):
        n, k = 30, 3
        counts = np.zeros((n, k))
        for seed in range(1000):
            fold_of = make_folds(n, k, Rng(900, seed))
            counts[np.arange(n), fold_of] += 1
        freq = counts / 1000.0
        assert np.all(np.abs(freq - 1.0 / k) <= 0.05)

    @pytest.mark.parametrize("n,k", [(10, 1), (10, 11), (3, 0)])
    def test_invalid_fold_count(self, n, k):
        with pytest.raises(InvalidFoldCount):
            make_folds(n, k, Rng(0))


class TestCsv:
    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x1,a,y\n0.0,1,2.5\n", encoding="utf-8")
        ds = read_csv(path)
        assert ds.n == 1 and ds.d == 1
        assert ds.x[0, 0] == 0.0 and ds.a[0] == 1 and ds.y[0] == 2.5

    def test_empty_file_schema_error(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_bytes(b"")
        with pytest.raises(SchemaError, match="empty file"):
            read_csv(path)

    def test_empty_body_schema_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,x2,a,y\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_csv(path)

    def test_missing_columns_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,a\n1.0,2.0,1\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_csv(path)

    def test_header_without_covariates_names_the_format(self, tmp_path):
        path = tmp_path / "ay.csv"
        path.write_text("a,y\n0,1.0\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r"'x1,\.\.\.,xd,a,y' with d >= 1, got \['a', 'y'\]"):
            read_csv(path)

    def test_misnamed_covariates_schema_error(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("z1,z2,a,y\n1.0,2.0,1,0.0\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            read_csv(path)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("x1,a,y\n1.0,1,2.0\noops,0,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_csv(path)
        assert err.value.row == 3 and err.value.col == 1

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "bad4.csv"
        path.write_text("x1,a,y\n1.0,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_csv(path)
        assert err.value.row == 2

    def test_nonbinary_treatment(self, tmp_path):
        path = tmp_path / "bad5.csv"
        path.write_text("x1,a,y\n1.0,0.5,2.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_csv(path)
        assert err.value.col == 2

    def test_roundtrip_d1_draw_is_exact(self, tmp_path):
        ds = generate(default_spec("D1"), 100, Rng(13))
        path = tmp_path / "d1.csv"
        write_csv(ds, path)
        back = read_csv(path)
        # repr-based formatting round-trips every float exactly
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.a, ds.a)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_written_file_uses_lf_and_header(self, tmp_path):
        ds = generate(default_spec("D1"), 3, Rng(1))
        path = tmp_path / "d1.csv"
        write_csv(ds, path)
        raw = path.read_bytes().decode("utf-8")
        assert raw.startswith("x1,x2,a,y\n")
        assert "\r" not in raw
        assert raw.endswith("\n")

    @staticmethod
    def _normal_csv(path, n, seed):
        x = Rng(seed).normal((n, 2))
        a = (Rng(seed, 1).uniform(n) < 0.5).astype(int)
        ds = Dataset(x=x, a=a, y=x[:, 0] + a + Rng(seed, 2).normal(n))
        write_csv(ds, path)
        return ds

    def test_reads_through_a_pipe(self, tmp_path):
        # a --data path need not be a regular file: /dev/stdin, a FIFO or a
        # shell process substitution can be read once only
        path = tmp_path / "rows.csv"
        ds = self._normal_csv(path, 2000, 15)
        text = path.read_bytes()
        fd_dir = Path("/dev/fd")
        if not fd_dir.is_dir():
            pytest.skip("needs /dev/fd")
        r, w = os.pipe()

        def feed():
            with os.fdopen(w, "wb") as fh:
                fh.write(text)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            back = read_csv(fd_dir / str(r))
        finally:
            writer.join()
            os.close(r)
        for name in ("x", "a", "y"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()

    def test_bad_cell_deep_in_the_file_names_its_row(self, tmp_path):
        path = tmp_path / "late.csv"
        self._normal_csv(path, 3000, 16)
        lines = path.read_text(encoding="utf-8").split("\n")
        parts = lines[2500].split(",")
        parts[1] = "oops"
        lines[2500] = ",".join(parts)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match="could not parse 'oops'") as err:
            read_csv(path)
        assert (err.value.row, err.value.col) == (2501, 2)

    @pytest.mark.parametrize("fault, message, col", [
        ("cell", "could not parse 'oops'", 2),
        ("separator", "could not parse '\\x1c", 1),
        ("short", "expected 4 fields, found 3", 3),
    ])
    def test_fault_in_a_later_chunk_names_its_file_row(self, tmp_path, fault, message, col):
        path = tmp_path / "chunks.csv"
        self._normal_csv(path, 12000, 17)
        lines = path.read_text(encoding="utf-8").split("\n")
        offsets = np.cumsum([len(line) + 1 for line in lines[1:]])
        i = 1 + int(np.searchsorted(offsets, 1.5 * dataset._CSV_CHUNK))  # in the second chunk
        parts = lines[i].split(",")
        if fault == "cell":
            parts[1] = "oops"
        elif fault == "separator":
            parts[0] = "\x1c" + parts[0]
        else:
            parts.pop()
        lines[i] = ",".join(parts)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            read_csv(path)
        assert (err.value.row, err.value.col) == (i + 1, col)
        with pytest.raises(ParseError) as whole:
            _loop_read(path)  # the row-by-row parse of the whole body
        assert str(err.value) == str(whole.value)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "x1,a,y\n1.0,1,2.5\n-3.0,0,0.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        got, want = read_csv(marked), read_csv(plain)
        for name in ("x", "a", "y"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_read_holds_about_one_table(self, tmp_path):
        path = tmp_path / "big.csv"
        n = 100_000
        self._normal_csv(path, n, 18)
        tracemalloc.start()
        try:
            ds = read_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n == n
        assert peak <= 2.5 * n * (ds.d + 2) * 8

    @pytest.mark.parametrize("last_cell", ["2.5", "2_5"], ids=["vectorised", "loop"])
    def test_file_without_trailing_newline(self, tmp_path, last_cell):
        with_newline, without = tmp_path / "lf.csv", tmp_path / "no_lf.csv"
        text = f"x1,a,y\n1.0,1,0.5\n-3.0,0,{last_cell}"
        with_newline.write_text(text + "\n", encoding="utf-8")
        without.write_text(text, encoding="utf-8")
        got, want = read_csv(without), read_csv(with_newline)
        assert got.n == 2
        assert got.y.tolist() == [0.5, float(last_cell)]
        for name in ("x", "a", "y"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("how", ["lf", "no_lf", "pipe"])
    def test_rows_longer_than_a_chunk(self, tmp_path, how):
        ds = Dataset(x=Rng(19).normal((3, 15000)), a=[0, 1, 1], y=Rng(20).normal(3))
        path = tmp_path / "wide.csv"
        write_csv(ds, path)
        text = path.read_bytes()
        assert min(len(line) for line in text.split(b"\n")[1:-1]) > dataset._CSV_CHUNK
        if how == "no_lf":
            path.write_bytes(text[:-1])
        back = _read_through_a_pipe(text) if how == "pipe" else read_csv(path)
        for name in ("x", "a", "y"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()

    @pytest.mark.parametrize("rows_after", [0, 3])
    def test_chunk_ending_on_a_newline(self, tmp_path, rows_after):
        # the body's _CSV_CHUNK-th character ends a line
        row = "0.5,1,0.25"
        k, pad = divmod(dataset._CSV_CHUNK, len(row) + 1)
        body = [row] * (k - 1) + ["-1.0,0,0.25" + "0" * (pad - 1)] + ["2.0,0,-3.5"] * rows_after
        text = "\n".join(body) + "\n"
        assert text[dataset._CSV_CHUNK - 1] == "\n"
        path = tmp_path / "edge.csv"
        path.write_text("x1,a,y\n" + text, encoding="utf-8")
        got, want = read_csv(path), _loop_read(path)
        assert got.n == k + rows_after
        for name in ("x", "a", "y"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_roundtrip_d8_draw_is_byte_identical(self, tmp_path):
        ds = generate(default_spec("D8"), 150, Rng(14))
        assert ds.d == 50
        path = tmp_path / "d8.csv"
        write_csv(ds, path)
        back = read_csv(path)
        for name in ("x", "a", "y"):
            got, want = getattr(back, name), getattr(ds, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _read_through_a_pipe(data):
    """read_csv of the bytes `data` fed through a pipe's /dev/fd path."""
    fd_dir = Path("/dev/fd")
    if not fd_dir.is_dir():
        pytest.skip("needs /dev/fd")
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read_csv(fd_dir / str(r))
    finally:
        writer.join()
        os.close(r)


def _loop_read(path):
    """The row-by-row parse of a file, bypassing the vectorised pass."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return dataset._parse_rows(lines[1:], len(lines[0].split(",")) - 2)


# Field values that float() and numpy's parser disagree on, that are not
# finite, or that are not a 0/1 treatment, and lines that are not data.
_LOOP_ONLY = ["1_0", "\u0661", "2_5e-1", "\u0661\u0662", "\u00a01"]
_CELLS = ["+1", "nan", "inf", "-inf", "", " ", "#1", " 2.5 ", "\x1c1", "1e400"]
_TREATMENTS = ["2", "0.5", "-0.0", "1.0", "+1", " 0 ", "1e0"]
_EXTRA_LINES = ["# comment", "", "   ", "\t"]


def _pick(rng, options):
    return options[rng.integers(len(options))]


def _mutated_file(rng):
    """A valid CSV (d in 1..3, n in 1..6) with up to three random mutations."""
    d, n = 1 + rng.integers(3), 1 + rng.integers(6)
    rows = [
        [repr(float(v)) for v in rng.normal(d)] + [str(rng.integers(2)), repr(float(rng.normal()))]
        for _ in range(n)
    ]
    lines = [",".join(row) for row in rows]
    for _ in range(rng.integers(4)):
        i = rng.integers(len(lines))
        kind = rng.integers(9)
        parts = lines[i].split(",")
        if kind == 0:
            lines.insert(rng.integers(len(lines) + 1), _pick(rng, _EXTRA_LINES))
        elif kind == 1:
            lines[i] += "\r"  # CRLF
        elif kind == 2:
            parts[rng.integers(len(parts))] = _pick(rng, _CELLS)
            lines[i] = ",".join(parts)
        elif kind == 3 and len(parts) == d + 2:
            parts[d] = _pick(rng, _TREATMENTS)
            lines[i] = ",".join(parts)
        elif kind == 4:
            lines[i] = ",".join(parts[:-1])  # short row
        elif kind == 5:
            lines[i] += "," + repr(float(rng.normal()))  # long row
        elif kind == 6:
            lines[i] += ","  # trailing comma
        elif kind == 7:
            lines[i] = lines[i].replace(",", ",,", 1)  # empty field
        else:
            parts[rng.integers(len(parts))] = _pick(rng, _LOOP_ONLY)
            lines[i] = ",".join(parts)
    header = ",".join([f"x{j + 1}" for j in range(d)] + ["a", "y"])
    return "\n".join([header] + lines) + "\n"


def test_vectorised_and_loop_parses_agree(tmp_path, monkeypatch):
    # read_csv must give the loop's bytes or the loop's ParseError on every
    # file, and the mutated files must reach each of those outcomes.
    loop_calls = []
    original = dataset._parse_rows

    def counting(body, d):
        loop_calls.append(d)
        return original(body, d)

    monkeypatch.setattr(dataset, "_parse_rows", counting)
    rng = Rng(140)
    path = tmp_path / "fuzz.csv"
    outcomes = {"vectorised": 0, "loop": 0, "error": 0}
    for case in range(1000):
        path.write_bytes(_mutated_file(rng.derive(case)).encode("utf-8"))
        loop_calls.clear()
        try:
            got = read_csv(path)
        except ParseError as err:
            outcomes["error"] += 1
            with pytest.raises(ParseError) as want:
                _loop_read(path)
            assert (err.row, err.col, str(err)) == (
                want.value.row, want.value.col, str(want.value)
            ), case
            continue
        outcomes["loop" if loop_calls else "vectorised"] += 1
        want = _loop_read(path)
        for name in ("x", "a", "y"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, case
            assert getattr(got, name).shape == getattr(want, name).shape, case
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), case
    assert min(outcomes.values()) >= 20, outcomes
