import numpy as np
import pytest

from shapreg import data
from shapreg.data import (
    DataError,
    Dataset,
    gen_pure_pairwise,
    gen_random_noise,
    load_csv,
    load_feature_matrix,
    undersample,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_well_formed(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
    ds = load_csv(path, label_column="y")
    assert ds.n_samples == 3
    assert ds.feature_names == ["a", "b"]
    assert ds.x[1] == pytest.approx([3.0, 4.0])
    assert list(ds.y) == [0, 1, 0]


def test_missing_value_names_row_and_column(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,0\n3,,1\n")
    with pytest.raises(DataError, match=r"row 2.*column 'b'"):
        load_csv(path, label_column="y")


def test_drop_missing_flag(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,0\n3,nan,1\n5,6,1\n")
    ds = load_csv(path, label_column="y", drop_missing=True)
    assert ds.n_samples == 2
    assert ds.provenance["dropped_rows"] == 1


def test_blank_lines_keep_row_numbers(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,0\n\n3,,1\n")
    with pytest.raises(DataError, match=r"row 3, column 'b'"):
        load_csv(path, label_column="y")


def test_non_finite_cell_named_or_dropped(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,0\n3,-inf,1\n5,6,1\n")
    with pytest.raises(DataError, match=r"non-finite value '-inf' at data row 2, column 'b'"):
        load_csv(path, label_column="y")
    ds = load_csv(path, label_column="y", drop_missing=True)
    assert ds.x.tolist() == [[1.0, 2.0], [5.0, 6.0]]
    assert list(ds.y) == [0, 1]


def test_ragged_row_rejected(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,0\n3,1\n")
    with pytest.raises(DataError, match="data row 2 has 2 fields, expected 3"):
        load_csv(path, label_column="y", drop_missing=True)


def test_feature_matrix_drops_column_unparsed(tmp_path):
    path = write(tmp_path, "a,y,b\n1,case,2\n3,,4\n")
    assert load_feature_matrix(path, drop_column="y").tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(DataError, match=r"non-numeric cell 'case' at data row 1, column 'y'"):
        load_feature_matrix(path)
    with pytest.raises(DataError, match="label column 'z' not in header"):
        load_feature_matrix(path, drop_column="z")


@pytest.mark.parametrize("header, label, repeated", [
    ("a,label,label", "label", "label"),
    ("a,a,label", "label", "a"),
])
def test_a_repeated_header_name_is_refused(tmp_path, header, label, repeated):
    """With ``a,label,label`` the first label column would be dropped and the
    second trained on as a feature; ``a,a,label`` names two features alike."""
    path = write(tmp_path, header + "\n0.5,1,0\n0.25,0,1\n")
    with pytest.raises(DataError, match=f"repeats the column name\\(s\\) \\['{repeated}'\\]"):
        load_csv(path, label_column=label)
    with pytest.raises(DataError, match=f"\\['{repeated}'\\]"):
        load_feature_matrix(path, drop_column=label)
    with pytest.raises(DataError, match=f"\\['{repeated}'\\]"):
        load_feature_matrix(path)


def test_feature_matrix_checks_the_header_against_expected_names(tmp_path):
    path = write(tmp_path, "b,y,a\n1,case,2\n")
    x = load_feature_matrix(path, drop_column="y", feature_names=["b", "a"])
    assert x.tolist() == [[1.0, 2.0]]
    with pytest.raises(DataError, match="feature column 1 is 'b', the model expects 'a' there"):
        load_feature_matrix(path, drop_column="y", feature_names=["a", "b"])
    with pytest.raises(DataError, match="model expects 3 features, data has 2"):
        load_feature_matrix(path, drop_column="y", feature_names=["b", "a", "c"])


def test_non_numeric_cell(tmp_path):
    path = write(tmp_path, "a,b,y\n1,x,0\n")
    with pytest.raises(DataError, match="non-numeric"):
        load_csv(path, label_column="y")


def test_non_binary_labels_rejected(tmp_path):
    path = write(tmp_path, "a,y\n1,0\n2,2\n")
    with pytest.raises(DataError, match="non-binary"):
        load_csv(path, label_column="y")


def test_non_binary_labels_named_as_plain_floats(tmp_path):
    path = write(tmp_path, "a,y\n1,2\n2,0\n")
    with pytest.raises(DataError) as err:
        load_csv(path, label_column="y")
    assert str(err.value) == f"{path}: non-binary labels [2.0]; pass positive_class"


def test_positive_class_binarization(tmp_path):
    path = write(tmp_path, "a,y\n1,case\n2,control\n3,case\n")
    ds = load_csv(path, label_column="y", positive_class="case")
    assert list(ds.y) == [1, 0, 1]
    with pytest.raises(DataError, match="never occurs"):
        load_csv(path, label_column="y", positive_class="CASE")


def test_missing_label_column(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(DataError, match="label column"):
        load_csv(path, label_column="y")


def test_semicolon_delimiter(tmp_path):
    path = write(tmp_path, "a;y\n0.5;1\n0.25;0\n")
    ds = load_csv(path, label_column="y", delimiter=";")
    assert ds.x[0, 0] == 0.5


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_random_noise_deterministic_and_in_box():
    a = gen_random_noise(10, 100, seed=7)
    b = gen_random_noise(10, 100, seed=7)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert a.x.min() >= 0 and a.x.max() <= 1


def test_random_noise_default_shape_and_balance():
    ds = gen_random_noise(seed=0)
    assert ds.x.shape == (100, 10)
    # fair-coin labels: mean within 4/sqrt(N) of one half
    assert abs(ds.y.mean() - 0.5) <= 4 / np.sqrt(100)


def test_pure_pairwise_exact_balance_and_defaults():
    ds = gen_pure_pairwise(seed=0)
    assert ds.x.shape == (1000, 15)
    neg, pos = ds.class_counts()
    assert (neg, pos) == (500, 500)
    assert len(ds.provenance["pairs"]) == 5


def test_pure_pairwise_single_positive_pair_correlates():
    rng = np.random.default_rng(0)
    for seed in range(5):
        ds = gen_pure_pairwise(n=8, big_n=600, pairs=1, seed=seed)
        ((i, j, w),) = [tuple(p) for p in ds.provenance["pairs"]]
        product = ds.x[:, int(i)] * ds.x[:, int(j)]
        corr = np.corrcoef(product, ds.y)[0, 1] * np.sign(w)
        assert corr > 0.3


def test_pure_pairwise_deterministic():
    a = gen_pure_pairwise(n=10, big_n=200, pairs=3, seed=5)
    b = gen_pure_pairwise(n=10, big_n=200, pairs=3, seed=5)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert a.provenance == b.provenance


def test_pure_pairwise_rejects_too_many_pairs():
    with pytest.raises(ValueError):
        gen_pure_pairwise(n=4, big_n=10, pairs=7)


# ---------------------------------------------------------------------------
# undersampling
# ---------------------------------------------------------------------------

def imbalanced(minority, majority, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(minority + majority, 3))
    y = np.array([1] * minority + [0] * majority)
    return Dataset(x=x, y=y, feature_names=["a", "b", "c"])


def test_undersample_arithmetic():
    ds = imbalanced(29, 193)
    out = undersample(ds, 0.33, seed=1)
    neg, pos = out.class_counts()
    assert pos == 29
    assert neg == int(29 / 0.33)  # 87
    assert neg == 87


def test_undersample_balanced_identity():
    ds = imbalanced(50, 50)
    out = undersample(ds, 0.33, seed=1)
    assert out is ds


def test_undersample_deterministic():
    ds = imbalanced(20, 100)
    a = undersample(ds, 0.5, seed=3)
    b = undersample(ds, 0.5, seed=3)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_undersample_rejects_bad_ratio():
    with pytest.raises(ValueError):
        undersample(imbalanced(10, 50), 0.0)


# ---------------------------------------------------------------------------
# dataset validation
# ---------------------------------------------------------------------------

def test_dataset_rejects_nan_and_bad_labels():
    with pytest.raises(DataError):
        Dataset(x=np.array([[np.nan]]), y=np.array([0]), feature_names=["a"])
    with pytest.raises(DataError):
        Dataset(x=np.array([[1.0]]), y=np.array([3]), feature_names=["a"])
    with pytest.raises(DataError):
        Dataset(x=np.ones((2, 2)), y=np.array([0, 1]), feature_names=["a"])


# (text, delimiter, dropped column, whether the bulk parse accepts the file):
# files on which load_feature_matrix must read as the csv reader alone does
PARSE_CORPUS = {
    "clean": ("a,b\n1,2\n3.5,-4e-3\n", ",", None, True),
    "blank lines": ("a,b\n\n1,2\n\n\n3,4\n\n", ",", None, True),
    "whitespace-only line": ("a,b\n1,2\n   \n3,4\n", ",", None, False),
    "tab-only line": ("a,b\n1,2\n\t\n3,4\n", ",", None, False),
    "whitespace-only line, one column": ("a\n1\n  \n3\n", ",", None, False),
    "spaces around cells": ("a,b\n 1 , 2\t\n", ",", None, True),
    "utf-8 bom": ("\ufeffa,b\n1,2\n", ",", None, True),
    "quoted cell": ('a,b\n1,"2"\n', ",", None, False),
    "cell containing #": ("a,b\n1,2#3\n", ",", None, False),
    "comment-like line": ("a,b\n# note\n1,2\n", ",", None, False),
    "underscore digits": ("a,b\n1_000,2\n", ",", None, False),
    "inf": ("a,b\n1,inf\n", ",", None, False),
    "nan": ("a,b\nnan,2\n", ",", None, False),
    "missing cell": ("a,b\n1,\n", ",", None, False),
    "non-ascii digit": ("a,b\n1,\u0661\n", ",", None, False),
    "trailing delimiter": ("a,b\n1,2,\n", ",", None, False),
    "ragged long row": ("a,b,y\n1,2,0\n3,4,1,5\n", ",", None, False),
    "ragged long row, label dropped": ("a,b,y\n1,2,0\n3,4,1,5\n", ",", "y", False),
    "ragged short row, label dropped": ("a,b,y\n1,2,0\n3,4\n", ",", "y", False),
    "trailing delimiter, label dropped": ("a,y,b\n1,0,2,\n", ",", "y", False),
    "text labels dropped": ("a,y,b\n1,yes,2\n3,,4\n", ",", "y", True),
    "quoted label with a delimiter": ('a,y,b\n1,"p,q",2\n', ",", "y", False),
    "header only": ("a,b\n", ",", None, False),
    "header and blank lines only": ("a,b\n\n\r\n", ",", None, False),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n", ",", None, True),
    "crlf, label dropped": ("a,y,b\r\n1,0,2\r\n\r\n3,1,4\r\n", ",", "y", True),
    "semicolons": ("a;b;y\n1,5;2;0\n3;4;1\n", ";", "y", False),
    "carriage-return delimiter": ("a\rb\n1\r2\n", "\r", None, False),
    "semicolons, clean": ("a;b;y\n1.5;2;0\n3;4;1\n", ";", "y", True),
    "digits past double precision": ("a,b\n0.1000000000000000055511151231257827,"
                                     "2.2250738585072011e-308\n", ",", None, True),
    "quoted label": ('a,y\n1,"1"\n2,0\n', ",", "y", False),
    "label with spaces": ("a,y,b\n1, yes ,2\n3,no,4\n", ",", "y", True),
    "empty label": ("a,y\n1,\n2,1\n", ",", "y", True),
    "text labels": ("a,y\n1,pos\n2,neg\n3,pos\n", ",", "y", True),
    "float labels": ("a,y\n1,1.0\n2,0\n3,1\n", ",", "y", True),
    "non-binary labels": ("a,y\n1,2\n2,0\n", ",", "y", True),
    "crlf, label last": ("a,b,y\r\n1,2,1\r\n3,4,0\r\n", ",", "y", True),
    "semicolons, label first": ("y;a;b\n1;1.5;2\n0;3;4\n", ";", "y", True),
    "missing cell, label dropped": ("a,y,b\n1,0,\n2,1,3\n4,0,na\n5,1,6\n", ",", "y", False),
}

# positive_class for load_csv on the corpus files whose labels are text
POSITIVE_CLASS = {"text labels dropped": "yes", "label with spaces": "yes", "text labels": "pos"}


def _result(load, *args, **kwargs):
    """What ``load`` returns, or the text of the DataError it raises."""
    try:
        return load(*args, **kwargs)
    except DataError as exc:
        return str(exc)


def _row_reader_result(monkeypatch, load, *args, **kwargs):
    """``load``'s result with the bulk parse refusing every file, so that the
    row-naming reader alone reads it."""
    with monkeypatch.context() as patch:
        patch.setattr(data, "_bulk_parse", lambda *_: None)
        return _result(load, *args, **kwargs)


def _recording_bulk_parse(monkeypatch):
    """Patch the bulk parse to record what it returns; returns the record."""
    bulk_results = []
    bulk_parse = data._bulk_parse

    def recorded(*args):
        bulk_results.append(bulk_parse(*args))
        return bulk_results[-1]

    monkeypatch.setattr(data, "_bulk_parse", recorded)
    return bulk_results


@pytest.mark.parametrize("name", sorted(PARSE_CORPUS))
def test_bulk_parse_reads_as_the_csv_reader(tmp_path, monkeypatch, name):
    text, delimiter, drop, bulk_accepts = PARSE_CORPUS[name]
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _row_reader_result(monkeypatch, load_feature_matrix, path, delimiter, drop_column=drop)
    bulk_results = _recording_bulk_parse(monkeypatch)
    got = _result(load_feature_matrix, path, delimiter, drop_column=drop)
    assert [r is not None for r in bulk_results] == [bulk_accepts]
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("drop_missing", [False, True])
@pytest.mark.parametrize("name", sorted(n for n, case in PARSE_CORPUS.items() if case[2]))
def test_load_csv_reads_as_the_csv_reader(tmp_path, monkeypatch, name, drop_missing):
    """load_csv takes its features and labels from the bulk parse where that
    accepts the file, and gives what the row-naming reader gives: the same
    x bits, labels, names and dropped-row count, or the same error."""
    text, delimiter, label, bulk_accepts = PARSE_CORPUS[name]
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    options = dict(label_column=label, positive_class=POSITIVE_CLASS.get(name),
                   delimiter=delimiter, drop_missing=drop_missing)
    want = _row_reader_result(monkeypatch, load_csv, path, **options)
    bulk_results = _recording_bulk_parse(monkeypatch)
    got = _result(load_csv, path, **options)
    assert [r is not None for r in bulk_results] == [bulk_accepts]
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, Dataset)
        assert got.x.shape == want.x.shape
        assert np.array_equal(got.x.view(np.int64), want.x.view(np.int64))
        assert got.y.tolist() == want.y.tolist()
        assert got.feature_names == want.feature_names
        assert got.provenance == want.provenance
