import hashlib
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cobranch
from cobranch import data
from cobranch.data import (
    SIDECAR_SUFFIX,
    EmbeddingFormatError,
    load_embeddings,
    make_class_means,
    make_longtail_counts,
    sample_from_means,
    save_embeddings,
    split_from_mask,
    split_independent_pools,
    split_known_novel,
)
from oracles import (
    gen_synthetic,
    loop_longtail_counts,
    nearest_mean_accuracy,
    reference_load_embeddings,
    reference_save_embeddings,
)


class TestLongtailCounts:
    def test_exponential_closed_form(self):
        counts = make_longtail_counts(5, "exponential", 16, 16)
        assert counts.tolist() == [16, 8, 4, 2, 1]

    def test_balanced_when_rho_one(self):
        counts = make_longtail_counts(2, "exponential", 1, 50)
        assert counts.tolist() == [50, 50]

    def test_cifar100lt_scale_total(self):
        # C=100, rho=100, n_max=500 totals ~10.8K before the labeled split
        counts = make_longtail_counts(100, "exponential", 100, 500)
        assert 10700 <= counts.sum() <= 11000
        assert counts[0] == 500 and counts[-1] == 5

    def test_pareto_endpoints(self):
        counts = make_longtail_counts(10, "pareto", 20, 100)
        assert counts[0] == 100
        assert counts[-1] == 5

    @pytest.mark.parametrize("kind", ["exponential", "pareto"])
    def test_non_increasing_and_ratio(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(25):
            C = int(rng.integers(2, 40))
            rho = float(rng.uniform(1, 200))
            n_max = int(rng.integers(int(np.ceil(rho)), 2000))
            counts = make_longtail_counts(C, kind, rho, n_max)
            assert np.all(np.diff(counts) <= 0)
            assert counts[-1] >= 1
            tail = counts[-1]
            ratio = counts[0] / tail
            assert rho * (1 - 2 / tail) <= ratio <= rho * (1 + 2 / tail)

    @pytest.mark.parametrize("kind", ["exponential", "pareto"])
    def test_matches_per_class_rounding(self, kind):
        rng = np.random.default_rng(11)
        for i in range(300):
            C = int(rng.integers(2, 60))
            # integer ratios and small sizes put raw sizes on exact halves (5 / 2 = 2.5)
            rho = float(rng.integers(1, 9)) if i % 2 else float(np.exp(rng.uniform(0, 8)))
            n_max = int(rng.integers(int(np.ceil(rho)), 40 if i % 2 else 5000))
            counts = make_longtail_counts(C, kind, rho, n_max)
            expected = loop_longtail_counts(C, kind, rho, n_max)
            assert counts.dtype == expected.dtype and np.array_equal(counts, expected), (C, rho, n_max)


def toy_pool(counts, d=4, seed=0):
    return gen_synthetic(len(counts), d, np.asarray(counts), 8.0, 0.5, seed)


def n_unlabeled(split):
    return len(split.X) - split.y_lab.size


class TestSplitKnownNovel:
    def test_count_arithmetic(self):
        split = split_known_novel(*toy_pool([10, 10]), num_known=1, labeled_ratio=0.5, seed=0)
        assert split.y_lab.size == 5
        assert n_unlabeled(split) == 15

    def test_fully_supervised_degenerate(self):
        split = split_known_novel(*toy_pool([6, 6, 6]), num_known=3, labeled_ratio=1.0, seed=1)
        assert n_unlabeled(split) == 0
        assert split.y_lab.size == 18

    def test_conservation_and_no_labeled_novels(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            counts = rng.integers(3, 30, size=6)
            X, y = toy_pool(counts.tolist(), seed=trial)
            split = split_known_novel(X, y, num_known=4, labeled_ratio=0.5, seed=trial)
            assert len(split.X) == counts.sum()
            assert np.all(split.y_lab < 4)
            assert int(split.true_counts.sum()) == counts.sum()

    def test_remap_recorded_and_consistent(self):
        X, y = toy_pool([12, 9, 6, 3])
        split = split_known_novel(X, y, num_known=2, labeled_ratio=0.5, seed=9)
        assert split.class_remap.dtype.kind == "i"
        assert sorted(split.class_remap.tolist()) == [0, 1, 2, 3]
        # hidden labels of unlabeled known-class samples follow the remap
        unl_ids = split.ids[split.y_lab.size :]
        for sid, hidden in zip(unl_ids, split.unlabeled_true_labels):
            assert split.class_remap[int(y[sid])] == hidden

    def test_deterministic_per_seed(self):
        pool = toy_pool([10, 8, 5])
        a = split_known_novel(*pool, 2, 0.5, seed=5)
        b = split_known_novel(*pool, 2, 0.5, seed=5)
        c = split_known_novel(*pool, 2, 0.5, seed=6)
        assert np.array_equal(a.ids, b.ids) and np.array_equal(a.X, b.X)
        assert np.array_equal(a.class_remap, b.class_remap)
        assert not np.array_equal(a.ids, c.ids) or not np.array_equal(a.class_remap, c.class_remap)

    def test_rejects_bad_ratio_and_known_count(self):
        pool = toy_pool([5, 5])
        with pytest.raises(ValueError):
            split_known_novel(*pool, 3, 0.5, seed=0)


def check_split(split, pool_X, pool_y, num_known):
    """Invariants every split shares; returns the remap as an array."""
    n, C = len(pool_X), split.num_classes
    n_lab = split.y_lab.size
    # every input (id, row) appears exactly once, labeled rows first
    assert len(split.X) == int(split.true_counts.sum()) == n
    assert np.array_equal(np.sort(split.ids), np.arange(n))
    assert np.array_equal(split.X, pool_X[split.ids])
    assert np.all((split.y_lab >= 0) & (split.y_lab < num_known))
    remap = split.class_remap
    assert np.array_equal(np.sort(remap), np.arange(C))
    remapped = remap[pool_y[split.ids]]
    assert np.array_equal(remapped[:n_lab], split.y_lab)
    assert np.array_equal(remapped[n_lab:], split.unlabeled_true_labels)
    assert np.array_equal(split.true_counts, np.bincount(remapped, minlength=C))
    # novel split ids run from the largest novel class down
    assert np.all(np.diff(split.true_counts[num_known:]) <= 0)
    return remap


def same_split(a, b):
    return (np.array_equal(a.X, b.X) and np.array_equal(a.ids, b.ids)
            and np.array_equal(a.y_lab, b.y_lab) and np.array_equal(a.class_remap, b.class_remap))


@st.composite
def class_setup(draw):
    C = draw(st.integers(2, 8))
    counts = np.array(draw(st.lists(st.integers(1, 30), min_size=C, max_size=C)))
    return counts, draw(st.integers(1, C)), draw(st.integers(0, 2**16))


class TestSplitProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(setup=class_setup(), ratio=st.floats(0.01, 1.0))
    def test_equal_ratio_path(self, setup, ratio):
        counts, num_known, seed = setup
        X, y = gen_synthetic(counts.size, 3, counts, 5.0, 1.0, seed)
        split = split_known_novel(X, y, num_known, ratio, seed)
        remap = check_split(split, X, y, num_known)
        labeled = np.bincount(split.y_lab, minlength=num_known)
        known = np.flatnonzero(remap < num_known)
        assert np.array_equal(labeled[remap[known]], np.floor(ratio * counts[known]))
        assert same_split(split, split_known_novel(X, y, num_known, ratio, seed))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(setup=class_setup(), rho_l=st.floats(1.0, 10.0), n_max_l=st.integers(10, 40))
    def test_unequal_ratio_path(self, setup, rho_l, n_max_l):
        counts_u, num_known, seed = setup
        C = counts_u.size
        if num_known >= 2:
            counts_l = make_longtail_counts(num_known, "exponential", rho_l, n_max_l)
        else:
            counts_l = np.array([n_max_l])
        means = make_class_means(C, 3, 5.0, seed)
        split = split_independent_pools(means, counts_u, counts_l, num_known, 1.0, seed)
        # the known classes, ranked by unlabeled count, get the profile's counts
        known = sorted((o for o, k in enumerate(split.class_remap) if k < num_known),
                       key=lambda o: (-counts_u[o], o))
        totals = counts_u.copy()
        totals[known] += counts_l
        pool_X, pool_y = sample_from_means(means, totals, 1.0, seed)
        check_split(split, pool_X, pool_y, num_known)
        labeled = np.bincount(split.y_lab, minlength=num_known)
        for rank, orig in enumerate(known):
            assert labeled[split.class_remap[orig]] == counts_l[rank]
        again = split_independent_pools(means, counts_u, counts_l, num_known, 1.0, seed)
        assert same_split(split, again)


class TestGenSynthetic:
    def test_well_separated_nearest_mean(self):
        X, y = gen_synthetic(3, 6, np.array([100, 10, 1]), 10.0, 1.0, seed=2)
        assert X.shape == (111, 6)
        assert nearest_mean_accuracy(X, y) > 0.99

    def test_zero_noise_collapses_to_means(self):
        X, y = gen_synthetic(3, 5, np.array([4, 4, 4]), 5.0, 0.0, seed=3)
        for c in range(3):
            rows = X[y == c]
            assert np.all(rows == rows[0])

    def test_seed_repeat_bit_identical(self):
        a = gen_synthetic(4, 7, np.array([9, 7, 5, 3]), 6.0, 1.0, seed=11)
        b = gen_synthetic(4, 7, np.array([9, 7, 5, 3]), 6.0, 1.0, seed=11)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_separation_honored(self):
        means = make_class_means(5, 4, 3.5, seed=1)
        d = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() == pytest.approx(3.5)

    def test_test_pool_disjoint_from_train_stream(self):
        means = make_class_means(3, 4, 5.0, seed=4)
        train, _ = sample_from_means(means, np.array([5, 5, 5]), 1.0, seed=4)
        test, _ = sample_from_means(means, np.array([5, 5, 5]), 1.0, seed=4, stream=7)
        assert not np.allclose(train[0], test[0])


class TestEmbeddingFiles:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text(
            "id,label,f0,f1,f2,f3\n"
            "0,1,0.5,1.5,-2.0,3.25\n"
            "1,-1,0.0,0.0,1.0,2.0\n"
            "2,0,9.0,8.0,7.0,6.0\n"
        )
        ids, labels, X = load_embeddings(str(path))
        assert ids.tolist() == [0, 1, 2]
        assert labels.tolist() == [1, -1, 0]
        assert X[2].tolist() == [9.0, 8.0, 7.0, 6.0]

    def test_round_trip_exact(self, tmp_path):
        X, labels = toy_pool([6, 4], d=5, seed=8)
        labels[2] = -1
        ids = np.arange(len(X))[::-1] * 3
        path = tmp_path / "rt.csv"
        save_embeddings(ids, labels, X, str(path))
        got_ids, got_labels, got_X = load_embeddings(str(path))
        assert np.array_equal(got_ids, ids)
        assert np.array_equal(got_labels, labels)
        assert np.array_equal(got_X, X)

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f0,f1\n0,0,1.0,2.0\n1,0,1.0\n")
        with pytest.raises(EmbeddingFormatError, match=":3"):
            load_embeddings(str(path))

    def test_malformed_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f0,f1\n0,0,1.0,oops\n")
        with pytest.raises(EmbeddingFormatError, match=":2"):
            load_embeddings(str(path))
        path.write_text(f"id,label,f0,f1\n0,0,1.0,2.0\n{2**64},0,1.0,2.0\n")
        with pytest.raises(EmbeddingFormatError, match=":3"):
            load_embeddings(str(path))

    def test_unknown_label_index_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,f0,f1\n0,-4,1.0,2.0\n")
        with pytest.raises(EmbeddingFormatError, match="label index"):
            load_embeddings(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,x0,x1\n0,0,1.0,2.0\n")
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(str(path))


# Values where a parser that is not correctly rounded, or that drops the sign
# of zero or flushes subnormals, would differ from `float()`.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3]


# Spellings of an integer that are not integers: both loaders must reject
# them, never truncate them.
FLOAT_INTS = ["{}.0".format, "{}e0".format, "{}.5".format]


@st.composite
def embedding_pools(draw):
    """Text of an embedding file: ids anywhere in int64, label -1 or a class,
    each value in one of several spellings, blank lines and CRLF. In some
    pools one id or label is spelled as a float, which makes the file bad."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
    spell = st.sampled_from([repr, "{:.17g}".format, "{:.3e}".format, "{:+.6f}".format])
    float_field = draw(st.sampled_from([None, None, None, 0, 1]))  # id or label
    float_row = draw(st.integers(0, n - 1))
    lines = ["id,label," + ",".join(f"f{i}" for i in range(d))]
    for row, sid in enumerate(ids):
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        fields = [str(sid), str(draw(st.integers(-1, 50)))]
        if row == float_row and float_field is not None:
            fields[float_field] = draw(st.sampled_from(FLOAT_INTS))(fields[float_field])
        values = [draw(spell)(draw(value)) for _ in range(d)]
        lines.append(",".join([*fields, *values]))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def loader_error(load, path):
    """The `path:line` an EmbeddingFormatError from `load` names."""
    with pytest.raises(EmbeddingFormatError) as info:
        load(path)
    return re.match(rf"{re.escape(path)}:\d+", str(info.value)).group(0)


class TestLoaderAgainstOracle:
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=embedding_pools())
    def test_same_arrays(self, tmp_path, text):
        path = tmp_path / "pool.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = reference_load_embeddings(str(path))
        except EmbeddingFormatError:  # a float-spelled integer, or a value that rounds past 1.8e308
            assert loader_error(load_embeddings, str(path)) == loader_error(reference_load_embeddings, str(path))
            return
        got = load_embeddings(str(path))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert got[2].flags.c_contiguous

    GOOD = ["0,0,1.0,2.0", "1,-1,0.5,-0.0", "2,3,5e-324,1e308", "3,1,-1e308,0.25"]

    @pytest.mark.parametrize("row,bad", [
        (2, "2,3,5e-324"),                     # field count
        (1, "1,-1,0.5,oops"),                  # unparsable value
        (1, "1,-1,0.5,-0.0#"),                 # '#' is no comment marker
        (3, f"{2**64},1,-1e308,0.25"),         # id outside int64
        (0, "0,0,nan,2.0"),                    # non-finite
        (3, "3,1,-1e308,inf"),                 # non-finite
        (2, "0,3,5e-324,1e308"),               # repeated id
        (1, "1,-4,0.5,-0.0"),                  # label below -1
    ], ids=["fields", "oops", "hash", "id-2**64", "nan", "inf", "repeated-id", "label-minus-4"])
    @pytest.mark.parametrize("blank_before", [False, True], ids=["no-blank", "after-blank"])
    def test_single_fault_names_the_oracle_line(self, tmp_path, row, bad, blank_before):
        rows = list(self.GOOD)
        rows[row] = bad
        if blank_before:
            rows.insert(row, "")
        path = str(tmp_path / "bad.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,label,f0,f1\n" + "\n".join(rows) + "\n")
        where = loader_error(reference_load_embeddings, path)
        assert loader_error(load_embeddings, path) == where
        assert where == f"{path}:{row + 2 + blank_before}"

    @pytest.mark.parametrize("bad", ["1,1.5,0.5,-0.0", "2.0,-1,0.5,-0.0", f"{2**63},-1,0.5,-0.0"],
                             ids=["label-1.5", "id-2.0", "id-2**63"])
    def test_integer_fields_are_exact_without_warning_filters(self, tmp_path, bad):
        # Outside a test run a library's DeprecationWarning is ignored; a NumPy
        # that only warns when it parses an integer via a float must not get
        # to truncate the value then.
        path = str(tmp_path / "bad.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,label,f0,f1\n" + "\n".join([self.GOOD[0], bad, *self.GOOD[2:]]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            where = loader_error(reference_load_embeddings, path)
            assert loader_error(load_embeddings, path) == where == f"{path}:3"

    @pytest.mark.parametrize("first,second", [
        ("0,0,nan,2.0", "3,1,-1e308"),         # non-finite above a field count
        ("0,0,nan,2.0", "3,1,-1e308,oops"),    # non-finite above an unparsable value
        ("2,-4,5e-324,1e308", "3,1,-1e308"),   # bad label above a field count
        ("0,0,1.0,oops", "3,1,-1e308"),        # unparsable above a field count
        ("2,3,5e-324", "1,1,-1e308,0.25"),     # field count above a repeated id
    ], ids=["nan-fields", "nan-oops", "label-fields", "oops-fields", "fields-repeat"])
    def test_two_faults_name_the_first_line(self, tmp_path, first, second):
        rows = list(self.GOOD)
        rows[0], rows[3] = first, second
        rows.insert(2, "")
        path = str(tmp_path / "bad.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,label,f0,f1\n" + "\n".join(rows) + "\n")
        where = loader_error(reference_load_embeddings, path)
        assert loader_error(load_embeddings, path) == where == f"{path}:2"

    @pytest.mark.parametrize("head,rows", [
        ("id,label,x0,x1", GOOD),
        ("id,label,f0,f1", ["0,0,oops,2.0", *GOOD[1:]]),
        ("id,label,f0,f1", [GOOD[0], "0,0,1.0", *GOOD[2:]]),
        ("id,label,f0,f1", [GOOD[0], "0,-1,0.5,-0.0", *GOOD[2:]]),
    ], ids=["header", "oops", "fields", "repeated-id"])
    def test_a_byte_that_is_not_utf8_outranks_every_parse_fault(self, tmp_path, head, rows):
        raw = ("\r\n".join([head, *rows, ""]) + "\n4,0,1.0,2.0\n5,0,\u00e9").encode() + b"\xff,1.0\n"
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        with pytest.raises(UnicodeDecodeError) as whole:
            raw.decode("utf-8")
        line = raw.count(b"\n", 0, whole.value.start) + 1
        with pytest.raises(EmbeddingFormatError) as info:
            load_embeddings(str(path))
        assert str(info.value) == f"{path}:{line}: not UTF-8 ({whole.value})"
        assert os.listdir(tmp_path) == ["bad.csv"]

    def test_test_pool_labels_name_the_line(self, tmp_path):
        path = tmp_path / "test.csv"
        path.write_text("id,label,f0,f1\n0,0,1,2\n\n1,99,1,2\n")
        with pytest.raises(EmbeddingFormatError, match=r"test.csv:4: label index 99 is invalid"):
            load_embeddings(str(path), num_classes=5)
        path.write_text("id,label,f0,f1\n0,-1,1,2\n")
        with pytest.raises(EmbeddingFormatError, match=r"test.csv:2: label index -1"):
            load_embeddings(str(path), num_classes=5)


class TestSidecar:
    # CRLF, a blank line, a withheld label and values a lossy cache would alter
    TEXT = "id,label,f0,f1\r\n7,-1,5e-324,-0.0\r\n\r\n-8,2,1e308,0.1\r\n2,0,-2.5,2.2250738585072009e-308\r\n"

    def pool(self, tmp_path, text=TEXT):
        path = str(tmp_path / "pool.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        return path

    def assert_same(self, got, want):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert got[2].flags.c_contiguous and got[2].flags.writeable

    def test_hit_equals_oracle(self, tmp_path, monkeypatch):
        path = self.pool(tmp_path)
        load_embeddings(path)
        assert os.path.isfile(path + SIDECAR_SUFFIX)

        def no_parse(*args):
            raise AssertionError("parsed on a hit")

        monkeypatch.setattr(data, "_parse", no_parse)
        self.assert_same(load_embeddings(path), reference_load_embeddings(path))

    def test_sidecar_bytes_are_those_of_np_savez(self, tmp_path):
        path = self.pool(tmp_path)
        ids, labels, X = load_embeddings(path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        want = tmp_path / "want.npz"
        np.savez(want, sha256=np.array(digest), ids=ids, labels=labels, X=X)
        with open(path + SIDECAR_SUFFIX, "rb") as fh:
            assert fh.read() == want.read_bytes()

    def test_edited_file_is_parsed_again(self, tmp_path):
        path = self.pool(tmp_path)
        load_embeddings(path)
        with open(path, "r+b") as fh:  # one byte: -8 becomes -9
            fh.seek(self.TEXT.index("-8") + 1)
            fh.write(b"9")
        self.assert_same(load_embeddings(path), reference_load_embeddings(path))
        assert load_embeddings(path)[0].tolist() == [7, -9, 2]

        with open(path, "r+b") as fh:  # one byte: 2.5 becomes 2x5
            fh.seek(self.TEXT.index("2.5") + 1)
            fh.write(b"x")
        with open(path + SIDECAR_SUFFIX, "rb") as fh:
            cached = fh.read()
        assert loader_error(load_embeddings, path) == loader_error(reference_load_embeddings, path) == f"{path}:5"
        assert sorted(os.listdir(tmp_path)) == ["pool.csv", "pool.csv" + SIDECAR_SUFFIX]
        with open(path + SIDECAR_SUFFIX, "rb") as fh:
            assert fh.read() == cached

    def test_bad_file_writes_no_sidecar(self, tmp_path):
        path = self.pool(tmp_path, self.TEXT.replace("-2.5", "-2x5"))
        assert loader_error(load_embeddings, path) == f"{path}:5"
        assert os.listdir(tmp_path) == ["pool.csv"]

    @pytest.mark.parametrize("damage", ["empty", "truncated", "half", "garbage", "npy", "no-X", "float-ids",
                                        "wider", "repeated-id", "nan"])
    def test_damaged_sidecar_is_parsed_past_and_rewritten(self, tmp_path, damage):
        path = self.pool(tmp_path)
        side = path + SIDECAR_SUFFIX
        load_embeddings(path)
        with np.load(side) as z:
            arrays = {k: z[k] for k in z.files}
        with open(side, "rb") as fh:
            good = fh.read()
        if damage in ("empty", "truncated", "half", "garbage"):
            cut = {"empty": b"", "truncated": good[:-7], "half": good[: len(good) // 2],
                   "garbage": np.random.default_rng(0).bytes(len(good))}[damage]
            with open(side, "wb") as fh:
                fh.write(cut)
        elif damage == "npy":
            with open(side, "wb") as fh:
                np.save(fh, arrays["X"])
        else:
            if damage == "no-X":
                del arrays["X"]
            elif damage == "float-ids":
                arrays["ids"] = arrays["ids"].astype(float)
            elif damage == "wider":
                arrays["X"] = np.hstack([arrays["X"], arrays["X"]])
            elif damage == "repeated-id":
                arrays["ids"][1] = arrays["ids"][0]
            else:
                arrays["X"][2, 1] = np.nan
            with open(side, "wb") as fh:
                np.savez(fh, **arrays)
        self.assert_same(load_embeddings(path), reference_load_embeddings(path))
        with open(side, "rb") as fh:
            assert fh.read() == good

    def test_every_truncation_and_byte_flip_is_a_miss_or_the_same_arrays(self, tmp_path):
        path = self.pool(tmp_path)
        load_embeddings(path)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path + SIDECAR_SUFFIX, "rb") as fh:
            good = fh.read()
        digest, want = hashlib.sha256(raw).hexdigest(), reference_load_embeddings(path)
        flips = [good[:i] + bytes([good[i] ^ 0xFF]) + good[i + 1 :] for i in range(len(good))]
        for n, damaged in enumerate([good[:i] for i in range(len(good))] + flips):
            side = str(tmp_path / f"damaged{n}.npz")
            with open(side, "wb") as fh:
                fh.write(damaged)
            got = data._read_sidecar(side, digest, raw, None)
            if got is not None:  # the flip hit bytes that no reader checks
                self.assert_same(got, want)

    def test_hit_checks_num_classes(self, tmp_path):
        text = self.TEXT.replace("7,-1,", "7,1,")
        path = self.pool(tmp_path, text)
        load_embeddings(path, num_classes=3)  # cached with labels 1, 2 and 0
        for num_classes, line, label in [(2, 4, 2), (1, 2, 1)]:
            with pytest.raises(EmbeddingFormatError) as info:
                load_embeddings(path, num_classes=num_classes)
            assert str(info.value).startswith(f"{path}:{line}: label index {label} is invalid: test rows need")
            with pytest.raises(EmbeddingFormatError) as fresh:
                data._parse(path, text.splitlines(), num_classes)
            assert str(info.value) == str(fresh.value)
        self.assert_same(load_embeddings(path, num_classes=3), load_embeddings(path))

    @pytest.mark.parametrize("step", ["open", "write", "replace"])
    def test_unwritable_directory_loads_and_leaves_no_temp_file(self, tmp_path, monkeypatch, step):
        # A read-only directory refuses the temporary file (refused here by
        # hand: a test run as root ignores directory permissions); a full disk
        # fails the write; another user's file can block the rename.
        path = self.pool(tmp_path)
        real_open, real_write = open, data._write_npz

        def refuse(*args, **kwargs):
            raise PermissionError("refused")

        if step == "open":
            monkeypatch.setattr(data, "open", lambda f, mode="r", *a, **k: (
                refuse() if "x" in mode else real_open(f, mode, *a, **k)), raising=False)
        elif step == "write":
            def write_npz(fh, **arrays):
                real_write(fh, **arrays)
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(data, "_write_npz", write_npz)
        else:
            monkeypatch.setattr(data.os, "replace", refuse)
        self.assert_same(load_embeddings(path), reference_load_embeddings(path))
        assert os.listdir(tmp_path) == ["pool.csv"]
        monkeypatch.undo()
        load_embeddings(path)
        assert sorted(os.listdir(tmp_path)) == ["pool.csv", "pool.csv" + SIDECAR_SUFFIX]

    @pytest.mark.parametrize("edit", ["same-size", "longer"])
    def test_file_rewritten_between_hash_and_parse(self, tmp_path, monkeypatch, edit):
        # A load hashes the file, then reads it again to parse it. Whatever
        # the second read returns, the sidecar pairs its arrays with the
        # digest of the bytes they were parsed from.
        path = self.pool(tmp_path)
        old = self.TEXT.encode()
        new = old.replace(b"-8,2", b"-9,1") if edit == "same-size" else old + b"11,1,0.5,0.25\r\n"
        real = data._read_sidecar

        def rewrite_then_read(*args):
            with open(path, "r+b") as fh:  # the same file, which the load holds open
                fh.write(new)
            return real(*args)

        monkeypatch.setattr(data, "_read_sidecar", rewrite_then_read)
        got = load_embeddings(path)
        monkeypatch.undo()
        with np.load(path + SIDECAR_SUFFIX) as z:
            digest, cached = str(z["sha256"]), (z["ids"], z["labels"], z["X"])
        source = {hashlib.sha256(raw).hexdigest(): raw for raw in (old, new)}[digest]
        twin = tmp_path / "twin.csv"
        twin.write_bytes(source)
        self.assert_same(cached, got)
        self.assert_same(got, reference_load_embeddings(str(twin)))
        self.assert_same(load_embeddings(path), reference_load_embeddings(path))


@pytest.fixture(params=[(1, 1), (5, 3)], ids=["1-byte-1-row", "5-bytes-3-rows"])
def small_blocks(request, monkeypatch):
    """I/O blocks of one or a few lines and parse blocks of one or three rows,
    so that faults, blank lines and CRLF fall on block edges."""
    monkeypatch.setattr(data, "_BLOCK_BYTES", request.param[0])
    monkeypatch.setattr(data, "_BLOCK_ROWS", request.param[1])


@pytest.mark.usefixtures("small_blocks")
class TestLoaderAgainstOracleInSmallBlocks(TestLoaderAgainstOracle):
    pass


@pytest.mark.usefixtures("small_blocks")
class TestSidecarInSmallBlocks(TestSidecar):
    pass


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="reads VmHWM from /proc")
def test_csv_io_peak_memory_is_bounded_by_a_block(tmp_path):
    # Peak-RSS growth of one call, each in a new process, on a 7.6 MB file of
    # 6,000 x 64 values whose arrays take 3.1 MB. Block-wise I/O reads about
    # +0.1 MB to write it, +4.2 MB to parse it and write the sidecar (+6.7 MB
    # when the sidecar write copies each array) and +3.6 MB to load it from
    # the sidecar; holding the whole file reads +21.9, +14.4 and +11.1 MB.
    # VmHWM, because ru_maxrss also counts the peak of the process that
    # started this one.
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from cobranch.data import load_embeddings, save_embeddings
        def peak_kb():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        path, step = sys.argv[1:]
        if step == "save":
            rng = np.random.default_rng(0)
            ids, labels, X = np.arange(6000), rng.integers(-1, 10, 6000), rng.standard_normal((6000, 64))
        before = peak_kb()
        if step == "save":
            save_embeddings(ids, labels, X, path)
        else:
            load_embeddings(path)
        print((peak_kb() - before) / 1024)
    """)
    src = os.path.dirname(os.path.dirname(cobranch.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    path = str(tmp_path / "pool.csv")
    for step, bound_mb in [("save", 2.0), ("miss", 6.0), ("hit", 6.0)]:
        out = subprocess.run([sys.executable, "-c", code, path, step], env=env, capture_output=True,
                             text=True, check=True)
        assert float(out.stdout) < bound_mb, step
    assert os.path.isfile(path + SIDECAR_SUFFIX)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# values whose repr is easy to get wrong: signed zero, exponent forms and subnormals
AWKWARD = [-0.0, 0.0, 1e16, 1e-05, 5e-324, -2.225073858507201e-308, 0.1, 1 / 3, -1.7976931348623157e308, 123456789.0]


class TestSaveEmbeddingsInParts:
    """`save_embeddings` cut into one part per CPU writes the bytes of the
    one-process reference writer, whatever the CPU count."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_bytes_match_the_reference(self, tmp_path, monkeypatch, cpus, offset, parts):
        n = max(1, parts * data._MIN_ROWS_PER_WORKER + offset)  # at and around the row count of `parts` parts
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-8, 9, (n, 3))
        X.flat[rng.choice(X.size, len(AWKWARD), replace=False)] = AWKWARD
        X[::97] = AWKWARD[:3]  # across the cut between parts too
        ids, labels = rng.permutation(3 * n)[:n], rng.integers(-1, 7, n)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        save_embeddings(ids, labels, X, str(tmp_path / "got.csv"))
        assert_no_child_left()
        assert len(forks) == max(1, min(cpus, n // data._MIN_ROWS_PER_WORKER)) - 1
        reference_save_embeddings(ids, labels, X, str(tmp_path / "want.csv"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["got.csv", "want.csv"]

    def test_an_error_here_kills_and_reaps_every_child(self, tmp_path, monkeypatch):
        parent, csv_rows = os.getpid(), data._csv_rows

        def failing_here(*rows):
            if os.getpid() == parent:
                raise OSError("disk full")
            return csv_rows(*rows)

        monkeypatch.setattr(data, "_csv_rows", failing_here)  # the forks inherit the patch
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        X = np.ones((4 * data._MIN_ROWS_PER_WORKER, 2))
        with pytest.raises(OSError, match="disk full"):
            save_embeddings(np.arange(len(X)), np.zeros(len(X), dtype=int), X, str(tmp_path / "got.csv"))
        assert_no_child_left()
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
    def test_one_process_where_the_platform_cannot_fork(self, tmp_path, monkeypatch, missing):
        X = np.arange(4 * data._MIN_ROWS_PER_WORKER * 2.0).reshape(-1, 2) / 7
        ids, labels = np.arange(len(X)), np.zeros(len(X), dtype=int)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        monkeypatch.delattr(os, missing)
        save_embeddings(ids, labels, X, str(tmp_path / "got.csv"))
        reference_save_embeddings(ids, labels, X, str(tmp_path / "want.csv"))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestSplitFromMask:
    X, ids = np.random.default_rng(5).standard_normal((7, 3)), np.arange(7) * 2

    def test_rows_in_split_order_are_not_copied(self):
        y = np.array([0, 2, 1, -1, -1, -1, -1])
        split = split_from_mask(self.X, y, self.ids, y != -1, 3, 4, None, None)
        assert np.shares_memory(split.X, self.X) and np.shares_memory(split.ids, self.ids)
        assert np.array_equal(split.X, self.X) and np.array_equal(split.ids, self.ids)
        assert np.array_equal(split.y_lab, [0, 2, 1])

    @pytest.mark.parametrize("y", [[-1, 0, -1, 1, 2, -1, 0], [0, 1, -1, 2, -1, -1, -1]])
    def test_labeled_rows_out_of_order_move_first(self, y):
        y = np.array(y)
        labeled = y != -1
        order = np.concatenate([np.flatnonzero(labeled), np.flatnonzero(~labeled)])
        split = split_from_mask(self.X, y, self.ids, labeled, 3, 4, None, None)
        assert np.array_equal(split.X, self.X[order]) and np.array_equal(split.ids, self.ids[order])
        assert np.array_equal(split.y_lab, y[labeled])


def test_split_validate_catches_count_mismatch():
    split = split_known_novel(*toy_pool([4, 4]), 1, 0.5, seed=0)
    split.true_counts = np.array([1, 1])
    with pytest.raises(ValueError):
        split.validate()
