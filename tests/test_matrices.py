import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clotkit import fileio
from clotkit.fileio import (
    read_matrix_csv,
    read_triplet,
    read_vector_csv,
    write_matrix_csv,
    write_triplet,
    write_vector_csv,
)
from clotkit.matrices import (
    DeVoreParams,
    coherence,
    devore_matrix,
    devore_min_prime,
    devore_threshold,
    fixture_matrix,
    is_prime,
    next_prime,
)
from clotkit.rip import exact_rip
from oracles import triplet_text_ref


class TestPrimes:
    def test_is_prime_basics(self):
        assert [p for p in range(30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_is_prime_matches_a_sieve(self):
        top = 101 ** 2  # isqrt is exact on the squares of primes, where a factor sits at the bound
        sieve = np.ones(top + 1, bool)
        sieve[:2] = False
        for f in range(2, math.isqrt(top) + 1):
            if sieve[f]:
                sieve[f * f::f] = False
        qs = [*range(-5, 10_001), top]
        assert [is_prime(q) for q in qs] == [q >= 0 and bool(sieve[q]) for q in qs]
        assert not any(is_prime(q) for q in (4, 9, 25, 529, top))

    def test_next_prime(self):
        assert next_prime(20) == 23
        assert next_prime(23) == 29


class TestMinPrime:
    def test_published_configuration(self):
        rip_term, dim_term = devore_threshold(1.5, 3, 0.4, 4000, 2)
        assert rip_term == pytest.approx(20.0, abs=1e-9)
        assert round(dim_term, 2) == 15.87
        assert devore_min_prime(1.5, 3, 0.4, 4000, 2) == 23

    def test_smaller_dimension_same_prime(self):
        rip_term, dim_term = devore_threshold(1.5, 3, 0.4, 100, 2)
        assert max(rip_term, dim_term) == pytest.approx(20.0, abs=1e-9)
        assert devore_min_prime(1.5, 3, 0.4, 100, 2) == 23

    def test_tiny_threshold(self):
        # threshold max{2.5, sqrt(20)=4.47} -> p = 5
        assert devore_min_prime(1.5, 2, 0.8, 20, 1) == 5

    def test_strict_flag_bumps_exact_prime_threshold(self):
        # (ceil(2*2)-1)*1/0.6 = 5 exactly, a prime
        assert devore_min_prime(2.0, 2, 0.6, 2, 1) == 5
        assert devore_min_prime(2.0, 2, 0.6, 2, 1, strict=True) == 7

    def test_input_validation(self):
        with pytest.raises(ValueError):
            devore_threshold(1.5, 3, 0.0, 100, 2)
        with pytest.raises(ValueError):
            devore_threshold(1.5, 0, 0.4, 100, 2)

    @pytest.mark.parametrize("t, k, delta, r, shown", [
        (math.inf, 3, 0.4, 2, "t=inf"), (1e308, 3, 0.4, 2, "t=1e+308"), (math.nan, 3, 0.4, 2, "t=nan"),
        (-1.5, -3, 0.4, 2, "k=-3"), (1.5, 3, math.nan, 2, "delta must lie in (0, 1), got nan"),
        (1e308, 1, 0.4, 2, "t=1e+308"), (1e308, 1, 0.4, 1, "t=1e+308")])
    def test_non_finite_or_negative_inputs_are_refused(self, t, k, delta, r, shown):
        # NaN fails every comparison, so only a check that it passes can refuse it; a finite t*k can
        # still overflow (ceil(t*k) - 1) * r / delta, the int-to-float division or its ceil
        for f in (devore_threshold, devore_min_prime):
            with pytest.raises(ValueError, match=re.escape(shown)):
                f(t, k, delta, 100, r)


class TestDeVoreMatrix:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            DeVoreParams(4, 2)
        with pytest.raises(ValueError):
            DeVoreParams(5, 0)
        with pytest.raises(ValueError):
            DeVoreParams(5, 2, 126)

    @pytest.mark.parametrize("p, r, n", [(1000000000000000003, 2, 10), (1000003, 2, 10), (101, 2, None),
                                         (5, 10**12, None)], ids=["prime_test", "rows", "columns", "degree"])
    def test_a_matrix_past_the_size_cap_is_refused_before_any_prime_test(self, p, r, n):
        # trial division up to sqrt(1e18 + 3), or forming 5**(10**12 + 1), would not return
        with pytest.raises(ValueError, match=f"^a DeVore matrix with p={p}, r={r}, n_truncate={n} has more than"):
            DeVoreParams(p, r, n)

    def test_the_size_cap_admits_a_matrix_of_exactly_its_entries(self):
        # 25 x 10,737,418 entries is the cap rounded down; the parameters allocate nothing
        assert DeVoreParams(5, 12, 2**28 // 25).shape == (25, 2**28 // 25)
        with pytest.raises(ValueError, match="has more than 268435456 entries"):
            DeVoreParams(5, 12, 2**28 // 25 + 1)

    @pytest.mark.parametrize("t, n, shown", [(1e20, 100, "= 5e+20 is past 16384, got t=1e+20, k=1, delta=0.4"),
                                             (1.5, 2**28 + 1, "n=268435457")], ids=["rip_term", "dim_term"])
    def test_a_threshold_past_the_size_cap_is_refused_before_the_prime_search(self, t, n, shown):
        for f in (devore_threshold, devore_min_prime):
            with pytest.raises(ValueError, match=re.escape(shown)):
                f(t, 1, 0.4, n, 2)
        # an order-1 rip term is 0 whatever r/delta is: the dimension term alone sets the prime
        assert devore_min_prime(1.0, 1, 1e-5, 100, 2) == 5

    @pytest.mark.parametrize("r", [100_000, 10**12])
    def test_a_large_degree_builds_from_the_digits_its_columns_have(self, r):
        # the first 10 polynomials have no coefficient above x^1, so the matrix is r = 1's; the digit
        # loop once formed 5**i for every i up to r and overflowed int64
        np.testing.assert_array_equal(devore_matrix(DeVoreParams(5, r, 10)), devore_matrix(DeVoreParams(5, 1, 10)))

    def test_p2_r1_hand_enumeration(self):
        # polynomials over the two-element field, constant coefficient fastest:
        # 0, 1, x, x+1; rows are (x, y) pairs in row-major order
        A = devore_matrix(DeVoreParams(2, 1), normalize=False)
        expected = np.zeros((4, 4))
        expected[[0, 2], 0] = 1  # Q = 0 passes through (0,0), (1,0)
        expected[[1, 3], 1] = 1  # Q = 1 passes through (0,1), (1,1)
        expected[[0, 3], 2] = 1  # Q = x passes through (0,0), (1,1)
        expected[[1, 2], 3] = 1  # Q = x+1 passes through (0,1), (1,0)
        np.testing.assert_array_equal(A, expected)

    def test_column_counts_and_shape(self):
        A = devore_matrix(DeVoreParams(5, 2), normalize=False)
        assert A.shape == (25, 125)
        np.testing.assert_array_equal(A.sum(axis=0), np.full(125, 5.0))
        trunc = devore_matrix(DeVoreParams(5, 2, 40), normalize=False)
        np.testing.assert_array_equal(trunc, A[:, :40])

    def test_normalized_columns_unit(self, devore_5_2):
        np.testing.assert_allclose(np.linalg.norm(devore_5_2, axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_coherence_bound_exhaustive(self, p):
        A = devore_matrix(DeVoreParams(p, 2), normalize=True)
        G = np.abs(A.T @ A)
        np.fill_diagonal(G, 0.0)
        assert G.max() <= 2.0 / p + 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_gershgorin_cross_check(self, devore_5_2, k):
        # unit columns with coherence <= r/p give delta_k <= (k-1) r/p
        bound = (k - 1) * 2.0 / 5.0
        assert exact_rip(devore_5_2, k).delta_k <= bound + 1e-12

    def test_determinism_hashes(self):
        A = devore_matrix(DeVoreParams(11, 2, 1000), normalize=False)
        digest = hashlib.sha256(np.ascontiguousarray(A).tobytes()).hexdigest()
        assert digest.startswith("b0b8e109d6d84a4a696539f273158844")
        B = devore_matrix(DeVoreParams(11, 2, 1000), normalize=False)
        assert hashlib.sha256(np.ascontiguousarray(B).tobytes()).hexdigest() == digest


class TestFixtureMatrices:
    def test_identity(self):
        np.testing.assert_array_equal(fixture_matrix("identity", 4, 4), np.eye(4))

    def test_gaussian_unit_columns_and_seeded(self):
        A = fixture_matrix("gaussian", 30, 36, seed=1)
        np.testing.assert_allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)
        digest = hashlib.sha256(np.ascontiguousarray(A).tobytes()).hexdigest()
        assert digest.startswith("e113e5d099b259342ddef7d013ebe4fc")

    def test_duplicated_column(self):
        A = fixture_matrix("duplicated_column", 6, 4, seed=2)
        np.testing.assert_array_equal(A[:, 0], A[:, 1])
        assert exact_rip(A, 2).delta_k == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fixture_matrix("hadamard", 4, 4)

    @pytest.mark.parametrize("kind, m, n, match", [
        ("gaussian", 0, 3, "invalid dimensions 0x3"),
        ("duplicated_column", 4, 1, "at least 2 columns"),
    ])
    def test_bad_dimensions(self, kind, m, n, match):
        with pytest.raises(ValueError, match=match):
            fixture_matrix(kind, m, n)

    def test_coherence_helper(self):
        assert coherence(np.eye(3)) == 0.0
        e1 = np.eye(3)[:, :1]
        assert coherence(np.column_stack([e1, e1])) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="zero column"):
            coherence(np.column_stack([e1, 0.0 * e1]))


class TestFileIO:
    def test_matrix_csv_round_trip_bitwise(self, tmp_path, rng):
        A = rng.standard_normal((7, 5)) * np.logspace(-8, 8, 5)
        path = tmp_path / "m.csv"
        write_matrix_csv(path, A)
        back = read_matrix_csv(path)
        np.testing.assert_array_equal(back, A)
        # the per-line reader that names errors is the reference for the numpy pass
        np.testing.assert_array_equal(fileio._read_matrix_csv_by_line(path), A)

    def test_vector_round_trip(self, tmp_path, rng):
        v = rng.standard_normal(9)
        path = tmp_path / "v.csv"
        write_vector_csv(path, v)
        np.testing.assert_array_equal(read_vector_csv(path), v)

    def test_triplet_round_trip_bitwise(self, tmp_path, rng):
        A = rng.standard_normal((6, 8))
        A[np.abs(A) < 0.7] = 0.0
        path = tmp_path / "m.spt"
        write_triplet(path, A)
        np.testing.assert_array_equal(read_triplet(path), A)
        # the per-line reader that names errors is the reference for the numpy pass
        np.testing.assert_array_equal(fileio._read_triplet_by_line(path), A)

    def test_csv_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match=r"bad.csv:2: column 2"):
            read_matrix_csv(path)

    def test_csv_error_after_a_blank_line_names_its_line_in_the_file(self, tmp_path):
        # the numpy pass counts rows, not lines: the line reader it falls back on names the file's line
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n\n3.0,oops\n")
        with pytest.raises(ValueError, match=r"bad.csv:3: column 2: not a number: 'oops'$"):
            read_matrix_csv(path)
        path.write_text("1.0,2.0\n\n3.0\n")
        with pytest.raises(ValueError, match=r"bad.csv:3: expected 2 columns, found 1$"):
            read_matrix_csv(path)

    def test_csv_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="expected 2 columns"):
            read_matrix_csv(path)

    def test_csv_blank_lines_and_empty_files(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("1.0,2.0\n \t\n3.0,4.0\n")  # the numpy pass refuses the line; the line reader skips it
        np.testing.assert_array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("1.0,2.0,3.0\n")  # a vector may also be one row
        np.testing.assert_array_equal(read_vector_csv(path), [1.0, 2.0, 3.0])
        path.write_text("\n")
        with pytest.raises(ValueError, match="m.csv: empty matrix file"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("text, match", [
        ("", "empty triplet file"),
        ("2 x 1\n0 0 1.0\n", "bad.spt:1: header must hold three integers"),
        ("0 3 1\n0 0 1.0\n", "bad.spt:1: bad dimensions 0 3 1"),
        ("2 2 2\n0 0 1.0\n", "header promises 2 entries, file has 1"),
        ("2 2 1\n0 1.0\n", "bad.spt:2: expected 'row col value'"),
    ], ids=["empty", "header_text", "zero_rows", "count", "two_fields"])
    def test_triplet_errors_name_the_fault(self, tmp_path, text, match):
        path = tmp_path / "bad.spt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_triplet(path)

    def test_triplet_header_validation(self, tmp_path):
        path = tmp_path / "bad.spt"
        path.write_text("2 2\n")
        with pytest.raises(ValueError, match="header"):
            read_triplet(path)
        path.write_text("2 2 1\n5 0 1.0\n")
        with pytest.raises(ValueError, match="outside"):
            read_triplet(path)
        path.write_text("2 2 2\n0 0 1.0\n1.0 1 2.0\n")
        with pytest.raises(ValueError, match=r"bad.spt:3: malformed entry '1.0 1 2.0'"):
            read_triplet(path)
        path.write_text("2 2 2\n0 0 1.0\n1 -1 2.0\n")
        with pytest.raises(ValueError, match=r"bad.spt:3: index \(1, -1\) outside 2x2"):
            read_triplet(path)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_triplet_float_index_refused_when_warnings_are_ignored(self, tmp_path, monkeypatch):
        path = tmp_path / "bad.spt"
        path.write_text("2 2 1\n1.7 0 3.0\n")
        with pytest.raises(ValueError, match=r"bad.spt:2: malformed entry '1.7 0 3.0'"):
            read_triplet(path)

        # numpy before 2.0 truncates such an index and only warns
        def truncating_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return np.array([(1, 0, 3.0)], dtype=fileio._TRIPLET_ENTRY)

        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        with pytest.raises(ValueError, match=r"bad.spt:2: malformed entry '1.7 0 3.0'"):
            read_triplet(path)

    def test_vector_shape_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.eye(3))
        with pytest.raises(ValueError, match="single-column"):
            read_vector_csv(path)


def _outcome(reader, path):
    """The reader's matrix, or the exception it raised."""
    try:
        return reader(path)
    except Exception as exc:
        return exc


def _assert_same_outcome(path):
    """read_triplet returns the line reader's matrix bit for bit, or raises its exception with its
    message, and lets no warning out however the caller filters them."""
    expected = _outcome(fileio._read_triplet_by_line, path)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = _outcome(read_triplet, path)
    assert seen == [], [str(w.message) for w in seen]
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
    else:
        assert isinstance(got, np.ndarray), got
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    return got


_SPECIAL_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308 / 3, 5e300, 1.0]
_SHAPES = st.one_of(st.just(()), st.tuples(st.just(1), st.integers(1, 9)), st.tuples(st.integers(1, 9), st.just(1)),
                    st.tuples(st.integers(1, 9), st.integers(1, 9)))


class TestTripletPasses:
    """The numpy writer against the per-entry oracle, and the numpy reader against the line reader."""

    @settings(max_examples=200, deadline=None)
    @given(A=_SHAPES.flatmap(lambda shape: arrays(float, shape, elements=st.one_of(
        st.sampled_from(_SPECIAL_VALUES), st.floats(width=64)))))
    def test_writer_matches_the_per_entry_oracle(self, tmp_path_factory, A):
        path = tmp_path_factory.getbasetemp() / "property.spt"
        write_triplet(path, A)
        assert path.read_bytes() == triplet_text_ref(A).encode()
        got = _assert_same_outcome(path)
        np.testing.assert_array_equal(got, np.atleast_2d(A))

    @pytest.mark.parametrize("build", [
        lambda: devore_matrix(DeVoreParams(23, 2, 4000), normalize=False),
        lambda: devore_matrix(DeVoreParams(23, 2, 4000), normalize=True),
        lambda: np.random.default_rng(7).standard_normal((300, 400)),
        lambda: np.zeros((3, 5)),
        lambda: np.array([[np.nan, -np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-310, 5e300]]),
    ], ids=["devore_529x4000", "devore_529x4000_normalized", "gaussian_300x400", "all_zero", "specials"])
    def test_writer_bytes_on_study_matrices(self, tmp_path, monkeypatch, build):
        A = build()
        path = tmp_path / "m.spt"
        write_triplet(path, A)
        text = triplet_text_ref(A)
        assert path.read_bytes() == text.encode()
        got = _assert_same_outcome(path)
        np.testing.assert_array_equal(got, A)
        if not A.any():
            assert text == "3 5 0\n"
            return
        # a file the writer made is read by the numpy pass alone
        monkeypatch.setattr(fileio, "_read_triplet_by_line", lambda path: pytest.fail("line reader ran"))
        assert read_triplet(path).tobytes() == got.tobytes()

    @pytest.mark.parametrize("reader", [read_triplet, fileio._read_triplet_by_line], ids=["numpy", "by_line"])
    @pytest.mark.parametrize("text, match", [
        ("2 2 2\n0 0 1.0\n0 0 2.0\n", r"bad.spt:3: entry \(0, 0\) repeats line 2"),
        ("2 3 3\n1 2 1.0\n0 0 1.0\n\n1 2 1.0\n", r"bad.spt:5: entry \(1, 2\) repeats line 2"),
    ], ids=["adjacent", "apart"])
    def test_triplet_repeated_entry_refused(self, tmp_path, reader, text, match):
        path = tmp_path / "bad.spt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            reader(path)

    @pytest.mark.parametrize("data", [
        b"2 3 2\r\n0 1 1.5\r\n1 2 -2\r\n",
        b"2 2 1\r0 0 1\r",
        b"2 3 2\n\n0 1 1.5\n\n\n1 2 -2\n\n",
        b"\n2 2 1\n0 0 1\n",
        b"2\t3\t2\n0\t1\t1.5\n1 \t2\t-2\n",
        b"2 3 2   \n0 1 1.5  \n1 2 -2 \t\n",
        b"2 8 3\n+1 0 1\n0 007 2\n-0 1 3\n",
        b"2 2 2\n0 0 1_0\n1 1 Infinity\n",
        b"2 2 4\n0 0 -Infinity\n1 1 -nan\n0 1 NaN\n1 0 +inf\n",
        b"2 2 1\n1_0 0 1\n",
        b"200 2 1\n1e2 0 1\n",
        b"2 2 1\n1.0 0 1\n",
        "4 4 1\n\u0663 0 1\n".encode(),
        "4 4 1\n0 0 \u0663.\u0665\n".encode(),
        b"\xef\xbb\xbf2 2 1\n0 0 1\n",
        b"2 2 1\n",
        b"2 2 3\n\n\n",
        b"2 2 0\n",
        b"2 2 1\n0 0 1\xff\n",
        b"2 2\xff 1\n0 0 1\n",
        b"2 2 1\n0 0 1\x00\n",
        b"2 2 1\n\x0c\n0 0 1\x1c\n",
        b"2 2 1\n0\x0b0\xe2\x80\x831\n",
        b"2 2 1\n99999999999999999999999 0 1\n",
        b"99999999999 99999999999 1\n0 0 1\n",
        b"2 2 1 4\n0 0 1\n",
        b"2 2 1\n0 0 1 # note\n",
        b"2 2 1\n0 0 nan(123)\n",
        b"2 2 1\n0 0 -0\n",
        b"1 1 1\n0 0 1",
        b"-2 3 1\n0 0 1\n",
        b"2 0 1\n0 0 1\n",
        b"2 2 -1\n0 0 1\n",
    ], ids=["crlf", "cr", "blank_lines", "blank_first", "tabs", "trailing_space", "signed_zero_padded_index",
            "underscore_infinity_value", "named_values", "underscore_index", "exponent_index", "float_index",
            "arabic_index", "arabic_value", "bom", "promised_no_body", "promised_blank_body", "header_only",
            "bad_utf8_body", "bad_utf8_header", "nul", "control_whitespace", "unicode_whitespace",
            "huge_index", "huge_dimensions", "header_four_fields", "comment", "nan_payload", "negative_zero",
            "no_final_newline", "negative_rows", "zero_columns", "negative_count"])
    def test_hostile_file_reads_as_the_line_reader_reads_it(self, tmp_path, data):
        path = tmp_path / "hostile.spt"
        path.write_bytes(data)
        _assert_same_outcome(path)
