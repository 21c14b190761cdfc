"""The correlation engine: every method it can choose, on both sides of the
direct/FFT crossover, in 1-D and 2-D, cross-checked against the brute-force
oracles.  Integer-valued inputs must give the correctly rounded float of the
exact integer correlation, so those cases compare bit for bit."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huffseq import (
    ArgumentError,
    convolve,
    correlate,
    merit_factor_exact,
    nd_autocorr,
)
from huffseq.analysis import _method, _operands

from _oracles import (
    brute_autocorr_2d,
    brute_blur_2d,
    brute_merit_factor_exact,
    brute_periodic_autocorr,
    brute_periodic_autocorr_int,
    brute_xcorr,
    brute_xcorr_2d_int,
    brute_xcorr_int,
)

RNG = np.random.default_rng(7)


def method_of(a, b=None):
    """The method correlate(a, b) computes with."""
    x, y = _operands(a, b)
    return _method(np.flip(x), y)


def ints(shape, bits):
    """Random integers in (-2^bits, 2^bits), as float64 like every input
    the engine sees."""
    return RNG.integers(-2 ** bits + 1, 2 ** bits, size=shape).astype(float)


def rounded(exact):
    """Correctly rounded float of each exact Python int, nested."""
    return np.vectorize(float, otypes=[float])(np.array(exact, dtype=object))


def close(a, b, tol=1e-9):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.abs(b).max()))
    return a.shape == b.shape and float(np.abs(a - b).max()) <= tol * scale


# 1-D float and complex inputs, either side of the |a|*|b| <= 2^17
# crossover (362 * 362 <= 2^17 < 363 * 362).
FLOAT_CASES = [
    ("direct", RNG.normal(size=362), RNG.normal(size=362)),
    ("rfft", RNG.normal(size=363), RNG.normal(size=362)),
    ("direct", RNG.normal(size=362) + 1j * RNG.normal(size=362),
     RNG.normal(size=362)),
    ("fft", RNG.normal(size=363) + 1j * RNG.normal(size=363),
     RNG.normal(size=362) - 1j * RNG.normal(size=362)),
    ("rfft", RNG.normal(size=4000), RNG.normal(size=40)),
]

# 1-D integer-valued inputs: (method, f, g).
INT_CASES = [
    ("direct", ints(50, 20), ints(60, 20)),
    ("fft_round", ints(400, 10), ints(500, 10)),
    ("int64", ints(100, 27), ints(100, 27)),
    ("int64", ints(400, 26), ints(400, 26)),
    ("pyint", ints(60, 45), ints(70, 45)),
    ("pyint", ints(3, 52), ints(500, 52)),
]


class TestFloatMethods:
    @pytest.mark.parametrize("method,f,g", FLOAT_CASES)
    def test_matches_oracle(self, method, f, g):
        assert method_of(f, g) == method
        want = brute_xcorr(f.tolist(), g.tolist())
        assert close(correlate(f, g), want)

    @pytest.mark.parametrize("method,f,g", FLOAT_CASES[2:4])
    def test_dual_matches_oracle(self, method, f, g):
        want = brute_xcorr(f.tolist(), g.tolist(), conjugate=False)
        assert close(correlate(f, g, dual=True), want)

    def test_b_defaults_to_a(self):
        f = FLOAT_CASES[3][1]
        assert np.array_equal(correlate(f), correlate(f, f.copy()))


class TestIntegerMethods:
    @pytest.mark.parametrize("method,f,g", INT_CASES)
    def test_correctly_rounded_exact_result(self, method, f, g):
        assert method_of(f, g) == method
        got = correlate(f, g)
        assert not got.imag.any()
        assert np.array_equal(got.real, rounded(brute_xcorr_int(f, g)))

    def test_exact_where_float_products_would_round(self):
        # (2^30+1)^2 - (2^30+3)^2 = -(2^32 + 8), but both squares need 61
        # bits, and float64 products drop the low 8 on the way.
        p, q = 2.0 ** 30 + 1, 2.0 ** 30 + 3
        f, g = np.array([p, q]), np.array([p, -q])
        assert method_of(f, g) == "int64"
        assert correlate(f, g)[1] == -(2 ** 32 + 8)
        assert np.convolve(g, f[::-1])[1] != -(2 ** 32 + 8)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 52).flatmap(lambda bits: st.tuples(
        st.lists(st.integers(-2 ** bits, 2 ** bits), min_size=1,
                 max_size=40),
        st.lists(st.integers(-2 ** bits, 2 ** bits), min_size=1,
                 max_size=40))))
    def test_property_correctly_rounded(self, pair):
        f, g = pair
        got = correlate(f, g)
        assert np.array_equal(got.real, rounded(brute_xcorr_int(f, g)))
        assert not got.imag.any()


class TestTwoDimensional:
    def test_float_grid(self):
        grid = RNG.normal(size=(6, 5))
        assert method_of(grid) == "rfft"
        assert close(nd_autocorr(grid), brute_autocorr_2d(grid.tolist()))

    def test_complex_grid(self):
        grid = RNG.normal(size=(4, 7)) + 1j * RNG.normal(size=(4, 7))
        assert method_of(grid) == "fft"
        assert close(nd_autocorr(grid), brute_autocorr_2d(grid.tolist()))

    @pytest.mark.parametrize("method,bits", [
        ("fft_round", 8), ("int64", 26), ("pyint", 45)])
    def test_integer_grids_exact(self, method, bits):
        f, g = ints((4, 5), bits), ints((3, 6), bits)
        assert method_of(f, g) == method
        got = correlate(f, g)
        assert np.array_equal(got.real, rounded(brute_xcorr_2d_int(f, g)))

    def test_convolve_matches_blur_oracle(self):
        obj, mask = RNG.random((20, 18)), ints((7, 7), 3)
        assert close(convolve(obj, mask),
                     brute_blur_2d(obj.tolist(), mask.tolist()))


class TestPeriodic:
    @pytest.mark.parametrize("f", [
        RNG.normal(size=9), RNG.normal(size=600),
        RNG.normal(size=11) + 1j * RNG.normal(size=11)])
    def test_float_fold_matches_oracle(self, f):
        assert close(correlate(f, periodic=True),
                     brute_periodic_autocorr(f.tolist()))

    @pytest.mark.parametrize("bits", [10, 30, 50])
    def test_integer_fold_exact(self, bits):
        f = ints(64, bits)
        got = correlate(f, periodic=True).real
        assert np.array_equal(got, rounded(brute_periodic_autocorr_int(f)))

    def test_two_d_fold_matches_cyclic_fft(self):
        grid = RNG.normal(size=(5, 4))
        spec = np.fft.fft2(grid)
        want = np.fft.ifft2(np.conj(spec) * spec)
        assert close(correlate(grid, periodic=True), want)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            correlate([1, 2, 3], [1, 2], periodic=True)


class TestOperands:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            correlate(np.ones((2, 2)), np.ones(3))

    def test_scalar_rejected(self):
        with pytest.raises(ArgumentError):
            correlate(3.0)


class TestMeritFactorExact:
    def test_lag_sums_beyond_int64_take_python_ints(self):
        seq = [v * 2 ** 40 for v in (3, -2, 5, 1, -7, 4, 2, -1)]
        arr = np.array(seq, dtype=np.int64)
        assert _method(arr[::-1], arr) == "pyint"
        assert merit_factor_exact(seq) == brute_merit_factor_exact(seq)

    def test_elements_beyond_int64(self):
        seq = [3 * 2 ** 70, 5, -(2 ** 64), 7, 2 ** 80, -1]
        assert merit_factor_exact(seq) == brute_merit_factor_exact(seq)

    def test_fft_round_path(self):
        seq = RNG.choice([-1, 1], size=600).astype(float)
        assert method_of(seq) == "fft_round"
        assert merit_factor_exact(seq) == brute_merit_factor_exact(seq)

    def test_barker_still_exact(self):
        assert merit_factor_exact([1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1,
                                   1]) == Fraction(169, 12)
