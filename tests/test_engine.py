"""The correlation engine: every method it can choose, on both sides of the
direct/FFT crossover, in 1-D and 2-D, cross-checked against the brute-force
oracles.  Integer-valued inputs must give the correctly rounded float of the
exact integer correlation, so those cases compare bit for bit."""

import copy
import math
import os
import pickle
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from huffseq import (
    ArgumentError,
    Sequence,
    autocorr,
    convolve,
    correlate,
    dual_autocorr,
    dual_cross_spectrum,
    end_term_bound,
    generate,
    is_canonical,
    is_perfect,
    measure,
    merit_factor,
    merit_factor_exact,
    nd_autocorr,
    outer,
    pedestal_masks,
    periodic_autocorr,
    recon_error,
    reconstruct,
    spectral_flatness,
    xcorr,
)
from huffseq import analysis
from huffseq.analysis import (_DIRECT_MAX, _FOLDED, _SHORT, _exact,
                              _fast_len, _fft_error_bound, _join,
                              _limb_plan, _method, _operands, _sumsq)

from _oracles import (
    brute_autocorr,
    brute_autocorr_2d,
    brute_autocorr_2d_lag,
    brute_autocorr_lag,
    brute_blur,
    brute_blur_2d,
    brute_blur_nd,
    brute_merit_factor_exact,
    brute_periodic_autocorr,
    brute_periodic_autocorr_int,
    brute_xcorr,
    brute_xcorr_2d_int,
    brute_xcorr_int,
    brute_xcorr_nd,
)

RNG = np.random.default_rng(7)


def method_of(a, b=None):
    """The method correlate(a, b) computes with."""
    x, y = _operands(a, b)
    return _method(np.flip(x), y)


def limbs_of(a, b=None):
    """The limb count k of correlate(a, b) on the 'limbs' method."""
    x, y = _operands(a, b)
    return _limb_plan(np.flip(x), y)[0]


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

# 1-D integer-valued inputs: (method, f, g).  The 'limbs' ones take, in
# order: the FFT with one limb, np.convolve in int64 (one limb), the FFT of
# two-limb stacks recombined in int64, and interleaved limbs recombined in
# Python ints (twice).
INT_CASES = [
    ("direct", ints(50, 20), ints(60, 20)),
    ("limbs", ints(400, 10), ints(500, 10)),
    ("limbs", ints(100, 27), ints(100, 27)),
    ("limbs", ints(400, 26), ints(400, 26)),
    ("limbs", ints(60, 45), ints(70, 45)),
    ("limbs", ints(3, 52), ints(500, 52)),
]

FIB19_ROW = generate("fib", n=19, s=1)
FIB19_MASK = outer(FIB19_ROW, FIB19_ROW).real   # integers up to 1764

# Inputs whose method turns on the norms (the direct bound up to 2^17
# element pairs, Percival's certificate above them), plus autocorrelations
# (g is None), whose one operand is passed as both x and y.
NORM_CASES = [
    ("direct", ints(300, 20), None),
    ("limbs", ints(50, 40), None),
    ("limbs", ints(600, 10), None),
    ("limbs", ints(600, 24), None),
    ("limbs", ints(400, 45), ints(400, 45)),
    ("rfft", RNG.normal(size=20000), None),
    ("fft", RNG.normal(size=20000) + 1j, None),
    ("limbs", ints((4, 5), 8), ints((3, 6), 8)),
    ("limbs", ints((4, 5), 26), ints((3, 6), 26)),
    ("limbs", ints((4, 5), 45), ints((3, 6), 45)),
    ("limbs", FIB19_MASK, None),
    ("rfft", RNG.random((64, 64)), FIB19_MASK),
]


class TestMethodChoice:
    @pytest.mark.parametrize("method,f,g", FLOAT_CASES + INT_CASES
                             + NORM_CASES)
    def test_reversal_and_shared_operand_keep_the_method(self, method, f, g):
        # correlate picks the method before it reverses x, and with y the
        # very same array for an autocorrelation; the choice is the one made
        # on the reversed copy.
        x, y = _operands(f, g)
        assert method_of(f, g) == method
        assert _method(x, y) == method
        assert (y is x) == (g is None)


class TestSumOfSquares:
    SIZES = st.integers(1, 70_000) | st.sampled_from(
        [_FOLDED, _FOLDED + 1, _SHORT, _SHORT + 1, 9_999, 10_000, 10_001])
    # Squares and their sums stay normal floats: no underflow, no overflow.
    VALUES = st.just(0.0) | st.floats(1e-100, 1e100) | \
        st.floats(-1e100, -1e-100)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), SIZES, st.booleans())
    def test_matches_fsum_of_squares(self, data, n, is_complex):
        parts = [data.draw(arrays(np.float64, n, elements=self.VALUES))
                 for _ in range(1 + is_complex)]
        v = parts[0] + 1j * parts[1] if is_complex else parts[0]
        want = math.fsum(x * x for part in parts for x in part.tolist())
        assert abs(_sumsq(v) - want) <= 1e-15 * want

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(1, 5000) | st.sampled_from(
        [_FOLDED - 1, _FOLDED, _FOLDED + 1, _FOLDED + 2,
         _SHORT - 1, _SHORT, _SHORT + 1, _SHORT + 2]))
    def test_real_sums_as_its_complex_cast(self, data, n):
        # The route and its rounding follow the entry count, so zero
        # imaginary parts change nothing: merit_factor needs no cast.
        v = data.draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
        assert _sumsq(v.astype(np.complex128)) == _sumsq(v)

    @pytest.mark.parametrize("n,value", [
        (3, 1e200), (1000, 1e153), (1000, 1e200)])
    def test_overflow_gives_inf_quietly(self, n, value):
        # As np.vdot did: a sum beyond the float range is inf, and no numpy
        # warning is printed, whether a square or only the total overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _sumsq(np.full(n, value)) == math.inf


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="a second core is needed to show threaded work")
def test_deblur_and_long_analysis_stay_on_one_core():
    """Process CPU time over wall time of a 256^2 deblur round trip and a
    16k-element analysis: about 2 while a BLAS call spreads to threads that
    then busy-wait, 1 when every reduction stays on the calling thread."""
    obj = np.random.default_rng(5).random((256, 256))
    seq = generate("harb", n=16383, s=float(np.exp(4 / 16383)))
    time.sleep(0.1)   # threads woken by earlier tests go back to sleep
    cpu0, wall0 = time.process_time(), time.perf_counter()
    est = reconstruct(measure(obj, pedestal_masks(FIB19_MASK)), FIB19_MASK)
    recon_error(obj, est)
    end_term_bound(FIB19_MASK, obj_max=float(obj.max()))
    autocorr(seq)
    is_canonical(seq)
    merit_factor(seq)
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    assert cpu / wall <= 1.3


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
        assert method_of(f, g) == "limbs"
        assert limbs_of(f, g) == 1   # np.convolve in int64
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
        ("limbs", 8), ("limbs", 26), ("limbs", 45)])
    def test_integer_grids_exact(self, method, bits):
        f, g = ints((4, 5), bits), ints((3, 6), bits)
        assert method_of(f, g) == method
        got = correlate(f, g)
        assert np.array_equal(got.real, rounded(brute_xcorr_2d_int(f, g)))

    @pytest.mark.parametrize("method,bits", [
        ("limbs", 8), ("limbs", 26), ("limbs", 45)])
    def test_real_grid_reconstruct_exact_paths(self, method, bits):
        # On the exact paths too, a real estimate is the correlation's real
        # part over the real peak, bit for bit: one division per entry.
        h, b = ints((4, 5), bits), ints((12, 14), bits)
        assert method_of(h, b) == method
        peak = correlate(h)[3, 4].real
        with pytest.warns(UserWarning, match="not delta-correlated"):
            got = reconstruct(b, h)
        assert got.dtype == np.float64
        assert np.array_equal(got, correlate(h, b)[3:12, 4:14].real / peak)

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
        arr = np.array(seq, dtype=float)
        assert method_of(arr) == "limbs"
        assert limbs_of(arr) >= 2
        assert _exact(arr, arr, flip=True).dtype == object
        assert merit_factor_exact(seq) == brute_merit_factor_exact(seq)

    def test_elements_beyond_int64(self):
        seq = [3 * 2 ** 70, 5, -(2 ** 64), 7, 2 ** 80, -1]
        assert merit_factor_exact(seq) == brute_merit_factor_exact(seq)

    def test_limbs_fft_path(self):
        seq = RNG.choice([-1, 1], size=600).astype(float)
        assert (method_of(seq), limbs_of(seq)) == ("limbs", 1)
        assert merit_factor_exact(seq) == brute_merit_factor_exact(seq)

    @pytest.mark.parametrize("seq", [
        [1, 3037000499],            # the one side square just below 2^63
        [1, 3037000500],            # and just above it
        [1, 2 ** 40],               # a side square far past 2^63
        [31800] * 4,                # squares below 2^63, their sum past it
        [5, -3, 7, 2, -6, 1, 4],    # small lags: int64 squares
    ])
    def test_side_squares_either_side_of_int64(self, seq):
        assert merit_factor_exact(seq) == brute_merit_factor_exact(seq)

    def test_barker_still_exact(self):
        assert merit_factor_exact([1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1,
                                   1]) == Fraction(169, 12)


def big_ints(shape, bits):
    """Random integers below 2^bits in magnitude as float64: np.ldexp of a
    random 30-bit int by a random exponent, so that the entries spread over
    every magnitude up to 2^bits."""
    mantissa = RNG.integers(-2 ** 30 + 1, 2 ** 30, size=shape)
    return np.ldexp(mantissa.astype(float),
                    RNG.integers(0, max(bits - 30, 0) + 1, size=shape))


def as_ints(v):
    """Nested lists of the exact Python ints of a float array."""
    return np.vectorize(int, otypes=[object])(v).tolist()


def exact_xcorr(f, g):
    """The exact correlation of integer-valued float arrays of any rank, as
    nested lists of Python ints, from the brute-force oracles."""
    if f.ndim == 1:
        return brute_xcorr_int(f, g)
    if f.ndim == 2:
        return brute_xcorr_2d_int(f, g)
    return brute_xcorr_nd(as_ints(f), as_ints(g))


class TestLimbs:
    """The 'limbs' method (:func:`_exact`) on both sides of each of its
    thresholds, 1-D to 3-D, at magnitudes up to 2^1023, against the exact
    brute-force oracles: one limb against two on the short route (int64
    np.convolve) and on the FFT route (Percival's certificate), int64
    against Python-int recombination, and short against FFT."""

    @pytest.mark.parametrize("extra,k", [(0, 1), (1, 2)])
    def test_short_route_one_limb_to_two(self, extra, k):
        # max|x|^2 * N just below 2^63 is np.convolve in int64; one more
        # takes two interleaved limbs, recombined in Python ints.
        n = 100
        f = ints(n, 20)
        f[7] = math.isqrt((2 ** 63 - 1) // n) + extra
        assert (method_of(f), limbs_of(f)) == ("limbs", k)
        assert _exact(f, f, flip=True).dtype == (np.int64 if k == 1
                                                 else object)
        assert np.array_equal(correlate(f).real,
                              rounded(brute_xcorr_int(f, f)))

    @pytest.mark.parametrize("extra,k", [(0, 1), (1, 2)])
    def test_fft_route_one_limb_to_two(self, extra, k):
        # A constant c of length N has norms^2 = (N c^2)^2: the largest c
        # whose certificate is below 1/2 keeps one limb, the next one not.
        n = 600
        full = [2 * n - 1]
        c = math.isqrt(int(0.5 / (n * _fft_error_bound(full, 1.0))))
        while _fft_error_bound(full, float(n * c * c) ** 2) >= 0.5:
            c -= 1
        while _fft_error_bound(full, float(n * (c + 1) ** 2) ** 2) < 0.5:
            c += 1
        f = (c + extra) * RNG.choice([-1.0, 1.0], n)
        assert (method_of(f), limbs_of(f)) == ("limbs", k)
        assert np.array_equal(correlate(f).real,
                              rounded(brute_xcorr_int(f, f)))

    @pytest.mark.parametrize("extra,kind", [(0, np.int64), (1, object)])
    def test_fft_route_int64_to_python_ints(self, extra, kind):
        # Two limbs or more: max|x| max|y| min(|x|, |y|) below 2^63 sums
        # the diagonals in int64, else in 62-bit words joined as Python
        # ints.
        n = 1000
        f = (math.isqrt((2 ** 63 - 1) // n) + extra) * \
            RNG.choice([-1.0, 1.0], n)
        f[::3] = ints(f[::3].size, 20)
        assert limbs_of(f) >= 2
        got = _exact(np.flip(f), f)
        assert got.dtype == kind
        assert got.tolist() == brute_xcorr_int(f, f)

    @pytest.mark.parametrize("bits", [60, 1000])
    @pytest.mark.parametrize("n", [362, 363])
    def test_short_to_fft(self, n, bits):
        # |x| |y| <= _DIRECT_MAX interleaves the limbs for np.convolve;
        # one more element stacks them for the FFT.
        f, g = big_ints(n, bits), big_ints(362, bits)
        assert (n * 362 <= _DIRECT_MAX) == (n == 362)
        assert limbs_of(f, g) >= 2
        assert _exact(f, g, flip=True).tolist() == brute_xcorr_int(f, g)
        assert _exact(f, g).tolist() == brute_xcorr_int(np.flip(f), g)

    @pytest.mark.parametrize("bits", [20, 45, 60, 300, 1023])
    @pytest.mark.parametrize("fshape,gshape", [
        ((40,), (40,)), ((3,), (90,)), ((4, 5), (3, 6)), ((6, 5), (6, 5)),
        ((3, 4, 2), (2, 3, 3))])
    def test_exact_at_any_magnitude(self, fshape, gshape, bits):
        f, g = big_ints(fshape, bits), big_ints(gshape, bits)
        assert _exact(f, g, flip=True).tolist() == exact_xcorr(f, g)
        assert _exact(f, f, flip=True).tolist() == exact_xcorr(f, f)

    @pytest.mark.parametrize("n,bits", [(13, 1000), (131, 82), (131, 217),
                                        (400, 300), (600, 1023)])
    def test_merit_factor_exact_at_any_magnitude(self, n, bits):
        seq = big_ints(n, bits)
        assert merit_factor_exact(seq) == brute_merit_factor_exact(seq)

    @pytest.mark.parametrize("shape", [(40,), (600,), (5, 6), (3, 4, 5)])
    def test_no_runtime_warning_near_the_float_range(self, shape):
        # Entries up to 2^1023: every bound is taken in Python ints, and no
        # numpy operation leaves the float range.
        f = big_ints(shape, 1024)
        f.flat[0] = np.ldexp(2.0 ** 53 - 1, 1024 - 53)   # the largest float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _exact(f, f, flip=True)
            if f.ndim == 1:
                merit_factor_exact(f)
        assert got.tolist() == exact_xcorr(f, f)

    def test_no_limb_count_fits_is_an_argument_error(self, monkeypatch):
        # Past b = 1 no limb width is left: the plan refuses rather than
        # round.
        monkeypatch.setattr(analysis, "_fft_error_bound",
                            lambda full, norms2: math.inf)
        f = big_ints(600, 60)
        with pytest.raises(ArgumentError, match="too large to correlate"):
            _limb_plan(f, f)

    @pytest.mark.parametrize("b", range(1, 27))
    def test_join_matches_python_ints(self, b):
        # Diagonals at the extremes +-2^53, -1 and 0, in every place, and
        # random ones, for every limb width.
        rng = np.random.default_rng(b)
        d = rng.integers(-2 ** 53, 2 ** 53, size=(9, 40), endpoint=True)
        d[:, :8] = [2 ** 53, -2 ** 53, -1, 0, 1, 2 ** 53 - 1, 7, -7]
        d[rng.random(d.shape) < 0.2] = -2 ** 53
        want = [sum(int(v) << b * e for e, v in enumerate(col))
                for col in d.T]
        for bound in (max(map(abs, want)) + 1, 2 ** 600):
            assert _join(d, b, bound).tolist() == want

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_property_exact_at_any_magnitude(self, data):
        ndim = data.draw(st.integers(1, 3))
        top = 60 if ndim == 1 else 4
        bits = data.draw(st.integers(0, 1023))
        entries = st.builds(
            lambda m, e: float(np.ldexp(float(m), e)),
            st.integers(-2 ** 30, 2 ** 30), st.integers(0, max(bits - 30, 0)))
        f, g = (np.array(data.draw(arrays(
            np.float64, tuple(data.draw(st.integers(1, top))
                              for _ in range(ndim)), elements=entries)))
                for _ in range(2))
        assert _exact(f, g, flip=True).tolist() == exact_xcorr(f, g)
        if ndim == 1 and f.size >= 2:
            side = brute_xcorr_int(f, f)[f.size:]
            if any(side) and np.count_nonzero(f):
                assert merit_factor_exact(f) == brute_merit_factor_exact(f)


def cnormal(shape):
    return RNG.normal(size=shape) + 1j * RNG.normal(size=shape)


# Two-operand FFT products: 1-D just above the direct bound
# (400 * 330 > 2^17), 2-D and 3-D, the larger operand on either side, and
# extents that differ per axis, some larger in the smaller operand.
PRODUCT_SHAPES = [((400,), (330,)), ((330,), (400,)), ((9, 14), (6, 5)),
                  ((6, 5), (9, 14)), ((7, 3), (4, 9)), ((3, 4, 5), (5, 2, 6)),
                  ((5, 2, 6), (3, 4, 5))]
KIND_PAIRS = [("real", "real"), ("complex", "complex"), ("real", "complex"),
              ("complex", "real")]


def operand(shape, kind):
    return RNG.normal(size=shape) if kind == "real" else cnormal(shape)


def read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


class TestTwoOperandProducts:
    """correlate and convolve of two different operands on the FFT paths,
    which form the product in the larger operand's spectrum buffer and
    invert only the lags kept, against the brute-force oracles."""

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("kinds", KIND_PAIRS, ids="-".join)
    @pytest.mark.parametrize("fshape,gshape", PRODUCT_SHAPES)
    def test_correlate_matches_oracle(self, fshape, gshape, kinds, dual):
        f, g = operand(fshape, kinds[0]), operand(gshape, kinds[1])
        assert method_of(f, g) == ("rfft" if kinds == ("real", "real")
                                   else "fft")
        oracle = brute_xcorr if f.ndim == 1 else brute_xcorr_nd
        want = oracle(f.tolist(), g.tolist(), conjugate=not dual)
        assert close(correlate(f, g, dual=dual), want, 1e-12)

    @pytest.mark.parametrize("kinds", KIND_PAIRS, ids="-".join)
    @pytest.mark.parametrize("fshape,gshape", PRODUCT_SHAPES)
    def test_convolve_matches_oracle(self, fshape, gshape, kinds):
        f, g = operand(fshape, kinds[0]), operand(gshape, kinds[1])
        oracle = {1: brute_blur, 2: brute_blur_2d}.get(f.ndim, brute_blur_nd)
        assert close(convolve(f, g), oracle(f.tolist(), g.tolist()), 1e-12)

    @pytest.mark.parametrize("fshape,gshape", [((9, 14), (6, 5)),
                                               ((6, 5), (9, 14)),
                                               ((7, 3), (4, 9))])
    def test_integer_valued_grids_exact(self, fshape, gshape):
        # The one-limb FFT shares the spectrum buffer; its rounding stays
        # exact.
        f, g = ints(fshape, 8), ints(gshape, 8)
        assert (method_of(f, g), limbs_of(f, g)) == ("limbs", 1)
        got = correlate(f, g)
        assert np.array_equal(got.real, rounded(brute_xcorr_2d_int(f, g)))
        assert not got.imag.any()

    @pytest.mark.parametrize("view", [
        lambda a: a.real, lambda a: a[::-1, ::-1], read_only,
        lambda a: read_only(a)[::-1, ::2]],
        ids=["real-part", "reversed", "read-only", "read-only-strided"])
    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("dual", [False, True])
    def test_views_give_the_contiguous_result_untouched(self, view, first,
                                                        dual):
        big, small = view(cnormal((24, 16))), view(cnormal((5, 8)))
        before = big.copy(), small.copy()
        f, g = (big, small) if first else (small, big)
        plain = [np.ascontiguousarray(v) for v in (f, g)]
        assert np.array_equal(correlate(f, g, dual=dual),
                              correlate(*plain, dual=dual))
        assert np.array_equal(convolve(f, g), convolve(*plain))
        assert np.array_equal(big, before[0])
        assert np.array_equal(small, before[1])


# Autocorrelations by one forward transform: lengths either side of the
# direct bound (|a|^2 <= _DIRECT_MAX up to 362), odd and even.
SIDE = math.isqrt(_DIRECT_MAX)


class TestOneTransformAutocorrelation:
    @pytest.mark.parametrize("n", [SIDE - 1, SIDE, SIDE + 1, SIDE + 2])
    @pytest.mark.parametrize("kind,dual", [
        ("real", False), ("complex", False), ("complex", True)])
    def test_one_d_matches_oracle(self, n, kind, dual):
        f = RNG.normal(size=n) if kind == "real" else cnormal(n)
        assert method_of(f) == ("direct" if n <= SIDE else
                                "rfft" if kind == "real" else "fft")
        want = brute_xcorr(f.tolist(), f.tolist(), conjugate=not dual)
        assert close(correlate(f, dual=dual), want, tol=1e-13)

    @pytest.mark.parametrize("shape", [(5, 6), (4, 7), (6, 4), (5, 5),
                                       (3, 4, 5), (4, 3, 6)])
    @pytest.mark.parametrize("kind,dual", [
        ("real", False), ("complex", False), ("complex", True)])
    def test_two_d_matches_oracle(self, shape, kind, dual):
        grid = RNG.normal(size=shape) if kind == "real" else cnormal(shape)
        if grid.ndim == 2:
            want = brute_autocorr_2d(grid.tolist(), conjugate=not dual)
        else:
            want = brute_xcorr_nd(grid.tolist(), grid.tolist(),
                                  conjugate=not dual)
        assert close(correlate(grid, dual=dual), want, tol=1e-13)

    @pytest.mark.parametrize("f", [ints(600, 10), ints(601, 10),
                                   ints((4, 5), 8), ints((5, 6), 8),
                                   ints((3, 4, 5), 8)])
    def test_limbs_fft_bit_identical(self, f):
        assert (method_of(f), limbs_of(f)) == ("limbs", 1)
        if f.ndim == 3:   # integer sums far below 2^53 add exactly
            exact = np.real(brute_xcorr_nd(f.tolist(), f.tolist()))
        else:
            exact = brute_xcorr_int(f, f) if f.ndim == 1 else \
                brute_xcorr_2d_int(f, f)
        got = correlate(f)
        assert not got.imag.any()
        assert np.array_equal(got.real, rounded(exact))


def sampled_lags(n, rng):
    """Lags of a 1-D autocorrelation of length n to check one by one: six
    at each end, -6..6 around the zero lag, and 24 drawn between."""
    lags = list(range(-(n - 1), -(n - 7))) + list(range(-6, 7)) + \
        list(range(n - 6, n)) + rng.integers(-(n - 1), n, 24).tolist()
    return sorted(set(lags))


class TestHermitianAutocorrelation:
    """Complex autocorrelations past the direct bound: the conjugating one
    inverts the real |X|^2 by a half-length Hermitian transform and mirrors
    the negative lags from the positive ones; the dual one inverts
    X(w) X(-w).  Both senses match the brute-force oracles within 1e-12 of
    the energy, on grids L = _fast_len(2N-1) odd and even."""

    @staticmethod
    def check(got, want, f):
        energy = float(np.sum(np.abs(f) ** 2))
        err = float(np.max(np.abs(got - np.asarray(want))))
        assert err <= 1e-12 * energy

    @pytest.mark.parametrize("dual", [False, True])
    def test_hermitian_every_lag_matches_oracle(self, dual):
        f = cnormal(SIDE + 1)
        assert (method_of(f), _fast_len(2 * f.size - 1)) == ("fft", 729)
        self.check(correlate(f, dual=dual),
                   brute_autocorr(f.tolist(), conjugate=not dual), f)

    @pytest.mark.parametrize("n,length", [
        (1688, 3375), (2000, 4000), (4097, 8640), (16383, 32768)])
    @pytest.mark.parametrize("dual", [False, True])
    def test_hermitian_sampled_lags_match_oracle(self, n, length, dual):
        assert _fast_len(2 * n - 1) == length
        rng = np.random.default_rng(n)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = correlate(f, dual=dual)
        lags = sampled_lags(n, rng)
        elements = f.tolist()
        want = [brute_autocorr_lag(elements, k, conjugate=not dual)
                for k in lags]
        self.check(got[np.array(lags) + n - 1], want, f)

    @pytest.mark.parametrize("dual", [False, True])
    def test_hermitian_grid_matches_oracle(self, dual):
        grid = cnormal((40, 50))
        got = correlate(grid, dual=dual)
        rows = list(range(-39, -36)) + [-1, 0, 1] + list(range(37, 40))
        cols = list(range(-49, -46)) + [-1, 0, 1] + list(range(47, 50))
        elements = grid.tolist()
        want = [[brute_autocorr_2d_lag(elements, i, j, conjugate=not dual)
                 for j in cols] for i in rows]
        self.check(got[np.ix_(np.array(rows) + 39, np.array(cols) + 49)],
                   want, grid)

    @pytest.mark.parametrize("n", [SIDE + 1, 1688, 2000, 4097, 16383])
    def test_hermitian_negative_lags_are_exact_conjugates(self, n):
        r = correlate(cnormal(n))
        assert np.array_equal(r[::-1], r.conj())

    @pytest.mark.parametrize("shape", [(40, 50), (21, 33), (5, 6, 7)])
    def test_hermitian_grid_negative_last_axis_lags_exact(self, shape):
        # r(-k) = conj(r(k)) bit for bit wherever the last axis' lag is not
        # zero: one of the pair is mirrored from the other.
        r = correlate(cnormal(shape))
        mirror = r[(slice(None, None, -1),) * r.ndim].conj()
        zero = shape[-1] - 1
        assert np.array_equal(np.delete(r, zero, axis=-1),
                              np.delete(mirror, zero, axis=-1))


# The seven entry points that share a Sequence's autocorrelation, each
# called with a sequence and a sense flag (ignored where it has no dual).
ENTRY_POINTS = {
    "xcorr": lambda f, dual: xcorr(f, f, conjugate=not dual),
    "autocorr": lambda f, dual: autocorr(f),
    "dual_autocorr": lambda f, dual: dual_autocorr(f),
    "periodic_autocorr": lambda f, dual: periodic_autocorr(f),
    "is_canonical": lambda f, dual: is_canonical(f, dual=dual),
    "is_perfect": lambda f, dual: is_perfect(f),
    "merit_factor": lambda f, dual: merit_factor(f),
    "spectral_flatness": lambda f, dual: spectral_flatness(f),
}


def comparable(res):
    """A result in a form compared with ==."""
    if hasattr(res, "values"):
        return (res.values.tolist(), res.lags.tolist(), res.peak_value,
                res.end_values, res.max_interior_offpeak)
    return res


class TestSequenceMemo:
    """A Sequence computes its autocorrelation once per sense and shares it
    with every later call; the results must not depend on that."""

    ELEMENTS = st.sampled_from([
        ("real", 2), ("real", 11), ("real", SIDE + 2), ("complex", 7),
        ("complex", SIDE + 1), ("int", 9), ("int", 600), ("big_int", 40)])

    @staticmethod
    def _elements(kind, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "real":
            return rng.normal(size=n)
        if kind == "complex":
            return rng.normal(size=n) + 1j * rng.normal(size=n)
        bits = 50 if kind == "big_int" else 10
        return rng.integers(1, 2 ** bits, size=n) * rng.choice((-1, 1), n)

    @settings(max_examples=40, deadline=None)
    @given(ELEMENTS, st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.sampled_from(sorted(ENTRY_POINTS)),
                              st.booleans()), min_size=1, max_size=10))
    def test_call_order_does_not_change_results(self, elements, seed, calls):
        seq = Sequence(self._elements(*elements, seed))
        for name, dual in calls:
            call = ENTRY_POINTS[name]
            assert comparable(call(seq, dual)) == \
                comparable(call(np.array(seq.elements), dual))

    @pytest.mark.parametrize("f", [RNG.normal(size=SIDE + 5),
                                   cnormal(SIDE + 5), cnormal(12)])
    def test_mutating_a_result_leaves_later_results(self, f):
        seq, want = Sequence(f), correlate(f)
        returned = [correlate(seq), autocorr(seq).values,
                    periodic_autocorr(seq).values, correlate(seq, seq)]
        for arr in returned:
            arr[:] = 7.0
        assert np.array_equal(correlate(seq), want)
        assert np.array_equal(autocorr(seq).values, want)
        assert np.array_equal(periodic_autocorr(seq).values,
                              correlate(f, periodic=True))

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
    def test_copies_start_without_the_memo(self, clone):
        f = cnormal(SIDE + 5)
        seq = Sequence(f)
        want = correlate(seq)
        twin = clone(seq)
        correlate(twin)[:] = 7.0
        assert np.array_equal(correlate(twin), want)
        assert np.array_equal(correlate(seq), want)

    @pytest.mark.parametrize("bits", [10, 30, 50])
    def test_integer_fold_through_memo_exact(self, bits):
        f = ints(64, bits)
        seq = Sequence(f)
        want = rounded(brute_periodic_autocorr_int(f))
        autocorr(seq)   # fills the memo with the raw aperiodic lags
        for _ in range(2):
            got = correlate(seq, periodic=True)
            assert not got.imag.any()
            assert np.array_equal(got.real, want)

    def test_plain_arrays_are_not_memoised(self):
        f = RNG.normal(size=30)
        first = correlate(f)
        f[0] += 1.0
        assert not np.array_equal(correlate(f), first)

    @pytest.mark.parametrize("value", [1e160, 1e200])
    def test_energy_of_huge_entries_is_inf_quietly(self, value):
        # An infinite energy is no reference for the tolerance: no verdict
        # passes against it.
        seq = Sequence([value, 3.0, -1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert seq.energy == math.inf
            rep = is_canonical(seq)
            assert rep.energy == math.inf
            assert rep.is_canonical is False
            assert is_perfect(seq) is False

    def test_overflowed_reference_is_no_pass(self):
        flat = np.full(6, 1e155)
        rep = is_canonical(flat)
        assert (rep.energy, rep.worst_residual) == (math.inf, math.inf)
        assert rep.is_canonical is False
        assert is_perfect(flat) is False

    @pytest.mark.parametrize("value", [1e155, 1e155j, (1 + 1j) * 1e155])
    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("memo", [False, True])
    def test_overflowed_fft_path_is_quiet_and_no_pass(self, value, dual,
                                                      memo):
        # Past the direct bound the spectrum product overflows; the
        # autocorrelation holds inf or NaN, and no verdict passes, quietly.
        flat = np.full(600, value)
        f = Sequence(flat) if memo else flat
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert method_of(flat) in ("rfft", "fft")
            rep = is_canonical(f, dual=dual)
            assert rep.energy == math.inf
            assert rep.is_canonical is False
            assert is_perfect(f) is False
            merit_factor(f)
            spectral_flatness(f)

    @pytest.mark.parametrize("n", [13, 256, 257, 258, 300, SIDE])
    @pytest.mark.parametrize("kind", ["pm1", "float"])
    def test_merit_factor_sums_as_the_complex_lags(self, n, kind):
        # Real side lags are summed as their complex cast is, route and
        # order, so the merit factor of a direct-path sequence is unchanged
        # by keeping them real; for +-1 entries past 257 that is exact.
        rng = np.random.default_rng(n)
        f = rng.choice((-1.0, 1.0), n) if kind == "pm1" else \
            rng.normal(size=n)
        energy = float(np.sum(np.abs(f) ** 2))
        want = energy * energy / (2 * _sumsq(correlate(f)[n:]))
        assert merit_factor(f) == want
        assert merit_factor(Sequence(f)) == want
        if kind == "pm1" and n > 257:
            assert want == float(merit_factor_exact(f))

    def test_integer_energy_exact(self):
        seq = generate("fib", n=7, s=1)
        assert seq.energy == 18.0
        assert merit_factor(seq) == 162.0

    @pytest.mark.parametrize("f", [RNG.normal(size=SIDE + 5),
                                   cnormal(SIDE + 5), cnormal(12)])
    def test_one_real_pass_per_sequence(self, f, monkeypatch):
        # The elements' grid (real when every imaginary part is zero) is
        # kept in the memo: one pass over the imaginary parts per Sequence.
        calls, real = [], analysis._real
        monkeypatch.setattr(analysis, "_real",
                            lambda x: calls.append(x) or real(x))
        seq = Sequence(f)
        autocorr(seq)
        is_canonical(seq)
        merit_factor(seq)
        assert len(calls) == 1


class TestTransformCount:
    """np.fft calls, counted by monkeypatching: an autocorrelation takes
    one forward and one inverse transform, and a Sequence takes one
    autocorrelation per sense for every check on it, both senses from one
    forward transform.  An n-D transform is one np.fft call per axis, in
    both directions and both senses: the forward one along the last axis,
    then each other one in place, and the inverse one (np.fft.ihfft or
    np.fft.ifft along the last axis of the Hermitian one) the same way."""

    FORWARD = ("fft", "fftn", "rfft", "rfftn")
    INVERSE = ("ifft", "ifftn", "irfft", "irfftn", "hfft", "ihfft")

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"forward": 0, "inverse": 0}
        for kind, names in (("forward", self.FORWARD),
                            ("inverse", self.INVERSE)):
            for name in names:
                def counted(*args, _fn=getattr(np.fft, name), _kind=kind,
                            **kwargs):
                    counts[_kind] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(np.fft, name, counted)
        return counts

    @pytest.mark.parametrize("f,dual", [
        (RNG.normal(size=16384), False), (cnormal(16384), False),
        (cnormal(16384), True), (ints(600, 10), False),
        (cnormal((40, 50)), True)])
    def test_transform_count_one_autocorrelation(self, counts, f, dual):
        correlate(f, dual=dual)
        assert counts == {"forward": f.ndim, "inverse": f.ndim}

    @pytest.mark.parametrize("s", [float(np.exp(4 / 16383)),
                                   complex(np.exp(1j))])
    def test_transform_count_sequence_checks(self, counts, s):
        seq = generate("harb", n=16383, s=s)
        autocorr(seq)
        is_canonical(seq)
        merit_factor(seq)
        is_perfect(seq)
        spectral_flatness(seq)
        assert counts == {"forward": 1, "inverse": 1}

    def test_transform_count_both_senses_of_a_sequence(self, counts):
        seq = generate("harb", n=16383, s=complex(np.exp(1j)))
        autocorr(seq)
        is_canonical(seq, dual=True)
        merit_factor(seq)
        spectral_flatness(seq)
        assert counts == {"forward": 1, "inverse": 2}

    @pytest.mark.parametrize("dual", [False, True])
    def test_transform_count_complex_grid(self, counts, dual):
        correlate(cnormal((40, 50)), dual=dual)
        assert counts == {"forward": 2, "inverse": 2}

    @pytest.mark.parametrize("f", [RNG.normal(size=16383), cnormal(16383)])
    def test_transform_count_flatness_of_an_array(self, counts, f):
        spectral_flatness(f)
        assert counts == {"forward": 1, "inverse": 0}

    @pytest.mark.parametrize("f", [RNG.normal(size=16383), cnormal(16383)])
    def test_transform_count_dual_cross_spectrum(self, counts, f):
        dual_cross_spectrum(f)
        assert counts == {"forward": 1, "inverse": 0}

    def test_transform_count_cross_correlation(self, counts):
        correlate(RNG.normal(size=16384), RNG.normal(size=16384))
        assert counts == {"forward": 2, "inverse": 1}

    def test_transform_count_equal_copy(self, counts):
        f = cnormal(16384)
        correlate(f, f.copy(), dual=True)
        assert counts == {"forward": 1, "inverse": 1}
