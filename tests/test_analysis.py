"""Correlation engines, condition checkers, and metrics, cross-checked
against the pure-Python brute-force oracles."""

import cmath
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huffseq import (
    ArgumentError,
    Sequence,
    autocorr,
    dual_autocorr,
    dual_cross_spectrum,
    fixtures,
    gen_fibonacci,
    gen_h11,
    gen_h9a,
    gen_h_arb,
    gen_h_plus,
    gen_h_tan,
    gen_he4,
    gen_perfect_fib,
    generate,
    is_canonical,
    is_perfect,
    merit_factor,
    merit_factor_exact,
    nd_autocorr,
    outer,
    periodic_autocorr,
    spectral_flatness,
    xcorr,
)
from huffseq.analysis import _method, _operands

from _oracles import (
    brute_autocorr,
    brute_autocorr_2d,
    brute_periodic_autocorr,
    brute_spectral_flatness,
    brute_xcorr,
    smooth_length,
)


def brute_dual_autocorr(f):
    return brute_autocorr(f, conjugate=False)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False,
                   allow_infinity=False)
cnum = st.builds(complex, finite, finite)
seq_strategy = st.lists(cnum, min_size=1, max_size=12)


def close(a, b, tol=1e-9):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and np.allclose(a, b, atol=tol, rtol=1e-12)


class TestXcorr:
    def test_matches_oracle_on_families(self):
        pairs = [
            (gen_fibonacci(7, 1).elements, gen_fibonacci(11, 1).elements),
            (gen_h11(2).elements, gen_h9a(1).elements),
            (fixtures("b13").elements, fixtures("h5").elements),
        ]
        for f, g in pairs:
            prof = xcorr(f, g)
            assert close(prof.values, brute_xcorr(list(f), list(g)))

    @settings(max_examples=60, deadline=None)
    @given(seq_strategy, seq_strategy)
    def test_matches_oracle_random(self, f, g):
        prof = xcorr(f, g)
        ref = brute_xcorr(f, g)
        assert prof.values.size == len(f) + len(g) - 1
        assert close(prof.values, ref, tol=1e-7)

    def test_lag_axis(self):
        prof = xcorr([1, 2, 3], [4, 5])
        assert list(prof.lags) == [-2, -1, 0, 1]
        assert prof.peak_value == pytest.approx(1 * 4 + 2 * 5)

    def test_end_values_are_element_products(self):
        f = [2, 0, 0, 5]
        g = [3, 0, 7]
        prof = xcorr(f, g)
        assert prof.end_values[0] == pytest.approx(np.conj(f[-1]) * g[0])
        assert prof.end_values[1] == pytest.approx(np.conj(f[0]) * g[-1])

    def test_rejects_grids(self):
        with pytest.raises(ArgumentError):
            xcorr([[1, 2], [3, 4]], [1])

    def test_h11_against_fibonacci_shared_autocorrelation(self):
        # Both length-11 constructions at unit scale have the same
        # autocorrelation, yet their cross-correlation peak reaches 76,
        # noticeably above half the common energy P = 123.
        h, f = gen_h11(1), gen_fibonacci(11, 1)
        assert close(autocorr(h).values, autocorr(f).values)
        top = float(np.max(np.abs(xcorr(h, f).values)))
        assert top == pytest.approx(76.0)
        assert top < h.energy == pytest.approx(123.0)


class TestAutocorr:
    @settings(max_examples=60, deadline=None)
    @given(seq_strategy)
    def test_matches_oracle_random(self, f):
        assert close(autocorr(f).values, brute_autocorr(f), tol=1e-7)

    def test_hermitian_symmetry(self):
        f = [1 + 2j, -3, 0.5j, 4]
        vals = autocorr(f).values
        assert close(vals, np.conj(vals[::-1]))

    def test_h_plus_9_exact_profile(self):
        vals = autocorr(gen_h_plus(9, 1)).values.real
        expected = [1, 0, 0, 0, -14, 0, 0, 0, 51,
                    0, 0, 0, -14, 0, 0, 0, 1]
        assert list(np.round(vals, 9)) == expected

    def test_interior_offpeak_excludes_ends(self):
        prof = autocorr(gen_fibonacci(7, 1))
        assert prof.max_interior_offpeak == pytest.approx(0.0, abs=1e-12)
        assert abs(prof.end_values[0]) == pytest.approx(1.0)


class TestDualAutocorr:
    @settings(max_examples=60, deadline=None)
    @given(seq_strategy)
    def test_matches_oracle_random(self, f):
        assert close(dual_autocorr(f).values, brute_dual_autocorr(f),
                     tol=1e-7)

    def test_real_input_equals_conjugating_form(self):
        f = gen_fibonacci(11, 2).elements
        assert close(dual_autocorr(f).values, autocorr(f).values)

    @pytest.mark.parametrize("maker,speak", [
        (lambda: gen_h9a(2j), 2.0),
        (lambda: gen_h11(2j), 2.0),
        (lambda: gen_h_arb(5, cmath.exp(1j * math.pi / 3)), 1.0),
        (lambda: gen_h_arb(8, cmath.exp(1j * math.pi / 3)), math.sqrt(3)),
        (lambda: gen_h_arb(13, cmath.exp(1j * math.pi / 3)), 2.0),
        (lambda: gen_h_tan(13, cmath.exp(1j * math.pi / 6)), 2.0),
        (lambda: fixtures("complex7_i"), 0.5),
        (lambda: fixtures("complex7_unimodular"), 2.0),
    ])
    def test_dual_peak_values(self, maker, speak):
        prof = dual_autocorr(maker())
        assert prof.peak == pytest.approx(speak, abs=1e-9)
        assert prof.max_interior_offpeak < 1e-9 * maker().energy


class TestPeriodic:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(cnum, min_size=2, max_size=12))
    def test_matches_oracle_random(self, f):
        assert close(periodic_autocorr(f).values,
                     brute_periodic_autocorr(f), tol=1e-7)

    def test_perfect_family_vanishing_shifts(self):
        prof = periodic_autocorr(gen_perfect_fib(11, 1))
        assert prof.peak == pytest.approx(121.0)
        assert float(np.max(np.abs(prof.values[1:]))) < 1e-9

    def test_length_one_rejected(self):
        with pytest.raises(ArgumentError):
            periodic_autocorr([3])


class TestNdAutocorr:
    def test_matches_brute_2d(self):
        grid = outer(gen_fibonacci(7, 1), fixtures("h5"))
        assert close(nd_autocorr(grid), brute_autocorr_2d(grid))

    def test_separability(self):
        f = gen_fibonacci(7, 1)
        g = fixtures("h5")
        left = nd_autocorr(outer(f, g))
        right = np.outer(autocorr(f).values, autocorr(g).values)
        assert close(left, right)

    def test_nine_entry_structure(self):
        # outer(f, f) for a canonical f with unit ends and center A0 has
        # exactly nine non-zero autocorrelation entries: 1 at the four
        # corners, -A0 at the four edge midpoints, A0^2 at the center.
        f = gen_fibonacci(7, 1)
        r = nd_autocorr(outer(f, f)).real
        nz = {(i, j): round(v, 9) for (i, j), v in np.ndenumerate(r)
              if abs(v) > 1e-9}
        assert len(nz) == 9
        corners = {nz[k] for k in [(0, 0), (0, 12), (12, 0), (12, 12)]}
        edges = {nz[k] for k in [(0, 6), (6, 0), (6, 12), (12, 6)]}
        assert corners == {1.0}
        assert edges == {-18.0}
        assert nz[(6, 6)] == 324.0

    def test_one_d_matches_autocorr(self):
        f = gen_fibonacci(7, 2).elements
        assert close(nd_autocorr(f), autocorr(f).values)

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            nd_autocorr(np.zeros((0, 3)))


class TestIsCanonical:
    def test_report_fields(self):
        rep = is_canonical(gen_fibonacci(7, 1))
        assert rep
        assert rep.is_canonical is True
        assert rep.peak == pytest.approx(18.0)
        assert rep.energy == pytest.approx(18.0)
        assert rep.worst_residual == pytest.approx(0.0, abs=1e-12)
        assert rep.tolerance == 1e-9

    def test_detects_violation(self):
        rep = is_canonical(fixtures("b13"))
        assert not rep
        assert rep.worst_residual == pytest.approx(1.0)

    def test_tolerance_relative_to_energy(self):
        f = [v * 1e6 for v in gen_fibonacci(7, 1).elements]
        assert is_canonical(f)
        assert not is_canonical(fixtures("quasi9"), tol=1e-3)
        assert is_canonical(fixtures("quasi9"), tol=0.1)

    def test_dual_mode_with_vanishing_dual_peak(self):
        # he4 at a quarter turn has dual center sum f_i^2 = 0; the check
        # still passes because residuals are measured against the energy.
        rep = is_canonical(gen_he4(1j), dual=True)
        assert rep
        assert rep.peak == pytest.approx(0.0, abs=1e-12)
        assert rep.energy == pytest.approx(4.0)

    def test_real_vs_dual_disagree_for_complex(self):
        f = gen_h9a(2j)
        assert not is_canonical(f)
        assert is_canonical(f, dual=True)

    def test_bad_tolerance(self):
        with pytest.raises(ArgumentError):
            is_canonical([1, 2], tol=0)

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance(self, tol, dual):
        # Against NaN every verdict would fail, against inf every one pass.
        with pytest.raises(ArgumentError, match="positive and finite"):
            is_canonical(fixtures("b13"), tol=tol, dual=dual)

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("f", [
        [3], [1, -2], [1, 1, 1, 1, 1], fixtures("b13"), gen_fibonacci(7, 1),
        [1 + 1j, 2, -1j, 3, 1], [2, -1j, 1 + 2j, 1j, -3, 1],
    ], ids=["n1", "n2", "tie", "b13", "fib7", "cplx5", "cplx6"])
    def test_worst_lag_matches_offpeak_oracle(self, f, dual):
        # Integer entries, so the lags and their squared magnitudes are
        # exact, and so are the ties: the worst lag is the first of largest
        # magnitude outside {0, +-(N-1)}, or lag 0 and 0.0 for N <= 2.
        r = brute_autocorr(f, conjugate=not dual)
        n = len(f)
        offpeak = [(v.real ** 2 + v.imag ** 2, k - (n - 1))
                   for k, v in enumerate(r) if k not in (0, n - 1, len(r) - 1)]
        top = max((m for m, _ in offpeak), default=0.0)
        rep = is_canonical(f, dual=dual)
        assert rep.worst_lag == next((k for m, k in offpeak if m == top), 0)
        assert rep.worst_residual == pytest.approx(math.sqrt(top), rel=1e-15)


class TestIsPerfect:
    def test_family_members(self):
        assert is_perfect(gen_perfect_fib(11, 1))
        assert not is_perfect(fixtures("b13"))

    def test_tolerance_validation(self):
        with pytest.raises(ArgumentError):
            is_perfect([1, 2, 3], tol=-1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance(self, tol):
        with pytest.raises(ArgumentError, match="positive and finite"):
            is_perfect(fixtures("b13"), tol=tol)


class TestMeritFactor:
    def test_classic_barker(self):
        assert merit_factor(fixtures("b13")) == pytest.approx(169 / 12)
        assert merit_factor_exact(fixtures("b13")) == Fraction(169, 12)

    def test_ternary_barker(self):
        assert merit_factor_exact(fixtures("ternary_barker17")) == \
            Fraction(50, 7)

    def test_variant(self):
        assert merit_factor_exact(fixtures("b13var")) == Fraction(64, 29)

    def test_ratio_far_from_improvement_band(self):
        ratio = merit_factor_exact(fixtures("b13var")) / \
            merit_factor_exact(fixtures("b13"))
        assert ratio == Fraction(768, 4901)
        assert not (1.20 <= float(ratio) <= 1.30)

    @pytest.mark.parametrize("name", [
        "b13", "ternary_barker17", "b13var", "quasi8a", "quasi8b", "h86",
        "perfect_fib"])
    def test_integer_merit_factor_correctly_rounded(self, name):
        # The integer side-lag power is summed exactly, so E^2 / (2 S) is
        # one correctly rounded division: b13 gives 14.083333333333334.
        seq = generate(name, n=11, s=1) if name == "perfect_fib" else \
            fixtures(name)
        assert merit_factor(seq) == float(merit_factor_exact(seq))

    def test_infinite_for_zero_sidelobes(self):
        assert merit_factor([1, 0]) == math.inf
        with pytest.raises(ArgumentError):
            merit_factor_exact([1, 0])

    def test_input_validation(self):
        with pytest.raises(ArgumentError):
            merit_factor([5])
        with pytest.raises(ArgumentError):
            merit_factor([0, 0, 0])
        with pytest.raises(ArgumentError):
            merit_factor_exact([0.5, 1.5])
        with pytest.raises(ArgumentError):
            merit_factor_exact([1j, 1])
        for bad in ([math.inf, 1], [math.nan, 1]):
            with pytest.raises(ArgumentError):
                merit_factor_exact(bad)

    def test_quasi9_off_peak_bounded(self):
        prof = autocorr(fixtures("quasi9"))
        mags = np.abs(prof.values)
        mags[len(fixtures("quasi9")) - 1] = 0
        assert float(mags.max()) <= 1 + 1e-12


class TestSpectralFlatness:
    # spectral_flatness takes min/max |F| over the L = _fast_len(2N-1) bins
    # of its FFT autocorrelation, the smallest 2^a 3^b 5^c >= 2N-1; these
    # values were pinned over 2N-1 bins before.
    OLD = {"fib7": 0.8957295514360278, "h86": 0.6910091392632235}

    def test_oracle_reproduces_the_old_values_on_2n_minus_1_bins(self):
        for name, f in (("fib7", gen_fibonacci(7, 1)),
                        ("h86", fixtures("h86"))):
            assert brute_spectral_flatness(f, 2 * len(f) - 1) == \
                pytest.approx(self.OLD[name], abs=1e-12)

    def test_fibonacci_7(self):
        f = gen_fibonacci(7, 1)
        assert smooth_length(13) == 15
        assert brute_spectral_flatness(f, 15) == \
            pytest.approx(0.9030925300487855, abs=1e-12)
        assert spectral_flatness(f) == \
            pytest.approx(0.9030925300487855, abs=1e-12)

    def test_h86_beats_random_binary_median(self):
        f = spectral_flatness(fixtures("h86"))
        assert smooth_length(171) == 180
        assert brute_spectral_flatness(fixtures("h86"), 180) == \
            pytest.approx(0.6874371190018201, abs=1e-12)
        assert f == pytest.approx(0.6874371190018201, abs=1e-12)
        rng = np.random.default_rng(0)
        rand = [spectral_flatness((rng.integers(0, 2, size=86) * 2 - 1)
                                  .astype(float)) for _ in range(100)]
        assert f > float(np.median(rand))

    @pytest.mark.parametrize("f", [
        [1.0], [2.0, -1.0], [1j, 2.0, 3 - 1j], fixtures("b13").elements,
        np.random.default_rng(1).normal(size=400),
        gen_h_arb(401, cmath.exp(0.3j)).elements])
    def test_matches_oracle(self, f):
        want = brute_spectral_flatness(f, smooth_length(2 * len(f) - 1))
        assert spectral_flatness(f) == pytest.approx(want, abs=1e-12)
        assert spectral_flatness(Sequence(f)) == spectral_flatness(f)

    def test_zero_sequence_rejected(self):
        with pytest.raises(ArgumentError):
            spectral_flatness([0, 0])

    def test_huge_scale_stays_finite(self):
        # |F|^2 would overflow here (entries near 1e180); |F| does not.
        seq = generate("fib", n=31, s=1e12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = spectral_flatness(seq)
        assert math.isfinite(got)
        want = brute_spectral_flatness(seq, smooth_length(2 * len(seq) - 1))
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_power_of_two_scaling_is_exact(self, kind):
        rng = np.random.default_rng(5)
        f = rng.normal(size=700) * 1e160
        if kind == "complex":
            f = f + 1j * rng.normal(size=700) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert spectral_flatness(f) == \
                spectral_flatness(np.ldexp(f.real, -500)
                                  + 1j * np.ldexp(f.imag, -500))
            assert spectral_flatness(Sequence(f)) == spectral_flatness(f)

    # One case per way the autocorrelation can be computed: 'rfft', 'fft'
    # (either sense, or the dual one alone), 'fft_round' (a power-of-two
    # grid) and 'direct'.
    CASES = {
        "rfft": (np.random.default_rng(2).normal(size=600), autocorr),
        "fft": (gen_h_arb(601, cmath.exp(0.2j)).elements, autocorr),
        "fft_dual_only": (gen_h_arb(601, cmath.exp(0.2j)).elements,
                          dual_autocorr),
        "fft_round": (np.random.default_rng(3).integers(
            -1000, 1000, size=600).astype(float), autocorr),
        "direct": (np.random.default_rng(4).normal(size=20) + 1j, autocorr),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flatness_same_in_every_order_and_form(self, case):
        f, correlation = self.CASES[case]
        assert _method(*_operands(f, None)) == case.split("_dual")[0]
        want = spectral_flatness(np.array(f))
        first = Sequence(f)
        got = [spectral_flatness(first)]
        correlation(first)
        got.append(spectral_flatness(first))
        later = Sequence(f)
        correlation(later)
        got.append(spectral_flatness(later))
        got.append(spectral_flatness(pickle.loads(pickle.dumps(later))))
        assert got == [want] * 4


class TestDualCrossSpectrum:
    @pytest.mark.parametrize("length", [13.0, 5])
    def test_length_must_be_an_integer_of_at_least_n(self, length):
        with pytest.raises(ArgumentError):
            dual_cross_spectrum(gen_h_arb(6, 2), length)

    def test_inverse_transform_is_dual_autocorrelation(self):
        f = gen_h_arb(6, 2).elements
        spec = dual_cross_spectrum(f)
        back = np.fft.ifft(spec)
        # with padding to 2N-1 the inverse transform is the full linear
        # profile in ascending-lag order, matching the brute layout
        assert close(back, brute_dual_autocorr(list(f)))

    def test_ripple_bound_for_dual_canonical(self):
        f = np.asarray(gen_h_arb(8, cmath.exp(1j * math.pi / 3)).elements)
        spec = np.abs(dual_cross_spectrum(f))
        peak = abs(np.sum(f ** 2))
        ripple = float(np.max(np.abs(spec - peak)))
        bound = 2 * abs(f[0] * f[-1])
        assert ripple == pytest.approx(1.9562952014676125)
        assert ripple <= bound + 1e-12

    def test_flatness_grows_with_scale_magnitude(self):
        base = cmath.exp(1j * math.pi / 3)
        flats = []
        for mult in (1, 2, 4):
            spec = np.abs(dual_cross_spectrum(gen_h_arb(8, mult * base)))
            flats.append(float(spec.min() / spec.max()))
        assert flats[0] == pytest.approx(0.025767676753611336)
        assert flats[1] == pytest.approx(0.7384731719564921)
        assert flats[2] == pytest.approx(0.9735849135346797)
        assert flats[0] < flats[1] < flats[2]

    @pytest.mark.parametrize("n,s", [
        (8, cmath.exp(1j * math.pi / 3)), (8, 2.0), (1001, 2.0),
        (1001, cmath.exp(1j * math.pi / 3)), (16383, math.exp(4 / 16383))])
    @pytest.mark.parametrize("extra", [0, 2, 37])
    def test_matches_two_transform_product(self, n, s, extra):
        # One transform X: DFT(reversed f)[k] = w^((N-1)k) X[-k mod L].
        f = generate("harb", n=n, s=s).elements
        length = 2 * n - 1 + extra
        want = np.fft.fft(f, length) * np.fft.fft(f[::-1], length)
        got = dual_cross_spectrum(f, None if extra == 0 else length)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(f).sum() ** 2

    def test_padded_length_override(self):
        f = gen_fibonacci(7, 1).elements
        assert dual_cross_spectrum(f, 32).size == 32
