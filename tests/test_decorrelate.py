"""Two-mask measurement protocol: encodings, dose accounting, blur, and
correlation reconstruction."""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import huffseq.decorrelate as decorrelate
from huffseq import (
    ArgumentError,
    DomainError,
    MaskSet,
    Sequence,
    blur,
    convolve,
    correlate,
    dose,
    end_term_bound,
    fixtures,
    gen_fibonacci,
    gen_h11,
    gen_h_arb,
    gen_he4,
    measure,
    min_pedestal,
    outer,
    pedestal_masks,
    recombine,
    recon_error,
    reconstruct,
    split_complex,
    split_signs,
)

from _oracles import brute_autocorr_2d, brute_blur, brute_blur_2d

RNG_SEED = 20260816


def fib_grid_19():
    h = gen_fibonacci(19, 1)
    return outer(h, h)


def harb_8():
    return np.asarray(gen_h_arb(8, cmath.exp(1j * math.pi / 3)).elements)


class TestMaskEncodings:
    def test_split_signs_round_trip(self):
        h = gen_fibonacci(11, 1).elements.real
        m = split_signs(h)
        assert all(np.all(mask >= 0) for mask in m.masks)
        assert np.allclose(recombine(m).real, h)
        # disjoint supports
        assert np.all(m.masks[0] * m.masks[1] == 0)

    def test_pedestal_round_trip(self):
        h = fib_grid_19().real
        m = pedestal_masks(h)
        assert m.pedestal == 1764.0
        assert all(np.all(mask >= 0) for mask in m.masks)
        assert np.allclose(recombine(m).real, h)

    def test_pedestal_custom_offset(self):
        h = [1.0, -2.0, 3.0]
        m = pedestal_masks(h, kappa=10)
        assert m.pedestal == 10.0
        assert np.allclose(recombine(m).real, h)

    def test_pedestal_too_small_rejected(self):
        with pytest.raises(ArgumentError):
            pedestal_masks([1.0, -2.0, 3.0], kappa=2.5)

    def test_min_pedestal(self):
        assert min_pedestal([1.0, -2.0, 3.0]) == 3.0
        assert min_pedestal(fib_grid_19().real) == 1764.0

    def test_split_complex_round_trip(self):
        h = harb_8()
        m = split_complex(h)
        assert len(m.masks) == 4
        assert all(np.all(mask >= 0) for mask in m.masks)
        assert np.allclose(recombine(m), h)

    def test_real_encoders_reject_complex(self):
        with pytest.raises(ArgumentError):
            split_signs([1j, 1])
        with pytest.raises(ArgumentError):
            pedestal_masks([1j, 1])

    def test_min_pedestal_names_itself(self):
        with pytest.raises(ArgumentError, match="^min_pedestal requires"):
            min_pedestal([1j, 2])

    def test_weights_per_kind(self):
        h = np.array([1.0, -2.0, 3.0])
        assert split_signs(h).weights == (1, -1)
        assert pedestal_masks(h).weights == (0.5, -0.5)
        assert split_complex(h).weights == (1, -1, 1j, -1j)

    def test_mask_count_must_match_kind(self):
        a, b = [1.0, 0.0], [0.0, 1.0]
        for masks, kind in (((a, b), "split_complex"),
                            ((a, b, a), "split_sign"),
                            ((), "split_sign"),
                            ((a, b, a, b), "pedestal")):
            with pytest.raises(ArgumentError, match="takes"):
                MaskSet(masks=masks, kind=kind)

    def test_non_finite_mask_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ArgumentError,
                               match="finite and non-negative"):
                MaskSet(masks=([bad, 1.0], [0.0, 0.0]), kind="split_sign")

    def test_mask_set_validation(self):
        with pytest.raises(ArgumentError):
            MaskSet(masks=([1.0, 2.0], [-1.0, 0.0]), kind="split_sign")
        with pytest.raises(ArgumentError):
            MaskSet(masks=([1.0], [1.0, 2.0]), kind="split_sign")
        with pytest.raises(ArgumentError):
            MaskSet(masks=([1.0],), kind="nope")


class TestDose:
    def test_split_vs_pedestal_totals(self):
        grid = fib_grid_19().real
        split_total = dose(split_signs(grid)).total_dose
        ped_total = dose(pedestal_masks(grid)).total_dose
        assert split_total == 51076.0
        assert ped_total == 1273608.0
        ratio = ped_total / split_total
        assert ratio == pytest.approx(24.935547027958336)
        assert 24.5 <= ratio <= 25.5

    def test_per_mask_breakdown(self):
        m = split_signs([2.0, -3.0, 1.0])
        rep = dose(m)
        assert rep.per_mask == (3.0, 3.0)
        assert rep.total_dose == 6.0


class TestBlurAndMeasure:
    def test_blur_matches_oracle_1d(self):
        rng = np.random.default_rng(RNG_SEED)
        obj = rng.random(8)
        h = gen_fibonacci(7, 1).elements.real
        assert np.allclose(blur(obj, h), brute_blur(obj, h))

    def test_blur_matches_oracle_2d(self):
        rng = np.random.default_rng(RNG_SEED)
        obj = rng.random((4, 5))
        h = outer(gen_fibonacci(7, 1), fixtures("h5")).real
        out = blur(obj, h)
        assert out.shape == (4 + 7 - 1, 5 + 5 - 1)
        assert np.allclose(out, brute_blur_2d(obj, h))

    def test_measure_equals_blur_of_recombined(self):
        rng = np.random.default_rng(RNG_SEED)
        obj = rng.random(9)
        h = gen_fibonacci(11, 1).elements.real
        for m in (split_signs(h), pedestal_masks(h),
                  split_complex(h.astype(complex))):
            assert np.allclose(measure(obj, m), blur(obj, recombine(m)))

    @pytest.mark.parametrize("encode",
                             [split_signs, pedestal_masks, split_complex])
    def test_measure_matches_per_mask_exposures(self, encode):
        # sum_j w_j (obj * m_j), each exposure convolved by the oracle.
        rng = np.random.default_rng(RNG_SEED)
        row = harb_8() if encode is split_complex else \
            gen_fibonacci(7, 1).elements.real
        grid = np.outer(row, fixtures("h5").elements.real)
        for obj, h, brute in ((rng.random(9), row, brute_blur),
                              (rng.random((4, 5)), grid, brute_blur_2d)):
            m = encode(h)
            exposures = [np.asarray(brute(obj, mask)) for mask in m.masks]
            want = sum(w * e for w, e in zip(m.weights, exposures))
            scale = max(float(np.abs(e).max()) for e in exposures)
            got = measure(obj, m)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * scale

    def test_measure_is_one_convolution(self, monkeypatch):
        calls = []
        plain_blur = decorrelate.blur

        def counting_blur(obj, h):
            calls.append(np.shape(h))
            return plain_blur(obj, h)

        monkeypatch.setattr(decorrelate, "blur", counting_blur)
        h = harb_8()
        for m in (split_signs(h.real), pedestal_masks(h.real),
                  split_complex(h)):
            calls.clear()
            measure(np.ones(6), m)
            assert calls == [h.shape]

    def test_pedestal_measure_exact_at_large_offset(self):
        # The kappa-sized exposures never cancel in floating point: the
        # measurement is the blur with h itself, bit for bit.
        rng = np.random.default_rng(RNG_SEED)
        h = gen_fibonacci(11, 1).elements.real
        obj = rng.random(9)
        m = pedestal_masks(h, kappa=2.0 ** 40)
        assert np.array_equal(measure(obj, m), blur(obj, h))

    def test_measure_complex_mask(self):
        rng = np.random.default_rng(RNG_SEED)
        obj = rng.random(6)
        h = harb_8()
        m = split_complex(h)
        assert np.allclose(measure(obj, m), blur(obj, h))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            blur(np.ones((3, 3)), [1.0, 2.0])


class TestReconstruct:
    def test_one_d_round_trip_within_end_term_bound(self):
        rng = np.random.default_rng(RNG_SEED)
        for seq in (gen_fibonacci(7, 1), gen_h11(1)):
            h = seq.elements.real
            bound = end_term_bound(h)
            for _ in range(20):
                obj = rng.random(rng.integers(3, 17))
                est = reconstruct(blur(obj, h), h)
                err = recon_error(obj, est.real)
                assert est.shape == obj.shape
                assert err.max_abs_error <= bound * obj.max() + 1e-12

    def test_identity_object(self):
        h = gen_fibonacci(7, 1).elements.real
        obj = np.zeros(5)
        obj[2] = 1.0
        est = reconstruct(blur(obj, h), h).real
        assert est[2] == pytest.approx(1.0)

    def test_two_d_round_trip(self):
        rng = np.random.default_rng(RNG_SEED)
        h = fib_grid_19().real / 1.0
        obj = rng.random((6, 6))
        est = reconstruct(blur(obj, h), h).real
        bound = end_term_bound(h, obj_max=float(obj.max()))
        assert recon_error(obj, est).max_abs_error <= bound + 1e-12

    def test_dual_reconstruction_complex_mask(self):
        rng = np.random.default_rng(RNG_SEED)
        h = harb_8()
        obj = rng.random(10)
        est = reconstruct(blur(obj, h), h, dual=True)
        bound = end_term_bound(h, obj_max=float(obj.max()), dual=True)
        assert recon_error(obj, np.abs(est) * np.sign(est.real)
                           ).max_abs_error <= bound + 1e-12

    def test_non_delta_mask_warns(self):
        h = fixtures("b13").elements.real
        obj = np.ones(4)
        with pytest.warns(UserWarning, match="not delta-correlated"):
            reconstruct(blur(obj, h), h)

    def test_delta_mask_does_not_warn(self):
        h = gen_fibonacci(7, 1).elements.real
        obj = np.ones(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reconstruct(blur(obj, h), h)

    def test_zero_dual_peak_rejected(self):
        # he4 at a quarter turn has dual correlation peak 0, so dual-mode
        # normalization is impossible.
        h = np.asarray(gen_he4(1j).elements)
        with pytest.raises(ArgumentError):
            reconstruct(np.ones(12, dtype=complex), h, dual=True)

    def test_measurement_smaller_than_mask_rejected(self):
        h = gen_fibonacci(7, 1).elements.real
        with pytest.raises(ArgumentError):
            reconstruct(np.ones(5), h)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            reconstruct(np.ones((8, 8)), gen_fibonacci(7, 1).elements.real)


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("grid", [
    [[5]], [[1, 2, -1, 3]], [[1], [2], [-1], [3]], [[1, 2], [3, 4]],
    [[1, 1j, 2], [-1, 3, 1 - 1j], [2j, 0, 1]],
    outer(gen_fibonacci(7, 1), fixtures("h5")).real.tolist(),
], ids=["1x1", "1x4", "4x1", "2x2", "cplx3x3", "fib7xh5"])
def test_residual_matches_offpeak_oracle(grid, dual):
    # Off-peak lags of a 2-D autocorrelation: neither axis at an extreme
    # lag, and not the center; none when an axis has length 1.
    r = brute_autocorr_2d(grid, conjugate=not dual)
    rows, cols = len(r), len(r[0])
    center = (rows // 2, cols // 2)
    offpeak = [abs(r[i][j]) for i in range(1, rows - 1)
               for j in range(1, cols - 1) if (i, j) != center]
    peak, worst = decorrelate.delta_correlation_residual(grid, dual=dual)
    assert peak == pytest.approx(r[center[0]][center[1]], abs=1e-12)
    if offpeak:
        assert worst == pytest.approx(max(offpeak), abs=1e-12)
    else:
        assert worst == 0.0


# One real 1-D object and fib7 mask in each form a caller may pass.
REAL_FORMS = {
    "float": lambda v: np.asarray(v, dtype=float),
    "int": lambda v: np.asarray(v, dtype=np.int64),
    "list": lambda v: [int(x) for x in v],
    "zero_imag": lambda v: np.asarray(v, dtype=complex),
    "Sequence": Sequence,
}


class TestRealGrid:
    """Real operands stay float64 from blur to reconstruct; a complex
    operand makes the result complex128."""

    OBJ = [3, 1, 4, 1, 5, 9, 2, 6]
    MASK = gen_fibonacci(7, 1).elements.real

    @pytest.mark.parametrize("form", sorted(REAL_FORMS))
    def test_real_grid_dtypes(self, form):
        obj, h = REAL_FORMS[form](self.OBJ), REAL_FORMS[form](self.MASK)
        b = blur(obj, h)
        assert b.dtype == np.float64
        assert measure(obj, split_signs(h)).dtype == np.float64
        assert measure(obj, pedestal_masks(h)).dtype == np.float64
        assert reconstruct(REAL_FORMS[form](b), h).dtype == np.float64
        assert reconstruct(b, h, dual=True).dtype == np.float64

    def test_real_grid_complex_operands_stay_complex(self):
        obj, h = np.asarray(self.OBJ, dtype=float), harb_8()
        b = blur(obj, h)
        assert b.dtype == np.complex128
        assert measure(obj, split_complex(h)).dtype == np.complex128
        assert reconstruct(b, h, dual=True).dtype == np.complex128
        assert blur(obj + 1j, self.MASK).dtype == np.complex128

    @pytest.mark.parametrize("obj,h", [
        (np.random.default_rng(RNG_SEED).random(9), MASK),
        (np.arange(40.0), gen_fibonacci(23, 1).elements.real),
        (np.random.default_rng(RNG_SEED).random((40, 30)),
         fib_grid_19().real),
        (np.random.default_rng(RNG_SEED).integers(0, 255, (40, 30)),
         fib_grid_19().real),
    ], ids=["1d-direct", "1d-int", "2d-rfft", "2d-int"])
    def test_real_grid_matches_engine_bit_for_bit(self, obj, h):
        b = blur(obj, h)
        assert np.array_equal(b, convolve(obj, h).real)
        crop = tuple(slice(k - 1, n) for n, k in zip(b.shape, np.shape(h)))
        peak = correlate(h)[tuple(n - 1 for n in np.shape(h))].real
        assert np.array_equal(reconstruct(b, h),
                              correlate(h, b)[crop].real / peak)

    def test_real_grid_integer_round_trip_is_exact(self):
        # One correctly rounded division: integer objects shorter than the
        # fib11 mask, which meet no end term, come back exactly.
        h = gen_fibonacci(11, 1).elements.real
        obj = np.random.default_rng(RNG_SEED).integers(-50, 50, 10)
        assert recon_error(obj, reconstruct(blur(obj, h), h)) == \
            recon_error(obj, obj)

    def test_real_grid_memory_peak(self):
        # A real 512^2 round trip peaks below 5 object sizes of float64
        # images; one that widens each image to complex128 peaks at 8.
        obj = np.random.default_rng(RNG_SEED).random((512, 512))
        h = fib_grid_19().real
        recon_error(obj, reconstruct(blur(obj, h), h))   # warm caches
        tracemalloc.start()
        try:
            recon_error(obj, reconstruct(blur(obj, h), h))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * obj.nbytes


class TestNonFinitePeak:
    H = np.array([1e200, 1e200, -1e200])

    def test_reconstruct_raises_domain_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                reconstruct(blur(np.ones(4), self.H), self.H)

    def test_end_term_bound_raises_domain_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                end_term_bound(self.H)

    @pytest.mark.parametrize("dual", [False, True])
    def test_delta_correlation_residual_raises_domain_error(self, dual):
        # The peak reconstruct rejects, not an answer of inf and NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                decorrelate.delta_correlation_residual(
                    np.full((3, 3), 1e200), dual=dual)


class TestEndTermBound:
    def test_one_d_values(self):
        assert end_term_bound(gen_fibonacci(7, 1).elements.real) == \
            pytest.approx(2 / 18)
        assert end_term_bound(gen_h11(1).elements.real) == \
            pytest.approx(2 / 123)

    def test_two_d_value(self):
        grid = outer(gen_fibonacci(7, 1), gen_fibonacci(7, 1)).real
        assert end_term_bound(grid) == pytest.approx(76 / 324)

    def test_scales_with_object_max(self):
        h = gen_fibonacci(7, 1).elements.real
        assert end_term_bound(h, obj_max=3.0) == \
            pytest.approx(3 * end_term_bound(h))

    @pytest.mark.parametrize("obj_max", [math.nan, math.inf, -2.0])
    def test_obj_max_must_be_finite_and_non_negative(self, obj_max):
        # NaN, inf or a negative obj_max makes no bound.
        with pytest.raises(ArgumentError, match="obj_max"):
            end_term_bound(gen_fibonacci(7, 1).elements.real, obj_max=obj_max)

    def test_dual_value(self):
        h = harb_8()
        assert end_term_bound(h, dual=True) == \
            pytest.approx(2 / math.sqrt(3), abs=1e-9)


class TestReconError:
    def test_fields(self):
        err = recon_error([1.0, 2.0], [1.0, 2.5])
        assert err.max_abs_error == pytest.approx(0.5)
        assert err.rel_l2_error == pytest.approx(0.5 / math.sqrt(5))

    def test_shape_mismatch(self):
        with pytest.raises(ArgumentError):
            recon_error([1.0, 2.0], [1.0, 2.0, 3.0])
