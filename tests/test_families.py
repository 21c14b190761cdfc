"""Generators and the fixture store, validated against independent
brute-force correlation oracles."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huffseq import (
    FAMILY_INFO,
    ArgumentError,
    DomainError,
    family_ids,
    fixture_description,
    fixture_names,
    fixtures,
    gen_fibonacci,
    gen_h11,
    gen_h13a,
    gen_h13b,
    gen_h17,
    gen_h17_matched,
    gen_h9a,
    gen_h9b,
    gen_h_arb,
    gen_h_plus,
    gen_h_tan,
    gen_he4,
    gen_he6,
    gen_perfect_arb,
    fib_poly,
    gen_perfect_fib,
    generate,
    is_canonical,
    kron,
    offset,
    quantize_round,
)

from _oracles import (
    brute_autocorr,
    brute_energy,
    brute_h_arb,
    brute_h_tan,
    brute_is_canonical,
    brute_is_perfect,
    brute_perfect_arb,
)

PHI = (1 + math.sqrt(5)) / 2


def elements(seq):
    return [complex(v) for v in seq.elements]


def reals(seq):
    return [v.real for v in seq.elements]


class TestPrintedVectors:
    """Constructions whose output is pinned to an exactly known vector."""

    def test_fibonacci_7(self):
        assert reals(gen_fibonacci(7, 1)) == [1, 2, 2, 0, -2, 2, -1]

    def test_fibonacci_11(self):
        assert reals(gen_fibonacci(11, 1)) == \
            [1, 2, 2, 4, 6, -1, -6, 4, -2, 2, -1]

    def test_h11_unit_scale(self):
        assert reals(gen_h11(1)) == [1, 1, 3, 4, 2, 6, -7, -1, 2, 1, -1]

    def test_h_plus_9(self):
        assert reals(gen_h_plus(9, 1)) == [1, 2, 2, 4, -1, -4, 2, -2, 1]

    def test_h_tan_7_scale_3(self):
        expected = [3, 8, 24, -80 / 9, 8 / 27, 8 / 9, -1 / 3]
        assert reals(gen_h_tan(7, 3)) == pytest.approx(expected, abs=1e-9)

    def test_h_arb_4_scale_4(self):
        assert reals(gen_h_arb(4, 4)) == \
            pytest.approx([1 / 3, 1 / 2, -1 / 4, 1 / 6], abs=1e-15)

    def test_he4_unit_scale_is_golden_ratio(self):
        assert reals(gen_he4(1)) == pytest.approx([1, 1, PHI, -PHI],
                                                  abs=1e-12)

    def test_he6_unit_scale_is_golden_powers(self):
        expected = [1, 1, PHI, PHI ** 2, PHI ** 3, -PHI ** 3]
        assert reals(gen_he6(1)) == pytest.approx(expected, abs=1e-9)

    def test_h13b_unit_scale_dyadic_fractions(self):
        expected = [1, 1, 1 / 2, 11 / 16, 9 / 16, -55 / 64, -463 / 512,
                    55 / 64, 9 / 16, -11 / 16, 1 / 2, -1, 1]
        assert reals(gen_h13b(1)) == pytest.approx(expected, abs=1e-12)

    def test_perfect_fib_11(self):
        assert reals(gen_perfect_fib(11, 1)) == \
            [-1, -6, 4, -2, 2, 0, 2, 2, 4, 6]

    def test_h17_matched_rounds_to_low_range_integers(self):
        rounded = quantize_round(gen_h17_matched())
        assert list(rounded) == \
            [1, 2, 2, 1, -1, -1, 0, 1, 0, -1, 0, 1, -1, -1, 2, -2, 1]

    def test_h17_three_quarters_offset_rounds_to_ternary(self):
        shifted = offset(gen_h17(0.75), 1 / 3)
        assert list(quantize_round(shifted)) == \
            [1, 1, 1, 0, -1, 0, 0, 0, 1, -1, 0, 1, -1, 0, 0, 1, -1]


class TestCanonicalSweeps:
    """Every interior autocorrelation lag must vanish (brute-force check,
    residual relative to the sequence energy)."""

    @pytest.mark.parametrize("N", [7, 11, 15, 19])
    @pytest.mark.parametrize("s", [1, 2, 3, -1, 0.5])
    def test_fibonacci(self, N, s):
        assert brute_is_canonical(elements(gen_fibonacci(N, s)))

    @pytest.mark.parametrize("maker", [gen_h9a, gen_h9b, gen_h13a, gen_h13b,
                                       gen_h11, gen_he4])
    @pytest.mark.parametrize("s", [1, 2, 3, 0.5, -2])
    def test_fixed_length_families(self, maker, s):
        assert brute_is_canonical(elements(maker(s)))

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.75, 1.0, 1.25])
    def test_h17(self, s):
        assert brute_is_canonical(elements(gen_h17(s)))

    @pytest.mark.parametrize("s", [0.5, 1, 1.5, 2, -1 / math.sqrt(2), -3])
    def test_he6(self, s):
        assert brute_is_canonical(elements(gen_he6(s)))

    def test_h17_matched(self):
        seq = gen_h17_matched()
        assert brute_is_canonical(elements(seq))
        peak = brute_autocorr(elements(seq))[len(seq) - 1]
        assert abs(peak) == pytest.approx(22.2868247165503, abs=1e-9)

    @pytest.mark.parametrize("N", range(3, 13))
    @pytest.mark.parametrize("s", [0.25, 0.5, 2, 3, 4])
    def test_h_arb_all_lengths(self, N, s):
        assert brute_is_canonical(elements(gen_h_arb(N, s)))

    @pytest.mark.parametrize("N", [5, 7, 9, 13])
    @pytest.mark.parametrize("s", [2, 3, 0.5, -2, -0.5])
    def test_h_tan(self, N, s):
        assert brute_is_canonical(elements(gen_h_tan(N, s)))

    def test_h_arb_near_unit_scale(self):
        seq = elements(gen_h_arb(9, 1 + 1e-6))
        assert brute_is_canonical(seq)
        assert all(abs(abs(v) - 1) < 1e-5 for v in seq[1:-1])
        assert abs(seq[0]) > 1e5

    @pytest.mark.parametrize("N,s", [(5, 1), (9, 1), (13, 1), (5, 2),
                                     (9, 3), (13, 2), (17, 1)])
    def test_h_plus_five_term_autocorrelation(self, N, s):
        f = elements(gen_h_plus(N, s))
        r = brute_autocorr(f)
        nonzero = [(i - (N - 1), v) for i, v in enumerate(r)
                   if abs(v) > 1e-9]
        assert len(nonzero) == 5
        lags = [lag for lag, _ in nonzero]
        assert lags == [-(N - 1), -(N - 1) // 2, 0, (N - 1) // 2, N - 1]
        peak = brute_energy(f)
        side = -2 * math.sqrt(peak - 2)
        assert nonzero[0][1] == pytest.approx(1)
        assert nonzero[4][1] == pytest.approx(1)
        assert nonzero[1][1].real == pytest.approx(side, rel=1e-9)
        assert nonzero[3][1].real == pytest.approx(side, rel=1e-9)


class TestPerfectArrays:
    @pytest.mark.parametrize("N,s", [(7, 1), (7, 2), (11, 1), (11, 3),
                                     (15, 2), (15, 1), (19, 2)])
    def test_cyclic_family(self, N, s):
        seq = elements(gen_perfect_fib(N, s))
        assert len(seq) == N - 1
        assert brute_is_perfect(seq)

    @pytest.mark.parametrize("N,s", [(6, 2), (9, 3), (12, 1.5), (5, 2),
                                     (8, 4), (4, 4), (10, 0.5)])
    def test_arbitrary_length_family(self, N, s):
        assert brute_is_perfect(elements(gen_perfect_arb(N, s)))

    def test_leading_zero_variant_is_not_perfect(self):
        # The halved length-10 example is sometimes quoted with the cyclic
        # frame shifted so a zero leads; that ordering breaks perfectness,
        # while the generator's ordering keeps it.
        shifted = [0, -6, 4, -2, 2, 0, 2, 2, 4, 6]
        assert not brute_is_perfect(shifted)
        half = [v / 2 for v in reals(gen_perfect_fib(11, 1))]
        assert brute_is_perfect(half)


def _long_scales(N):
    """Scales of the four kinds, with |log|s|| * N/2 <= 2 so that every
    element stays within e^2 of 1 at length N."""
    m = math.exp(min(0.25, 4 / N))
    return {"real+": m, "real-": -1 / m, "unit": cmath.exp(0.9j),
            "complex": m * cmath.exp(-2.1j)}


_ORACLES = {"harb": brute_h_arb, "htan": brute_h_tan,
            "perfect_arb": brute_perfect_arb}

# Lengths on both sides of the largest exponent |k| = 100, where CPython's
# complex ** int switches from repeated multiplication to the polar form
# (harb: |k| <= N-2; htan: |k| <= (N-1)/2), and the longest verify length.
_LONG_CASES = ([("harb", N) for N in (5, 101, 102, 103, 16383)]
               + [("perfect_arb", N) for N in (5, 101, 103, 16383)]
               + [("htan", N) for N in (5, 199, 201, 203, 205, 16383)])


def _periodic_offpeak(a, dual):
    """Largest |cyclic correlation| at a non-zero shift, by FFT."""
    spec = np.fft.fft(a)
    other = np.fft.fft(np.roll(a[::-1], 1)) if dual else np.conj(spec)
    return float(np.abs(np.fft.ifft(spec * other)[1:]).max())


class TestLongFamilies:
    """harb, htan and perfect_arb build their interiors as numpy arrays;
    every element must agree with the element-by-element formulas of the
    oracles, every output must pass its defining check, and a length and
    scale whose elements leave the float range raise DomainError."""

    @pytest.mark.parametrize("kind", ["real+", "real-", "unit", "complex"])
    @pytest.mark.parametrize("family,N", _LONG_CASES)
    def test_elements_match_oracle(self, family, N, kind):
        s = _long_scales(N)[kind]
        got = generate(family, n=N, s=s).elements.tolist()
        ref = _ORACLES[family](N, s)
        assert len(got) == len(ref)
        worst = max(abs(g - r) / abs(r) for g, r in zip(got, ref))
        assert worst <= 1e-12

    @pytest.mark.parametrize("kind", ["real+", "real-", "unit", "complex"])
    @pytest.mark.parametrize("family,N", _LONG_CASES)
    def test_defining_check(self, family, N, kind):
        a = generate(family, n=N, s=_long_scales(N)[kind]).elements
        dual = bool(np.any(a.imag != 0))
        if family == "perfect_arb":
            energy = float(np.sum(np.abs(a) ** 2))
            assert _periodic_offpeak(a, dual) <= 1e-9 * energy
        else:
            assert is_canonical(a, dual=dual)

    @pytest.mark.parametrize("maker,N,s", [
        # A power overflows.
        (gen_h_arb, 2048, 0.01), (gen_perfect_arb, 2048, 0.01),
        (gen_h_tan, 4001, 2.0), (gen_h_tan, 16383, 2),
        (gen_h_tan, 101, 1e-12), (gen_h_tan, 301, 1e-3 + 1e-3j),
        (gen_h_arb, 101, 1e-12 + 1e-12j),
        # The powers fit, but the end term t^(3-N)/(s-1) overflows.
        (gen_h_arb, 13475, 0.9), (gen_perfect_arb, 13475, 0.9),
        # s^5 fits, but the run element (s^2-1) s^4 overflows.
        (gen_h_tan, 13, 1e55),
        # sqrt(10)^-2046 is about 1e-1023: the tail, end term included,
        # would be zeros.
        (gen_h_arb, 2048, 10), (gen_perfect_arb, 2048, 10)])
    def test_out_of_range_is_domain_error(self, maker, N, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="float range"):
                maker(N, s)

    @pytest.mark.parametrize("s", [1.2, 0.8, -1.2, 1.2 * cmath.exp(0.3j)])
    def test_htan_at_the_range_limit(self, s):
        # Lengths across the largest admitted one: a finite output or
        # DomainError, never a raw OverflowError from the middle s^-h - s^h.
        limit = int(math.log(np.finfo(float).max) / abs(math.log(abs(s))))
        outcomes = set()
        for half in range(limit - 10, limit + 3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    seq = gen_h_tan(2 * half + 3, s)
                except DomainError:
                    outcomes.add("rejected")
                    continue
            assert np.isfinite(seq.elements).all()
            outcomes.add("finite")
        assert outcomes == {"finite", "rejected"}


class TestComplexScales:
    @pytest.mark.parametrize("maker", [gen_h9a, gen_h13a, gen_h11])
    @pytest.mark.parametrize("s", [2j, -2j])
    def test_gaussian_integer_elements(self, maker, s):
        for v in elements(maker(s)):
            assert abs(v.real - round(v.real)) < 1e-9
            assert abs(v.imag - round(v.imag)) < 1e-9

    @pytest.mark.parametrize("maker", [gen_h9a, gen_h13a, gen_h11])
    @pytest.mark.parametrize("s", [2j, -2j])
    def test_dual_delta_correlation(self, maker, s):
        assert brute_is_canonical(elements(maker(s)), dual=True)

    def test_he4_quarter_turn_unit_modulus(self):
        seq = elements(gen_he4(1j))
        assert all(abs(abs(v) - 1) < 1e-12 for v in seq)
        assert brute_is_canonical(seq, dual=True)

    @pytest.mark.parametrize("N", [5, 8, 13])
    def test_h_arb_sixth_root_unit_modulus(self, N):
        seq = elements(gen_h_arb(N, cmath.exp(1j * math.pi / 3)))
        assert all(abs(abs(v) - 1) < 1e-12 for v in seq)
        assert brute_is_canonical(seq, dual=True)

    def test_h_tan_13_twelfth_root_unit_modulus(self):
        seq = elements(gen_h_tan(13, cmath.exp(1j * math.pi / 6)))
        assert all(abs(abs(v) - 1) < 1e-12 for v in seq)
        assert brute_is_canonical(seq, dual=True)

    def test_h_tan_7_twelfth_root_not_fully_unimodular(self):
        # The all-unit-modulus property is length-dependent; at length 7 the
        # middle element has magnitude sqrt(3).
        seq = elements(gen_h_tan(7, cmath.exp(1j * math.pi / 6)))
        assert max(abs(v) for v in seq) == pytest.approx(math.sqrt(3))


class TestTwinProducts:
    """Elementwise products of a sequence with its negated-scale twin."""

    @pytest.mark.parametrize("s", [2, 4, 6])
    def test_h9a_even_scales_integer(self, s):
        prod = [a * b for a, b in zip(elements(gen_h9a(s)),
                                      elements(gen_h9a(-s)))]
        for v in prod:
            assert abs(v.real - round(v.real)) < 1e-9 * max(1, abs(v))
            assert abs(v.imag) < 1e-9 * max(1, abs(v))

    def test_h9a_odd_scale_quarter_fractions(self):
        prod = [a * b for a, b in zip(elements(gen_h9a(1)),
                                      elements(gen_h9a(-1)))]
        assert prod[3].real == pytest.approx(1.25)

    @pytest.mark.parametrize("maker", [gen_h13a, gen_h11])
    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_integer_for_all_integer_scales(self, maker, s):
        prod = [a * b for a, b in zip(elements(maker(s)),
                                      elements(maker(-s)))]
        for v in prod:
            assert abs(v.real - round(v.real)) < 1e-9 * max(1, abs(v))

    def test_h11_twin_of_fibonacci_same_autocorrelation(self):
        a = brute_autocorr(elements(gen_h11(1)))
        b = brute_autocorr(elements(gen_fibonacci(11, 1)))
        assert all(abs(x - y) < 1e-9 for x, y in zip(a, b))

    @pytest.mark.parametrize("s", [4, 11])
    def test_h11_integer_scales(self, s):
        for v in reals(gen_h11(s)):
            assert v == round(v)


class TestMagnitudeBridges:
    """The even-length nested-radical families share their magnitude
    profiles with the arbitrary-length family at reciprocal-square scale:
    |he(s=-1/sqrt(2))| equals |h_arb(N, 1/s^2 = 2)| elementwise (the naive
    same-scale comparison does not match)."""

    def test_he4_matches_h_arb_4_at_scale_2(self):
        s = -1 / math.sqrt(2)
        left = [abs(v) for v in elements(gen_he4(s))]
        right = [abs(v) for v in elements(gen_h_arb(4, 2))]
        assert left == pytest.approx(right, abs=1e-12)

    def test_he6_matches_h_arb_6_at_scale_2(self):
        s = -1 / math.sqrt(2)
        left = [abs(v) for v in elements(gen_he6(s))]
        right = [abs(v) for v in elements(gen_h_arb(6, 2))]
        assert left == pytest.approx(right, abs=1e-9)

    def test_same_scale_comparison_differs(self):
        s = -1 / math.sqrt(2)
        left = [abs(v) for v in elements(gen_he6(s))]
        right = [abs(v) for v in elements(gen_h_arb(6, s))]
        assert max(abs(a - b) for a, b in zip(left, right)) > 0.5


def _fib_layout(N, s, sign):
    """The Fibonacci layouts spelled out with one fib_poly call per entry:
    head 2sF_1 .. 2sF_M, centre sF_{M+1} - 2F_M, mirror sign*2sF_{-k}."""
    M = (N - 3) // 2
    head = [2 * s * fib_poly(k, s) for k in range(1, M + 1)]
    centre = s * fib_poly(M + 1, s) - 2 * fib_poly(M, s)
    mirror = [sign * 2 * s * fib_poly(-k, s) for k in range(M, 0, -1)]
    return head, centre, mirror


def _assert_fibonacci_checks(seq):
    """The defining check of a Fibonacci family's output, against an
    independent numpy correlation: canonical (fib), perfect (perfect_fib),
    or five non-zero lags 0, +-(N-1)/2, +-(N-1) (hplus); conjugate-free
    for a complex scale."""
    a = seq.elements
    assert np.isfinite(a).all()
    dual = seq.scale.imag != 0
    energy = float(np.sum(np.abs(a) ** 2))
    if seq.family == "perfect_fib":
        assert _periodic_offpeak(a, dual) <= 1e-9 * energy
        return
    r = np.abs(np.convolve(a, a[::-1] if dual else a[::-1].conj()))
    n = a.size
    keep = [0, n - 1, 2 * n - 2]
    if seq.family == "hplus":
        keep += [(n - 1) // 2, 3 * (n - 1) // 2]
    r[keep] = 0
    assert r.max() <= 1e-9 * energy


class TestFibonacciTable:
    """The Fibonacci families take F_0 .. F_{M+1} from one recurrence pass;
    their elements stay bit for bit those of one fib_poly call each."""

    @pytest.mark.parametrize("s", [1, -3, 2, 1.3, -0.7, 1e-3, 1.5 - 0.5j,
                                   2j, complex(0.3, 1.1)])
    @pytest.mark.parametrize("N", [7, 11, 31, 127, 1003])
    def test_same_elements_as_fib_poly(self, N, s):
        head, centre, mirror = _fib_layout(N, s, 1)
        want = np.array([1, *head, centre, *mirror, -1], dtype=np.complex128)
        assert gen_fibonacci(N, s).elements.tobytes() == want.tobytes()
        want = np.array([centre, *mirror, 2 * s * fib_poly(0, s), *head],
                        dtype=np.complex128)
        assert gen_perfect_fib(N, s).elements.tobytes() == want.tobytes()
        head, centre, mirror = _fib_layout(N - 2, s, -1)
        want = np.array([1, *head, centre, *mirror, 1], dtype=np.complex128)
        assert gen_h_plus(N - 2, s).elements.tobytes() == want.tobytes()

    @pytest.mark.parametrize("maker,N", [
        (gen_fibonacci, 131), (gen_fibonacci, 1003), (gen_perfect_fib, 131),
        (gen_h_plus, 133), (gen_h_plus, 1001)])
    def test_past_the_old_index_limit(self, maker, N):
        # The lengths an index cap of 64 refused, at the scale it refused
        # them at, now generate and pass their defining checks.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_fibonacci_checks(maker(N, 1))

    def test_last_lengths_inside_the_limit(self):
        for maker, N in ((gen_fibonacci, 127), (gen_perfect_fib, 127),
                         (gen_h_plus, 129)):
            assert np.all(np.isfinite(maker(N, 1.01).elements))

    @pytest.mark.parametrize("maker,N,s", [
        (gen_fibonacci, 1003, 0.1), (gen_fibonacci, 1003, 0.5),
        (gen_fibonacci, 1003, 1), (gen_fibonacci, 1003, 0.3 + 0.2j),
        (gen_fibonacci, 4095, 0.1), (gen_fibonacci, 16383, 0.02),
        (gen_perfect_fib, 1003, 0.5), (gen_perfect_fib, 4095, 0.1),
        (gen_perfect_fib, 1003, 0.3 + 0.2j),
        (gen_h_plus, 1001, 1.0), (gen_h_plus, 4093, 0.1),
        (gen_h_plus, 1001, 0.3 + 0.2j)])
    def test_long_lengths_pass_their_checks(self, maker, N, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_fibonacci_checks(maker(N, s))

    @pytest.mark.parametrize("maker,s,last", [
        (gen_fibonacci, 1, 2951), (gen_fibonacci, 3, 1187),
        (gen_fibonacci, -3, 1187), (gen_perfect_fib, 1, 2951),
        (gen_perfect_fib, 3, 1187), (gen_h_plus, 1, 2953),
        (gen_h_plus, 3, 1189)])
    def test_integer_scale_range_edge(self, maker, s, last):
        # An integer scale recurs in exact ints: the last length whose
        # largest element rounds into float64 generates, and the next one
        # is refused.  At s = 1 that largest element is within a factor
        # phi^2 = 2.6 of the float range on both sides of the edge.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            top = np.abs(maker(last, s).elements).max()
            assert np.isfinite(top) and top > 1e306
            with pytest.raises(DomainError, match="float range"):
                maker(last + 4, s)


class TestFibonacciSweep:
    """fib, hplus and perfect_fib at every length up to about 2047 and
    scales log-uniform over 1e-12..1e12: a finite output or a typed error,
    never another exception or a numpy warning."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["fib", "hplus", "perfect_fib"]),
           st.integers(1, 31) | st.integers(32, 511),
           st.sampled_from(["int", "float", "complex"]),
           st.floats(-12, 12), st.floats(-math.pi, math.pi))
    def test_finite_or_typed_error(self, family, n, kind, exponent, angle):
        N = 4 * n + (1 if family == "hplus" else 3)
        magnitude = 10.0 ** exponent
        s = {"int": round(magnitude) * (1 if angle >= 0 else -1),
             "float": math.copysign(magnitude, angle),
             "complex": cmath.rect(magnitude, angle)}[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                seq = generate(family, n=N, s=s)
            except (ArgumentError, DomainError):
                return
        assert np.isfinite(seq.elements).all()


class TestArgumentValidation:
    def test_fibonacci_length_must_be_4k_plus_3(self):
        for bad in (5, 6, 9, 3):
            with pytest.raises(ArgumentError):
                gen_fibonacci(bad, 1)

    def test_h_plus_length_must_be_4k_plus_1(self):
        for bad in (3, 7, 11):
            with pytest.raises(ArgumentError):
                gen_h_plus(bad, 1)

    def test_zero_scale_rejected(self):
        for maker in (gen_h9a, gen_h9b, gen_h13a, gen_h11, gen_he4,
                      gen_he6):
            with pytest.raises(ArgumentError):
                maker(0)

    def test_h13b_accepts_any_finite_scale(self):
        # Purely polynomial in s, so s = 0 is admissible; it degenerates to
        # the trivially canonical [1, 0, ..., 0, 1].
        seq = reals(gen_h13b(0))
        assert seq == [1] + [0] * 11 + [1]
        assert brute_is_canonical(seq)

    def test_h_arb_excluded_scales(self):
        for bad in (0, 1, 1 + 0j):
            with pytest.raises(ArgumentError):
                gen_h_arb(5, bad)

    def test_h_tan_excluded_scales_and_lengths(self):
        for bad in (0, 1, -1, np.float64(-1)):
            with pytest.raises(ArgumentError):
                gen_h_tan(7, bad)
        with pytest.raises(ArgumentError):
            gen_h_tan(6, 2)

    def test_h17_requires_real_scale(self):
        with pytest.raises(ArgumentError):
            gen_h17(1 + 1j)

    def test_non_numeric_scale_rejected(self):
        with pytest.raises(ArgumentError):
            gen_h11("two")
        with pytest.raises(ArgumentError):
            gen_h11(True)

    def test_missing_scale_reported(self):
        with pytest.raises(ArgumentError):
            gen_h11(None)

    @pytest.mark.parametrize("N,s", [(131, 10 ** 12), (1003, 10 ** 6),
                                     (100003, 10 ** 6), (100003, -2)])
    def test_fibonacci_int_scale_out_of_range_is_domain_error(self, N, s):
        # Refused before the recurrence builds ints of up to ~300000 digits.
        with pytest.raises(DomainError, match="float range"):
            gen_fibonacci(N, s)

    @pytest.mark.parametrize("s", [-302630, -884809, -24095293.739279464])
    def test_he6_vanishing_u_is_domain_error(self, s):
        # u = (3s + s^3 + W)/2 cancels to 0 here, and c divides by it.
        with pytest.raises(DomainError, match="u\\(s\\) vanishes"):
            gen_he6(s)

    def test_perfect_arb_minimum_length(self):
        with pytest.raises(ArgumentError):
            gen_perfect_arb(3, 2)

    def test_fibonacci_forms_reject_zero_scale(self):
        for maker, N in ((gen_fibonacci, 7), (gen_h_plus, 9),
                         (gen_perfect_fib, 7)):
            with pytest.raises(ArgumentError):
                maker(N, 0)

    @pytest.mark.parametrize("n,s,plain_n,plain_s", [
        (np.int64(11), 2, 11, 2),
        (np.uint8(11), np.int64(-3), 11, -3),
        (11, np.float32(0.7), 11, float(np.float32(0.7))),
        (11, np.longdouble(0.7), 11, float(np.longdouble(0.7))),
        (11, np.complex128(0.7 + 0.2j), 11, 0.7 + 0.2j)],
        ids=["N_int64", "N_uint8-s_int64", "s_float32", "s_longdouble",
             "s_complex128"])
    def test_numpy_scalars_read_as_python_numbers(self, n, s, plain_n,
                                                  plain_s):
        # A numpy N or s is its Python value, bit for bit, in the exact
        # Python-number recurrence (fib) and in numpy powers (harb); an
        # np.float64 tol is a float.
        for family in ("fib", "harb"):
            got, want = generate(family, n, s), generate(family, plain_n,
                                                         plain_s)
            assert got.elements.tobytes() == want.elements.tobytes()
            assert got.scale == want.scale
        rep = is_canonical(got, tol=np.float64(1e-6))
        assert rep == is_canonical(want, tol=1e-6)
        assert type(rep.tolerance) is float

    @pytest.mark.parametrize(
        "family", [f for f in family_ids() if FAMILY_INFO[f][2]])
    @pytest.mark.parametrize("s", [
        math.inf, -math.inf, math.nan, complex(1, math.inf),
        complex(math.nan, 0), np.float64(math.inf)],
        ids=["inf", "-inf", "nan", "1+inf_j", "nan+0j", "np_inf"])
    def test_non_finite_scale_rejected(self, family, s):
        n = {"fib": 7, "hplus": 9, "perfect_fib": 7, "harb": 5, "htan": 7,
             "perfect_arb": 5}.get(family)
        with pytest.raises(ArgumentError, match="finite"):
            generate(family, n=n, s=s)

    @pytest.mark.parametrize("family,n,s", [
        ("fib", 7, 1e300), ("hplus", 9, 1e300), ("perfect_fib", 7, 1e300),
        ("h13b", None, 1e200), ("h9b", None, 1e200)])
    def test_non_finite_output_is_domain_error(self, family, n, s):
        with pytest.raises(DomainError, match="not finite"):
            generate(family, n=n, s=s)

    @pytest.mark.parametrize("family", ["h9a", "h13a", "h11", "h17", "he6"])
    def test_float_power_overflow_is_domain_error(self, family):
        # Float s ** k raises OverflowError in these generators; generate
        # reports it as the domain error the other families give.
        with pytest.raises(DomainError, match="overflows at this N and s"):
            generate(family, s=1e200)

    def test_int_scale_beyond_float_range_rejected(self):
        with pytest.raises(ArgumentError, match="finite"):
            gen_fibonacci(7, 10 ** 400)


class TestFixtureStore:
    def test_registry_contents(self):
        names = set(fixture_names())
        assert {"h5", "quasi9", "b13", "b13var", "ternary_barker17",
                "quasi6", "quasi8a", "quasi8b", "h86", "complex7_i",
                "complex7_unimodular"} <= names

    def test_descriptions_present(self):
        for name in fixture_names():
            assert fixture_description(name)

    def test_unknown_name_rejected(self):
        with pytest.raises(ArgumentError):
            fixtures("nope")

    def test_b13_is_classic_barker(self):
        assert reals(fixtures("b13")) == \
            [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1]

    def test_b13var_pinned_vector(self):
        assert reals(fixtures("b13var")) == \
            [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, -1, 1, -2]

    def test_quasi9_off_peak_at_most_one(self):
        f = elements(fixtures("quasi9"))
        r = brute_autocorr(f)
        off = [abs(v) for i, v in enumerate(r) if i != len(f) - 1]
        assert max(off) <= 1 + 1e-12

    def test_even_length_quasi_peaks(self):
        for name, peak in (("quasi6", 12), ("quasi8a", 49),
                           ("quasi8b", 113)):
            f = elements(fixtures(name))
            assert brute_energy(f) == pytest.approx(peak)

    def test_h86_is_86_small_integers(self):
        f = reals(fixtures("h86"))
        assert len(f) == 86
        assert all(v == round(v) for v in f)
        assert max(abs(v) for v in f) <= 6

    def test_kron_of_h5_and_fibonacci_7(self):
        composite = kron(fixtures("h5"), gen_fibonacci(7, 1))
        expected = [1, 2, 2, 0, -2, 2, -1,
                    2, 4, 4, 0, -4, 4, -2,
                    2, 4, 4, 0, -4, 4, -2,
                    -2, -4, -4, 0, 4, -4, 2,
                    1, 2, 2, 0, -2, 2, -1]
        assert list(composite.real) == expected

    def test_complex7_half_ends(self):
        f = elements(fixtures("complex7_i"))
        assert abs(f[0]) == pytest.approx(0.5)
        assert abs(f[-1]) == pytest.approx(0.5)
        assert all(abs(abs(v) - 1) < 1e-12 for v in f[1:-1])
        assert brute_is_canonical(f, dual=True)

    def test_complex7_unimodular(self):
        f = elements(fixtures("complex7_unimodular"))
        assert all(abs(abs(v) - 1) < 1e-12 for v in f)
        assert brute_is_canonical(f, dual=True)


class TestDispatcher:
    def test_family_listing_covers_generators(self):
        ids = set(family_ids())
        assert {"fib", "hplus", "perfect_fib", "h9a", "h9b", "h13a",
                "h13b", "h17", "h17l", "h11", "he4", "he6", "harb",
                "htan", "perfect_arb"} <= ids

    def test_dispatch_matches_direct_call(self):
        via = generate("fib", n=7, s=1)
        direct = gen_fibonacci(7, 1)
        assert np.allclose(via.elements, direct.elements)

    def test_fixed_length_family_rejects_wrong_n(self):
        with pytest.raises(ArgumentError):
            generate("h11", n=12, s=1)

    def test_scale_free_family_rejects_scale(self):
        with pytest.raises(ArgumentError):
            generate("h17l", s=2)

    def test_unknown_family_rejected(self):
        with pytest.raises(ArgumentError):
            generate("warbler")

    def test_fixture_dispatch(self):
        seq = generate("b13")
        assert reals(seq) == reals(fixtures("b13"))

    def test_fixture_dispatch_checks_like_a_family(self):
        assert reals(generate("b13", n=13)) == reals(fixtures("b13"))
        with pytest.raises(ArgumentError, match="fixed length 13"):
            generate("b13", n=12)
        with pytest.raises(ArgumentError, match="fixture 'b13' takes no"):
            generate("b13", n=13, s=1)
