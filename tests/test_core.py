"""Primitive layer: Fibonacci polynomials, Sequence container, composition,
DFT, rounding, and JSON interchange."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from huffseq import (
    ArgumentError,
    MaskSet,
    Sequence,
    approx_equal,
    as_array,
    autocorr,
    blur,
    convolve,
    correlate,
    dft,
    dual_cross_spectrum,
    end_term_bound,
    fib_poly,
    from_json_obj,
    generate,
    is_canonical,
    is_perfect,
    kron,
    merit_factor,
    offset,
    outer,
    pedestal_masks,
    quantize_round,
    recon_error,
    reconstruct,
    scale,
    split_signs,
    to_json_obj,
)
from huffseq.core import _DFT_MAX

from _oracles import brute_dft


class TestFibPoly:
    def test_base_cases(self):
        assert fib_poly(0, 7) == 0
        assert fib_poly(1, 7) == 1
        assert fib_poly(2, 7) == 7

    def test_integer_fibonacci_at_one(self):
        values = [fib_poly(n, 1) for n in range(1, 11)]
        assert values == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_recurrence_holds_for_polynomial_argument(self):
        s = 3
        for n in range(2, 20):
            assert fib_poly(n + 1, s) == s * fib_poly(n, s) + \
                fib_poly(n - 1, s)

    def test_negative_index_sign_rule(self):
        for n in range(1, 15):
            expected = fib_poly(n, 2) * (1 if n % 2 == 1 else -1)
            assert fib_poly(-n, 2) == expected
        assert fib_poly(-4, 1) == -3

    def test_integer_arithmetic_stays_exact(self):
        value = fib_poly(64, 3)
        assert isinstance(value, int)
        # independent check through the closed-form growth bound
        assert value == 3 * fib_poly(63, 3) + fib_poly(62, 3)

    def test_complex_scale(self):
        assert fib_poly(3, 2j) == (2j) ** 2 + 1

    def test_index_past_64(self):
        # No index cap: Python ints stay exact, floats overflow to inf.
        assert fib_poly(65, 1) == 17167680177565
        assert fib_poly(-65, 1) == 17167680177565
        assert fib_poly(-66, 1) == -fib_poly(66, 1) == -27777890035288
        assert fib_poly(2000, 1.5) == math.inf

    def test_non_integer_index_rejected(self):
        with pytest.raises(ArgumentError):
            fib_poly(2.5, 1)

    @given(st.integers(min_value=0, max_value=64),
           st.integers(min_value=-5, max_value=5))
    def test_sign_symmetry_property(self, n, s):
        sign = 1 if n % 2 == 1 else -1
        assert fib_poly(-n, s) == sign * fib_poly(n, s)


class TestSequence:
    def test_holds_complex128(self):
        seq = Sequence([1, 2, -1])
        assert seq.elements.dtype == np.complex128
        assert len(seq) == 3
        assert seq[1] == 2 + 0j

    def test_energy(self):
        seq = Sequence([3, 4j])
        assert seq.energy == pytest.approx(25.0)

    def test_gaussian_integer_energy_is_exact(self):
        # re^2 + im^2 of Gaussian integers is exact; |z|^2 by hypot is not
        # (19.000000000000004 here).
        f = [1 + 2j, 3 - 1j, 2j]
        assert Sequence(f).energy == 19.0
        assert is_canonical(Sequence(f)).energy == 19.0
        lags = [sum(f[i].conjugate() * f[i + k] for i in range(len(f) - k))
                for k in (1, 2)]
        side = sum(int(r.real) ** 2 + int(r.imag) ** 2 for r in lags)
        assert merit_factor(Sequence(f)) == float(Fraction(19 ** 2, 2 * side))

    def test_rejects_empty(self):
        with pytest.raises(ArgumentError):
            Sequence([])

    def test_rejects_non_vector(self):
        with pytest.raises(ArgumentError):
            Sequence([[1, 2], [3, 4]])

    def test_immutable_buffer(self):
        seq = Sequence([1, 2])
        with pytest.raises((ValueError, TypeError)):
            seq.elements[0] = 5


class TestComposition:
    def test_kron_blocks(self):
        left = Sequence([1, -2])
        right = Sequence([3, 4, 5])
        result = kron(left, right)
        assert list(result.real) == [3, 4, 5, -6, -8, -10]

    def test_kron_identity(self):
        g = Sequence([2, 3, -1])
        assert list(kron(Sequence([1]), g)) == list(g.elements)

    def test_outer_shape_and_values(self):
        a = Sequence([1, 2])
        b = Sequence([5, -1, 2])
        grid = outer(a, b)
        assert grid.shape == (2, 3)
        assert grid[1, 0] == 10

    def test_outer_three_dimensional(self):
        a = np.array([1.0, 2.0])
        grid = outer(outer(a, a), a)
        assert grid.shape == (2, 2, 2)
        assert grid[1, 1, 1] == 8


class TestDft:
    def test_matches_direct_summation(self):
        f = [1, 2 - 1j, 0.5, -3]
        lib = dft(f, 7)
        ref = brute_dft(f, 7)
        assert np.allclose(lib, ref, atol=1e-12)

    def test_padding_shorter_than_input_rejected(self):
        with pytest.raises(ArgumentError):
            dft([1, 2, 3], 2)

    @pytest.mark.parametrize("n", [13.0, 4.5, "13"])
    def test_non_integer_length_rejected(self, n):
        with pytest.raises(ArgumentError, match="integer"):
            dft([1, 2, 3], n)

    def test_default_length_is_input_length(self):
        f = [1, 1j, -1]
        assert dft(f).shape == (3,)

    @pytest.mark.parametrize("n", [_DFT_MAX + 1, 2 ** 62, 2 ** 70])
    def test_length_past_the_maximum_rejected(self, n):
        # Refused before numpy sees it: neither numpy's own "Maximum
        # allowed dimension exceeded" nor an allocation of n bins.
        with pytest.raises(ArgumentError, match=f"to {_DFT_MAX}"):
            dft([1, 2], n)
        with pytest.raises(ArgumentError, match=f"to {_DFT_MAX}"):
            dual_cross_spectrum([1, 2], n)

    def test_lengths_up_to_the_maximum_taken(self):
        assert dft([1, 2], 2 ** 12).shape == (2 ** 12,)
        assert dual_cross_spectrum([1, 2], 2 ** 12).shape == (2 ** 12,)


class TestQuantizeRound:
    def test_ties_round_away_from_zero(self):
        rounded = quantize_round([0.5, -0.5, 1.5, -1.5, 2.4, -2.6, 0.0])
        assert list(rounded) == [1, -1, 2, -2, 2, -3, 0]

    def test_rejects_complex_input(self):
        with pytest.raises(ArgumentError):
            quantize_round([1 + 1j])


class TestOffsetScale:
    def test_offset_adds_constant(self):
        shifted = offset(Sequence([1, -2]), 0.5)
        assert list(shifted.real) == [1.5, -1.5]

    def test_scale_multiplies(self):
        scaled = scale(Sequence([1, -2]), -2)
        assert list(scaled.real) == [-2, 4]


class TestApproxEqual:
    def test_relative_at_large_magnitude(self):
        assert approx_equal(1e12, 1e12 * (1 + 1e-10), tol=1e-9)
        assert not approx_equal(1e12, 1e12 * (1 + 1e-8), tol=1e-9)

    def test_absolute_floor_near_zero(self):
        assert approx_equal(0.0, 1e-10, tol=1e-9)


class TestJsonInterchange:
    def test_sequence_round_trip(self):
        seq = Sequence([1, 2j, -0.5], family="fib", scale=1 + 2j)
        obj = to_json_obj(seq)
        clone = from_json_obj(json.loads(json.dumps(obj)))
        assert np.allclose(clone.elements, seq.elements)
        assert clone.family == "fib"
        assert clone.scale == 1 + 2j

    def test_elements_stored_as_re_im_pairs(self):
        obj = to_json_obj(Sequence([1, -2j]))
        assert obj["elements"] == [[1.0, 0.0], [0.0, -2.0]]

    def test_grid_round_trip_keeps_shape(self):
        grid = np.arange(6, dtype=float).reshape(2, 3)
        obj = to_json_obj(grid)
        assert obj["shape"] == [2, 3]
        clone = from_json_obj(obj)
        assert np.allclose(clone, grid)

    @pytest.mark.parametrize("payload", [
        {},
        {"elements": "nope"},
        {"elements": [[1.0]]},
        {"elements": [[1.0, 0.0]], "shape": "bad"},
        {"elements": [["a", "b"]]},
        {"family": {"x": [1, 2]}, "elements": [[1.0, 0.0]]},
        {"family": 7, "elements": [[1.0, 0.0]]},
        {"family": None, "elements": [[1.0, 0.0]]},
        {"elements": [[1, 0], [2, 0], [3, 0]], "shape": [-1, -3]},
        {"elements": [[1, 0], [2, 0], [3, 0], [4, 0]], "shape": [2.7, 2]},
        {"elements": [[1, 0]], "shape": [True, 1]},
        {"elements": [[1, 0], [2, 0], [3, 0], [4, 0]], "shape": ["2", 2]},
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ArgumentError):
            from_json_obj(payload)

    @pytest.mark.parametrize("payload", [
        {"elements": [[float("nan"), 0.0], [1.0, 0.0]]},
        {"elements": [[1.0, float("-inf")]]},
        {"elements": [[1.0, 0.0]], "scale": [float("nan"), 0.0]},
        {"elements": [[1.0, 0.0], [float("inf"), 0.0]], "shape": [1, 2]},
    ])
    def test_non_finite_payloads_rejected(self, payload):
        with pytest.raises(ArgumentError, match="non-finite"):
            from_json_obj(payload)


class TestAsArray:
    def test_accepts_sequence_list_and_ndarray(self):
        for source in (Sequence([1, 2]), [1, 2], np.array([1.0, 2.0])):
            arr = as_array(source)
            assert arr.dtype == np.complex128
            assert list(arr.real) == [1, 2]


# A value that does not cast to a number, reaching each cast that public
# input goes through: as_array, the engine's _grid, Sequence, MaskSet and
# to_json_obj.  Then a scalar parameter read by core._number that is not a
# finite number of its kind: each one raised a raw OverflowError, TypeError
# or ValueError, or was taken as a number, before that gate.
NON_NUMERIC_CALLS = {
    "autocorr": lambda: autocorr("abc"),
    "merit_factor": lambda: merit_factor("ab"),
    "dft": lambda: dft("ab"),
    "kron": lambda: kron("a", [1]),
    "quantize_round": lambda: quantize_round("a"),
    "correlate": lambda: correlate("abc"),
    "convolve": lambda: convolve([1, 2], "x"),
    "blur": lambda: blur("x", [1.0]),
    "recon_error": lambda: recon_error([1.0, 2.0], [1, "a"]),
    "split_signs": lambda: split_signs("a"),
    "end_term_bound": lambda: end_term_bound([[1, "a"]]),
    "reconstruct": lambda: reconstruct([1, 2, 3], [1, "a"]),
    "Sequence": lambda: Sequence("ab"),
    "MaskSet": lambda: MaskSet((np.ones(2), [1, "a"]), "split_sign"),
    "pedestal_masks": lambda: pedestal_masks([1.0, -1.0], "x"),
    "to_json_obj": lambda: to_json_obj("ab"),
    # raw exceptions
    "is_canonical tol=10**400": lambda: is_canonical([1, 2], tol=10 ** 400),
    "is_perfect tol=10**400": lambda: is_perfect([1, 2], tol=10 ** 400),
    "dft n=10**400": lambda: dft([1, 2], 10 ** 400),
    "dft n=True": lambda: dft([1], True),
    "generate n='x'": lambda: generate("h9a", n="x", s=1),
    "generate n=[9]": lambda: generate("h9a", n=[9], s=1),
    "Sequence scale=None": lambda: Sequence([1, 2], scale=None),
    "Sequence scale='x'": lambda: Sequence([1, 2], scale="x"),
    "Sequence scale=10**400": lambda: Sequence([1, 2], scale=10 ** 400),
    "offset None": lambda: offset([1, 2], None),
    "offset 'x'": lambda: offset([1, 2], "x"),
    "offset 10**400": lambda: offset([1, 2], 10 ** 400),
    "scale None": lambda: scale([1, 2], None),
    "scale 'x'": lambda: scale([1, 2], "x"),
    "scale 10**400": lambda: scale([1, 2], 10 ** 400),
    "approx_equal 'a'": lambda: approx_equal("a", 1),
    "approx_equal None": lambda: approx_equal(None, 1),
    "approx_equal 10**400": lambda: approx_equal(10 ** 400, 1),
    "approx_equal tol='x'": lambda: approx_equal(1, 2, tol="x"),
    "end_term_bound obj_max=10**400":
        lambda: end_term_bound([1.0, -1.0], obj_max=10 ** 400),
    "pedestal_masks 10**400": lambda: pedestal_masks([1.0, -1.0], 10 ** 400),
    # silent acceptances
    "is_canonical tol=True": lambda: is_canonical([1, 2], tol=True),
    "is_perfect tol=True": lambda: is_perfect([1, 2], tol=True),
    "end_term_bound obj_max='2'":
        lambda: end_term_bound([1.0, -1.0], obj_max="2"),
    "end_term_bound obj_max=True":
        lambda: end_term_bound([1.0, -1.0], obj_max=True),
    "pedestal_masks '5'": lambda: pedestal_masks([1.0, -1.0], "5"),
    "pedestal_masks True": lambda: pedestal_masks([1.0, -1.0], True),
    "fib_poly True": lambda: fib_poly(True, 2),
    "generate n=9.5": lambda: generate("h9a", n=9.5, s=1),
    "generate n='9'": lambda: generate("h9a", n="9", s=1),
    "Sequence scale='1'": lambda: Sequence([1, 2], scale="1"),
    "Sequence scale=nan": lambda: Sequence([1, 2], scale=math.nan),
    "Sequence scale=True": lambda: Sequence([1, 2], scale=True),
    "offset '1'": lambda: offset([1, 2], "1"),
    "offset nan": lambda: offset([1, 2], math.nan),
    "approx_equal nan": lambda: approx_equal(math.nan, 1),
    "MaskSet pedestal='x'": lambda: MaskSet(
        (np.ones(2), np.ones(2)), "pedestal", pedestal="x"),
    "MaskSet pedestal=nan": lambda: MaskSet(
        (np.ones(2), np.ones(2)), "pedestal", pedestal=math.nan),
}


@pytest.mark.parametrize("call", NON_NUMERIC_CALLS.values(),
                         ids=NON_NUMERIC_CALLS.keys())
def test_non_numeric_input_is_an_argument_error(call):
    with pytest.raises(ArgumentError):
        call()
