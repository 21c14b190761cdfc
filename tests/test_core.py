"""Primitive layer: Fibonacci polynomials, Sequence container, composition,
DFT, rounding, and JSON interchange."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from huffseq import (
    ArgumentError,
    DomainError,
    Sequence,
    approx_equal,
    as_array,
    dft,
    fib_poly,
    from_json_obj,
    kron,
    offset,
    outer,
    quantize_round,
    scale,
    to_json_obj,
)

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

    def test_index_guard_is_domain_error(self):
        with pytest.raises(DomainError):
            fib_poly(65, 1)
        with pytest.raises(DomainError):
            fib_poly(-65, 1)

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
