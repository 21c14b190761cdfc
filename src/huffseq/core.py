"""Shared primitives: sequence container, Fibonacci polynomials, composition,
transforms, quantization, and the JSON interchange format.

Conventions fixed across the package:

* every sequence is a 1-D complex128 vector, and the correlation engine
  returns n-D complex128 grids; the de-correlation protocol
  (:mod:`huffseq.decorrelate`) keeps real grids float64 and returns
  complex128 only when an operand is complex;
* relative comparisons use ``DEFAULT_TOL = 1e-9`` against ``max(1, |a|, |b|)``;
* the DFT is the unnormalized forward transform with negative exponent
  (``numpy.fft.fft``);
* rounding is half-away-from-zero, applied to real values only;
* square roots of complex arguments take the principal branch;
* every scalar parameter is read by :func:`_number`: a finite number of the
  parameter's kind (count, real or complex), or an ArgumentError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence as _Seq

import numpy as np

DEFAULT_TOL = 1e-9
_DFT_MAX = 2 ** 26   # longest zero-padded dft


class ArgumentError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class DomainError(ArithmeticError):
    """A construction's internal radicand or divisor leaves its valid domain."""


def _cast(a, dtype=None) -> np.ndarray:
    """np.asarray(a, dtype), or an ArgumentError when a does not cast: a
    string where a number belongs, say, or a ragged nesting."""
    try:
        return np.asarray(a, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"not a numeric array: {exc}") from exc


_PYTHON = {"i": int, "u": int, "f": float, "c": complex}


def _number(x, what: str, kinds: tuple = (int, float, complex)):
    """x as a finite Python number of a type in ``kinds``: (int,) for a
    count, (int, float) for a real parameter.  A numpy number is taken as
    its Python value (np.longdouble as a float) by _PYTHON.  Anything else,
    a bool, str, None, array, NaN, +-inf or an int beyond the float range
    among them, is an ArgumentError "{what}, got {x!r}"."""
    value = x
    if type(x) not in kinds and isinstance(x, np.generic) and \
            x.dtype.kind in _PYTHON:
        value = _PYTHON[x.dtype.kind](x)
    if type(value) in kinds:
        try:
            if cmath.isfinite(value):
                return value
        except OverflowError:   # an int beyond the float range
            pass
    raise ArgumentError(f"{what}, got {x!r}")


def approx_equal(a: complex, b: complex, tol: float = DEFAULT_TOL) -> bool:
    """Relative closeness of numbers: |a - b| <= tol * max(1, |a|, |b|)."""
    what = "approx_equal takes finite numbers, tol a real one"
    a, b = _number(a, what), _number(b, what)
    tol = _number(tol, what, (int, float))
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _fib_run(m: int, s):
    """Yield F_0 .. F_m of F_0 = 0, F_1 = 1, F_{k+1} = s*F_k + F_{k-1}, in
    the arithmetic of s."""
    prev, cur = 0 * s, 1 + 0 * s
    for _ in range(m):
        yield prev
        prev, cur = cur, s * cur + prev
    yield prev


def fib_poly(n: int, s):
    """Fibonacci polynomial F_n evaluated at ``s``.

    F_0 = 0, F_1 = 1, F_{k+1} = s*F_k + F_{k-1}; negative indices via
    F_{-k} = (-1)^{k+1} F_k.  Arithmetic stays in the type of ``s``: Python
    ints stay exact at any index, and floats overflow to inf as float
    arithmetic does.
    """
    n = _number(n, "fib_poly index must be an integer", (int,))
    for value in _fib_run(abs(n), s):
        pass
    return -value if n < 0 and n % 2 == 0 else value


def _energy(arr: np.ndarray) -> float:
    """sum re_i^2 + im_i^2, exact for Gaussian-integer entries whose sum is
    below 2^53, and inf without a numpy warning beyond the float range."""
    with np.errstate(over="ignore"):
        return float(np.sum(arr.real * arr.real + arr.imag * arr.imag))


@dataclass(frozen=True)
class Sequence:
    """Immutable 1-D complex sequence tagged with its family id and scale.

    ``_memo`` keeps what is computed once from the elements, through
    :meth:`_memoised` alone: the energy, the engine's grid of the elements,
    the raw autocorrelations (one per sense) that every check in
    :mod:`huffseq.analysis` shares, and the forward transform X on the
    autocorrelation's FFT grid, which both senses share and from which
    spectral flatness takes |X|."""

    elements: np.ndarray
    family: str = "custom"
    scale: complex = 1.0 + 0.0j
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        arr = _cast(self.elements, np.complex128)
        if arr.ndim != 1:
            raise ArgumentError(
                f"Sequence elements must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ArgumentError("Sequence must be non-empty")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)
        object.__setattr__(self, "scale", complex(_number(
            self.scale, "Sequence scale must be a finite number")))

    def __getstate__(self) -> dict:
        """Copies and pickles leave the memo behind: numpy does not keep an
        array read-only through either."""
        return {**self.__dict__, "_memo": {}}

    def __len__(self) -> int:
        return self.elements.size

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, idx):
        return self.elements[idx]

    def _memoised(self, key: str, compute):
        """``compute()``, called once per key and kept.  A kept array is made
        read-only, so callers copy it before they hand it out."""
        if key not in self._memo:
            value = compute()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._memo[key] = value
        return self._memo[key]

    @property
    def energy(self) -> float:
        """Sum of squared magnitudes, computed once."""
        return self._memoised("energy", lambda: _energy(self.elements))


def as_array(seq) -> np.ndarray:
    """Coerce a Sequence, array, or iterable to a complex128 ndarray."""
    if isinstance(seq, Sequence):
        return seq.elements
    arr = _cast(seq, np.complex128)
    if arr.size == 0:
        raise ArgumentError("empty input")
    return arr


def kron(f, g) -> np.ndarray:
    """Kronecker (flattened outer) product of two 1-D sequences."""
    a, b = as_array(f), as_array(g)
    if a.ndim != 1 or b.ndim != 1:
        raise ArgumentError("kron expects 1-D inputs")
    return np.kron(a, b)


def outer(f, g) -> np.ndarray:
    """Outer product grid: out[i, ...] = f[i] * g[...]; stacks dimensions."""
    a = np.asarray(as_array(f))
    b = np.asarray(as_array(g))
    return np.tensordot(a, b, axes=0)


def dft(f, n: int | None = None) -> np.ndarray:
    """Forward unnormalized DFT with optional zero-padding to length n, an
    integer from len(f) to max(len(f), 2^26): a padded transform of more
    than 2^26 bins (1 GiB of complex128) is refused, not allocated."""
    arr = as_array(f)
    top = max(arr.size, _DFT_MAX)
    what = f"dft length must be an integer from the sequence length " \
        f"{arr.size} to {top}"
    n = arr.size if n is None else _number(n, what, (int,))
    if not arr.size <= n <= top:
        raise ArgumentError(f"{what}, got {n!r}")
    return np.fft.fft(arr, n)


def quantize_round(f) -> np.ndarray:
    """Round each element half-away-from-zero to the nearest integer.

    Inputs must be real-valued (zero imaginary part); the result is an
    integer-valued float64 array.
    """
    arr = as_array(f)
    if np.any(arr.imag != 0):
        raise ArgumentError("quantize_round requires real-valued input")
    re = arr.real
    return np.sign(re) * np.floor(np.abs(re) + 0.5)


def offset(f, c: complex) -> np.ndarray:
    """Add a constant, a finite number, to every element."""
    return as_array(f) + _number(c, "offset constant must be a finite number")


def scale(f, c: complex) -> np.ndarray:
    """Multiply every element by a constant, a finite number."""
    return as_array(f) * _number(c, "scale constant must be a finite number")


def _c2pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def to_json_obj(seq) -> dict:
    """Serialize a Sequence or n-D grid to the interchange dict.

    1-D:  {"family", "scale": [re, im], "elements": [[re, im], ...]}
    n-D adds "shape" and flattens elements in row-major order.
    """
    if isinstance(seq, Sequence):
        arr = seq.elements
        family = seq.family
        sc = seq.scale
    else:
        arr = _cast(seq, np.complex128)
        family = "custom"
        sc = 1.0 + 0.0j
    obj = {
        "family": family,
        "scale": _c2pair(complex(sc)),
        "elements": arr.ravel(order="C").view(np.float64).reshape(-1, 2)
                       .tolist(),
    }
    if arr.ndim != 1:
        obj["shape"] = list(arr.shape)
    return obj


def from_json_obj(obj: dict):
    """Inverse of to_json_obj: returns a Sequence (1-D) or ndarray (n-D)."""
    try:
        family = obj.get("family", "custom")
        sc_pair = obj.get("scale", [1.0, 0.0])
        sc = complex(float(sc_pair[0]), float(sc_pair[1]))
        elements = np.array(
            [complex(float(p[0]), float(p[1])) for p in obj["elements"]],
            dtype=np.complex128)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ArgumentError(f"malformed sequence object: {exc}") from exc
    if not isinstance(family, str):
        raise ArgumentError("sequence object's family must be a string, not "
                            f"{type(family).__name__}")
    if not (np.isfinite(elements).all() and np.isfinite(sc)):
        raise ArgumentError("sequence object holds a non-finite value")
    if "shape" in obj:
        shape = obj["shape"]
        # JSON integers only: int() would take 2.7 as 2, true as 1, "2" as 2.
        if not isinstance(shape, list) or not all(
                isinstance(d, int) and not isinstance(d, bool) for d in shape):
            raise ArgumentError(f"shape must be a list of integers, got "
                                f"{shape!r}")
        shape = tuple(shape)
        if any(d < 0 for d in shape) or math.prod(shape) != elements.size:
            raise ArgumentError(f"shape {shape} is not a shape of "
                                f"{elements.size} elements")
        return elements.reshape(shape)
    return Sequence(elements, family=family, scale=sc)
