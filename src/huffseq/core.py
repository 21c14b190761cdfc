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
* square roots of complex arguments take the principal branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence as _Seq

import numpy as np

DEFAULT_TOL = 1e-9

# fib_poly coefficients grow roughly like s^n; beyond this index even modest
# scales overflow float64, and exact-int callers never need more.
FIB_INDEX_LIMIT = 64


class ArgumentError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class DomainError(ArithmeticError):
    """A construction's internal radicand or divisor leaves its valid domain."""


def approx_equal(a: complex, b: complex, tol: float = DEFAULT_TOL) -> bool:
    """Relative closeness: |a - b| <= tol * max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def fib_poly(n: int, s):
    """Fibonacci polynomial F_n evaluated at ``s``.

    F_0 = 0, F_1 = 1, F_{k+1} = s*F_k + F_{k-1}; negative indices via
    F_{-k} = (-1)^{k+1} F_k.  Arithmetic stays in the type of ``s`` (Python
    ints stay exact).  |n| is capped at FIB_INDEX_LIMIT.
    """
    if not isinstance(n, (int, np.integer)):
        raise ArgumentError(f"fib_poly index must be an integer, got {n!r}")
    n = int(n)
    if abs(n) > FIB_INDEX_LIMIT:
        raise DomainError(
            f"fib_poly index {n} exceeds limit {FIB_INDEX_LIMIT}")
    if n < 0:
        k = -n
        val = fib_poly(k, s)
        return val if k % 2 == 1 else -val
    if n == 0:
        return 0 * s
    prev, cur = 0 * s, 1 + 0 * s  # F_0, F_1 in the arithmetic of s
    for _ in range(n - 1):
        prev, cur = cur, s * cur + prev
    return cur


def _energy(arr: np.ndarray) -> float:
    """sum |arr_i|^2, exact for integer entries (their magnitudes are), and
    inf without a numpy warning beyond the float range."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(arr) ** 2))


@dataclass(frozen=True)
class Sequence:
    """Immutable 1-D complex sequence tagged with its family id and scale.

    ``_memo`` keeps what is computed once from the elements, through
    :meth:`_memoised` alone: the energy, the raw autocorrelations (one per
    sense) that every check in :mod:`huffseq.analysis` shares, and the
    forward transform X on the autocorrelation's FFT grid, which both
    senses share and from which spectral flatness takes |X|."""

    elements: np.ndarray
    family: str = "custom"
    scale: complex = 1.0 + 0.0j
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        arr = np.asarray(self.elements, dtype=np.complex128)
        if arr.ndim != 1:
            raise ArgumentError(
                f"Sequence elements must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ArgumentError("Sequence must be non-empty")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)
        object.__setattr__(self, "scale", complex(self.scale))

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
    arr = np.asarray(seq, dtype=np.complex128)
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
    integer >= len(f)."""
    arr = as_array(f)
    if n is None:
        n = arr.size
    if not isinstance(n, (int, np.integer)) or n < arr.size:
        raise ArgumentError(
            f"dft length must be an integer >= the sequence length "
            f"{arr.size}, got {n!r}")
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
    """Add a constant to every element."""
    return as_array(f) + complex(c)


def scale(f, c: complex) -> np.ndarray:
    """Multiply every element by a constant."""
    return as_array(f) * complex(c)


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
        arr = np.asarray(seq, dtype=np.complex128)
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
        try:
            shape = tuple(int(d) for d in obj["shape"])
        except (TypeError, ValueError) as exc:
            raise ArgumentError(f"malformed shape field: {exc}") from exc
        if any(d < 0 for d in shape) or math.prod(shape) != elements.size:
            raise ArgumentError(f"shape {shape} is not a shape of "
                                f"{elements.size} elements")
        return elements.reshape(shape)
    return Sequence(elements, family=family, scale=sc)
