"""Correlation engine for 1-D sequences and n-D grids (aperiodic,
periodic, conjugate-free dual), condition checkers, and quality metrics.

Lag convention: xcorr(f, g)[k] = sum_i c(f_i) * g_{i+k} for k from -(|f|-1)
to |g|-1, where c is conjugation when ``conjugate`` is true.  A profile's
zero lag therefore sits at index |f|-1.  Every correlation and convolution in
the package goes through :func:`correlate` and :func:`convolve`.

Off-peak lags are all lags but the zero lag and, in an aperiodic correlation,
every lag at the extreme of some axis (the end lags +-(N-1) in 1-D): a
canonical sequence or an n-D Huffman array vanishes at each of them, and a
perfect array at every non-zero cyclic shift.  :func:`_offpeak` alone finds
them, for every delta-correlation verdict.

An autocorrelation on the FFT path transforms its operand once, and the
conjugating one of a complex operand inverts the real |X|^2 as a half-length
Hermitian transform.  A :class:`~huffseq.core.Sequence` correlated with
itself is computed once per sense (conjugating or dual) and shared by every
later call on it, from :func:`autocorr` to :func:`is_canonical` and
:func:`merit_factor`; its energy is kept the same way.  ndarray inputs are
not memoised, and every returned array is a fresh writable copy.

A Sequence also keeps the forward transform X that its FFT autocorrelation
takes, on the grid of L = _fast_len(2N-1) bins: both senses share it, so a
dual check after the conjugating one takes an inverse transform only, and
:func:`spectral_flatness` reads |X| from it.  Any other input to the
flatness takes that transform once, on the same grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DEFAULT_TOL, ArgumentError, Sequence, _energy, as_array, dft

# Largest |a|*|b| that np.convolve takes for 1-D inputs; longer ones use the
# FFT.  Measured with numpy 2.4 on a 2-core x86-64 machine: balanced complex
# inputs break even near 2**17 (362 x 362: direct 91 us, FFT 97 us), real
# ones near 2**18.5 (512 x 512: direct 64 us, FFT 83 us), and direct wins by
# more for unequal lengths (16 x 4096: 80 us against 238 us).
_DIRECT_MAX = 2 ** 17
_EPS = 2.0 ** -53   # unit round-off of float64
_SHORT = 512        # longest array whose squares math.fsum sums unfolded
_FOLDED = 64        # partial sums a longer one is folded down to


def _pow2_len(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << (n - 1).bit_length()


@functools.lru_cache(maxsize=1024)
def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length numpy's FFT does quickly.  Kept
    per n, as the search costs more than a short transform."""
    best = _pow2_len(n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, _pow2_len(-(-n // p35)) * p35)
            p35 *= 3
        p5 *= 5
    return best


def _full_shape(x: np.ndarray, y: np.ndarray) -> list:
    return [p + q - 1 for p, q in zip(x.shape, y.shape)]


def _mirrored(z: np.ndarray) -> np.ndarray:
    """z(-w): z at index -w mod L on every axis, by slicing (bin 0 stays,
    the rest reverse)."""
    for ax in range(z.ndim):
        head = (slice(None),) * ax
        z = np.concatenate([z[head + (slice(1),)],
                            z[head + (slice(None, 0, -1),)]], axis=ax)
    return z


def _lags(z: np.ndarray, shape, hermitian: bool = False) -> np.ndarray:
    """The lags -(n-1) .. n-1 of a cyclic autocorrelation z on every axis
    (n from ``shape``), zero lag at index n-1: the last n-1 entries of each
    axis, then its first n.  A ``hermitian`` z holds only lags 0 .. L//2 of
    the last axis: the negative ones are the conjugates of the positive
    ones mirrored through the zero lag, r_-k = conj(r_k)."""
    lead = z.ndim - 1 if hermitian else z.ndim
    for ax in range(lead):
        head, n = (slice(None),) * ax, shape[ax]
        z = np.concatenate([z[head + (slice(z.shape[ax] - n + 1, None),)],
                            z[head + (slice(n),)]], axis=ax)
    if hermitian:
        n = shape[-1]
        z = z[..., :n]
        back = z[(slice(None, None, -1),) * lead + (slice(n - 1, 0, -1),)]
        z = np.concatenate([back.conj(), z], axis=-1)
    return z


def _fft_convolve(x, y, length, real: bool, dual: bool = False,
                  memo=None) -> np.ndarray:
    """Full linear convolution by a zero-padded FFT over every axis, each
    axis padded to ``length(full extent)``.  With ``y`` None it is instead
    the autocorrelation of x (conjugating unless ``dual``) from the one
    forward transform X of x, its lags gathered by :func:`_lags`:

    * dual, complex x: the inverse transform of X(w) X(-w), X(-w) sliced
      from X by :func:`_mirrored`;
    * conjugating, complex x: |X|^2 is real, so its inverse is Hermitian
      and half of it is taken: np.fft.ihfft along the last axis (lags
      0 .. L//2), then np.fft.ifft along each other axis;
    * real x: the inverse real transform of X conj(X), both senses.

    ``memo``, if given, is called with a function computing X and
    returns X: a Sequence's memo, which keeps X for both senses and
    :func:`spectral_flatness`.  Entries near the float range may overflow
    to inf or NaN, quietly."""
    full = _full_shape(x, x if y is None else y)
    s = [length(n) for n in full]
    axes = tuple(range(x.ndim))
    if real:
        fwd, inv = np.fft.rfftn, np.fft.irfftn
    else:
        fwd, inv = np.fft.fftn, np.fft.ifftn
    with np.errstate(over="ignore", invalid="ignore"):
        spec = fwd(x, s, axes) if memo is None else \
            memo(lambda: fwd(x, s, axes))
        # Each product replaces X, so that it is let go before the inverse
        # (a Sequence's memo keeps its own reference).
        if y is not None:
            spec = spec * fwd(y, s, axes)
            return inv(spec, s, axes)[tuple(slice(n) for n in full)]
        if real:   # for a real x, X(-w) is conj X(w)
            spec = spec * spec.conj()
        elif dual:
            spec = spec * _mirrored(spec)
        else:
            spec = (spec * spec.conj()).real
            z = np.fft.ihfft(spec, axis=-1)
            for ax in axes[:-1]:
                z = np.fft.ifft(z, axis=ax)
            return _lags(z, x.shape, hermitian=True)
        return _lags(inv(spec, s, axes), x.shape)


def _sumsq(v: np.ndarray) -> float:
    """sum |v_i|^2 over every entry of a real or complex array, in float64,
    on the calling thread, within about 1e-15 of the exact sum of the
    rounded squares.  The route and its rounding depend on the entry count
    alone, so a complex array whose imaginary parts are all zero sums bit
    for bit as its real parts.

    No BLAS: OpenBLAS hands a dot product of more than 10 000 elements to
    worker threads, which go on spinning on a second core after it returns,
    and its SIMD accumulation drifts by up to about n * 2^-53 (np.vdot of
    1024 equal entries is 2e-15 off).  Up to _SHORT entries math.fsum
    rounds the exact total of the squares once, so integer squares whose
    sum is below 2^53 sum exactly.  Longer arrays are squared, a complex
    entry as re^2 + im^2, and folded in half, the first half plus the
    second, until at most _FOLDED partial sums are left for math.fsum: each
    square goes through log2(n / _FOLDED) roundings of sums of like size
    on the way."""
    cplx = v.dtype.kind == "c"
    v = v.ravel().astype(np.complex128 if cplx else np.float64, copy=False)
    if v.size <= _SHORT:
        # A Python float square overflows to inf without a warning, so no
        # np.errstate is entered: at this size that costs more than squaring.
        flat = v.view(np.float64) if cplx else v
        terms = [x * x for x in flat.tolist()]
    else:
        n, odd = v.size, []
        with np.errstate(over="ignore"):   # an infinite square sums to inf
            if cplx:
                sq = v.real * v.real
                sq += v.imag * v.imag
            else:
                sq = v * v
            while n > _FOLDED:
                half = n // 2
                if n % 2:
                    odd.append(float(sq[n - 1]))
                np.add(sq[:half], sq[half:2 * half], out=sq[:half])
                n = half
        terms = sq[:n].tolist() + odd
    try:
        return math.fsum(terms)
    except OverflowError:   # finite partial sums whose total is not
        return math.inf


def _fft_error_bound(x, y, norms2: float) -> float:
    """Percival's bound (Math. Comp. 72, 2003) on the largest error of an
    FFT convolution of x and y over power-of-two lengths 2^n (n summed over
    the axes): ||x||_2 ||y||_2 [(1+e)^3n (1+e*sqrt5)^(3n+1) (1+b)^3n - 1],
    with e = b = 2^-53 the round-off of the arithmetic and of the twiddle
    factors; ``norms2`` is ||x||_2^2 ||y||_2^2.  The theorem is proved for
    the radix-2 complex FFT; numpy's mixed-radix real transform is taken to
    stay within it.  It bounds each spectrum by the error of one transform,
    so it covers an autocorrelation whose two spectra are one."""
    n = sum((m - 1).bit_length() for m in _full_shape(x, y))
    growth = math.expm1(6 * n * math.log1p(_EPS)
                        + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5)))
    return math.sqrt(norms2) * growth


def _is_int(x: np.ndarray) -> bool:
    """Integer dtype, or float entries that are all integers below 2^53.
    Up to 64 leading entries are tested on their own first, so that a
    float array is rejected without a pass over all of it."""
    if x.dtype.kind != "f":
        return True
    head = x[(0,) * (x.ndim - 1)][:64]
    if head.size < x.size and np.count_nonzero(head != np.rint(head)):
        return False
    return bool(np.abs(x).max() < 2.0 ** 53) and \
        not np.count_nonzero(x != np.rint(x))


def _method(x: np.ndarray, y: np.ndarray) -> str:
    """How :func:`_convolve` computes x * y: 'direct' (np.convolve), 'rfft'
    or 'fft' (float transforms), or, for integer-valued real inputs whose
    float direct sum could round, one of the exact methods 'fft_round',
    'int64' and 'pyint'.  The norms are taken only by the two decisions that
    read them, and once for an operand passed as both x and y."""
    small = x.ndim == 1 and x.size * y.size <= _DIRECT_MAX
    if x.dtype.kind == "c" or y.dtype.kind == "c":
        return "direct" if small else "fft"

    def norms2() -> float:
        nx = _sumsq(x)
        return nx * (nx if y is x else _sumsq(y))

    if small:
        # Exact for integer inputs below the bound: by Cauchy-Schwarz every
        # partial sum is an integer of magnitude at most ||x|| ||y|| < 2^52.
        if norms2() < 2.0 ** 104 or not (_is_int(x) and _is_int(y)):
            return "direct"
    elif not (_is_int(x) and _is_int(y)):
        return "rfft"
    elif _fft_error_bound(x, y, norms2()) < 0.5:
        return "fft_round"
    amax = [int(np.abs(v).max()) for v in (x, y)]
    if amax[0] * amax[1] * min(x.size, y.size) < 2 ** 63:
        return "int64"
    return "pyint"


def _direct(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full linear convolution by direct summation in the inputs' dtype (exact
    for int64 within range and for Python ints)."""
    if x.ndim == 1:
        return np.convolve(x, y)
    if x.size > y.size:
        x, y = y, x
    out = np.zeros(_full_shape(x, y), dtype=np.result_type(x, y))
    for idx in zip(*np.nonzero(x)):
        out[tuple(slice(i, i + n) for i, n in zip(idx, y.shape))] += x[idx] * y
    return out


def _kronecker(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact convolution of integer arrays of any magnitude by Kronecker
    substitution: both arrays, zero-padded to the output shape and raveled,
    become Python ints with one digit of ``width`` bytes per entry, and the
    digits of their product are the convolution.  Each digit is stored
    offset by half its range, so that every digit is non-negative."""
    full = _full_shape(x, y)
    amax = [int(np.abs(v).max()) for v in (x, y)]
    bound = amax[0] * amax[1] * min(x.size, y.size) + amax[0] + amax[1]
    width = (bound.bit_length() + 9) // 8
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * math.prod(full),
                            "little")

    def pack(v):
        padded = np.zeros(full, dtype=object)
        padded[tuple(slice(n) for n in v.shape)] = v
        digits = b"".join([(int(d) + half).to_bytes(width, "little")
                           for d in padded.ravel().tolist()])
        return int.from_bytes(digits, "little") - offset

    raw = (pack(x) * pack(y) + offset).to_bytes(width * math.prod(full),
                                                "little")
    out = [int.from_bytes(raw[i:i + width], "little") - half
           for i in range(0, len(raw), width)]
    return np.array(out, dtype=object).reshape(full)


def _convolve(x: np.ndarray, y: np.ndarray, flip: bool = False,
              dual: bool = False, memo=None) -> np.ndarray:
    """Full linear convolution of two arrays of equal rank by the method
    :func:`_method` picks, or with ``flip`` the correlation of x against y:
    x reversed on every axis, and conjugated unless ``dual``, first.  The
    pick comes before the reversal, which changes nothing it reads, so an
    autocorrelation's one operand is both x and y, and the FFT methods
    transform it once.  On the 'rfft' and 'fft' paths of an autocorrelation
    that forward transform X, the one :func:`_transform` takes, goes
    through ``memo`` (see :func:`_fft_convolve`); no other path calls
    it.  The exact methods return int64 or Python-int (object) arrays
    holding the exact integer result."""
    method = _method(x, y)
    if flip and y is x and method in ("rfft", "fft", "fft_round"):
        y = None
    elif flip:
        x = x[(slice(None, None, -1),) * x.ndim]
        if not dual and x.dtype.kind == "c":
            x = x.conj()
    if method == "direct":
        return np.convolve(x, y)
    if method in ("rfft", "fft"):
        return _fft_convolve(x, y, _fast_len, method == "rfft", dual,
                             memo)
    if method == "pyint":
        return _kronecker(x, y)
    if method == "int64":
        return _direct(x.astype(np.int64), y.astype(np.int64))
    return np.rint(_fft_convolve(x, y, _pow2_len, True)).astype(np.int64)


def _real(x: np.ndarray) -> np.ndarray:
    """The real part when every imaginary part is zero, else x itself."""
    return x if np.count_nonzero(x.imag) else x.real


def _grid(a) -> np.ndarray:
    """``a`` as a float64 array, or as a complex128 one when some imaginary
    part is non-zero: a Sequence's elements through :func:`_real`, any
    other real input cast to float64 (a float64 array is itself), and
    complex or object input cast to complex128, then through
    :func:`_real`."""
    if isinstance(a, Sequence):
        return _real(a.elements)
    arr = np.asarray(a)
    if arr.dtype.kind in "cO":
        arr = _real(arr.astype(np.complex128, copy=False))
    else:
        arr = arr.astype(np.float64, copy=False)
    if arr.size == 0:
        raise ArgumentError("empty input")
    return arr


def _operands(a, b) -> tuple:
    x = _grid(a)
    y = x if b is None or b is a else _grid(b)
    if x.ndim == 0 or x.ndim != y.ndim:
        raise ArgumentError(
            f"operands need the same number of axes (>= 1), got {x.ndim} "
            f"and {y.ndim}")
    return x, y


def _same_values(x: np.ndarray, y: np.ndarray) -> bool:
    """x and y hold the same values (an equal copy, say).  Up to 64 leading
    entries are compared on their own first, so that different arrays of
    one shape are told apart without a pass over all of them."""
    return x.shape == y.shape and x.dtype == y.dtype and \
        np.array_equal(x.flat[:64], y.flat[:64]) and np.array_equal(x, y)


def _kept(f, key: str, compute):
    """``compute()``, kept under ``key`` in the memo when f is a Sequence."""
    return f._memoised(key, compute) if isinstance(f, Sequence) else compute()


def _one_d(f, name: str, minimum: int = 1) -> np.ndarray:
    """as_array(f) when it is 1-D with at least ``minimum`` entries, else an
    ArgumentError naming the check ``name``."""
    a = as_array(f)
    if a.ndim != 1 or a.size < minimum:
        raise ArgumentError(f"{name} expects a 1-D sequence of length >= "
                            f"{minimum}, got shape {a.shape}")
    return a


def _tolerance(tol: float) -> None:
    """An ArgumentError unless tol is positive and finite (NaN is neither)."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ArgumentError(f"tol must be positive and finite, got {tol!r}")


def _fold(r: np.ndarray, shape: tuple) -> np.ndarray:
    """Periodic correlation from the aperiodic one: p_k = r_k + r_{k-N} for
    k = 0..N-1 on every axis."""
    for ax, n in enumerate(shape):
        r = np.moveaxis(r, ax, 0)
        p = r[n - 1:].copy()
        p[1:] += r[:n - 1]
        r = np.moveaxis(p, 0, ax)
    return r


def convolve(a, b) -> np.ndarray:
    """Full linear convolution of two arrays with the same number of axes;
    axis i of the result has length a.shape[i] + b.shape[i] - 1.  Methods and
    exactness as for :func:`correlate`."""
    x, y = _operands(a, b)
    return np.asarray(_convolve(x, y), dtype=np.complex128)


def _correlation(a, b, dual: bool, periodic: bool = False) -> tuple:
    """The operands of correlate(a, b) and the raw :func:`_convolve` result
    of their aperiodic correlation.  An operand b with the same values as a
    makes an autocorrelation.  A Sequence correlated with itself keeps that
    result, read-only, in its memo: one entry per sense, and one for both
    when the elements are real, where the two agree.  It also keeps the
    forward transform X that an FFT autocorrelation takes: the other sense
    reads it instead of transforming again, and so does
    :func:`spectral_flatness`."""
    x, y = _operands(a, b)
    if periodic and x.shape != y.shape:
        raise ArgumentError("periodic correlation needs equal shapes, got "
                            f"{x.shape} and {y.shape}")
    if y is not x and _same_values(x, y):
        y = x   # an autocorrelation all the same, computed as one
    key = "dual" if dual and x.dtype.kind == "c" else "conj"
    if y is not x:
        return x, _convolve(x, y, flip=True, dual=key == "dual")
    return x, _kept(a, key, lambda: _convolve(
        x, x, flip=True, dual=key == "dual",
        memo=functools.partial(_kept, a, "transform")))


def correlate(a, b=None, *, dual: bool = False,
              periodic: bool = False) -> np.ndarray:
    """Correlation r_k = sum_i c(a_i) * b_{i+k} of two 1-D or n-D arrays
    (``b`` defaults to ``a``), with c conjugation unless ``dual``.

    Aperiodic (default): axis i has lags -(a.shape[i]-1) .. b.shape[i]-1, the
    zero lag at index a.shape[i]-1.  ``periodic`` (equal shapes): cyclic lags
    0 .. N-1, the fold p_k = r_k + r_{k-N} of the aperiodic result.

    The method follows from the inputs alone:

    * 1-D inputs with |a|*|b| <= 2^17 use np.convolve, others an FFT over
      every axis (a real one when both inputs have zero imaginary part);
    * real inputs whose entries are all integers below 2^53 are computed
      exactly whenever a float sum could round (np.convolve cannot while
      ||a||_2 ||b||_2 < 2^52): by the FFT, rounded to the nearest integer,
      when Percival's round-off certificate
      ||a||_2 ||b||_2 [(1+e)^3n (1+e*sqrt5)^(3n+1) (1+e)^3n - 1] is below
      1/2 (e = 2^-53; 2^n is the product of the power-of-two transform
      lengths); otherwise directly in int64 when
      max|a| * max|b| * min(|a|, |b|) < 2^63; otherwise in Python ints.

    A ``b`` equal to ``a`` in shape, dtype and values gives the
    autocorrelation, bit for bit.  A Sequence correlated with itself is
    computed once per sense and shared by every later call on it
    (:func:`autocorr`, :func:`is_canonical`, :func:`merit_factor`, ...);
    ndarray inputs are not memoised.  The result is always a fresh writable
    array.

    Exactness: integer-valued inputs give the correctly rounded float of the
    exact integer correlation, bit-exact while it is below 2^53
    (:func:`merit_factor_exact` keeps the exact integers at any size).  Other
    inputs carry float round-off.
    """
    x, r = _correlation(a, b, dual, periodic)
    if periodic:
        r = _fold(r, x.shape)   # on the raw result: integer folds stay exact
    out = np.asarray(r, dtype=np.complex128)
    return out if out.flags.writeable else out.copy()


_KINDS = ("aperiodic", "periodic", "dual_aperiodic")


@dataclass(frozen=True)
class CorrelationProfile:
    """Full correlation vector plus derived summary values.

    ``peak`` is the magnitude of the zero-lag value (``peak_value`` keeps the
    complex value itself); ``max_interior_offpeak`` is the largest magnitude
    over the off-peak lags (see the module docstring), 0.0 when there are
    none.
    """

    values: np.ndarray
    kind: str
    lags: np.ndarray
    peak_value: complex
    end_values: tuple
    max_interior_offpeak: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ArgumentError(f"unknown profile kind {self.kind!r}")

    @property
    def peak(self) -> float:
        return abs(self.peak_value)

    def __len__(self) -> int:
        return self.values.size


def _offpeak(values: np.ndarray, center, ends: bool = True) -> tuple:
    """(zero-lag value, worst off-peak magnitude, flat index of the first lag
    with it) of a correlation whose zero lag sits at ``center``: 0.0 and -1
    when no lag is off-peak, and a NaN lag is the worst.  Without ``ends``
    (periodic) the extreme lags are off-peak too."""
    mags = np.abs(values)   # fresh, as values may be read-only; exact for ints
    mags[center] = -1
    if ends:
        for ax in range(mags.ndim):
            for end in (0, -1):
                mags[(slice(None),) * ax + (end,)] = -1
    idx = int(np.argmax(mags))
    worst = float(mags.flat[idx])
    if worst < 0:
        worst, idx = 0.0, -1
    return complex(values[center]), worst, idx


def _profile(values: np.ndarray, kind: str, lags: np.ndarray,
             zero_index: int) -> CorrelationProfile:
    peak, worst, _ = _offpeak(values, zero_index, ends=kind != "periodic")
    return CorrelationProfile(
        values=values,
        kind=kind,
        lags=lags,
        peak_value=peak,
        end_values=(complex(values[0]), complex(values[-1])),
        max_interior_offpeak=worst,
    )


def xcorr(f, g, conjugate: bool = True) -> CorrelationProfile:
    """All |f|+|g|-1 aperiodic correlation lags of f against g."""
    a, b = _one_d(f, "xcorr"), _one_d(g, "xcorr")
    values = correlate(f, g, dual=not conjugate)
    lags = np.arange(-(a.size - 1), b.size)
    kind = "aperiodic" if conjugate else "dual_aperiodic"
    return _profile(values, kind, lags, a.size - 1)


def autocorr(f) -> CorrelationProfile:
    """Aperiodic autocorrelation (conjugating)."""
    return xcorr(f, f, conjugate=True)


def dual_autocorr(f) -> CorrelationProfile:
    """Conjugate-free autocorrelation sum_i f_i * f_{i+k}; the delta-like
    profile that complex-scaled canonical families retain."""
    return xcorr(f, f, conjugate=False)


def periodic_autocorr(f) -> CorrelationProfile:
    """Cyclic autocorrelation at shifts 0..N-1 (conjugating)."""
    a = _one_d(f, "periodic_autocorr", 2)
    values = correlate(f, periodic=True)
    return _profile(values, "periodic", np.arange(a.size), 0)


def nd_autocorr(grid) -> np.ndarray:
    """Full aperiodic autocorrelation of an n-D grid (conjugating).

    Output axis a has length 2*shape[a]-1 with the zero lag at its center.
    Integer-valued grids give the correctly rounded float of the exact
    integer autocorrelation (see :func:`correlate`).
    """
    return correlate(grid)


@dataclass(frozen=True)
class CanonicalReport:
    """Outcome of the delta-correlation check.

    ``energy`` is sum |f_i|^2, the reference scale for the tolerance; it
    equals ``peak`` for the conjugating autocorrelation but can differ (even
    vanish) for the conjugate-free center value, so the residual threshold is
    always taken relative to the energy.
    """

    is_canonical: bool
    tolerance: float
    peak: float
    energy: float
    worst_lag: int
    worst_residual: float

    def __bool__(self) -> bool:
        return self.is_canonical


def is_canonical(f, tol: float = DEFAULT_TOL, dual: bool = False
                 ) -> CanonicalReport:
    """Check that every off-peak autocorrelation lag (all but 0 and +-(N-1))
    has magnitude at most tol * P, P = sum |f_i|^2 the sequence energy; the
    report's ``worst_lag`` is the first lag of largest magnitude (0 for
    N <= 2).  ``dual`` switches to the conjugate-free autocorrelation.  An
    energy beyond the float range is no reference: the verdict is False.
    ``tol`` must be positive and finite."""
    _tolerance(tol)
    a = _one_d(f, "is_canonical")
    energy = _kept(f, "energy", lambda: _energy(a))
    values = _correlation(f, None, dual)[1]   # raw, and read-only if kept
    peak, worst, idx = _offpeak(values, a.size - 1)
    return CanonicalReport(
        is_canonical=bool(math.isfinite(energy) and worst <= tol * energy),
        tolerance=tol,
        peak=abs(peak),
        energy=energy,
        worst_lag=idx - (a.size - 1) if idx >= 0 else 0,
        worst_residual=worst,
    )


def is_perfect(f, tol: float = DEFAULT_TOL) -> bool:
    """True when every non-zero cyclic shift correlates to at most
    tol * peak (tol positive and finite), and the peak is finite."""
    _tolerance(tol)
    prof = periodic_autocorr(f)
    return bool(math.isfinite(prof.peak)
                and prof.max_interior_offpeak <= tol * prof.peak)


def _offpeak_power(f) -> tuple:
    a = _one_d(f, "merit_factor", 2)
    energy = _kept(f, "energy", lambda: _energy(a))
    if energy == 0:
        raise ArgumentError("merit factor is undefined for the zero sequence")
    # The strictly positive lags as computed: real for real elements, and
    # int64 or Python ints on the exact paths.  _sumsq sums them as it sums
    # their complex128 cast, which correlate returns.
    return energy, _sumsq(_correlation(f, None, False)[1][a.size:])


def merit_factor(f) -> float:
    """E^2 / (2 * sum over positive lags of |r_k|^2), E the sequence energy.
    Returns +inf when every off-peak lag is zero."""
    energy, sidepower = _offpeak_power(f)
    if sidepower == 0:
        return math.inf
    return energy * energy / (2.0 * sidepower)


def merit_factor_exact(f) -> Fraction:
    """Merit factor as an exact Fraction; requires integer-valued elements.
    The lags come from the exact integer path of :func:`correlate`."""
    a = _one_d(f, "merit_factor_exact", 2)
    top = float(np.abs(a.real).max())
    if not math.isfinite(top) or np.count_nonzero(a.imag) or \
            np.count_nonzero(a.real != np.rint(a.real)):
        raise ArgumentError("merit_factor_exact needs finite integers")
    if top < 2.0 ** 63:
        ints = a.real.astype(np.int64)
    else:
        ints = np.array([int(v) for v in a.real], dtype=object)
    r = _convolve(ints, ints, flip=True)
    energy = int(r[a.size - 1])
    if energy == 0:
        raise ArgumentError("merit factor is undefined for the zero sequence")
    # The squares sum in int64 when max|r_k|^2 times their count is below
    # 2^63, so that no partial sum can reach it, and in Python ints
    # otherwise.  |r_k| <= energy bounds max|r_k| without a pass.
    side, worst = r[a.size:], energy
    if worst * worst * side.size >= 2 ** 63:
        worst = int(np.abs(side).max())
    side = side.astype(np.int64 if worst * worst * side.size < 2 ** 63
                       else object, copy=False)
    sidepower = int(np.dot(side, side))
    if sidepower == 0:
        raise ArgumentError("all off-peak lags are zero (infinite merit "
                            "factor)")
    return Fraction(energy * energy, 2 * sidepower)


def _transform(a: np.ndarray) -> np.ndarray:
    """X of the 1-D a on the grid of its FFT autocorrelation,
    L = _fast_len(2N-1): the L//2+1 bins of np.fft.rfft when a is real, all
    L of np.fft.fft when it is not, the transform _fft_convolve takes, bit
    for bit."""
    x = _real(a)
    n = _fast_len(2 * x.size - 1)
    return np.fft.rfft(x, n) if x.dtype.kind == "f" else np.fft.fft(x, n)


def spectral_flatness(f) -> float:
    """min/max |F| over the L = _fast_len(2N-1) DFT bins of f zero-padded
    to L (the smallest 2^a 3^b 5^c >= 2N-1, the grid of its FFT
    autocorrelation); 1 means a perfectly flat spectrum.  A Sequence reads
    the transform X its FFT autocorrelation kept, or computes and keeps it,
    so the value is the same in either order and for the elements as an
    ndarray, bit for bit.  |X| is taken, not |X|^2, so that entries up to
    the float range do not overflow."""
    a = _one_d(f, "spectral_flatness")
    spec = np.abs(_kept(f, "transform", lambda: _transform(a)))
    top = float(spec.max())
    if top == 0:
        raise ArgumentError("spectral flatness is undefined for the zero "
                            "sequence")
    return float(spec.min()) / top


def dual_cross_spectrum(f, padded_length: int | None = None) -> np.ndarray:
    """DFT(f) * DFT(reversed f), from the one transform DFT(f): the spectrum
    whose inverse transform is the conjugate-free autocorrelation.  For a
    dual-canonical sequence every bin magnitude stays within 2*|f_1*f_N| of
    the dual peak |sum f_i^2|."""
    a = _one_d(f, "dual_cross_spectrum")
    if padded_length is None:
        padded_length = 2 * a.size - 1
    # The transform of reversed f is w^((N-1)k) X[-k mod L], w = e^(-2 pi i/L):
    # one transform, the phase's exponent reduced mod L in integers.
    spec = dft(a, padded_length)
    k = np.arange(padded_length, dtype=np.int64)
    phase = np.exp(-2j * np.pi / padded_length * ((a.size - 1) * k
                                                  % padded_length))
    return spec * _mirrored(spec) * phase
