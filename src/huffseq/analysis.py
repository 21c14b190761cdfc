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

Every FFT product, an autocorrelation included, is one routine,
:func:`_fft_convolve`, and every forward transform is :func:`_spectrum`'s.

A :class:`~huffseq.core.Sequence` correlated with itself is computed once
per sense (conjugating or dual) and shared by every later call on it, from
:func:`autocorr` to :func:`is_canonical` and :func:`merit_factor`; its
energy and its :func:`_grid` are kept the same way.  ndarray inputs are
not memoised, and every returned array is a fresh writable copy.  A
Sequence also keeps the forward transform X of its FFT autocorrelation,
on the grid of L = _fast_len(2N-1) bins: both senses share it, and
:func:`spectral_flatness` reads |X| from it, or takes X by the very
:func:`_spectrum` call the autocorrelation makes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (DEFAULT_TOL, ArgumentError, Sequence, _cast, _energy,
                   _number, as_array, dft)

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


def _pieces(span: range, n: int) -> list:
    """(destination, source) slice pairs that copy the cyclic positions
    ``span`` of an axis of length n, a negative position counting back from
    the end of the axis; a span that starts below 0 ends above it."""
    lo, hi = span.start, span.stop
    if lo >= 0:
        return [(slice(0, hi - lo), slice(lo, hi))]
    return [(slice(0, -lo), slice(n + lo, n)), (slice(-lo, hi - lo),
                                                slice(0, hi))]


def _lags(z: np.ndarray, spans, hermitian: bool = False) -> np.ndarray:
    """z at the cyclic positions ``spans``, one range per axis (None keeps
    the whole axis), a negative position counting back from the end of its
    axis: lags -(m-1) .. n-1 of a cyclic correlation are
    range(-(m-1), n).  One gather: a view of z when no span reaches back
    past position 0, else one fresh array filled block by block.

    A ``hermitian`` z holds only lags 0 .. L//2 of the last axis, whose
    span is -(n-1) .. n-1: the negative ones are the conjugates of the
    positive ones mirrored through the zero lag, r_-k = conj(r_k) (the
    other spans must be symmetric too)."""
    if hermitian:
        spans, last = list(spans[:-1]) + [None], spans[-1]
    blocks = [[(slice(None), slice(None))] if r is None else _pieces(r, n)
              for r, n in zip(spans, z.shape)]
    if all(len(b) == 1 for b in blocks):
        z = z[tuple(src for ((_, src),) in blocks)]
    else:
        out = np.empty([n if r is None else len(r)
                        for r, n in zip(spans, z.shape)], dtype=z.dtype)
        for block in itertools.product(*blocks):
            out[tuple(dst for dst, _ in block)] = \
                z[tuple(src for _, src in block)]
        z = out
    if hermitian:
        n = last.stop
        z = z[..., :n]
        back = z[(slice(None, None, -1),) * (z.ndim - 1)
                 + (slice(n - 1, 0, -1),)]
        z = np.concatenate([back.conj(), z], axis=-1)
    return z


def _spectrum(v: np.ndarray, s: list, real: bool) -> np.ndarray:
    """The transform of v zero-padded to the grid ``s`` (the real one of
    the last axis when ``real``), in one fresh buffer.  A 1-D v is one
    np.fft call.  An n-D one is transformed along the last axis by ``out=``
    into only the rows v occupies, then along every other axis in place,
    over the extent v occupies on the axes before it: one np.fft call per
    axis.  The buffer is np.empty with only its padding zeroed: np.zeros
    (calloc) gave each buffer fresh pages, about 1000 more page faults per
    512^2 deblur round trip."""
    fwd = np.fft.rfft if real else np.fft.fft
    if v.ndim == 1:
        return fwd(v, s[0])
    spec = np.empty(s[:-1] + [s[-1] // 2 + 1 if real else s[-1]],
                    dtype=np.complex128)
    fwd(v, s[-1], out=spec[tuple(slice(n) for n in v.shape[:-1])])
    for ax in reversed(range(v.ndim - 1)):
        part = spec[tuple(slice(n) for n in v.shape[:ax])]
        part[(slice(None),) * ax + (slice(v.shape[ax], None),)] = 0
        np.fft.fft(part, axis=ax, out=part)
    return spec


def _fft_convolve(x, y, length, real: bool, flip: bool = False,
                  dual: bool = False, keep=None, memo=None) -> np.ndarray:
    """Full linear convolution of x and y by a zero-padded FFT over every
    axis, each axis padded to ``length(full extent)``; with ``flip`` the
    correlation of x against y instead, from conj(X) Y (conjugating) or
    X(-w) Y (``dual``, X(-w) sliced by :func:`_mirrored`), with no reversed
    copy of x.  ``keep`` (slices of the full result) is the part returned.

    Two operands are transformed into a buffer each, and the product is
    formed in the larger one's.  An autocorrelation (``flip``, y is x) is
    the one-operand case: X is taken once, through ``memo`` when given (a
    Sequence's memo), and the product is X conj(X) for a real x, X(w) X(-w)
    for a dual complex one.  The product is inverted in place on every axis
    but the last, and the last axis only for the rows kept, into the
    smaller operand's buffer or a fresh one.  The conjugating
    autocorrelation of a complex x instead inverts the real |X|^2 as a
    Hermitian transform, half of it: np.fft.ihfft along the last axis (lags
    0 .. L//2), then np.fft.ifft along each other axis; ``keep`` is then
    None.  Entries near the float range may overflow to inf or NaN,
    quietly."""
    full = _full_shape(x, y)
    s = [length(n) for n in full]
    # The kept part as cyclic positions: a correlation's index j is its
    # lag j - (m-1), m the extent of x, and a lag -k sits at position L-k.
    spans = []
    for n, k, m in zip(full, keep or (slice(None),) * x.ndim, x.shape):
        r = range(n)[k]
        spans.append(range(r.start + 1 - m, r.stop + 1 - m) if flip else r)
    factor = None
    with np.errstate(over="ignore", invalid="ignore"):
        if flip and y is x:
            spec = _spectrum(x, s, real) if memo is None else \
                memo(lambda: _spectrum(x, s, real))
            # Each product replaces X, so that it is let go before the
            # inverse (a Sequence's memo keeps its own reference).
            if real:   # for a real x, X(-w) is conj X(w)
                spec = spec * spec.conj()
            elif dual:
                spec = spec * _mirrored(spec)
            else:
                z = np.fft.ihfft((spec * spec.conj()).real, axis=-1)
                for ax in range(x.ndim - 1):
                    np.fft.ifft(z, axis=ax, out=z)
                return _lags(z, spans, hermitian=True)
        else:
            own, other = (x, y) if x.size >= y.size else (y, x)
            spec, factor = _spectrum(own, s, real), _spectrum(other, s, real)
            if flip:
                turned = spec if own is x else factor
                if dual:
                    turned[...] = _mirrored(turned)
                else:
                    np.conjugate(turned, out=turned)
            spec *= factor
        if x.ndim > 1:   # a 1-D product skips this bookkeeping
            for ax in range(x.ndim - 1):
                np.fft.ifft(spec, axis=ax, out=spec)
            spec = _lags(spec, spans[:-1] + [None])   # lets go of a full copy
        # The factor's memory has room for the result: fresh pages would
        # each cost a fault.  With one operand numpy takes a fresh buffer.
        shape, z = spec.shape[:-1] + (s[-1],), None
        if factor is not None:
            z = factor.reshape(-1).view(np.float64 if real else np.complex128)
            z = z[:math.prod(shape)].reshape(shape)
        z = (np.fft.irfft if real else np.fft.ifft)(spec, s[-1], out=z)
        return _lags(z, [None] * (x.ndim - 1) + spans[-1:])


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


def _fft_error_bound(full: list, norms2: float) -> float:
    """Percival's bound (Math. Comp. 72, 2003) on the largest error of an
    FFT convolution whose full result has the extents ``full``, over
    power-of-two lengths 2^n (n summed over the axes):
    ||x||_2 ||y||_2 [(1+e)^3n (1+e*sqrt5)^(3n+1) (1+b)^3n - 1], with
    e = b = 2^-53 the round-off of the arithmetic and of the twiddle
    factors; ``norms2`` is ||x||_2^2 ||y||_2^2.  The theorem is proved for
    the radix-2 complex FFT; numpy's mixed-radix real transform is taken to
    stay within it.  It bounds each spectrum by the error of one transform,
    so it covers an autocorrelation whose two spectra are one."""
    n = sum((m - 1).bit_length() for m in full)
    growth = math.expm1(6 * n * math.log1p(_EPS)
                        + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5)))
    return math.sqrt(norms2) * growth


def _is_int(x: np.ndarray) -> bool:
    """Float entries that are all integers below 2^53.  Up to 64 leading
    entries are tested on their own first, so that a float array is
    rejected without a pass over all of it."""
    head = x[(0,) * (x.ndim - 1)][:64]
    if head.size < x.size and np.count_nonzero(head != np.rint(head)):
        return False
    return bool(np.abs(x).max() < 2.0 ** 53) and \
        not np.count_nonzero(x != np.rint(x))


def _short(x: np.ndarray, y: np.ndarray) -> bool:
    """1-D operands that np.convolve takes: |x| |y| <= _DIRECT_MAX."""
    return x.ndim == 1 and x.size * y.size <= _DIRECT_MAX


def _method(x: np.ndarray, y: np.ndarray) -> str:
    """How :func:`_convolve` computes x * y: 'direct' (np.convolve), 'rfft'
    or 'fft' (float transforms), or 'limbs' (:func:`_exact`) for
    integer-valued real inputs whose float direct sum could round.  The
    norms are taken only by the decision that reads them, and once for an
    operand passed as both x and y."""
    small = _short(x, y)
    if x.dtype.kind == "c" or y.dtype.kind == "c":
        return "direct" if small else "fft"
    if small:
        # Exact for integer inputs below the bound: by Cauchy-Schwarz every
        # partial sum is an integer of magnitude at most ||x|| ||y|| < 2^52.
        nx = _sumsq(x)
        if nx * (nx if y is x else _sumsq(y)) < 2.0 ** 104 or \
                not (_is_int(x) and _is_int(y)):
            return "direct"
    elif not (_is_int(x) and _is_int(y)):
        return "rfft"
    return "limbs"


def _limb_plan(x: np.ndarray, y: np.ndarray) -> tuple:
    """(k, b, bound) for :func:`_exact` on integer-valued float arrays x
    and y: k limbs of b bits each, the least k that the route proves
    exact, and bound = max|x| max|y| min(|x|, |y|) as a Python int, above
    every |result| (b and bound are None for k = 1).

    Short 1-D inputs (:func:`_short`) take k = 1 when bound < 2^63
    (np.convolve in int64), else the least k with
    min(|x|, |y|) k 4^b <= 2^53, so that no partial sum of a diagonal
    reaches 2^53.  Other inputs take k = 1 when Percival's certificate on
    the actual norms is below 1/2, else the least k whose certificate on
    the limb stacks, each of norm^2 at most k |v| 4^b, is below 1/2.  The
    norms are taken only on that route and max|v| only where read, once for
    an operand passed as both x and y."""
    short, count = _short(x, y), min(x.size, y.size)
    if not short:
        full, nx = _full_shape(x, y), _sumsq(x)
        if _fft_error_bound(full, nx * (nx if y is x else _sumsq(y))) < 0.5:
            return 1, None, None
    # The ufunc: no method wrapper.
    tx = float(np.maximum.reduce(np.abs(x), axis=None))
    ty = tx if y is x else float(np.maximum.reduce(np.abs(y), axis=None))
    bound = int(tx) * int(ty) * count
    if short:
        if bound < 2 ** 63:
            return 1, None, None

        def fits(k, b):
            return count * k << 2 * b <= 1 << 53
    else:
        def fits(k, b):
            return _fft_error_bound([2 * k - 1] + full, k * k * x.size
                                    * y.size * 16.0 ** b) < 0.5
    # Every |entry| < 2^bits, and b <= 26, as no limb product may pass 2^53.
    bits = math.frexp(max(tx, ty))[1]
    for k in range(max(2, -(-bits // 26)), bits + 1):
        b = -(-bits // k)
        if fits(k, b):
            return k, b, bound
    raise ArgumentError(f"operands of shapes {x.shape} and {y.shape} are "
                        "too large to correlate exactly")


def _split(v: np.ndarray, k: int, b: int) -> np.ndarray:
    """The k limbs of b bits of an integer-valued float array v whose
    entries lie below 2^(kb) in magnitude, stacked along a new leading
    axis: v = sum_a limb_a 2^(ab), every limb in [0, 2^b) but the top one,
    in [-2^b, 2^b).  Exact: limb_a = f_a - 2^b f_(a+1) with
    f_a = floor(v 2^(-ab)), and a power-of-two scaling of an integer stays
    exact down to 2^-1074."""
    shifts = -b * np.arange(k).reshape((k,) + (1,) * v.ndim)
    f = np.floor(np.ldexp(v, shifts))
    f[:-1] -= np.ldexp(f[1:], b)
    return f


def _digits(d: np.ndarray, b: int, bound: int) -> np.ndarray:
    """The totals sum_e d[e] 2^(be) over the leading axis of an int64 array
    d of exact diagonal sums, each |d[e]| <= 2^53, whose magnitudes are at
    most ``bound``, as digits t of b bits: sum_e t[e] 2^(be), every digit
    in [-1, 2^b] but the top one, which keeps the sign and lies in
    [-2, 1].  ceil(53 / b) + 1 rounds of carries along the digit axis, each
    taking every digit but the top one mod 2^b and adding the carry to the
    next: a carry shrinks by b bits a round, to -1, 0 or 1 in the last."""
    n = max(len(d), -(-bound.bit_length() // b)) + 1
    t = np.zeros((n,) + d.shape[1:], dtype=np.int64)
    t[:len(d)] = d
    for _ in range(-(-53 // b) + 1):
        carry = t[:-1] >> b
        t[:-1] &= (1 << b) - 1
        t[1:] += carry
    return t


@functools.lru_cache(maxsize=256)
def _word_layout(n: int, b: int) -> tuple:
    """How :func:`_join` packs n digits of b bits into 62-bit words:
    (shift, cut, rest, dest, starts, words): each digit's shift within the
    word its lowest bit lies in; the digits that reach bit 62 of their word
    (b + 1 bits, 2 for the top digit), how many of their bits stay below
    it, and the word their high part goes to; the first digit of each word;
    and the word count.  Kept per (n, b), as the bookkeeping costs more than
    a short join."""
    word, shift = np.divmod(b * np.arange(n), 62)
    width = np.full(n, b)
    width[-1] = 2
    cut = np.flatnonzero(shift + width >= 62)
    starts = np.searchsorted(word, np.arange(word[-1] + 1))
    return (shift, cut, 62 - shift[cut], word[cut] + 1, starts,
            word[-1] + 1 + (n - 1 in cut))


def _join(d: np.ndarray, b: int, bound: int) -> np.ndarray:
    """The totals sum_e d[e] 2^(be) of :func:`_digits`: in int64 when
    bound < 2^63 (the wrapping int64 sum is exact modulo 2^64, and every
    total lies in range), else as Python ints, which enter only through
    whole-array operations on ceil(bits / 62) words of 62 bits, bits the
    bit length of ``bound``.  Word w gathers every digit whose lowest bit
    lies in it, shifted into place; a digit that reaches bit 62 of its
    word is cut there, and its high part goes to the next word.  Each word
    stays within int64: the uncut digits add to at most 2^61 * 4/3, and
    the cut one to less than 2^62.  The words past ceil(bits / 62) fold
    into the last one kept, modulo 2^64, where its total fits."""
    col = (-1,) + (1,) * (d.ndim - 1)
    if bound < 2 ** 63:
        return (d << b * np.arange(len(d)).reshape(col)).sum(axis=0)
    t = _digits(d, b, bound)
    shift, cut, rest, dest, starts, n = _word_layout(len(t), b)
    high = t[cut] >> rest.reshape(col)
    t[cut] -= high << rest.reshape(col)
    words = np.zeros((n,) + d.shape[1:], dtype=np.int64)
    words[:len(starts)] = np.add.reduceat(t << shift.reshape(col), starts,
                                          axis=0)
    words[dest] += high
    top = -(-bound.bit_length() // 62)
    if len(words) > top:   # a word 2 or more above adds 0 modulo 2^64
        words[top - 1] += words[top] << 62
    out = words[top - 1].astype(object)
    for w in words[:top - 1][::-1]:
        out = (out << 62) + w
    return out


def _diagonals(x: np.ndarray, y: np.ndarray, flip: bool = False,
               keep=None) -> tuple:
    """(d, b, bound) of :func:`_exact`: for k >= 2 limbs of b bits, the
    int64 diagonal sums d, diagonal e on the leading axis, and a Python int
    above every |result|; for k = 1 the exact int64 result, with b and
    bound None."""
    k, b, bound = _limb_plan(x, y)
    short, rev = _short(x, y), (slice(None, None, -1),) * x.ndim
    if k == 1 and not short:
        z = _fft_convolve(x, y, _pow2_len, True, flip, keep=keep)
        return np.rint(z).astype(np.int64), None, None
    # Each operand in int64 (k = 1) or as its limb stack, limbs leading; x
    # reversed for a correlation, a view of y's form when y is x.
    if k == 1:
        fy = y.astype(np.int64)
        fx = fy if y is x else x.astype(np.int64)
        z = np.convolve(fx[rev] if flip else fx, fy)
        return z if keep is None else z[keep], None, None
    fy = _split(y, k, b)
    fx = fy if y is x else _split(x, k, b)
    if flip:
        fx = fx[(slice(None),) + rev]
    keep = (slice(None),) + tuple(keep or (slice(None),) * x.ndim)
    if short:
        rows = []
        for limbs in (fx, fy):
            z = np.zeros((limbs.shape[1], 2 * k - 1))
            z[:, :k] = limbs.T
            rows.append(z.ravel()[:z.size - k + 1])
        d = np.convolve(*rows).reshape(-1, 2 * k - 1).T[keep]
    else:
        d = np.rint(_fft_convolve(fx, fy, _pow2_len, True, keep=keep))
    return d.astype(np.int64), b, bound


def _exact(x: np.ndarray, y: np.ndarray, flip: bool = False,
           keep=None) -> np.ndarray:
    """The exact full linear convolution of integer-valued float arrays x
    and y of any magnitude, or with ``flip`` the correlation of x against
    y; ``keep`` (slices of the full result) is the part returned.  It is an
    int64 array when max|x| max|y| min(|x|, |y|) < 2^63, else an object
    array of Python ints.

    Each operand is split into k limbs of b bits (:func:`_split`; k and b
    from :func:`_limb_plan`).  The limb products summed along their
    diagonals a + c = e are exact integers of at most 2^53, which
    :func:`_join` recombines.  k = 1 is one np.convolve in int64 (short
    1-D inputs) or one FFT over power-of-two lengths rounded to the
    nearest integer (the others).  For k >= 2, x is reversed on every axis
    for a correlation, and

    * short 1-D inputs interleave the limbs, limb a of entry i at position
      i(2k-1) + a and zeros between, so that one float np.convolve puts
      diagonal e of output index s at s(2k-1) + e;
    * the others take one FFT over power-of-two lengths of the limb
      stacks, whose convolution along the limb axis is the diagonals."""
    d, b, bound = _diagonals(x, y, flip, keep)
    return d if b is None else _join(d, b, bound)


def _convolve(x: np.ndarray, y: np.ndarray, flip: bool = False,
              dual: bool = False, memo=None, keep=None) -> np.ndarray:
    """Full linear convolution of two arrays of equal rank by the method
    :func:`_method` picks, or with ``flip`` the correlation of x against y;
    ``keep`` (slices of the full result) is the part returned.  The float
    FFT paths are one call to :func:`_fft_convolve`, whose one-operand case
    is the autocorrelation (x passed as both x and y); ``memo`` reaches it
    on the 'rfft' and 'fft' paths only.  The 'direct' path reverses x, and
    conjugates it unless ``dual``, after the pick, which the reversal would
    not change.  The 'limbs' path is :func:`_exact`, which returns the
    exact integer result in int64 or Python ints (object)."""
    method = _method(x, y)
    if method == "limbs":
        return _exact(x, y, flip, keep)
    if method != "direct":
        return _fft_convolve(x, y, _fast_len, method == "rfft", flip, dual,
                             keep, memo)
    if flip:
        x = x[::-1]
        if not dual and x.dtype.kind == "c":
            x = x.conj()
    z = np.convolve(x, y)
    return z if keep is None else z[keep]


def _real(x: np.ndarray) -> np.ndarray:
    """The real part when every imaginary part is zero, else x itself."""
    return x if np.count_nonzero(x.imag) else x.real


def _grid(a) -> np.ndarray:
    """``a`` as a float64 array, or as a complex128 one when some imaginary
    part is non-zero: a Sequence's elements through :func:`_real` once,
    kept in its memo, any other real input cast to float64 (a float64 array
    is itself), and complex or object input cast to complex128, then
    through :func:`_real`.  Input that does not cast is an ArgumentError."""
    if isinstance(a, Sequence):
        return a._memoised("grid", lambda: _real(a.elements))
    arr = _cast(a)
    if arr.dtype.kind in "cO":
        arr = _real(_cast(arr, np.complex128))
    else:
        arr = _cast(arr, np.float64)
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


def _tolerance(tol) -> float:
    """tol, a real number positive and finite, or an ArgumentError."""
    what = "tol must be positive and finite"
    tol = _number(tol, what, (int, float))
    if tol <= 0:
        raise ArgumentError(f"{what}, got {tol!r}")
    return tol


def _fold(r: np.ndarray, shape: tuple) -> np.ndarray:
    """Periodic correlation from the aperiodic one: p_k = r_k + r_{k-N} for
    k = 0..N-1 on every axis; inf - inf is NaN, quietly."""
    for ax, n in enumerate(shape):
        r = np.moveaxis(r, ax, 0)
        p = r[n - 1:].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            p[1:] += r[:n - 1]
        r = np.moveaxis(p, 0, ax)
    return r


def convolve(a, b) -> np.ndarray:
    """Full linear convolution of two arrays with the same number of axes;
    axis i of the result has length a.shape[i] + b.shape[i] - 1.  Methods and
    exactness as for :func:`correlate`."""
    x, y = _operands(a, b)
    return np.asarray(_convolve(x, y), dtype=np.complex128)


def _correlation(a, b, dual: bool, periodic: bool = False,
                 keep=None) -> tuple:
    """The operands of correlate(a, b) and the raw :func:`_convolve` result
    of their aperiodic correlation, or its part ``keep`` (slices).  An
    operand b with the same values as a makes an autocorrelation.  A
    Sequence correlated with itself keeps the full result, read-only, in
    its memo: one entry per sense, and one for both when the elements are
    real, where the two agree.  It also keeps the forward transform X that
    an FFT autocorrelation takes: the other sense reads it instead of
    transforming again, and so does :func:`spectral_flatness`."""
    x, y = _operands(a, b)
    if periodic and x.shape != y.shape:
        raise ArgumentError("periodic correlation needs equal shapes, got "
                            f"{x.shape} and {y.shape}")
    if y is not x and _same_values(x, y):
        y = x   # an autocorrelation all the same, computed as one
    key = "dual" if dual and x.dtype.kind == "c" else "conj"
    if y is not x:
        return x, _convolve(x, y, flip=True, dual=key == "dual", keep=keep)
    r = _kept(a, key, lambda: _convolve(
        x, x, flip=True, dual=key == "dual",
        memo=functools.partial(_kept, a, "transform")))
    return x, r if keep is None else r[keep]


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
      ||a||_2 ||b||_2 < 2^52), by splitting each into k limbs of b bits
      (:func:`_exact`): one np.convolve for 1-D inputs with
      |a|*|b| <= 2^17, in int64 at k = 1 (when
      max|a| * max|b| * min(|a|, |b|) < 2^63), else of interleaved limbs;
      one FFT over power-of-two lengths for the others, rounded to the
      nearest integer under Percival's round-off certificate
      ||a||_2 ||b||_2 [(1+e)^3n (1+e*sqrt5)^(3n+1) (1+e)^3n - 1] < 1/2
      (e = 2^-53; 2^n is the product of the power-of-two transform
      lengths), taken at k = 1 on the inputs and otherwise on their limb
      stacks.

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
    tol = _tolerance(tol)
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
    tol = _tolerance(tol)
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
    """Merit factor as an exact Fraction; requires integer-valued elements,
    of any magnitude.  The lags come from the 'limbs' method of
    :func:`correlate` (:func:`_exact`), whose diagonals give their sum of
    squares directly when there is more than one limb."""
    a = _one_d(f, "merit_factor_exact", 2)
    x = a.real
    if not math.isfinite(np.maximum.reduce(np.abs(x))) or \
            np.count_nonzero(a.imag) or np.count_nonzero(x != np.rint(x)):
        raise ArgumentError("merit_factor_exact needs finite integers")
    r, b, bound = _diagonals(x, x, flip=True)
    if b is None:   # k = 1: the lags themselves, in int64
        energy = int(r[a.size - 1])
        # The squares sum in int64 when max|r_k|^2 times their count is
        # below 2^63, so that no partial sum can reach it, and in Python
        # ints otherwise.  |r_k| <= energy bounds max|r_k| without a pass.
        side, worst = r[a.size:], energy
        if worst * worst * side.size >= 2 ** 63:
            worst = int(np.abs(side).max())
        side = side.astype(np.int64 if worst * worst * side.size < 2 ** 63
                           else object, copy=False)
        sidepower = int(np.dot(side, side))
    else:
        # Diagonals e of 2^(be): sum_k r_k^2 = sum_u 2^(bu) c_u, c_u the
        # sum over e + f = u of the digits' Gram matrix G = t t^T, whose
        # entries and anti-diagonal sums stay below 2^63 by the plan's
        # bound on |lags| 4^b.
        energy = sum(v << b * e for e, v in
                     enumerate(r[:, a.size - 1].tolist()))
        t = _digits(r[:, a.size:], b, bound)
        skew = np.zeros((len(t), 2 * len(t)), dtype=np.int64)
        skew[:, :len(t)] = t @ t.T
        c = skew.ravel()[:len(t) * (2 * len(t) - 1)].reshape(len(t), -1)
        sidepower = sum(v << b * u for u, v in enumerate(c.sum(axis=0)
                                                         .tolist()))
    if energy == 0:
        raise ArgumentError("merit factor is undefined for the zero sequence")
    if sidepower == 0:
        raise ArgumentError("all off-peak lags are zero (infinite merit "
                            "factor)")
    return Fraction(energy * energy, 2 * sidepower)


def spectral_flatness(f) -> float:
    """min/max |F| over the L = _fast_len(2N-1) DFT bins of f zero-padded
    to L (the smallest 2^a 3^b 5^c >= 2N-1, the grid of its FFT
    autocorrelation); 1 means a perfectly flat spectrum.  A Sequence reads
    the transform X its FFT autocorrelation kept, or computes and keeps it,
    so the value is the same in either order and for the elements as an
    ndarray, bit for bit.  |X| is taken, not |X|^2, so that entries up to
    the float range do not overflow."""
    a = _one_d(f, "spectral_flatness")

    def transform():   # the call the FFT autocorrelation makes
        x = _real(a)
        return _spectrum(x, [_fast_len(2 * x.size - 1)], x.dtype.kind == "f")

    spec = np.abs(_kept(f, "transform", transform))
    top = float(np.maximum.reduce(spec))   # the ufunc: no method wrapper
    if top == 0:
        raise ArgumentError("spectral flatness is undefined for the zero "
                            "sequence")
    return float(np.minimum.reduce(spec)) / top


def dual_cross_spectrum(f, padded_length: int | None = None) -> np.ndarray:
    """DFT(f) * DFT(reversed f), from the one transform DFT(f): the spectrum
    whose inverse transform is the conjugate-free autocorrelation, over
    ``padded_length`` bins (2N-1 by default), a length :func:`dft` takes.
    For a dual-canonical sequence every bin magnitude stays within
    2*|f_1*f_N| of the dual peak |sum f_i^2|.  Bins beyond the float range
    are inf or NaN, quietly."""
    a = _one_d(f, "dual_cross_spectrum")
    if padded_length is None:
        padded_length = 2 * a.size - 1
    # The transform of reversed f is w^((N-1)k) X[-k mod L], w = e^(-2 pi i/L):
    # one transform, the phase's exponent reduced mod L in integers.
    spec = dft(a, padded_length)
    k = np.arange(padded_length, dtype=np.int64)
    phase = np.exp(-2j * np.pi / padded_length * ((a.size - 1) * k
                                                  % padded_length))
    with np.errstate(over="ignore", invalid="ignore"):
        return spec * _mirrored(spec) * phase
