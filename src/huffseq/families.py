"""Generators for the delta-correlated sequence families, plus a registry of
fixed reference sequences that have no generative formula here.

Family naming scheme (used by :func:`generate` and the CLI):

========  =====================================================  ==========
id        construction                                           length
========  =====================================================  ==========
fib       Fibonacci-polynomial canonical sequence                N = 4n+3
hplus     sign-flipped Fibonacci form, five-term autocorrelation N = 4n+1
h9a/h9b   direct-solved canonical sequences                      9
h13a/b    direct-solved canonical sequences                      13
h17       scalable canonical sequence (radical helper T)         17
h17l      fixed canonical sequence with matched 1...1 ends       17
h11       canonical twin of the Fibonacci length-11 sequence     11
he4/he6   even-length canonical sequences                        4 / 6
harb      arbitrary-length canonical family                      any N >= 3
htan      tangent-spectrum canonical family                      odd N >= 5
perfect_  zero periodic autocorrelation at all non-zero shifts   N-1
fib/arb
========  =====================================================  ==========

All generators return a :class:`~huffseq.core.Sequence`.  The Fibonacci-based
paths and the fixed-length families work in Python numbers, so integer scale
parameters stay exact there.  The long families (harb, htan, perfect_arb) build
their geometric interiors as numpy arrays through :func:`_powers`, which raises
DomainError, before any power is taken, when an element would leave the float
range.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import partial

import numpy as np

from .core import ArgumentError, DomainError, Sequence, _fib_run, _number


def _sqrt(x):
    """Square root on the principal branch; stays real when it can."""
    if isinstance(x, complex) or x < 0:
        return cmath.sqrt(x)
    return math.sqrt(x)


def _check_scale(s, family: str, excluded=(0,)):
    """The scale s as a finite Python number (see core._number), or an
    ArgumentError, also when s is one of the family's ``excluded`` values."""
    s = _number(s, f"{family} requires a finite scale s")
    if s in excluded:
        raise ArgumentError(f"{family} requires s outside "
                            f"{{{', '.join(map(str, excluded))}}}")
    return s


# log of the largest float64 (about 709.78): e**x is in the float range,
# the subnormals included, for |x| up to this.
_LOG_MAX = math.log(sys.float_info.max)


def _check_float_range(worst: float, family: str) -> None:
    """DomainError when ``worst``, a bound on every element's |log|, is
    above _LOG_MAX."""
    if worst > _LOG_MAX:
        raise DomainError(f"{family} leaves the float range at this N and s: "
                          f"element |log| bound {worst:.0f} > {_LOG_MAX:.1f}")


def _powers(t, first: int, last: int, family: str, c=1):
    """c * t**k for k = first, first +- 1, ..., last: float64 for a real t,
    complex128 for a complex t through the polar form
    c * |t|^k * (cos k*theta + i sin k*theta), theta = arg t, which CPython's
    ``complex ** int`` also takes for |k| > 100.

    Before any power is taken, DomainError when some |c * t**k| would leave
    the float range: |log|c| + k log|t|| above log(max float).
    """
    r, theta = cmath.polar(t)
    log_t, log_c = math.log(r), math.log(abs(c))
    _check_float_range(max(abs(log_c + first * log_t),
                           abs(log_c + last * log_t)), family)
    step = 1 if last >= first else -1
    k = np.arange(first, last + step, step, dtype=np.float64)
    if isinstance(t, complex):
        p = np.empty(k.size, np.complex128)
        mag, phase = np.power(r, k), theta * k
        np.multiply(mag, np.cos(phase), out=p.real)
        np.multiply(mag, np.sin(phase), out=p.imag)
    else:
        p = np.power(r, k)
        if t < 0:  # pow(-r, k) = (-1)^k pow(r, k), without numpy's slow path
            odd = p[1 - first % 2::2]
            np.negative(odd, out=odd)
    if c != 1:
        p *= c
    return p


def _check_length(N, family: str, *, minimum: int, mod4=None, odd=False):
    N = _number(N, "length N must be an integer", (int,))
    if N < minimum:
        raise ArgumentError(f"family {family!r} requires N >= {minimum}")
    if mod4 is not None and N % 4 != mod4:
        raise ArgumentError(
            f"family {family!r} requires N ≡ {mod4} (mod 4), got N={N}")
    if odd and N % 2 == 0:
        raise ArgumentError(f"family {family!r} requires odd N, got N={N}")
    return N


def _fib_parts(N, s, family: str, *, minimum: int, mod4: int, sign=1):
    """Checked s and the parts of the Fibonacci layouts, M = (N-3)/2: the
    head 2sF_0 .. 2sF_M, the centre sF_{M+1} - 2F_M and the mirrored half
    sign*2sF_{-M} .. sign*2sF_{-1}.  An integer s recurs in exact ints, so
    DomainError first when |s| phi^M / sqrt(s^2 + 4), phi = e^asinh(|s|/2),
    leaves the float range: it is at most the element |2sF_M|, as
    F_M >= (phi^M - phi^-M) / sqrt(s^2 + 4) and phi^2M >= 2.  Past that
    the exact ints decide: DomainError when the largest of them does not
    round into float64.  Other scales overflow to inf, which
    :func:`generate` reports."""
    N = _check_length(N, family, minimum=minimum, mod4=mod4)
    s = _check_scale(s, family)
    M = (N - 3) // 2
    if isinstance(s, int):   # 1e-12 covers the rounding of the bound's log
        _check_float_range(M * math.asinh(abs(s) / 2) + math.log(abs(s))
                           - math.log(s * s + 4) / 2 - 1e-12, family)
    F = list(_fib_run(M + 1, s))
    head = [2 * s * f for f in F[:M + 1]]
    centre = s * F[M + 1] - 2 * F[M]
    if isinstance(s, int):
        try:
            float(max(map(abs, head + [centre])))
        except OverflowError:
            raise DomainError(f"{family} leaves the float range at this N "
                              "and s: its largest element rounds past the "
                              "largest float") from None
    mirror = [sign * 2 * s * (F[k] if k % 2 else -F[k])
              for k in range(M, 0, -1)]
    return s, head, centre, mirror


def gen_fibonacci(N: int, s) -> Sequence:
    """Canonical sequence of length N = 4n+3 built from Fibonacci polynomials.

    Layout: [1, 2sF_1 .. 2sF_M, sF_{M+1} - 2F_M, 2sF_{-M} .. 2sF_{-1}, -1]
    with M = (N-3)/2.  An integer s gives the correctly rounded elements
    of an exact Python-int recurrence.
    """
    s, head, centre, mirror = _fib_parts(N, s, "fib", minimum=7, mod4=3)
    return Sequence([1, *head[1:], centre, *mirror, -1], family="fib", scale=s)


def gen_h_plus(N: int, s) -> Sequence:
    """Length N = 4n+1 sequence whose autocorrelation has exactly five
    non-zero entries {1, -2*sqrt(P-2), P, -2*sqrt(P-2), 1}, the side values
    sitting at lags +-(N-1)/2.
    """
    s, head, centre, mirror = _fib_parts(N, s, "hplus", minimum=5, mod4=1,
                                         sign=-1)
    return Sequence([1, *head[1:], centre, *mirror, 1], family="hplus",
                    scale=s)


def gen_perfect_fib(N: int, s) -> Sequence:
    """Perfect array of length N-1 derived from the Fibonacci canonical form:
    both unit ends are dropped and one new element closes the cycle, leaving
    zero periodic autocorrelation at every non-zero shift.

    Layout: [sF_{M+1} - 2F_M, 2sF_{-M}, ..., 2sF_{-1}, 0, 2sF_1, ..., 2sF_M].
    """
    s, head, centre, mirror = _fib_parts(N, s, "perfect_fib", minimum=7,
                                         mod4=3)
    return Sequence([centre, *mirror, *head], family="perfect_fib", scale=s)


def gen_h9a(s) -> Sequence:
    """Length-9 canonical sequence with opposite-signed ends 1 ... -1."""
    s = _check_scale(s, "h9a")
    r = _sqrt(8 + s * s)
    # The two interior elements beside the center carry -s -+ s^2*r/2: the
    # unique values that zero every interior autocorrelation lag (the oracle
    # in the test suite locks this parse in).
    el = [1, s,
          s * (s - r) / 2,
          -s - s * s * r / 2,
          -s ** 3 * r / 4,
          -s + s * s * r / 2,
          s * (-s - r) / 2,
          s, -1]
    return Sequence(el, family="h9a", scale=s)


def gen_h9b(s) -> Sequence:
    """Length-9 canonical sequence with matched ends 1 ... 1."""
    s = _check_scale(s, "h9b")
    u = math.sqrt(2) * (4 + s * s)
    d = s * (4 + 2 * s * s - u) / 4
    e = s * s * (8 + 3 * s * s - 2 * u) / 8
    el = [1, s, s * s / 2, d, e, -d, s * s / 2, -s, 1]
    return Sequence(el, family="h9b", scale=s)


def gen_h13a(s) -> Sequence:
    """Length-13 canonical sequence with opposite-signed ends."""
    s = _check_scale(s, "h13a")
    r = _sqrt(4 + s * s)
    # Ninth element is (3+s^2)(s-r)/2: the unique value zeroing the lag-8
    # autocorrelation together with its mirror partner (oracle-locked).
    el = [1, s,
          s * (s + r) / 2,
          s * (-4 - s * s + s * r) / 2,
          -s * (3 + s * s) * (s + r) / 2,
          s * (2 + s * s - s * r * (5 + 2 * s * s)) / 2,
          -s * r * (1 + 3 * s * s + s ** 4),
          s * (2 + s * s + s * r * (5 + 2 * s * s)) / 2,
          s * (3 + s * s) * (s - r) / 2,
          s * (-4 - s * s - s * r) / 2,
          s * (-s + r) / 2,
          s, -1]
    return Sequence(el, family="h13a", scale=s)


def gen_h13b(s) -> Sequence:
    """Length-13 canonical sequence, polynomial in s (no radicals)."""
    s = _check_scale(s, "h13b", excluded=())
    s2 = s * s
    s4 = s2 * s2
    el = [1, s, s2 / 2,
          s * (8 + 3 * s2) / 16,
          s2 * (8 + s2) / 16,
          s * (-64 + 8 * s2 + s4) / 64,
          s2 * (-448 - 16 * s2 + s4) / 512,
          -s * (-64 + 8 * s2 + s4) / 64,
          s2 * (8 + s2) / 16,
          -s * (8 + 3 * s2) / 16,
          s2 / 2, -s, 1]
    return Sequence(el, family="h13b", scale=s)


def gen_h17(s) -> Sequence:
    """Length-17 canonical sequence, palindromic layout
    [a,b,c,d,e,f,g,h,i,j,k,l,m,d,-c,b,-a] with radical helper T(s).

    Real s only; the radicand of T is rejected when negative (it is in fact
    non-negative for every real s, since each sqrt(2)-reduced coefficient of
    the radicand polynomial is positive, but the guard stays).
    """
    s = _check_scale(s, "h17", excluded=())
    if isinstance(s, complex) and s.imag != 0:
        raise ArgumentError("h17 requires a real scale parameter")
    s = float(s.real)
    rt2 = math.sqrt(2)
    s2 = s * s
    s4 = s2 * s2
    s6 = s4 * s2
    s8 = s4 * s4
    radicand = (512 * s2 + 480 * s4 + 160 * s6 + 17 * s8
                - (256 * s2 + 320 * s4 + 112 * s6 + 12 * s8) * rt2)
    if radicand < 0:
        raise DomainError(f"h17 radical is negative at s={s}")
    T = math.sqrt(radicand) / 8
    A = s2 + 3 * s4 / 8 - (s2 + s4 / 4) * rt2
    B = -s - s ** 3 / 2 + (s + s ** 3 / 4) * rt2
    a = 1.0
    b = s
    c = s2 / 2
    d = s * (4 + 2 * s2 - rt2 * (4 + s2)) / 4
    el = [a, b, c, d,
          A - T,
          B - s * T,
          (s2 / 2) * (1 - T),
          -s + B * T,
          -A * T,
          -s - B * T,
          -(s2 / 2) * (1 + T),
          B + s * T,
          -A - T,
          d, -c, b, -a]
    return Sequence(el, family="h17", scale=s)


def gen_h17_matched() -> Sequence:
    """Fixed length-17 canonical sequence with matched ends 1 ... 1 and peak
    autocorrelation close to 22.3.  Takes no scale parameter."""
    rt2 = math.sqrt(2)
    q1 = math.sqrt(2 - rt2)
    q2 = math.sqrt(34 - 7 * rt2)
    q3 = math.sqrt(2 * (10 + rt2))
    q4 = math.sqrt(1460 + 782 * rt2)
    q5 = math.sqrt(394 + 223 * rt2)
    half = [0.5, 1, 1,
            -1 + 2 * rt2 - 2 * q1,
            -3 + 4 * rt2 - 4 * q1,
            1 + 6 * rt2 - 2 * q2,
            25 - 4 * rt2 - 4 * q3,
            79 + 16 * rt2 - 2 * q4,
            145 + 48 * rt2 - 8 * q5,
            -79 - 16 * rt2 + 2 * q4,
            25 - 4 * rt2 - 4 * q3,
            -1 - 6 * rt2 + 2 * q2,
            -3 + 4 * rt2 - 4 * q1,
            1 - 2 * rt2 + 2 * q1,
            1, -1, 0.5]
    return Sequence([2 * v for v in half], family="h17l", scale=1.0)


def gen_h11(s) -> Sequence:
    """Length-11 canonical sequence; shares its autocorrelation with the
    length-11 Fibonacci form while cross-correlating weakly with it.
    Integer-valued at s in {1, 4, 11}."""
    s = _check_scale(s, "h11")
    q = _sqrt(5 * (4 + s * s))
    el = [1, s,
          s * (s + q) / 2,
          s * (2 + s * s + q * s) / 2,
          s * (7 * s + 2 * s ** 3 - q) / 2,
          s * (1 + 4 * s * s + s ** 4),
          s * (-7 * s - 2 * s ** 3 - q) / 2,
          s * (2 + s * s - q * s) / 2,
          s * (-s + q) / 2,
          s, -1]
    return Sequence(el, family="h11", scale=s)


def gen_he4(s) -> Sequence:
    """Even-length (4) canonical sequence; unit-modulus elements at s = i."""
    s = _check_scale(s, "he4")
    r = _sqrt(4 + s * s)
    el = [1, s, s * (s + r) / 2, -(s + r) / 2]
    return Sequence(el, family="he4", scale=s)


def gen_he6(s) -> Sequence:
    """Even-length (6) canonical sequence with nested-radical helpers.

    Real s must keep the helper X(s) >= 0 and Z(s), u(s) != 0.  Analytically
    X stays positive for real s (it decays like 18/s^2 for large |s|), but
    the guard still fires where cancellation noise drives the evaluated X
    negative, so very large |s| can be rejected.
    """
    s = _check_scale(s, "he6")
    r = _sqrt(4 + s * s)
    W = (1 + s * s) * r
    X = (4 + s * s) * (2 + s * (3 + s * s) * (r + s * (3 + s * (s + r))))
    if not isinstance(X, complex) and X < 0:
        raise DomainError(f"he6 helper X(s) is negative at s={s}")
    Y = (12 * s * s + 7 * s ** 4 + s ** 6
         + (4 * s + s ** 3) * (1 + s * s) * r)
    Z = -Y + math.sqrt(2) * (2 + s * s) * _sqrt(X)
    if Z == 0:
        raise DomainError(f"he6 helper Z(s) vanishes at s={s}")
    # For [1, s, c, d, e, f] with u = (3s + s^3 + W)/2, e = s*u and f = -u,
    # the lag-4 sum vanishes identically and the lag-3/lag-2 conditions have
    # the unique solution d = u*(c - s^2), c = s^2*u*(s-u)/(1 + 2su - u^2);
    # the lag-1 condition then holds automatically.  d equals s*(Z-4)/4, so
    # c is recovered from it without the rational form's removable pole.
    u = (3 * s + s ** 3 + W) / 2
    if u == 0:   # for large negative s, 3s + s^3 cancels W in rounding
        raise DomainError(f"he6 helper u(s) vanishes at s={s}")
    d = s * (Z - 4) / 4
    c = s * s + d / u
    e = s * u
    f = -u
    return Sequence([1, s, c, d, e, f], family="he6", scale=s)


def _arb_parts(N, s, family: str, *, minimum: int):
    """Checked N and s, a = 1/(s-1), x = (-1)^N t^(3-N) with t = sqrt(s),
    and the interior (-1)^k t^(1-k), k = 2..N-1, shared by the
    arbitrary-length canonical and perfect families; s must avoid {0, 1}.
    DomainError when the interior or the end term x*a leaves the float
    range."""
    N = _check_length(N, family, minimum=minimum)
    s = _check_scale(s, family, excluded=(0, 1))
    t = _sqrt(s)
    interior = _powers(t, -1, 2 - N, family)
    odd = interior[1::2]
    np.negative(odd, out=odd)
    a = 1 / (s - 1)
    x = (-1) ** N * t ** (3 - N)   # t^(3-N) is in interior's checked range
    if not cmath.isfinite(x * a):
        raise DomainError(f"{family} end term leaves the float range")
    return N, s, a, x, interior


def gen_h_arb(N: int, s) -> Sequence:
    """Canonical sequence of any length N >= 3.

    Interior elements are (-1)^k * sqrt(s)^(1-k); the ends 1/(s-1) and
    (-1)^N * sqrt(s)^(3-N)/(s-1) close the construction.  s must avoid
    {0, 1}; the square root takes the principal branch.
    """
    N, s, a, x, interior = _arb_parts(N, s, "harb", minimum=3)
    el = np.empty(N, np.complex128)
    el[0], el[1:-1], el[-1] = a, interior, x * a
    return Sequence(el, family="harb", scale=s)


def gen_h_tan(N: int, s) -> Sequence:
    """Odd-length canonical family with geometric interior runs.

    Layout: [s, (s^2-1)s^{k-1} for k=1..(N-3)/2, s^{-(N-3)/2} - s^{(N-3)/2},
    (s^2-1)s^{-m-1} for m=(N-3)/2..1, -1/s]; s outside {0, 1, -1}.
    """
    N = _check_length(N, "htan", minimum=5, odd=True)
    s = _check_scale(s, "htan", excluded=(0, 1, -1))
    half = (N - 3) // 2
    # (s^2-1)s^k for k = -(half+1)..half-1: the second run is runs[:half],
    # the first runs[half+1:].  Both ends in the float range put the
    # middle's s^(+-half) in it too.
    runs = _powers(s, -half - 1, half - 1, "htan", c=s * s - 1)
    el = np.empty(N, np.complex128)
    el[0], el[1:half + 1] = s, runs[half + 1:]
    el[half + 1] = s ** (-half) - s ** half
    el[half + 2:-1], el[-1] = runs[:half], -1 / s
    return Sequence(el, family="htan", scale=s)


def gen_perfect_arb(N: int, s) -> Sequence:
    """Perfect array of length L = N-1 from the arbitrary-length canonical
    family: the parent's interior elements survive unchanged and a single new
    leading element w = (1 + (-1)^{1+L} sqrt(s)^{2-L})/(s-1) sets every
    non-zero cyclic correlation to zero.
    """
    N, s, _, x, interior = _arb_parts(N, s, "perfect_arb", minimum=4)
    el = np.empty(N - 1, np.complex128)
    el[0], el[1:] = (1 + x) / (s - 1), interior
    return Sequence(el, family="perfect_arb", scale=s)


_SQ3 = math.sqrt(3)

_FIXTURES = {
    "h5": (
        [1, 2, 2, -2, 1],
        "length-5 canonical integer sequence with unit end-correlations"),
    "quasi9": (
        [1, 1, -1, -3, -1, 1, -2, 1, -1],
        "length-9 integer sequence, all off-peak autocorrelation "
        "magnitudes <= 1"),
    "b13": (
        [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1],
        "binary Barker sequence of length 13"),
    "b13var": (
        [1, 1, 1, 1, 1, -1, -1, 1, 1, -1, -1, 1, -2],
        "13-element Barker-like variant with one term changed to -2"),
    "ternary_barker17": (
        [1, 1, 1, 0, -1, 0, 0, 0, 1, -1, 0, 1, -1, 0, 0, 1, -1],
        "ternary Barker sequence of length 17, merit factor 50/7"),
    "quasi6": (
        [1, 2, 1, -2, 1, -1],
        "even-length integer sequence with near-delta autocorrelation"),
    "quasi8a": (
        [1, 3, 4, 0, -3, 3, -2, 1],
        "even-length integer sequence with near-delta autocorrelation"),
    "quasi8b": (
        [1, -1, 0, 3, -6, 5, 5, 4],
        "even-length integer sequence with asymmetric end magnitudes"),
    "h86": (
        [-1, 0, 1, 0, -1, 0, 2, -1, -1, -2, 1, -2, 1, 2, 4, -2, -1, -2,
         -1, -5, 2, 4, 6, -5, 1, 0, -3, -5, 4, 2, 6,
         -3, -1, 5, -4, 1, 3, -4, 2, 5, -5, 6, 6, 4, -3, 0, 2, -2, 3, 1,
         0, 4, 4, 1, 5, 3, 6, -3, -2, -3, -2, 2, -6, -2, -6,
         2, 2, 1, 0, -4, 3, 1, 3, 0, -2, 1, 0, 3, -1, 0, -1, 0, 1, -1,
         1, -1],
        "length-86 integer sequence, 4-bit dynamic range, flat spectrum"),
    "complex7_i": (
        [0.5j, -1, -1j, 1, 1j, -1, -0.5j],
        "length-7 complex sequence: unit-modulus interior, half-magnitude "
        "ends, delta-correlated in the conjugate-free (dual) sense"),
    "complex7_unimodular": (
        [(1j - _SQ3) / 2, (-1 - 1j * _SQ3) / 2, (1j + _SQ3) / 2, -1,
         (-1j + _SQ3) / 2, (-1 + 1j * _SQ3) / 2, (-1j - _SQ3) / 2],
        "length-7 unit-modulus complex sequence, delta-correlated in the "
        "conjugate-free (dual) sense"),
}


def fixture_names() -> list:
    """Sorted names of the stored reference sequences."""
    return sorted(_FIXTURES)


def fixtures(name: str) -> Sequence:
    """Return a stored reference sequence by name."""
    try:
        elements, _ = _FIXTURES[name]
    except (KeyError, TypeError) as exc:
        known = ", ".join(fixture_names())
        raise ArgumentError(
            f"unknown fixture {name!r}; known fixtures: {known}") from exc
    return Sequence(elements, family=name, scale=1.0)


def fixture_description(name: str) -> str:
    try:
        return _FIXTURES[name][1]
    except (KeyError, TypeError) as exc:
        raise ArgumentError(f"unknown fixture {name!r}") from exc


# id -> (generator, takes N, takes s, one-line description)
FAMILY_INFO = {
    "fib": (gen_fibonacci, True, True,
            "Fibonacci-polynomial canonical sequence; N = 4n+3 >= 7, s != 0"),
    "hplus": (gen_h_plus, True, True,
              "five-term-autocorrelation sequence; N = 4n+1 >= 5, s != 0"),
    "h9a": (gen_h9a, False, True,
            "length-9 canonical sequence, ends 1 ... -1; s != 0"),
    "h9b": (gen_h9b, False, True,
            "length-9 canonical sequence, matched ends 1 ... 1; s != 0"),
    "h13a": (gen_h13a, False, True,
             "length-13 canonical sequence, ends 1 ... -1; s != 0"),
    "h13b": (gen_h13b, False, True,
             "length-13 canonical sequence, polynomial elements; any s"),
    "h17": (gen_h17, False, True,
            "length-17 canonical sequence; real s"),
    "h17l": (gen_h17_matched, False, False,
             "fixed length-17 canonical sequence with matched ends"),
    "h11": (gen_h11, False, True,
            "length-11 canonical sequence; s != 0"),
    "he4": (gen_he4, False, True,
            "length-4 canonical sequence; s != 0"),
    "he6": (gen_he6, False, True,
            "length-6 canonical sequence; s != 0 with X(s) >= 0, Z(s) != 0, "
            "u(s) != 0"),
    "harb": (gen_h_arb, True, True,
             "arbitrary-length canonical sequence; N >= 3, s outside {0,1}"),
    "htan": (gen_h_tan, True, True,
             "odd-length canonical sequence; N >= 5 odd, s outside "
             "{0,1,-1}"),
    "perfect_fib": (gen_perfect_fib, True, True,
                    "perfect (periodic) array of length N-1; N = 4n+3 >= 7"),
    "perfect_arb": (gen_perfect_arb, True, True,
                    "perfect (periodic) array of length N-1; N >= 4, "
                    "s outside {0,1}"),
}


def family_ids() -> list:
    """Sorted generator family ids."""
    return sorted(FAMILY_INFO)


def generate(family: str, n=None, s=None) -> Sequence:
    """Dispatch to a family generator (or the fixture store) by id.

    ``n``/``s`` are validated against what the family accepts: fixed-length
    families take no ``n`` (or the matching one), the fixed sequences take
    neither.
    """
    if family in FAMILY_INFO:
        kind, (fn, takes_n, takes_s, _) = "family", FAMILY_INFO[family]
    elif family in _FIXTURES:
        kind, fn = "fixture", partial(fixtures, family)
        takes_n = takes_s = False
    else:
        known = ", ".join(family_ids() + fixture_names())
        raise ArgumentError(f"unknown family {family!r}; known: {known}")
    if takes_n and n is None:
        raise ArgumentError(f"family {family!r} requires a length N")
    if not takes_s and s is not None:
        raise ArgumentError(f"{kind} {family!r} takes no scale parameter")
    try:
        seq = fn(*([n] if takes_n else []), *([s] if takes_s else []))
    except OverflowError:   # float s ** k in a fixed-length family
        raise DomainError(f"{family} overflows at this N and s: an "
                          "intermediate value leaves the float range") \
            from None
    if not takes_n and n is not None and \
            _number(n, "length N must be an integer", (int,)) != len(seq):
        raise ArgumentError(
            f"{kind} {family!r} has fixed length {len(seq)}, got N={n}")
    if not np.isfinite(seq.elements).all():
        raise DomainError(f"{family} overflows at this N and s: an element "
                          f"of its output is not finite")
    return seq
