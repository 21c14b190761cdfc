"""Independent brute-force reference implementations used to validate the
library.  Everything here is pure Python over complex numbers: no numpy, no
shared code with the package under test.
"""

import cmath
import itertools
import math
from fractions import Fraction


def brute_xcorr(f, g, conjugate=True):
    """All |f|+|g|-1 correlation lags, k from -(|f|-1) to |g|-1."""
    f = [complex(v) for v in f]
    g = [complex(v) for v in g]
    out = []
    for k in range(-(len(f) - 1), len(g)):
        acc = 0j
        for i, fi in enumerate(f):
            j = i + k
            if 0 <= j < len(g):
                acc += (fi.conjugate() if conjugate else fi) * g[j]
        out.append(acc)
    return out


def brute_autocorr(f, conjugate=True):
    return brute_xcorr(f, f, conjugate)


def brute_periodic_autocorr(f):
    f = [complex(v) for v in f]
    n = len(f)
    return [sum(f[i].conjugate() * f[(i + k) % n] for i in range(n))
            for k in range(n)]


def brute_energy(f):
    return sum(abs(complex(v)) ** 2 for v in f)


def brute_is_canonical(f, tol=1e-9, dual=False):
    """Interior residual (all lags but 0 and +-(N-1)) at most tol * energy."""
    r = brute_autocorr(f, conjugate=not dual)
    n = len(list(f))
    interior = r[1:n - 1] + r[n:-1]
    worst = max((abs(v) for v in interior), default=0.0)
    return worst <= tol * brute_energy(f)


def brute_is_perfect(f, tol=1e-9):
    r = brute_periodic_autocorr(f)
    return max(abs(v) for v in r[1:]) <= tol * abs(r[0])


def brute_merit_factor_exact(ints):
    """Golay merit factor E^2 / (2 sum_{k>0} r_k^2) over exact integers."""
    ints = [int(v) for v in ints]
    n = len(ints)
    energy = sum(v * v for v in ints)
    side = 0
    for k in range(1, n):
        rk = sum(ints[i] * ints[i + k] for i in range(n - k))
        side += rk * rk
    return Fraction(energy * energy, 2 * side)


def brute_dft(f, length):
    """Negative-exponent unnormalized DFT by direct summation."""
    import cmath
    f = [complex(v) for v in f]
    out = []
    for k in range(length):
        acc = 0j
        for i, v in enumerate(f):
            acc += v * cmath.exp(-2j * cmath.pi * k * i / length)
        out.append(acc)
    return out


def smooth_length(n):
    """The smallest m >= n with no prime factor above 5, by trial
    division."""
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1
    return next(m for m in range(n, 2 * n + 1) if smooth(m))


def brute_spectral_flatness(f, length):
    """min/max magnitude over the ``length`` bins of brute_dft(f)."""
    mags = [abs(v) for v in brute_dft(f, length)]
    return min(mags) / max(mags)


def brute_autocorr_2d(grid, conjugate=True):
    """Full aperiodic 2-D autocorrelation (conjugating unless not
    ``conjugate``) as nested lists."""
    rows = len(grid)
    cols = len(grid[0])
    out = []
    for k1 in range(-(rows - 1), rows):
        row = []
        for k2 in range(-(cols - 1), cols):
            acc = 0j
            for i in range(rows):
                for j in range(cols):
                    i2, j2 = i + k1, j + k2
                    if 0 <= i2 < rows and 0 <= j2 < cols:
                        v = complex(grid[i][j])
                        acc += (v.conjugate() if conjugate else v) \
                            * complex(grid[i2][j2])
            row.append(acc)
        out.append(row)
    return out


def brute_autocorr_lag(f, k, conjugate=True):
    """One lag r_k = sum_i c(f_i) f_{i+k} of a 1-D autocorrelation."""
    f = [complex(v) for v in f]
    return sum(((v.conjugate() if conjugate else v) * f[i + k]
                for i, v in enumerate(f) if 0 <= i + k < len(f)), 0j)


def brute_autocorr_2d_lag(grid, k1, k2, conjugate=True):
    """One lag (k1, k2) of a 2-D autocorrelation, as brute_autocorr_2d."""
    rows, cols = len(grid), len(grid[0])
    acc = 0j
    for i in range(max(0, -k1), min(rows, rows - k1)):
        for j in range(max(0, -k2), min(cols, cols - k2)):
            v = complex(grid[i][j])
            acc += (v.conjugate() if conjugate else v) \
                * complex(grid[i + k1][j + k2])
    return acc


def brute_blur(obj, h):
    """Full linear convolution of two 1-D lists."""
    obj = [complex(v) for v in obj]
    h = [complex(v) for v in h]
    out = [0j] * (len(obj) + len(h) - 1)
    for i, o in enumerate(obj):
        for j, v in enumerate(h):
            out[i + j] += o * v
    return out


def brute_blur_2d(obj, h):
    """Full linear convolution of two 2-D nested lists."""
    ro, co = len(obj), len(obj[0])
    rh, ch = len(h), len(h[0])
    out = [[0j] * (co + ch - 1) for _ in range(ro + rh - 1)]
    for i in range(ro):
        for j in range(co):
            for k in range(rh):
                for m in range(ch):
                    out[i + k][j + m] += complex(obj[i][j]) * complex(h[k][m])
    return out


def brute_xcorr_int(f, g):
    """brute_xcorr (conjugating) of real integer sequences in exact Python
    ints."""
    f = [int(v) for v in f]
    g = [int(v) for v in g]
    return [sum(fi * g[i + k] for i, fi in enumerate(f) if 0 <= i + k < len(g))
            for k in range(-(len(f) - 1), len(g))]


def brute_periodic_autocorr_int(f):
    """Cyclic autocorrelation of a real integer sequence in exact Python
    ints."""
    f = [int(v) for v in f]
    n = len(f)
    return [sum(f[i] * f[(i + k) % n] for i in range(n)) for k in range(n)]


def brute_xcorr_2d_int(f, g):
    """Full 2-D correlation out[k1][k2] = sum f[i][j] * g[i+k1][j+k2] of real
    integer grids (nested lists) in exact Python ints."""
    rf, cf, rg, cg = len(f), len(f[0]), len(g), len(g[0])
    out = []
    for k1 in range(-(rf - 1), rg):
        row = []
        for k2 in range(-(cf - 1), cg):
            acc = 0
            for i in range(rf):
                for j in range(cf):
                    i2, j2 = i + k1, j + k2
                    if 0 <= i2 < rg and 0 <= j2 < cg:
                        acc += int(f[i][j]) * int(g[i2][j2])
            row.append(acc)
        out.append(row)
    return out


def _entries(grid):
    """{index tuple: value} of an n-D nested list, and its shape."""
    shape = []
    probe = grid
    while isinstance(probe, list):
        shape.append(len(probe))
        probe = probe[0]
    values = {}
    for idx in itertools.product(*map(range, shape)):
        v = grid
        for i in idx:
            v = v[i]
        values[idx] = v
    return values, shape


def _nested(shape_ranges, value):
    """Nested lists of value(k) over the product of the per-axis ranges."""
    def build(prefix, axis):
        if axis == len(shape_ranges):
            return value(prefix)
        return [build(prefix + (k,), axis + 1) for k in shape_ranges[axis]]
    return build((), 0)


def brute_xcorr_nd(f, g, conjugate=True):
    """Full n-D correlation out[k] = sum_i c(f[i]) * g[i+k] of nested lists,
    k from -(shape_f - 1) to shape_g - 1 on every axis, c conjugation when
    ``conjugate``; exact in Python ints for Python-int entries."""
    fv, sf = _entries(f)
    gv, sg = _entries(g)

    def lag(k):
        acc = 0
        for i, v in fv.items():
            j = tuple(a + b for a, b in zip(i, k))
            if j in gv:
                acc += (v.conjugate() if conjugate else v) * gv[j]
        return acc
    return _nested([range(-(m - 1), n) for m, n in zip(sf, sg)], lag)


def brute_blur_nd(obj, h):
    """Full n-D linear convolution out[k] = sum_i obj[i] * h[k-i] of nested
    lists."""
    ov, so = _entries(obj)
    hv, sh = _entries(h)

    def entry(k):
        acc = 0j
        for i, v in ov.items():
            j = tuple(a - b for a, b in zip(k, i))
            if j in hv:
                acc += v * hv[j]
        return acc
    return _nested([range(m + n - 1) for m, n in zip(so, sh)], entry)


def _principal_sqrt(s):
    """sqrt(s) on the principal branch, real for a real s >= 0."""
    if isinstance(s, complex) or s < 0:
        return cmath.sqrt(s)
    return math.sqrt(s)


def brute_h_arb(N, s):
    """harb element by element: 1/(s-1), the interior (-1)^k t^(1-k) for
    k = 2..N-1 and (-1)^N t^(3-N)/(s-1), with t = sqrt(s)."""
    t = _principal_sqrt(s)
    a = 1 / (s - 1)
    return ([a] + [(-1) ** k * t ** (1 - k) for k in range(2, N)]
            + [(-1) ** N * t ** (3 - N) * a])


def brute_perfect_arb(N, s):
    """perfect_arb element by element: the lead
    (1 + (-1)^(1+L) t^(2-L))/(s-1), L = N-1, then harb's interior."""
    t = _principal_sqrt(s)
    L = N - 1
    return ([(1 + (-1) ** (1 + L) * t ** (2 - L)) / (s - 1)]
            + [(-1) ** k * t ** (1 - k) for k in range(2, N)])


def brute_h_tan(N, s):
    """htan element by element: s, the run (s^2-1) s^(k-1) for
    k = 1..h, h = (N-3)/2, the middle s^-h - s^h, the run (s^2-1) s^(-m-1)
    for m = h..1, and -1/s."""
    half = (N - 3) // 2
    return ([s] + [(s * s - 1) * s ** (k - 1) for k in range(1, half + 1)]
            + [s ** (-half) - s ** half]
            + [(s * s - 1) * s ** (-m - 1) for m in range(half, 0, -1)]
            + [-1 / s])
