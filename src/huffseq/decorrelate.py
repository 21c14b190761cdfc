"""Two-mask measurement protocol: signed/complex arrays as non-negative mask
sets, radiation-dose accounting, blur simulation, and correlation-based
reconstruction.

A signed array h is recorded as exposures through non-negative masks m_j
and recovered with fixed linear weights w_j as h = sum_j w_j m_j:

* ``split_sign``  - (positive part, negative part), weights (1, -1).
* ``pedestal``    - (h + kappa, kappa - h), weights (1/2, -1/2).
* ``split_complex`` - (Re+, Re-, Im+, Im-), weights (1, -1, i, -i).

By linearity the recombined measurement is one convolution:
sum_j w_j (obj * m_j) = obj * sum_j w_j m_j.

Real grids stay real: a real object, mask or measurement (a complex one
whose imaginary parts are all zero included) is taken as float64, and
:func:`blur`, :func:`measure` and :func:`reconstruct` return float64 unless
an operand is complex, in which case they return complex128, as
:func:`recombine` does.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ArgumentError, DomainError, _cast, _number
from .analysis import (_convolve, _correlation, _grid, _offpeak, _operands,
                       _sumsq, correlate, nd_autocorr)

_PEDESTAL = "pedestal must be a finite real number"
_WEIGHTS = {"split_sign": (1, -1), "pedestal": (0.5, -0.5),
            "split_complex": (1, -1, 1j, -1j)}


@dataclass(frozen=True)
class MaskSet:
    """Non-negative real mask grids encoding one signed/complex array."""

    masks: tuple
    kind: str
    pedestal: float = 0.0

    def __post_init__(self):
        if self.kind not in _WEIGHTS:
            raise ArgumentError(f"unknown mask kind {self.kind!r}")
        masks = tuple(_cast(m, np.float64) for m in self.masks)
        if len(masks) != len(self.weights):
            raise ArgumentError(f"{self.kind} takes {len(self.weights)} "
                                f"masks, not {len(masks)}")
        for m in masks:
            if m.shape != masks[0].shape:
                raise ArgumentError("masks must share one shape")
            if not np.all(np.isfinite(m) & (m >= 0)):
                raise ArgumentError("masks must be finite and non-negative")
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "pedestal", float(_number(
            self.pedestal, _PEDESTAL, (int, float))))

    @property
    def weights(self) -> tuple:
        """Linear weights w_j: the encoded array is sum_j w_j * masks[j]."""
        return _WEIGHTS[self.kind]


@dataclass(frozen=True)
class DoseReport:
    """Summed mask entries over all exposures (radiation-dose proxy)."""

    total_dose: float
    per_mask: tuple


def _require_real(arr: np.ndarray, what: str) -> np.ndarray:
    if arr.dtype.kind == "c":
        raise ArgumentError(f"{what} requires a real-valued array; use "
                            "split_complex for complex arrays")
    return arr


def _mask_autocorr(h, dual: bool) -> tuple:
    """(grid k of the mask h, its full autocorrelation r, r at the zero
    lag), conjugating unless ``dual``.  A zero-lag value that is not finite
    raises ArgumentError naming a non-finite entry of the mask, if it holds
    one, and DomainError otherwise."""
    k = _grid(h)
    r = correlate(k, dual=True) if dual else nd_autocorr(k)
    peak = complex(r[tuple(n - 1 for n in k.shape)])
    if not cmath.isfinite(peak):
        bad = np.argwhere(~np.isfinite(k))
        if bad.size:
            at = tuple(int(i) for i in bad[0])
            raise ArgumentError(f"mask entry {at} is {k[at]}, not finite")
        raise DomainError(f"mask's correlation peak (|peak| = {abs(peak)}) "
                          "is not finite: its entries are too large for "
                          "float64")
    return k, r, peak


def split_signs(h) -> MaskSet:
    """Masks (max(h,0), max(-h,0)): disjoint supports, exact recombination,
    and the lowest possible total dose for a two-mask encoding."""
    hr = _require_real(_grid(h), "split_signs")
    return MaskSet(masks=(np.maximum(hr, 0.0), np.maximum(-hr, 0.0)),
                   kind="split_sign")


def min_pedestal(h) -> float:
    """Smallest offset rendering both pedestal masks non-negative."""
    hr = _require_real(_grid(h), "min_pedestal")
    return float(max(hr.max(), -hr.min(), 0.0))


def pedestal_masks(h, kappa: float | None = None) -> MaskSet:
    """Masks (h + kappa, kappa - h).  ``kappa`` defaults to the smallest
    admissible offset; smaller values are rejected naming the violated
    bound."""
    hr = _require_real(_grid(h), "pedestal_masks")
    lo_neg = float(max(-hr.min(), 0.0))
    lo_pos = float(max(hr.max(), 0.0))
    kappa = max(lo_neg, lo_pos) if kappa is None else \
        float(_number(kappa, _PEDESTAL, (int, float)))
    if kappa < lo_neg:
        raise ArgumentError(
            f"pedestal {kappa} leaves h + kappa negative; need "
            f"kappa >= {lo_neg}")
    if kappa < lo_pos:
        raise ArgumentError(
            f"pedestal {kappa} leaves kappa - h negative; need "
            f"kappa >= {lo_pos}")
    return MaskSet(masks=(hr + kappa, kappa - hr), kind="pedestal",
                   pedestal=kappa)


def split_complex(h) -> MaskSet:
    """Four masks sign-splitting the real and imaginary parts:
    (Re+, Re-, Im+, Im-)."""
    arr = _grid(h)
    re, im = arr.real, arr.imag
    return MaskSet(masks=(np.maximum(re, 0.0), np.maximum(-re, 0.0),
                          np.maximum(im, 0.0), np.maximum(-im, 0.0)),
                   kind="split_complex")


def recombine(m: MaskSet) -> np.ndarray:
    """Invert the mask encoding: the weighted sum sum_j w_j m_j, real for
    the real encodings and complex for ``split_complex``."""
    return sum(w * mask for w, mask in zip(m.weights, m.masks))


def dose(m: MaskSet) -> DoseReport:
    """Total and per-mask sums of mask entries across all exposures."""
    per = tuple(float(np.sum(mask)) for mask in m.masks)
    return DoseReport(total_dose=float(sum(per)), per_mask=per)


def blur(obj, h) -> np.ndarray:
    """Full linear (aperiodic) convolution of an object with a mask array;
    output shape is obj.shape + h.shape - 1 per axis, float64 for real
    operands and complex128 otherwise."""
    o, k = _operands(obj, h)
    return np.asarray(_convolve(o, k), dtype=np.result_type(o, k))


def measure(obj, m: MaskSet) -> np.ndarray:
    """The recombined measurement sum_j w_j (obj * m_j), computed by
    linearity as the one convolution obj * sum_j w_j m_j; the pedestal
    pair's kappa-sized exposures then never cancel in floating point."""
    return blur(obj, recombine(m))


def delta_correlation_residual(h, dual: bool = False) -> tuple:
    """(peak, worst off-peak magnitude) of a mask's autocorrelation, in n-D:
    off-peak lags are those at no axis's extreme, apart from the center (see
    :mod:`huffseq.analysis`); the worst is 0.0 when there are none.  A peak
    that is not finite raises DomainError."""
    k, r, peak = _mask_autocorr(h, dual)
    return peak, _offpeak(r, tuple(n - 1 for n in k.shape))[1]


def reconstruct(s_t, h, dual: bool = False) -> np.ndarray:
    """De-blur a measurement by correlating it with the known mask and
    dividing by the correlation peak.

    ``dual`` selects the conjugate-free correlation (for masks that are
    delta-correlated in the dual sense).  A mask that is not delta-correlated
    at tolerance 1e-6 still reconstructs, but with a warning; a mask whose
    correlation peak is not finite raises DomainError.  The result is
    cropped to the original object's extent (offset h.shape-1 per axis):
    float64 for a real measurement and mask, divided by the real peak, and
    complex128 otherwise.
    """
    st, k = _grid(s_t), _grid(h)
    if st.ndim != k.ndim:
        raise ArgumentError("measurement and mask dimensionality differ")
    if any(sn < kn for sn, kn in zip(st.shape, k.shape)):
        raise ArgumentError("measurement is smaller than the mask; it cannot "
                            "be a full blur of any object")
    peak, worst = delta_correlation_residual(k, dual=dual)
    if abs(peak) == 0:
        raise ArgumentError("mask has zero correlation peak; cannot "
                            "normalize the reconstruction")
    if worst > 1e-6 * abs(peak):
        warnings.warn(
            f"mask is not delta-correlated (worst interior residual {worst:g}"
            f" vs peak {abs(peak):g}); reconstruction will carry artifacts",
            stacklevel=2)
    crop = tuple(slice(kn - 1, sn) for sn, kn in zip(st.shape, k.shape))
    est = np.asarray(_correlation(k, st, dual, keep=crop)[1],
                     dtype=np.result_type(k, st))
    return est / (peak.real if est.dtype.kind == "f" else peak)


@dataclass(frozen=True)
class ReconError:
    """Elementwise and relative-energy reconstruction error."""

    max_abs_error: float
    rel_l2_error: float


def recon_error(obj, obj_hat) -> ReconError:
    """Max |difference| and the L2 error relative to the reference object,
    taken on real arrays when both are real."""
    o, oh = _grid(obj), _grid(obj_hat)
    if o.shape != oh.shape:
        raise ArgumentError(
            f"shape mismatch: {o.shape} vs {oh.shape}")
    diff = oh - o
    err, denom = math.sqrt(_sumsq(diff)), math.sqrt(_sumsq(o))
    if diff.dtype.kind == "c":
        worst = float(np.abs(diff).max())
    else:   # no |diff| copy; a NaN propagates, and abs makes -0.0 0.0
        worst = abs(float(np.maximum(diff.max(), -diff.min())))
    return ReconError(max_abs_error=worst,
                      rel_l2_error=err / denom if denom else err)


def end_term_bound(h, obj_max: float = 1.0, dual: bool = False) -> float:
    """Worst-case reconstruction error from the mask's off-center
    autocorrelation terms: (sum of off-center |r|) * obj_max / |peak|.
    ``obj_max`` must be a real number, finite and >= 0.  A peak that is not
    finite raises DomainError."""
    what = "obj_max must be a real number, finite and >= 0"
    obj_max = _number(obj_max, what, (int, float))
    if obj_max < 0:
        raise ArgumentError(f"{what}, got {obj_max!r}")
    _, r, peak = _mask_autocorr(h, dual)
    peak = abs(peak)
    if peak == 0:
        raise ArgumentError("mask has zero correlation peak")
    return (float(np.abs(r).sum()) - peak) * obj_max / peak
