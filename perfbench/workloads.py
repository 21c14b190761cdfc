"""The four benchmark workloads: seeded inputs, the timed op, and the checker.

Each workload is a closed loop with one client.  ``specs()`` yields the op
inputs, made only from the seed; ``run(spec)`` is the timed op and calls the
program only; ``check(spec, out)`` is untimed and classifies the op:

* ``pass``     - the output passes its family's defining check (or, for a
  CLI op, agrees with the library on the same input);
* ``rejected`` - the program raised a typed ``ArgumentError`` or
  ``DomainError`` (or the CLI exited 2 or 3), which is correct behaviour
  for input outside the domain;
* ``failed``   - anything else: a raw exception, ``inf``/``NaN``, an output
  failing its defining check, a CLI result disagreeing with the library, or
  a reported error bound that does not hold.

Independently of that class, ``check`` compares the program's numbers with
references that share no code with it (the brute-force oracles of
``tests/_oracles.py`` and FFT-based correlations written here).  A
disagreement there is a ``mismatch``: the program computed a wrong number,
and the run reports ``correct: false``.

The timed ops stay inside the inputs on which the program at this commit
gives a correct result (or a typed error), so a run's ``failed`` count is 0
and does not depend on how many ops fit in the run.  The program's known
defects lie outside that: ``audit_specs()`` is a fixed list of inputs over
the workload's whole range, run and checked untimed in every run, and its
``failed`` ops are reported beside the metrics.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import huffseq as H
from _oracles import (
    brute_autocorr,
    brute_merit_factor_exact,
    brute_periodic_autocorr,
)

PASS, REJECTED, FAILED = "pass", "rejected", "failed"
TOL = H.DEFAULT_TOL
TYPED = (H.ArgumentError, H.DomainError)
PERFECT = ("perfect_fib", "perfect_arb")


@dataclass(slots=True)
class Verdict:
    status: str
    detail: str = ""
    mismatch: str = ""     # non-empty: a reference disagrees with a number
    rel_err: float = 0.0   # worst relative numeric error seen by the checker


def _exc_verdict(exc: BaseException, stage: str) -> Verdict:
    status = REJECTED if isinstance(exc, TYPED) else FAILED
    return Verdict(status, f"{stage}: {type(exc).__name__}")


def _run_stages(stages) -> dict:
    """Run (name, thunk) stages in order; stop at the first exception."""
    out = {}
    for name, thunk in stages:
        try:
            out[name] = thunk(out)
        except Exception as exc:  # classified by the checker
            out["error"] = (name, exc)
            break
    return out


def _is_complex(arr: np.ndarray) -> bool:
    return bool(np.any(arr.imag != 0))


def _is_integer(arr: np.ndarray) -> bool:
    return not _is_complex(arr) and bool(
        np.all(arr.real == np.round(arr.real)))


def _energy(arr: np.ndarray) -> float:
    return float(np.sum(np.abs(arr) ** 2))


def _worst_outside(values, n: int, allowed_lags) -> float:
    """Largest |r_k| over aperiodic lags k (zero lag at index n-1) that are
    not in ``allowed_lags``."""
    mags = np.abs(np.asarray(values))
    keep = np.ones(mags.size, dtype=bool)
    for lag in allowed_lags:
        keep[n - 1 + lag] = False
    return float(mags[keep].max()) if keep.any() else 0.0


def _canonical_lags(n: int):
    return (0, n - 1, -(n - 1))


def _five_term_lags(n: int):
    half = (n - 1) // 2
    return (0, half, -half, n - 1, -(n - 1))


def _agrees(verdict: bool, ratio: float, tol: float = TOL) -> bool:
    """A pass/fail verdict agrees with a reference residual ratio unless the
    ratio is more than 10x away from the tolerance on the other side."""
    return bool(verdict) == (ratio <= tol) or tol / 10 < ratio < tol * 10


def fft_autocorr(arr: np.ndarray, dual: bool = False) -> np.ndarray:
    """All 2N-1 aperiodic autocorrelation lags by FFT (zero lag at N-1)."""
    n = arr.size
    size = 1 << (2 * n - 1).bit_length()
    other = arr[::-1] if dual else np.conj(arr)[::-1]
    return np.fft.ifft(np.fft.fft(arr, size) * np.fft.fft(other, size)
                       )[:2 * n - 1]


def fft_periodic(arr: np.ndarray, dual: bool = False) -> np.ndarray:
    """Cyclic autocorrelation at shifts 0..N-1 by FFT."""
    spec = np.fft.fft(arr)
    if dual:
        rev = np.roll(arr[::-1], 1)          # a_{-i mod N}
        return np.fft.ifft(spec * np.fft.fft(rev))
    return np.fft.ifft(np.conj(spec) * spec)


def _log_uniform_scale(rng, lo_dec: float, hi_dec: float):
    """Real, complex or integer scale with log-uniform magnitude.  The three
    kinds are equally likely: no measured usage mix exists to weight them."""
    kind = int(rng.integers(3))
    if kind == 2:
        return (int(rng.choice((-1, 1)))
                * int(10 ** rng.uniform(0, max(hi_dec, 0))))
    mag = 10 ** rng.uniform(lo_dec, hi_dec)
    if kind == 1:
        return complex(mag * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return float(rng.choice((-1.0, 1.0)) * mag)


def _family_length(rng, family: str, limit: int):
    """A valid length N <= limit for a family that takes one, else None."""
    takes_n = H.FAMILY_INFO.get(family, (None, False))[1]
    if not takes_n:
        return None
    if family in ("fib", "perfect_fib"):
        return 4 * int(rng.integers(1, (limit - 3) // 4 + 1)) + 3
    if family == "hplus":
        return 4 * int(rng.integers(1, (limit - 1) // 4 + 1)) + 1
    if family == "htan":
        return 2 * int(rng.integers(2, (limit - 1) // 2 + 1)) + 1
    return int(rng.integers(4, limit + 1))


# Each fixture's pinned property (the README and tests give these values).
def _fixture_ok(name: str, arr: np.ndarray, out: dict) -> bool:
    n, energy = arr.size, _energy(arr)
    values = out["profile"].values
    if name in ("h5", "complex7_i", "complex7_unimodular"):
        return _worst_outside(values, n, _canonical_lags(n)) <= TOL * energy
    if name in ("quasi9", "b13"):
        return _worst_outside(values, n, (0,)) <= 1 + 1e-12
    if name == "ternary_barker17":
        return out["merit_exact"] == Fraction(50, 7)
    if name == "b13var":
        return out["merit_exact"] == Fraction(64, 29)
    if name in ("quasi6", "quasi8a", "quasi8b"):
        return energy == {"quasi6": 12, "quasi8a": 49, "quasi8b": 113}[name]
    if name == "h86":
        return n == 86 and float(np.abs(arr).max()) <= 6
    raise KeyError(name)


class SweepShort:
    """Many short sequences: every family and fixture, N <= 131, scales
    log-uniform, real, complex and integer.  The audit covers 1e-12..1e12
    for every family; the timed ops keep to the part of it where the
    program is correct at this commit (``_decades``)."""

    name = "sweep-short"
    in_process = True
    round_size = 1
    N_LIMIT = 131          # the fib index limit caps Fibonacci lengths here
    ORACLE_SHARE = 1 / 16  # share of ops cross-checked with the oracles
    WIDE_DECADES = 12
    # Timed ops: |log10 s| * (N - 1), the decades the elements of an
    # N-element family span, stays within 100 (overflow, non-finite output
    # and non-canonical output start near 160).  he4 fails from |s| of
    # about 1e7.7, he6 from about 1.8 and at |s| = 1 near +-i (ROADMAP
    # item 3); their timed scales stay within 1e6 and 0.8.
    SPREAD_DECADES = 100
    FIXED_DECADES = {"he4": (-6, 6), "he6": (-12, -0.1)}
    AUDIT_OPS = 2048

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 1])
        self.ids = H.family_ids() + H.fixture_names()

    def _decades(self, family: str, n, wide: bool) -> tuple:
        """(low, high) decade of a drawn scale's magnitude."""
        if not wide and family in self.FIXED_DECADES:
            return self.FIXED_DECADES[family]
        dec = self.WIDE_DECADES
        if not wide and n is not None:
            dec = min(dec, self.SPREAD_DECADES / (n - 1))
        return -dec, dec

    def _draw(self, rng, wide: bool = False) -> dict:
        # Uniform over the 26 family and fixture ids: no measured usage mix
        # exists to weight them.
        family = self.ids[int(rng.integers(len(self.ids)))]
        n = _family_length(rng, family, self.N_LIMIT)
        s = None
        if family in H.FAMILY_INFO and H.FAMILY_INFO[family][2]:
            s = _log_uniform_scale(rng, *self._decades(family, n, wide))
        return dict(family=family, n=n, s=s,
                    oracle=bool(rng.random() < self.ORACLE_SHARE))

    def specs(self):
        while True:
            yield self._draw(self.rng)

    def warmup_specs(self):
        rng = np.random.default_rng([0, 1])
        return [self._draw(rng) for _ in range(32)]

    def audit_specs(self):
        """The same draw over the whole 1e-12..1e12 range, from a fixed
        seed: the known defects, counted identically in every run."""
        rng = np.random.default_rng([0, 5])
        return [self._draw(rng, wide=True) for _ in range(self.AUDIT_OPS)]

    def mix_key(self, spec) -> str:
        return spec["family"] if spec["family"] in H.FAMILY_INFO else "fixture"

    def run(self, spec) -> dict:
        family = spec["family"]

        def check(out):
            seq = out["seq"]
            dual = _is_complex(seq.elements)
            if family in PERFECT:
                # The library's perfect check is the conjugating one; a
                # complex perfect output is checked in the dual sense by
                # the benchmark (there is no library function for that).
                return None if dual else H.is_perfect(seq)
            if family in H.FAMILY_INFO and family != "hplus":
                return H.is_canonical(seq, dual=dual)
            return None

        def profile(out):
            seq = out["seq"]
            if family in H.FAMILY_INFO and family != "hplus":
                return None
            dual = _is_complex(seq.elements)
            return H.dual_autocorr(seq) if dual else H.autocorr(seq)

        def merit_exact(out):
            arr = out["seq"].elements
            return H.merit_factor_exact(arr) if _is_integer(arr) else None

        return _run_stages((
            ("seq", lambda out: H.generate(family, n=spec["n"], s=spec["s"])),
            ("check", check),
            ("profile", profile),
            ("merit", lambda out: H.merit_factor(out["seq"])),
            ("flatness", lambda out: H.spectral_flatness(out["seq"])),
            ("merit_exact", merit_exact),
        ))

    def check(self, spec, out) -> Verdict:
        family = spec["family"]
        if "seq" not in out:
            return _exc_verdict(out["error"][1], "generate")
        arr = out["seq"].elements
        if not np.all(np.isfinite(arr)):
            return Verdict(FAILED, f"{family}: non-finite output")
        verdict = Verdict(PASS)
        if "error" in out:
            stage, exc = out["error"]
            verdict = _exc_verdict(exc, f"{family} {stage}")
        elif not self._defining_ok(family, arr, out):
            verdict = Verdict(FAILED, f"{family}: fails its defining check")
        elif not (np.isfinite(out["merit"]) or out["merit"] == np.inf):
            verdict = Verdict(FAILED, f"{family}: merit factor {out['merit']}")
        if spec["oracle"]:
            verdict.mismatch, verdict.rel_err = self._oracle(arr, out)
        return verdict

    def _defining_ok(self, family, arr, out) -> bool:
        n, energy = arr.size, _energy(arr)
        if family in PERFECT:
            if out["check"] is not None:
                return bool(out["check"])
            off = np.abs(fft_periodic(arr, dual=True)[1:]).max()
            return bool(off <= TOL * energy)
        if family == "hplus":
            values = out["profile"].values
            worst = _worst_outside(values, n, _five_term_lags(n))
            return worst <= TOL * energy
        if family in H.FAMILY_INFO:
            return bool(out["check"])
        return _fixture_ok(family, arr, out)

    def _oracle(self, arr, out):
        """Compare with the pure-Python oracles; returns (mismatch, rel)."""
        energy = _energy(arr)
        if not (0 < energy < 1e300):
            return "", 0.0
        dual = _is_complex(arr)
        n = arr.size
        ref = np.array(brute_autocorr(arr.tolist(), conjugate=not dual))
        rel = 0.0
        prof = out.get("profile")
        if prof is not None:
            rel = float(np.abs(prof.values - ref).max()) / energy
        rep = out.get("check")
        if hasattr(rep, "worst_residual"):
            worst = _worst_outside(ref, n, _canonical_lags(n))
            rel = abs(rep.worst_residual - worst) / energy
            if not _agrees(rep.is_canonical, worst / energy):
                return "is_canonical verdict disagrees with oracle", rel
        elif rep is not None:
            per = np.array(brute_periodic_autocorr(arr.tolist()))
            ratio = float(np.abs(per[1:]).max()) / abs(per[0])
            if not _agrees(rep, ratio):
                return "is_perfect verdict disagrees with oracle", rel
        if rel > 1e-9:
            return f"autocorrelation differs from oracle by {rel:.2e}", rel
        mfe = out.get("merit_exact")
        if (mfe is not None
                and mfe != brute_merit_factor_exact(arr.real.tolist())):
            return "merit_factor_exact differs from oracle", rel
        return "", rel


class VerifyLong:
    """Long sequences (N about 1k-16k) from harb, htan and perfect_arb with
    scales near 1; every fourth op also runs merit_factor_exact on an
    integer sequence of a few thousand elements."""

    name = "verify-long"
    in_process = True
    SIZES = [round(1024 * 2 ** (k / 2)) for k in range(9)]   # 1024..16384
    ORDER = (8, 0, 4, 2, 6, 1, 5, 3, 7)   # interleave sizes within a round
    FAMILIES = ("harb", "htan", "perfect_arb")
    round_size = 27

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 2])

    # Small integer sequences whose Kronecker products are the integer
    # inputs of merit_factor_exact: (family, N, length, takes a sign).
    INT_FACTORS = (("fib", 7, 7, True), ("fib", 11, 11, True),
                   ("fib", 15, 15, True), ("fib", 19, 19, True),
                   ("hplus", 9, 9, True), ("hplus", 13, 13, True),
                   ("b13", None, 13, False),
                   ("ternary_barker17", None, 17, False),
                   ("quasi9", None, 9, False), ("h5", None, 5, False),
                   ("h86", None, 86, False))
    # One merit_factor_exact input length per exact slot of a round.
    EXACT_LENGTHS = [round(2048 * 2 ** (j / 6)) for j in range(7)]

    def _int_factors(self, rng, target: int) -> list:
        """Three factors whose product length is within 5% of ``target``."""
        combos = [c for c in itertools.combinations_with_replacement(
                      self.INT_FACTORS, 3)
                  if abs(math.prod(f[2] for f in c) / target - 1) <= 0.05]
        combo = combos[int(rng.integers(len(combos)))]
        return [(family, n, int(rng.choice((-1, 1))) if signed else None)
                for family, n, _, signed in combo]

    def _draw(self, rng, size: int, family: str, exact_len) -> dict:
        # Sizes jitter by 1% only, so every seed does about the same work.
        n = round(size * 2 ** rng.uniform(-0.015, 0.015))
        if family == "htan":
            n = min(n, 16383) | 1
        n = min(n, 16384)
        if family != "perfect_arb" and rng.random() < 1 / 2:
            # Unit-modulus complex scale, as likely as a real one: checked
            # in the dual sense.
            s = complex(np.exp(1j * rng.choice((-1, 1))
                               * rng.uniform(0.3, np.pi - 0.3)))
        else:
            # |log s| * N/2 <= 4 keeps every element within e^4 of 1.
            s = float(np.exp(rng.choice((-1, 1)) * rng.uniform(2, 8) / n))
        return dict(family=family, n=n, s=s, exact=None if exact_len is None
                    else self._int_factors(rng, exact_len))

    def _round(self):
        """27 ops: every size with every family; every fourth op also runs
        merit_factor_exact."""
        for i in range(27):
            exact = self.EXACT_LENGTHS[i // 4] if i % 4 == 0 else None
            yield (self.SIZES[self.ORDER[i % 9]],
                   self.FAMILIES[(i + i // 9) % 3], exact)

    def specs(self):
        while True:
            for size, family, exact in self._round():
                yield self._draw(self.rng, size, family, exact)

    def warmup_specs(self):
        rng = np.random.default_rng([0, 2])
        return [self._draw(rng, 16384, "perfect_arb", 4096)]

    def audit_specs(self):
        return []

    def mix_key(self, spec) -> str:
        kind = "complex" if isinstance(spec["s"], complex) else "real"
        return f"{spec['family']}/{kind}"

    def run(self, spec) -> dict:
        family = spec["family"]

        def check(out):
            seq = out["seq"]
            if family == "perfect_arb":
                return H.is_perfect(seq)
            return H.is_canonical(seq, dual=_is_complex(seq.elements))

        def exact(out):
            if spec["exact"] is None:
                return None
            parts = [H.generate(f, n=n, s=s) for f, n, s in spec["exact"]]
            ints = parts[0]
            for part in parts[1:]:
                ints = H.kron(ints, part)
            out["ints"] = ints
            return H.merit_factor_exact(ints)

        return _run_stages((
            ("seq", lambda out: H.generate(family, n=spec["n"], s=spec["s"])),
            ("profile", lambda out: H.autocorr(out["seq"])),
            ("check", check),
            ("merit", lambda out: H.merit_factor(out["seq"])),
            ("flatness", lambda out: H.spectral_flatness(out["seq"])),
            ("merit_exact", exact),
        ))

    def check(self, spec, out) -> Verdict:
        family = spec["family"]
        if "seq" not in out:
            return _exc_verdict(out["error"][1], "generate")
        arr = out["seq"].elements
        if not np.all(np.isfinite(arr)):
            return Verdict(FAILED, f"{family}: non-finite output")
        if "error" in out:
            return _exc_verdict(out["error"][1], f"{family} {out['error'][0]}")
        verdict = Verdict(PASS)
        if not out["check"]:
            verdict = Verdict(FAILED, f"{family}: fails its defining check")
        verdict.mismatch, verdict.rel_err = self._reference(family, arr, out)
        return verdict

    def _reference(self, family, arr, out):
        energy = _energy(arr)
        ref = fft_autocorr(arr)
        rel = float(np.abs(out["profile"].values - ref).max()) / energy
        if rel > 1e-9:
            return f"autocorr differs from FFT reference by {rel:.2e}", rel
        n = arr.size
        if family == "perfect_arb":
            per = fft_periodic(arr)
            ratio = float(np.abs(per[1:]).max()) / energy
        else:
            dual = _is_complex(arr)
            r = fft_autocorr(arr, dual=True) if dual else ref
            ratio = _worst_outside(r, n, _canonical_lags(n)) / energy
        if not _agrees(out["check"], ratio):
            return "defining-check verdict disagrees with FFT reference", rel
        side = float(np.sum(np.abs(ref[n:]) ** 2))
        merit = energy * energy / (2 * side)
        if abs(out["merit"] - merit) > 1e-6 * merit:
            return "merit_factor differs from FFT reference", rel
        if out["merit_exact"] is not None:
            float_merit = H.merit_factor(out["ints"])
            exact = float(out["merit_exact"])
            if abs(exact - float_merit) > 1e-9 * float_merit:
                return "merit_factor_exact differs from float merit", rel
        return "", rel


class Deblur2D:
    """Two-mask de-blur round trips: a seeded 256x256 or 512x512 object, a
    fib7 x fib7 or fib19 x fib19 mask, split-sign or pedestal encoding."""

    name = "deblur-2d"
    in_process = True
    # A fixed size schedule: op cost depends only on sizes, so each run does
    # the same work whatever the seed, and the median op is a 256/19 one.
    # 512 x 512 with the fib19 mask (5.6 s an op here) is left out of the
    # mix, where one op would be a quarter of a run; the traced run times
    # its blur as a ROADMAP baseline case.
    SCHEDULE = ((256, 19), (512, 7), (256, 19), (256, 7), (256, 19))
    round_size = len(SCHEDULE)

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 3])

    def _draw(self, rng, size: int, mask_n: int) -> dict:
        return dict(size=size, mask_n=mask_n,
                    encoding="pedestal" if rng.random() < 0.5 else "split",
                    obj=rng.random((size, size)))

    def specs(self):
        while True:
            for size, mask_n in self.SCHEDULE:
                yield self._draw(self.rng, size, mask_n)

    def warmup_specs(self):
        return [self._draw(np.random.default_rng([0, 3]), 256, 7)]

    def audit_specs(self):
        return []

    def mix_key(self, spec) -> str:
        return f"{spec['size']}/fib{spec['mask_n']}/{spec['encoding']}"

    def run(self, spec) -> dict:
        obj = spec["obj"]
        encode = (H.pedestal_masks if spec["encoding"] == "pedestal"
                  else H.split_signs)

        def mask(out):
            row = H.generate("fib", n=spec["mask_n"], s=1)
            return H.outer(row, row).real

        return _run_stages((
            ("mask", mask),
            ("masks", lambda out: encode(out["mask"])),
            ("dose", lambda out: H.dose(out["masks"])),
            ("measured", lambda out: H.measure(obj, out["masks"])),
            ("estimate", lambda out: H.reconstruct(out["measured"],
                                                   out["mask"])),
            ("recon", lambda out: H.recon_error(obj, out["estimate"])),
            ("bound", lambda out: H.end_term_bound(out["mask"],
                                                   obj_max=float(obj.max()))),
        ))

    def check(self, spec, out) -> Verdict:
        if "error" in out:
            stage, exc = out["error"]
            return _exc_verdict(exc, stage)
        est = out["estimate"]
        if not np.all(np.isfinite(est)):
            return Verdict(FAILED, "non-finite reconstruction")
        err, bound = out["recon"].max_abs_error, out["bound"]
        verdict = Verdict(PASS, rel_err=err / bound)
        if not err <= bound:
            verdict = Verdict(FAILED, f"error {err:.3g} above bound "
                                      f"{bound:.3g}", rel_err=err / bound)
        verdict.mismatch = self._reference(spec, out)
        return verdict

    def _reference(self, spec, out) -> str:
        obj, mask = spec["obj"], out["mask"]
        want = (np.abs(mask).sum() if spec["encoding"] == "split"
                else 2 * np.abs(mask).max() * mask.size)
        if abs(out["dose"].total_dose - want) > 1e-12 * want:
            return "dose total differs from reference"
        if abs(out["recon"].max_abs_error
               - float(np.abs(out["estimate"] - obj).max())) > 1e-15:
            return "recon_error differs from reference"
        m = mask.shape[0]
        padded = np.pad(obj, m - 1)
        flipped = mask[::-1, ::-1]
        rng = np.random.default_rng(spec["size"] + m)
        for i, j in rng.integers(0, obj.shape[0] + m - 1, size=(4, 2)):
            want = float(np.sum(padded[i:i + m, j:j + m] * flipped))
            scale = float(np.sum(np.abs(padded[i:i + m, j:j + m]))
                          * np.abs(mask).max()) or 1.0
            if abs(out["measured"][i, j] - want) > 1e-9 * scale:
                return "measure differs from direct convolution"
        return ""


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


# The command a `huffseq` console script runs.
CLI_ENTRY = "import sys; from huffseq.cli import main; sys.exit(main())"


class CliCold:
    """One fresh `huffseq` process per op over a fixed verb rotation.

    ``demo deblur`` reports an error bound below its measured error on
    every 2-D object (ROADMAP item 4), so it is in the audit, not in the
    timed rotation."""

    name = "cli-cold"
    in_process = False
    VERBS = ("gen", "analyze", "list", "compose", "analyze-periodic",
             "dose")
    round_size = len(VERBS)
    SHORT = ("fib", "hplus", "h9a", "h9b", "h11", "h13a", "h13b", "he4",
             "harb", "htan", "perfect_fib", "perfect_arb")
    DOSE = (("fib", 7), ("fib", 11), ("fib", 19), ("hplus", 9), ("h9b", None),
            ("h11", None), ("h13b", None))

    def __init__(self, seed: int, workdir: Path, env: dict | None = None):
        self.rng = np.random.default_rng([seed, 4])
        self.dir = workdir
        self.env = env
        self.traced = False
        self.child_script = str(Path(__file__).with_name("cli_child.py"))
        self.peak_kb = 0
        self.refs = {}
        self.count = 0
        n = int(self.rng.integers(16000, 16385))
        family = ("harb", "perfect_arb")[int(self.rng.integers(2))]
        s = float(np.exp(self.rng.choice((-1, 1))
                         * self.rng.uniform(2, 8) / n))
        self.long_seq = H.generate(family, n=n, s=s)
        self.long_path = workdir / "long.json"
        _write_json(self.long_path, H.to_json_obj(self.long_seq))

    def _short(self, rng):
        family = self.SHORT[int(rng.integers(len(self.SHORT)))]
        n = _family_length(rng, family, 31)
        return family, n, _log_uniform_scale(rng, -1, 1)

    @staticmethod
    def _scale_arg(s) -> str:
        if isinstance(s, complex):
            return f"{s.real!r},{s.imag!r}"
        return repr(s)

    def _draw(self, rng, verb: str) -> dict:
        self.count += 1
        tag = self.dir / f"op{self.count}"
        spec = dict(verb=verb)
        if verb == "gen":
            family, n, s = self._short(rng)
            spec.update(family=family, n=n, s=s)
            spec["argv"] = (["gen", "--family", family,
                             "--s=" + self._scale_arg(s)]
                            + ([] if n is None else ["--n", str(n)]))
        elif verb == "list":
            spec["argv"] = ["list"]
        elif verb == "analyze":
            spec["argv"] = ["analyze", "--in", str(self.long_path),
                            "--metrics", "merit,flatness,peak"]
        elif verb == "analyze-periodic":
            spec["argv"] = ["analyze", "--in", str(self.long_path),
                            "--periodic"]
        elif verb == "compose":
            paths = []
            for side in "ab":
                seq = None
                while seq is None:
                    family, n, s = self._short(rng)
                    try:
                        seq = H.generate(family, n=n, s=s)
                    except TYPED:
                        seq = None
                path = Path(f"{tag}{side}.json")
                _write_json(path, H.to_json_obj(seq))
                paths.append(str(path))
            spec["paths"] = paths
            spec["argv"] = ["compose", "--op", "outer"] + paths
        elif verb == "dose":
            family, n = self.DOSE[int(rng.integers(len(self.DOSE)))]
            s = int(rng.integers(1, 3))
            spec.update(family=family, n=n, s=s)
            spec["argv"] = (["demo", "dose", "--family", family, "--s", str(s),
                             "--dim", "3"]
                            + ([] if n is None else ["--n", str(n)]))
        elif verb == "deblur":
            shape = tuple(int(v) for v in rng.integers(8, 33, size=2))
            obj = rng.random(shape)
            path = Path(f"{tag}.csv")
            np.savetxt(path, obj, delimiter=",")
            n = int(rng.choice((7, 11)))
            spec.update(obj=obj, n=n)
            spec["argv"] = ["demo", "deblur", "--object", str(path),
                            "--family", "fib", "--n", str(n), "--s", "1"]
        return spec

    def specs(self):
        while True:
            for verb in self.VERBS:
                yield self._draw(self.rng, verb)

    def warmup_specs(self):
        return [self._draw(np.random.default_rng([0, 4]), "gen")]

    def audit_specs(self):
        return [self._draw(np.random.default_rng([0, 5]), "deblur")]

    def mix_key(self, spec) -> str:
        return spec["verb"]

    def peak_rss_kb(self) -> int:
        return self.peak_kb

    def run(self, spec) -> dict:
        out_path = self.dir / "stdout.txt"
        err_path = self.dir / "stderr.txt"
        span_path = self.dir / "spans.json"
        if self.traced:
            cmd = [sys.executable, self.child_script, str(span_path)]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY]
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            spawn = time.monotonic()
            proc = subprocess.Popen(cmd + spec["argv"], stdout=fo, stderr=fe,
                                    cwd=self.dir, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        out = dict(rc=proc.returncode, stdout=out_path.read_bytes(),
                   stderr=err_path.read_bytes())
        if self.traced:
            try:
                with open(span_path, encoding="utf-8") as fh:
                    out["child"] = json.load(fh)
                out["child"]["spawn_monotonic"] = spawn
            except (OSError, ValueError):
                out["child"] = None
            span_path.unlink(missing_ok=True)
        return out

    # -- checking against the library ------------------------------------

    def _library(self, spec):
        """The library's result for the op's input, or the typed error."""
        verb = spec["verb"]
        try:
            if verb == "gen":
                return H.generate(spec["family"], n=spec["n"], s=spec["s"])
            if verb == "dose":
                row = H.generate(spec["family"], n=spec["n"], s=spec["s"])
                grid = H.outer(row, H.outer(row, row))
                if _is_complex(grid):
                    raise H.ArgumentError("complex grid")
                grid = grid.real
                split = H.dose(H.split_signs(grid)).total_dose
                ped = H.dose(H.pedestal_masks(grid)).total_dose
                return dict(split=split, pedestal=ped, ratio=ped / split,
                            pedestal_offset=H.min_pedestal(grid),
                            min_element=float(grid.min()))
        except TYPED as exc:
            return exc
        if verb in self.refs:
            return self.refs[verb]
        arr = self.long_seq.elements
        if verb == "analyze":
            prof = H.autocorr(arr)
            ref = dict(profile=prof, canonical=bool(H.is_canonical(arr)),
                       merit=H.merit_factor(arr),
                       flatness=H.spectral_flatness(arr), peak=_energy(arr))
        elif verb == "analyze-periodic":
            ref = dict(profile=H.periodic_autocorr(arr),
                       perfect=H.is_perfect(arr))
        elif verb == "list":
            ref = dict(families=H.family_ids(), fixtures=H.fixture_names())
        else:
            ref = None
        self.refs[verb] = ref
        return ref

    def check(self, spec, out) -> Verdict:
        verb, rc = spec["verb"], out["rc"]
        lib = self._library(spec)
        if rc in (2, 3):
            if isinstance(lib, TYPED):
                return Verdict(REJECTED, f"{verb}: exit {rc}")
            return Verdict(FAILED, f"{verb}: exit {rc}, library succeeds")
        if rc != 0:
            return Verdict(FAILED, f"{verb}: exit {rc}")
        if isinstance(lib, TYPED):
            return Verdict(FAILED, f"{verb}: exit 0, library raises "
                                   f"{type(lib).__name__}")
        try:
            doc = json.loads(out["stdout"])
        except ValueError:
            return Verdict(FAILED, f"{verb}: output is not JSON")
        checker = getattr(self, "_check_" + verb.replace("-", "_"))
        return checker(spec, doc, lib)

    @staticmethod
    def _elements(doc) -> np.ndarray:
        return np.array([complex(re, im) for re, im in doc["elements"]])

    def _same(self, verb: str, got, want, rtol: float = 1e-12) -> Verdict:
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            return Verdict(FAILED,
                           f"{verb}: shape {got.shape} != {want.shape}")
        scale = float(np.abs(want).max()) if want.size else 0.0
        diff = float(np.abs(got - want).max()) if want.size else 0.0
        rel = diff / scale if scale else diff
        if not np.all(np.isfinite(got)) or rel > rtol:
            return Verdict(FAILED, f"{verb}: differs from library by "
                                   f"{rel:.2e}", rel_err=rel)
        return Verdict(PASS, rel_err=rel)

    def _check_gen(self, spec, doc, seq) -> Verdict:
        return self._same("gen", self._elements(doc), seq.elements, 0.0)

    def _check_list(self, spec, doc, ref) -> Verdict:
        ok = (sorted(doc["families"]) == ref["families"]
              and sorted(doc["fixtures"]) == ref["fixtures"])
        return Verdict(PASS if ok else FAILED, "" if ok else "list differs")

    def _check_analyze(self, spec, doc, ref) -> Verdict:
        metrics = doc.get("metrics", {})
        if (doc.get("canonical") != ref["canonical"]
                or metrics.get("merit_factor") != ref["merit"]
                or metrics.get("spectral_flatness") != ref["flatness"]
                or metrics.get("peak") != ref["peak"]):
            return Verdict(FAILED, "analyze: verdict or metrics differ")
        values = [complex(re, im) for re, im in doc["profile"]["values"]]
        return self._same("analyze", values, ref["profile"].values)

    def _check_analyze_periodic(self, spec, doc, ref) -> Verdict:
        if doc.get("perfect") != ref["perfect"]:
            return Verdict(FAILED, "analyze --periodic: verdict differs")
        values = [complex(re, im) for re, im in doc["profile"]["values"]]
        return self._same("analyze-periodic", values, ref["profile"].values)

    def _check_compose(self, spec, doc, ref) -> Verdict:
        a, b = (H.from_json_obj(json.loads(Path(p).read_text()))
                for p in spec["paths"])
        want = H.outer(a, b)
        got = self._elements(doc).reshape(doc.get("shape", [-1]))
        return self._same("compose", got, want, 0.0)

    def _check_dose(self, spec, doc, ref) -> Verdict:
        keys = sorted(ref)
        return self._same("dose", [doc[k] for k in keys],
                          [ref[k] for k in keys])

    def _check_deblur(self, spec, doc, ref) -> Verdict:
        obj = spec["obj"]
        row = H.generate("fib", n=spec["n"], s=1)
        grid = H.outer(row, row).real
        err = H.recon_error(obj, H.reconstruct(H.blur(obj, grid), grid))
        verdict = self._same("deblur", [doc["max_abs_error"]],
                             [err.max_abs_error], 1e-9)
        if verdict.status == PASS and not (doc["end_term_bound"]
                                           >= doc["max_abs_error"]):
            return Verdict(FAILED, "deblur: reported bound below measured "
                                   "error", rel_err=verdict.rel_err)
        return verdict


WORKLOADS = {cls.name: cls
             for cls in (SweepShort, VerifyLong, Deblur2D, CliCold)}
