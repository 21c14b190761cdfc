"""Command-line front end.

Verbs: ``gen`` (emit a family/fixture sequence as JSON), ``analyze``
(correlation profile and metrics for a sequence file), ``compose``
(Kronecker/outer products of two sequence files), ``demo`` (dose ledger and
de-blur round trip), and ``list`` (available families and fixtures).

Exit codes: 0 success, 2 argument/input errors (including malformed files),
3 domain errors (a construction leaving its valid numeric domain).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .core import (
    ArgumentError,
    DomainError,
    Sequence,
    as_array,
    from_json_obj,
    kron,
    outer,
    to_json_obj,
)
from .families import (
    FAMILY_INFO,
    family_ids,
    fixture_description,
    fixture_names,
    generate,
)
from .analysis import (
    autocorr,
    dual_autocorr,
    is_canonical,
    is_perfect,
    merit_factor,
    periodic_autocorr,
    spectral_flatness,
)
from .decorrelate import (
    blur,
    dose,
    end_term_bound,
    min_pedestal,
    pedestal_masks,
    recon_error,
    reconstruct,
    split_signs,
)

_METRICS = ("merit", "flatness", "peak")


def _meta() -> dict:
    return {"name": "huffseq", "version": __version__}


def _parse_scalar(text: str) -> complex:
    """Parse '--s re' or '--s re,im' into a number (int kept exact)."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ArgumentError(f"scale {text!r} must be 're' or 're,im'")
    try:
        if len(parts) == 2:
            re, im = float(parts[0]), float(parts[1])
            if im == 0:
                return _real_scalar(parts[0])
            return complex(re, im)
        return _real_scalar(parts[0])
    except ValueError as exc:
        raise ArgumentError(f"cannot parse scale {text!r}: {exc}") from exc


def _real_scalar(text: str):
    val = float(text)
    if val == int(val) and "e" not in text.lower() and "." not in text:
        return int(val)
    return val


def _emit(doc: dict, out_path: str | None) -> None:
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _load_sequence_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ArgumentError(f"{path} does not hold a sequence object")
    return from_json_obj(obj)


def _load_object_file(path: str) -> np.ndarray:
    """Object for the de-blur demo: CSV of reals or a sequence/grid JSON."""
    if path.endswith(".json"):
        loaded = _load_sequence_file(path)
        return as_array(loaded) if isinstance(loaded, Sequence) else loaded
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ArgumentError(f"cannot read object file {path}: {exc}") from exc
    return data.astype(np.complex128)


def _cmd_gen(args) -> int:
    if args.list:
        _emit({"meta": _meta(),
               "families": {fid: FAMILY_INFO[fid][3] for fid in family_ids()},
               "fixtures": {name: fixture_description(name)
                            for name in fixture_names()}}, args.out)
        return 0
    if not args.family:
        raise ArgumentError("gen requires --family (or --list)")
    s = _parse_scalar(args.s) if args.s is not None else None
    seq = generate(args.family, n=args.n, s=s)
    doc = to_json_obj(seq)
    doc["meta"] = _meta()
    _emit(doc, args.out)
    return 0


def _metrics_doc(seq_arr: np.ndarray, wanted: list) -> dict:
    out = {}
    for name in wanted:
        if name == "merit":
            mf = merit_factor(seq_arr)
            out["merit_factor"] = mf if mf != float("inf") else "inf"
        elif name == "flatness":
            out["spectral_flatness"] = spectral_flatness(seq_arr)
        elif name == "peak":
            out["peak"] = float(np.sum(np.abs(seq_arr) ** 2))
        else:
            raise ArgumentError(
                f"unknown metric {name!r}; known: {', '.join(_METRICS)}")
    return out


def _cmd_analyze(args) -> int:
    loaded = _load_sequence_file(args.infile)
    if not isinstance(loaded, Sequence):
        raise ArgumentError("analyze expects a 1-D sequence file")
    arr = loaded.elements
    if arr.size < 2:
        raise ArgumentError("analyze needs a sequence of length >= 2")
    if args.periodic:
        prof = periodic_autocorr(arr)
        verdict = {"perfect": is_perfect(arr, tol=args.tol)}
    elif args.dual:
        prof = dual_autocorr(arr)
        verdict = {"canonical": bool(is_canonical(arr, tol=args.tol,
                                                  dual=True))}
    else:
        prof = autocorr(arr)
        verdict = {"canonical": bool(is_canonical(arr, tol=args.tol))}
    if args.csv:
        for lag, val in zip(prof.lags, prof.values):
            print(f"{int(lag)},{float(val.real)!r},{float(val.imag)!r}")
        return 0
    wanted = [w for w in (args.metrics.split(",") if args.metrics else [])
              if w]
    doc = {
        "meta": _meta(),
        "family": loaded.family,
        "length": int(arr.size),
        "kind": prof.kind,
        "profile": {
            "lags": [int(k) for k in prof.lags],
            "values": [[v.real, v.imag] for v in prof.values],
        },
        "peak": prof.peak,
        "end_values": [[v.real, v.imag] for v in prof.end_values],
        "max_interior_offpeak": prof.max_interior_offpeak,
        "tolerance": args.tol,
    }
    doc.update(verdict)
    if wanted:
        doc["metrics"] = _metrics_doc(arr, wanted)
    _emit(doc, args.out)
    return 0


def _cmd_compose(args) -> int:
    left = _load_sequence_file(args.a)
    right = _load_sequence_file(args.b)
    la = as_array(left) if isinstance(left, Sequence) else left
    ra = as_array(right) if isinstance(right, Sequence) else right
    if args.op == "kron":
        if la.ndim != 1 or ra.ndim != 1:
            raise ArgumentError("kron composes 1-D sequences")
        seq = Sequence(kron(la, ra), family="kron", scale=1.0)
        doc = to_json_obj(seq)
    else:
        doc = to_json_obj(outer(la, ra))
        doc["family"] = "outer"
    doc["meta"] = _meta()
    _emit(doc, args.out)
    return 0


def _demo_mask(args) -> np.ndarray:
    s = _parse_scalar(args.s) if args.s is not None else 1
    seq = generate(args.family, n=args.n, s=s)
    grid = seq.elements
    for _ in range(args.dim - 1):
        grid = np.tensordot(seq.elements, grid, axes=0)
    return grid


def _cmd_demo_dose(args) -> int:
    grid = _demo_mask(args)
    if np.any(grid.imag != 0):
        raise ArgumentError("dose demo expects a real-valued family")
    split_report = dose(split_signs(grid))
    kappa = min_pedestal(grid)
    ped_report = dose(pedestal_masks(grid))
    doc = {
        "meta": _meta(),
        "family": args.family,
        "n": args.n,
        "dim": args.dim,
        "shape": list(grid.shape),
        "min_element": float(grid.real.min()),
        "pedestal_offset": kappa,
        "pedestal": ped_report.total_dose,
        "split": split_report.total_dose,
        "ratio": ped_report.total_dose / split_report.total_dose,
    }
    _emit(doc, args.out)
    return 0


def _cmd_demo_deblur(args) -> int:
    obj = _load_object_file(args.object)
    mask_args = argparse.Namespace(family=args.family, n=args.n, s=args.s,
                                   dim=obj.ndim)
    grid = _demo_mask(mask_args)
    blurred = blur(obj, grid)
    restored = reconstruct(blurred, grid)
    err = recon_error(obj, restored)
    peak = float(np.sum(np.abs(grid) ** 2))
    doc = {
        "meta": _meta(),
        "family": args.family,
        "n": args.n,
        "dim": int(obj.ndim),
        "object_shape": list(obj.shape),
        "peak": peak,
        "max_abs_error": err.max_abs_error,
        "rel_l2_error": err.rel_l2_error,
        "end_term_bound": end_term_bound(grid, float(np.abs(obj).max())),
    }
    _emit(doc, args.out)
    return 0


def _cmd_list(args) -> int:
    _emit({"meta": _meta(),
           "families": {fid: FAMILY_INFO[fid][3] for fid in family_ids()},
           "fixtures": {name: fixture_description(name)
                        for name in fixture_names()}}, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="huffseq",
        description="Delta-correlated sequence families: generation, "
                    "analysis, composition, and imaging demos.")
    parser.add_argument("--version", action="version",
                        version=f"huffseq {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_gen = sub.add_parser("gen", help="generate a family or fixture")
    p_gen.add_argument("--family", help="family or fixture id")
    p_gen.add_argument("--n", type=int, default=None, help="sequence length")
    p_gen.add_argument("--s", default=None,
                       help="scale parameter: 're' or 're,im'")
    p_gen.add_argument("--list", action="store_true",
                       help="list families and fixtures")
    p_gen.add_argument("--out", default=None, help="write JSON to a file")
    p_gen.set_defaults(func=_cmd_gen)

    p_an = sub.add_parser("analyze", help="correlation profile and metrics")
    p_an.add_argument("--in", dest="infile", required=True,
                      help="sequence JSON file")
    p_an.add_argument("--periodic", action="store_true",
                      help="cyclic autocorrelation")
    p_an.add_argument("--dual", action="store_true",
                      help="conjugate-free autocorrelation")
    p_an.add_argument("--metrics", default=None,
                      help="comma list from: merit,flatness,peak")
    p_an.add_argument("--csv", action="store_true",
                      help="emit 'lag,re,im' rows instead of JSON")
    p_an.add_argument("--tol", type=float, default=1e-9,
                      help="relative tolerance for condition checks")
    p_an.add_argument("--out", default=None, help="write JSON to a file")
    p_an.set_defaults(func=_cmd_analyze)

    p_co = sub.add_parser("compose", help="kron/outer product of two files")
    p_co.add_argument("--op", choices=("kron", "outer"), required=True)
    p_co.add_argument("a", help="left sequence JSON file")
    p_co.add_argument("b", help="right sequence/grid JSON file")
    p_co.add_argument("--out", default=None, help="write JSON to a file")
    p_co.set_defaults(func=_cmd_compose)

    p_demo = sub.add_parser("demo", help="imaging-protocol demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo", required=True)

    p_dose = demo_sub.add_parser("dose", help="pedestal vs split-sign dose")
    p_dose.add_argument("--family", required=True)
    p_dose.add_argument("--n", type=int, default=None)
    p_dose.add_argument("--s", default=None)
    p_dose.add_argument("--dim", type=int, default=2,
                        help="outer-product dimensionality")
    p_dose.add_argument("--out", default=None)
    p_dose.set_defaults(func=_cmd_demo_dose)

    p_db = demo_sub.add_parser("deblur",
                               help="blur + reconstruct round trip")
    p_db.add_argument("--object", required=True,
                      help="object file: CSV (real) or sequence/grid JSON")
    p_db.add_argument("--family", required=True)
    p_db.add_argument("--n", type=int, default=None)
    p_db.add_argument("--s", default=None)
    p_db.add_argument("--out", default=None)
    p_db.set_defaults(func=_cmd_demo_deblur)

    p_list = sub.add_parser("list", help="list families and fixtures")
    p_list.add_argument("--out", default=None)
    p_list.set_defaults(func=_cmd_list)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dim", None) is not None and args.dim < 1:
        parser.error("--dim must be >= 1")
    try:
        return args.func(args)
    except ArgumentError as exc:
        print(f"huffseq: argument error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"huffseq: domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
