"""Command-line front end: parse, call the library, emit.

Verbs: ``gen`` (emit a family/fixture sequence as JSON), ``analyze``
(correlation profile and metrics for a sequence file), ``compose``
(Kronecker/outer products of two sequence files), ``demo`` (dose ledger and
de-blur round trip), and ``list`` (available families and fixtures; the same
document as ``gen --list``).

Exit codes: 0 success, 2 argument/input errors (including malformed or
non-finite files, a ``--tol`` that is not positive and finite, and an
unwritable ``--out``), 3 domain errors (a
construction leaving its valid numeric domain, or a result that JSON cannot
hold, such as an overflow to infinity).
"""

from __future__ import annotations

import argparse
import json
import sys
from os import urandom

import numpy as np

from . import __version__
from .core import (
    DEFAULT_TOL,
    ArgumentError,
    DomainError,
    Sequence,
    _energy,
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


# Most elements of the mask the demos build, len(row) ** dim complex128
# values (64 MiB); the dose demo holds a few arrays of that size at once.
_GRID_LIMIT = 2 ** 22

# --metrics name -> (report key, function of the Sequence); an infinite
# value is reported as "inf".  The lambdas look the library functions up at
# call time, so wrappers installed on this module's attributes see the calls.
_METRICS = {
    "merit": ("merit_factor", lambda seq: merit_factor(seq)),
    "flatness": ("spectral_flatness", lambda seq: spectral_flatness(seq)),
    "peak": ("peak", lambda seq: seq.energy),
}


def _parse_scalar(text: str):
    """'--s re' or '--s re,im': int, else float, else complex; a zero
    imaginary part leaves the real number.  Values are left to the
    generator's scale check."""
    re, comma, im = text.partition(",")
    try:
        try:
            val = int(re)
        except ValueError:
            val = float(re)
        if comma and float(im) != 0:
            val = complex(val, float(im))
    except (ValueError, OverflowError) as exc:
        raise ArgumentError(f"cannot parse scale {text!r}: {exc}") from exc
    return val


def _join_scale_values(argv: list) -> list:
    """Write '--s X' as '--s=X' when X starts with '-' and parses as a
    scale: argparse takes a plain negative integer or decimal as an option
    value but reads '-1e3', '-1,2' or '-inf' as an unknown option."""
    out = []
    for tok in argv:
        if out and out[-1] == "--s" and tok.startswith("-"):
            try:
                _parse_scalar(tok)
            except ArgumentError:
                pass
            else:
                out[-1] = "--s=" + tok
                continue
        out.append(tok)
    return out


def _dim(text: str) -> int:
    dim = int(text)
    if dim < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return dim


def _format_array(arr: np.ndarray, indent: str) -> str:
    """A 1-D numeric array as json.dumps(indent=2) lays out the list of its
    elements on a line that starts with ``indent``, a complex one as
    [re, im] pairs: one tolist() and one "%r" template repeated per entry.
    Raises ValueError on a NaN or an infinity, as json.dumps does."""
    if arr.size == 0:
        return "[]"
    if arr.dtype.kind == "c":
        values = np.ascontiguousarray(arr, np.complex128).view(np.float64)
        inner = indent + "    "
        item = f"{indent}  [\n{inner}%r,\n{inner}%r\n{indent}  ]"
    else:
        values, item = arr, f"{indent}  %r"
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise ValueError("Out of range float values are not JSON compliant: "
                         + repr(float(bad)))
    body = ",\n".join([item] * arr.size) % tuple(values.tolist())
    return f"[\n{body}\n{indent}]"


def _dumps(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)`` byte
    for byte, where each 1-D int, float or complex ndarray in ``doc`` stands
    for the list of its elements (complex ones as [re, im] pairs).

    With ``indent`` set, json.dumps runs its pure-Python encoder, one call
    per number, so it lays out only the rest: its ``default`` hook puts a
    placeholder string where each array goes, and :func:`_format_array`
    then writes each array in bulk, indented like the placeholder's line.
    The placeholder carries a random tag, so no string in the document can
    pass for one."""
    mark = f"ndarray-{urandom(8).hex()}"
    arrays = []

    def hold(obj):
        if not (isinstance(obj, np.ndarray) and obj.ndim == 1
                and obj.dtype.kind in "iufc"):
            raise TypeError(f"Object of type {type(obj).__name__} "
                            "is not JSON serializable")
        arrays.append(obj)
        return mark

    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                      default=hold)
    pieces = text.split(f'"{mark}"')
    out = [pieces[0]]
    for arr, rest in zip(arrays, pieces[1:]):
        line = out[-1][out[-1].rfind("\n") + 1:]
        out += [_format_array(arr, line[:len(line) - len(line.lstrip())]),
                rest]
    return "".join(out)


def _emit(doc: dict, out_path: str | None) -> int:
    """Add the meta block and write ``doc`` as JSON to stdout or a file."""
    doc["meta"] = {"name": "huffseq", "version": __version__}
    try:
        payload = _dumps(doc)
    except ValueError as exc:
        raise DomainError(f"result is not finite: {exc}") from exc
    if not out_path:
        print(payload)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    except OSError as exc:
        raise ArgumentError(f"cannot write {out_path}: {exc}") from exc
    return 0


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
        return as_array(_load_sequence_file(path))
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ArgumentError(f"cannot read object file {path}: {exc}") from exc
    if not np.isfinite(data).all():
        raise ArgumentError(f"object file {path} holds non-finite values")
    return data


def _sequence(args, default_s=None) -> Sequence:
    s = default_s if args.s is None else _parse_scalar(args.s)
    return generate(args.family, n=args.n, s=s)


def _cmd_list(args) -> int:
    return _emit({"families": {fid: FAMILY_INFO[fid][3]
                               for fid in family_ids()},
                  "fixtures": {name: fixture_description(name)
                               for name in fixture_names()}}, args.out)


def _cmd_gen(args) -> int:
    if args.list:
        return _cmd_list(args)
    if not args.family:
        raise ArgumentError("gen requires --family (or --list)")
    return _emit(to_json_obj(_sequence(args)), args.out)


def _cmd_analyze(args) -> int:
    wanted = [w for w in (args.metrics or "").split(",") if w]
    for name in wanted:
        if name not in _METRICS:
            raise ArgumentError(
                f"unknown metric {name!r}; known: {', '.join(_METRICS)}")
    loaded = _load_sequence_file(args.infile)
    if not isinstance(loaded, Sequence):
        raise ArgumentError("analyze expects a 1-D sequence file")
    if len(loaded) < 2:
        raise ArgumentError("analyze needs a sequence of length >= 2")
    # The Sequence itself, not its elements, so that the profile, the
    # verdict and the metrics share one autocorrelation per sense.
    if args.periodic:
        prof = periodic_autocorr(loaded)
        verdict = {"perfect": is_perfect(loaded, tol=args.tol)}
    else:
        prof = (dual_autocorr if args.dual else autocorr)(loaded)
        verdict = {"canonical": bool(is_canonical(loaded, tol=args.tol,
                                                  dual=args.dual))}
    if args.csv:
        print("\n".join(map("%d,%r,%r".__mod__,
                             zip(prof.lags.tolist(), prof.values.real.tolist(),
                                 prof.values.imag.tolist()))))
        return 0
    doc = {
        "family": loaded.family,
        "length": len(loaded),
        "kind": prof.kind,
        "profile": {"lags": prof.lags, "values": prof.values},
        "peak": prof.peak,
        "end_values": [[v.real, v.imag] for v in prof.end_values],
        "max_interior_offpeak": prof.max_interior_offpeak,
        "tolerance": args.tol,
        **verdict,
    }
    if wanted:
        values = {key: fn(loaded) for key, fn in map(_METRICS.get, wanted)}
        doc["metrics"] = {key: "inf" if val == float("inf") else val
                          for key, val in values.items()}
    return _emit(doc, args.out)


def _cmd_compose(args) -> int:
    op = kron if args.op == "kron" else outer
    doc = to_json_obj(op(as_array(_load_sequence_file(args.a)),
                         as_array(_load_sequence_file(args.b))))
    doc["family"] = args.op
    return _emit(doc, args.out)


def _demo_mask(args, dim: int) -> np.ndarray:
    """The family's row (s defaults to 1) as a dim-D outer product, of at
    most _GRID_LIMIT elements; a product beyond the float range is a
    DomainError."""
    row = grid = as_array(_sequence(args, default_s=1))
    # The exponent is clamped so that a huge dim costs no huge integer: a
    # row of two or more elements is past the limit well before then.
    if row.size ** min(dim, _GRID_LIMIT.bit_length()) > _GRID_LIMIT:
        raise ArgumentError(
            f"a {dim}-D mask of the {row.size}-element row has "
            f"{row.size}**{dim} elements, above the limit of {_GRID_LIMIT}")
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(dim - 1):
            grid = outer(row, grid)
    if not np.isfinite(grid).all():
        raise DomainError(f"the {dim}-D mask's entries are too large for "
                          "float64")
    return grid


def _cmd_demo_dose(args) -> int:
    grid = _demo_mask(args, args.dim)
    if np.any(grid.imag != 0):
        raise ArgumentError("dose demo expects a real-valued family")
    split = dose(split_signs(grid)).total_dose
    pedestal = dose(pedestal_masks(grid)).total_dose
    return _emit({
        "family": args.family,
        "n": args.n,
        "dim": args.dim,
        "shape": list(grid.shape),
        "min_element": float(grid.real.min()),
        "pedestal_offset": min_pedestal(grid),
        "pedestal": pedestal,
        "split": split,
        "ratio": pedestal / split,
    }, args.out)


def _cmd_demo_deblur(args) -> int:
    obj = _load_object_file(args.object)
    grid = _demo_mask(args, obj.ndim)
    err = recon_error(obj, reconstruct(blur(obj, grid), grid))
    return _emit({
        "family": args.family,
        "n": args.n,
        "dim": int(obj.ndim),
        "object_shape": list(obj.shape),
        "peak": _energy(grid),
        "max_abs_error": err.max_abs_error,
        "rel_l2_error": err.rel_l2_error,
        "end_term_bound": end_term_bound(grid, float(np.abs(obj).max())),
    }, args.out)


def _sequence_options(family_required: bool) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--family", required=family_required,
                        help="family or fixture id")
    parent.add_argument("--n", type=int, help="sequence length")
    parent.add_argument("--s", help="scale parameter: 're' or 're,im'")
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="huffseq",
        description="Delta-correlated sequence families: generation, "
                    "analysis, composition, and imaging demos.")
    parser.add_argument("--version", action="version",
                        version=f"huffseq {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write JSON to a file")
    demo_seq = _sequence_options(family_required=True)

    p_gen = sub.add_parser("gen", help="generate a family or fixture",
                           parents=[_sequence_options(family_required=False),
                                    out])
    p_gen.add_argument("--list", action="store_true",
                       help="list families and fixtures")
    p_gen.set_defaults(func=_cmd_gen)

    p_an = sub.add_parser("analyze", help="correlation profile and metrics",
                          parents=[out])
    p_an.add_argument("--in", dest="infile", required=True,
                      help="sequence JSON file")
    kind = p_an.add_mutually_exclusive_group()
    kind.add_argument("--periodic", action="store_true",
                      help="cyclic autocorrelation")
    kind.add_argument("--dual", action="store_true",
                      help="conjugate-free autocorrelation")
    p_an.add_argument("--metrics", default=None,
                      help="comma list from: merit,flatness,peak")
    p_an.add_argument("--csv", action="store_true",
                      help="emit 'lag,re,im' rows instead of JSON")
    p_an.add_argument("--tol", type=float, default=DEFAULT_TOL,
                      help="relative tolerance for condition checks")
    p_an.set_defaults(func=_cmd_analyze)

    p_co = sub.add_parser("compose", help="kron/outer product of two files",
                          parents=[out])
    p_co.add_argument("--op", choices=("kron", "outer"), required=True)
    p_co.add_argument("a", help="left sequence JSON file")
    p_co.add_argument("b", help="right sequence/grid JSON file")
    p_co.set_defaults(func=_cmd_compose)

    p_demo = sub.add_parser("demo", help="imaging-protocol demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo", required=True)

    p_dose = demo_sub.add_parser("dose", help="pedestal vs split-sign dose",
                                 parents=[demo_seq, out])
    p_dose.add_argument("--dim", type=_dim, default=2,
                        help="outer-product dimensionality")
    p_dose.set_defaults(func=_cmd_demo_dose)

    p_db = demo_sub.add_parser("deblur", help="blur + reconstruct round trip",
                               parents=[demo_seq, out])
    p_db.add_argument("--object", required=True,
                      help="object file: CSV (real) or sequence/grid JSON")
    p_db.set_defaults(func=_cmd_demo_deblur)

    p_list = sub.add_parser("list", help="list families and fixtures",
                            parents=[out])
    p_list.set_defaults(func=_cmd_list)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_scale_values(argv))
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
