"""In-memory span recorder for the traced benchmark run.

The recorder wraps huffseq's public functions from outside the package: it
replaces each function in *every* huffseq module that bound it at import
time (``decorrelate`` and ``cli`` import names from ``analysis``, ``core``
and ``families``), so a call from one layer into another is seen as a child
span.  ``cli``'s use of the ``json`` module is wrapped the same way, so JSON
encoding and decoding count as the core JSON layer.

One span per wrapped call: name, metric group, start, end, parent span, op
id and an optional work count.  Spans stay in memory until :meth:`dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# (module, function) -> metric group; the group names are the per-layer
# metric prefixes reported by the benchmark.
GROUPS = {
    ("core", "to_json_obj"): "core.json_encode",
    ("core", "from_json_obj"): "core.json_decode",
    ("core", "kron"): "core.compose",
    ("core", "outer"): "core.compose",
    ("families", "generate"): "families.generate",
    ("analysis", "xcorr"): "analysis.correlate",
    ("analysis", "autocorr"): "analysis.correlate",
    ("analysis", "dual_autocorr"): "analysis.correlate",
    ("analysis", "periodic_autocorr"): "analysis.periodic",
    ("analysis", "merit_factor_exact"): "analysis.merit_exact",
    ("analysis", "is_canonical"): "analysis.check",
    ("analysis", "is_perfect"): "analysis.check",
    ("analysis", "merit_factor"): "analysis.merit",
    ("analysis", "spectral_flatness"): "analysis.merit",
    ("analysis", "nd_autocorr"): "analysis.nd",
    ("decorrelate", "blur"): "decorrelate.blur",
    ("decorrelate", "measure"): "decorrelate.measure",
    ("decorrelate", "reconstruct"): "decorrelate.reconstruct",
    ("decorrelate", "delta_correlation_residual"): "decorrelate.residual",
    ("decorrelate", "end_term_bound"): "decorrelate.bound",
    ("decorrelate", "split_signs"): "decorrelate.masks",
    ("decorrelate", "pedestal_masks"): "decorrelate.masks",
    ("decorrelate", "split_complex"): "decorrelate.masks",
    ("decorrelate", "dose"): "decorrelate.masks",
    ("decorrelate", "recombine"): "decorrelate.masks",
    ("cli", "main"): "cli.main",
}

TYPED_ERRORS = ("ArgumentError", "DomainError")


def _size(x) -> int:
    """Element count of a Sequence, array or list argument."""
    elements = getattr(x, "elements", x)
    size = getattr(elements, "size", None)
    return int(size) if size is not None else len(elements)


def _count(group: str, args, out) -> int:
    """Work count recorded with a span: elements, pixels or bytes."""
    if group == "analysis.correlate":
        return sum(_size(a) for a in args[:2])
    if group == "families.generate":
        return _size(out)
    if group == "decorrelate.blur":
        return _size(args[0])
    return 0


class Tracer:
    """Records spans for the wrapped huffseq functions of one process."""

    def __init__(self):
        # [id, parent, name, group, start_ns, end_ns, op, count, outcome]
        self.spans = []
        self.op_id = None
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    def _wrap(self, fn, name: str, group: str, count=_count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            span = [sid, tracer._stack[-1] if tracer._stack else None, name,
                    group, 0, 0, tracer.op_id, 0, "ok"]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span[4] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = time.perf_counter_ns()
                span[8] = type(exc).__name__
                raise
            finally:
                tracer._stack.pop()
            span[5] = time.perf_counter_ns()
            span[7] = count(group, args, out)
            if group == "analysis.check":
                span[8] = "pass" if out else "reject"
            return out
        return wrapper

    def install(self) -> None:
        """Wrap every grouped function in every loaded huffseq module."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "huffseq"
                                      or n.startswith("huffseq."))]
        for (modname, fname), group in GROUPS.items():
            home = sys.modules.get(f"huffseq.{modname}")
            if home is None:
                continue
            original = getattr(home, fname)
            wrapper = self._wrap(original, fname, group)
            for mod in mods:
                if getattr(mod, fname, None) is original:
                    self._patched.append((mod, fname, original))
                    setattr(mod, fname, wrapper)
        cli = sys.modules.get("huffseq.cli")
        if cli is not None:
            # Byte counts: the encoded text, and the file offset after load.
            proxy = types.SimpleNamespace(
                dumps=self._wrap(json.dumps, "json.dumps", "core.json_encode",
                                 lambda g, args, out: len(out)),
                load=self._wrap(json.load, "json.load", "core.json_decode",
                                lambda g, args, out: args[0].tell()),
                JSONDecodeError=json.JSONDecodeError)
            self._patched.append((cli, "json", cli.json))
            cli.json = proxy

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str, **extra) -> None:
        """Write the recorded spans (and any extra fields) as one JSON doc."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans), fh)


def _union_ns(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_stats(span_sets) -> dict:
    """Per-group busy time, self time, top-level calls, work count, typed
    errors and check passes over one or more span lists.

    Busy time is the union of a group's span intervals; self time is each
    span's duration minus the durations of its direct children.  Span ids are
    local to the list (one list per process).
    """
    stats = {}
    for spans in span_sets:
        by_id = {s[0]: s for s in spans}
        child_ns = {}
        for s in spans:
            if s[1] is not None:
                child_ns[s[1]] = child_ns.get(s[1], 0) + s[5] - s[4]
        intervals = {}
        for s in spans:
            sid, parent, _, group, start, end, _, count, outcome = s
            st = stats.setdefault(group, dict(busy_ns=0, self_ns=0, calls=0,
                                              count=0, typed_errors=0,
                                              passes=0))
            intervals.setdefault(group, []).append((start, end))
            st["self_ns"] += end - start - child_ns.get(sid, 0)
            anc = by_id.get(parent)
            while anc is not None and anc[3] != group:
                anc = by_id.get(anc[1])
            if anc is None:
                st["calls"] += 1
                st["count"] += count
                st["typed_errors"] += outcome in TYPED_ERRORS
                st["passes"] += outcome == "pass"
        for group, ivs in intervals.items():
            stats[group]["busy_ns"] += _union_ns(ivs)
    return stats
