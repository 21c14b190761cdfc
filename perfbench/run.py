"""huffseq benchmark: four closed-loop workloads, end-to-end and per-layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-short --seed 1 --seconds 18 \
        --trace 0

Workloads: sweep-short, verify-long, deblur-2d, cli-cold (see workloads.py).
Each run measures the import time of a fresh interpreter (``setup_s``),
does one untimed warm-up op and the workload's untimed audit (a fixed list
of inputs that reach the program's known defects), then runs ops one after
another until their summed latency reaches ``--seconds``.  Every op is
checked (untimed).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
ops twice, first plain and then with huffseq's public functions wrapped by
the span recorder (spans.py), and prints the per-layer metrics, the tracing
overhead and the ROADMAP baseline cases.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record (environment, all seven end-to-end metrics, failure details,
the audit, the op mix) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh-interpreter import probes for setup_s, before and after the ops:
# machine speed here drifts in phases of seconds, and probes half a minute
# apart fall in different phases.
SETUP_PROBES = (3, 2)

# Per-layer metric -> (unit, the end-to-end metric it should move, the
# workloads where it should move it, the workloads predicted unchanged).
_TPUT = "throughput_ops_s"
_DEBLUR = (_TPUT + ", op_p50_s", "deblur-2d", "sweep-short, verify-long")
_CLI = ("op_p50_s", "cli-cold", "the in-process workloads")
_START = ("setup_s, op_p50_s", "cli-cold, and setup_s on every workload",
          _TPUT + " of the in-process workloads")
_GEN = (_TPUT, "sweep-short", "verify-long (generation under 1% of an op)")
_CORR = (_TPUT, "verify-long and sweep-short; not one for the other",
         "deblur-2d")
_LONG = ("op_tail_s, " + _TPUT, "verify-long", "deblur-2d")
_CHECK = (_TPUT + ", error_rate", "sweep-short", "deblur-2d")
PER_LAYER = {
    "cli.python_start_s": ("s",) + _START,
    "cli.import_s": ("s",) + _START,
    "cli.main.self_s": ("s/op",) + _CLI,
    "cli.process_wall_s": ("s/op",) + _CLI,
    "core.json_encode.busy_s": ("s/op",) + _CLI,
    "core.json_decode.busy_s": ("s/op",) + _CLI,
    "core.json.bytes": ("count/op",) + _CLI,
    "core.compose.busy_s": ("s/op",) + _CLI,
    "families.generate.calls": ("count/op",) + _GEN,
    "families.generate.busy_s": ("s/op",) + _GEN,
    "families.generate.elements": ("count/op",) + _GEN,
    "families.generate.typed_errors": ("count/op",) + _GEN,
    "analysis.correlate.busy_s": ("s/op",) + _CORR,
    "analysis.correlate.elements": ("count/op",) + _CORR,
    "analysis.periodic.busy_s": ("s/op",) + _LONG,
    "analysis.merit_exact.busy_s": ("s/op",) + _LONG,
    "analysis.check.self_s": ("s/op",) + _CHECK,
    "analysis.check.pass_ratio": ("ratio",) + _CHECK,
    "analysis.merit.busy_s": ("s/op", _TPUT, "sweep-short, verify-long",
                              "deblur-2d"),
    "analysis.nd.busy_s": ("s/op", _TPUT, "deblur-2d", "verify-long"),
    "decorrelate.blur.busy_s": ("s/op",) + _DEBLUR,
    "decorrelate.blur.pixels": ("count/op",) + _DEBLUR,
    "decorrelate.measure.self_s": ("s/op",) + _DEBLUR,
    "decorrelate.reconstruct.self_s": ("s/op",) + _DEBLUR,
    "decorrelate.residual.busy_s": ("s/op",) + _DEBLUR,
    "decorrelate.bound.busy_s": ("s/op",) + _DEBLUR,
    "decorrelate.masks.busy_s": ("s/op", "peak_rss_mb, " + _TPUT,
                                 "deblur-2d", "sweep-short, verify-long"),
    "trace.overhead_ratio": ("ratio", "none: traced vs untraced op time "
                             "over the same ops", "all workloads", "-"),
}

# ROADMAP item 1 baseline figures (best of 3 on a 2-core machine) and the
# per-layer group each one belongs to.
ROADMAP_BASELINE = {
    "nd_autocorr 63x63": (0.59, "analysis.nd"),
    "periodic_autocorr N=16383": (0.76, "analysis.periodic"),
    "merit_factor_exact N=4096": (0.63, "analysis.merit_exact"),
    "blur 512x512, fib19 mask": (1.37, "decorrelate.blur"),
    "reconstruct 256x256, fib19 mask": (0.56, "decorrelate.reconstruct"),
    "CLI cold start, gen fib 7": (1.3, "cli.process_wall"),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def probe_setup(env: dict, probes: int, samples: list) -> None:
    """Spawn ``probes`` fresh interpreters that ``import huffseq``; append
    (spawn to first statement, the import itself, spawn to import returned)
    of each to ``samples``."""
    code = ("import time; t0 = time.monotonic(); import huffseq; "
            "print(t0, time.monotonic())")
    for _ in range(probes):
        spawn = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        t0, t1 = map(float, proc.stdout.split())
        samples.append((t0 - spawn, t1 - t0, t1 - spawn))


def setup_medians(samples: list) -> dict:
    start, imp, total = zip(*samples)
    return dict(setup_s=statistics.median(total),
                python_start_s=statistics.median(start),
                import_s=statistics.median(imp), samples=list(total))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tally:
    """Results of one loop of ops, kept small so that the benchmark's own
    memory does not grow into the measured peak RSS."""

    def __init__(self):
        self.latency = array("d")
        self.cpu_s = 0.0
        self.status = Counter()
        self.failures = Counter()
        self.rejections = Counter()
        self.mismatches = Counter()
        self.by_mix = {}
        self.worst_rel_err = 0.0
        self.children = []   # span documents of traced CLI processes

    def add(self, key: str, latency: float, cpu: float, verdict) -> None:
        self.latency.append(latency)
        self.cpu_s += cpu
        self.status[verdict.status] += 1
        if verdict.status == "failed":
            self.failures[verdict.detail] += 1
        elif verdict.status == "rejected":
            self.rejections[verdict.detail] += 1
        if verdict.mismatch:
            self.mismatches[verdict.mismatch] += 1
        self.by_mix.setdefault(key, array("d")).append(latency)
        self.worst_rel_err = max(self.worst_rel_err, verdict.rel_err)


def _stop(wl, i: int, busy: float, seconds: float, deadline: float) -> bool:
    """Stop at the first whole round of the workload's schedule once the
    summed op latency reaches ``seconds``, so every run measures the same op
    mix; stop in any case at ``deadline``."""
    return (busy >= seconds and i % wl.round_size == 0
            or time.monotonic() > deadline)


def _measure(wl, spec, tally: Tally) -> float:
    """Run one op (timed), check it (untimed) and record it."""
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    out = wl.run(spec)
    latency = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    tally.add(wl.mix_key(spec), latency, cpu, wl.check(spec, out))
    if out.get("child"):
        tally.children.append(out["child"])
    return latency


def run_ops(wl, specs, seconds: float, deadline: float) -> Tally:
    """Closed loop: the next op starts only after the previous returned."""
    tally, busy = Tally(), 0.0
    for i, spec in enumerate(specs):
        if _stop(wl, i, busy, seconds, deadline):
            break
        busy += _measure(wl, spec, tally)
    return tally


def run_paired(wl, specs, seconds: float, deadline: float, tracer):
    """Each op twice, back to back, once plain and once traced, the order
    alternating from op to op, so that drift in machine speed cancels in
    the tracing overhead.  Returns the plain and the traced tallies."""
    plain, traced, busy = Tally(), Tally(), 0.0
    for i, spec in enumerate(specs):
        if _stop(wl, i, busy, seconds, deadline):
            break
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                busy += _measure(wl, spec, plain)
                continue
            tracer.op_id = i
            if wl.in_process:
                tracer.install()
            else:           # the CLI process records its own spans
                wl.traced = True
            try:
                _measure(wl, spec, traced)
            finally:
                if wl.in_process:
                    tracer.uninstall()
                else:
                    wl.traced = False
    return plain, traced


def tail_latency(latency, round_size: int):
    """op_tail_s: (value, samples, how it was taken).

    Workloads of independent ops (round_size 1): p99.  The percentile
    with ten samples beyond it (p99.99 on tens of thousands of ops) moved
    by half between seeds with single pauses of the machine; p99 has
    hundreds of samples beyond it.  Workloads with a fixed round schedule
    run too few ops for a percentile; there it is the slowest op of each
    whole round, median over the rounds, which takes the same statistic
    whatever the number of rounds a run fits in."""
    n = len(latency)
    if round_size == 1:
        k = min(int(n * 0.99), n - 1)
        return (sorted(latency)[k], n, f"p99, {n - k - 1} samples beyond")
    maxima = [max(latency[i:i + round_size])
              for i in range(0, n - round_size + 1, round_size)]
    if not maxima:   # stopped by the deadline inside the first round
        maxima = [max(latency)]
    return (statistics.median(maxima), len(maxima),
            f"slowest op of each {round_size}-op round, median over rounds")


def end_to_end(tally: Tally, peak_kb: int, setup: dict,
               round_size: int) -> dict:
    """Metric -> (value, unit, samples[, how the tail was taken])."""
    lat = tally.latency
    n = len(lat)
    ok = tally.status["pass"] + tally.status["rejected"]
    tail, tail_n, tail_how = tail_latency(lat, round_size)
    return {
        "setup_s": (setup["setup_s"], "s", len(setup["samples"])),
        "throughput_ops_s": (ok / sum(lat), "1/s", n),
        "op_p50_s": (statistics.median(lat), "s", n),
        "op_tail_s": (tail, "s", tail_n, tail_how),
        "error_rate": (tally.status["failed"] / n, "ratio", n),
        "peak_rss_mb": (peak_kb / 1024, "MB", 1),
        "cpu_per_op_s": (tally.cpu_s / n, "s", n),
    }


def per_layer(tally: Tally, tracer, setup: dict, untraced_s: float,
              workload_name: str):
    """Per-layer metrics per traced op, and the raw per-group statistics."""
    from spans import layer_stats
    stats = layer_stats([tracer.spans]
                        + [child["spans"] for child in tally.children])
    n = len(tally.latency)

    def stat(group, key):
        return stats.get(group, {}).get(key, 0)

    def busy(group):
        return stat(group, "busy_ns") / 1e9 / n

    def self_s(group):
        return stat(group, "self_ns") / 1e9 / n

    traced_s = sum(tally.latency)
    checks = stat("analysis.check", "calls")
    start_s, import_s = setup["python_start_s"], setup["import_s"]
    if tally.children:
        # The traced CLI processes' own start (spawn to first statement)
        # and `import huffseq.cli`; in-process workloads use the setup
        # probes' `import huffseq`.
        start_s = statistics.median(c["start_monotonic"] - c["spawn_monotonic"]
                                    for c in tally.children)
        import_s = statistics.median(c["import_s"] for c in tally.children)
    values = {
        "cli.python_start_s": start_s,
        "cli.import_s": import_s,
        "cli.main.self_s": self_s("cli.main"),
        "cli.process_wall_s":
            traced_s / n if workload_name == "cli-cold" else 0.0,
        "core.json_encode.busy_s": busy("core.json_encode"),
        "core.json_decode.busy_s": busy("core.json_decode"),
        "core.json.bytes": (stat("core.json_encode", "count")
                            + stat("core.json_decode", "count")) / n,
        "core.compose.busy_s": busy("core.compose"),
        "families.generate.calls": stat("families.generate", "calls") / n,
        "families.generate.busy_s": busy("families.generate"),
        "families.generate.elements": stat("families.generate", "count") / n,
        "families.generate.typed_errors":
            stat("families.generate", "typed_errors") / n,
        "analysis.correlate.busy_s": busy("analysis.correlate"),
        "analysis.correlate.elements": stat("analysis.correlate", "count") / n,
        "analysis.periodic.busy_s": busy("analysis.periodic"),
        "analysis.merit_exact.busy_s": busy("analysis.merit_exact"),
        "analysis.check.self_s": self_s("analysis.check"),
        "analysis.check.pass_ratio":
            stat("analysis.check", "passes") / checks if checks else 0.0,
        "analysis.merit.busy_s": busy("analysis.merit"),
        "analysis.nd.busy_s": busy("analysis.nd"),
        "decorrelate.blur.busy_s": busy("decorrelate.blur"),
        "decorrelate.blur.pixels": stat("decorrelate.blur", "count") / n,
        "decorrelate.measure.self_s": self_s("decorrelate.measure"),
        "decorrelate.reconstruct.self_s": self_s("decorrelate.reconstruct"),
        "decorrelate.residual.busy_s": busy("decorrelate.residual"),
        "decorrelate.bound.busy_s": busy("decorrelate.bound"),
        "decorrelate.masks.busy_s": busy("decorrelate.masks"),
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    return values, stats


def baseline_probes(workload_name: str, env: dict, workdir: Path) -> dict:
    """Time the ROADMAP item 1 baseline cases that live on this workload,
    once each, outside the ops."""
    import numpy as np
    import huffseq as H
    cases = {}

    def timed(label, fn, *args):
        t0 = time.perf_counter()
        fn(*args)
        cases[label] = time.perf_counter() - t0

    if workload_name == "verify-long":
        timed("periodic_autocorr N=16383", H.periodic_autocorr,
              H.generate("perfect_arb", n=16384, s=1.0005))
        ints = H.kron(H.generate("b13"), H.kron(H.generate("fib", n=7, s=1),
                                                H.generate("fib", n=47, s=1)))
        timed("merit_factor_exact N=4096", H.merit_factor_exact,
              ints.real[:4096])
    elif workload_name == "deblur-2d":
        f63 = H.generate("fib", n=63, s=1)
        timed("nd_autocorr 63x63", H.nd_autocorr, H.outer(f63, f63))
        f19 = H.generate("fib", n=19, s=1)
        mask = H.outer(f19, f19).real
        rng = np.random.default_rng(0)
        timed("blur 512x512, fib19 mask", H.blur, rng.random((512, 512)), mask)
        measured = H.blur(rng.random((256, 256)), mask)
        timed("reconstruct 256x256, fib19 mask", H.reconstruct, measured, mask)
    elif workload_name == "cli-cold":
        from workloads import CLI_ENTRY
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", CLI_ENTRY, "gen", "--family",
                        "fib", "--n", "7", "--s", "1"], env=env, cwd=workdir,
                       stdout=subprocess.DEVNULL, check=True, timeout=120)
        cases["CLI cold start, gen fib 7"] = time.perf_counter() - t0
    return cases


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        caches[f"L{level} {kind}"] = _read(str(index / "size")).strip()
    mem = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "unknown")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "ram": mem,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {k: os.environ.get(k, "unset") for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + 140   # a run must end within 180 s

    if not ((SRC / "huffseq" / "__init__.py").is_file()
            and (ROOT / "tests" / "_oracles.py").is_file()):
        print(f"perfbench: no huffseq sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.append(str(ROOT / "tests"))
    import warnings
    import numpy as np
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    np.seterr(all="ignore")
    warnings.simplefilter("ignore")

    env = _child_env()
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_samples = []
        probe_setup(env, SETUP_PROBES[0], setup_samples)
        cls = workloads.WORKLOADS[args.workload]
        wl = (cls(args.seed, workdir) if cls.in_process
              else cls(args.seed, workdir, env))
        for spec in wl.warmup_specs():
            wl.check(spec, wl.run(spec))
        audit = Tally()
        for spec in wl.audit_specs():
            _measure(wl, spec, audit)

        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            plain, tally = run_paired(wl, wl.specs(), args.seconds / 2,
                                      deadline, tracer)
        else:
            plain = tally = run_ops(wl, wl.specs(), args.seconds, deadline)
        n = len(tally.latency)
        if not n:
            print("perfbench: no op completed", file=sys.stderr)
            return 1

        peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   if wl.in_process else wl.peak_rss_kb())
        probe_setup(env, SETUP_PROBES[1], setup_samples)
        setup = setup_medians(setup_samples)
        e2e = end_to_end(plain, peak_kb, setup, wl.round_size)
        env_record = environment(args.seed)
        stem = f"{args.workload}-seed{args.seed}"
        result = {
            "workload": args.workload, "trace": args.trace,
            "seconds": args.seconds, "environment": env_record,
            "attempted": n, "status": dict(tally.status),
            "end_to_end": {k: dict(zip(("value", "unit", "samples",
                                        "taken_as"), v))
                           for k, v in e2e.items()},
            "setup_samples_s": setup["samples"],
            "failures": dict(tally.failures.most_common()),
            "rejections": dict(tally.rejections.most_common()),
            "mismatches": dict(tally.mismatches),
            "worst_rel_err": tally.worst_rel_err,
            "mix": {k: dict(ops=len(v), p50_s=statistics.median(v))
                    for k, v in sorted(tally.by_mix.items())},
            "audit": {"attempted": len(audit.latency),
                      "status": dict(audit.status),
                      "failures": dict(audit.failures.most_common()),
                      "rejections": dict(audit.rejections.most_common()),
                      "mismatches": dict(audit.mismatches)},
        }

        print(f"== {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"ops {n}: {dict(tally.status)}")
        print(f"   nproc {env_record['nproc']}, {env_record['cpu_model']}, "
              f"python {env_record['python']}, numpy {env_record['numpy']}, "
              f"scipy {env_record['scipy']}, "
              f"commit {env_record['git_commit']}")
        for name, (value, unit, samples, *how) in e2e.items():
            extra = f" ({how[0]})" if how else ""
            print(f"  {name:<18} {_fmt(value):>12} {unit:<6} "
                  f"n={samples}{extra}")
        for detail, count in tally.failures.most_common(8):
            print(f"  failed  {count:>5}  {detail}")
        for detail, count in tally.mismatches.items():
            print(f"  MISMATCH {count:>4}  {detail}")
        if audit.latency:
            print(f"  audit (untimed, fixed inputs, known defects): "
                  f"{len(audit.latency)} ops: {dict(audit.status)}")
            for detail, count in audit.failures.most_common(8):
                print(f"  audit failed  {count:>5}  {detail}")
            for detail, count in audit.mismatches.items():
                print(f"  audit MISMATCH {count:>4}  {detail}")

        if args.trace:
            layer, stats = per_layer(tally, tracer, setup,
                                     sum(plain.latency), args.workload)
            probes = baseline_probes(args.workload, env, workdir)
            result["per_layer"] = layer
            result["predictions"] = {k: dict(zip(("unit", "moves", "on",
                                                  "no_change_on"), v))
                                     for k, v in PER_LAYER.items()}
            result["layer_stats"] = stats
            result["baseline"] = {
                label: dict(roadmap_s=ROADMAP_BASELINE[label][0],
                            measured_s=secs,
                            layer=ROADMAP_BASELINE[label][1])
                for label, secs in probes.items()}
            print("  per-layer (per traced op):  -> moves / on / no change on")
            for name, value in layer.items():
                unit, moves, on, same = PER_LAYER[name]
                print(f"  {name:<32} {_fmt(value):>12} {unit:<8} -> {moves} / "
                      f"{on} / {same}")
            for label, secs in probes.items():
                roadmap, group = ROADMAP_BASELINE[label]
                print(f"  baseline {label:<34} ROADMAP {roadmap:.2f} s  "
                      f"now {secs:.3f} s  ({group})")
            metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                       for k, v in layer.items()}
            tracer.dump(str(out_dir / f"{stem}-spans.json"),
                        children=tally.children)
        else:
            metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()
                       if k != "error_rate"}
        with open(out_dir / f"{stem}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, default=str)
        print(json.dumps({"correct": not (tally.mismatches
                                          or audit.mismatches),
                          "attempted": n,
                          "failed": tally.status["failed"],
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
