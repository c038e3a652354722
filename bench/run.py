"""heatbayes benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload rough|coverage|protocols --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/``;
outputs go to ``.bench_out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
metric names and units come from ``BENCHMARK.json``.

A pass is one run of the workload's fixed job list (a closed loop: each job
starts when the previous one has returned).  Passes repeat while the next
one is expected to end within ``--seconds``.  The first pass is a warm-up:
its outputs are checked, but its time is not in wall_s, and peak memory
is read right after it.  At least TIMED_PASSES timed passes always run.
Outputs are checked after all passes.  An output bit-identical to the
first pass's output of the same job shares that output's verdict.

BLAS runs on one thread (BLAS_THREADS).  On a small shared host, BLAS
threads on every core make pass times follow the host's scheduler rather
than the program; a change that brings its own parallelism still shows in
wall_s.

--trace 0  end-to-end metrics: setup_s (median over SETUP_PROBES fresh
           processes, spawned after the timed passes, that import heatbayes,
           numpy and scipy.stats and build the job list), wall_s (median
           per timed pass), both in reference seconds (see hostspeed.py),
           and peak_rss_mb (ru_maxrss of this process after the warm-up).
           Plain seconds, quartiles, pass count and failed_frac are printed
           above the JSON line.
--trace 1  per-layer metrics: a warm-up and untraced passes for half of
           --seconds, then traced passes for the other half, at least one
           each (see instrument.py).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_PROBES = 3
# least number of timed passes after the warm-up, whatever --seconds says
TIMED_PASSES = 3
WORKLOADS = ("rough", "coverage", "protocols")
# set before numpy is first imported, here and in the setup probes
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402 (imports numpy)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def metric_units(section: str) -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def import_and_build(workload: str, seed: int) -> list:
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.stats  # noqa: F401
    import heatbayes  # noqa: F401
    import workloads
    return workloads.build(workload, seed, os.path.join(OUT, workload))


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until its job list is ready."""
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.split()[-1]) - t0


def setup_times(args, speed) -> list:
    """SETUP_PROBES setup probes, one at a time, each in reference seconds
    from the host probes just before and after it."""
    times = []
    before = speed.sample()
    for _ in range(SETUP_PROBES):
        seconds = probe_setup(args)
        after = speed.sample()
        times.append((seconds, seconds * REFERENCE_S / ((before + after) / 2)))
        before = after
    return times


def blas_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    out = {"name": blas.get("name"), "version": blas.get("version"),
           "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def run_record(args) -> dict:
    import numpy
    import scipy
    import heatbayes
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "heatbayes": heatbayes.__version__,
        "machine": platform.machine(), "blas": blas_record(),
    }


@dataclasses.dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    job_s: dict = dataclasses.field(default_factory=dict)
    outputs: dict = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)
    counts: dict = dataclasses.field(default_factory=dict)
    probes: list = dataclasses.field(default_factory=list)

    @property
    def ref_s(self) -> float:
        """Pass time in reference seconds (see hostspeed.py)."""
        return self.wall * REFERENCE_S / statistics.fmean(self.probes)


def one_pass(jobs, tracer=None, speed=None) -> Pass:
    """One pass over the job list.  With a HostSpeed, probes are taken
    between jobs (not timed into the pass) and after the last one; the pass
    keeps those and the probe just before it."""
    result = Pass()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.enabled = True
    if speed is not None:
        result.probes.append(speed.samples[-1])
    probe_s = 0.0
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job.name
        j0 = time.perf_counter()
        try:
            result.outputs[job.name] = job.run()
        except Exception as exc:  # a failed job is counted, not fatal
            result.outputs[job.name] = exc
            traceback.print_exc(file=sys.stderr)
        result.job_s[job.name] = time.perf_counter() - j0
        if speed is not None and k + 1 < len(jobs) and speed.due():
            result.probes.append(speed.sample())
            probe_s += result.probes[-1]
    result.wall = time.perf_counter() - t0 - probe_s
    result.cpu = time.process_time() - cpu0
    if speed is not None:
        result.probes.append(speed.sample())
    if tracer is not None:
        tracer.enabled = False
        result.spans = tracer.spans
        result.counts = dict(tracer.counts)
    return result


def run_passes(jobs, budget_s: float, tracer=None, least: int = 1,
               speed=None) -> list:
    passes = []
    start = time.perf_counter()
    if speed is not None:
        speed.sample()
    while True:
        passes.append(one_pass(jobs, tracer, speed))
        typical = statistics.median(p.wall for p in passes)
        if (len(passes) >= least
                and time.perf_counter() - start + typical > budget_s):
            return passes


def identical(a, b) -> bool:
    """Bitwise equality of job outputs, NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True
    if type(a) is not type(b):
        return False
    if hasattr(a, "__array__"):
        import numpy as np
        return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))
    if dataclasses.is_dataclass(a):
        return all(identical(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    return a == b


def check_passes(jobs, passes) -> tuple[int, int]:
    attempted = failed = 0
    first, verdict = passes[0].outputs, {}
    for k, ps in enumerate(passes):
        for job in jobs:
            attempted += 1
            out = ps.outputs[job.name]
            if isinstance(out, Exception):
                problems = [f"raised {type(out).__name__}: {out}"]
            elif job.name in verdict and identical(out, first[job.name]):
                problems = verdict[job.name]
            else:
                try:
                    problems = job.check(out)
                except Exception as exc:  # a broken output may break its check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                if k == 0:
                    verdict[job.name] = problems
            if problems:
                failed += 1
                for line in problems[:5]:
                    print(f"FAIL pass {k} {job.name}: {line}", file=sys.stderr)
    return attempted, failed


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_metrics(names, traced, untraced) -> dict:
    """Per-layer metrics, each the median over the traced passes."""
    from instrument import LAYERS, self_times

    selfs = [self_times(p.spans) for p in traced]
    wall_u = statistics.median(p.wall for p in untraced)

    def ratio(num, den):
        return lambda p, s: p.counts.get(num, 0) / max(p.counts.get(den, 0), 1)

    derived = {
        "posterior.active_frac": ratio("posterior.active", "posterior.coeffs"),
        "credible.active_frac": ratio("credible.active", "credible.coords"),
        "trace.wall_s": lambda p, s: p.wall,
        "trace.overhead_frac": lambda p, s: p.wall / wall_u - 1.0,
        "trace.outside_s": lambda p, s: p.wall - s[1],
        "trace.count_s": lambda p, s: s[0]["trace"],
    }
    out = {}
    for key in names:
        layer, _, stat = key.partition(".")
        if key == "proc.cpu_s":
            out[key] = statistics.median(p.cpu for p in untraced)
            continue
        if key in derived:
            fn = derived[key]
        elif stat == "self_s" and layer in LAYERS:
            fn = lambda p, s, layer=layer: s[0][layer]  # noqa: E731
        else:
            fn = lambda p, s, key=key: p.counts.get(key, 0)  # noqa: E731
        out[key] = statistics.median(fn(p, s) for p, s in zip(traced, selfs))
    (layers, covered), wall = selfs[0], traced[0].wall
    parts = " + ".join(f"{k} {v:.4f}" for k, v in layers.items())
    print(f"accounting, first traced pass: {parts} + outside "
          f"{wall - covered:.4f} = {sum(layers.values()) + wall - covered:.4f}"
          f" s; traced wall {wall:.4f} s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heatbayes", "__init__.py")):
        print(f"bench: no heatbayes package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import_and_build(args.workload, args.seed)
        print(repr(time.time()))
        return 0

    jobs = import_and_build(args.workload, args.seed)
    record = run_record(args)
    print("record: " + json.dumps(record, sort_keys=True))

    start = time.perf_counter()
    warm = one_pass(jobs)
    # the peak of one pass, as a user's run makes it, read before the host
    # probe allocates its arrays; later passes repeat the same allocations
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = []
    if args.trace == 0:
        speed = HostSpeed()
        untraced = run_passes(jobs, start + args.seconds - time.perf_counter(),
                              least=TIMED_PASSES, speed=speed)
        traced = []
        setup = setup_times(args, speed)
    else:
        from instrument import Tracer, dump_spans, instrument
        untraced = run_passes(
            jobs, start + args.seconds / 2.0 - time.perf_counter())
        tracer = Tracer()
        instrument(tracer)
        traced = run_passes(jobs, args.seconds / 2.0, tracer)
    attempted, failed = check_passes(jobs, [warm] + untraced + traced)

    walls = [p.wall for p in untraced]
    q1, q2, q3 = quartiles(walls)
    print(f"wall seconds: median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} s over "
          f"{len(walls)} untraced passes after a {warm.wall:.4f} s warm-up")
    if args.trace == 0:
        refs = [p.ref_s for p in untraced]
        r1, r2, r3 = quartiles(refs)
        probes = [x for p in untraced for x in p.probes]
        print(f"wall_s (reference seconds): median {r2:.4f} q1 {r1:.4f} "
              f"q3 {r3:.4f}; host probe median {statistics.median(probes):.4f}"
              f" s, reference {REFERENCE_S} s")
    for job in jobs:
        times = [p.job_s[job.name] for p in untraced]
        print(f"job {job.name}: median {statistics.median(times):.4f} s")
    print(f"failed_frac: {failed / attempted:.4f} ({failed}/{attempted} jobs)")

    if args.trace == 0:
        units = metric_units("end_to_end")
        print(f"setup seconds: median "
              f"{statistics.median(s for s, _ in setup):.4f} s")
        measured = {"setup_s": statistics.median(r for _, r in setup),
                    "wall_s": r2,
                    "peak_rss_mb": peak_mb}
        metrics = {k: measured[k] for k in units}
    else:
        units = metric_units("per_layer")
        metrics = layer_metrics(units, traced, untraced)
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        dump_spans(spans_path, [p.spans for p in traced])
        print(f"spans of {len(traced)} traced passes: {spans_path}")
    for key, value in metrics.items():
        print(f"{key}: {value!r} {units[key]}")
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"record": record, "setup_probes_s": setup,
                   "warm_up_s": warm.wall, "wall_seconds": walls,
                   "probes_s": [p.probes for p in untraced],
                   "job_s": {j.name: [p.job_s[j.name] for p in untraced]
                             for j in jobs},
                   "failed": failed, "attempted": attempted,
                   "metrics": metrics}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
