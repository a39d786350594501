"""Benchmark of the spider solver: one workload in one process, one client.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
`src` directory. The load is a closed loop of one client in one thread: it
answers one instance, runs the reference loop, and sends the next.

Each answer's time is divided by the mean of the pure-Python reference loops
run just before and after it. Shared hosts can switch between speeds up to 2x
apart within one process; the ratio follows the solver across such switches
where wall time does not. README.md has the figures.

Memory is measured before the set-ups, in children forked one at a time from
a freshly set-up interpreter: each answers one instance, and the parent waits
for it to end before it forks the next.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a separate traced run, whose spans are also
written to out/trace-<workload>-<seed>.json next to this file. Every answer is
checked after the timed loop; deterministic counts that fail to repeat for a
fixed seed stop the run with exit code 3.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import mmap
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

MIN_ANSWERS = 100  # at least ten answers lie beyond the 90th percentile
CAP_SECONDS = 110  # hard stop of the timed loop, so a run ends within 180 s
SETUP_REPS = 5
WARM_SEED = "warm-up"  # the warm-up instance is the same for every seed, so set-up time is too
SPOT_CHECKS = 2
REF_OPS = 30_000  # about 11 ms on a shared 2-core x86 host
REF_NOMINAL_S = 0.010  # setup_s is scaled to a host where the reference loop takes this long
MEM_CHILDREN = 64  # answers measured for solve_peak_rss_mb, each in its own child
# Linux folds a process's per-CPU RSS counts into the total that ru_maxrss
# reads in batches of this many pages (the percpu counter batch).
RSS_BATCH_PAGES = max(32, 2 * (os.cpu_count() or 1))


class Nondeterministic(RuntimeError):
    """A count that must repeat exactly for a fixed seed did not."""


def ref_loop():
    """Seconds taken by a fixed pure-Python dict workload like the DP's.

    Two-digit integer keys spread over a million slots, so the loop touches
    memory the way the DP's state tables do and slows with them when the
    host does; a loop over small keys slowed by less.
    """
    start = time.perf_counter()
    table = {}
    for i in range(REF_OPS):
        key = ((i * 2654435761) & 0xFFFFF) << 11
        value = i & 1023
        if key not in table or value < table[key]:
            table[key] = value
    return time.perf_counter() - start


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_library():
    """Import the package afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "spidergather" or m.startswith("spidergather.")]:
        del sys.modules[name]
    sg = importlib.import_module("spidergather")
    if not os.path.abspath(sg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"spidergather imported from {sg.__file__}, not from {SRC}")
    return sg, importlib.import_module("spidergather.cli")


def child_peak_mb(wl, item, pad_pages):
    """The peak RSS that answering item adds, in a forked child; None if it failed.

    A child starts with its high-water mark at its resident size, so its
    ru_maxrss after the answer, less that before, is what the answer adds.
    The child first touches pad_pages private pages of its own, which shifts
    where the kernel's batched RSS count crosses a batch boundary; spread over
    a batch, these shifts let a mean over children resolve less than a batch.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            pad = mmap.mmap(-1, (pad_pages + 1) * mmap.PAGESIZE, flags=mmap.MAP_PRIVATE)
            for page in range(pad_pages):
                pad[page * mmap.PAGESIZE] = 1
            before = maxrss_mb()
            wl.answer(item)
            os.write(write_fd, repr(maxrss_mb() - before).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            out = fh.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return float(out) if status == 0 and out else None


def memory_pass(name, seed, workdir):
    """solve_peak_rss_mb: the mean over MEM_CHILDREN children of child_peak_mb.

    The children fork from an interpreter that has only imported the package
    and built the pool, so the free memory they start with hardly depends on
    the seed. Child i answers instance i mod pool size and shifts its count by
    i * RSS_BATCH_PAGES / MEM_CHILDREN pages. Returns (mean, error lists).
    """
    sg, cli = load_library()
    wl = WORKLOADS[name](sg, cli, workdir)
    items = [wl.build(i, r) for i, r in enumerate(wl.generate(seed, wl.pool_size))]
    gc.collect()
    peaks, errors = [], []
    for i in range(MEM_CHILDREN):
        peak = child_peak_mb(wl, items[i % len(items)], i * RSS_BATCH_PAGES // MEM_CHILDREN)
        if peak is None:
            errors.append([f"memory pass: answer {i} failed in its child"])
        else:
            peaks.append(peak)
            errors.append([])
    return (statistics.mean(peaks) if peaks else 0.0), errors


def setup(name, seed, workdir):
    """Import, generate and warm up SETUP_REPS times; the last set-up is kept.

    Each set-up imports the package afresh, generates and builds the pool and
    gives one warm-up answer. Its time is divided by the mean of the reference
    loops run just before and after it. The input hash and the warm-up
    answer's counts must repeat in every set-up.
    """
    times, seen = [], set()
    for _ in range(SETUP_REPS):
        ref_before = ref_loop()
        start = time.perf_counter()
        sg, cli = load_library()
        wl = WORKLOADS[name](sg, cli, workdir)
        raw = wl.generate(seed, wl.pool_size)
        items = [wl.build(i, r) for i, r in enumerate(raw)]
        warm_item = wl.build("warm", wl.generate(WARM_SEED, 1)[0])
        warm = wl.answer(warm_item)
        took = time.perf_counter() - start
        times.append((took, took / ((ref_before + ref_loop()) / 2.0) * REF_NOMINAL_S))
        digest = hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()
        seen.add((digest, json.dumps(wl.counts(warm_item, warm), sort_keys=True)))
    if len(seen) != 1:
        raise Nondeterministic(f"set-ups differ in input hash or warm-up counts: {sorted(seen)}")
    return wl, items, digest, times


class Recorder:
    """Spans kept in memory: id, parent span, operation, name, start, end."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # name -> {pool index: value}
        self._parent = None
        self._op = self._index = None

    @contextlib.contextmanager
    def span(self, name):
        span = [len(self.spans), self._parent, self._op, name, time.perf_counter(), None]
        self.spans.append(span)
        parent, self._parent = self._parent, span[0]
        try:
            yield
        finally:
            span[5] = time.perf_counter()
            self._parent = parent

    @contextlib.contextmanager
    def operation(self, op, index):
        self._op, self._index = op, index
        with self.span("operation"):
            yield

    def count(self, name, value):
        seen = self.counts.setdefault(name, {})
        if seen.setdefault(self._index, value) != value:
            raise Nondeterministic(f"{name} of instance {self._index}: {value} vs {seen[self._index]}")

    def per_op_ms(self, *names):
        """Per operation, the summed duration of the named spans, in ms."""
        out = {}
        for _, _, op, name, start, end in self.spans:
            if name in names:
                out[op] = out.get(op, 0.0) + (end - start) * 1000.0
        return out

    def dump(self, path):
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def timed_loop(wl, items, seconds, rec):
    """Answer the pool in whole passes until the time is up and enough were answered.

    Whole passes weigh every instance equally, whatever the host speed.
    """
    need = len(items) if rec else MIN_ANSWERS
    answers, refs, trace_errors = [], [ref_loop()], {}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(answers) % len(items) == 0 and (
            (elapsed >= seconds and len(answers) >= need) or elapsed >= CAP_SECONDS
        ):
            break
        op, index = len(answers), len(answers) % len(items)
        t0 = time.perf_counter()
        try:
            result = wl.answer(items[index])
        except Exception as exc:  # a raising operation counts as failed
            result = exc
        took = time.perf_counter() - t0
        refs.append(ref_loop())
        answers.append((index, took, result))
        if rec:
            with rec.operation(op, index):
                try:
                    trace_errors[op] = wl.trace(items[index], rec)
                except Nondeterministic:
                    raise
                except Exception as exc:
                    trace_errors[op] = [f"trace raised {exc!r}"]
    return answers, refs, trace_errors


def check_answers(wl, items, answers, trace_errors):
    """Errors per answer, after the loop; raises Nondeterministic on a count mismatch."""
    counts = {}
    errors = []
    for op, (index, _, result) in enumerate(answers):
        if isinstance(result, Exception):
            errors.append([f"raised {result!r}"])
            continue
        try:
            errs = wl.check(items[index], result)
            seen = wl.counts(items[index], result)
        except Exception as exc:
            errors.append([f"check raised {exc!r}"])
            continue
        if counts.setdefault(index, seen) != seen:
            raise Nondeterministic(f"instance {index}: {seen} vs {counts[index]}")
        errors.append(errs + trace_errors.get(op, []))
    return errors, counts


def check_traced_counts(wl, rec, counts):
    for name, key in wl.traced_counts.items():
        for index, value in rec.counts.get(name, {}).items():
            if index in counts and counts[index][key] != value:
                raise Nondeterministic(f"traced {name} of instance {index}: {value} vs {counts[index][key]}")


def spot_checks(wl, seed):
    rng = random.Random(f"spot:{wl.name}:{seed}")
    out = []
    for _ in range(SPOT_CHECKS):
        try:
            out.append(wl.spot(rng))
        except Exception as exc:
            out.append([f"spot check raised {exc!r}"])
    return out


def quantile90(values):
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(answers, refs, setup_times, peak_mb):
    """The gated metrics, and wall-clock figures that are printed but not gated."""
    # Failed answers are timed too; correctness is reported by failed/attempted.
    ms = [took * 1000.0 for _, took, _ in answers]
    rel = [took / ((refs[k] + refs[k + 1]) / 2.0) for k, (_, took, _) in enumerate(answers)]
    metrics = {
        "solve_rel.p50": (statistics.median(rel), "ref-loops"),
        "solve_rel.p90": (quantile90(rel), "ref-loops"),
        "solve_peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(scaled for _, scaled in setup_times), "s"),
    }
    wall = {
        "solve_ms.p50": (statistics.median(ms), "ms"),
        "solve_ms.p90": (quantile90(ms), "ms"),
        "setup_wall_s": (statistics.median(took for took, _ in setup_times), "s"),
    }
    return metrics, wall


def peak_mb(wl, item):
    """tracemalloc peak of one run_dp call, value-only then witness, each its own pass.

    tracemalloc slows the solver about 50x, so one instance is measured.
    """
    inst, kind = wl.solver_input(item)
    peaks = []
    tracemalloc.start()
    try:
        for want_solution in (False, True):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            wl.sg.run_dp(inst, kind, want_solution=want_solution)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
    finally:
        tracemalloc.stop()
    return peaks


def per_layer(wl, items, rec, answers, refs):
    def p50(*names):
        return statistics.median(rec.per_op_ms(*names).values())

    def mean_count(name):
        seen = rec.counts.get(name, {})
        return sum(seen.values()) / len(seen) if seen else 0

    value = rec.per_op_ms("fpt_solver.value")
    witness = rec.per_op_ms("fpt_solver.witness")
    cli_solve = rec.per_op_ms("cli.solve")
    states = rec.counts["fpt_solver.states"]
    untraced_ms = statistics.median(took * 1000.0 for _, took, _ in answers)
    value_peak, witness_peak = peak_mb(wl, items[0])
    return {
        "fpt_solver.value_ms": (p50("fpt_solver.value"), "ms"),
        "fpt_solver.states_per_ms": (
            statistics.median(states[answers[op][0]] / ms for op, ms in value.items()), "states/ms"),
        "fpt_solver.states": (mean_count("fpt_solver.states"), "count"),
        "fpt_solver.swept_users": (mean_count("fpt_solver.swept_users"), "count"),
        "fpt_solver.legs": (mean_count("fpt_solver.legs"), "count"),
        "fpt_solver.witness_ms": (p50("fpt_solver.witness"), "ms"),
        "fpt_solver.witness_extra_ms": (statistics.median(witness[op] - value[op] for op in value), "ms"),
        "fpt_solver.value_peak_mb": (value_peak, "MB"),
        "fpt_solver.witness_peak_mb": (witness_peak, "MB"),
        "cost_oracle.index_ms": (p50("cost_oracle.index"), "ms"),
        "cost_oracle.best_facility_ms": (p50("cost_oracle.best_facility"), "ms"),
        "line_suffix.tables_ms": (p50("line_suffix.tables"), "ms"),
        "model.normalize_ms": (p50("model.normalize"), "ms"),
        "model.validate_ms": (p50("model.validate"), "ms"),
        "reductions.normalize_arrears_ms": (p50("reductions.normalize_arrears"), "ms"),
        "reductions.arrears_to_spider_ms": (p50("reductions.arrears_to_spider"), "ms"),
        "reductions.spider_legs": (mean_count("reductions.spider_legs"), "count"),
        "reductions.spider_r": (mean_count("reductions.spider_r"), "count"),
        "cli.reduce_ms": (p50("cli.reduce"), "ms"),
        "cli.solve_ms": (p50("cli.solve"), "ms"),
        "cli.overhead_ms": (statistics.median(cli_solve[op] - witness[op] for op in cli_solve), "ms"),
        "bench.ref_loop_ms.p50": (statistics.median(refs) * 1000.0, "ms"),
        "bench.trace_overhead": (p50(*wl.traced_op) / untraced_ms, "ratio"),
    }


def mean_counts(counts):
    """Per-instance mean of each deterministic count over the pool."""
    if not counts:
        return {}
    keys = next(iter(counts.values())).keys()
    return {k: sum(float(c[k]) for c in counts.values()) / len(counts) for k in keys}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spidergather", "__init__.py")):
        print(f"error: no library source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        mem_errors = []
        if not args.trace:
            peak_mb, mem_errors = memory_pass(args.workload, args.seed, workdir)
            gc.collect()
        wl, items, digest, setup_times = setup(args.workload, args.seed, workdir)
        rec = Recorder() if args.trace else None
        answers, refs, trace_errors = timed_loop(wl, items, args.seconds, rec)
        errors, counts = check_answers(wl, items, answers, trace_errors)
        errors += spot_checks(wl, args.seed) + mem_errors
        wall = {}
        if args.trace:
            check_traced_counts(wl, rec, counts)
            metrics = per_layer(wl, items, rec, answers, refs)
            rec.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
        else:
            metrics, wall = end_to_end(answers, refs, setup_times, peak_mb)
    except Nondeterministic as exc:
        print(f"error: deterministic count did not repeat: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for errs in errors if errs)
    for errs in [e for e in errors if e][:5]:
        print(f"failed: {'; '.join(errs)}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "input_sha256": digest,
        "answers": len(answers),
        "pool": len(items),
        "counts": mean_counts(counts),
    }
    wall["failed_frac"] = (failed / len(errors), "ratio")
    info["not_gated"] = {name: value for name, (value, _) in wall.items()}
    print("info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:34s} {value:14.6g} {unit}")
    for name, (value, unit) in wall.items():
        print(f"{args.workload:10s} {name:34s} {value:14.6g} {unit}  (not gated)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(errors),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
