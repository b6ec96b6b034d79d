#!/usr/bin/env python3
"""Run one fedtune benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload adaptive-sync --seed 1 --seconds 30 --trace 0

prints one line per metric (name, value, unit), then a JSON line with the
run's environment and seeds, then, as the last line, the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--trace 0` reports the end-to-end metrics with no tracing installed;
`--trace 1` reports the per-layer metrics from traced calls. The exit code
is 0 when every correctness check passed, 1 when one failed (the result is
still printed) and 2 when the program could not be found or imported.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import refkernel
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS_PER_CALL = 3
WORLD_SEED_STRIDE = 1000

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "best_val_loss": "nats",
    "selected_test_acc": "fraction",
    "sim_makespan_s": "sim_s",
}
PER_LAYER = {
    "models.loss_and_grad.calls": "count",
    "models.loss_and_grad.samples": "count",
    "models.loss_and_grad.s": "s",
    "models.local_train.calls": "count",
    "models.local_train.self_s": "s",
    "models.evaluate.calls": "count",
    "models.evaluate.s": "s",
    "flcore.run_round.calls": "count",
    "flcore.run_round.self_s": "s",
    "flcore.run_trial.calls": "count",
    "flcore.run_trial.self_s": "s",
    "flcore.fedavg_aggregate.calls": "count",
    "flcore.fedavg_aggregate.s": "s",
    "runner.run_probe_cycle.calls": "count",
    "runner.run_probe_cycle.s": "s",
    "runner.run_probe_cycle.self_s": "s",
    "hpo.probes.count": "count",
    "hpo.step.calls": "count",
    "hpo.step.moved_frac": "ratio",
    "hpo.feedback_store.record.calls": "count",
    "sched.dispatch.self_s": "s",
    "sched.completion_time.calls": "count",
    "sched.completion_time.s": "s",
    "sched.groups": "count",
    "sched.sim_busy_frac": "ratio",
    "runner.build_world.s": "s",
    "data.gen_synthetic.s": "s",
    "data.partition_dirichlet.s": "s",
    "config.load_config.s": "s",
    "runner.emit_metrics.s": "s",
    "runner.emit_metrics.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# Per-layer metrics that are not `<span>.<calls|s|self_s>`: the span each
# depends on, so it reads as missing when that span could not be wrapped.
DERIVED_FROM = {
    "models.loss_and_grad.samples": "models.loss_and_grad",
    "hpo.probes.count": "hpo.probes",
    "hpo.step.moved_frac": "hpo.step",
    "sched.groups": "sched.dispatch",
    "sched.sim_busy_frac": "sched.dispatch",
    "runner.emit_metrics.bytes": "runner.emit_metrics",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1,
                   help="generates the world seeds of every call in the run")
    p.add_argument("--seeds", default=None,
                   help="comma-separated world seeds used by every call, "
                        "instead of seeds generated from --seed")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measurement length; sets how many calls the run makes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_fedtune(root):
    """Import fedtune from the checkout's src/; returns (package, seconds)."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fedtune", "__init__.py")):
        raise ImportError(f"no fedtune package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fedtune
    import_s = time.perf_counter() - t0
    if not os.path.abspath(fedtune.__file__).startswith(src + os.sep):
        raise ImportError(f"fedtune imported from {fedtune.__file__}, not {src}")
    return fedtune, import_s


def seed_lists(workload, seed, seconds, seeds_arg):
    """World seeds of each call in the run.

    The number of calls is fixed by --seconds and the workload's nominal
    call time, never by how fast this machine is, so a run's inputs depend
    only on its arguments. Call i, world j uses seed
    seed + 1000 * (i * seeds_per_call + j). The last call repeats the
    first, so every run checks that the same seeds give the same output.
    """
    calls = max(2, int(seconds // workload.call_s))
    if seeds_arg:
        fixed = [int(s) for s in seeds_arg.split(",")]
        return [list(fixed) for _ in range(calls)]
    k = workload.seeds_per_call
    lists = [[seed + WORLD_SEED_STRIDE * (i * k + j) for j in range(k)]
             for i in range(calls - 1)]
    return lists + [list(lists[0])]


def _git_sha(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _tree_sha256(directory):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, directory).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(root):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _tree_sha256(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _checked_call(wl, workload, seeds, work_dir, problems):
    wall, outcome = wl.call(workload, seeds, work_dir)
    problems.extend(f"{workload.name} seeds {seeds}: {p}"
                    for p in wl.check(workload, seeds, outcome))
    return wall, outcome


def _same(outcomes_by_seeds, seeds, outcome, what, problems):
    """Record a problem if an earlier call on these seeds produced other output."""
    key = tuple(seeds)
    if key in outcomes_by_seeds and outcomes_by_seeds[key].key() != outcome.key():
        problems.append(f"seeds {seeds}: output differs between {what}")
    outcomes_by_seeds.setdefault(key, outcome)


def _selected(rows):
    """(objective, accuracy) of the trial with the lowest finite objective."""
    ok = [r for r in rows if not r[4] and r[2] < float("inf")]
    if not ok:
        return None
    best = min(ok, key=lambda r: (r[2], r[0]))
    return best[2], best[3]


def _cpu_s():
    """CPU seconds used so far by this process and its ended children."""
    own, children = (resource.getrusage(who) for who in
                     (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_untraced(fedtune, wl, workload, lists, work_dir):
    problems = []
    setups, walls, by_seeds = [], [], {}  # (raw seconds, scale) pairs
    call_cpus = []  # CPU seconds per wall second of each call
    kernel = [refkernel.kernel()]
    per_world = {}  # seed -> SeedOutcome
    attempted = failed = 0
    for seeds in lists:
        # set-up is repeated before every call, so its samples span the run
        raw_setups = [wl.setup(workload, seeds, work_dir) for _ in range(SETUP_REPEATS_PER_CALL)]
        tracer.assert_untraced(fedtune)
        cpu = _cpu_s()
        wall, outcome = _checked_call(wl, workload, seeds, work_dir, problems)
        call_cpus.append((_cpu_s() - cpu) / wall)
        kernel.append(refkernel.kernel())
        scale = refkernel.REFERENCE_KERNEL_S / statistics.fmean(kernel[-2:])
        walls.append((wall, scale))
        setups += [(t, scale) for t in raw_setups]
        _same(by_seeds, seeds, outcome, "calls", problems)
        for s in outcome.seeds:
            attempted += len(s.rows)
            failed += sum(1 for r in s.rows if r[4])
            per_world.setdefault(s.seed, s)
    selected = [sel for sel in (_selected(s.rows) for s in per_world.values()) if sel]
    if not selected:
        problems.append("no world produced a finite objective")
        selected = [(float("nan"), float("nan"))]
    metrics = {
        "wall_s": statistics.median(t * k for t, k in walls),
        "setup_s": statistics.median(t * k for t, k in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "best_val_loss": statistics.median(o for o, _ in selected),
        "selected_test_acc": statistics.median(a for _, a in selected),
        "sim_makespan_s": statistics.median(s.makespan for s in per_world.values()),
    }
    info = {
        "calls": len(walls),
        "raw_wall_s": statistics.median(t for t, _ in walls),
        "raw_setup_s": statistics.median(t for t, _ in setups),
        "raw_wall_samples_s": [t for t, _ in walls],
        "kernel_samples_s": kernel,
        "call_cpus": statistics.median(call_cpus),
        "setup_samples": len(setups),
        "worlds": sorted(per_world),
    }
    return metrics, set(), attempted, failed, problems, info


def run_traced(fedtune, wl, workload, lists, work_dir):
    """Pairs of calls on the same seeds, one traced and one not, alternating
    which runs first; per-layer figures are means per traced call."""
    problems = []
    pairs = lists[: max(1, len(lists) // 2)]
    tr = tracer.Tracer(fedtune)
    plain_walls, traced_walls = [], []
    attempted = failed = 0
    for i, seeds in enumerate(pairs):
        outcomes = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tr:
                    wall, outcome = tr.span("bench.call", _checked_call)(
                        wl, workload, seeds, work_dir, problems)
                traced_walls.append(wall)
            else:
                tracer.assert_untraced(fedtune)
                wall, outcome = _checked_call(wl, workload, seeds, work_dir, problems)
                plain_walls.append(wall)
            _same(outcomes, seeds, outcome, "the traced and the untraced call", problems)
            for s in outcome.seeds:
                attempted += len(s.rows)
                failed += sum(1 for r in s.rows if r[4])
    tracer.assert_untraced(fedtune)
    stats, mismatch = tr.layer_stats()
    if mismatch > 1e-6:
        problems.append(f"child spans overlap or leave their parent by {mismatch:.3g} s")

    n = len(pairs)
    c = tr.counters
    fold = tr.folds.get("models.loss_and_grad", [0, 0.0, 0])
    steps = stats.get("hpo.step", {}).get("calls", 0)
    capacity = c["sched.capacity_sim_s"]
    derived = {
        "models.loss_and_grad.samples": fold[2] / n,
        "hpo.probes.count": c["hpo.probes.count"] / n,
        "hpo.step.moved_frac": c["hpo.step.moved"] / steps if steps else 0.0,
        "sched.groups": c["sched.groups.total"] / c["sched.dispatch.runs"]
        if c["sched.dispatch.runs"] else 0.0,
        "sched.sim_busy_frac": c["sched.busy_sim_s"] / capacity if capacity else 0.0,
        "runner.emit_metrics.bytes": c["runner.emit_metrics.bytes"] / n,
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(plain_walls),
        "trace.spans": len(tr.names) / n,
    }
    metrics, missing = {}, set()
    for name in PER_LAYER:
        if name in derived:
            span = DERIVED_FROM.get(name)
            value = derived[name]
        else:
            span, stat = name.rsplit(".", 1)
            value = stats.get(span, {}).get(stat, 0) / n
        if span in tr.missing:
            missing.add(name)
        metrics[name] = value
    info = {
        "pairs": n,
        "traced_wall_samples_s": traced_walls,
        "untraced_wall_samples_s": plain_walls,
        "child_cover_mismatch_s": mismatch,
    }
    return metrics, missing, attempted, failed, problems, info


def main(argv=None, catalog=None) -> int:
    """Run one workload; `catalog` replaces the workload table (for tests)."""
    args = parse_args(argv)
    try:
        fedtune, import_s = load_fedtune(ROOT)
    except ImportError as err:
        print(f"perfbench: cannot load the program: {err}", file=sys.stderr)
        return 2
    import workloads as wl

    catalog = wl.WORKLOADS if catalog is None else catalog
    if args.workload not in catalog:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(catalog)}", file=sys.stderr)
        return 2
    workload = catalog[args.workload]
    lists = seed_lists(workload, args.seed, args.seconds, args.seeds)
    work_dir = os.path.join(ROOT, ".bench_out", f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, missing, attempted, failed, problems, info = run(
            fedtune, wl, workload, lists, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    result_metrics = {}
    for name, unit in units.items():
        entry = {"value": metrics[name], "unit": unit}
        if name in missing:
            entry["missing"] = True
        result_metrics[name] = entry
        flag = "  (missing)" if name in missing else ""
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}{flag}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"info": {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "seed_lists": lists,
        "import_s": import_s,
        "problems": problems,
        **info,
        "env": environment(ROOT),
    }}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
