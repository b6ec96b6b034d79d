"""Outside-in tracing of fedtune's layers.

A Tracer rebinds public functions of the fedtune modules (and methods of
the hpo sampler and feedback store classes) to wrappers that record spans
in memory: name, start, end and parent. `restore()` puts the originals
back. Nothing in the package is edited; this works because every traced
call is looked up through a module or class attribute at call time (for
example `flcore.run_round` calls `models.local_train` through the
`models` module).

The hottest call, `models.loss_and_grad`, is folded: it records no span,
only a call count, a sample count and a time, and its time is charged to
the enclosing span as child time.

Self time of a span is its duration minus the part of its interval that
its child spans cover, minus its folded child time.
"""

import os
import time
from collections import defaultdict

MARK = "__perfbench_wrapped__"

# (owner, attribute, span name). An owner is a fedtune module or a class in
# one. Two owners may bind the same function (cli imports load_config by
# name), so both are patched under one span name.
SPANS = (
    ("runner", "run_experiment", "runner.run_experiment"),
    ("runner", "build_world", "runner.build_world"),
    ("runner", "make_groups", "runner.make_groups"),
    ("runner", "run_probe_cycle", "runner.run_probe_cycle"),
    ("runner", "emit_metrics", "runner.emit_metrics"),
    ("flcore", "run_trial", "flcore.run_trial"),
    ("flcore", "run_round", "flcore.run_round"),
    ("flcore", "fedavg_aggregate", "flcore.fedavg_aggregate"),
    ("models", "init_weights", "models.init_weights"),
    ("models", "local_train", "models.local_train"),
    ("models", "evaluate", "models.evaluate"),
    ("hpo.AdaptiveSampler", "start_config", "hpo.start_config"),
    ("hpo.AdaptiveSampler", "probes", "hpo.probes"),
    ("hpo.AdaptiveSampler", "step", "hpo.step"),
    ("hpo.FeedbackStore", "record", "hpo.feedback_store.record"),
    ("sched", "dispatch", "sched.dispatch"),
    ("sched", "completion_time", "sched.completion_time"),
    ("sched", "form_groups", "sched.form_groups"),
    ("data", "gen_synthetic", "data.gen_synthetic"),
    ("data", "partition_dirichlet", "data.partition_dirichlet"),
    ("config", "validate_config", "config.validate_config"),
    ("config", "load_config", "config.load_config"),
    ("cli", "load_config", "config.load_config"),
)
FOLDED = (("models", "loss_and_grad", "models.loss_and_grad"),)


def _resolve(package, owner: str):
    obj = package
    for part in owner.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class Tracer:
    """Span recorder that patches fedtune's layers while installed."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.folded_time: list[float] = []  # per span
        self.stack: list[int] = []
        self.folds: dict[str, list] = {}  # name -> [calls, seconds, samples]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._patches: list = []

    # -- recording -----------------------------------------------------
    def span(self, name, fn, before=None, after=None):
        """Wrap fn so each call records a span called `name`.

        before(args, kwargs) may return replacement (args, kwargs);
        after(args, kwargs, result) runs once the span has closed.
        """
        names, start, end, parent = self.names, self.start, self.end, self.parent
        folded, stack = self.folded_time, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            folded.append(0.0)
            end.append(0.0)
            stack.append(sid)
            start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def fold(self, name, fn):
        """Wrap a hot fn(spec, values, features, labels, ...) as counts only."""
        stats = self.folds.setdefault(name, [0, 0.0, 0])
        folded, stack = self.folded_time, self.stack

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                if stack:
                    folded[stack[-1]] += dt
                labels = _arg(args, kwargs, 3, "labels")
                if labels is not None:
                    stats[2] += len(labels)

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr, make) -> bool:
        obj = _resolve(self.package, owner)
        fn = vars(obj).get(attr) if obj is not None else None
        if not callable(fn):
            return False
        setattr(obj, attr, make(fn))
        self._patches.append((obj, attr, fn))
        return True

    def install(self):
        hooks = self._hooks()
        patched = set()
        for owner, attr, name in SPANS:
            before, after = hooks.get(name, (None, None))
            if self._patch(owner, attr,
                           lambda fn, n=name, b=before, a=after: self.span(n, fn, b, a)):
                patched.add(name)
        for owner, attr, name in FOLDED:
            if self._patch(owner, attr, lambda fn, n=name: self.fold(n, fn)):
                patched.add(name)
        # a name is missing only when none of its owners could be patched
        self.missing = {name for _owner, _attr, name in SPANS + FOLDED} - patched

    def restore(self):
        while self._patches:
            obj, attr, fn = self._patches.pop()
            setattr(obj, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _hooks(self):
        c = self.counters

        def probes_after(args, kwargs, out):
            c["hpo.probes.count"] += len(out or ())

        def step_after(args, kwargs, out):
            current = _arg(args, kwargs, 1, "current")
            c["hpo.step.moved"] += getattr(out, "config_id", None) != \
                getattr(current, "config_id", None)

        def emit_after(args, kwargs, out):
            c["runner.emit_metrics.bytes"] += sum(os.path.getsize(p) for p in out.values())

        def run_eval_after(args, kwargs, out):
            c["sched.busy_sim_s"] += float(out[0])

        issue_span = lambda fn: self.span("sched.dispatch.issue", fn)  # noqa: E731
        run_eval_span = lambda fn: self.span(  # noqa: E731
            "sched.dispatch.run_eval", fn, after=run_eval_after)

        def dispatch_before(args, kwargs):
            args = list(args)
            for index, key, wrap in ((2, "issue", issue_span), (3, "run_eval", run_eval_span)):
                if len(args) > index:
                    args[index] = wrap(args[index])
                elif key in kwargs:
                    kwargs = {**kwargs, key: wrap(kwargs[key])}
            return tuple(args), kwargs

        def dispatch_after(args, kwargs, out):
            groups = len(_arg(args, kwargs, 0, "groups"))
            c["sched.dispatch.runs"] += 1
            c["sched.groups.total"] += groups
            c["sched.capacity_sim_s"] += groups * float(out.makespan)

        return {
            "hpo.probes": (None, probes_after),
            "hpo.step": (None, step_after),
            "runner.emit_metrics": (None, emit_after),
            "sched.dispatch": (dispatch_before, dispatch_after),
        }

    # -- analysis ------------------------------------------------------
    def layer_stats(self):
        """Per span name: calls, total seconds, self seconds; plus the
        largest mismatch between summed child durations and the child
        cover of any span (non-zero only if children overlapped or
        escaped their parent's interval)."""
        n = len(self.names)
        kids = defaultdict(list)
        for sid in range(n):
            if self.parent[sid] >= 0:
                kids[self.parent[sid]].append(sid)
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        worst = 0.0
        for sid in range(n):
            s0, s1 = self.start[sid], self.end[sid]
            dur = s1 - s0
            cover = 0.0
            child_sum = 0.0
            reach = s0
            for k in kids.get(sid, ()):  # children open in start order
                a, b = self.start[k], self.end[k]
                child_sum += b - a
                a, b = max(a, reach, s0), min(b, s1)
                if b > a:
                    cover += b - a
                    reach = b
            cover += self.folded_time[sid]
            child_sum += self.folded_time[sid]
            worst = max(worst, abs(child_sum - cover), max(0.0, cover - dur))
            st = stats[self.names[sid]]
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += dur - cover
        for name, (calls, seconds, _samples) in self.folds.items():
            st = stats[name]
            st["calls"] += calls
            st["s"] += seconds
            st["self_s"] += seconds
        return dict(stats), worst


def assert_untraced(package):
    """Raise if any traceable fedtune attribute is still a tracer wrapper."""
    for owner, attr, _name in SPANS + FOLDED:
        obj = _resolve(package, owner)
        if obj is not None and getattr(vars(obj).get(attr), MARK, False):
            raise RuntimeError(f"tracer wrapper left on {owner}.{attr}")
