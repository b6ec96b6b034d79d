"""A plain reference for one seed's run, written from README's semantics.

Every client trains on its own, one unpadded batch at a time, with
models.loss_and_grad and models.sgd_step, drawing from its own stream;
FedAvg is a loop; every score is one models.evaluate call. Passes are
timed from their own streams. Probe cycles, reuse of the chosen probe's
pass, early stopping and resumed rungs follow flcore.run_trial's and
runner.run_probe_cycle's documented contracts.

Its world (reference_world) is built client by client from README's
"Seeds" and fedtune.data's documented rules, without fedtune.data or
runner.build_world. It reuses sched.dispatch and sched.form_groups for
simulated time, and the hpo samplers for configs. It does not call
flcore, the batch engine (models.train_stack, models.plan_batches),
common's seeds and streams or lanes, so it checks a whole run's meaning,
not only its bytes.
"""

import hashlib
import math
from types import SimpleNamespace

import numpy as np

from fedtune import hpo, models, sched

MAX_DRAWS = 100  # Dirichlet draws before a partition gives up
MIN_TRAIN = 10  # training rows every client needs


def digest(*key) -> bytes:
    """The SHA-256 digest of the key's parts' reprs joined by "|"."""
    return hashlib.sha256("|".join(repr(p) for p in key).encode("utf-8")).digest()


def derive_seed(*key) -> int:
    """The key's 63-bit seed: the digest's first 8 bytes, little-endian, >> 1."""
    return int.from_bytes(digest(*key)[:8], "little") >> 1


def stream(*key) -> np.random.Generator:
    """A new generator at the start of key's stream: PCG64 whose 128-bit
    state is the first 16 bytes of the key's digest and whose increment
    is the last 16, OR 1, both little-endian."""
    digest_ = digest(*key)
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64",
                  "state": {"state": int.from_bytes(digest_[:16], "little"),
                            "inc": int.from_bytes(digest_[16:], "little") | 1},
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


class Rows(SimpleNamespace):
    """A set's features and labels; its length is its row count."""

    def __len__(self):
        return len(self.labels)


def blobs(num_classes, input_dim, n, class_sep, seed):
    """(features, labels): one mean per class at pairwise distance class_sep
    (orthonormal directions from a QR when num_classes <= input_dim, else
    normalized Gaussian ones), labels round-robin then shuffled, and
    unit noise on every row, all from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((num_classes, input_dim))
    if num_classes <= input_dim:
        dirs = np.linalg.qr(g.T)[0][:, :num_classes].T
    else:
        dirs = np.array([row / np.sqrt(np.sum(row * row)) for row in g])
    means = dirs * (class_sep / np.sqrt(2.0))
    labels = np.array([i % num_classes for i in range(n)], dtype=np.int64)
    rng.shuffle(labels)
    noise = rng.standard_normal((n, input_dim))
    return np.array([means[y] + z for y, z in zip(labels, noise)]).reshape(n, input_dim), labels


def largest_remainder(total, fractions) -> list:
    """total split by fractions into whole parts, each its floor or one
    more: the units left after flooring go to the largest remainders, ties
    to the lower index."""
    raw = [float(f) * total for f in fractions]
    parts = [math.floor(r) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: (parts[i] - raw[i], i))
    for i in by_remainder[:total - sum(parts)]:
        parts[i] += 1
    return parts


def dirichlet_shards(labels, n_clients, alpha, split, seed):
    """(each client's (train, val, test) row indices, draws made): per draw,
    every class's rows shuffled then split across the clients by a
    Dirichlet(alpha) draw, in class order, all from default_rng(seed),
    until every client holds MIN_TRAIN training rows. Client k takes
    class c's k-th part of the class-major order, its parts in class order,
    then shuffles them on (seed, "shard-split", k) and splits them by split."""
    rng = np.random.default_rng(seed)
    by_class = [np.array([i for i, y in enumerate(labels) if y == c], dtype=np.intp)
                for c in sorted(set(labels.tolist()))]
    for draw in range(1, MAX_DRAWS + 1):
        shuffled, counts = [], []
        for rows in by_class:
            rows = rows.copy()
            rng.shuffle(rows)
            shuffled.append(rows)
            counts.append(largest_remainder(len(rows), rng.dirichlet([alpha] * n_clients)))
        sizes = [sum(c[k] for c in counts) for k in range(n_clients)]
        parts = [largest_remainder(size, split) for size in sizes]
        if all(p[0] >= MIN_TRAIN for p in parts):
            break
    else:
        raise AssertionError("no partition")
    shards = []
    for k in range(n_clients):
        alloc = []
        for rows, c in zip(shuffled, counts):
            start = sum(c[:k])
            alloc.extend(rows[start : start + c[k]].tolist())
        alloc = np.array(alloc, dtype=np.intp)
        stream(seed, "shard-split", k).shuffle(alloc)
        n_tr, n_va, _ = parts[k]
        shards.append((alloc[:n_tr], alloc[n_tr : n_tr + n_va], alloc[n_tr + n_va :]))
    return shards, draw


def reference_world(cfg, seed):
    """A synthetic-data world as runner.build_world documents it: the blobs
    of (seed, "data"), a server validation set of round(fraction * n) rows
    from the permutation of (seed, "server-val"), the rest partitioned on
    (seed, "partition"), and each client's base time uniform in
    [base_min, base_max] on (seed, "latency", client_id). Also holds
    draws, the partition's Dirichlet draws."""
    ds, lat, model = cfg["dataset"], cfg["latency"], cfg["model"]
    x, y = blobs(ds["num_classes"], ds["input_dim"], ds["n"], ds["class_sep"],
                 derive_seed(seed, "data"))
    order = np.random.default_rng(derive_seed(seed, "server-val")).permutation(len(y))
    n_server = int(round(cfg["server_val_fraction"] * len(y)))
    server, rest = order[:n_server], order[n_server:]
    x_c, y_c = x[rest], y[rest]
    shards, draws = dirichlet_shards(y_c, cfg["n_clients"], cfg["alpha"], cfg["split"],
                                     derive_seed(seed, "partition"))
    clients = []
    for k, idx in enumerate(shards):
        train, val, test = (Rows(features=x_c[i], labels=y_c[i]) for i in idx)
        base = stream(seed, "latency", k).uniform(lat["base_min"], lat["base_max"])
        clients.append(SimpleNamespace(
            client_id=k, latency=SimpleNamespace(base_time=base, jitter_sigma=lat["jitter_sigma"]),
            shard=SimpleNamespace(train=train, val=val, test=test, train_idx=idx[0],
                                  val_idx=idx[1], test_idx=idx[2])))
    spec = models.ModelSpec(model["kind"], ds["input_dim"], ds["num_classes"],
                            model["hidden_dim"] if model["kind"] == models.MLP else 0)
    return SimpleNamespace(
        model_spec=spec, clients=clients,
        val_set=Rows(features=x[server], labels=y[server]),
        eval_cadence=cfg["eval_cadence"], hp_defaults=dict(cfg["hp_defaults"]),
        base_seed=seed, agg_mode=cfg["aggregation"], draws=draws)


def train_hp(world, config) -> models.TrainHp:
    """The TrainHp of config, untuned fields from the world's defaults."""
    v = {**world.hp_defaults, **config.values}
    return models.TrainHp(float(v["learning_rate"]), float(v["weight_decay"]),
                          int(v["epochs"]), int(v["batch_size"]), float(v["dropout"]))


def pass_time(members, epochs, key) -> float:
    """The slowest member's time: each member's lognormal jitter drawn in
    client id order from key's stream."""
    jitter = stream(*key).lognormal(0.0, np.array([c.latency.jitter_sigma for c in members]))
    return max(float(c.latency.base_time * epochs * (max(1, len(c.shard.train)) / 100.0) * j)
               for c, j in zip(members, jitter))


def member_train(spec, w, hp, shard, key):
    """(weights, validation loss) of one client trained from w, or None if
    a loss, its weights at an epoch's end or its validation loss is not
    finite. Each epoch draws permutation(n), then, with dropout,
    random((n, hidden)); batch b takes rows b*batch_size on of both."""
    x, y = shard.train.features, shard.train.labels
    rng, values, keep = stream(*key), w.copy(), 1.0 - hp.dropout
    dropout = spec.kind == models.MLP and hp.dropout > 0.0
    with np.errstate(all="ignore"):
        for _ in range(hp.epochs):
            order = rng.permutation(len(y))
            uniforms = rng.random((len(y), spec.hidden_dim)) if dropout else None
            for s in range(0, len(y), hp.batch_size):
                rows = order[s : s + hp.batch_size]
                mask = None if uniforms is None else \
                    (uniforms[s : s + hp.batch_size] < keep) / keep
                loss, grad = models.loss_and_grad(spec, values, x[rows], y[rows], mask)
                if not math.isfinite(loss):
                    return None
                values = models.sgd_step(values, grad, hp.learning_rate, hp.weight_decay)
            if not np.isfinite(values).all():
                return None
    val = shard.val if len(shard.val) else shard.train
    loss, _ = models.evaluate(spec, models.WeightVector(values, spec.layout_id),
                              val.features, val.labels)
    return (values, loss) if math.isfinite(loss) else None


def cohort_train(world, w, config, members, key):
    """(FedAvg of the members' weights, [(client id, validation loss)]) of
    one pass from w under config, member c on the stream (*key, c), or
    None if a member diverged."""
    hp, outs = train_hp(world, config), []
    for c in members:
        out = member_train(world.model_spec, w, hp, c.shard, (*key, c.client_id))
        if out is None:
            return None
        outs.append(out)
    counts = [len(c.shard.train) for c in members]
    agg = 0.0
    with np.errstate(all="ignore"):
        for (values, _), n in zip(outs, counts):
            agg = agg + (values * (n / sum(counts)) if world.agg_mode == "weighted"
                         else values / len(outs))
    if not np.isfinite(agg).all():
        return None
    return agg, [(c.client_id, loss) for c, (_, loss) in zip(members, outs)]


def server_score(world, values):
    return models.evaluate(world.model_spec, models.WeightVector(values, world.model_spec.layout_id),
                           world.val_set.features, world.val_set.labels)


def probe_cycle(world, t, members, trial, j, walk, records):
    """The config for round j, the probes' simulated time, and the chosen
    probe's pass when it finished (runner.run_probe_cycle)."""
    base, n = world.base_seed, len(members)
    probes = walk.probes(t.config)
    extra = sum((pass_time(members, train_hp(world, p).epochs, (base, "probe", trial, j, p.config_id))
                 for p in probes), 0.0)
    results, passes = [], {}
    for p in probes:  # every probe under the round's own training key
        out = cohort_train(world, t.w, p, members, (base, "train", trial, j))
        gl = out and server_score(world, out[0])[0]
        passes[p.config_id] = out if out and math.isfinite(gl) else None
        if passes[p.config_id] is None:
            results.append((p, math.inf))
            continue
        combined = hpo.combine_feedback([vl for _, vl in out[1]], gl, n)
        results.append((p, combined))
        records.append(hpo.FeedbackRecord(p.config_id, j, "probe", gl, combined, n,
                                          hpo.probe_target_of(t.config, p)))
    new = walk.step(t.config, results)
    return new, extra, passes.get(new.config_id)


def fresh_trial(world, config, trial):
    return SimpleNamespace(
        config=config, last=0, trace=[], losses=[], gl=None, best=math.inf, stall=0,
        stopped=False, failed=False, sim=0.0, objective=math.inf, accuracy=0.0,
        w=models.init_weights(world.model_spec, derive_seed(world.base_seed, "init", trial)).values)


def failed(t):
    return replace_ns(t, failed=True, objective=math.inf, accuracy=0.0, trace=[], w=None)


def replace_ns(t, **changes):
    return SimpleNamespace(**{**vars(t), **changes})


def run_trial(world, config, budget, members, trial, walk, patience, resume, records):
    """The trial's state after round budget, from resume (a copy) or fresh."""
    if resume is not None and resume.failed:
        return resume
    t = fresh_trial(world, config, trial) if resume is None else \
        replace_ns(resume, trace=list(resume.trace))
    base, cadence = world.base_seed, world.eval_cadence
    for j in range(t.last + 1, budget + 1):
        if t.stopped:
            break
        reused = None
        if walk is not None and j > 1 and (j - 1) % cadence == 0:
            t.config, extra, reused = probe_cycle(world, t, members, trial, j, walk, records)
            t.sim += extra
        if reused is None:
            t.sim += pass_time(members, train_hp(world, t.config).epochs, (base, "time", trial, j))
            reused = cohort_train(world, t.w, t.config, members, (base, "train", trial, j))
            if reused is None:
                return failed(t)
        (t.w, t.losses), t.last = reused, j
        if j % cadence == 0:
            gl, acc = server_score(world, t.w)
            if not math.isfinite(gl):
                return failed(t)
            t.gl = gl
            t.trace.append({"round": j, "loss": gl, "accuracy": acc, "sim_time": t.sim})
            if patience > 0:
                if gl < t.best - 1e-12:
                    t.best, t.stall = gl, 0
                else:
                    t.stall += 1
                    t.stopped = t.stall >= patience
    spec, w = world.model_spec, models.WeightVector(t.w, world.model_spec.layout_id)
    val = [c for c in members if len(c.shard.val)]
    test = [c for c in members if len(c.shard.test)]
    t.objective, t.accuracy = math.inf, 0.0
    if val:
        t.objective = weighted([(models.evaluate(spec, w, c.shard.val.features,
                                                 c.shard.val.labels)[0], len(c.shard.train))
                                for c in val])
        if not math.isfinite(t.objective):
            return failed(t)
    if test:
        t.accuracy = weighted([(models.evaluate(spec, w, c.shard.test.features,
                                                c.shard.test.labels)[1], len(c.shard.test))
                               for c in test])
    return t


def weighted(pairs) -> float:
    total = float(sum(n for _, n in pairs))
    return sum(x * n for x, n in pairs) / total


def calibration_groups(cfg, world, seed):
    if cfg["grouping"]["mode"] == "sync":
        return [sched.ClientGroup(0, sorted(c.client_id for c in world.clients))]
    epochs = max(1, int(world.hp_defaults["epochs"]))
    completions = [(c.client_id, pass_time([c], epochs, (seed, "calibration", c.client_id)))
                   for c in world.clients]
    window = cfg["grouping"]["window"]
    if window == "auto":
        window = 0.25 * float(np.median([t for _, t in completions]))
    return sched.form_groups(completions, float(window))


def reference_seed(cfg, seed) -> dict:
    """One seed's rows (in trial key order), best row index, events,
    makespan and best weights."""
    world = reference_world(cfg, seed)
    space, n, rounds = cfg.search_space(), cfg["budget_configs"], cfg["rounds_per_trial"]
    sampler = {
        "random": lambda: hpo.RandomSampler(space, derive_seed(seed, "sampler"), n, rounds),
        "adaptive": lambda: hpo.AdaptiveSampler(space, list(cfg["tuned"]), cfg["epsilon"],
                                                derive_seed(seed, "sampler"), n, rounds),
        "halving": lambda: hpo.HalvingSampler(space, seed, n, rounds),
    }[cfg["sampler"]]()
    by_id = {c.client_id: c for c in world.clients}
    committed = {}

    def run_eval(group, config, e):
        key, budget, walk = sampler.plan(e, config)
        resume = committed[key].state if key in committed else None
        records = []
        t = run_trial(world, config, budget, [by_id[i] for i in group.members], key, walk,
                      cfg["early_stop_patience"], resume, records)
        if not t.failed:
            gl = combined = t.objective
            if t.gl is not None:
                gl = t.gl
                combined = hpo.combine_feedback([vl for _, vl in t.losses], gl, len(t.losses))
            records.append(hpo.FeedbackRecord(t.config.config_id, t.last, "global", gl, combined,
                                              len(group.members)))
        row = SimpleNamespace(config_id=t.config.config_id, group_id=group.group_id,
                              objective=t.objective, accuracy=t.accuracy,
                              sim_time=t.sim - (resume.sim if resume else 0.0),
                              trace=t.trace, failed=t.failed)
        outcome = SimpleNamespace(trial_key=key, row=row, records=records, walk=walk, state=t)

        def commit():
            sampler.commit(outcome)
            committed[key] = outcome

        return row.sim_time, commit

    result = sched.dispatch(calibration_groups(cfg, world, seed), sampler.num_evals,
                            lambda group, e: sampler.start_config(e), run_eval)
    outcomes = [committed[k] for k in sorted(committed)]
    ok = [i for i, o in enumerate(outcomes) if not o.row.failed] or [0]
    best = max(ok, key=lambda i: (outcomes[i].row.accuracy, -outcomes[i].row.objective, -i))
    return {"rows": [o.row for o in outcomes], "best": best, "events": result.events,
            "makespan": result.makespan, "best_weights": outcomes[best].state.w}
