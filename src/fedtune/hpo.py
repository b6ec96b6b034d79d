"""Search space, low-fidelity grids, samplers and the feedback store.

The search space restricts every hyperparameter to a coarse grid
(low-fidelity mode). Three samplers are provided: uniform random search
over the grid, a step-wise adaptive sampler that, each feedback cycle,
probes one grid neighbor per tuned hyperparameter and performs a
coordinate-descent move using only the latest probe feedback, and
successive halving over random grid configs.
"""

import hashlib
import json
import math
from collections import ChainMap
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .common import ConfigurationError, FeedbackError, derive_seed
from .models import TrainHp

SCALES = ("log10", "log_e", "linear", "pow2")
# The tunable hyperparameters and their types (int or float) are TrainHp's fields.
HP_TYPES = {f.name: f.type for f in fields(TrainHp)}


@dataclass(frozen=True)
class HpDim:
    """One hyperparameter domain and its low-fidelity grid.

    The grid is built once, at construction, into `points`: all admissible
    values from low to high. Multiplicative scales step by the given factor
    (log10 -> x10, log_e -> xe, pow2 -> x2); linear scales step
    arithmetically. The grid always contains `low` and never exceeds
    `high`. A grid is integer when its hyperparameter's TrainHp field is
    int: it rounds its points and keeps each whole number once, in order.
    """

    name: str
    scale: str
    low: float
    high: float
    step: float
    points: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scale not in SCALES:
            raise ConfigurationError(f"{self.name}: unknown scale {self.scale!r}")
        if not self.low < self.high:
            raise ConfigurationError(f"{self.name}: low must be < high")
        if self.step <= 0:
            raise ConfigurationError(f"{self.name}: step must be > 0")
        if self.scale in ("log10", "log_e", "pow2") and self.low <= 0:
            raise ConfigurationError(f"{self.name}: log scales need low > 0")
        vals = []
        if self.scale == "linear":
            k = 0
            while True:
                x = self.low + k * self.step
                if x > self.high * (1 + 1e-12) + 1e-12:
                    break
                vals.append(round(x, 12))
                k += 1
        else:
            # multiplicative scales: step is the per-point factor
            if self.step <= 1:
                raise ConfigurationError(f"{self.name}: multiplicative step must be > 1")
            k = 0
            while True:
                x = self.low * self.step**k
                if x > self.high * (1 + 1e-9):
                    break
                vals.append(x)
                k += 1
        if HP_TYPES.get(self.name) is int:
            vals = dict.fromkeys(int(round(v)) for v in vals)
        object.__setattr__(self, "points", tuple(vals))


def grid_index(dim: HpDim, x) -> int:
    """Index of x on the dim's grid (x must be one of its points)."""
    try:
        return dim.points.index(x)
    except ValueError:
        raise ConfigurationError(f"{dim.name}: value {x} is not on the grid") from None


@dataclass(frozen=True)
class SearchSpace:
    dims: tuple

    def __getitem__(self, name: str) -> HpDim:
        for d in self.dims:
            if d.name == name:
                return d
        raise KeyError(name)


def default_search_space() -> SearchSpace:
    """The five low-fidelity hyperparameter grids used throughout."""
    return SearchSpace(
        dims=(
            HpDim("learning_rate", "log10", 1e-5, 1e-1, 10.0),
            HpDim("weight_decay", "log_e", 1e-5, 1e-1, math.e),
            HpDim("epochs", "linear", 0, 10, 1),
            HpDim("batch_size", "pow2", 16, 256, 2.0),
            HpDim("dropout", "linear", 0.1, 0.5, 0.2),
        )
    )


def _canonical(values: dict) -> str:
    items = {k: (int(v) if isinstance(v, (int, np.integer)) else float(v))
             for k, v in values.items()}
    return json.dumps(items, sort_keys=True, separators=(",", ":"))


def make_config_id(values: dict) -> str:
    return hashlib.sha256(_canonical(values).encode()).hexdigest()[:16]


class HpConfig:
    """An assignment of grid values to hyperparameters, with a stable id."""

    __slots__ = ("values", "config_id")

    def __init__(self, values: dict):
        self.values = dict(values)
        self.config_id = make_config_id(self.values)

    def __eq__(self, other):
        return isinstance(other, HpConfig) and self.config_id == other.config_id

    def __hash__(self):
        return hash(self.config_id)

    def __repr__(self):
        return f"HpConfig({self.values})"

    def replace(self, name, value) -> "HpConfig":
        vals = dict(self.values)
        vals[name] = value
        return HpConfig(vals)


@dataclass
class FeedbackRecord:
    """One loss feedback event tied to a config and communication round."""

    config_id: str
    round: int
    kind: str  # "global" or "probe"
    server_loss: float  # server validation loss
    val_loss: float
    group_size: int = 1
    probe_target: str | None = None


class FeedbackStore:
    """Per-config running mean of combined feedback plus full history."""

    def __init__(self):
        self._sum: dict[str, float] = {}
        self._count: dict[str, int] = {}
        self.history: list[FeedbackRecord] = []

    def record(self, rec: FeedbackRecord):
        """Add rec to the history and its combined feedback, val_loss, to its config's mean."""
        if not math.isfinite(rec.val_loss):
            raise FeedbackError(f"non-finite combined feedback for {rec.config_id}")
        self._sum[rec.config_id] = self._sum.get(rec.config_id, 0.0) + rec.val_loss
        self._count[rec.config_id] = self._count.get(rec.config_id, 0) + 1
        self.history.append(rec)

    def mean(self, config_id: str) -> float:
        return self._sum[config_id] / self._count[config_id]

    def count(self, config_id: str) -> int:
        return self._count.get(config_id, 0)

    def export_jsonl(self, path):
        with open(path, "w", newline="\n") as fh:
            for rec in self.history:
                fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")


def combine_feedback(lf, gf: float, n_j: int) -> float:
    """Weighted mix of one global and n_j local feedbacks.

    The global loss counts as n_j votes against one vote per local loss:
    combined = (n_j * gf + sum(lf)) / (2 * n_j).
    """
    if n_j < 1 or len(lf) != n_j:
        raise FeedbackError(f"expected {n_j} local feedbacks, got {len(lf)}")
    if not math.isfinite(gf) or not all(math.isfinite(x) for x in lf):
        raise FeedbackError("non-finite feedback value")
    return (n_j * gf + sum(lf)) / (2.0 * n_j)


def suggest_random(space: SearchSpace, rng) -> HpConfig:
    """Uniform draw over every dim's grid, independent across dims."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    values = {}
    for dim in space.dims:
        values[dim.name] = dim.points[int(rng.integers(len(dim.points)))]
    return HpConfig(values)


def probe_set(
    space: SearchSpace,
    current: HpConfig,
    tuned,
    directions: dict | None = None,
) -> list[HpConfig]:
    """The current config plus one grid neighbor per tuned hyperparameter.

    Each neighbor differs from `current` in exactly one HP by one grid
    step. The probe direction is the last accepted improvement direction
    for that HP (from `directions`), defaulting to upward; at a grid
    boundary the only feasible direction is used. Single-point grids are
    skipped.
    """
    directions = directions or {}
    out = [current]
    for name in tuned:
        dim = space[name]
        if len(dim.points) < 2:
            continue
        i = grid_index(dim, current.values[name])
        d = directions.get(name, +1)
        j = i + d
        if not 0 <= j < len(dim.points):
            j = i - d
        out.append(current.replace(name, dim.points[j]))
    return out


def probe_target_of(current: HpConfig, probe: HpConfig) -> str | None:
    """Name of the single HP in which a probe differs from current."""
    diff = [n for n in current.values if probe.values[n] != current.values[n]]
    return diff[0] if diff else None


def suggest_adaptive(
    space: SearchSpace,
    current: HpConfig,
    latest_probe_results,
    tuned,
    epsilon: float = 0.0,
    rng=None,
) -> HpConfig:
    """Coordinate-descent move from the latest probe feedback only.

    For each tuned HP independently the neighbor's value is adopted when
    its combined feedback is strictly lower than the current config's.
    With probability epsilon one tuned HP is replaced by a uniform grid
    draw. Every value is a grid point: the current config's, a probe
    neighbor's or a grid draw.
    """
    if not latest_probe_results:
        return current
    cur_combined = None
    for cfg, comb in latest_probe_results:
        if cfg.config_id == current.config_id:
            cur_combined = comb
    if cur_combined is None:
        return current
    values = dict(current.values)
    for cfg, comb in latest_probe_results:
        if cfg.config_id == current.config_id:
            continue
        name = probe_target_of(current, cfg)
        if name is None or name not in tuned:
            continue
        if comb < cur_combined:
            values[name] = cfg.values[name]
    if epsilon > 0 and rng is not None and tuned and rng.random() < epsilon:
        name = tuned[int(rng.integers(len(tuned)))]
        points = space[name].points
        values[name] = points[int(rng.integers(len(points)))]
    return HpConfig(values)


class RandomSampler:
    """Stateless random search, and the sampler protocol's defaults.

    The runner drives every sampler through num_evals, start_config(e,
    store), plan(e, config) -> (trial key, round budget, walk or None) and
    commit(outcome), which takes evaluation e's runner.EvalOutcome at its
    simulated finish. Evaluation e continues the latest committed evaluation
    of its trial key, if any; the report has one row per key. A sampler is
    feedback_free when it reads no feedback: neither the store nor commit
    changes a config or plan, and no trial key repeats, so an evaluation
    can run before dispatch issues it. Random search reads no feedback:
    the key is e, and e's config depends only on (seed, e), not on
    scheduling.
    """

    feedback_free = True

    def __init__(self, space: SearchSpace, seed: int, num_evals: int, rounds_per_trial: int):
        self.space = space
        self.seed = seed
        self.num_evals = num_evals
        self.rounds_per_trial = rounds_per_trial

    def start_config(self, eval_index: int, store: FeedbackStore) -> HpConfig:
        return suggest_random(self.space, derive_seed(self.seed, "rand-cfg", eval_index))

    def plan(self, eval_index: int, config: HpConfig) -> tuple:
        return eval_index, self.rounds_per_trial, None

    def commit(self, outcome):
        pass


class AdaptiveSampler(RandomSampler):
    """Step-wise adaptive sampler with per-HP neighbor probes.

    New evaluations start from the incumbent (lowest running-mean
    combined feedback seen so far); within an evaluation the config moves
    by coordinate descent on the latest probe results. A per-HP direction
    memory biases the next probe toward the last accepted improvement.
    An evaluation moves its own walk(), which explores with an rng keyed by
    the evaluation index and changes this sampler only through commit().
    """

    feedback_free = False

    def __init__(self, space: SearchSpace, tuned, epsilon: float, seed: int, num_evals: int,
                 rounds_per_trial: int):
        super().__init__(space, seed, num_evals, rounds_per_trial)
        self.tuned = list(tuned)
        self.epsilon = epsilon
        self.rng = np.random.default_rng(seed)
        self.directions: dict[str, int] = {}
        self._seen: dict[str, HpConfig] = {}

    def start_config(self, eval_index: int, store: FeedbackStore) -> HpConfig:
        best, best_mean = None, math.inf
        for cid, cfg in self._seen.items():
            if store.count(cid) > 0 and store.mean(cid) < best_mean:
                best, best_mean = cfg, store.mean(cid)
        if best is None:
            best = suggest_random(self.space, derive_seed(self.seed, "start", eval_index))
        return best

    def walk(self, eval_index: int, start: HpConfig) -> "AdaptiveSampler":
        """This sampler's copy for the evaluation eval_index starting at start."""
        walk = AdaptiveSampler(self.space, self.tuned, self.epsilon,
                               derive_seed(self.seed, "explore", eval_index), self.num_evals,
                               self.rounds_per_trial)
        # writes land in the first map: the walk's own direction changes
        walk.directions = ChainMap({}, dict(self.directions))
        walk._seen = {start.config_id: start}
        return walk

    def plan(self, eval_index: int, config: HpConfig) -> tuple:
        return eval_index, self.rounds_per_trial, self.walk(eval_index, config)

    def commit(self, outcome):
        """Merge a finished evaluation's walk: its direction changes and visited configs."""
        self.directions.update(outcome.walk.directions.maps[0])
        self._seen.update(outcome.walk._seen)

    def probes(self, current: HpConfig) -> list[HpConfig]:
        return probe_set(self.space, current, self.tuned, self.directions)

    def step(self, current: HpConfig, probe_results) -> HpConfig:
        new = suggest_adaptive(
            self.space, current, probe_results, self.tuned, self.epsilon, self.rng
        )
        for name in self.tuned:
            if new.values[name] != current.values[name]:
                dim = self.space[name]
                delta = grid_index(dim, new.values[name]) - grid_index(dim, current.values[name])
                if delta != 0:
                    self.directions[name] = 1 if delta > 0 else -1
        self._seen[new.config_id] = new
        return new


def halving_rungs(n_configs: int, max_rounds: int) -> list[tuple[int, int]]:
    """The successive-halving plan: (configs kept, rounds) per rung.

    The first rung runs all n_configs for max_rounds // 2**floor(log2 n)
    rounds (at least 1). Each next rung keeps ceil(n/2) configs at double
    the rounds, capped at max_rounds, until one config is left or a rung
    runs max_rounds.
    """
    levels = max(1, int(math.floor(math.log2(n_configs)))) if n_configs > 1 else 0
    n, rounds = n_configs, max(1, max_rounds // (2 ** levels))
    rungs = [(n, rounds)]
    while n > 1 and rounds < max_rounds:
        n, rounds = math.ceil(n / 2), min(max_rounds, rounds * 2)
        rungs.append((n, rounds))
    return rungs


class HalvingSampler(RandomSampler):
    """Successive halving over distinct random grid configs.

    Position i draws configs[i] with derive_seed(seed, "halving", i),
    redrawing configs an earlier position holds until the grid is used
    up. Evaluation e runs one position of its rung up to the rung's
    rounds; the position is its trial key, so a promoted config continues
    the position's evaluation from the previous rung. Each rung issues its
    survivors in order; the first issue of the next rung promotes the best
    ceil(n/2) by (objective, config_id, position), so a config at two
    positions is two candidates. Objectives arrive through commit(), so
    promotion sees only feedback that has arrived in simulated time: every
    evaluation of a rung must have finished before the next rung is
    issued, which holds on one group.
    """

    feedback_free = False

    def __init__(self, space: SearchSpace, seed: int, n_configs: int, max_rounds: int):
        self.rungs = halving_rungs(n_configs, max_rounds)
        # (rung, index in the rung's survivors) of every evaluation, in issue order
        self._slots = [(r, i) for r, (n, _) in enumerate(self.rungs) for i in range(n)]
        super().__init__(space, seed, len(self._slots), max_rounds)
        size = math.prod(len(d.points) for d in space.dims)
        self.configs: list[HpConfig] = []
        for i in range(n_configs):
            rng = np.random.default_rng(derive_seed(seed, "halving", i))
            config = suggest_random(space, rng)
            while config in self.configs and len(set(self.configs)) < size:
                config = suggest_random(space, rng)
            self.configs.append(config)
        self._survivors = list(range(n_configs))  # positions in configs
        self._scored: list[tuple[float, str, int]] = []  # (objective, config_id, position)

    def start_config(self, eval_index: int, store: FeedbackStore) -> HpConfig:
        rung, i = self._slots[eval_index]
        if rung > 0 and i == 0:
            if len(self._scored) != len(self._survivors):
                raise FeedbackError(f"rung {rung - 1} promoted before all its feedback arrived")
            self._scored.sort()
            self._survivors = [pos for _, _, pos in self._scored[: self.rungs[rung][0]]]
            self._scored = []
        return self.configs[self._survivors[i]]

    def plan(self, eval_index: int, config: HpConfig) -> tuple:
        """(position, rung rounds, None) for an evaluation of the current rung."""
        rung, i = self._slots[eval_index]
        return self._survivors[i], self.rungs[rung][1], None

    def commit(self, outcome):
        """Score a finished evaluation of the current rung at its position."""
        pos = outcome.trial_key
        self._scored.append((outcome.row.objective, self.configs[pos].config_id, pos))
