"""Experiment configuration: YAML loading, validation and CLI overrides."""

import copy
import os
from dataclasses import dataclass, field

import yaml

from .common import ConfigurationError
from .hpo import HP_TYPES, HpDim, SearchSpace, default_search_space, grid
from .models import TrainHp

SAMPLERS = ("random", "adaptive", "halving")
GROUP_MODES = ("sync", "async")

_DEFAULTS = {
    "dataset": {
        "type": "synthetic",
        "num_classes": 10,
        "input_dim": 16,
        "n": 2000,
        "class_sep": 3.0,
    },
    "n_clients": 20,
    "alpha": 0.5,
    "split": [0.6, 0.2, 0.2],
    "server_val_fraction": 0.1,
    "model": {"kind": "mlp", "hidden_dim": 16},
    "search_space": "default",
    "tuned": ["learning_rate", "weight_decay", "epochs"],
    "hp_defaults": {
        "learning_rate": 0.001,
        "weight_decay": 0.0001,
        "epochs": 1,
        "batch_size": 32,
        "dropout": 0.1,
    },
    "sampler": "random",
    "epsilon": 0.1,
    "budget_configs": 10,
    "rounds_per_trial": 20,
    "eval_cadence": 5,
    "grouping": {"mode": "sync", "window": "auto"},
    "latency": {"base_min": 0.5, "base_max": 2.0, "jitter_sigma": 0.25},
    "aggregation": "weighted",
    "early_stop_patience": 0,
    "seeds": [1],
    "output_dir": "fedtune_out",
}


# Fixed-schema sections whose keys are checked like top-level ones.
_SECTION_FIELDS = {
    "dataset": {*_DEFAULTS["dataset"], "path"},
    "model": set(_DEFAULTS["model"]),
    "grouping": set(_DEFAULTS["grouping"]),
    "latency": set(_DEFAULTS["latency"]),
    "hp_defaults": set(_DEFAULTS["hp_defaults"]),
}
# Keys of one custom search_space entry.
_DIM_FIELDS = {"name", "scale", "low", "high", "step"}


@dataclass
class ExperimentConfig:
    """Validated experiment description; round-trips through to_dict()."""

    raw: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.raw[key]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.raw)

    def search_space(self) -> SearchSpace:
        """The default space, or one dim per custom entry."""
        spec = self.raw["search_space"]
        if spec == "default":
            return default_search_space()
        return SearchSpace(tuple(
            HpDim(d["name"], d["scale"], float(d["low"]), float(d["high"]), float(d["step"]))
            for d in spec))


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _require(cond: bool, field_name: str, message: str):
    if not cond:
        raise ConfigurationError(f"{field_name}: {message}")


def _num(value, field_name: str, kind=float):
    """value as kind (int or float); anything else is an error naming the field.

    An int field takes only a whole number that is not a bool, since int()
    would read 2.7 as 2 and True as 1.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{field_name}: must be a number") from None
    if kind is float:
        return number
    try:
        whole = int(value)
    except (ValueError, OverflowError):  # "2.5", inf, nan
        whole = None
    _require(whole == number and not isinstance(value, bool), field_name,
             "must be an integer")
    return whole


def validate_config(raw: dict) -> dict:
    """Check every field; error messages name the offending field."""
    for key in raw:
        _require(key in _DEFAULTS, key, "unknown configuration field")
    for section, known in _SECTION_FIELDS.items():
        if section in raw:
            _require(isinstance(raw[section], dict), section, "must be a mapping")
            for key in raw[section]:
                _require(key in known, f"{section}.{key}", "unknown configuration field")
    cfg = _merge(_DEFAULTS, raw)

    ds = cfg["dataset"]
    _require(ds.get("type") in ("synthetic", "csv"), "dataset.type",
             "must be 'synthetic' or 'csv'")
    if ds["type"] == "synthetic":
        _require(_num(ds.get("num_classes", 0), "dataset.num_classes", int) >= 2,
                 "dataset.num_classes", "must be >= 2")
        _require(_num(ds.get("input_dim", 0), "dataset.input_dim", int) >= 1,
                 "dataset.input_dim", "must be >= 1")
        _require(_num(ds.get("n", 0), "dataset.n", int) >= int(ds["num_classes"]),
                 "dataset.n", "must be >= num_classes")
        _require(_num(ds.get("class_sep", 0), "dataset.class_sep") > 0,
                 "dataset.class_sep", "must be > 0")
    else:
        _require(bool(ds.get("path")), "dataset.path", "required for csv datasets")

    _require(_num(cfg["n_clients"], "n_clients", int) >= 1, "n_clients", "must be >= 1")
    _require(_num(cfg["alpha"], "alpha") > 0, "alpha", "must be > 0")
    split = cfg["split"]
    _require(isinstance(split, list) and len(split) == 3, "split",
             "must be [train, val, test]")
    _require(abs(sum(_num(f, "split") for f in split) - 1.0) <= 1e-9, "split",
             "fractions must sum to 1")
    _require(0.0 <= _num(cfg["server_val_fraction"], "server_val_fraction") < 1.0,
             "server_val_fraction", "must be in [0, 1)")

    model = cfg["model"]
    _require(model.get("kind") in ("logistic", "mlp"), "model.kind",
             "must be 'logistic' or 'mlp'")
    if model["kind"] == "mlp":
        _require(_num(model.get("hidden_dim", 0), "model.hidden_dim", int) >= 1,
                 "model.hidden_dim", "must be >= 1 for mlp")

    _require(cfg["sampler"] in SAMPLERS, "sampler", f"must be one of {SAMPLERS}")
    _require(0.0 <= _num(cfg["epsilon"], "epsilon") <= 1.0, "epsilon", "must be in [0, 1]")
    for name, low in (("budget_configs", 1), ("rounds_per_trial", 1), ("eval_cadence", 1),
                      ("early_stop_patience", 0)):
        _require(_num(cfg[name], name, int) >= low, name, f"must be >= {low}")

    grouping = cfg["grouping"]
    _require(grouping.get("mode") in GROUP_MODES, "grouping.mode",
             f"must be one of {GROUP_MODES}")
    # A rung must finish before the next is promoted, so halving runs on
    # the one all-clients group.
    _require(cfg["sampler"] != "halving" or grouping["mode"] == "sync", "grouping.mode",
             "must be 'sync' for the halving sampler")
    window = grouping.get("window", "auto")
    if window != "auto":
        _require(_num(window, "grouping.window") > 0, "grouping.window",
                 "must be > 0 or 'auto'")

    lat = cfg["latency"]
    _require(_num(lat.get("base_min", 0), "latency.base_min") > 0, "latency.base_min",
             "must be > 0")
    _require(_num(lat.get("base_max", 0), "latency.base_max") >= float(lat["base_min"]),
             "latency.base_max", "must be >= base_min")
    _require(_num(lat.get("jitter_sigma", 0), "latency.jitter_sigma") >= 0,
             "latency.jitter_sigma", "must be >= 0")

    _require(cfg["aggregation"] in ("weighted", "uniform"), "aggregation",
             "must be 'weighted' or 'uniform'")
    seeds = cfg["seeds"]
    _require(isinstance(seeds, list) and len(seeds) >= 1, "seeds",
             "must be a nonempty list")
    _require(all(isinstance(s, int) and not isinstance(s, bool) for s in seeds), "seeds",
             "must be integers")
    _require(len(set(seeds)) == len(seeds), "seeds", "must be distinct")

    tuned = cfg["tuned"]
    _require(isinstance(tuned, list), "tuned", "must be a list of HP names")
    space = cfg["search_space"]
    if space != "default":
        _require(isinstance(space, list), "search_space", "must be 'default' or a list")
        seen = set()
        for dim in space:
            _require(isinstance(dim, dict), "search_space", "entries must be mappings")
            for key in dim:
                _require(key in _DIM_FIELDS, f"search_space.{key}",
                         "unknown configuration field")
            for key in ("name", "scale", "low", "high", "step"):
                _require(key in dim, f"search_space.{key}", "required")
            name = dim["name"]
            _require(isinstance(name, str) and name in HP_TYPES, "search_space.name",
                     f"unknown hyperparameter {name!r}, must be one of {tuple(HP_TYPES)}")
            _require(name not in seen, "search_space.name", f"{name!r} appears twice")
            seen.add(name)
            for key in ("low", "high", "step"):
                _num(dim[key], f"search_space.{key}")
    hp_defaults = cfg["hp_defaults"]
    for name, value in hp_defaults.items():
        _num(value, f"hp_defaults.{name}", HP_TYPES[name])
    try:
        grids = {d.name: grid(d) for d in ExperimentConfig(cfg).search_space().dims}
    except ConfigurationError as err:
        raise ConfigurationError(f"search_space.{err}") from None
    # TrainHp's own checks on the defaults and on every grid point
    checks = [("hp_defaults", hp_defaults)] + [
        ("search_space", {**hp_defaults, name: v}) for name, points in grids.items()
        for v in points]
    for section, values in checks:
        try:
            TrainHp(**{name: kind(values[name]) for name, kind in HP_TYPES.items()})
        except ConfigurationError as err:
            raise ConfigurationError(f"{section}.{err}") from None
    for name in tuned:
        _require(isinstance(name, str) and name in grids, "tuned", f"unknown hyperparameter {name!r}")
        _require(tuned.count(name) == 1, "tuned", f"{name!r} appears twice")
    return cfg


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigurationError(f"--set {text!r}: expected key=value")
    key, value = text.split("=", 1)
    parsed = yaml.safe_load(value)
    node: dict = {}
    leaf = node
    parts = key.split(".")
    for part in parts[:-1]:
        leaf[part] = {}
        leaf = leaf[part]
    leaf[parts[-1]] = parsed
    return node


def load_config(path, overrides=(), env=None) -> ExperimentConfig:
    """Load YAML config, apply --set overrides, then FEDTUNE_SEED, then validate."""
    env = os.environ if env is None else env
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    except OSError as err:
        raise ConfigurationError(f"config file: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigurationError(f"config file: invalid YAML: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigurationError("config file: top level must be a mapping")
    for text in overrides:
        raw = _merge(raw, _parse_override(text))
    seed_env = env.get("FEDTUNE_SEED")
    if seed_env:
        try:
            raw["seeds"] = [int(seed_env)]
        except ValueError:
            raise ConfigurationError("FEDTUNE_SEED: must be an integer")
    return ExperimentConfig(validate_config(raw))


def config_from_dict(raw: dict) -> ExperimentConfig:
    return ExperimentConfig(validate_config(raw))
