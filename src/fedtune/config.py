"""Experiment configuration: YAML loading, validation and CLI overrides."""

import copy
import math
import os
from dataclasses import dataclass, field

import yaml

from .common import ConfigurationError
from .hpo import HP_TYPES, HpDim, SearchSpace, default_search_space
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
# libyaml's parser where PyYAML was built with it: it feeds the same resolver
# and constructor as SafeLoader, so a document loads to the same values.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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

    No field takes a bool, since float() would read True as 1.0 and int()
    as 1, an int field takes only a whole number, since int() would read
    2.7 as 2, and no field takes an infinity or a NaN.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{field_name}: must be a number") from None
    _require(math.isfinite(number), field_name, "must be finite")
    if kind is float:
        _require(not isinstance(value, bool), field_name, "must be a number")
        return number
    try:
        whole = int(value)
    except ValueError:  # "2.5"
        whole = None
    _require(whole == number and not isinstance(value, bool), field_name,
             "must be an integer")
    return whole


def _number(section: dict, key: str, field_name: str, kind=float):
    """_num of section[key] (0 if missing), stored back in its place, so a
    quoted number validates and runs as the number it reads as."""
    section[key] = _num(section.get(key, 0), field_name, kind)
    return section[key]


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
        _require(_number(ds, "num_classes", "dataset.num_classes", int) >= 2,
                 "dataset.num_classes", "must be >= 2")
        _require(_number(ds, "input_dim", "dataset.input_dim", int) >= 1,
                 "dataset.input_dim", "must be >= 1")
        _require(_number(ds, "n", "dataset.n", int) >= ds["num_classes"],
                 "dataset.n", "must be >= num_classes")
        _require(_number(ds, "class_sep", "dataset.class_sep") > 0,
                 "dataset.class_sep", "must be > 0")
    else:
        _require(bool(ds.get("path")), "dataset.path", "required for csv datasets")

    _require(_number(cfg, "n_clients", "n_clients", int) >= 1, "n_clients", "must be >= 1")
    _require(_number(cfg, "alpha", "alpha") > 0, "alpha", "must be > 0")
    split = cfg["split"]
    _require(isinstance(split, list) and len(split) == 3, "split",
             "must be [train, val, test]")
    fractions = cfg["split"] = [_num(f, "split") for f in split]
    _require(all(0.0 <= f <= 1.0 for f in fractions), "split", "fractions must be in [0, 1]")
    _require(abs(sum(fractions) - 1.0) <= 1e-9, "split", "fractions must sum to 1")
    _require(min(fractions[1:]) > 0, "split", "validation and test fractions must be > 0")
    _require(0.0 <= _number(cfg, "server_val_fraction", "server_val_fraction") < 1.0,
             "server_val_fraction", "must be in [0, 1)")

    model = cfg["model"]
    _require(model.get("kind") in ("logistic", "mlp"), "model.kind",
             "must be 'logistic' or 'mlp'")
    if model["kind"] == "mlp":
        _require(_number(model, "hidden_dim", "model.hidden_dim", int) >= 1,
                 "model.hidden_dim", "must be >= 1 for mlp")

    _require(cfg["sampler"] in SAMPLERS, "sampler", f"must be one of {SAMPLERS}")
    _require(0.0 <= _number(cfg, "epsilon", "epsilon") <= 1.0, "epsilon", "must be in [0, 1]")
    for name, low in (("budget_configs", 1), ("rounds_per_trial", 1), ("eval_cadence", 1),
                      ("early_stop_patience", 0)):
        _require(_number(cfg, name, name, int) >= low, name, f"must be >= {low}")

    grouping = cfg["grouping"]
    _require(grouping.get("mode") in GROUP_MODES, "grouping.mode",
             f"must be one of {GROUP_MODES}")
    # A rung must finish before the next is promoted, so halving runs on
    # the one all-clients group.
    _require(cfg["sampler"] != "halving" or grouping["mode"] == "sync", "grouping.mode",
             "must be 'sync' for the halving sampler")
    if grouping.get("window", "auto") != "auto":
        _require(_number(grouping, "window", "grouping.window") > 0, "grouping.window",
                 "must be > 0 or 'auto'")

    lat = cfg["latency"]
    _require(_number(lat, "base_min", "latency.base_min") > 0, "latency.base_min",
             "must be > 0")
    _require(_number(lat, "base_max", "latency.base_max") >= lat["base_min"],
             "latency.base_max", "must be >= base_min")
    _require(_number(lat, "jitter_sigma", "latency.jitter_sigma") >= 0,
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
                _number(dim, key, f"search_space.{key}")
    hp_defaults = cfg["hp_defaults"]
    for name in hp_defaults:
        _number(hp_defaults, name, f"hp_defaults.{name}", HP_TYPES[name])
    try:
        grids = {d.name: d.points for d in ExperimentConfig(cfg).search_space().dims}
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
    try:
        parsed = yaml.load(value, Loader=_LOADER)
    except yaml.YAMLError as err:
        raise ConfigurationError(f"--set {text!r}: invalid YAML: {err}") from None
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
            raw = yaml.load(fh, Loader=_LOADER) or {}
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
