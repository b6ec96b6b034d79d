"""fedtune: deterministic federated-learning HPO simulator."""

from . import common, config, data, flcore, hpo, models, runner, sched

__all__ = [
    "common",
    "config",
    "data",
    "flcore",
    "hpo",
    "models",
    "runner",
    "sched",
]

__version__ = "0.1.0"
