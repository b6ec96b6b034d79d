"""Shared error types and deterministic seed derivation."""

import hashlib


class FedTuneError(Exception):
    """Base class for all fedtune errors."""


class ConfigurationError(FedTuneError):
    """Invalid configuration value; message names the offending field."""


class DataError(FedTuneError):
    """Empty or malformed dataset input."""


class PartitionError(FedTuneError):
    """Dirichlet partition could not satisfy the minimum shard size."""


class AggregationError(FedTuneError):
    """FedAvg received incompatible or empty updates."""


class FeedbackError(FedTuneError):
    """Non-finite or inconsistent feedback values."""


class NumericDivergenceError(FedTuneError):
    """Training produced a non-finite loss or weights.

    Carries enough context to attribute the failure to a client, round
    and hyperparameter configuration.
    """

    def __init__(self, message, client_id=None, round_index=None, config_id=None):
        super().__init__(message)
        self.client_id = client_id
        self.round_index = round_index
        self.config_id = config_id


def derive_seed(*parts) -> int:
    """Derive a 63-bit seed from an arbitrary tuple of hashable parts.

    Stable across processes and platforms (unlike ``hash()``), so every
    RNG in the simulator can be keyed by (experiment seed, purpose,
    indices) and reruns are bit-reproducible.
    """
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def derive_seeds(prefix: tuple, lasts) -> list[int]:
    """[derive_seed(*prefix, last) for last in lasts], hashing prefix once."""
    head = hashlib.sha256("".join(repr(p) + "|" for p in prefix).encode("utf-8"))
    hashes = [head.copy() for _ in lasts]
    for h, last in zip(hashes, lasts):
        h.update(repr(last).encode("utf-8"))
    return [int.from_bytes(h.digest()[:8], "little") >> 1 for h in hashes]
