"""Shared error types and the keyed random streams."""

import functools
import hashlib

import numpy as np


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


def _digest(parts) -> bytes:
    """The SHA-256 digest of a key's parts, each by its repr, joined by "|"."""
    return hashlib.sha256("|".join(map(repr, parts)).encode("utf-8")).digest()


def derive_seed(*parts) -> int:
    """Derive a 63-bit seed from an arbitrary tuple of hashable parts.

    Stable across processes and platforms (unlike ``hash()``): the first 8
    bytes of the parts' digest. Streams drawn once per world or trial
    are np.random.default_rng of such a seed (README "Seeds").
    """
    return int.from_bytes(_digest(parts)[:8], "little") >> 1


@functools.cache
def _generator():
    """The Generator seeded returns, built on first use, so importing this
    module does not load numpy.random."""
    return np.random.Generator(np.random.PCG64(0))


def seeded(*key) -> "np.random.Generator":
    """This process's one reusable Generator, set to the start of key's
    stream: PCG64 whose 128-bit state is the first 16 bytes of the key's
    digest and whose increment is the last 16, OR 1, both read
    little-endian. The next call restarts it, so a caller finishes drawing
    before it calls again.
    """
    digest = _digest(key)
    rng = _generator()
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": int.from_bytes(digest[:16], "little"),
                                         "inc": int.from_bytes(digest[16:], "little") | 1},
                               "has_uint32": 0, "uinteger": 0}
    return rng
