"""Shared error types, deterministic seed derivation and batched seeding."""

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


_M32 = 0xFFFFFFFF


def _chain(init: int, mult: int, n: int) -> np.ndarray:
    """(n + 1, 1) uint32: init and the n hash constants a SeedSequence steps to from it."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


# numpy's SeedSequence (pool size 4) and PCG64 seeding constants. A seed's
# entropy is its low and high 32-bit words; mixing it makes 16 hashmix
# calls and generate_state(8) 8 more, each on the next constant of a chain.
_HASH_A = _chain(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_LIMBS = np.array([_PCG_MULT >> s & _M32 for s in (0, 32, 64, 96)], dtype=np.uint64)
_L32, _S1, _S31, _S32 = np.uint64(_M32), np.uint64(1), np.uint64(31), np.uint64(32)


def _hashmix(value: np.ndarray, k: slice) -> np.ndarray:
    """SeedSequence's hashmix of each row of value on mix_entropy's constants k."""
    value = (value ^ _HASH_A[k]) * _HASH_A[k.start + 1 : k.stop + 1]
    return value ^ (value >> _XSHIFT)


def _carry(limbs: np.ndarray) -> np.ndarray:
    """(4, n) uint64 limb sums, low first, carried into 32-bit limbs mod 2**128."""
    for i in range(3):
        limbs[i + 1] += limbs[i] >> _S32
    limbs &= _L32
    return limbs


def pcg64_words(seeds) -> np.ndarray:
    """(n, 4) uint64: the PCG64 state np.random.default_rng(seed) starts
    from, for each 63-bit seed, as (state low, state high, inc low, inc
    high) 64-bit words, computed for the whole batch at once.

    It is numpy's SeedSequence(seed).generate_state(4, uint64) in uint32
    arithmetic across the batch, then PCG64's seeding step on 32-bit limbs.
    seeded(row) sets a generator to one row.
    """
    seeds = np.asarray(seeds, dtype="<u8").reshape(-1)
    n = len(seeds)
    entropy = np.zeros((4, n), dtype=np.uint32)  # [low, high, 0, 0] for each seed
    entropy[:2] = seeds.view("<u4").reshape(n, 2).T
    pool = _hashmix(entropy, slice(0, 4))
    k = 4
    for src in range(4):  # each other word mixes with a hash of word src
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], slice(k, k + 3))
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
        k += 3
    value = (np.tile(pool, (2, 1)) ^ _HASH_B[:8]) * _HASH_B[1:]
    words = (value ^ (value >> _XSHIFT)).astype(np.uint64)
    # generate_state's uint64 words w0..w3 are its uint32 pairs, low first;
    # PCG64 seeds with state w0 * 2**64 + w1 and sequence w2 * 2**64 + w3.
    state, seq = words[[2, 3, 0, 1]], words[[6, 7, 4, 5]]
    carry_in = np.concatenate([np.ones((1, n), dtype=np.uint64), seq[:3] >> _S31])
    inc = (seq << _S1 | carry_in) & _L32  # seq * 2 + 1
    start = _carry(inc + state)
    # state = (inc + seed state) * _PCG_MULT + inc: limb i times limb j adds
    # its low half to limb i + j and its high half to limb i + j + 1.
    prod = start[:, None] * _PCG_LIMBS[:, None]
    state = inc.copy()
    for i in range(4):
        state[i:] += prod[i, : 4 - i] & _L32
        state[i + 1 :] += prod[i, : 3 - i] >> _S32
    state = _carry(state)
    limbs = np.concatenate([state, inc]).astype("<u4")
    return np.ascontiguousarray(limbs.T).view("<u8")


@functools.cache
def _generator():
    """The Generator seeded returns, built on first use, so importing this
    module does not load numpy.random."""
    return np.random.Generator(np.random.PCG64(0))


def seeded(words) -> "np.random.Generator":
    """This process's one reusable Generator, set to the start of the stream
    np.random.default_rng(seed) draws, where words is seed's row of
    pcg64_words (an array or a list of 4 ints). The next call restarts it,
    so a caller finishes drawing before it calls again.
    """
    lo, hi, inc_lo, inc_hi = words.tolist() if isinstance(words, np.ndarray) else words
    rng = _generator()
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
                               "has_uint32": 0, "uinteger": 0}
    return rng
