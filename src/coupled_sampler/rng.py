"""Deterministic noise streams for reproducible sampling.

Every draw is a pure function of (seed, labels, shape): a fresh Philox
generator is keyed per call, so blocks can be drawn in any order without
changing a single bit of output. The noise of chain i at step t is row i of
the (n, d) block addressed by (seed, STREAM_STEP, t); a worker holding a
shard of the chains cannot draw its rows alone, only the whole block. A
lambda sweep draws each block once per chain and step: the block serves the
chain's copy at every lambda.
"""

from __future__ import annotations

import numpy as np

# First label of a stream address. STREAM_STEP draws carry the step index
# as a second label.
STREAM_INIT = 0
STREAM_STEP = 1

# Labels used to derive per-chain seeds inside a coupled run.
CHAIN_A = 0
CHAIN_B = 1

_MAX_SEED = 2**64


def _check_seed(seed: int) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be a u64, got {seed}")
    return seed


def _seed_sequence(seed: int, labels) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=_check_seed(seed), spawn_key=tuple(int(v) for v in labels)
    )


class NoiseStream:
    """Counter-based source of standard-normal blocks."""

    def __init__(self, seed: int):
        self.seed = _check_seed(seed)

    def normal(self, shape, *labels: int) -> np.ndarray:
        return generator(self.seed, *labels).standard_normal(shape)


def derive_seed(seed: int, *labels: int) -> int:
    """Derive an independent u64 child seed from (seed, labels)."""
    return int(_seed_sequence(seed, labels).generate_state(1, np.uint64)[0])


def generator(seed: int, *labels: int) -> np.random.Generator:
    """A full Generator keyed by (seed, labels), for categorical draws etc."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, labels)))
