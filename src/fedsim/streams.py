"""Deterministic random-stream derivation.

Every random draw in a simulation descends from (master_seed, domain, *key)
via numpy's SeedSequence spawn keys, so that two runs with the same master
seed match bit for bit, and different protocols under the same seed see the
same channel realizations.
"""

import numpy as np

# Stream domains.
DATA = 0        # dataset generation and partitioning
INIT = 1        # weight initialization
TRAIN = 2       # minibatch shuffling, keyed by (device, iteration)
CHANNEL = 3     # fading gains, keyed by iteration
NOISE = 4       # receiver noise, keyed by iteration
# 5 is unused: a domain keeps its number, which seeds every draw under it.
PROJECTION = 6  # projection-matrix seeds, keyed by direction


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Child generator for a (domain, *subkey) path under the master seed."""
    seq = np.random.SeedSequence(entropy=int(master_seed),
                                 spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable 32-bit seed for components that persist a seed (projections)."""
    seq = np.random.SeedSequence(entropy=int(master_seed),
                                 spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, dtype=np.uint32)[0])
