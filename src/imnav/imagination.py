"""Imagination oracle: stands in for text-conditioned image generation.

Each kept sub-instruction maps to one feature vector built from its landmark
class prototype: with probability `fidelity` the true class is emitted and
otherwise a uniformly random wrong class, plus isotropic noise. The test-time
policies (`goal_only`, `shuffle_wrong`) transform the per-instruction lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, InputError


@dataclass(frozen=True)
class ImaginationConfig:
    sigma_gen: float = 0.05
    fidelity: float = 0.95

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0:
            raise ConfigurationError(f"fidelity must be in [0,1], got {self.fidelity}")
        if self.sigma_gen < 0.0:
            raise ConfigurationError(f"sigma_gen must be >= 0, got {self.sigma_gen}")


@dataclass(frozen=True)
class Imagination:
    feature: np.ndarray     # (d_v,) float32
    sub_index: int
    true_class: int
    emitted_class: int

    @property
    def corrupted(self):
        return self.emitted_class != self.true_class


def imagine(sub, library, config, rng):
    """One imagination for a kept sub-instruction with a landmark class."""
    if sub.filter_verdict != "kept":
        raise ContractError(f"imagine() needs a kept sub-instruction, got verdict {sub.filter_verdict!r}")
    if sub.landmark_class is None:
        raise ContractError("kept sub-instruction has no landmark class to imagine")
    true_class = sub.landmark_class
    emitted = true_class
    if rng.random() >= config.fidelity:
        others = [c.id for c in library.classes if c.id != true_class]
        emitted = others[int(rng.integers(len(others)))]
    proto = library.by_id(emitted).prototype
    if config.sigma_gen == 0.0:
        feature = proto.copy()
    else:
        feature = proto + rng.normal(0.0, config.sigma_gen, size=proto.shape).astype(np.float32)
    return Imagination(feature=feature, sub_index=sub.index,
                       true_class=true_class, emitted_class=emitted)


def imagine_dataset(records, library, config, seed):
    """Per-instruction imagination lists, deterministically sub-seeded."""
    out = []
    for i, rec in enumerate(records):
        rng = np.random.default_rng(np.random.SeedSequence([0x1AC7, seed, i]))
        out.append([imagine(sub, library, config, rng) for sub in rec.kept])
    return out


def goal_only(imaginations):
    """Keep only the imagination of the final kept sub-instruction."""
    return list(imaginations[-1:])


def shuffle_wrong(imagination_set, seed):
    """Instruction-level derangement: every instruction with imaginations gets
    the full list of some other instruction. Preserves the overall multiset."""
    eligible = [i for i, group in enumerate(imagination_set) if group]
    if len(eligible) < 2:
        raise InputError("need >= 2 instructions with imaginations to shuffle")
    rng = np.random.default_rng(np.random.SeedSequence([0x5FFE, seed]))
    order = [eligible[j] for j in rng.permutation(len(eligible))]
    out = [list(g) for g in imagination_set]
    # rotating a shuffled order is always fixed-point free
    for src, dst in zip(order, order[1:] + order[:1]):
        out[dst] = list(imagination_set[src])
    return out
