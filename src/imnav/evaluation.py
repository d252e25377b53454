"""Standard VLN metrics and split evaluation under imagination policies.

The metrics are SR, SPL, NE and TL. An episode succeeds when the agent stops
within SUCCESS_RADIUS of the goal (NE <= radius). SPL follows the standard
success-weighted-by-inverse-path-length definition,
SPL = (1/N) * sum_i S_i * l_i / max(p_i, l_i), with l_i the shortest-path
length and p_i the agent's traversed length (TL). Metric arithmetic is
float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import agent as ag
from . import imagination as im
from . import numcore as nc
from .errors import ConfigurationError, ContractError, InputError

SUCCESS_RADIUS = 1.0

POLICIES = ("correct", "null", "wrong", "goal_only")


@dataclass(frozen=True)
class EpisodeResult:
    episode_id: int
    final_node: int
    success: bool
    ne: float
    tl: float
    shortest_len: float


@dataclass(frozen=True)
class MetricsRecord:
    sr: float
    spl: float
    ne_mean: float
    tl_mean: float
    count: int
    seed: int
    split: str
    policy: str

    def as_row(self):
        """TSV row with 2-decimal percentage metrics."""
        return "\t".join([self.split, self.policy, percent(self.sr), percent(self.spl),
                          f"{self.ne_mean:.4f}", f"{self.tl_mean:.4f}", str(self.count),
                          str(self.seed)])


def percent(fraction, spec=".2f"):
    """A rate held as a fraction, printed in percent."""
    return format(100.0 * fraction, spec)


def navigation_error(world, final_node, goal_node):
    return float(np.linalg.norm(world.positions[final_node] - world.positions[goal_node]))


def trajectory_length(world, visited):
    return float(sum(world.edge_length(a, b) for a, b in zip(visited[:-1], visited[1:])))


def spl(results):
    if not results:
        raise InputError("spl of empty result list")
    total = 0.0
    for r in results:
        if r.shortest_len <= 0.0:
            raise ContractError(f"episode {r.episode_id}: shortest path length must be > 0")
        if r.success:
            total += r.shortest_len / max(r.tl, r.shortest_len)
    return total / len(results)


def observation_rng(seed, episode_index):
    """The observation-noise stream of episode `episode_index` of a split
    evaluated under `seed`."""
    return np.random.default_rng(np.random.SeedSequence([0xE7A1, seed, episode_index]))


def apply_policy(imagination_sets, policy, seed):
    """Test-time imagination transformations (masks returned separately)."""
    if policy == "correct":
        return [list(g) for g in imagination_sets], None
    if policy == "null":
        masks = [np.zeros(len(g), dtype=bool) for g in imagination_sets]
        return [list(g) for g in imagination_sets], masks
    if policy == "wrong":
        return im.shuffle_wrong(imagination_sets, seed), None
    if policy == "goal_only":
        return [im.goal_only(g) for g in imagination_sets], None
    raise ConfigurationError(f"unknown imagination policy {policy!r}")


def evaluate(agent, items, policy, seed, radius=SUCCESS_RADIUS, split=None):
    """Greedy rollouts over a split under an imagination policy.

    `items` is a list of dataset bundles (episode, record, imaginations,
    token_ids). Pure function of (parameters, items, policy, seed).
    """
    if not items:
        raise InputError("evaluate called with an empty dataset")
    sets = [it.imaginations for it in items]
    sets, masks = apply_policy(sets, policy, seed)

    results = []
    with nc.no_grad():
        for i, item in enumerate(items):
            ep = item.episode
            traj = ag.rollout(agent, ep, item.token_ids, item.record.instruction.tokens,
                              sets[i], "argmax", obs_rng=observation_rng(seed, i),
                              kept_subs=item.record.kept,
                              imag_mask=None if masks is None else masks[i])
            final = traj.visited[-1]
            ne = navigation_error(ep.world, final, ep.goal)
            results.append(EpisodeResult(
                episode_id=i, final_node=final, success=ne <= radius, ne=ne,
                tl=trajectory_length(ep.world, traj.visited), shortest_len=ep.shortest_len))

    n = len(results)
    return MetricsRecord(
        sr=sum(r.success for r in results) / n,
        spl=spl(results),
        ne_mean=sum(r.ne for r in results) / n,
        tl_mean=sum(r.tl for r in results) / n,
        count=n, seed=seed,
        split=split or items[0].episode.world.split,
        policy=policy)
