"""Standard VLN metrics and split evaluation under imagination policies.

SPL follows the standard success-weighted-by-inverse-path-length definition,
SPL = (1/N) * sum_i S_i * l_i / max(p_i, l_i), with l_i the shortest-path
length and p_i the agent's traversed length. Metric arithmetic is float64.
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
    path_len: float
    grounded: bool | None = None


@dataclass(frozen=True)
class MetricsRecord:
    sr: float
    spl: float
    ne_mean: float
    tl_mean: float
    rgs: float | None
    rgspl: float | None
    count: int
    seed: int
    split: str
    policy: str

    def as_row(self):
        """TSV row with 2-decimal percentage metrics."""
        return "\t".join([self.split, self.policy, percent(self.sr), percent(self.spl),
                          f"{self.ne_mean:.4f}", f"{self.tl_mean:.4f}",
                          percent(self.rgs), percent(self.rgspl), str(self.count),
                          str(self.seed)])


def percent(fraction, spec=".2f"):
    """A rate held as a fraction, printed in percent ("-" for None)."""
    return "-" if fraction is None else format(100.0 * fraction, spec)


def success(final_pos, goal_pos, radius=SUCCESS_RADIUS):
    """Within-radius test, inclusive at the boundary."""
    final_pos = np.asarray(final_pos, dtype=np.float64)
    goal_pos = np.asarray(goal_pos, dtype=np.float64)
    return bool(np.linalg.norm(final_pos - goal_pos) <= radius)


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
            total += r.shortest_len / max(r.path_len, r.shortest_len)
    return total / len(results)


def rgspl(results):
    total = 0.0
    for r in results:
        if r.grounded:
            total += r.shortest_len / max(r.path_len, r.shortest_len)
    return total / len(results)


def grounding_success(succeeded, stop_placements, chosen_view, target_landmark):
    """Coarse-mode grounding: success and the chosen view shows the target."""
    if target_landmark is None:
        raise ContractError("grounding_success is a coarse-mode metric")
    if not succeeded:
        return False
    return any(cid == target_landmark and view == chosen_view
               for cid, view in stop_placements)


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
    coarse = False
    with nc.no_grad():
        for i, item in enumerate(items):
            ep = item.episode
            rng = np.random.default_rng(np.random.SeedSequence([0xE7A1, seed, i]))
            traj = ag.rollout(agent, ep, item.token_ids, item.record.instruction.tokens,
                              sets[i], "argmax", obs_rng=rng, kept_subs=item.record.kept,
                              imag_mask=None if masks is None else masks[i])
            final = traj.visited[-1]
            ne = navigation_error(ep.world, final, ep.goal)
            tl = trajectory_length(ep.world, traj.visited)
            ok = ne <= radius
            grounded = None
            if ep.mode == "coarse":
                coarse = True
                grounded = grounding_success(ok, ep.world.placements.get(final, ()),
                                             traj.grounding_view, ep.target_landmark)
            results.append(EpisodeResult(
                episode_id=i, final_node=final, success=ok, ne=ne, tl=tl,
                shortest_len=ep.shortest_len, path_len=tl, grounded=grounded))

    n = len(results)
    return MetricsRecord(
        sr=sum(r.success for r in results) / n,
        spl=spl(results),
        ne_mean=sum(r.ne for r in results) / n,
        tl_mean=sum(r.tl for r in results) / n,
        rgs=(sum(bool(r.grounded) for r in results) / n) if coarse else None,
        rgspl=rgspl(results) if coarse else None,
        count=n, seed=seed,
        split=split or items[0].episode.world.split,
        policy=policy)
