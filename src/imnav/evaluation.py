"""Standard VLN metrics and split evaluation under imagination policies.

The metrics are SR, SPL, NE and TL. An episode succeeds when the agent stops
within SUCCESS_RADIUS of the goal, boundary included. SPL follows the standard
success-weighted-by-inverse-path-length definition,
SPL = (1/N) * sum_i S_i * l_i / max(p_i, l_i), with l_i the shortest-path
length and p_i the agent's traversed length (TL). Metric arithmetic is
float64.

A metrics row is a (MetricsRecord, condition) pair: `evaluate` makes the
record, `write_metrics` writes rows as a TSV with SR and SPL in percent to
2 decimals, and `read_metrics` reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import agent as ag
from . import imagination as im
from . import serial
from . import world as wd
from .errors import ConfigurationError, ContractError, FormatError, InputError

SUCCESS_RADIUS = 1.0

POLICIES = ("correct", "null", "wrong", "goal_only")
METRICS_COLUMNS = ("split", "condition", "SR", "SPL", "NE", "TL", "n", "seed")


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
    """The imagination list each episode is handed under a test-time policy:
    its own (correct), none (null), another instruction's (wrong), or only
    its last (goal_only)."""
    if policy == "correct":
        return [list(g) for g in imagination_sets]
    if policy == "null":
        return [[] for _ in imagination_sets]
    if policy == "wrong":
        return im.shuffle_wrong(imagination_sets, seed)
    if policy == "goal_only":
        return [im.goal_only(g) for g in imagination_sets]
    raise ConfigurationError(f"unknown imagination policy {policy!r}")


def evaluate(agent, items, policy, seed, split=None):
    """Greedy rollouts over a split under an imagination policy.

    `items` is a list of dataset bundles (episode, record, imaginations,
    token_ids). Pure function of (parameters, items, policy, seed).
    """
    if not items:
        raise InputError("evaluate called with an empty dataset")
    sets = apply_policy([it.imaginations for it in items], policy, seed)

    results = []
    for i, item in enumerate(items):
        ep = item.episode
        traj = ag.rollout(agent, ep, item.token_ids, item.record.tokens,
                          sets[i], "argmax", obs_rng=observation_rng(seed, i),
                          kept_subs=item.record.kept)
        final = traj.visited[-1]
        ne = navigation_error(ep.world, final, ep.goal)
        results.append(EpisodeResult(
            episode_id=i, final_node=final, success=ne <= SUCCESS_RADIUS, ne=ne,
            tl=trajectory_length(ep.world, traj.visited), shortest_len=ep.shortest_len))

    n = len(results)
    return MetricsRecord(
        sr=sum(r.success for r in results) / n,
        spl=spl(results),
        ne_mean=sum(r.ne for r in results) / n,
        tl_mean=sum(r.tl for r in results) / n,
        count=n, seed=seed,
        split=split or items[0].episode.world.split)


def metrics_line(rec, condition):
    """The metrics-file line of the row (rec, condition)."""
    return "\t".join([rec.split, condition, percent(rec.sr), percent(rec.spl),
                      f"{rec.ne_mean:.4f}", f"{rec.tl_mean:.4f}", str(rec.count), str(rec.seed)])


def write_metrics(path, rows, command="", seed=None):
    """Write (MetricsRecord, condition) rows under a header row."""
    serial.write_text(path, ["\t".join(METRICS_COLUMNS)] + [metrics_line(*row) for row in rows],
                      command=command, seed=seed)


def read_metrics(path):
    """The (MetricsRecord, condition) rows of a metrics file, with SR and SPL
    converted from the file's percentages to fractions. FormatError names
    the line of a row with a missing or unparsable field, a split outside
    `world.SPLITS`, an n below 1, an SR or SPL outside [0, 100], an NE or TL
    that is negative or not finite, or a negative seed."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = [(i + 1, l) for i, l in enumerate(lines) if l and not l.startswith("#")]
    if not body or body[0][1].split("\t") != list(METRICS_COLUMNS):
        raise FormatError(f"{path}: expected a metrics header row with the columns "
                          f"{' '.join(METRICS_COLUMNS)}")
    rows = []
    for lineno, line in body[1:]:
        parts = line.split("\t")
        if len(parts) != len(METRICS_COLUMNS):
            raise FormatError(f"{path}:{lineno}: expected {len(METRICS_COLUMNS)} columns, "
                              f"got {len(parts)}")
        try:
            sr, spl, ne, tl = (float(x) for x in parts[2:6])
            count, seed = int(parts[6]), int(parts[7])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad field: {exc}") from exc
        if parts[0] not in wd.SPLITS:
            raise FormatError(f"{path}:{lineno}: unknown split {parts[0]!r}; the splits are "
                              f"{', '.join(wd.SPLITS)}")
        if count < 1:
            raise FormatError(f"{path}:{lineno}: n must be >= 1, got {count}")
        if seed < 0:
            raise FormatError(f"{path}:{lineno}: seed must be >= 0, got {seed}")
        for name, value in (("SR", sr), ("SPL", spl)):
            if not 0.0 <= value <= 100.0:
                raise FormatError(f"{path}:{lineno}: {name} must be in [0, 100], got {value}")
        for name, value in (("NE", ne), ("TL", tl)):
            if not 0.0 <= value < np.inf:
                raise FormatError(f"{path}:{lineno}: {name} must be finite and >= 0, got {value}")
        rows.append((MetricsRecord(sr=sr / 100.0, spl=spl / 100.0, ne_mean=ne, tl_mean=tl,
                                   count=count, seed=seed, split=parts[0]), parts[1]))
    return rows
