"""Procedural navigation-graph worlds with landmark-bearing panoramas.

A world is a small connected graph. Each node carries K single-view features:
a view either shows a landmark prototype (if a placement maps that view to a
landmark class) or the shared background vector, plus isotropic observation
noise. Edges are bound to views by heading angle, so "move through view v" is
the discrete action space.

Every world is a chain of disambiguation forks (the one layout, `forks`): at
each fork the two branches are geometrically mirrored and differ only in
which landmark class is shown, so route choice is informative only through
landmark identity. Each world designates its route, from the start of the
approach corridor to the end of the last correct branch, and that route is
its episode. Episodes have one mode, `fine`: the instruction gives one
segment per route step (see `instructions`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, SamplingError

PROTOTYPE_SEED = 2026
PROTOTYPE_MAX_COS = 0.55

SPLITS = ("train", "val_seen", "val_unseen")
EPISODE_MODE = "fine"   # the only episode mode; specs still name it


@dataclass(frozen=True)
class LandmarkClass:
    id: int
    phrase: tuple
    prototype: np.ndarray  # unit-norm, (d_v,)
    held_out: bool = False

    @property
    def text(self):
        return " ".join(self.phrase)


@dataclass(frozen=True)
class Library:
    classes: tuple
    background: np.ndarray
    d_v: int

    def by_id(self, cid):
        return self.classes[cid]

    def pool(self, split):
        """Class ids available to worlds of a split."""
        if split == "val_unseen":
            return [c.id for c in self.classes if c.held_out]
        return [c.id for c in self.classes if not c.held_out]

    def words(self):
        out = set()
        for c in self.classes:
            out.update(c.phrase)
        return out


def _sampled_unit(rng, d_v, existing):
    for _ in range(10000):
        v = rng.normal(size=d_v)
        v = v / np.linalg.norm(v)
        if all(abs(float(v @ e)) < PROTOTYPE_MAX_COS for e in existing):
            return v.astype(np.float32)
    raise SamplingError(f"could not separate {len(existing) + 1} prototypes in d_v={d_v}")


def build_library(phrases, held_out_flags, d_v):
    """Deterministic prototypes: unit-norm, pairwise |cos| < 0.55."""
    if d_v < 8:
        raise ConfigurationError(f"d_v must be >= 8, got {d_v}")
    if len(set(phrases)) != len(phrases):
        raise ConfigurationError("landmark phrases must be unique")
    rng = np.random.default_rng(np.random.SeedSequence([PROTOTYPE_SEED, d_v]))
    vecs = []
    for _ in range(len(phrases) + 1):  # +1 for the background vector
        vecs.append(_sampled_unit(rng, d_v, vecs))
    classes = tuple(
        LandmarkClass(i, tuple(p.split()), vecs[i], held)
        for i, (p, held) in enumerate(zip(phrases, held_out_flags))
    )
    return Library(classes=classes, background=vecs[-1], d_v=d_v)


def load_library(path, d_v):
    """Read 'phrase[\\t*]' lines; lines ending in a tab-star are held out."""
    phrases, flags = [], []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "\t" in line:
                phrase, marker = line.split("\t", 1)
                phrases.append(phrase.strip())
                flags.append(marker.strip() == "*")
            else:
                phrases.append(line)
                flags.append(False)
    return build_library(phrases, flags, d_v)


@dataclass(frozen=True)
class WorldConfig:
    """World generation settings. These defaults are the only ones:
    `dataset.standard_splits` and experiment specs read them."""
    library: Library
    layout: str = "forks"        # the only layout; experiment specs name it
    k_views: int = 12
    sigma_obs: float = 0.12
    split: str = "train"
    n_forks: int = 2


@dataclass
class World:
    k_views: int
    d_v: int
    sigma_obs: float
    split: str
    positions: np.ndarray              # (n, 2) float64
    edges: tuple                       # ((a, b) with a < b, ...)
    view_map: dict                     # node -> {view: neighbor}
    placements: dict                   # node -> ((class_id, view), ...)
    library: Library
    designated: tuple | None = None    # (start, goal) of the route
    _adj: dict = field(default_factory=dict, repr=False)
    _base: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        adj = {i: [] for i in range(len(self.positions))}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = {k: sorted(v) for k, v in adj.items()}

    @property
    def n_nodes(self):
        return len(self.positions)

    def neighbors(self, node):
        return self._adj[node]

    def base_panorama(self, node):
        """Noiseless (K, d_v) features for a node: prototypes over background."""
        if node not in self._base:
            pano = np.tile(self.library.background, (self.k_views, 1))
            for cid, view in self.placements.get(node, ()):
                pano[view] = self.library.by_id(cid).prototype
            self._base[node] = pano.astype(np.float32)
        return self._base[node]

    def edge_length(self, a, b):
        return float(np.linalg.norm(self.positions[a] - self.positions[b]))


def navigable(world, node):
    """Views bound to edges at `node`, as sorted (view, neighbor) pairs."""
    if node not in world.view_map:
        raise KeyError(f"unknown node {node}")
    return sorted(world.view_map[node].items())


def observation_at(world, nodes, rng):
    """Sample the (T, K, d_v) panoramas seen at a sequence of T nodes: base
    features plus fresh isotropic noise. The noise of all T is one
    `rng.normal` call, which draws what one call per node, in node order,
    would draw."""
    for node in nodes:
        if node not in world.view_map:
            raise KeyError(f"unknown node {node}")
    base = np.stack([world.base_panorama(node) for node in nodes])
    if world.sigma_obs == 0.0:
        return base
    noise = rng.normal(0.0, world.sigma_obs, size=base.shape).astype(np.float32)
    noise += base
    return noise


def shortest_path(world, a, b):
    """Minimal Euclidean-length path; ties resolved to the lexicographically
    smallest node sequence (i.e. smaller next-node id first)."""
    if a == b:
        return (a,), 0.0
    heap = [(0.0, (a,))]
    done = set()
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node == b:
            return path, dist
        if node in done:
            continue
        done.add(node)
        for nxt in world.neighbors(node):
            if nxt not in done:
                heapq.heappush(heap, (dist + world.edge_length(node, nxt), path + (nxt,)))
    raise SamplingError(f"no path from {a} to {b}")


def check_mode(mode, key="mode"):
    """ConfigurationError unless `mode`, the value of `key`, is EPISODE_MODE."""
    if mode != EPISODE_MODE:
        raise ConfigurationError(f"{key} = {mode!r}: the only episode mode is {EPISODE_MODE!r}")


@dataclass(frozen=True)
class Episode:
    world: World
    start: int
    goal: int
    teacher_path: tuple
    mode = EPISODE_MODE             # not a field: every episode has this mode

    @cached_property
    def shortest_len(self):
        """Length of the shortest start-goal path, found once per episode:
        evaluation reads it under every imagination policy."""
        return shortest_path(self.world, self.start, self.goal)[1]


def assign_views(positions, adj, k_views):
    """Bind each edge to a heading-sector view per endpoint; collisions shift
    to the next free sector (K >= degree + 1 guarantees room; a node of more
    than K edges never finishes)."""
    sector = 2.0 * math.pi / k_views
    view_map = {}
    for u in range(len(positions)):
        taken = {}
        for v in sorted(adj[u]):
            d = positions[v] - positions[u]
            ang = math.atan2(d[1], d[0]) % (2.0 * math.pi)
            view = int(round(ang / sector)) % k_views
            while view in taken:
                view = (view + 1) % k_views
            taken[view] = v
        view_map[u] = taken
    return view_map


def _free_view(view_map, node, placed, k_views, rng):
    """A random view of `node` that no edge and no (class, view) of `placed` uses."""
    used = set(view_map[node]) | {v for _, v in placed}
    free = [v for v in range(k_views) if v not in used]
    if not free:
        raise ConfigurationError(f"no free view at node {node}")
    return int(free[int(rng.integers(len(free)))])


FORK_DEGREE = 3   # a fork node's edges: the approach and its two branches
MIN_NODES = 8     # the approach corridor is padded until a world has this many
PRE_LEN = 1       # the shortest approach corridor


def _approach_len(n_forks):
    """Corridor nodes before the first fork: PRE_LEN, padded until the
    world's 2 + pre + 3 * n_forks nodes reach MIN_NODES."""
    return max(PRE_LEN, MIN_NODES - 2 - 3 * n_forks)


def route_edges(n_forks):
    """Edge count of a fork world's route, which is its episode: the approach
    corridor, then two edges per fork (onto the fork, onto its correct
    branch)."""
    return _approach_len(n_forks) + 2 * n_forks


def check_route_fits(n_forks, max_steps):
    """ConfigurationError unless an agent that takes at most `max_steps`
    decisions can follow the route of an `n_forks` world: one decision per
    edge, then the stop."""
    edges = route_edges(n_forks)
    if edges + 1 > max_steps:
        raise ConfigurationError(f"n_forks={n_forks} makes routes of {edges} edges, which take "
                                 f"{edges + 1} decisions; the agent takes at most "
                                 f"max_steps={max_steps}")


def check_sigma_obs(sigma_obs):
    """ConfigurationError unless the observation noise `sigma_obs` is finite
    and >= 0; world generation and the split reader both apply it."""
    if not (math.isfinite(sigma_obs) and sigma_obs >= 0):
        raise ConfigurationError(f"sigma_obs must be finite and >= 0, got {sigma_obs}")


def _check_config(cfg):
    if cfg.layout != "forks":
        raise ConfigurationError(f"unknown layout {cfg.layout!r}; the only layout is 'forks'")
    if cfg.n_forks < 1:
        raise ConfigurationError("forks layout needs n_forks >= 1")
    check_sigma_obs(cfg.sigma_obs)
    if not cfg.library.classes:
        raise ConfigurationError("landmark library is empty")
    if cfg.library.d_v < 8:
        raise ConfigurationError("d_v must be >= 8")
    if cfg.k_views < FORK_DEGREE + 1:
        raise ConfigurationError(
            f"K={cfg.k_views} too small for max degree {FORK_DEGREE} (need K >= degree + 1)")
    if cfg.split not in SPLITS:
        raise ConfigurationError(f"unknown split {cfg.split!r}")


def _build_forks(cfg, rng):
    """Chain of mirrored forks; wrong branches are dead ends marked by decoy
    landmarks, correct branches by instruction landmarks."""
    n_forks = cfg.n_forks
    pre = _approach_len(n_forks)

    positions = [(0.0, 0.0)]
    nodes_pre = []
    for i in range(pre):
        positions.append((float(i + 1), 0.0))
        nodes_pre.append(len(positions) - 1)
    edges = []
    path = [0] + nodes_pre
    for a, b in zip(path[:-1], path[1:]):
        edges.append((a, b))

    placements = {}
    pool = cfg.library.pool(cfg.split)
    need = 2 * n_forks
    if len(pool) < need:
        raise ConfigurationError(f"split {cfg.split} pool has {len(pool)} classes, need {need}")
    classes = [pool[i] for i in rng.permutation(len(pool))[:need]]
    landmarks = classes[:n_forks]
    decoys = classes[n_forks:]

    x = float(pre)
    y = 0.0
    cur = path[-1]
    for k in range(n_forks):
        # fork node
        x += 1.0
        positions.append((x, y))
        fork = len(positions) - 1
        edges.append((cur, fork))
        side = 1.0 if rng.integers(2) == 0 else -1.0
        positions.append((x + 1.0, y + side))
        cont = len(positions) - 1
        positions.append((x + 1.0, y - side))
        dead = len(positions) - 1
        edges.append((fork, cont))
        edges.append((fork, dead))
        placements.setdefault(fork, []).append(("L", landmarks[k], cont))
        placements.setdefault(fork, []).append(("D", decoys[k], dead))
        placements.setdefault(dead, []).append(("F", decoys[k], None))
        path.extend([fork, cont])
        x += 1.0
        y += side
        cur = cont
    goal = cur
    placements.setdefault(goal, []).append(("F", landmarks[-1], None))

    positions = np.asarray(positions, dtype=np.float64)
    adj = {i: [] for i in range(len(positions))}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    view_map = assign_views(positions, adj, cfg.k_views)

    resolved = {}
    for node, entries in placements.items():
        out = []
        for kind, cid, toward in entries:
            if toward is not None:
                view = next(v for v, nb in view_map[node].items() if nb == toward)
            else:
                view = _free_view(view_map, node, out, cfg.k_views, rng)
            out.append((cid, view))
        resolved[node] = tuple(out)

    return positions, tuple(sorted(tuple(sorted(e)) for e in edges)), view_map, resolved, (0, goal)


def generate_world(config, seed):
    """Deterministic construction of a fork world."""
    _check_config(config)
    rng = np.random.default_rng(np.random.SeedSequence([0xA11D, seed]))
    positions, edges, view_map, placements, designated = _build_forks(config, rng)
    return World(
        k_views=config.k_views,
        d_v=config.library.d_v,
        sigma_obs=config.sigma_obs,
        split=config.split,
        positions=positions,
        edges=edges,
        view_map=view_map,
        placements=placements,
        library=config.library,
        designated=designated,
    )


def sample_episode(world):
    """The episode of a world: its designated route, whose length
    (`route_edges`) follows from the world's config."""
    if world.designated is None:
        raise SamplingError("world has no designated route")
    start, goal = world.designated
    path, _ = shortest_path(world, start, goal)
    return Episode(world=world, start=start, goal=goal, teacher_path=tuple(path))
