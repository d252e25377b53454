"""Procedural navigation-graph worlds with landmark-bearing panoramas.

A world is a small connected graph. Each node carries K single-view features:
a view either shows a landmark prototype (if a placement maps that view to a
landmark class) or the shared background vector, plus isotropic observation
noise. Edges are bound to views by heading angle, so "move through view v" is
the discrete action space.

Every world is a chain of disambiguation forks (the one layout, `forks`): at
each fork the two branches are geometrically mirrored and differ only in
which landmark class is shown, so route choice is informative only through
landmark identity. A world follows from its draws, a plain tuple of ints:
its landmark and decoy classes and one side per fork, then the view, bound
to no edge, on which each dead end and the goal show a class. `fork_world`
alone builds a world from them, checks them and keeps them, for generation
and for the split reader alike. What depends only on the fork count,
k_views and the sides (positions, edges, view bindings, adjacency, free
views and the route) is one read-only `ForkLayout`, built once per pattern
and shared by its worlds. Each world designates its route, from the start
of the approach corridor to the end of the last correct branch, and that
route is its episode. Episodes have one mode, `fine`: the instruction gives
one segment per route step (see `instructions`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

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
    # split -> pool, filled in once by __post_init__
    _pools: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = tuple(c.id for c in self.classes if not c.held_out)
        unseen = tuple(c.id for c in self.classes if c.held_out)
        object.__setattr__(self, "_pools", {split: unseen if split == "val_unseen" else seen
                                            for split in SPLITS})

    def by_id(self, cid):
        return self.classes[cid]

    def pool(self, split):
        """Class ids available to worlds of a split, as a tuple: the held-out
        classes for val_unseen, the others for train and val_seen.
        ConfigurationError for a split outside SPLITS."""
        if split not in self._pools:
            raise ConfigurationError(f"unknown split {split!r}; the splits are {', '.join(SPLITS)}")
        return self._pools[split]

    def words(self):
        out = set()
        for c in self.classes:
            out.update(c.phrase)
        return out


def _sampled_unit(rng, d_v, existing):
    # one product per candidate; float64 as when each pair was a float(v @ e)
    accepted = np.asarray(existing, dtype=np.float64).reshape(len(existing), d_v)
    for _ in range(10000):
        v = rng.normal(size=d_v)
        v = v / np.linalg.norm(v)
        if not existing or np.abs(accepted @ v).max() < PROTOTYPE_MAX_COS:
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
    route: tuple | None = None         # the designated route's nodes, start to goal
    draws: tuple | None = None         # what `fork_world` built it from
    _adj: dict = field(default_factory=dict, repr=False)   # node -> sorted neighbors
    _base: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._adj:
            self._adj = _adjacency(len(self.positions), self.edges)

    @property
    def n_nodes(self):
        return len(self.positions)

    @property
    def designated(self):
        """(start, goal) of the route, or None for a world without one."""
        return None if self.route is None else (self.route[0], self.route[-1])

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
        p = self.positions
        return math.hypot(p[a, 0] - p[b, 0], p[a, 1] - p[b, 1])


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

    @cached_property
    def route_landmarks(self):
        """Per step of the teacher path, the class of the landmark that the
        view it leaves through shows, or None where that view shows none;
        found once per episode, for its instruction and its record."""
        world, path = self.world, self.teacher_path
        out = []
        for u, v in zip(path[:-1], path[1:]):
            shown = None
            for cid, view in world.placements.get(u, ()):   # the last placement is the one seen
                if world.view_map[u].get(view) == v:
                    shown = cid
            out.append(shown)
        return tuple(out)


FORK_DEGREE = 3   # a fork node's edges: the approach and its two branches
MIN_NODES = 8     # the approach corridor is padded until a world has this many
PRE_LEN = 1       # the shortest approach corridor


def _approach_len(n_forks):
    """Corridor nodes before the first fork: PRE_LEN, padded until
    2 + pre + 3 * n_forks reaches MIN_NODES. A world has 1 + pre + 3 *
    n_forks nodes (node 0, the corridor, three per fork), so an n_forks = 1
    world has 7."""
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


def check_forks(k_views, n_forks):
    """ConfigurationError unless a world of `n_forks` forks (>= 1) can bind
    each node's edges to distinct views among its `k_views` (K >= FORK_DEGREE
    + 1); generation applies it before it draws, `fork_world` to its draws."""
    if n_forks < 1:
        raise ConfigurationError("forks layout needs n_forks >= 1")
    if k_views < FORK_DEGREE + 1:
        raise ConfigurationError(
            f"K={k_views} too small for max degree {FORK_DEGREE} (need K >= degree + 1)")


def _check_config(cfg):
    if cfg.layout != "forks":
        raise ConfigurationError(f"unknown layout {cfg.layout!r}; the only layout is 'forks'")
    check_forks(cfg.k_views, cfg.n_forks)
    if not cfg.library.classes:
        raise ConfigurationError("landmark library is empty")
    if cfg.library.d_v < 8:
        raise ConfigurationError("d_v must be >= 8")


def _fork_nodes(n_forks):
    """(fork, correct branch, dead end) node ids of each fork, in route order."""
    first = _approach_len(n_forks) + 1
    return [(f, f + 1, f + 2) for f in range(first, first + 3 * n_forks, 3)]


def _adjacency(n_nodes, edges):
    """{node: sorted neighbor tuple} of a graph of `n_nodes` and `edges`."""
    adj = {i: [] for i in range(n_nodes)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return {k: tuple(sorted(v)) for k, v in adj.items()}


def _bind_views(positions, neighbors, k_views, node):
    """{view: neighbor} of `node`: each edge takes the heading-sector view
    that points along it, and a collision shifts to the next free sector
    (K >= FORK_DEGREE + 1 leaves room)."""
    sector = 2.0 * math.pi / k_views
    taken = {}
    for nb in neighbors:
        dx, dy = positions[nb] - positions[node]
        view = int(round((math.atan2(dy, dx) % (2.0 * math.pi)) / sector)) % k_views
        while view in taken:
            view = (view + 1) % k_views
        taken[view] = nb
    return taken


@dataclass(frozen=True)
class ForkLayout:
    """What a fork world's fork count, k_views and sides fix, shared by
    every world of that pattern. Its arrays and maps are read-only."""
    positions: np.ndarray     # (n, 2) float64
    edges: tuple              # ((a, b) with a < b, ...)
    adj: MappingProxyType     # node -> sorted neighbor tuple
    view_map: MappingProxyType  # node -> read-only {view: neighbor}
    forks: tuple              # (fork, correct branch, dead end) per fork
    toward: tuple             # per fork: its views toward the correct branch and the dead end
    route: tuple              # node 0 to the goal, the end of the last correct branch
    free: tuple               # the views no edge uses, per dead end in fork order, then the goal


def _build_layout(n_forks, k_views, sides):
    """The ForkLayout of `n_forks` forks whose correct branches turn toward
    `sides`. The graph is a tree, so its route is the only path to the goal."""
    forks = _fork_nodes(n_forks)
    positions = [(float(i), 0.0) for i in range(forks[0][0])]     # node 0, then the approach
    edges = [(i, i + 1) for i in range(forks[0][0] - 1)]
    y, prev = 0.0, forks[0][0] - 1
    for k, ((fork, cont, dead), side) in enumerate(zip(forks, sides)):
        x = float(fork - k)               # a fork is 3 nodes and 2 units of x past the last
        positions += [(x, y), (x + 1.0, y + side), (x + 1.0, y - side)]
        edges += [(prev, fork), (fork, cont), (fork, dead)]
        y, prev = y + side, cont
    positions = np.asarray(positions, dtype=np.float64)
    positions.flags.writeable = False
    adj = _adjacency(len(positions), edges)
    view_map = {node: _bind_views(positions, adj[node], k_views, node) for node in adj}
    toward = []
    for fork, cont, dead in forks:
        views = {nb: view for view, nb in view_map[fork].items()}
        toward.append((views[cont], views[dead]))
    route = tuple(range(forks[0][0])) + tuple(n for fork, cont, _ in forks for n in (fork, cont))
    free = tuple(tuple(v for v in range(k_views) if v not in view_map[node])
                 for node in [dead for _, _, dead in forks] + [route[-1]])
    return ForkLayout(positions=positions, edges=tuple(sorted(edges)),
                      adj=MappingProxyType(adj),
                      view_map=MappingProxyType({node: MappingProxyType(views)
                                                 for node, views in view_map.items()}),
                      forks=tuple(forks), toward=tuple(toward), route=route, free=free)


_LAYOUTS = {}


def fork_layout(n_forks, k_views, sides):
    """The shared ForkLayout of a fork pattern, built on first use."""
    key = (n_forks, k_views, tuple(sides))
    if key not in _LAYOUTS:
        _LAYOUTS[key] = _build_layout(*key)
    return _LAYOUTS[key]


def fork_world(library, k_views, sigma_obs, split, draws):
    """The fork world of `draws`, 4 * n_forks + 1 ints: n_forks landmarks,
    n_forks decoys, n_forks sides, then a free view for each dead end in
    fork order and for the goal. Fork k's correct branch turns toward side
    k (+1 or -1), and its wrong branch, a dead end, toward the other side.
    The fork shows landmark k on its view toward the correct branch and
    decoy k on its view toward the dead end. The dead end shows decoy k
    again, and the goal, the end of the last correct branch, shows the last
    landmark, each on its free view, one that no edge uses. The route runs
    from node 0 to the goal. The world shares its pattern's `fork_layout`,
    owns its placements and keeps `draws` as a tuple. ConfigurationError
    unless the count is 4 * n_forks + 1, `check_forks` holds, sigma_obs is
    finite and >= 0, the split is one of SPLITS, the classes are distinct
    and in the split's pool, each side is +1 or -1, and each view is free."""
    draws = tuple(draws)
    n_forks = (len(draws) - 1) // 4
    if len(draws) != 4 * n_forks + 1:
        raise ConfigurationError(f"{len(draws)} draws are not 4 * n_forks + 1")
    check_forks(k_views, n_forks)
    if not (math.isfinite(sigma_obs) and sigma_obs >= 0):
        raise ConfigurationError(f"sigma_obs must be finite and >= 0, got {sigma_obs}")
    pool = library.pool(split)
    landmarks, decoys = draws[:n_forks], draws[n_forks:2 * n_forks]
    sides, views = draws[2 * n_forks:3 * n_forks], draws[3 * n_forks:]
    seen = set()
    for cid in (*landmarks, *decoys):
        if cid not in pool:
            raise ConfigurationError(f"class {cid} is not in the {split} pool")
        if cid in seen:
            raise ConfigurationError(f"class {cid} is drawn twice")
        seen.add(cid)
    for side in sides:
        if side not in (1, -1):
            raise ConfigurationError(f"side {side} is not 1 or -1")

    layout = fork_layout(n_forks, k_views, sides)
    goal = layout.route[-1]
    nodes = [dead for _, _, dead in layout.forks] + [goal]
    for node, view, free in zip(nodes, views, layout.free):
        if view not in free:
            raise ConfigurationError(f"view {view} is not free at node {node}")
    placements = {}
    for (fork, _, dead), (to_cont, to_dead), landmark, decoy, view in zip(
            layout.forks, layout.toward, landmarks, decoys, views):
        placements[fork] = ((landmark, to_cont), (decoy, to_dead))
        placements[dead] = ((decoy, view),)
    placements[goal] = ((landmarks[-1], views[-1]),)
    return World(k_views=k_views, d_v=library.d_v, sigma_obs=sigma_obs, split=split,
                 positions=layout.positions, edges=layout.edges, view_map=layout.view_map,
                 placements=placements, library=library, route=layout.route, _adj=layout.adj,
                 draws=draws)


def generate_world(config, seed):
    """Deterministic construction of a fork world: draw 2 * n_forks distinct
    classes of the split's pool (the landmarks, then the decoys), one side
    per fork, and one view of each of its layout's `free` tuples, and build
    it from those draws with `fork_world`."""
    _check_config(config)
    n_forks = config.n_forks
    pool = config.library.pool(config.split)
    if len(pool) < 2 * n_forks:
        raise ConfigurationError(f"split {config.split} pool has {len(pool)} classes, "
                                 f"need {2 * n_forks}")
    rng = np.random.default_rng(np.random.SeedSequence([0xA11D, seed]))
    classes = [pool[i] for i in rng.permutation(len(pool))[:2 * n_forks]]
    sides = [1 if rng.integers(2) == 0 else -1 for _ in range(n_forks)]
    views = [free[int(rng.integers(len(free)))]
             for free in fork_layout(n_forks, config.k_views, sides).free]
    return fork_world(config.library, config.k_views, config.sigma_obs, config.split,
                      classes + sides + views)


def sample_episode(world):
    """The episode of a world: its designated route, whose length
    (`route_edges`) follows from the world's config."""
    if world.route is None:
        raise SamplingError("world has no designated route")
    start, goal = world.designated
    return Episode(world=world, start=start, goal=goal, teacher_path=world.route)
