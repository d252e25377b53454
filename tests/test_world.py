import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from imnav import world as wd
from imnav.errors import ConfigurationError, SamplingError

DATA = Path(__file__).parent.parent / "src" / "imnav" / "data"


@pytest.fixture(scope="module")
def library():
    return wd.load_library(DATA / "landmarks.txt", d_v=16)


@pytest.fixture(scope="module")
def fork_world(library):
    cfg = wd.WorldConfig(library=library, layout="forks", split="train")
    return wd.generate_world(cfg, seed=0)


# (n_forks, split, seed): fork worlds of several sizes, splits and seeds
WORLDS = [(1, "train", 0), (2, "val_seen", 3), (2, "val_unseen", 7), (3, "train", 11),
          (4, "val_unseen", 5)]


def fork_worlds(library):
    for n_forks, split, seed in WORLDS:
        yield wd.generate_world(wd.WorldConfig(library=library, n_forks=n_forks, split=split),
                                seed=seed)


def sweep_worlds(library):
    """A fork world for each fork count 1-5, view count and split."""
    for n_forks, k_views, split in itertools.product(range(1, 6), (4, 6, 8, 10, 12), wd.SPLITS):
        cfg = wd.WorldConfig(library=library, n_forks=n_forks, k_views=k_views, split=split)
        yield wd.generate_world(cfg, seed=n_forks * 100 + k_views)


def reachable(world, start):
    """Breadth-first traversal oracle."""
    seen, frontier = {start}, [start]
    while frontier:
        node = frontier.pop()
        for nb in world.neighbors(node):
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen


class TestLibrary:
    def test_prototypes_unit_norm(self, library):
        for c in library.classes:
            assert abs(float(np.linalg.norm(c.prototype)) - 1.0) < 1e-6

    def test_held_out_fraction(self, library):
        held = [c for c in library.classes if c.held_out]
        assert len(library.classes) == 60
        assert len(held) / len(library.classes) == 0.2

    def test_pools_disjoint_on_held_flag(self, library):
        train_pool = set(library.pool("train"))
        unseen_pool = set(library.pool("val_unseen"))
        assert not train_pool & unseen_pool

    def test_pools_are_built_once(self, library):
        for split in wd.SPLITS:
            assert isinstance(library.pool(split), tuple)
            assert library.pool(split) is library.pool(split)
        assert library.pool("train") == library.pool("val_seen")

    @pytest.mark.parametrize("split", ["val_unsen", "test", ""])
    def test_unknown_split_has_no_pool(self, library, split):
        before = dict(library._pools)
        with pytest.raises(ConfigurationError, match=f"unknown split {split!r}"):
            library.pool(split)
        with pytest.raises(ConfigurationError, match=f"unknown split {split!r}"):
            wd.fork_world(library, 12, 0.1, split, [0, 1], [2, 3], [1, -1], lambda taken: 0)
        assert library._pools == before and split not in library._pools

    def test_phrases_unique(self, library):
        texts = [c.text for c in library.classes]
        assert len(set(texts)) == len(texts)

    @pytest.mark.parametrize("d_v", [16, 24, 33])
    def test_prototypes_match_the_pairwise_reference(self, d_v):
        """build_library tests a candidate against every accepted vector in
        one product; the pairwise test accepts the same candidates."""
        rng = np.random.default_rng(np.random.SeedSequence([wd.PROTOTYPE_SEED, d_v]))
        vecs = []
        while len(vecs) < 61:   # 60 classes and the background
            v = rng.normal(size=d_v)
            v = v / np.linalg.norm(v)
            if all(abs(float(v @ e)) < wd.PROTOTYPE_MAX_COS for e in vecs):
                vecs.append(v.astype(np.float32))
        built = wd.load_library(DATA / "landmarks.txt", d_v=d_v)
        assert np.stack([c.prototype for c in built.classes] + [built.background]).tobytes() \
            == np.stack(vecs).tobytes()

    def test_separation(self, library):
        vecs = [c.prototype for c in library.classes] + [library.background]
        for a, b in itertools.combinations(vecs, 2):
            assert abs(float(a @ b)) < wd.PROTOTYPE_MAX_COS


class TestGeneration:
    def test_deterministic_bitwise(self, library):
        for w1, w2 in zip(fork_worlds(library), fork_worlds(library)):
            assert w1.positions.tobytes() == w2.positions.tobytes()
            assert w1.edges == w2.edges
            assert w1.placements == w2.placements
            assert w1.view_map == w2.view_map
            assert w1.designated == w2.designated

    def test_k_too_small_for_degree(self, library):
        # checked before views are bound: with K below a node's degree the
        # binding would search for a free view forever
        for k_views in (1, 2, 3):
            cfg = wd.WorldConfig(library=library, layout="forks", k_views=k_views)
            with pytest.raises(ConfigurationError):
                wd.generate_world(cfg, seed=0)

    @pytest.mark.parametrize("layout", ["ring", "random"])
    def test_other_layouts_rejected(self, library, layout):
        with pytest.raises(ConfigurationError, match=layout):
            wd.generate_world(wd.WorldConfig(library=library, layout=layout), seed=0)

    def test_default_config_connected(self, library):
        for w in fork_worlds(library):
            assert reachable(w, 0) == set(range(w.n_nodes))

    def test_edge_view_bijection(self, library):
        for w in fork_worlds(library):
            for a, b in w.edges:
                assert sum(1 for nb in w.view_map[a].values() if nb == b) == 1
                assert sum(1 for nb in w.view_map[b].values() if nb == a) == 1
            # every bound view leads along an edge
            bound = {tuple(sorted((a, b))) for a, views in w.view_map.items() for b in views.values()}
            assert bound == set(w.edges)

    def test_fork_world_unseen_uses_held_out_classes(self, library):
        cfg = wd.WorldConfig(library=library, layout="forks", split="val_unseen")
        w = wd.generate_world(cfg, seed=3)
        used = {cid for entries in w.placements.values() for cid, _ in entries}
        assert used and all(library.by_id(c).held_out for c in used)

    def test_train_world_never_uses_held_out(self, library):
        for seed in range(6):
            w = wd.generate_world(wd.WorldConfig(library=library, layout="forks"), seed=seed)
            used = {cid for entries in w.placements.values() for cid, _ in entries}
            assert all(not library.by_id(c).held_out for c in used)

    def test_fork_world_rebuilds_from_its_draws(self, library):
        """`fork_world` builds the same world from the draws `fork_draws`
        reads off a generated one."""
        for w in sweep_worlds(library):
            landmarks, decoys, sides, views = wd.fork_draws(w)
            assert len(landmarks) == len(decoys) == len(sides) == len(views) - 1
            views = iter(views)
            built = wd.fork_world(library, w.k_views, w.sigma_obs, w.split, landmarks, decoys,
                                  sides, lambda taken: next(views))
            assert next(views, None) is None
            assert built.positions.tobytes() == w.positions.tobytes()
            assert (built.edges, built.view_map, built.placements, built.designated) == \
                   (w.edges, w.view_map, w.placements, w.designated)

    def test_edge_length_is_the_euclidean_norm(self, library):
        # fork edges are offsets (1, 0) and (1, +-1), whose lengths 1 and
        # sqrt(2) every float64 formula rounds alike
        for w in sweep_worlds(library):
            for a, b in w.edges:
                norm = float(np.linalg.norm(w.positions[a] - w.positions[b]))
                assert w.edge_length(a, b) == w.edge_length(b, a) == norm
                assert norm in (1.0, math.sqrt(2.0))

    def test_node_counts(self, library):
        """1 + pre + 3 * n_forks nodes: the corridor pads n_forks >= 2 worlds
        to MIN_NODES or more, and leaves an n_forks = 1 world one short."""
        for n_forks, nodes in zip(range(1, 7), (7, 8, 11, 14, 17, 20)):
            w = wd.generate_world(wd.WorldConfig(library=library, n_forks=n_forks), seed=n_forks)
            assert w.n_nodes == nodes == 1 + wd._approach_len(n_forks) + 3 * n_forks

    def test_fork_world_shape(self, fork_world):
        assert fork_world.n_nodes == 8
        assert fork_world.designated is not None
        start, goal = fork_world.designated
        path, _ = wd.shortest_path(fork_world, start, goal)
        assert len(path) - 1 == 5


def unshared_fork_world(library, k_views, sigma_obs, split, landmarks, decoys, sides,
                        choose_view):
    """Reference: a fork world built on its own, as before layouts were
    shared; it binds each node's views one by one."""
    def bind(node):
        sector, taken = 2.0 * math.pi / k_views, {}
        for nb in sorted(b if a == node else a for a, b in edges if node in (a, b)):
            dx, dy = positions[nb] - positions[node]
            view = int(round((math.atan2(dy, dx) % (2.0 * math.pi)) / sector)) % k_views
            while view in taken:
                view = (view + 1) % k_views
            taken[view] = nb
        return taken

    def free_view(node):
        view = choose_view(view_map[node])
        assert 0 <= view < k_views and view not in view_map[node]
        return view

    forks = wd._fork_nodes(len(landmarks))
    positions = [(float(i), 0.0) for i in range(forks[0][0])]
    edges = [(i, i + 1) for i in range(forks[0][0] - 1)]
    y, prev = 0.0, forks[0][0] - 1
    for k, ((fork, cont, dead), side) in enumerate(zip(forks, sides)):
        x = float(fork - k)
        positions += [(x, y), (x + 1.0, y + side), (x + 1.0, y - side)]
        edges += [(prev, fork), (fork, cont), (fork, dead)]
        y, prev = y + side, cont
    positions = np.asarray(positions, dtype=np.float64)
    view_map = {node: bind(node) for node in range(len(positions))}
    placements = {}
    for (fork, cont, dead), landmark, decoy in zip(forks, landmarks, decoys):
        toward = {nb: view for view, nb in view_map[fork].items()}
        placements[fork] = ((landmark, toward[cont]), (decoy, toward[dead]))
        placements[dead] = ((decoy, free_view(dead)),)
    goal = forks[-1][1]
    placements[goal] = ((landmarks[-1], free_view(goal)),)
    world = wd.World(k_views=k_views, d_v=library.d_v, sigma_obs=sigma_obs, split=split,
                     positions=positions, edges=tuple(sorted(edges)), view_map=view_map,
                     placements=placements, library=library)
    return world, wd.shortest_path(world, 0, goal)[0]


class TestSharedLayout:
    @staticmethod
    def both(library, n_forks, k_views, sides, seed):
        """The world of these draws built from the shared layout and built
        on its own, with the same free views drawn."""
        classes = list(library.pool("train")[seed % 7:][:2 * n_forks])
        out = []
        for build in (wd.fork_world, unshared_fork_world):
            rng = np.random.default_rng(seed)
            out.append(build(library, k_views, 0.1, "train", classes[:n_forks],
                             classes[n_forks:], sides,
                             lambda taken: int(rng.choice([v for v in range(k_views)
                                                           if v not in taken]))))
        return out

    def test_equals_a_world_built_on_its_own(self, library):
        for n_forks in range(1, 6):
            for k_views in range(4, 17):
                for seed, sides in enumerate(itertools.product((1, -1), repeat=n_forks)):
                    shared, (alone, route) = self.both(library, n_forks, k_views, sides, seed)
                    assert shared.positions.dtype == alone.positions.dtype
                    assert shared.positions.tobytes() == alone.positions.tobytes()
                    assert (shared.edges, shared.view_map, shared.placements) == \
                           (alone.edges, alone.view_map, alone.placements)
                    assert (shared.k_views, shared.d_v, shared.sigma_obs, shared.split) == \
                           (alone.k_views, alone.d_v, alone.sigma_obs, alone.split)
                    assert shared.route == route and shared.designated == (0, route[-1])
                    for node in range(alone.n_nodes):
                        assert tuple(shared.neighbors(node)) == tuple(alone.neighbors(node))
                    ep = wd.sample_episode(shared)
                    assert ep.teacher_path == route
                    assert ep.shortest_len == wd.shortest_path(alone, 0, route[-1])[1]

    def test_shared_arrays_and_maps_are_read_only(self, library):
        w = wd.generate_world(wd.WorldConfig(library=library, n_forks=3), seed=4)
        with pytest.raises(ValueError):
            w.positions[0, 0] = 5.0
        with pytest.raises(TypeError):
            w.view_map[0] = {}
        with pytest.raises(TypeError):
            w.view_map[1][0] = 0
        with pytest.raises(TypeError):
            w._adj[0] = ()
        with pytest.raises((TypeError, AttributeError)):
            w.neighbors(1).append(0)

    def test_worlds_of_one_layout_keep_their_own_placements(self, library):
        a = self.both(library, 2, 12, (1, -1), seed=0)[0]
        b = self.both(library, 2, 12, (1, -1), seed=3)[0]
        assert a.positions is b.positions and a.view_map is b.view_map
        assert a.placements is not b.placements and a.placements != b.placements
        fork = wd._fork_nodes(2)[0][0]
        pano_a, pano_b = a.base_panorama(fork), b.base_panorama(fork)
        assert a._base is not b._base and not np.array_equal(pano_a, pano_b)
        assert list(a._base) == list(b._base) == [fork]


class TestNavigable:
    def test_degree_two_node(self, fork_world):
        # node 1 lies on the approach corridor, between the start and fork 1
        assert len(wd.navigable(fork_world, 1)) == 2

    def test_neighbors_are_the_incident_edges(self, library):
        for w in fork_worlds(library):
            for node in range(w.n_nodes):
                # oracle: enumerate the constructed edges incident to the node
                want = {b if a == node else a for a, b in w.edges if node in (a, b)}
                nav = wd.navigable(w, node)
                assert {nb for _, nb in nav} == want
                assert [v for v, _ in nav] == sorted(v for v, _ in nav)

    def test_isolated_node_hand_built(self, library):
        # a generated world's view map is its layout's, shared and read-only
        w = wd.World(k_views=12, d_v=16, sigma_obs=0.0, split="train",
                     positions=np.asarray([(0.0, 0.0), (1.0, 0.0)]), edges=((0, 1),),
                     view_map={0: {0: 1}, 1: {6: 0}, 99: {}}, placements={},
                     library=library)
        assert wd.navigable(w, 99) == []

    def test_unknown_node(self, fork_world):
        with pytest.raises(KeyError):
            wd.navigable(fork_world, 1234)


class TestObservation:
    def test_zero_noise_returns_prototype(self, library):
        cfg = wd.WorldConfig(library=library, layout="forks", sigma_obs=0.0)
        w = wd.generate_world(cfg, seed=2)
        rng = np.random.default_rng(0)
        for node, entries in w.placements.items():
            pano = wd.observation_at(w, [node], rng)[0]
            for cid, view in entries:
                assert np.array_equal(pano[view], library.by_id(cid).prototype)

    def test_zero_noise_background(self, library):
        cfg = wd.WorldConfig(library=library, layout="forks", sigma_obs=0.0)
        w = wd.generate_world(cfg, seed=2)
        pano = wd.observation_at(w, [0], np.random.default_rng(0))[0]
        placed = {v for _, v in w.placements.get(0, ())}
        edgev = set(w.view_map[0])
        for v in range(w.k_views):
            if v not in placed and v not in edgev:
                assert np.array_equal(pano[v], library.background)

    def test_noise_variance_monte_carlo(self, library):
        cfg = wd.WorldConfig(library=library, layout="forks", sigma_obs=0.1)
        w = wd.generate_world(cfg, seed=2)
        rng = np.random.default_rng(42)
        base = w.base_panorama(0)
        draws = np.stack([wd.observation_at(w, [0], rng)[0] - base for _ in range(1000)])
        var = draws.reshape(-1).var()
        assert abs(var - 0.01) < 0.001

    def test_noise_three_sigma_band(self, library):
        cfg = wd.WorldConfig(library=library, layout="forks", sigma_obs=0.05)
        w = wd.generate_world(cfg, seed=4)
        rng = np.random.default_rng(5)
        base = w.base_panorama(2)
        noise = np.concatenate([(wd.observation_at(w, [2], rng)[0] - base).ravel()
                                for _ in range(200)])
        frac = float((np.abs(noise) <= 3 * 0.05).mean())
        assert abs(frac - 0.997) < 0.004

    def test_placement_recoverable_at_zero_noise(self, library):
        cfg = wd.WorldConfig(library=library, layout="forks", sigma_obs=0.0)
        protos = np.stack([c.prototype for c in library.classes])
        for seed in range(5):
            w = wd.generate_world(cfg, seed=seed)
            rng = np.random.default_rng(0)
            for node, entries in w.placements.items():
                pano = wd.observation_at(w, [node], rng)[0]
                for cid, view in entries:
                    sims = protos @ pano[view]
                    assert int(np.argmax(sims)) == cid

    @pytest.mark.parametrize("sigma", [0.12, 0.0])
    def test_path_draw_equals_per_node_draws(self, library, sigma):
        """One call over a teacher path draws what one call per node does,
        and leaves the generator in the same state."""
        cfg = wd.WorldConfig(library=library, layout="forks", sigma_obs=sigma)
        path = wd.sample_episode(wd.generate_world(cfg, seed=3)).teacher_path
        world = wd.generate_world(cfg, seed=3)
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        got = wd.observation_at(world, path, rng)
        want = np.concatenate([wd.observation_at(world, [node], ref) for node in path])
        assert got.shape == (len(path), world.k_views, library.d_v) and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestShortestPath:
    def test_identity(self, fork_world):
        assert wd.shortest_path(fork_world, 3, 3) == ((3,), 0.0)

    def test_line_segment(self, fork_world):
        # the approach corridor: start, corridor node, first fork
        path, dist = wd.shortest_path(fork_world, 0, 2)
        assert path == (0, 1, 2)
        assert abs(dist - (fork_world.edge_length(0, 1) + fork_world.edge_length(1, 2))) < 1e-12

    def test_matches_brute_force_enumeration(self, library):
        def brute(w, a, b):
            best = None
            stack = [((a,), 0.0)]
            while stack:
                path, dist = stack.pop()
                node = path[-1]
                if best is not None and dist > best[1] + 1e-12:
                    continue
                if node == b:
                    cand = (path, dist)
                    if best is None or dist < best[1] - 1e-12 or (
                            abs(dist - best[1]) <= 1e-12 and path < best[0]):
                        best = cand
                    continue
                for nb in w.neighbors(node):
                    if nb not in path:
                        stack.append((path + (nb,), dist + w.edge_length(node, nb)))
            return best

        for w in fork_worlds(library):
            for a in range(w.n_nodes):
                for b in range(w.n_nodes):
                    path, dist = wd.shortest_path(w, a, b)
                    bpath, bdist = brute(w, a, b)
                    assert abs(dist - bdist) < 1e-9
                    assert path == bpath

    def test_triangle_inequality(self, library):
        rng = np.random.default_rng(0)
        for w in fork_worlds(library):
            for _ in range(40):
                a, b, c = rng.integers(w.n_nodes, size=3)
                dab = wd.shortest_path(w, int(a), int(b))[1]
                dbc = wd.shortest_path(w, int(b), int(c))[1]
                dac = wd.shortest_path(w, int(a), int(c))[1]
                assert dac <= dab + dbc + 1e-9


class TestSampleEpisode:
    def test_deterministic(self, fork_world):
        e1 = wd.sample_episode(fork_world)
        e2 = wd.sample_episode(fork_world)
        assert e1.teacher_path == e2.teacher_path
        assert (e1.start, e1.goal) == (e2.start, e2.goal)

    def test_coarse_mode_rejected_before_any_world_is_built(self, library, monkeypatch):
        from imnav import dataset as ds

        def no_world(*args, **kwargs):
            raise AssertionError("a world was generated")

        monkeypatch.setattr(wd, "generate_world", no_world)
        _, templates, lexicon = ds.load_assets(d_v=library.d_v)
        with pytest.raises(ConfigurationError, match="mode = 'coarse'"):
            ds.standard_splits(library, templates, lexicon, mode="coarse", train_n=2,
                               val_seen_n=1, val_unseen_n=1, data_seed=0)

    def test_too_small_world_errors(self, library):
        # a hand-built world without a designated route has no episode
        positions = np.asarray([(0.0, 0.0), (1.0, 0.0)])
        w = wd.World(k_views=12, d_v=16, sigma_obs=0.0, split="train",
                     positions=positions, edges=((0, 1),),
                     view_map={0: {0: 1}, 1: {6: 0}}, placements={},
                     library=library)
        with pytest.raises(SamplingError, match="designated"):
            wd.sample_episode(w)

    def test_path_length_bounds(self, library):
        for n_forks in (1, 2, 3):
            for seed in range(3):
                w = wd.generate_world(wd.WorldConfig(library=library, n_forks=n_forks), seed=seed)
                ep = wd.sample_episode(w)
                assert (ep.start, ep.goal) == w.designated
                assert 3 <= len(ep.teacher_path) - 1 == wd.route_edges(n_forks) <= 7
                assert ep.shortest_len == wd.shortest_path(w, ep.start, ep.goal)[1]

    def test_route_longer_than_max_hops_errors(self, library):
        # an approach edge plus two edges per fork: the hop bound is the
        # route's own length, so four forks give a 9-edge episode
        for n_forks in (4, 6):
            w = wd.generate_world(wd.WorldConfig(library=library, n_forks=n_forks), seed=0)
            ep = wd.sample_episode(w)
            assert len(ep.teacher_path) - 1 == wd.route_edges(n_forks) == 1 + 2 * n_forks
        # a route longer than the agent's step budget is a config error:
        # 6 forks take 13 edges and a stop, 7 forks 15 edges and a stop
        wd.check_route_fits(6, max_steps=14)
        with pytest.raises(ConfigurationError, match="n_forks=7 makes routes of 15 edges"):
            wd.check_route_fits(7, max_steps=15)
        with pytest.raises(ConfigurationError, match="n_forks=6"):
            wd.check_route_fits(6, max_steps=13)
