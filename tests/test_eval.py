import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from imnav import agent as ag
from imnav import dataset as ds
from imnav import evaluation as ev
from imnav import instructions as ins
from imnav import world as wd
from imnav.errors import ConfigurationError, ContractError, InputError

DATA = Path(__file__).parent.parent / "src" / "imnav" / "data"


def result(success=True, ne=0.0, tl=1.0, shortest=1.0, eid=0):
    return ev.EpisodeResult(episode_id=eid, final_node=0, success=success, ne=ne,
                            tl=tl, shortest_len=shortest)


@pytest.fixture(scope="module")
def splits():
    library = wd.load_library(DATA / "landmarks.txt", d_v=16)
    templates = ins.load_templates(DATA / "templates.txt")
    lexicon = ins.load_lexicon(DATA / "lexicon_nouns.txt", DATA / "lexicon_blacklist.txt", library)
    return ds.standard_splits(library, templates, lexicon, train_n=4, val_seen_n=4,
                              val_unseen_n=4, data_seed=2)


@pytest.fixture(scope="module")
def small_agent(splits):
    cfg = ag.AgentConfig(vocab_size=len(splits["train"].vocab), d=32, heads=2, cross_layers=1)
    return ag.Agent(cfg, ag.init_params(cfg, seed=0))


class TestSuccess:
    """`evaluate` counts an episode as a success when its final node lies
    within `SUCCESS_RADIUS` of the goal, boundary included."""

    @staticmethod
    def stop_at(monkeypatch, splits, small_agent, final, radius):
        """The metrics of one episode whose rollout moves from the start to
        `final` and stops there, under a success radius of `radius`."""
        item = splits["val_seen"].items[0]
        monkeypatch.setattr(ag, "rollout", lambda *args, **kwargs: SimpleNamespace(
            visited=[item.episode.start, final]))
        monkeypatch.setattr(ev, "SUCCESS_RADIUS", radius)
        return ev.evaluate(small_agent, [item], "correct", seed=0)

    def test_at_goal(self, monkeypatch, splits, small_agent):
        goal = splits["val_seen"].items[0].episode.goal
        rec = self.stop_at(monkeypatch, splits, small_agent, goal, radius=0.0)
        assert rec.ne_mean == 0.0 and rec.sr == 1.0

    def test_boundary_inclusive(self, monkeypatch, splits, small_agent):
        ep = splits["val_seen"].items[0].episode
        ne = ev.navigation_error(ep.world, ep.start, ep.goal)
        assert ne > 0.0
        assert self.stop_at(monkeypatch, splits, small_agent, ep.start, radius=ne).sr == 1.0

    def test_just_outside(self, monkeypatch, splits, small_agent):
        ep = splits["val_seen"].items[0].episode
        ne = ev.navigation_error(ep.world, ep.start, ep.goal)
        rec = self.stop_at(monkeypatch, splits, small_agent, ep.start, radius=np.nextafter(ne, 0.0))
        assert rec.sr == 0.0 and rec.spl == 0.0


class TestSpl:
    def test_optimal_path(self):
        assert ev.spl([result(True, tl=10.0, shortest=10.0)]) == 1.0

    def test_failure_zero(self):
        assert ev.spl([result(False)]) == 0.0

    def test_two_episode_hand_value(self):
        rs = [result(True, tl=12.0, shortest=10.0), result(False)]
        assert abs(ev.spl(rs) - (10.0 / 12.0) / 2.0) < 1e-9

    def test_nonpositive_shortest_rejected(self):
        with pytest.raises(ContractError):
            ev.spl([result(True, shortest=0.0)])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            ev.spl([])


class TestDistances:
    def test_stop_at_goal_zero_ne(self, splits):
        w = splits["train"].items[0].episode.world
        assert ev.navigation_error(w, 3, 3) == 0.0

    def test_no_movement_zero_tl(self, splits):
        w = splits["train"].items[0].episode.world
        assert ev.trajectory_length(w, [0]) == 0.0

    def test_tl_matches_edge_sum_oracle(self, splits):
        ep = splits["train"].items[0].episode
        w = ep.world
        path = list(ep.teacher_path)
        want = sum(float(np.linalg.norm(w.positions[a] - w.positions[b]))
                   for a, b in zip(path[:-1], path[1:]))
        assert abs(ev.trajectory_length(w, path) - want) < 1e-12


class TestEvaluate:
    def test_deterministic(self, splits, small_agent):
        a = ev.evaluate(small_agent, splits["val_seen"].items, "correct", seed=3)
        b = ev.evaluate(small_agent, splits["val_seen"].items, "correct", seed=3)
        assert a == b

    def test_unknown_policy(self, splits, small_agent):
        with pytest.raises(ConfigurationError):
            ev.evaluate(small_agent, splits["val_seen"].items, "bogus", seed=0)

    def test_empty_dataset(self, small_agent):
        with pytest.raises(InputError):
            ev.evaluate(small_agent, [], "correct", seed=0)

    def test_null_equals_removed(self, splits, small_agent):
        nulled = ev.evaluate(small_agent, splits["val_seen"].items, "null", seed=1)
        stripped = [ds.EpisodeBundle(episode=i.episode, record=i.record, imaginations=[],
                                     token_ids=i.token_ids)
                    for i in splits["val_seen"].items]
        removed = ev.evaluate(small_agent, stripped, "correct", seed=1)
        assert nulled == removed

    def test_null_hands_over_no_imaginations(self, splits):
        sets = [i.imaginations for i in splits["val_seen"].items]
        assert all(sets)
        assert ev.apply_policy(sets, "null", seed=1) == [[] for _ in sets]

    def test_spl_bounded_by_sr(self, splits, small_agent):
        for policy in ("correct", "null", "wrong", "goal_only"):
            rec = ev.evaluate(small_agent, splits["val_unseen"].items, policy, seed=2)
            assert 0.0 <= rec.spl <= rec.sr <= 1.0

    def test_teacher_replay_oracle_is_perfect(self, splits):
        """An agent that replays teacher actions scores SR = SPL = 1."""
        items = splits["val_seen"].items
        results = []
        for i, item in enumerate(items):
            ep = item.episode
            path = list(ep.teacher_path)
            ne = ev.navigation_error(ep.world, path[-1], ep.goal)
            tl = ev.trajectory_length(ep.world, path)
            shortest = wd.shortest_path(ep.world, ep.start, ep.goal)[1]
            results.append(ev.EpisodeResult(episode_id=i, final_node=path[-1],
                                            success=ne <= 1.0, ne=ne, tl=tl,
                                            shortest_len=shortest))
        assert all(r.success for r in results)
        assert ev.spl(results) == 1.0

    def test_metrics_against_brute_force(self, splits, small_agent):
        """Aggregate metrics equal an independent recomputation from rollouts."""
        items = splits["val_unseen"].items
        rec = ev.evaluate(small_agent, items, "correct", seed=9)
        sets = ev.apply_policy([i.imaginations for i in items], "correct", 9)
        srs, spls, nes, tls = [], [], [], []
        import imnav.numcore as nc
        with nc.no_grad():
            for i, item in enumerate(items):
                rng = np.random.default_rng(np.random.SeedSequence([0xE7A1, 9, i]))
                traj = ag.rollout(small_agent, item.episode, item.token_ids,
                                  item.record.tokens, sets[i], "argmax",
                                  obs_rng=rng, kept_subs=item.record.kept)
                w = item.episode.world
                final = traj.visited[-1]
                ne = math.dist(w.positions[final], w.positions[item.episode.goal])
                tl = sum(math.dist(w.positions[a], w.positions[b])
                         for a, b in zip(traj.visited[:-1], traj.visited[1:]))
                shortest = wd.shortest_path(w, item.episode.start, item.episode.goal)[1]
                s = ne <= 1.0
                srs.append(s)
                spls.append(shortest / max(tl, shortest) if s else 0.0)
                nes.append(ne)
                tls.append(tl)
        assert abs(rec.sr - np.mean(srs)) < 1e-12
        assert abs(rec.spl - np.mean(spls)) < 1e-9
        assert abs(rec.ne_mean - np.mean(nes)) < 1e-9
        assert abs(rec.tl_mean - np.mean(tls)) < 1e-9

    def test_row_formatting(self, splits, small_agent):
        rec = ev.evaluate(small_agent, splits["val_seen"].items, "correct", seed=0)
        fields = ev.metrics_line(rec, "imagine").split("\t")
        assert len(fields) == len(ev.METRICS_COLUMNS)
        assert fields[0] == "val_seen" and fields[1] == "imagine"
        float(fields[2])  # SR percentage parses
