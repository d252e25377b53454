from pathlib import Path

import numpy as np
import pytest

from imnav import imagination as im
from imnav import instructions as ins
from imnav import world as wd
from imnav.errors import ConfigurationError, ContractError, InputError

DATA = Path(__file__).parent.parent / "src" / "imnav" / "data"


@pytest.fixture(scope="module")
def library():
    return wd.load_library(DATA / "landmarks.txt", d_v=16)


@pytest.fixture(scope="module")
def lexicon(library):
    return ins.load_lexicon(DATA / "lexicon_nouns.txt", DATA / "lexicon_blacklist.txt", library)


@pytest.fixture(scope="module")
def corpus(library, lexicon):
    templates = ins.load_templates(DATA / "templates.txt")
    worlds = [wd.generate_world(wd.WorldConfig(library=library, layout="forks"), seed=s)
              for s in range(25)]
    eps = [wd.sample_episode(w) for w in worlds]
    return ins.build_corpus(eps, templates, lexicon, seed=3)


def kept_sub(cls_id, index=0):
    sub = ins.SubInstruction(index=index, span=(0, 3), tokens=("walk", "past", "x"))
    sub.filter_verdict = "kept"
    sub.landmark_class = cls_id
    return sub


class TestImagine:
    def test_degenerate_oracle_is_exact_prototype(self, library):
        cfg = im.ImaginationConfig(sigma_gen=0.0, fidelity=1.0)
        pool_table = next(c for c in library.classes if c.text == "pool table")
        out = im.imagine(kept_sub(pool_table.id), library, cfg, np.random.default_rng(0))
        assert np.array_equal(out.feature, pool_table.prototype)
        assert not out.corrupted

    def test_fidelity_zero_two_class_library(self):
        lib = wd.build_library(["sofa", "piano"], [False, False], d_v=8)
        cfg = im.ImaginationConfig(sigma_gen=0.0, fidelity=0.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = im.imagine(kept_sub(0), lib, cfg, rng)
            assert out.emitted_class == 1 and out.corrupted

    def test_corrupted_fraction_monte_carlo(self, library):
        cfg = im.ImaginationConfig(sigma_gen=0.0, fidelity=0.95)
        rng = np.random.default_rng(7)
        n = 10000
        corrupted = sum(im.imagine(kept_sub(3), library, cfg, rng).corrupted for _ in range(n))
        assert abs(corrupted / n - 0.05) < 0.01

    def test_rejects_unkept_sub(self, library):
        sub = ins.SubInstruction(index=0, span=(0, 2), tokens=("turn", "left"))
        sub.filter_verdict = "blacklisted"
        with pytest.raises(ContractError):
            im.imagine(sub, library, im.ImaginationConfig(), np.random.default_rng(0))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            im.ImaginationConfig(fidelity=1.5)
        with pytest.raises(ConfigurationError):
            im.ImaginationConfig(sigma_gen=-0.1)


class TestImagineDataset:
    def test_one_per_kept_sub(self, corpus, library):
        sets = im.imagine_dataset(corpus, library, im.ImaginationConfig(), seed=0)
        assert len(sets) == len(corpus)
        for group, rec in zip(sets, corpus):
            assert len(group) == len(rec.kept)
        total = sum(len(g) for g in sets)
        assert total == sum(len(r.kept) for r in corpus)

    def test_deterministic(self, corpus, library):
        a = im.imagine_dataset(corpus, library, im.ImaginationConfig(), seed=4)
        b = im.imagine_dataset(corpus, library, im.ImaginationConfig(), seed=4)
        for ga, gb in zip(a, b):
            for x, y in zip(ga, gb):
                assert np.array_equal(x.feature, y.feature)
                assert x.emitted_class == y.emitted_class

    def test_no_kept_segments_gives_empty_list(self, library, lexicon):
        rec = ins.build_record(tuple("go straight . turn left .".split()), (None, None), lexicon)
        sets = im.imagine_dataset([rec], library, im.ImaginationConfig(), seed=0)
        assert sets == [[]]


class TestGoalOnly:
    def test_three_to_last(self):
        assert im.goal_only([1, 2, 3]) == [3]

    def test_singleton_identity(self):
        assert im.goal_only([7]) == [7]

    def test_empty(self):
        assert im.goal_only([]) == []


class TestShuffleWrong:
    def _sets(self, library, n):
        cfg = im.ImaginationConfig(sigma_gen=0.0, fidelity=1.0)
        rng = np.random.default_rng(0)
        return [[im.imagine(kept_sub(i % 10, index=j), library, cfg, rng) for j in range(2)]
                for i in range(n)]

    def test_two_instructions_swap(self, library):
        sets = self._sets(library, 2)
        out = im.shuffle_wrong(sets, seed=0)
        assert out[0] == sets[1] and out[1] == sets[0]

    def test_derangement_no_fixed_points(self, library):
        sets = self._sets(library, 5)
        out = im.shuffle_wrong(sets, seed=3)
        # independent fixed-point check on object identity
        fixed = sum(1 for a, b in zip(sets, out)
                    if len(a) == len(b) and all(x is y for x, y in zip(a, b)))
        assert fixed == 0

    def test_multiset_preserved(self, library):
        sets = self._sets(library, 7)
        out = im.shuffle_wrong(sets, seed=1)
        def key(group):
            return tuple(sorted((g.true_class, g.emitted_class, g.feature.tobytes()) for g in group))
        assert sorted(key(g) for g in sets) == sorted(key(g) for g in out)

    def test_empty_groups_keep_empty(self, library):
        sets = self._sets(library, 4)
        sets.insert(2, [])
        out = im.shuffle_wrong(sets, seed=2)
        assert out[2] == []

    def test_too_few_eligible(self, library):
        sets = [self._sets(library, 1)[0], []]
        with pytest.raises(InputError):
            im.shuffle_wrong(sets, seed=0)
