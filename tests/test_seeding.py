import numpy as np
import pytest

from steinpoisson.seeding import _SEED_BLOCK, _spawn_words, substream, substreams


class TestSeeding:
    """Sub-stream i of a seed is ``default_rng(SeedSequence(seed, spawn_key=(i,)))``."""

    SEEDS = (0, 1, 7, 20240901, 2**32, 2**64 - 1, 2**128 + 5)  # the last: five entropy words
    COUNT = 70_000
    INDICES = (0, 1, 4095, 65_536, COUNT - 1)

    @staticmethod
    def reference(seed, i):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))

    @staticmethod
    def draws(rng):
        return int(rng.integers(1, 13)), rng.random(6).tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words_in_bulk_equal_seed_sequence(self, seed):
        words = _spawn_words(seed)(0, self.COUNT)
        assert words.shape == (self.COUNT, 4) and words.dtype == np.uint64
        for i in self.INDICES:
            want = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
            assert words[i].tolist() == want.tolist(), i

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_equal_seed_sequence(self, seed):
        for i in self.INDICES:
            assert self.draws(substream(seed, i)) == self.draws(self.reference(seed, i)), i
        bulk = list(substreams(seed, 4096))  # seed words derived in blocks
        for i in (0, 1, _SEED_BLOCK - 1, _SEED_BLOCK, 4095):
            assert self.draws(bulk[i]) == self.draws(self.reference(seed, i)), i
        for i, rng in enumerate(substreams(seed, 2, start=65_536), start=65_536):
            assert self.draws(rng) == self.draws(self.reference(seed, i)), i
        last = next(substreams(seed, 1, start=2**32 - 1))
        assert self.draws(last) == self.draws(self.reference(seed, 2**32 - 1))

    def test_negative_seed_or_index_raises_seed_sequence_message(self):
        with pytest.raises(ValueError) as want:
            np.random.SeedSequence(-1, spawn_key=(0,))
        for call in (lambda: substream(-1, 0), lambda: substreams(-1, 3),
                     lambda: substream(1, -1), lambda: substreams(1, 3, start=-1)):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value) == "expected non-negative integer"

    def test_two_word_spawn_keys_are_refused(self):
        for call in (lambda: substream(1, 2**32), lambda: substreams(1, 2, start=2**32 - 1)):
            with pytest.raises(ValueError, match="below 2\\*\\*32"):
                call()
