"""Tests for repro.utils.rng."""

import numpy as np

from repro.utils.rng import SeedSequencer, default_rng


class TestDefaultRng:
    def test_seeded_generators_reproduce(self):
        a = default_rng(42).random(5)
        b = default_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(default_rng(1).random(5), default_rng(2).random(5))


class TestSeedSequencer:
    def test_same_name_same_stream(self):
        seq = SeedSequencer(1)
        a = seq.get("crowd").random(5)
        b = SeedSequencer(1).get("crowd").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        seq = SeedSequencer(1)
        assert not np.array_equal(
            seq.get("crowd").random(5), seq.get("models").random(5)
        )

    def test_independent_of_request_order(self):
        seq1 = SeedSequencer(3)
        seq1.get("a")
        b_first = seq1.get("b").random(4)
        seq2 = SeedSequencer(3)
        b_only = seq2.get("b").random(4)
        np.testing.assert_array_equal(b_first, b_only)

    def test_different_root_seeds_differ(self):
        a = SeedSequencer(1).get("x").random(5)
        b = SeedSequencer(2).get("x").random(5)
        assert not np.array_equal(a, b)

    def test_issued_records_names(self):
        seq = SeedSequencer(0)
        seq.get("alpha")
        seq.get("beta")
        assert set(seq.issued()) == {"alpha", "beta"}

    def test_root_seed_property(self):
        assert SeedSequencer(99).root_seed == 99
