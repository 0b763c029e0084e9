"""Direction predictors: counters, bimodal, gshare, hybrid."""

import pytest

from repro.branch.counters import CounterTable
from repro.branch.predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GSharePredictor,
    HybridPredictor,
    make_direction_predictor,
)


class TestSaturatingCounter:
    """One 2-bit slot of a :class:`CounterTable`."""

    def test_initial_weakly_taken(self):
        assert CounterTable(1).predict(0)

    def test_saturates_high(self):
        counter = CounterTable(1)
        for _ in range(10):
            counter.update(0, True)
        counter.update(0, False)
        assert counter.predict(0)  # 3 -> 2: saturated at 3, not above
        counter.update(0, False)
        assert not counter.predict(0)

    def test_saturates_low(self):
        counter = CounterTable(1)
        for _ in range(10):
            counter.update(0, False)
        assert not counter.predict(0)
        counter.update(0, True)
        assert not counter.predict(0)  # 0 -> 1: saturated at 0
        counter.update(0, True)
        assert counter.predict(0)

    def test_hysteresis(self):
        counter = CounterTable(1, initial=3)
        counter.update(0, False)
        assert counter.predict(0)  # one not-taken does not flip a strong state

    def test_rejects_bad_init(self):
        with pytest.raises(ValueError):
            CounterTable(1, bits=2, initial=9)


class TestCounterTable:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            CounterTable(100)

    def test_trains_per_slot(self):
        table = CounterTable(4)
        table.update(0, False)
        table.update(0, False)
        assert not table.predict(0)
        assert table.predict(1)

    def test_aliasing_wraps(self):
        table = CounterTable(4)
        for _ in range(2):
            table.update(0, False)
        assert not table.predict(4)  # same slot as key 0


class TestBimodal:
    def test_learns_bias(self):
        predictor = BimodalPredictor(64)
        for _ in range(4):
            predictor.update(0x100, False)
        assert not predictor.predict(0x100)

    def test_per_pc_independence(self):
        predictor = BimodalPredictor(1024)
        for _ in range(4):
            predictor.update(0x100, False)
        assert predictor.predict(0x104) != predictor.predict(0x100) or \
            predictor.predict(0x104)


class TestGShare:
    def test_history_advances_on_update(self):
        predictor = GSharePredictor(64, history_bits=4)
        predictor.update(0x100, True)
        assert predictor.history == 1
        predictor.update(0x100, False)
        assert predictor.history == 2

    def test_history_bounded(self):
        predictor = GSharePredictor(64, history_bits=4)
        for _ in range(32):
            predictor.update(0x100, True)
        assert predictor.history == 0b1111

    def test_learns_alternating_pattern(self):
        # gshare can learn T,N,T,N... via history; bimodal cannot.
        predictor = GSharePredictor(1024, history_bits=8)
        outcome = True
        for _ in range(200):
            predictor.update(0x40, outcome)
            outcome = not outcome
        correct = 0
        for _ in range(100):
            if predictor.predict(0x40) == outcome:
                correct += 1
            predictor.update(0x40, outcome)
            outcome = not outcome
        assert correct > 90


class TestHybrid:
    def test_chooser_prefers_better_component(self):
        # An alternating branch is learnable by gshare but not bimodal;
        # the trained hybrid must track it, proving the chooser works.
        predictor = HybridPredictor()
        outcome = True
        for _ in range(400):
            predictor.update(0x80, outcome)
            outcome = not outcome
        correct = 0
        for _ in range(100):
            if predictor.predict(0x80) == outcome:
                correct += 1
            predictor.update(0x80, outcome)
            outcome = not outcome
        assert correct > 80

    def test_biased_branch_accuracy(self):
        predictor = HybridPredictor()
        for _ in range(50):
            predictor.update(0x200, True)
        assert predictor.predict(0x200)


class TestFactory:
    @pytest.mark.parametrize("name", ["hybrid", "gshare", "bimodal",
                                      "always_taken"])
    def test_makes_each(self, name):
        predictor = make_direction_predictor(name)
        assert isinstance(predictor.predict(0x100), bool)

    def test_always_taken(self):
        predictor = AlwaysTakenPredictor()
        predictor.update(0, False)
        assert predictor.predict(0)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_direction_predictor("tage")
