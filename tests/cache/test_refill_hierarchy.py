"""Refill model tests."""

import pytest

from repro.cache import PAPER_PENALTIES, RefillModel
from repro.errors import ConfigurationError


class TestRefillModel:
    def test_paper_penalties_for_16w_block(self):
        # "miss penalties of 6, 10, and 18 cycles ... correspond to refill
        # rates of 4, 2 and 1 word per cycle plus a 2 cycle startup"
        assert RefillModel(2, 4).penalty_cycles(16) == 6
        assert RefillModel(2, 2).penalty_cycles(16) == 10
        assert RefillModel(2, 1).penalty_cycles(16) == 18
        assert PAPER_PENALTIES == (6, 10, 18)

    def test_small_block_cheaper(self):
        model = RefillModel(2, 2)
        assert model.penalty_cycles(4) < model.penalty_cycles(16)

    def test_ceil_division(self):
        assert RefillModel(2, 4).penalty_cycles(6) == 2 + 2

    def test_for_penalty_roundtrip(self):
        # A fractional refill rate still rounds the transfer up to whole
        # cycles: the rate that spreads a block over ``penalty - 2``
        # cycles gives back exactly that penalty.
        for penalty in PAPER_PENALTIES:
            for block in (4, 8, 16):
                model = RefillModel(2, block / (penalty - 2))
                assert model.penalty_cycles(block) == penalty

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            RefillModel(-1, 2)
        with pytest.raises(ConfigurationError):
            RefillModel(2, 0)
        with pytest.raises(ConfigurationError):
            RefillModel(2, 2).penalty_cycles(0)
