from __future__ import annotations

import random

import pytest

from spidergather.generators import gen_arrears
from spidergather.model import MalformedInstanceError


# Budget limits are distinct values in 0..duties * max_amount, so there can be
# at most duties * max_amount + 1 budgets; the size checks refuse more before
# any draw, as they refuse too small day and amount bounds.
@pytest.mark.parametrize(
    "duties, budgets, max_amount", [(0, 2, 8), (1, 4, 2), (2, 6, 2)]
)
def test_gen_arrears_refuses_more_budgets_than_limits(duties, budgets, max_amount):
    with pytest.raises(MalformedInstanceError, match="more budgets than limits"):
        gen_arrears(random.Random(0), duties=duties, budgets=budgets, max_amount=max_amount)


def test_gen_arrears_takes_every_limit_at_the_bound():
    inst = gen_arrears(random.Random(0), duties=1, budgets=3, max_amount=2)
    assert [q for _, q in inst.budgets] == [0, 1, 2]
