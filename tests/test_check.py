"""The one verdict record: value <= limit, up to a relative CHECK_SLACK."""

import dataclasses
import math

import pytest

from ratelab import Check
from ratelab.errors import CHECK_SLACK


@pytest.mark.parametrize("limit", [1.0, 0.3, 2.5e-7, 4096.0])
def test_the_slack_edge_passes_and_the_next_float_fails(limit):
    edge = limit * (1 + CHECK_SLACK)
    assert Check("edge", edge, limit).passed
    assert not Check("above", math.nextafter(edge, math.inf), limit).passed


@pytest.mark.parametrize("limit", [1.0, 0.0, math.inf])
def test_a_nan_value_fails(limit):
    assert not Check("nan", math.nan, limit).passed


@pytest.mark.parametrize("value", [0.0, 1e308, math.inf])
def test_an_infinite_limit_passes(value):
    assert Check("ceiling", value, math.inf).passed


def test_a_floor_is_checked_as_floor_below_observation():
    assert Check("floor", 0.4, 0.5).passed
    assert not Check("floor", 0.5, 0.4).passed


def test_a_check_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        Check("c", 1.0, 2.0).value = 3.0
