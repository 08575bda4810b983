"""Tests for repro.sim.clock."""

import time

import pytest

from repro.sim.clock import RealTimeClock, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_advance_moves_time(self):
        clock = VirtualClock()
        clock.advance_to(3.5)
        assert clock.now() == 3.5

    def test_advance_to_same_time_is_allowed(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        clock.advance_to(1.0)
        assert clock.now() == 1.0

    def test_advance_backwards_raises(self):
        clock = VirtualClock()
        clock.advance_to(2.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(1.0)

    def test_is_virtual(self):
        assert VirtualClock().is_virtual() is True


class TestRealClock:
    def test_starts_near_zero(self):
        clock = RealTimeClock()
        assert 0.0 <= clock.now() < 0.5

    def test_time_moves_forward(self):
        clock = RealTimeClock()
        first = clock.now()
        time.sleep(0.01)
        assert clock.now() > first

    def test_is_not_virtual(self):
        assert RealTimeClock().is_virtual() is False
