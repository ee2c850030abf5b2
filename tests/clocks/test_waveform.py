"""Unit tests for ClockWaveform."""

from fractions import Fraction

import pytest

from repro.clocks import ClockWaveform, as_time


class TestAsTime:
    def test_int_exact(self):
        assert as_time(25) == Fraction(25)

    def test_float_snaps_to_decimal(self):
        assert as_time(0.1) == Fraction(1, 10)

    def test_string(self):
        assert as_time("12.5") == Fraction(25, 2)

    def test_fraction_passthrough(self):
        f = Fraction(7, 3)
        assert as_time(f) is f

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_time([1])

    @pytest.mark.parametrize("value", ["1/0", "0/0", "-3/0"])
    def test_zero_denominator_is_a_value_error(self, value):
        with pytest.raises(ValueError, match="zero denominator.*/0"):
            as_time(value)


class TestClockWaveform:
    def test_basic_construction(self):
        w = ClockWaveform("phi", 100, 10, 60)
        assert w.period == 100
        assert w.leading == 10
        assert w.trailing == 60
        assert w.width == 50

    def test_trailing_may_wrap(self):
        w = ClockWaveform("phi", 100, 80, 20)
        assert w.trailing == 120
        assert w.width == 40
        assert w.trailing_mod() == 20

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            ClockWaveform("phi", 0, 0, 1)

    def test_rejects_leading_outside_period(self):
        with pytest.raises(ValueError):
            ClockWaveform("phi", 100, 100, 120)

    def test_rejects_full_period_pulse(self):
        with pytest.raises(ValueError):
            ClockWaveform("phi", 100, 0, 100)

    def test_is_high_inside_pulse(self):
        w = ClockWaveform("phi", 100, 10, 60)
        assert w.is_high(10)
        assert w.is_high(59)
        assert not w.is_high(60)
        assert not w.is_high(5)

    def test_is_high_periodicity(self):
        w = ClockWaveform("phi", 100, 10, 60)
        assert w.is_high(110)
        assert not w.is_high(170)

    def test_is_high_wrapping_pulse(self):
        w = ClockWaveform("phi", 100, 80, 20)
        assert w.is_high(90)
        assert w.is_high(10)
        assert not w.is_high(50)

    def test_shifted_moves_both_edges(self):
        w = ClockWaveform("phi", 100, 10, 60).shifted(15)
        assert w.leading == 25
        assert w.trailing == 75
        assert w.width == 50

    def test_shifted_wraps(self):
        w = ClockWaveform("phi", 100, 50, 90).shifted(60)
        assert w.leading == 10
        assert w.width == 40

    def test_with_width(self):
        w = ClockWaveform("phi", 100, 10, 60).with_width(20)
        assert w.leading == 10
        assert w.trailing == 30

    @pytest.mark.parametrize("width", [-1, -5, -11.5, 0, 12, 13])
    def test_with_width_outside_the_period_is_rejected(self, width):
        """A negative width is not wrapped round the period."""
        with pytest.raises(ValueError, match="'phi1'"):
            ClockWaveform("phi1", 12, 0, 5).with_width(width)

    def test_exact_decimal_arithmetic(self):
        w = ClockWaveform("phi", 0.3, 0.1, 0.2)
        assert w.width == Fraction(1, 10)
