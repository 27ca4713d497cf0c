import re
from itertools import islice

import pytest

from galois_kit import (
    INF, BudgetExceededError, GaloisKitError, Meter, projection, satisfies_constraint,
    trivial_constraint,
)


class TestCounted:
    def test_exhausted_stream_charges_every_item(self):
        with Meter(10) as meter:
            assert list(meter.counted("items", "abc")) == ["a", "b", "c"]
        assert meter.done == {"items": 3}

    @pytest.mark.parametrize("j", [0, 1, 4])
    def test_dropped_stream_charges_what_was_taken(self, j):
        with Meter(10) as meter:
            stream = meter.counted("items", range(100))
            assert list(islice(stream, j)) == list(range(j))
            del stream
        assert meter.done == ({"items": j} if j else {})

    def test_broken_loop_charges_what_was_taken(self):
        with Meter(10) as meter:
            for item in meter.counted("items", range(100)):
                if item == 2:
                    break
        assert meter.done == {"items": 3}

    def test_refused_stream_charges_once(self):
        with Meter(5) as meter:
            meter.charge("items", 2)
            stream = meter.counted("items", range(100))
            assert list(islice(stream, 3)) == [0, 1, 2]
            with pytest.raises(BudgetExceededError) as info:
                next(stream)
            stream.close()
        error = info.value
        assert (error.phase, error.done, error.budget) == ("items", 6, 5)
        assert error.__context__ is None  # no second refusal from the cleanup
        assert meter.done == {"items": 6}

    def test_stream_after_a_refusal_refuses_at_once(self):
        with Meter(1) as meter:
            with pytest.raises(BudgetExceededError):
                meter.charge("items", 3)
            with pytest.raises(BudgetExceededError) as info:
                next(meter.counted("items", range(100)))
        assert info.value.done == 4
        assert meter.done == {"items": 4}

    def test_streams_of_other_phases_are_independent(self):
        with Meter(4) as meter:
            for _ in meter.counted("outer", range(2)):
                assert list(meter.counted("inner", range(2))) == [0, 1]
        assert meter.done == {"outer": 2, "inner": 4}


class TestRoom:
    @pytest.mark.parametrize("budget, room", [(5, 3), (2, 0), (1, 0), (INF, INF)])
    def test_room_is_the_whole_steps_left(self, budget, room):
        with Meter(budget) as meter:
            try:
                meter.charge("items", 2)
            except BudgetExceededError:
                pass
            assert meter.room("items") == room
            assert meter.room("other") == budget

    def test_refuse_charges_one_past_the_room(self):
        with Meter(5) as meter:
            meter.charge("items", 2)
            with pytest.raises(BudgetExceededError) as info:
                meter.refuse("items", meter.room("items"))
        assert info.value.done == 6
        assert meter.done == {"items": 6}


class TestBudget:
    @pytest.mark.parametrize("budget", [
        None, "5", float("nan"), True, False, -5, 2.5, 10.0, -INF, [5]])
    def test_a_budget_that_is_no_nonnegative_int_nor_inf_is_refused_by_name(self, budget):
        with pytest.raises(GaloisKitError) as info:
            Meter(budget)
        assert type(info.value) is GaloisKitError
        assert str(info.value) == f"budget must be a nonnegative int or inf, not {budget!r}"

    @pytest.mark.parametrize("budget", [0, 7, 10 ** 30, INF])
    def test_a_nonnegative_int_or_inf_is_taken(self, budget):
        with Meter(budget) as meter:
            assert meter.budget == budget
            assert meter.room("items") == budget

    def test_a_refused_budget_opens_no_meter(self):
        c, f = trivial_constraint(1, 2), projection(3, 1, 2)
        with pytest.raises(GaloisKitError, match=re.escape("not 2.5")):
            with Meter(2.5):
                pass
        assert satisfies_constraint(f, c)  # at the default budget


class TestChargeKept:
    def test_steps_that_fit_are_charged_and_a_phase_of_0_stays_out(self):
        with Meter(5) as meter:
            meter.charge("a", 2)
            assert meter.charge_kept({"a": 3, "b": 0, "c": 5})
        assert meter.done == {"a": 5, "c": 5}

    @pytest.mark.parametrize("steps", [{"a": 4, "b": 1}, {"b": 1, "a": 4}, {"a": 0, "b": 6}])
    def test_steps_that_do_not_all_fit_charge_nothing(self, steps):
        with Meter(5) as meter:
            meter.charge("a", 2)
            assert not meter.charge_kept(steps)
        assert meter.done == {"a": 2}

    def test_a_phase_of_0_past_the_budget_does_not_fit(self):
        # as a cold run would: its check reads the phase's count so far
        with Meter(1) as meter:
            with pytest.raises(BudgetExceededError):
                meter.charge("a", 2)
            assert not meter.charge_kept({"a": 0})
            assert meter.charge_kept({"b": 1})
        assert meter.done == {"a": 2, "b": 1}


class TestOpening:
    def test_inner_meter_joins_the_open_one(self):
        with Meter(10) as outer:
            with Meter(1) as inner:
                assert inner is outer
                inner.charge("steps", 5)  # past 1, within 10
        assert outer.done == {"steps": 5}

    def test_meter_entered_twice_closes_with_its_outer_block(self):
        c, f = trivial_constraint(1, 2), projection(3, 1, 2)
        meter = Meter(5)
        with meter:
            with meter:
                pass
            with pytest.raises(BudgetExceededError):
                satisfies_constraint(f, c)  # 8 matrices, still inside the meter
        assert satisfies_constraint(f, c)  # at the default budget again

    def test_meter_closes_with_its_block(self):
        c, f = trivial_constraint(1, 2), projection(3, 1, 2)
        with Meter(5):
            pass
        assert satisfies_constraint(f, c)  # at the default budget again

    def test_huge_power_is_named_not_built(self):
        with pytest.raises(BudgetExceededError) as info, Meter(10) as meter:
            meter.charge("tables", 3)
            meter.charge_power("tables", 7, 10 ** 9, 10 ** 9)
        assert str(info.value) == (
            f"refusing tables: 3 + {10 ** 9} * 7^{10 ** 9} steps exceed budget 10")
