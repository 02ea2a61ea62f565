"""The typed loader on small local dataclasses: type rules, the rejection
of infinite floats and of ints too large for a float, and the `min`/`max`
bounds that `check_bounds` reads from field metadata."""

from dataclasses import dataclass, field

import pytest

from gmemsim.loader import check_bounds, from_dict


@dataclass(frozen=True)
class Inner:
    fraction: float = field(default=0.5, metadata={"min": 0, "max": 1})


@dataclass(frozen=True)
class Outer:
    count: int = field(default=1, metadata={"min": 1})
    pair: tuple[int, int] = field(default=(1, 1), metadata={"min": 0})
    cap: int | None = field(default=None, metadata={"max": 9})
    flag: bool = True
    inner: Inner = field(default_factory=Inner)
    items: tuple[Inner, ...] = ()


@dataclass(frozen=True)
class Holder:
    inner: Inner


def test_a_required_nested_field_loads_with_no_base():
    # with no base and no default, the nested object is laid over nothing
    assert from_dict(Holder, {"inner": {"fraction": 0.25}}, "holder") \
        == Holder(Inner(0.25))
    assert from_dict(Holder, {"inner": {}}, "holder") == Holder(Inner())
    with pytest.raises(ValueError, match=r"^holder\.inner is required$"):
        from_dict(Holder, {}, "holder")


def test_an_int_is_not_a_bool():
    assert from_dict(Outer, {"flag": False}, "outer").flag is False
    with pytest.raises(ValueError, match=r"^outer\.flag must be bool, not 1$"):
        from_dict(Outer, {"flag": 1}, "outer")


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), 10**400])
def test_an_infinite_float_is_rejected_where_it_is_loaded(value):
    with pytest.raises(ValueError) as err:
        from_dict(Inner, {"fraction": value}, "inner")
    assert str(err.value) == f"inner.fraction must be finite, not {value!r}"


def test_values_on_their_bounds_and_none_pass():
    check_bounds(Outer(count=1, pair=(0, 0), cap=9,
                       inner=Inner(0), items=(Inner(1),)), "outer")
    check_bounds(Outer(cap=None), "outer")


@pytest.mark.parametrize("obj, message", [
    (Outer(count=0), "outer.count must be >= 1, not 0"),
    (Outer(pair=(0, -1)), "outer.pair[1] must be >= 0, not -1"),
    (Outer(cap=10), "outer.cap must be <= 9, not 10"),
    (Outer(inner=Inner(-0.5)), "outer.inner.fraction must be >= 0, not -0.5"),
    (Outer(items=(Inner(), Inner(1.5))),
     "outer.items[1].fraction must be <= 1, not 1.5"),
    (Outer(inner=Inner(float("nan"))),
     "outer.inner.fraction must be >= 0, not nan"),
    (Outer(items=(Inner(float("nan")),)),
     "outer.items[0].fraction must be >= 0, not nan"),
])
def test_a_value_outside_its_bound_names_its_path(obj, message):
    with pytest.raises(ValueError) as err:
        check_bounds(obj, "outer")
    assert str(err.value) == message
