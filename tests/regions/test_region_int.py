"""A region is an ``int`` whose value is its uid.

Equality and hashing are ``int``'s own, run in C: the class defines no
``__eq__``/``__hash__`` of its own, and the value semantics by uid that
fresh region generation relies on hold unchanged.
"""

from repro.regions import HEAP, NULL_REGION, Region


def test_region_defines_no_python_level_equality_or_hash():
    assert "__eq__" not in Region.__dict__
    assert "__hash__" not in Region.__dict__
    assert Region.__eq__ is int.__eq__
    assert Region.__hash__ is int.__hash__


def test_value_is_the_uid():
    r = Region.fresh("q")
    assert isinstance(r, int) and int(r) == r.uid
    assert type(r.uid) is int
    assert hash(r) == hash(r.uid)
    assert hash(NULL_REGION) == hash(-1)


def test_regions_with_one_uid_are_equal_whatever_their_names():
    r = Region.fresh()
    twin = Region("another-name", "var", r.uid)
    assert twin == r and hash(twin) == hash(r)
    assert len({r, twin}) == 1
    assert Region.fresh() != r


def test_every_region_is_truthy():
    assert HEAP.uid == 0 and bool(HEAP)
    assert bool(NULL_REGION) and bool(Region.fresh())


def test_str_and_format_give_the_name():
    r = Region.fresh("rl")
    assert str(r) == f"{r}" == "%s" % r == f"rl{r.uid}"


def test_set_iteration_order_is_the_uid_order():
    regions = [Region.fresh() for _ in range(50)] + [HEAP, NULL_REGION]
    assert [int(r) for r in set(regions)] == list(set(int(r) for r in regions))

