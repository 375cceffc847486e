from hypothesis import given, settings, strategies as st

from spikenoc.schedule import build_checking_table, iter_bits, validate_schedule

A, B, C = (0, 0), (1, 0), (0, 1)


def bits(*neurons: int) -> int:
    """Connection bitmap with the given local neurons set."""
    return sum(1 << n for n in set(neurons))


class TestHandTraces:
    def test_overlapping_pair(self):
        # A sees {1, 2}, B sees {2, 3}: both sets are fresh in tie-broken
        # order (A first), so 1, 2 enter for A and 3 enters for B
        bitmaps = {A: bits(1, 2), B: bits(2, 3)}
        queue, table = build_checking_table(bitmaps, 4)
        assert queue == [1, 2, 3, 0]
        assert table == {2: [A], 3: [B]}
        assert validate_schedule(queue, table, bitmaps, 4) == []

    def test_subset_binds_to_deepest(self):
        # smallest set first: A {1} enters 1; B {1, 2} appends 2; C {1, 2}
        # has nothing fresh and binds to the deepest member, 2
        bitmaps = {A: bits(1), B: bits(1, 2), C: bits(1, 2)}
        queue, table = build_checking_table(bitmaps, 3)
        assert queue == [1, 2, 0]
        assert table == {1: [A], 2: [B, C]}
        assert validate_schedule(queue, table, bitmaps, 3) == []

    def test_size_ties_break_row_major(self):
        # same size: row-major order is (0,0), (1,0), (0,1)
        bitmaps = {C: bits(5), B: bits(4), A: bits(6)}
        queue, _ = build_checking_table(bitmaps, 7)
        assert queue[:3] == [6, 4, 5]

    def test_fresh_neurons_enter_ascending(self):
        queue, table = build_checking_table({A: bits(7, 2, 5)}, 8)
        assert queue[:3] == [2, 5, 7]
        assert table == {7: [A]}

    def test_empty_connected_set_skipped(self):
        queue, table = build_checking_table({A: 0}, 0)
        assert queue == [] and table == {}


class TestCompleteQueue:
    """The queue holds every local neuron: the unconnected ones follow the
    connected ones, ascending."""

    def test_appends_missing_ascending(self):
        queue, _ = build_checking_table({A: bits(3), B: bits(1, 3)}, 5)
        assert queue == [3, 1, 0, 2, 4]

    def test_noop_when_covered(self):
        queue, _ = build_checking_table({A: bits(1), B: bits(0, 1)}, 2)
        assert queue == [1, 0]

    def test_no_destinations(self):
        assert build_checking_table({}, 3) == ([0, 1, 2], {})


class TestValidator:
    def test_duplicate_queue_entry(self):
        bad = validate_schedule([1, 1], {}, {}, 2)
        assert any("twice" in v for v in bad)

    def test_missing_local(self):
        bad = validate_schedule([0], {}, {}, 3)
        assert any("misses" in v for v in bad)

    def test_out_of_range(self):
        bad = validate_schedule([0, 9], {}, {}, 2)
        assert any("out-of-range" in v for v in bad)

    def test_unbound_destination(self):
        bad = validate_schedule([1], {}, {A: bits(1)}, 2)
        assert any("bound 0 times" in v for v in bad)

    def test_double_bound_destination(self):
        bad = validate_schedule([0, 1], {0: [A], 1: [A]}, {A: bits(0, 1)}, 2)
        assert any("bound 2 times" in v for v in bad)

    def test_bound_but_unmapped(self):
        bad = validate_schedule([0], {0: [B]}, {}, 1)
        assert any("not in the map" in v for v in bad)

    def test_barrier_not_in_queue(self):
        bad = validate_schedule([0], {5: [A]}, {A: bits(0)}, 1)
        assert any("not in the queue" in v for v in bad)

    def test_contributor_after_barrier(self):
        # barrier at position 0 but neuron 1 (also connected) updates later
        bad = validate_schedule([0, 1], {0: [A]}, {A: bits(0, 1)}, 2)
        assert any("after barrier" in v for v in bad)


coord_st = st.tuples(st.integers(0, 5), st.integers(0, 5))


@st.composite
def dest_maps(draw):
    """(destination -> connection bitmap, local neuron count)."""
    local_count = draw(st.integers(1, 40))
    coords = draw(st.lists(coord_st, min_size=1, max_size=12, unique=True))
    return {c: bits(*draw(st.lists(st.integers(0, local_count - 1),
                                   max_size=local_count)))
            for c in coords}, local_count


def frozenset_schedule(dest_map, local_count):
    """The scheduler as it was written over destination -> frozenset of
    local neurons, with the queue completed afterwards."""
    queue, pos, table = [], {}, {}
    items = sorted(dest_map.items(),
                   key=lambda kv: (len(kv[1]), kv[0][1], kv[0][0]))
    for coord, neurons in items:
        if not neurons:
            continue
        fresh = sorted(n for n in neurons if n not in pos)
        if fresh:
            for n in fresh:
                pos[n] = len(queue)
                queue.append(n)
            table[queue[-1]] = [coord]
        else:
            barrier = max(neurons, key=lambda n: pos[n])
            table.setdefault(barrier, []).append(coord)
    return queue + [n for n in range(local_count) if n not in pos], table


@given(dest_maps())
@settings(max_examples=300, deadline=None)
def test_random_dest_maps_always_validate(case):
    bitmaps, local_count = case
    queue, table = build_checking_table(bitmaps, local_count)
    assert validate_schedule(queue, table, bitmaps, local_count) == []


@given(dest_maps())
@settings(max_examples=300, deadline=None)
def test_bitmap_schedule_equals_frozenset_schedule(case):
    bitmaps, local_count = case
    queue, table = build_checking_table(bitmaps, local_count)
    want_queue, want_table = frozenset_schedule(
        {c: frozenset(iter_bits(m)) for c, m in bitmaps.items()}, local_count)
    assert queue == want_queue
    assert list(table.items()) == list(want_table.items())


@given(dest_maps())
@settings(max_examples=100, deadline=None)
def test_queue_is_permutation(case):
    bitmaps, local_count = case
    queue, _ = build_checking_table(bitmaps, local_count)
    assert sorted(queue) == list(range(local_count))


@given(dest_maps())
@settings(max_examples=100, deadline=None)
def test_every_nonempty_destination_bound_exactly_once(case):
    bitmaps, local_count = case
    _, table = build_checking_table(bitmaps, local_count)
    bound = [c for coords in table.values() for c in coords]
    expected = [c for c, mask in bitmaps.items() if mask]
    assert sorted(bound) == sorted(expected)
