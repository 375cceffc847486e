import pytest

from spikenoc.hilbert import hilbert_cells, hilbert_index, order_for


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_bijection(order):
    # the square's cells sorted by curve index take every index exactly once
    side = 1 << order
    cells = hilbert_cells(side, side)
    assert sorted(cells) == [(x, y) for x in range(side) for y in range(side)]
    assert [hilbert_index(x, y, order) for x, y in cells] == \
        list(range(side * side))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_consecutive_indices_are_grid_neighbours(order):
    side = 1 << order
    cells = hilbert_cells(side, side)
    for prev, cur in zip(cells, cells[1:]):
        assert abs(cur[0] - prev[0]) + abs(cur[1] - prev[1]) == 1


def test_order_one_walk():
    # the four cells of the 2x2 curve, in walk order
    assert hilbert_cells(2, 2) == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_bounds_checked():
    with pytest.raises(ValueError):
        hilbert_index(4, 0, 2)
    with pytest.raises(ValueError):
        hilbert_index(0, -1, 2)


def test_order_for_covers_rectangle():
    assert order_for(1, 1) == 0
    assert order_for(2, 2) == 1
    assert order_for(3, 2) == 2
    assert order_for(4, 4) == 2
    assert order_for(5, 4) == 3


@pytest.mark.parametrize("w,h", [(1, 1), (3, 2), (4, 4), (5, 3), (8, 8), (7, 5)])
def test_cells_cover_rectangle_once(w, h):
    cells = hilbert_cells(w, h)
    assert len(cells) == w * h
    assert len(set(cells)) == w * h
    assert all(0 <= x < w and 0 <= y < h for x, y in cells)


def test_cells_order_is_curve_order():
    cells = hilbert_cells(4, 4)
    indices = [hilbert_index(x, y, 2) for x, y in cells]
    assert indices == sorted(indices)
