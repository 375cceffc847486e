"""Hilbert space-filling curve on a 2^order x 2^order grid.

The curve index is a bijection between grid cells and 0..4^order-1 in which
consecutive indices are always Manhattan-distance-1 neighbours, so sorting by
index preserves 2D locality.
"""

from __future__ import annotations


def hilbert_index(x: int, y: int, order: int) -> int:
    """Distance along the curve of cell (x, y); standard rotate-and-flip walk."""
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"({x}, {y}) outside {side}x{side} grid")
    d = 0
    s = side >> 1
    while s > 0:
        rx = 1 if x & s else 0
        ry = 1 if y & s else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def order_for(width: int, height: int) -> int:
    """Smallest curve order whose grid covers a width x height rectangle."""
    order = 0
    while (1 << order) < max(width, height):
        order += 1
    return order


def hilbert_cells(width: int, height: int) -> list[tuple[int, int]]:
    """All cells of the rectangle in curve order."""
    order = order_for(width, height)
    return sorted(((x, y) for y in range(height) for x in range(width)),
                  key=lambda c: hilbert_index(c[0], c[1], order))
