"""Per-core spike dispatch schedule.

A core updates its neurons in a fixed execution queue and transmits to each
destination core exactly once per timestep, at the position of that
destination's barrier neuron: the queue position after which no further local
neuron can contribute a spike for that destination.  The checking table binds
barrier neurons to the destinations they release.

The one form of "which local neurons feed a destination" is its connection
bitmap (bit ``i`` for local neuron ``i``), the same bitmap the packet
generator ANDs with the activation bitmap.
"""

from __future__ import annotations

Coord = tuple[int, int]


def iter_bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_checking_table(bitmaps: dict[Coord, int], local_count: int
                         ) -> tuple[list[int], dict[int, list[Coord]]]:
    """Derive (execution queue, checking table) from destination ->
    connection bitmap.

    Destinations are processed by ascending connected-set size (ties by
    row-major coordinate).  Each destination's not-yet-queued neurons are
    appended in ascending id and the destination binds to the last of them;
    if all its neurons are already queued it binds to the one deepest in the
    queue.  Every destination is bound exactly once and never before the
    queue covers its full connected set.  Neurons that feed no destination
    follow, ascending, so the queue holds every local neuron.
    """
    queue: list[int] = []
    pos: dict[int, int] = {}
    table: dict[int, list[Coord]] = {}
    queued = 0
    items = sorted(bitmaps.items(),
                   key=lambda kv: (kv[1].bit_count(), kv[0][1], kv[0][0]))
    for coord, mask in items:
        if not mask:
            continue
        fresh = mask & ~queued
        if fresh:
            for n in iter_bits(fresh):
                pos[n] = len(queue)
                queue.append(n)
            queued |= fresh
            table[queue[-1]] = [coord]
        else:
            barrier = max(iter_bits(mask), key=pos.__getitem__)
            table.setdefault(barrier, []).append(coord)
    queue += iter_bits(~queued & ((1 << local_count) - 1))
    return queue, table


def validate_schedule(queue: list[int], table: dict[int, list[Coord]],
                      bitmaps: dict[Coord, int], local_count: int) -> list[str]:
    """Structural checks; returns human-readable violations (empty if clean)."""
    violations = []
    pos: dict[int, int] = {}
    for i, n in enumerate(queue):
        if n in pos:
            violations.append(f"neuron {n} appears twice in the queue")
        else:
            pos[n] = i
    missing = [n for n in range(local_count) if n not in pos]
    if missing:
        violations.append(f"queue misses local neurons {missing}")
    stray = [n for n in pos if not (0 <= n < local_count)]
    if stray:
        violations.append(f"queue contains out-of-range neurons {stray}")

    for barrier in table:
        if barrier not in pos:
            violations.append(f"barrier neuron {barrier} not in the queue")

    seen: dict[Coord, int] = {}
    binding: dict[Coord, int] = {}
    for barrier, coords in table.items():
        for coord in coords:
            seen[coord] = seen.get(coord, 0) + 1
            binding[coord] = barrier
    for coord, mask in bitmaps.items():
        if not mask:
            continue
        n_bound = seen.pop(coord, 0)
        if n_bound != 1:
            violations.append(f"destination {coord} bound {n_bound} times")
    for coord in sorted(seen):
        violations.append(f"destination {coord} bound but not in the map")

    # barrier dominance: every contributor must be at or before the barrier
    for coord, mask in bitmaps.items():
        barrier = binding.get(coord)
        if barrier is None or barrier not in pos:
            continue
        bp = pos[barrier]
        late = [n for n in iter_bits(mask) if pos.get(n, -1) > bp]
        if late:
            violations.append(
                f"destination {coord}: neurons {late} update after barrier {barrier}")
    return violations
