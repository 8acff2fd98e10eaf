"""Space-filling curves: Z-order (Morton) and Hilbert.

Squid maps multi-attribute values to Chord keys with a Hilbert curve; SCRAP
and DCF-CAN use Z-order/dyadic mappings.  Both curves are implemented over
integer grids of ``2**order`` cells per dimension.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def morton_encode(coordinates: Sequence[int], order: int) -> int:
    """Interleave the bits of the coordinates (first coordinate = highest bit).

    >>> morton_encode([0b11, 0b00], 2)
    10
    """
    dimensions = len(coordinates)
    if dimensions == 0:
        raise ValueError("need at least one coordinate")
    for coordinate in coordinates:
        if not 0 <= coordinate < (1 << order):
            raise ValueError(f"coordinate {coordinate} outside [0, 2**{order})")
    result = 0
    for bit in range(order - 1, -1, -1):
        for coordinate in coordinates:
            result = (result << 1) | ((coordinate >> bit) & 1)
    return result


def morton_decode(index: int, dimensions: int, order: int) -> Tuple[int, ...]:
    """Inverse of :func:`morton_encode`."""
    if not 0 <= index < (1 << (order * dimensions)):
        raise ValueError(f"index {index} outside the {dimensions}-d order-{order} grid")
    coordinates = [0] * dimensions
    position = order * dimensions - 1
    for bit in range(order - 1, -1, -1):
        for dim in range(dimensions):
            coordinates[dim] |= ((index >> position) & 1) << bit
            position -= 1
    return tuple(coordinates)


def hilbert_xy2d(order: int, x: int, y: int) -> int:
    """Distance along the 2-d Hilbert curve of the cell ``(x, y)``."""
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"({x}, {y}) outside the order-{order} grid")
    rx = ry = 0
    distance = 0
    s = side // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        distance += s * s * ((3 * rx) ^ ry)
        x, y = _hilbert_rotate(s, x, y, rx, ry)
        s //= 2
    return distance


def hilbert_d2xy(order: int, distance: int) -> Tuple[int, int]:
    """Cell ``(x, y)`` at the given distance along the 2-d Hilbert curve."""
    side = 1 << order
    if not 0 <= distance < side * side:
        raise ValueError(f"distance {distance} outside the order-{order} curve")
    x = y = 0
    t = distance
    s = 1
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        x, y = _hilbert_rotate(s, x, y, rx, ry)
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def _hilbert_rotate(s: int, x: int, y: int, rx: int, ry: int) -> Tuple[int, int]:
    """Rotate/flip the quadrant as required by the Hilbert construction."""
    if ry == 0:
        if rx == 1:
            x = s - 1 - x
            y = s - 1 - y
        x, y = y, x
    return x, y


def value_to_cell(value: float, order: int) -> int:
    """Map a normalised value in ``[0, 1)`` to a grid cell index."""
    cell = int(value * (1 << order))
    return min(max(cell, 0), (1 << order) - 1)


def query_box_to_curve_ranges(
    lows: Sequence[float],
    highs: Sequence[float],
    order: int,
    curve: str = "morton",
    max_ranges: int = 64,
) -> List[Tuple[int, int]]:
    """Contiguous curve-index ranges covering an axis-aligned query box.

    The box (normalised coordinates in ``[0, 1)``) is decomposed recursively
    into dyadic cells: cells fully inside the box contribute their whole
    curve range, partially covered cells are refined until the range budget
    ``max_ranges`` is met, after which partial cells are included whole
    (a superset, which is what Squid/SCRAP do when they bound cluster
    counts).  Adjacent ranges are merged before returning.
    """
    if curve not in ("morton", "hilbert"):
        raise ValueError(f"unknown curve {curve!r}")
    dimensions = len(lows)
    if curve == "hilbert" and dimensions != 2:
        raise ValueError("the Hilbert mapping is implemented for 2 dimensions")

    cell_low = [value_to_cell(low, order) for low in lows]
    cell_high = [value_to_cell(high, order) for high in highs]

    ranges: List[Tuple[int, int]] = []
    if curve == "morton":
        _morton_ranges(cell_low, cell_high, order, ranges, max_ranges)
    else:
        for x in range(cell_low[0], cell_high[0] + 1):
            for y in range(cell_low[1], cell_high[1] + 1):
                index = hilbert_xy2d(order, x, y)
                ranges.append((index, index))
    return merge_ranges(ranges)


def _morton_ranges(
    cell_low: Sequence[int],
    cell_high: Sequence[int],
    order: int,
    out: List[Tuple[int, int]],
    max_ranges: int,
    prefix: int = 0,
    depth: int = 0,
) -> None:
    """Recursive dyadic decomposition for the Morton curve."""
    dimensions = len(cell_low)
    total_bits = order * dimensions
    span = 1 << (total_bits - depth)
    start = prefix << (total_bits - depth)
    end = start + span - 1

    node_low = morton_decode(start, dimensions, order)
    node_high = morton_decode(end, dimensions, order)
    # Disjoint from the query box?
    for dim in range(dimensions):
        if node_high[dim] < cell_low[dim] or node_low[dim] > cell_high[dim]:
            return
    # Fully contained, at the leaf level, or out of refinement budget?
    contained = all(
        cell_low[dim] <= node_low[dim] and node_high[dim] <= cell_high[dim]
        for dim in range(dimensions)
    )
    if contained or depth >= total_bits or len(out) >= max_ranges:
        out.append((start, end))
        return
    _morton_ranges(cell_low, cell_high, order, out, max_ranges, prefix * 2, depth + 1)
    _morton_ranges(cell_low, cell_high, order, out, max_ranges, prefix * 2 + 1, depth + 1)


def merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge overlapping or adjacent ``(start, end)`` integer ranges."""
    if not ranges:
        return []
    ordered = sorted(ranges)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end + 1:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged
