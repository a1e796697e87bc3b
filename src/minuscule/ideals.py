"""Order ideals as bitsets, rowmotion, plane partitions, and orbit censuses.

An ideal of a poset on n elements is a down-closed subset stored as an
n-bit integer mask.  Rowmotion sends an ideal to the down-closure of the
minimal elements of its complement; on the ideals of P x k this is the
action whose orbit structure the rest of the package studies.
"""

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError, StateCapExceeded, state_cap
from .poset import Poset, chain_product


@dataclass(frozen=True)
class OrderIdeal:
    """A down-closed subset of a poset, as a bitmask over element indices."""

    poset: Poset
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.poset.n:
            raise ParameterError("ideal mask out of range for the poset")

    @classmethod
    def from_members(cls, poset: Poset, members) -> "OrderIdeal":
        mask = 0
        for x in members:
            mask |= 1 << x
        ideal = cls(poset, mask)
        if not ideal.is_down_closed():
            raise ParameterError("subset is not down-closed")
        return ideal

    def members(self) -> list[int]:
        return [x for x in range(self.poset.n) if (self.mask >> x) & 1]

    def is_down_closed(self) -> bool:
        lm = self.poset.lower_masks
        m = self.mask
        return all(m & lm[x] == lm[x] for x in self.members())

    def __len__(self):
        return bin(self.mask).count("1")


def _chunk_tables(masks: list[int]) -> list[list[int]]:
    # Table j maps a byte b to the union of masks[8j + i] over the set bits i of b.
    tables = []
    for j in range(0, len(masks), 8):
        table = [0]
        for mask in masks[j:j + 8]:
            table += [t | mask for t in table]
        tables.append(table)
    return tables


@lru_cache(maxsize=8)
def _rowmotion_step(poset: Poset):
    """Rowmotion on ideal masks, as a function built once per poset and memoised.

    With C the complement of the ideal, min C = C & ~up(C) and the image is
    down(min C); up (the upper covers) and down (the down-closures) are
    unions over set bits, so each is one table lookup per byte of the mask.
    """
    n = poset.n
    width = (n + 7) // 8
    full = (1 << n) - 1
    up_tables = _chunk_tables([sum(1 << y for y in poset.upper[x]) for x in range(n)])
    down_tables = _chunk_tables(list(poset.down_masks))

    def step(mask: int) -> int:
        comp = full ^ mask
        up = 0
        for table, byte in zip(up_tables, comp.to_bytes(width, "little")):
            up |= table[byte]
        out = 0
        for table, byte in zip(down_tables, (comp & ~up).to_bytes(width, "little")):
            out |= table[byte]
        return out

    return step


def rowmotion(ideal: OrderIdeal) -> OrderIdeal:
    """Down-closure of the minimal elements of the complement; a bijection on ideals."""
    return OrderIdeal(ideal.poset, _rowmotion_step(ideal.poset)(ideal.mask))


def _ideal_masks(poset: Poset, cap: int | None = None) -> Iterator[int]:
    # Decide membership element-by-element along a linear extension, leaving
    # each element out first; a partial choice never dead-ends, so the walk
    # does O(n) work per ideal.  The stack holds the branches that put an
    # element in, deepest last, which keeps the depth-first order.
    cap = state_cap(cap)
    topo = poset.topo
    lm = poset.lower_masks
    n = poset.n
    count = 0
    stack = [(0, 0)]
    while stack:
        i, mask = stack.pop()
        for j in range(i, n):
            x = topo[j]
            if mask & lm[x] == lm[x]:
                stack.append((j + 1, mask | (1 << x)))
        count += 1
        if count > cap:
            raise StateCapExceeded("too many order ideals", cap)
        yield mask


def enumerate_ideals(poset: Poset, cap: int | None = None) -> Iterator[OrderIdeal]:
    """All order ideals, each exactly once, in a deterministic order."""
    for mask in _ideal_masks(poset, cap):
        yield OrderIdeal(poset, mask)


@dataclass(frozen=True)
class OrbitSummary:
    """Multiset of rowmotion orbit sizes: sorted (size, multiplicity) pairs."""

    orbit_sizes: tuple[tuple[int, int], ...]
    total_states: int

    def sizes(self) -> Counter:
        return Counter(dict(self.orbit_sizes))

    def fixed_by_power(self, d: int) -> int:
        """Number of states fixed by the d-fold action."""
        return sum(size * mult for size, mult in self.orbit_sizes if d % size == 0)

    def order(self) -> int:
        from math import lcm

        return lcm(*(size for size, _ in self.orbit_sizes)) if self.orbit_sizes else 1


def _orbit(start, step, bound: int) -> list:
    """The orbit of start under step; a walk that has not closed after bound steps raises."""
    orbit = [start]
    current = step(start)
    while current != start:
        if len(orbit) == bound:
            raise RuntimeError(f"orbit walk did not return to its start within {bound} steps")
        orbit.append(current)
        current = step(current)
    return orbit


def rowmotion_orbits(poset: Poset, k: int, cap: int | None = None) -> OrbitSummary:
    """Partition the ideals of poset x k into rowmotion orbits by exhaustive traversal.

    Reads only the product's covers: each orbit is walked with the table-driven
    rowmotion step, and a walk longer than the ideal count raises.
    """
    cap = state_cap(cap)
    product = chain_product(poset, k)
    states = list(_ideal_masks(product, cap))
    step = _rowmotion_step(product)
    seen = set()
    sizes = Counter()
    for mask in states:
        if mask in seen:
            continue
        orbit = _orbit(mask, step, len(states))
        seen.update(orbit)
        sizes[len(orbit)] += 1
    return OrbitSummary(tuple(sorted(sizes.items())), len(states))


@dataclass(frozen=True)
class PlanePartition:
    """Weakly order-reversing map from a poset to {0, ..., k}."""

    poset: Poset
    k: int
    heights: tuple[int, ...]

    def __post_init__(self):
        if len(self.heights) != self.poset.n:
            raise ParameterError("height vector length must match the poset")
        for h in self.heights:
            if not 0 <= h <= self.k:
                raise ParameterError(f"height {h} outside 0..{self.k}")
        for a, b in self.poset.covers:
            if self.heights[a] < self.heights[b]:
                raise ParameterError("heights must be weakly order-reversing")

    def size(self) -> int:
        return sum(self.heights)


def ideal_to_plane_partition(ideal: OrderIdeal) -> PlanePartition:
    """Read heights off an ideal of P x k: height(x) = number of levels of x present."""
    if ideal.poset.product_of is None:
        raise ParameterError("ideal does not live in a chain product")
    base, k = ideal.poset.product_of
    mask = ideal.mask
    heights = []
    for x in range(base.n):
        h = 0
        for i in range(k):
            if (mask >> (x * k + i)) & 1:
                h += 1
        heights.append(h)
    return PlanePartition(base, k, tuple(heights))


def plane_partition_to_ideal(pp: PlanePartition) -> OrderIdeal:
    """Inverse of ideal_to_plane_partition."""
    product = chain_product(pp.poset, pp.k)
    mask = 0
    for x, h in enumerate(pp.heights):
        for i in range(h):
            mask |= 1 << (x * pp.k + i)
    return OrderIdeal(product, mask)
