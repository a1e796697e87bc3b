"""Order ideals as bitsets, rowmotion, plane partitions, and orbit censuses.

An ideal of a poset on n elements is a down-closed subset stored as an
n-bit integer mask.  Rowmotion sends an ideal to the down-closure of the
minimal elements of its complement; on the ideals of P x k this is the
action whose orbit structure the rest of the package studies.
"""

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

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


def _rowmotion_mask(poset: Poset, mask: int) -> int:
    lm = poset.lower_masks
    out = 0
    for x in range(poset.n):
        if not (mask >> x) & 1 and mask & lm[x] == lm[x]:
            out |= poset.down_masks[x]
    return out


def rowmotion(ideal: OrderIdeal) -> OrderIdeal:
    """Down-closure of the minimal elements of the complement; a bijection on ideals."""
    return OrderIdeal(ideal.poset, _rowmotion_mask(ideal.poset, ideal.mask))


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


def rowmotion_orbits(poset: Poset, k: int, cap: int | None = None) -> OrbitSummary:
    """Partition the ideals of poset x k into rowmotion orbits by exhaustive traversal."""
    cap = state_cap(cap)
    product = chain_product(poset, k)
    states = list(_ideal_masks(product, cap))
    index = {m: i for i, m in enumerate(states)}
    seen = bytearray(len(states))
    sizes = Counter()
    for start, mask in enumerate(states):
        if seen[start]:
            continue
        size = 0
        cur = mask
        while True:
            seen[index[cur]] = 1
            size += 1
            cur = _rowmotion_mask(product, cur)
            if cur == mask:
                break
        sizes[size] += 1
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
