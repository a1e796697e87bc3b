"""Order ideals as bitsets, rowmotion, plane partitions, and orbit censuses.

An ideal of a poset on n elements is a down-closed subset stored as an
n-bit integer mask.  Rowmotion sends an ideal to the down-closure of the
minimal elements of its complement; on the ideals of P x k this is the
action whose orbit structure the rest of the package studies.  The orbit
census counts those ideals as multichains of ideals of P in one table,
lists them from it, and steps a whole chunk of them at once, one bit of an
integer per ideal.

What the census reads of P alone is kept in one _Lattice per poset and
shared by every census of P, at any k: the ideals of P, their sub-ideal
lists, the rows of the count table, the byte cells, and the shallowest
multichain tail levels, up to _TAIL_BYTES >> 4 (256 KB) per poset.  A
deeper tail level is built for its census and dropped; keeping them all
would hold megabytes per shape and make a deep census slower.  The sweep's
step plan depends on k and is made per census; kept, one shape's plans
would grow with every height asked.
"""

import sys
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from math import lcm

from .errors import ParameterError, StateCapExceeded, _integer, state_cap
from .poset import Poset, chain_product


@dataclass(frozen=True)
class OrderIdeal:
    """A down-closed subset of a poset, as a bitmask over element indices."""

    poset: Poset
    mask: int

    def __post_init__(self):
        object.__setattr__(self, "mask", _integer(self.mask))
        if self.mask < 0 or self.mask >> self.poset.n:
            raise ParameterError("ideal mask out of range for the poset")
        if not self.is_down_closed():
            raise ParameterError(f"mask {self.mask:#b} is not down-closed in the poset")

    def members(self) -> list[int]:
        return [x for x in range(self.poset.n) if (self.mask >> x) & 1]

    def is_down_closed(self) -> bool:
        lm = self.poset.lower_masks
        m = self.mask
        return all(m & lm[x] == lm[x] for x in self.members())

    def __len__(self):
        return self.mask.bit_count()


def _trusted_ideal(poset: Poset, mask: int) -> OrderIdeal:
    # An ideal this module built down-closed itself: no checks.
    ideal = object.__new__(OrderIdeal)
    object.__setattr__(ideal, "poset", poset)
    object.__setattr__(ideal, "mask", mask)
    return ideal


def rowmotion(ideal: OrderIdeal) -> OrderIdeal:
    """Down-closure of the minimal elements of the complement; a bijection on ideals.

    An element is minimal in the complement when the ideal holds its lower
    covers but not its whole down-set; the image is the union of those down-sets.
    """
    mask = ideal.mask
    image = 0
    for lower, down in zip(ideal.poset.lower_masks, ideal.poset.down_masks):
        if lower & mask == lower and down & mask != down:
            image |= down
    return _trusted_ideal(ideal.poset, image)


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
    """All order ideals, each exactly once, in a deterministic order.

    The cap is checked at the call; more than cap ideals raise StateCapExceeded
    during the listing.
    """
    cap = state_cap(cap)
    return (_trusted_ideal(poset, mask) for mask in _ideal_masks(poset, cap))


@dataclass(frozen=True)
class OrbitSummary:
    """Multiset of orbit sizes of rowmotion or promotion: sorted (size, multiplicity) pairs."""

    orbit_sizes: tuple[tuple[int, int], ...]
    total_states: int

    def sizes(self) -> Counter:
        return Counter(dict(self.orbit_sizes))

    def fixed_by_power(self, d: int) -> int:
        """Number of states fixed by the d-fold action."""
        return sum(size * mult for size, mult in self.orbit_sizes if d % size == 0)

    def order(self) -> int:
        return lcm(*(size for size, _ in self.orbit_sizes))

    @classmethod
    def from_states(cls, states: Counter) -> "OrbitSummary":
        """The summary of states[size] states in orbits of each size; a count that is not
        a whole number of orbits raises."""
        for size, count in states.items():
            if count % size:
                raise RuntimeError(f"{count} states of period {size} do not split into orbits")
        orbit_sizes = tuple((size, count // size) for size, count in sorted(states.items()))
        return cls(orbit_sizes, sum(states.values()))


def _orbit(start, step, bound: int) -> int | None:
    """The size of the orbit of start under step, or None if the walk has not closed
    after bound steps; only the current state is kept."""
    size, current = 1, step(start)
    while current != start:
        if size == bound:
            return None
        size, current = size + 1, step(current)
    return size


def _cycles(image: dict) -> Iterator[list]:
    """The cycles of a permutation given as a map from each key to its image, popped off the map.

    Each cycle lists its keys in walk order.  Every step pops a key, so a
    walk that meets an image no longer in the map (one outside the keys, or
    one that two keys share) raises instead of running on.  No key is None.
    """
    while image:
        start, current = image.popitem()
        cycle = [start]
        while current != start:
            cycle.append(current)
            current = image.pop(current, None)
            if current is None:
                raise RuntimeError(f"a walk did not close within {len(cycle)} steps: not a permutation")
        yield cycle


# Lanes per sweep; the bytes of multichain tails listed ahead of the sweep, of which
# a shape's lattice keeps _TAIL_BYTES >> 4; and a sweep hands its last lanes to a
# later one once at most lanes >> _STRAGGLERS remain.
_CHUNK = 1 << 16
_TAIL_BYTES = 1 << 22
_STRAGGLERS = 10


def _sub_ideals(poset: Poset, masks: tuple[int, ...], cap: int) -> tuple[tuple[int, ...], ...]:
    """For each ideal in masks (sorted), the indices of the ideals inside it, ascending.

    An ideal holds itself and whatever the ideals one maximal element
    smaller hold.  These pairs are the ideals of poset x 2, so there are no
    more of them than ideals of poset x k for any k >= 2; more than cap raise.
    """
    index = {mask: i for i, mask in enumerate(masks)}
    up = poset.up_masks
    subs = []
    pairs = 0
    for i, a in enumerate(masks):
        inside = {i}
        for x in range(poset.n):
            if a & up[x] == 1 << x:
                inside.update(subs[index[a ^ 1 << x]])
        subs.append(tuple(sorted(inside)))
        pairs += len(inside)
        if pairs > cap:
            raise StateCapExceeded("too many order ideals", cap)
    return tuple(subs)


def _size(tail: tuple[tuple[bytes, ...], ...]) -> int:
    """The bytes a tail holds: its tuples and byte strings, headers included."""
    return sys.getsizeof(tail) + sum(sys.getsizeof(plane) + sum(map(sys.getsizeof, plane)) for plane in tail)


class _Lattice:
    """The tables every census of one poset P shares, filled as censuses ask for them.

    masks: the ideals of P, sorted, so the first is the empty ideal and the
    last is P itself; cells[p][a]: byte p of ideal a; subs[a]: the indices of
    the ideals inside ideal a; below[L][a]: the number of multichains of L
    ideals inside ideal a, one row per level asked so far, so that
    sum(below[k - 1]) is the number of ideals of P x k; tails[d][j][a]: plane
    j of the below[d][a] multichains of d ideals inside ideal a, for the
    levels d kept.  Every table is a tuple (of ints, tuples or bytes),
    none is changed once filled, and a fill that raises stores nothing.
    """

    def __init__(self, poset: Poset):
        self.poset = poset
        self.width = (poset.n + 7) // 8
        self.masks = self.cells = self.subs = None
        self.below = ()
        self.tails = ((),)
        self.kept = 0

    def count(self, k: int, cap: int) -> int:
        """The number of ideals of P x k (k >= 1), with the tables that list them filled.

        Raises StateCapExceeded, before any ideal of P x k is listed, when P has
        more than cap ideals, or they have more than cap sub-ideal pairs (k >= 2), or
        P x k has more than cap ideals.  Every call checks cap, filled tables or
        not: below[1] sums to the pairs and the row sums grow with L, so the
        check of row k - 1 covers the pairs.
        """
        if self.masks is None:
            masks = tuple(sorted(_ideal_masks(self.poset, cap)))
            rows = [m.to_bytes(self.width, "little") for m in masks]
            self.cells = tuple(tuple([row[p:p + 1] for row in rows]) for p in range(self.width))
            self.below = ((1,) * len(masks),)
            self.masks = masks
        if len(self.masks) > cap:
            raise StateCapExceeded("too many order ideals", cap)
        if k > 1 and self.subs is None:
            self.subs = _sub_ideals(self.poset, self.masks, cap)
        below = self.below
        while len(below) < k:
            counts = below[-1]
            below += (tuple([sum(map(counts.__getitem__, s)) for s in self.subs]),)
            if sum(below[-1]) > cap:
                raise StateCapExceeded("too many order ideals", cap)
        self.below = below
        total = sum(below[k - 1])
        if total > cap:
            raise StateCapExceeded("too many order ideals", cap)
        return total

    def tail(self, depth: int) -> tuple[tuple[bytes, ...], ...]:
        """tails[depth], built level by level from the deepest level kept.

        A new level is kept while the kept levels total at most _TAIL_BYTES >> 4
        bytes; a deeper one is built for the caller alone and then dropped.
        Reads below[depth - 1], so a census of P x k asks for depth < k.
        """
        tail = self.tails[min(depth, len(self.tails) - 1)]
        for level in range(len(self.tails), depth + 1):
            counts = self.below[level - 1]
            tail = (
                *(tuple([b"".join([cell[c] * counts[c] for c in s]) for s in self.subs]) for cell in self.cells),
                *(tuple([b"".join(map(plane.__getitem__, s)) for s in self.subs]) for plane in tail),
            )
            if level == len(self.tails) and self.kept + (size := _size(tail)) <= _TAIL_BYTES >> 4:
                self.tails += (tail,)
                self.kept += size
        return tail


@cache
def _lattice(poset: Poset) -> _Lattice:
    return _Lattice(poset)


def _multichain_chunks(lattice: _Lattice, k: int):
    """Stream the multichains I_1 ⊇ ... ⊇ I_k of ideals of P, that is the ideals of P x k.

    Reads the tables of lattice, counted for k (k >= 1).  Yields (lanes,
    planes) chunks of at most _CHUNK multichains, where planes[i * width + p]
    holds byte p of I_(i+1) for each multichain.

    below ranks the multichains in walk order, so each chunk is one range of
    ranks, and its planes start as zeroed buffers of the chunk's length.  The
    last `depth` levels come from the lattice's tails, one per ideal, and the
    levels above them from a depth-first walk of the chunk's ranks.  The walk
    writes each level once per node, as one run, in place at the node's
    lanes and clipped to the chunk.  It skips the sub-ideals whose
    multichains end before the chunk, stops at the chunk's end, and writes
    nothing for the empty ideal, whose levels and all below them are zero.
    Of the depths whose tails fit in _TAIL_BYTES, the one with the fewest
    byte-string operations is used: tails cost about depth^2 / 2 joins per
    ideal, the walk one run per node and depth copies per leaf.  The lattice
    keeps the shallow tail levels, so a later census of the same shape joins
    only the levels past them.
    """
    masks, cells, width, below = lattice.masks, lattice.cells, lattice.width, lattice.below
    top = len(masks) - 1
    subs = lattice.subs if k > 1 else {top: range(len(masks))}
    # tops[L]: the multichains of L ideals.
    tops = [1, *map(sum, below[:k])]

    def operations(d: int) -> int:
        # A walk of w levels has tops[w] + tops[w-1] - 1 nodes; tops[w] - tops[w-1] leaves copy a tail.
        w = k - d
        return len(masks) * d * (d + 1) // 2 + tops[w] + tops[w - 1] + (tops[w] - tops[w - 1]) * d

    depth = 0
    for d in range(1, k):
        if tops[d + 1] * d * width > _TAIL_BYTES:
            break
        if operations(d) < operations(depth):
            depth = d
    levels = k - depth
    tail = lattice.tail(depth)

    for lo in range(0, tops[k], _CHUNK):
        lanes = min(_CHUNK, tops[k] - lo)
        planes = [bytearray(lanes) for _ in range(k * width)]
        # rows[i]: the planes of walk level i, and rows[levels] the tail's.
        rows = [planes[i * width:(i + 1) * width] for i in range(levels)] + [planes[levels * width:]]
        # stack[i]: the ideals left to try at walk level i, and the lane the next of them starts on.
        stack = [[iter(subs[top]), -lo]]
        while stack:
            node = stack[-1]
            start = node[1]
            b = next(node[0], None)
            if b is None or start >= lanes:
                stack.pop()
                continue
            level = len(stack) - 1
            end = node[1] = start + below[k - 1 - level][b]
            if end <= 0 or not b:
                continue
            s = start if start > 0 else 0
            e = end if end < lanes else lanes
            for plane, cell in zip(rows[level], cells):
                plane[s:e] = cell[b] * (e - s)
            if level + 1 < levels:
                stack.append([iter(subs[b]), start])
            else:
                for plane, run in zip(rows[levels], tail):
                    plane[s:e] = run[b][s - start:e - start]
        yield lanes, planes


def _transpose_bytes(xs: list[int], masks) -> None:
    # Within every byte position, swap bit b of xs[t] with bit t of xs[b]:
    # three rounds of block swaps, halving the block each round.
    for h, m in masks:
        for r in range(8):
            if not r & h:
                a, b = xs[r], xs[r + h]
                t = ((a >> h) ^ b) & m
                xs[r + h] = b ^ t
                xs[r] = a ^ (t << h)


def _bit_columns(lanes: int, planes: list[bytes], n: int, k: int, width: int) -> list[int]:
    """Transpose a chunk into one lane-bit integer per element of P x k; lane j is bit j.

    Bytes t, t + 8, t + 16, ... of a plane are read as one integer, whose
    byte i holds lane 8i + t, and a bit transpose within each byte turns
    byte p of element masks into the columns of elements 8p, ..., 8p + 7.
    """
    ones = int.from_bytes(b"\x01" * ((lanes + 7) // 8), "little")
    masks = ((4, ones * 0x0F), (2, ones * 0x33), (1, ones * 0x55))
    columns = [0] * (n * k)
    for i in range(k):
        for p in range(width):
            plane = planes[i * width + p]
            xs = [int.from_bytes(plane[t::8], "little") for t in range(8)]
            _transpose_bytes(xs, masks)
            for x in range(8 * p, min(8 * p + 8, n)):
                columns[x * k + i] = xs[x - 8 * p]
    return columns


def _sweep_step(poset: Poset, k: int):
    """Rowmotion on P x k for every lane at once, as a map of lane-bit columns.

    Column x * k + i is element (x, i) of P x k.  An element is a minimal
    element of the complement when it is absent and all its lower covers
    are present; the image is the down-closure of those, filled in reverse
    topological order from the upper covers.  The step takes the columns, the
    sweep's start columns and the lane mask, and returns the image and the
    lanes it moved: those whose image differs from their start.
    """
    n = poset.n * k
    plan = []
    for x in reversed(poset.topo):
        for i in reversed(range(k)):
            lower = [x * k + i - 1] * (i > 0) + [y * k + i for y in poset.lower[x]]
            upper = [x * k + i + 1] * (i + 1 < k) + [y * k + i for y in poset.upper[x]]
            # Index n stands for the all-lanes mask: what a minimal element's lower covers give.
            plan.append((x * k + i, (lower or [n])[0], lower[1:], upper))

    def step(ideal: list[int], start: list[int], full: int) -> tuple[list[int], int]:
        ideal = [*ideal, full]
        image = [0] * n
        moved = 0
        for x, first, lower, upper in plan:
            v = ideal[first]
            for y in lower:
                v &= ideal[y]
            v ^= ideal[x]
            for y in upper:
                v |= image[y]
            image[x] = v
            moved |= v ^ start[x]
        return image, moved

    return step


def _lane_masks(columns: list[int], lanes: int) -> list[int]:
    """The ideal held by each set bit of lanes, as a mask over the columns."""
    size = (max([lanes, *columns]).bit_length() + 7) // 8
    rows = [c.to_bytes(size, "little") for c in columns]
    masks = []
    while lanes:
        q, r = divmod((lanes & -lanes).bit_length() - 1, 8)
        lanes &= lanes - 1
        masks.append(sum((row[q] >> r & 1) << e for e, row in enumerate(rows)))
    return masks


def _mask_columns(masks: list[int], n: int) -> list[int]:
    """Lane-bit columns of a few ideals given as masks; lane j is masks[j]."""
    columns = [0] * n
    for q, mask in enumerate(masks):
        for e in range(n):
            if mask >> e & 1:
                columns[e] |= 1 << q
    return columns


def _sweep(step, start: list[int], lanes: int, states: Counter, bound: int) -> list[int]:
    """Step lanes 0, ..., lanes - 1 until each is back at its start, adding it to states[j]
    at its first return, after j steps: its orbit size.  Each step returns the image
    and the lanes it moved, so a lane is back when it did not move.

    Once at most a 2^-_STRAGGLERS share of the lanes is left, the sweep stops
    and returns their current ideals as masks: an orbit has the same size from
    any of its states, so they restart, together, in a narrower sweep.
    """
    full = pending = (1 << lanes) - 1
    current = start
    j = 0
    while pending:
        if j == bound:
            raise RuntimeError(f"rowmotion sweep did not return every lane to its start within {bound} steps")
        current, moved = step(current, start, full)
        j += 1
        back = pending & ~moved
        if back:
            states[j] += back.bit_count()
            pending ^= back
            if pending and pending.bit_count() <= lanes >> _STRAGGLERS:
                return _lane_masks(current, pending)
    return []


def rowmotion_orbits(poset: Poset, k: int, cap: int | None = None) -> OrbitSummary:
    """Partition the ideals of poset x k into rowmotion orbits by exhaustive traversal.

    The ideals are counted first (multichains of ideals of poset, by a
    dynamic program), so an over-cap census fails before listing any.  They
    are then listed in chunks from the same count table and swept
    bit-parallel: at step j, the lanes back at their start for the first
    time lie in orbits of size j.  The count table and the tables the
    listing reads come from the poset's lattice, shared by every census of
    it; each census still lists and steps every ideal.  Reads only the
    covers of poset and its ideal masks; a sweep longer than the ideal count
    raises.
    """
    cap = state_cap(cap)
    k = _integer(k)
    if k < 0:
        raise ParameterError("chain length must be nonnegative")
    if not k:  # P x 0 has one ideal, the empty one, and rowmotion fixes it
        return OrbitSummary(((1, 1),), 1)
    lattice = _lattice(poset)
    total = lattice.count(k, cap)
    step = _sweep_step(poset, k)
    width = lattice.width
    states = Counter()
    listed = 0
    stragglers = []
    for lanes, planes in _multichain_chunks(lattice, k):
        listed += lanes
        stragglers += _sweep(step, _bit_columns(lanes, planes, poset.n, k, width), lanes, states, total)
    while stragglers:
        stragglers = _sweep(step, _mask_columns(stragglers, poset.n * k), len(stragglers), states, total)
    if listed != total:
        raise RuntimeError(f"listed {listed} ideals of {poset!r} x {k}, but counted {total}")
    return OrbitSummary.from_states(states)


@dataclass(frozen=True)
class PlanePartition:
    """Weakly order-reversing map from a poset to {0, ..., k}."""

    poset: Poset
    k: int
    heights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(self.k))
        object.__setattr__(self, "heights", tuple(map(_integer, self.heights)))
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
    return _trusted_ideal(product, mask)
