"""Finite posets from box diagrams, the minuscule families, and chain products.

Shapes are stacks of box rows in Cartesian orientation: rows are listed
bottom-to-top as (offset, length) pairs, and the box in row r, column c is
covered by the box immediately above it and the box immediately to its
right, whenever those boxes exist.  The five minuscule families
(rectangles, shifted staircases, propellers, Cayley-Moufang, Freudenthal)
are all built this way from hardcoded diagrams.
"""

import hashlib
import heapq
import json
from pathlib import Path

from .errors import ParameterError, _Frozen, _integer, read_json

# Diagrams of the two exceptional posets, rows bottom-to-top.
_CAYLEY_MOUFANG_ROWS = ((0, 5), (2, 3), (3, 3), (3, 5))
_FREUDENTHAL_ROWS = ((0, 6), (3, 3), (4, 3), (4, 5), (4, 5), (7, 2), (8, 1), (8, 1), (8, 1))


class ShapeDiagram(_Frozen):
    """Rows of boxes, bottom-to-top, each row an (offset, length) pair.

    Box (r, c) exists when row r is present and offset_r < c <= offset_r + length_r.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple((_integer(o), _integer(l)) for o, l in rows)
        if not rows:
            raise ParameterError("a shape needs at least one row")
        for off, length in rows:
            if length < 1:
                raise ParameterError("every shape row needs length >= 1")
            if off < 0:
                raise ParameterError("row offsets must be nonnegative")
        self._set(rows=rows)

    def boxes(self) -> list[tuple[int, int]]:
        """All boxes (row, col), bottom-to-top then left-to-right."""
        out = []
        for r, (off, length) in enumerate(self.rows):
            out.extend((r, c) for c in range(off + 1, off + length + 1))
        return out

    def __eq__(self, other):
        return isinstance(other, ShapeDiagram) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ShapeDiagram({list(self.rows)})"


class Poset(_Frozen):
    """Immutable finite poset given by its cover relation on elements 0..n-1.

    The cover list must be acyclic and transitively reduced; both are checked
    at construction.  rank[x] is the length of the longest chain with maximum
    x, so rank[x] = 0 exactly for minimal elements; corank[x] is the length of
    the longest chain with minimum x.  As bit masks over the elements,
    lower_masks[x] holds the lower covers of x, down_masks[x] the down-set of
    x and up_masks[x] its up-set, both with x included.  One pass along topo
    and one against it compute all of them.
    """

    __slots__ = (
        "n", "covers", "family", "shape", "product_of",
        "lower", "upper", "rank", "corank", "topo",
        "lower_masks", "down_masks", "up_masks", "_hash", "_digest",
    )

    def __init__(self, n: int, covers, family=None, shape=None, product_of=None):
        n = _integer(n)
        if n < 0:
            raise ParameterError("element count must be nonnegative")
        covers = tuple(sorted((_integer(a), _integer(b)) for a, b in covers))
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ParameterError(f"cover ({a}, {b}) out of range for {n} elements")
        if len(set(covers)) != len(covers):
            raise ParameterError("duplicate cover relation")
        lower = [[] for _ in range(n)]
        upper = [[] for _ in range(n)]
        for a, b in covers:
            lower[b].append(a)
            upper[a].append(b)
        self._set(
            n=n, covers=covers, family=family, shape=shape, product_of=product_of,
            lower=tuple(tuple(v) for v in lower), upper=tuple(tuple(v) for v in upper),
        )
        self._set(topo=self._toposort())
        rank, lower_masks, down_masks = [0] * n, [0] * n, [0] * n
        for x in self.topo:
            m = 1 << x
            for a in self.lower[x]:
                rank[x] = max(rank[x], rank[a] + 1)
                lower_masks[x] |= 1 << a
                m |= down_masks[a]
            down_masks[x] = m
        corank, up_masks = [0] * n, [0] * n
        for x in reversed(self.topo):
            m = 1 << x
            for y in self.upper[x]:
                corank[x] = max(corank[x], corank[y] + 1)
                m |= up_masks[y]
            up_masks[x] = m
        # A cover (a, b) is redundant iff b lies above some other upper cover of a.
        for a, b in covers:
            for c in self.upper[a]:
                if c != b and up_masks[c] >> b & 1:
                    raise ParameterError(f"cover ({a}, {b}) is implied by a longer path")
        self._set(
            rank=tuple(rank), corank=tuple(corank), lower_masks=tuple(lower_masks),
            down_masks=tuple(down_masks), up_masks=tuple(up_masks),
            _hash=hash((n, covers)), _digest=None,
        )

    def _toposort(self) -> tuple[int, ...]:
        # Least ready element first; an ascending list is already a heap.
        indeg = [len(v) for v in self.lower]
        ready = [x for x in range(self.n) if indeg[x] == 0]
        order = []
        while ready:
            x = heapq.heappop(ready)
            order.append(x)
            for y in self.upper[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    heapq.heappush(ready, y)
        if len(order) != self.n:
            raise ParameterError("cover relation contains a cycle")
        return tuple(order)

    @property
    def rk(self) -> int:
        """Length of the longest chain; -1 for the empty poset."""
        return max(self.rank, default=-1)

    def minimal(self) -> list[int]:
        return [x for x in range(self.n) if not self.lower[x]]

    def maximal(self) -> list[int]:
        return [x for x in range(self.n) if not self.upper[x]]

    def __eq__(self, other):
        return self is other or (isinstance(other, Poset) and self.n == other.n and self.covers == other.covers)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        tag = self.family or (f"{len(self.shape.rows)} rows" if self.shape else "custom")
        return f"Poset({self.n} elements, {tag})"

    def to_dict(self) -> dict:
        return {"n": self.n, "covers": [list(c) for c in self.covers]}

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """sha256 of the canonical JSON, computed once per poset (it keys every table lookup)."""
        if self._digest is None:
            self._set(_digest=hashlib.sha256(self.canonical_json().encode()).hexdigest())
        return self._digest


def poset_from_shape(shape: ShapeDiagram, family: str | None = None) -> Poset:
    """Poset on a diagram's boxes: each box is covered by the boxes above and to the right.

    Each row is a run of columns and covers join adjacent rows only, so the
    diagram is connected exactly when each row shares a column with the next.
    """
    rows = shape.rows
    for r, ((o1, l1), (o2, l2)) in enumerate(zip(rows, rows[1:])):
        if max(o1, o2) >= min(o1 + l1, o2 + l2):
            raise ParameterError(f"shape diagram is disconnected: rows {r} and {r + 1} share no column")
    boxes = shape.boxes()
    index = {b: i for i, b in enumerate(boxes)}
    covers = []
    for (r, c), i in index.items():
        if (r, c + 1) in index:
            covers.append((i, index[(r, c + 1)]))
        if (r + 1, c) in index:
            covers.append((i, index[(r + 1, c)]))
    return Poset(len(boxes), covers, family=family, shape=shape)


def propeller(p: int) -> Poset:
    """Two rows of p boxes overlapping in two central columns; 2p elements."""
    p = _integer(p)
    if p < 3:
        raise ParameterError(f"propeller needs p >= 3, got {p}")
    return poset_from_shape(ShapeDiagram([(0, p), (p - 2, p)]), family=f"propeller-{p}")


def cayley_moufang() -> Poset:
    """The 16-element exceptional poset."""
    return poset_from_shape(ShapeDiagram(_CAYLEY_MOUFANG_ROWS), family="cayley-moufang")


def freudenthal() -> Poset:
    """The 27-element exceptional poset."""
    return poset_from_shape(ShapeDiagram(_FREUDENTHAL_ROWS), family="freudenthal")


def rectangle(a: int, b: int) -> Poset:
    """The a-by-b grid poset."""
    a, b = _integer(a), _integer(b)
    if a < 1 or b < 1:
        raise ParameterError("rectangle sides must be >= 1")
    return poset_from_shape(ShapeDiagram([(0, b)] * a), family=f"rectangle-{a}x{b}")


def shifted_staircase(s: int) -> Poset:
    """Staircase rows of lengths s, s-1, ..., 1, each shifted one box right."""
    s = _integer(s)
    if s < 1:
        raise ParameterError("staircase size must be >= 1")
    return poset_from_shape(ShapeDiagram([(i, s - i) for i in range(s)]), family=f"shifted-staircase-{s}")


# Family name -> (builder, number of integer parameters).
_FAMILIES = {
    "propeller": (propeller, 1),
    "cayley-moufang": (cayley_moufang, 0),
    "freudenthal": (freudenthal, 0),
    "rectangle": (rectangle, 2),
    "shifted-staircase": (shifted_staircase, 1),
}


def build_minuscule_poset(family: str, *params: int) -> Poset:
    """Dispatch on a family name: propeller, cayley-moufang, freudenthal, rectangle, shifted-staircase."""
    name = family.replace("_", "-").lower()
    if name not in _FAMILIES:
        raise ParameterError(f"unknown poset family {family!r}")
    build, arity = _FAMILIES[name]
    if len(params) != arity:
        raise ParameterError(f"poset family {name!r} takes {arity} parameter(s), got {len(params)}")
    return build(*params)


def chain_product(poset: Poset, k: int) -> Poset:
    """Product of a poset with a k-element chain; element (x, i) has index x*k + i."""
    k = _integer(k)
    if k < 0:
        raise ParameterError("chain length must be nonnegative")
    n = poset.n
    covers = []
    for x in range(n):
        for i in range(k):
            if i + 1 < k:
                covers.append((x * k + i, x * k + i + 1))
            for y in poset.upper[x]:
                covers.append((x * k + i, y * k + i))
    return Poset(n * k, covers, product_of=(poset, k))


def rank_vector(poset: Poset) -> tuple[int, ...]:
    """rank(x) for every element, computed by longest path over covers."""
    return poset.rank


def parse_poset_spec(spec: str) -> Poset:
    """Parse a CLI poset spec: a family name with dash-separated parameters, or a JSON file path.

    Examples: cayley-moufang, freudenthal, propeller-5, rectangle-2x3, shifted-staircase-4.
    """
    text = spec.strip()
    if text.endswith(".json"):
        return load_poset(text)
    family, params = text.replace("_", "-").lower(), ()
    if family not in _FAMILIES:
        family, _, tail = family.rpartition("-")
        try:
            params = tuple(int(d) for d in tail.split("x"))
        except ValueError as exc:
            raise ParameterError(f"bad poset spec {spec!r}") from exc
    return build_minuscule_poset(family, *params)


def load_poset(path: str) -> Poset:
    """Load a poset from JSON: either {"shape": {"rows": [[off, len], ...]}} or {"covers": [...], "n": n}."""
    return read_json(Path(path), poset_from_dict, "poset")


def poset_from_dict(data: dict) -> Poset:
    if "shape" in data:
        return poset_from_shape(ShapeDiagram(data["shape"]["rows"]))
    if "covers" in data:
        if "n" not in data:
            raise ParameterError("cover-list poset input needs an explicit element count 'n'")
        return Poset(data["n"], [tuple(c) for c in data["covers"]])
    raise ParameterError("poset input must contain 'shape' or 'covers'")
