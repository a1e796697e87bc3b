"""Increasing tableaux, K-Bender-Knuth operators, K-promotion, deflation and inflation.

An increasing tableau on a shape poset is a strictly order-preserving
labeling of the elements by integers in 1..m.  The promotion operator is
the composite of the label-swapping involutions rho_1, ..., rho_(m-1);
deflation compresses the label set to an initial segment, producing a
gapless tableau, and inflation reverses that using a binary content vector.

A gapless tableau with ceiling m is the chain of order ideals
0 = I_0 < I_1 < ... < I_m = P, where I_j holds the boxes labelled at most
j; successive differences are antichains.  The swap rho_i rewrites only
I_i, and the new I_i depends only on (I_(i-1), I_i, I_(i+1)), so K-promotion
is one left-to-right sweep I_i <- step(I_(i-1), I_i, I_(i+1)) for
i = 1..m-1, each new I_i feeding the next step.  The step is one rule on
the three masks (_rho), which k_bender_knuth applies too.  The sweep runs
through one automaton per shape (_Sweep), filled lazily: a state is the
pair (new I_(i-1), I_i) and a transition reads the antichain added next.
A shape has few states (116 on the 27-element exceptional shape after its
full table build, 47 on the 16-element one).  The automaton alone encodes
and decodes label keys, a tableau's label array read as one integer and
the sum of one term per ideal of its chain; each state stores one term,
I_i's packed above new I_(i-1)'s, so a sweep is one dict lookup and one
addition per label.  General promotion, when label 1 is present, makes
the same sweep in one pass over the present labels only: I_i is the union
of the boxes with the i smallest labels, and the boxes of new I_i minus
new I_(i-1) take the label just below the (i+1)-th present one, which is
deflation, sweep and inflation by the rotated content vector in one go;
the summed terms count for each box how many new ideals it lies outside,
and that count picks its label.  Without label 1, every label drops by
one.  That step maps label tuples to label tuples (_promote);
promotion() wraps it in one tableau, and the orbit walks of orbits.py,
which only compare labels, call it directly.  The orbit-table build
lists the chains as paths in the (small) ideal graph, which is how the
large shapes stay tractable, and streams the tableaux a list at a time,
each as one integer, its label key above its image's; the graph, like
the automaton, is keyed by ideal mask.  The build makes the sweep while
it lists the chains: the prefixes of one length that share the sweep
state share their successors and, for each, the next state, so one
transition of the automaton _promote reads extends a whole group of
chains at once, one addition per chain, and the automaton alone splits
the sums.  The groups grow so only to half the ceiling: what the rest of
a chain adds depends only on its sweep state and the steps left, so each
such tail sum is made once, memoized on the graph for the build, and a
tableau is one prefix sum plus one tail sum.
One table, the number of paths of each length from each ideal to the
full one, both prunes the listing to chains that can still finish and
counts the tableaux of each ceiling.
The orbit partition lives with the listing: the graph pops each
ceiling's key-to-image map into cycles and hands out rows of label tuples
and a mask of the elements the m-fold promotion moves, so no label key
leaves this module.
"""

from collections import Counter
from collections.abc import Iterable, Iterator
from functools import cache
from operator import itemgetter

from .errors import ParameterError, StateCapExceeded, _integer, state_cap
from .ideals import _cycles, _ideal_masks
from .poset import Poset, ShapeDiagram, poset_from_shape


class IncreasingTableau:
    """Strictly order-preserving labeling of a shape poset by 1..m.

    labels[i] is the entry of element i in the poset's canonical indexing
    (bottom-to-top, left-to-right for diagram shapes).  m is the label
    ceiling and may exceed the largest label actually used.
    """

    __slots__ = ("shape", "labels", "m")

    def __init__(self, shape: Poset, labels, m: int, validate: bool = True):
        self.shape = shape
        self.labels = tuple(map(_integer, labels))
        self.m = _integer(m)
        if validate:
            self._validate()

    def _validate(self):
        if len(self.labels) != self.shape.n:
            raise ParameterError("label array length must match the shape")
        for v in self.labels:
            if not 1 <= v <= self.m:
                raise ParameterError(f"label {v} outside 1..{self.m}")
        for a, b in self.shape.covers:
            if self.labels[a] >= self.labels[b]:
                raise ParameterError("labels must strictly increase along covers")

    @property
    def m_t(self) -> int:
        """Number of distinct labels used."""
        return len(set(self.labels))

    @property
    def is_gapless(self) -> bool:
        return set(self.labels) == set(range(1, self.m + 1))

    def __eq__(self, other):
        return (
            isinstance(other, IncreasingTableau)
            and self.m == other.m
            and self.labels == other.labels
            and self.shape == other.shape
        )

    def __hash__(self):
        return hash((self.labels, self.m))

    def __repr__(self):
        # A shape given by its covers has no rows to print; its labels stand in.
        body = f"labels={self.labels!r}" if self.shape.shape is None else f"rows={self.to_text()!r}"
        return f"IncreasingTableau(m={self.m}, {body})"

    def to_text(self) -> str:
        """Text form: rows bottom-to-top, comma-separated labels, '.' for absent boxes."""
        if self.shape.shape is None:
            raise ParameterError("text form needs a diagram shape")
        lines = []
        i = 0
        for off, length in self.shape.shape.rows:
            cells = ["."] * off + [str(v) for v in self.labels[i : i + length]]
            lines.append(",".join(cells))
            i += length
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str, m: int | None = None) -> "IncreasingTableau":
        """Parse the text form; the ceiling defaults to the largest label."""
        rows = []
        labels = []
        for line in text.strip().splitlines():
            cells = [c.strip() for c in line.strip().split(",")]
            off = 0
            while off < len(cells) and cells[off] == ".":
                off += 1
            try:
                values = [int(c) for c in cells[off:]]
            except ValueError as exc:
                raise ParameterError(f"bad tableau row {line!r}") from exc
            if not values:
                raise ParameterError(f"bad tableau row {line!r}")
            rows.append((off, len(values)))
            labels.extend(values)
        shape = poset_from_shape(ShapeDiagram(rows))
        return cls(shape, labels, max(labels) if m is None else m)


def _trusted(shape: Poset, labels: tuple[int, ...], m: int) -> IncreasingTableau:
    # A tableau from labels this module built itself: no conversion, no validation.
    tableau = object.__new__(IncreasingTableau)
    tableau.shape = shape
    tableau.labels = labels
    tableau.m = m
    return tableau


def _rho(lower_masks, lo: int, mid: int, hi: int) -> int:
    """The ideal rho_i leaves in place of mid, on masks of the boxes labelled
    below i (lo), at most i (mid) and at most i+1 (hi).

    rho_i swaps i and i+1 on the singleton components of the {i, i+1} boxes
    under covers.  Labels rise along covers, so an (i+1)-box drops to i
    exactly when none of its lower covers lies in mid - lo, and an i-box
    rises to i+1 exactly when it is a lower cover of no (i+1)-box.
    """
    low, new, rest = mid & ~lo, lo, hi & ~mid
    while rest:
        bit = rest & -rest
        new |= lower_masks[bit.bit_length() - 1] & low or bit  # the i-boxes it keeps, or itself
        rest ^= bit
    return new


def k_bender_knuth(tableau: IncreasingTableau, i: int) -> IncreasingTableau:
    """Swap labels i and i+1 on every singleton component of the {i, i+1} boxes."""
    i = _integer(i)
    if not 1 <= i <= tableau.m - 1:
        raise ParameterError(f"operator index {i} outside 1..{tableau.m - 1}")
    lo = mid = hi = 0
    for x, v in enumerate(tableau.labels):
        if v <= i + 1:
            hi |= 1 << x
            mid |= (v <= i) << x
            lo |= (v < i) << x
    new = _rho(tableau.shape.lower_masks, lo, mid, hi)
    labels = list(tableau.labels)
    rest = hi & ~lo  # the boxes labelled i or i+1 take i inside the new ideal, i+1 outside
    while rest:
        bit = rest & -rest
        labels[bit.bit_length() - 1] = i if new & bit else i + 1
        rest ^= bit
    return _trusted(tableau.shape, tuple(labels), tableau.m)


class _Sweep:
    """K-promotion's sweep on one shape as a lazily filled automaton, and the one owner of label keys.

    A state is a sweep pair (new I_(i-1), I_i), numbered in order of first
    use; state 0 is (0, 0), before the first label.  delta[state] maps the
    antichain added next, I_(i+1) - I_i, to the state (new I_i, I_(i+1)),
    where new I_i is _rho on (new I_(i-1), I_i, I_(i+1)) and new I_0 = I_0
    is empty.  A target's I_i is never empty, so no target is state 0 and
    the readers test a hit with `or`.  pairs[state] is the sweep pair and
    ids its inverse; bits[x] is the mask of element x.

    A label key is a sum of terms, one per ideal of a chain: the packed
    complement of the ideal (term), one big-endian field of `width` bytes
    per element, element 0 first.  A box labelled l lies outside exactly
    I_0, ..., I_(l-1), so a chain's key holds its label array and keys
    order like label arrays.  A field counts at most the element count, so
    none carries into the next; fields() splits a key.  Each state stores
    one term (packed_term): the term of its I_i, which a chain's key reads,
    above bit `shift`, plus the term of its new I_(i-1), which a promotion
    image reads, below it.  A sum of packed terms along a chain is its key
    above `shift` and its image's key below; an image key is below
    2**shift, so nothing carries across, and image(), keys() and
    promotions() split such sums.  State 0 is entered by no transition, so
    its packed term, the key term of I_0 alone, starts every listed sum;
    _promote starts from 0 and reads the image half alone.
    """

    __slots__ = ("lower_masks", "n", "bits", "width", "shift", "low", "pairs", "ids", "delta", "packed_term")

    def __init__(self, shape: Poset):
        self.lower_masks = shape.lower_masks
        self.n = shape.n
        self.bits = [1 << x for x in range(shape.n)]
        self.width = max(1, (shape.n.bit_length() + 7) // 8)  # bytes that hold a count up to n
        self.shift = 8 * self.width * self.n  # the bits of one key
        self.low = (1 << self.shift) - 1
        self.pairs = [(0, 0)]
        self.ids = {(0, 0): 0}
        self.delta: list[dict[int, int]] = [{}]
        self.packed_term = [self.term(0) << self.shift]

    def term(self, mask: int) -> int:
        shift = 8 * self.width
        return sum(1 << shift * (self.n - 1 - x) for x in range(self.n) if not (mask >> x) & 1)

    def fields(self, key: int) -> bytes | list[int]:
        """The fields of a key, element 0 first (bytes at width 1)."""
        width = self.width
        packed = key.to_bytes(self.n * width, "big")
        if width == 1:
            return packed
        return [int.from_bytes(packed[i : i + width], "big") for i in range(0, len(packed), width)]

    def image(self, total: int) -> int:
        """The image key of one sum of packed terms."""
        return total & self.low

    def keys(self, groups: Iterable[list[int]]) -> list[int]:
        """The keys of lists of sums of packed terms, in their order."""
        shift = self.shift
        return [total >> shift for sums in groups for total in sums]

    def promotions(self, groups: Iterable[list[int]]) -> dict[int, int]:
        """The key-to-image-key map of lists of sums of packed terms."""
        shift, low = self.shift, self.low
        return {total >> shift: total & low for sums in groups for total in sums}


@cache
def _sweep(shape: Poset) -> _Sweep:
    return _Sweep(shape)


def _swap_step(sweep: _Sweep, state: int, added: int) -> int:
    """The automaton's miss path: the state after adding `added` to the state's I_i,
    numbered if new, stored in delta[state] and returned."""
    prev, cur = sweep.pairs[state]
    nxt = cur | added
    pair = (_rho(sweep.lower_masks, prev, cur, nxt) if cur else 0, nxt)
    target = sweep.ids.get(pair)
    if target is None:
        target = sweep.ids[pair] = len(sweep.pairs)
        sweep.pairs.append(pair)
        sweep.delta.append({})
        sweep.packed_term.append((sweep.term(nxt) << sweep.shift) + sweep.term(pair[0]))
    sweep.delta[state][added] = target
    return target


def promotion(tableau: IncreasingTableau) -> IncreasingTableau:
    """K-promotion: rho_(m-1) o ... o rho_1; a bijection on tableaux with ceiling m.

    Computed through deflation without building it: when label 1 is
    present, the ideal chain of the present labels is swept left to right
    through the shape's automaton, and each settled antichain takes the
    label just below the next present one (the promote_pair identity);
    otherwise every label drops by one.  A box lying outside c of the new
    ideals new I_0, ..., new I_(t-1) of the t present labels settles at the
    c-th step, so the sweep only sums the states' packed terms and the image
    half of the sum is decoded once.  The sweep itself is _promote.
    """
    shape, m = tableau.shape, tableau.m
    return _trusted(shape, _promote(_sweep(shape), tableau.labels, m), m)


def _promote(sweep: _Sweep, labels: tuple[int, ...], m: int) -> tuple[int, ...]:
    """K-promotion on a label tuple of ceiling m through the shape's automaton: promotion()
    without the tableau, for the walks that only compare labels."""
    if 1 not in labels:
        return tuple([v - 1 for v in labels])
    by_label = [0] * (m + 1)  # by_label[v]: the boxes labelled v
    for v, bit in zip(labels, sweep.bits):
        by_label[v] |= bit
    delta, packed_term = sweep.delta, sweep.packed_term
    state = total = 0
    out = []  # out[c]: the label of the boxes outside c new ideals, one below the next present label
    for below, added in enumerate(by_label, -1):
        if added:
            state = delta[state].get(added) or _swap_step(sweep, state, added)
            total += packed_term[state]
            out.append(below)
    out.append(m)  # the boxes outside every new ideal settle last
    fields = sweep.fields(sweep.image(total))
    # One gather; itemgetter of one index gives no tuple.
    return itemgetter(*fields)(out) if sweep.n > 1 else (out[fields[0]],)


def content_vector(tableau: IncreasingTableau) -> tuple[int, ...]:
    """Length-m indicator vector of which labels occur."""
    present = set(tableau.labels)
    return tuple(1 if v in present else 0 for v in range(1, tableau.m + 1))


def rotate_left(v: tuple[int, ...]) -> tuple[int, ...]:
    return v[1:] + v[:1]


def _check_binary(v) -> None:
    # A content vector marks which labels occur, so any entry but 0 or 1 is refused.
    if not all(bit in (0, 1) for bit in v):
        raise ParameterError(f"content vector entries must be 0 or 1, got {tuple(v)}")


def vector_inflation(v: tuple[int, ...], k: int) -> int:
    """Position (1-based) of the k-th one in a binary vector."""
    k = _integer(k)
    _check_binary(v)
    count = 0
    for pos, bit in enumerate(v, start=1):
        if bit:
            count += 1
            if count == k:
                return pos
    raise ParameterError(f"vector has only {count} ones, needed {k}")


def deflate(tableau: IncreasingTableau) -> IncreasingTableau:
    """Compress the label set to 1..m_t; the result is gapless and deflation is idempotent."""
    present = sorted(set(tableau.labels))
    rank_of = {v: i + 1 for i, v in enumerate(present)}
    return _trusted(tableau.shape, tuple([rank_of[v] for v in tableau.labels]), len(present))


def _check_pair(gapless: IncreasingTableau, v) -> None:
    # A deflation pair: a gapless tableau and a binary content vector with one 1 per label.
    if not gapless.is_gapless:
        raise ParameterError("a deflation pair needs a gapless tableau")
    _check_binary(v)
    if sum(v) != gapless.m:
        raise ParameterError(f"content vector has {sum(v)} ones but the tableau ceiling is {gapless.m}")


def inflate(gapless: IncreasingTableau, v: tuple[int, ...]) -> IncreasingTableau:
    """Spread a gapless tableau's labels onto the positions of the ones of v."""
    _check_pair(gapless, v)
    positions = [pos for pos, bit in enumerate(v, start=1) if bit]
    return _trusted(gapless.shape, tuple([positions[val - 1] for val in gapless.labels]), len(v))


def enumerate_increasing(shape: Poset, m: int, cap: int | None = None) -> Iterator[IncreasingTableau]:
    """All increasing tableaux with ceiling m, by backtracking along a linear extension.

    The ceiling and the cap are checked at the call; more than cap tableaux
    raise StateCapExceeded during the listing.
    """
    m = _integer(m)
    if m < 0:
        raise ParameterError("ceiling must be nonnegative")
    return _increasing(shape, m, state_cap(cap))


def _increasing(shape: Poset, m: int, cap: int) -> Iterator[IncreasingTableau]:
    n = shape.n
    if n == 0:
        yield _trusted(shape, (), m)
        return
    topo = shape.topo
    # Labels and lower covers by position along topo; position[x] is where x sits.
    position = [0] * n
    for i, x in enumerate(topo):
        position[x] = i
    lower = [tuple(position[a] for a in shape.lower[x]) for x in topo]
    # The label tuple by element; itemgetter of one index gives no tuple.
    by_element = itemgetter(*position) if n > 1 else lambda vals: (vals[0],)
    top = [m - shape.corank[x] for x in topo]
    vals = [0] * n
    last = n - 1
    count = 0
    # An explicit position i, not recursion: vals[i] is the label on trial at
    # topo[i] (0 before the first), and a position out of labels steps back.
    i = 0
    while i >= 0:
        v = vals[i]
        if v:
            v += 1
        else:
            v = 1
            for a in lower[i]:
                if vals[a] >= v:
                    v = vals[a] + 1
        if v > top[i]:
            vals[i] = 0
            i -= 1
            continue
        vals[i] = v
        if i < last:
            i += 1
            continue
        count += 1
        if count > cap:
            raise StateCapExceeded("too many increasing tableaux", cap)
        yield _trusted(shape, by_element(vals), m)


class _IdealGraph:
    """All ideals of a shape with the antichain-step successor relation, keyed by ideal mask.

    Gapless tableaux with ceiling m correspond to length-m paths from the
    empty ideal to the full one, where each step adds a nonempty subset of
    the minimal elements of the complement, and the label of a box is the
    index of the step that added it.  The graph lists each tableau as its
    label key, which the shape's sweep automaton (_Sweep) encodes and
    decodes; keys never leave the graph: class_orbits hands out label
    tuples and element masks.  succ maps each ideal mask to its successor
    masks, and paths[mask][r] is the number of r-step paths from it to the
    full ideal (a step count that cannot reach it has no entry).  sweep is the
    shape's automaton and tails the listing's memo (_tails), keyed by its state
    numbers: both live and die with the graph.  Shapes of over 255 elements are
    refused, as _tails recurses about n/2 deep, and over cap ideals, successor
    entries (each ideal's counted before they are made) or gapless tableaux
    raise StateCapExceeded.
    """

    def __init__(self, shape: Poset, cap: int | None = None):
        cap = state_cap(cap)
        n = shape.n
        if n > 255:
            raise ParameterError(f"gapless tableaux need a shape of at most 255 elements, got {n}")
        self.shape = shape
        self.sweep = _sweep(shape)
        self.tails: dict[tuple[int, int], list[int]] = {}
        lower_masks = shape.lower_masks
        full = (1 << n) - 1
        self.succ, self.paths = {}, {}
        entries = 0
        # Every successor is a strict superset, so with supersets first each
        # path count is made from finished ones.
        for mask in sorted(_ideal_masks(shape, cap), key=int.bit_count, reverse=True):
            minimal = [x for x in range(n) if not (mask >> x) & 1 and mask & lower_masks[x] == lower_masks[x]]
            entries += (1 << len(minimal)) - 1
            if entries > cap:
                raise StateCapExceeded("too many successor entries in the ideal graph", cap)
            # Targets by doubling over the minimal elements of the complement, in
            # index order: position s adds the t-th of them for each set bit t of s.
            targets = [mask]
            for x in minimal:
                targets += [t | 1 << x for t in targets]
            self.succ[mask] = tuple(targets[1:])
            counts = {0: 1} if mask == full else {}
            for nxt in self.succ[mask]:
                for r, ways in self.paths[nxt].items():
                    counts[r + 1] = counts.get(r + 1, 0) + ways
            self.paths[mask] = counts
        if sum(self.class_sizes().values()) > cap:
            raise StateCapExceeded("too many gapless tableaux", cap)

    def class_sizes(self) -> dict[int, int]:
        """Number of gapless tableaux per ceiling, in ascending order: the paths from the empty ideal."""
        return {m: ways for m, ways in sorted(self.paths[0].items()) if m}

    def class_promotions(self, target: int) -> Iterator[list[int]]:
        """The gapless tableaux of ceiling target with their K-promotion images, as sums of packed terms.

        Each sum holds a tableau's label key above the sweep's `shift` and
        its image's label key below (_Sweep splits them).  The sweep is made
        while the chains are listed.  A prefix I_0..I_(L-1) carries one sum,
        its partial key and that of its image prefix new I_0..new I_(L-2),
        and the prefixes of one level are grouped by their sweep state, the
        state of the shape's automaton (the one _promote reads) for the
        pair (new I_(L-2), I_(L-1)): every prefix of a group has the same
        successors I_L from which the full ideal is reachable in the steps
        left and, for each, the same next state (new I_(L-1), I_L).  So each
        (group, successor) pair costs one transition and one list
        comprehension, adding the next state's packed_term to the group's
        sums.  I_m = P is its own image and adds nothing.

        The prefixes grow so only to level target // 2.  What a chain adds
        after that depends only on its sweep state and the steps left, so
        each group takes its tails (the graph's memo, _tails) and the
        listing is every prefix sum plus every tail sum: one addition per
        tableau.  The sums stream out as one list per group, each prefix with
        all its tails, so no list of the ceiling's sums is ever held.
        """
        packed_term = self.sweep.packed_term
        half = target // 2
        # state -> sums; the start state 0 is the pair (0, I_0).
        groups = {0: [packed_term[0]]}
        for depth in range(half):
            grown: dict[int, list[int]] = {}
            while groups:  # popped, so each level is freed as the next one grows
                state, sums = groups.popitem()
                for to in self._steps(state, target - depth - 1):
                    add = packed_term[to]
                    extended = [total + add for total in sums]
                    entry = grown.get(to)
                    if entry is None:
                        grown[to] = extended
                    else:
                        entry += extended
            groups = grown
        while groups:
            state, sums = groups.popitem()
            tails = self._tails(state, target - half)
            yield [total + tail for total in sums for tail in tails]

    def _steps(self, state: int, remaining: int) -> Iterator[int]:
        """The states one sweep step on from state whose I_i reaches the full ideal in remaining steps."""
        moves, last = self.sweep.delta[state], self.sweep.pairs[state][1]
        paths = self.paths
        for nxt in self.succ[last]:
            if remaining in paths[nxt]:
                added = nxt ^ last
                yield moves.get(added) or _swap_step(self.sweep, state, added)

    def _tails(self, state: int, steps: int) -> list[int]:
        """The sums of packed terms along every chain that finishes the sweep from state in steps steps.

        Memoized by (state, steps) for the graph's life, which is the life of
        the automaton whose state numbers key it.
        """
        key = state, steps
        tails = self.tails.get(key)
        if tails is None:
            tails = [] if steps else [0]  # with no steps left, state's I_i is the full ideal
            for to in self._steps(state, steps - 1):
                add = self.sweep.packed_term[to]
                tails += [add + tail for tail in self._tails(to, steps - 1)]
            self.tails[key] = tails
        return tails

    def class_orbits(self, m: int) -> tuple[list[tuple[int, int, tuple[int, ...]]], int]:
        """The gapless tableaux of ceiling m split into promotion orbits: (rows, moved).

        The orbits are the cycles of the key-to-image map of the listing
        (class_promotions), popped off it (ideals._cycles).  A listing of
        another size than paths[0][m] raises, and so does a promotion that is
        not a permutation of the keys: the walk fails, and only then is the
        ceiling listed again and its images compared with its keys, to tell an
        image that is no tableau of the class from one that two tableaux
        share.  rows holds (period, orbit count, representative labels) by
        ascending period; a representative is the least label array among the
        tableaux of its period.  moved is the mask of the elements whose entry
        the m-fold promotion changes on some tableau: orbit position shifts by
        m mod the period, so this is a pairwise comparison inside each orbit.
        """
        promote = self.sweep.promotions(self.class_promotions(m))
        counted = self.paths[0].get(m, 0)
        if len(promote) != counted:
            raise RuntimeError(f"enumeration mismatch at ceiling {m}: {len(promote)} found, {counted} counted")
        counts: dict[int, tuple[int, int]] = {}
        moved = 0
        try:
            for orbit in _cycles(promote):
                tau = len(orbit)
                least = min(orbit)
                count, rep = counts.get(tau, (0, least))
                counts[tau] = (count + 1, min(rep, least))
                shift = m % tau
                if shift:
                    # Labels of the two tableaux differ exactly in the nonzero fields of the xor.
                    for s in range(tau):
                        moved |= orbit[s] ^ orbit[(s + shift) % tau]
        except RuntimeError:
            promote = self.sweep.promotions(self.class_promotions(m))
            if not set(promote.values()) <= promote.keys():
                raise RuntimeError(f"a promotion image is not a chain of ceiling {m}") from None
            raise
        fields = self.sweep.fields
        rows = [(tau, count, tuple(fields(rep))) for tau, (count, rep) in sorted(counts.items())]
        return rows, sum(1 << x for x, field in enumerate(fields(moved)) if field)


def enumerate_gapless(shape: Poset, cap: int | None = None) -> Iterator[IncreasingTableau]:
    """All gapless tableaux of a shape, for every ceiling from rk+1 to the element count.

    Within a ceiling, the tableaux come in ascending order of their label
    arrays.  The ideal graph is built at the call, so the size limit and the
    cap are checked before the iterator is returned.
    """
    graph = _IdealGraph(shape, cap)
    sweep = graph.sweep
    return (
        _trusted(shape, tuple(sweep.fields(key)), m)
        for m in range(shape.rk + 1, shape.n + 1)
        for key in sorted(sweep.keys(graph.class_promotions(m)))
    )


def promotion_census(shape: Poset, m: int) -> Counter:
    """Orbit sizes of promotion on all ceiling-m tableaux, by walking every orbit.

    The orbits are the cycles of one label-to-image-label map, popped off
    it; a promotion that is not a permutation of the tableaux raises.
    """
    image = {T.labels: promotion(T).labels for T in enumerate_increasing(shape, m)}
    return Counter(len(orbit) for orbit in _cycles(image))
