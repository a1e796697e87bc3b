import itertools
import random
from collections import Counter
from math import comb

import pytest

from minuscule import (
    IncreasingTableau,
    ParameterError,
    Poset,
    ShapeDiagram,
    StateCapExceeded,
    build_gapless_table,
    cayley_moufang,
    content_vector,
    deflate,
    enumerate_gapless,
    enumerate_ideals,
    enumerate_increasing,
    freudenthal,
    inflate,
    k_bender_knuth,
    parse_poset_spec,
    plane_partition_gf,
    poset_from_shape,
    promotion,
    promotion_census,
    propeller,
    rectangle,
    rotate_left,
    vector_inflation,
)
from minuscule.cli import _load_fixture as load_fixture
from minuscule.tableaux import _IdealGraph, _promote, _sweep


def all_increasing(shape, m):
    return list(enumerate_increasing(shape, m))


def test_validation():
    P = rectangle(2, 2)
    IncreasingTableau(P, (1, 2, 2, 3), 3)  # equal labels on an antichain are fine
    with pytest.raises(ParameterError):
        IncreasingTableau(P, (1, 1, 2, 3), 3)  # equal along a cover
    with pytest.raises(ParameterError):
        IncreasingTableau(P, (1, 2, 2, 9), 3)  # label above ceiling
    IncreasingTableau(P, (1, 1, 2, 3), 3, validate=False)  # caller's risk


def test_validation_rejects_non_integers():
    # Labels and ceiling are converted with operator.index: nothing is truncated.
    P = propeller(3)
    with pytest.raises(ParameterError):
        IncreasingTableau(P, [1.9, 2.5, 3.5, 4.5, 5.5, 6.5], 9)
    with pytest.raises(ParameterError):
        IncreasingTableau(P, [1, 2, 3, 4, 5, 6], 9.7)
    with pytest.raises(ParameterError):
        IncreasingTableau(P, "123456", 9)
    with pytest.raises(ParameterError):
        IncreasingTableau(P, [1.0, 2, 3, 4, 5, 6], 9, validate=False)
    with pytest.raises(ParameterError):
        next(enumerate_increasing(P, 9.0))
    T = IncreasingTableau(P, bytes([1, 2, 3, 4, 5, 6]), 9)  # byte labels, as _Sweep.fields gives up to 255 elements
    assert T.labels == (1, 2, 3, 4, 5, 6) and all(type(v) is int for v in T.labels)
    assert IncreasingTableau.from_text(T.to_text(), m=9) == T


def test_repr_prints_any_shape():
    # A diagram shape prints its rows; a shape given by covers, its labels.
    T = IncreasingTableau(Poset(2, [(0, 1)]), (1, 2), 2)
    assert repr(T) == "IncreasingTableau(m=2, labels=(1, 2))"
    assert repr(load_fixture("kbk_base.txt")).startswith("IncreasingTableau(m=6, rows='")
    with pytest.raises(ParameterError, match="diagram shape"):
        T.to_text()


def test_kbk_fixture_swaps():
    base = load_fixture("kbk_base.txt")
    assert base.m == 6
    for i in (3, 4, 5):
        assert k_bender_knuth(base, i) == load_fixture(f"kbk_swap_{i}.txt")
    with pytest.raises(ParameterError):
        k_bender_knuth(base, 6)
    with pytest.raises(ParameterError):
        k_bender_knuth(base, 0)


def test_kbk_is_involution_on_random_tableaux():
    rng = random.Random(7)
    pool = all_increasing(propeller(4), 9)
    for _ in range(1000):
        T = rng.choice(pool)
        i = rng.randrange(1, T.m)
        assert k_bender_knuth(k_bender_knuth(T, i), i) == T


def test_kbk_preserves_increasingness():
    for T in all_increasing(propeller(3), 7):
        for i in range(1, 7):
            image = k_bender_knuth(T, i)
            IncreasingTableau(image.shape, image.labels, image.m)  # re-validate


def test_promotion_fixture_cm():
    T = load_fixture("promotion_cm_m13_input.txt")
    assert T.shape == cayley_moufang() and T.m == 13
    assert promotion(T) == load_fixture("promotion_cm_m13_output.txt")


def test_promotion_single_box():
    box = poset_from_shape(ShapeDiagram([(0, 1)]))
    T = IncreasingTableau(box, (1,), 1)
    assert promotion(T) == T
    # At ceiling 2 the one label cycles: the one-box decode makes a tuple too.
    assert promotion(IncreasingTableau(box, (1,), 2)).labels == (2,)
    assert promotion(IncreasingTableau(box, (2,), 2)).labels == (1,)


def test_promotion_is_bijection():
    tabs = all_increasing(propeller(3), 7)
    images = {promotion(T) for T in tabs}
    assert len(images) == len(tabs)
    for T in images:
        IncreasingTableau(T.shape, T.labels, T.m)


def test_promotion_wraps_the_labels_only_step():
    # The orbit walks call _promote on label tuples; promotion() is that step in a tableau.
    for shape, m in ((cayley_moufang(), 13), (freudenthal(), 19)):
        tabs = all_increasing(shape, m)
        assert any(1 not in T.labels for T in tabs)
        sweep = _sweep(shape)
        assert all(promotion(T).labels == _promote(sweep, T.labels, m) for T in tabs)


def test_content_examples():
    T = load_fixture("deflation_input_m7.txt", m=7)
    assert content_vector(T) == (1, 1, 0, 1, 1, 1, 0)
    gapless = load_fixture("deflation_output.txt")
    assert gapless.is_gapless
    assert content_vector(gapless) == (1,) * 5
    empty = IncreasingTableau(poset_from_shape(ShapeDiagram([(0, 1)])), (1,), 1)
    assert content_vector(empty) == (1,)


def test_deflate_example_and_idempotence():
    T = load_fixture("deflation_input_m7.txt", m=7)
    S = deflate(T)
    assert S == load_fixture("deflation_output.txt")
    assert S.m == 5 and S.is_gapless
    for U in all_increasing(rectangle(2, 3), 7):
        D = deflate(U)
        assert D.is_gapless
        assert deflate(D) == D


def test_vector_inflation():
    v = (1, 1, 0, 1, 1, 1, 0)
    assert vector_inflation(v, 3) == 4
    assert vector_inflation(v, 5) == 6
    assert [vector_inflation((1, 1, 1), k) for k in (1, 2, 3)] == [1, 2, 3]
    assert vector_inflation((0, 0, 0, 1), 1) == 4
    with pytest.raises(ParameterError):
        vector_inflation(v, 6)


def test_content_vectors_must_be_binary():
    from minuscule import promote_pair

    T = next(enumerate_gapless(propeller(3)))
    assert T.m == 5
    for v in ((2, 1, 1, 1, 0), (1, 1, 1, 1, 1, -1, 1)):
        with pytest.raises(ParameterError, match="0 or 1"):
            inflate(T, v)
        with pytest.raises(ParameterError, match="0 or 1"):
            promote_pair(T, v)
        with pytest.raises(ParameterError, match="0 or 1"):
            vector_inflation(v, 1)


def test_inflate_example():
    S = load_fixture("deflation_output.txt")
    v = (1, 1, 0, 1, 1, 1, 0)
    assert inflate(S, v) == load_fixture("deflation_input_m7.txt", m=7)
    assert inflate(S, (1,) * 5) == S
    with pytest.raises(ParameterError):
        inflate(S, (1, 1, 0, 1))  # weight 3 != ceiling 5
    gappy = load_fixture("deflation_input_m7.txt", m=7)
    with pytest.raises(ParameterError):
        inflate(gappy, (1,) * 7)


def test_deflation_content_bijection_round_trip():
    # Forward and backward round trips, exhaustive.
    for shape, m in ((propeller(3), 6), (rectangle(2, 3), 7)):
        tabs = all_increasing(shape, m)
        seen = set()
        for T in tabs:
            S, v = deflate(T), content_vector(T)
            assert sum(v) == S.m == T.m_t
            assert inflate(S, v) == T
            seen.add((S, v))
        assert len(seen) == len(tabs)
        gapless_by_m = Counter(t.m for t in enumerate_gapless(shape))
        expected = sum(cnt * comb(m, n) for n, cnt in gapless_by_m.items() if n <= m)
        assert len(tabs) == expected


def test_gapless_enumeration_against_filter_oracle():
    # Independent oracle: filter the full enumeration for surjective labelings.
    for shape in (propeller(3), rectangle(2, 3)):
        via_graph = sorted(
            (t.m, t.labels) for t in enumerate_gapless(shape)
        )
        via_filter = sorted(
            (m, t.labels)
            for m in range(shape.rk + 1, shape.n + 1)
            for t in enumerate_increasing(shape, m)
            if t.m_t == m
        )
        assert via_graph == via_filter


def test_gapless_counts():
    assert sum(1 for _ in enumerate_gapless(cayley_moufang())) == 549
    for p in (3, 4, 5):
        tabs = list(enumerate_gapless(propeller(p)))
        assert len(tabs) == 3
        assert sorted(t.m for t in tabs) == [2 * p - 1, 2 * p, 2 * p]


def test_gapless_cap():
    with pytest.raises(StateCapExceeded):
        list(enumerate_gapless(cayley_moufang(), cap=100))


def test_enumerate_increasing_counts():
    p3 = propeller(3)
    assert sum(1 for _ in enumerate_increasing(p3, 5)) == 1  # minimal ceiling forces ranks
    assert sum(1 for _ in enumerate_increasing(p3, 8)) == comb(8, 5) + 2 * comb(8, 6)
    chain = poset_from_shape(ShapeDiagram([(0, 1)] * 1))
    assert sum(1 for _ in enumerate_increasing(chain, 3)) == 3
    # Independent count via the product formula: tableaux with ceiling m
    # biject with plane partitions of height m - rk - 1.
    from minuscule import plane_partition_gf

    grid = rectangle(2, 3)
    assert sum(1 for _ in enumerate_increasing(grid, 7)) == plane_partition_gf(grid, 3)(1)


def test_enumerate_increasing_order_and_count():
    # Strictly increasing in the lexicographic order of labels read along
    # topo, as many as plane partitions of height m - rk - 1, and none at a
    # ceiling of rk or less.
    for spec, m in (("cayley-moufang", 14), ("freudenthal", 19), ("rectangle-3x4", 10), ("propeller-4", 12)):
        shape = parse_poset_spec(spec)
        keys = [tuple(t.labels[x] for x in shape.topo) for t in enumerate_increasing(shape, m)]
        assert all(a < b for a, b in zip(keys, keys[1:])), spec
        assert len(keys) == plane_partition_gf(shape, m - shape.rk - 1)(1), spec
        for low in range(shape.rk + 1):
            assert next(enumerate_increasing(shape, low), None) is None, (spec, low)


def test_label_set_evolution_under_partial_sweeps():
    # Applying rho_{i_r} .. rho_{i_{r+1}-1} replaces label i_r with i_{r+1}-1
    # and leaves the rest of the label set unchanged.
    rng = random.Random(11)
    pool = all_increasing(rectangle(2, 3), 8)
    for _ in range(300):
        T = rng.choice(pool)
        present = sorted(set(T.labels))
        r = rng.randrange(len(present))
        i_r = present[r]
        i_next = present[r + 1] if r + 1 < len(present) else T.m + 1
        cur = T
        for i in range(i_r, i_next - 1):
            cur = k_bender_knuth(cur, i)
        expected = sorted(set(present) - {i_r} | {i_next - 1})
        assert sorted(set(cur.labels)) == expected


def test_promotion_commutes_with_deflation():
    # Exhaustive on two shapes: tableaux containing label 1 deflate-then-promote
    # the same as promote-then-deflate; the rest just shift down by one.
    for shape, m in ((propeller(3), 8), (rectangle(2, 3), 7)):
        for T in all_increasing(shape, m):
            image = promotion(T)
            if content_vector(T)[0] == 1:
                assert deflate(image) == promotion(deflate(T))
            else:
                assert image.labels == tuple(v - 1 for v in T.labels)


def test_content_rotation():
    for shape, m in ((propeller(3), 8), (propeller(4), 8), (rectangle(2, 3), 7)):
        for T in all_increasing(shape, m):
            assert content_vector(promotion(T)) == rotate_left(content_vector(T))


def test_empty_shape_degenerates():
    from minuscule import Poset

    empty = Poset(0, [])
    tabs = list(enumerate_increasing(empty, 3))
    assert len(tabs) == 1 and tabs[0].labels == ()
    assert deflate(tabs[0]).m == 0
    assert content_vector(deflate(tabs[0])) == ()
    gapless = list(enumerate_gapless(empty))
    assert len(gapless) == 1 and gapless[0].m == 0


def test_enumerate_increasing_cap():
    with pytest.raises(StateCapExceeded):
        list(enumerate_increasing(rectangle(2, 3), 7, cap=10))
    # A bad ceiling or cap is refused when a listing is made, not when it is first read.
    with pytest.raises(ParameterError, match="state cap must be positive"):
        enumerate_increasing(rectangle(2, 3), 7, cap=0)
    with pytest.raises(ParameterError, match="ceiling must be nonnegative"):
        enumerate_increasing(rectangle(2, 3), -1)
    with pytest.raises(ParameterError, match="state cap must be positive"):
        enumerate_gapless(rectangle(2, 3), cap=0)
    with pytest.raises(StateCapExceeded, match="too many gapless tableaux"):
        enumerate_gapless(cayley_moufang(), cap=100)
    with pytest.raises(ParameterError, match="at most 255 elements"):
        enumerate_gapless(rectangle(1, 256))
    with pytest.raises(ParameterError, match="state cap must be positive"):
        enumerate_ideals(rectangle(2, 3), cap=0)


def test_enumerate_increasing_deep_chain():
    # A 1,200-element chain: the backtracking must not recurse per element.
    from minuscule import chain_product

    (only,) = enumerate_increasing(chain_product(rectangle(1, 1), 1200), 1200)
    assert only.labels == tuple(range(1, 1201))


def test_promotion_commutation_sampled_on_cayley_moufang():
    rng = random.Random(3)
    cm = cayley_moufang()
    gapless13 = [t for t in enumerate_gapless(cm) if t.m <= 13]
    for _ in range(60):
        S = rng.choice(gapless13)
        v = [0] * 13
        ones = rng.sample(range(13), S.m)
        for pos in ones:
            v[pos] = 1
        T = inflate(S, tuple(v))
        image = promotion(T)
        if v[0] == 1:
            assert deflate(image) == promotion(deflate(T))
        else:
            assert image.labels == tuple(x - 1 for x in T.labels)


def test_text_format_round_trip():
    for name, m in (("kbk_base.txt", None), ("promotion_cm_m13_input.txt", None), ("deflation_input_m7.txt", 7)):
        T = load_fixture(name, m=m)
        assert IncreasingTableau.from_text(T.to_text(), m=T.m) == T
    with pytest.raises(ParameterError):
        IncreasingTableau.from_text("1,.,2")
    with pytest.raises(ParameterError, match="bad tableau row"):
        IncreasingTableau.from_text("1,2\n.")


def by_kbk(T):
    """rho_(m-1) o ... o rho_1, one k_bender_knuth call at a time: the promotion oracle."""
    for i in range(1, T.m):
        T = k_bender_knuth(T, i)
    return T


def swap_by_components(shape):
    """rho_i on ideal masks (lo, mid, hi), read off the components of the {i, i+1} boxes: the swap oracle.

    The boxes of hi - lo are joined along covers by graph search; the box of
    a singleton component changes side of mid, every other box stays.
    """
    adjacent = [0] * shape.n
    for a, b in shape.covers:
        adjacent[a] |= 1 << b
        adjacent[b] |= 1 << a

    def swap(lo, mid, hi):
        boxes = unseen = hi & ~lo
        new = mid
        while unseen:
            start = unseen & -unseen
            component = frontier = start
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                grown = adjacent[bit.bit_length() - 1] & boxes & ~component
                component |= grown
                frontier |= grown
            unseen &= ~component
            if component == start:
                new ^= start
        return new

    return swap


@pytest.mark.parametrize(
    "shape",
    [propeller(3), rectangle(2, 3), parse_poset_spec("shifted-staircase-4"), Poset(9, [])],
    ids=["propeller-3", "rectangle-2x3", "shifted-staircase-4", "antichain-9"],
)
def test_swap_rule_matches_component_oracle(shape):
    # Every chain lo <= mid <= hi of ideals whose differences are antichains.
    from minuscule.tableaux import _rho

    ideals = [ideal.mask for ideal in enumerate_ideals(shape)]
    down = shape.down_masks
    antichain = [
        all(down[x] & d == 1 << x for x in range(shape.n) if d >> x & 1) for d in range(1 << shape.n)
    ]
    steps = {lo: [mid for mid in ideals if mid & lo == lo and antichain[mid & ~lo]] for lo in ideals}
    triples = [(lo, mid, hi) for lo in ideals for mid in steps[lo] for hi in steps[mid]]
    oracle = swap_by_components(shape)
    moved = 0
    for lo, mid, hi in triples:
        expected = oracle(lo, mid, hi)
        assert _rho(shape.lower_masks, lo, mid, hi) == expected, (lo, mid, hi)
        moved += expected != mid
    assert moved  # the rule is exercised, not only its fixed points
    if not shape.covers:
        assert len(triples) == 4**shape.n  # each element below lo, in mid - lo, in hi - mid or above hi


def listing(graph, m):
    """The grouped listing of ceiling m as (tableau, image labels) pairs.

    The listed label keys must be class_sizes()[m] distinct keys, each the
    label array of a valid gapless tableau (built by the validating constructor).
    """
    sweep = _sweep(graph.shape)
    fields = sweep.fields
    listed = list(graph.class_promotions(m))
    keys = sweep.keys(listed)
    promote = sweep.promotions(listed)
    assert len(set(keys)) == len(keys) == len(promote) == graph.class_sizes()[m]
    pairs = []
    for key, image in promote.items():
        T = IncreasingTableau(graph.shape, fields(key), m)
        assert T.is_gapless
        pairs.append((T, tuple(fields(image))))
    return pairs


def test_transducer_matches_kbk_oracle():
    # Every gapless tableau: the sweep of the table build and the general
    # promotion both equal the oracle; gappy tableaux go through deflation
    # and inflation.
    for spec in ("rectangle-3x4", "shifted-staircase-5", "cayley-moufang"):
        shape = parse_poset_spec(spec)
        graph = _IdealGraph(shape)
        for m in graph.class_sizes():
            for T, image in listing(graph, m):
                expected = by_kbk(T)
                assert promotion(T) == expected
                assert image == expected.labels
    for T in all_increasing(cayley_moufang(), 13):
        assert promotion(T) == by_kbk(T)
    # Every Freudenthal tableau at m=19, with and without label 1; the images
    # come from the unvalidated constructor, so check them as the validating one would.
    without_one = 0
    for T in all_increasing(freudenthal(), 19):
        without_one += 1 not in T.labels
        image = promotion(T)
        assert image == by_kbk(T)
        assert all(type(v) is int for v in image.labels)
        assert image.shape is T.shape
        assert hash(image) == hash(IncreasingTableau(T.shape, image.labels, T.m))
    assert 0 < without_one < 1463
    # A 9-element antichain has 512 ideals, more than one byte indexes.
    wide = Poset(9, [])
    graph = _IdealGraph(wide)
    for m in (1, 2):
        for T, image in listing(graph, m):
            assert image == by_kbk(T).labels


def test_grouped_listing_matches_chains_and_sweep():
    # The listing that carries each tableau's promotion image lists every
    # gapless tableau of the ceiling once, and each image is the public
    # promotion of its tableau.
    staircase = poset_from_shape(ShapeDiagram([(0, 3), (0, 2), (0, 1)]))
    shapes = [parse_poset_spec(s) for s in ("rectangle-3x4", "shifted-staircase-5", "cayley-moufang")]
    shapes.append(staircase)
    ceilings = [list(_IdealGraph(shape).class_sizes()) for shape in shapes]
    # A 9-element antichain has 512 ideals.
    shapes.append(Poset(9, []))
    ceilings.append([1, 2])
    for shape, ms in zip(shapes, ceilings):
        graph = _IdealGraph(shape)
        for m in ms:
            for T, image in listing(graph, m):
                assert image == promotion(T).labels
    # Independent oracle for the listed tableaux: filter the full enumeration
    # for surjective labelings.
    for shape in (propeller(3), rectangle(2, 3), staircase):
        graph = _IdealGraph(shape)
        for m in graph.class_sizes():
            via_listing = sorted(T.labels for T, _ in listing(graph, m))
            via_filter = sorted(t.labels for t in enumerate_increasing(shape, m) if t.m_t == m)
            assert via_listing == via_filter


def test_labels_fit_one_byte_up_to_255_elements():
    # Up to 255 elements a label, which can reach the element count, fits
    # one byte of a key.  The table build takes no more elements, as its tail
    # listing (_IdealGraph._tails) recurses about n/2 deep; 256 are refused
    # before any listing.
    (chain,) = enumerate_gapless(rectangle(1, 255))
    assert chain.labels == tuple(range(1, 256))
    assert promotion(chain) == chain
    # From 128 elements on, a count no longer fits seven bits.
    rng = random.Random(255)
    for n in (128, 255):
        # A chain of n - 1 boxes and one free box: the free box shares a
        # label with the chain or takes one of its own, so ceilings n - 1 and n.
        shape = Poset(n, [(x, x + 1) for x in range(n - 2)])
        graph = _IdealGraph(shape)
        assert graph.class_sizes() == {n - 1: n - 1, n: n}
        for m in graph.class_sizes():
            pairs = listing(graph, m)
            for T, image in pairs:
                assert image == promotion(T).labels
            for T, image in rng.sample(pairs, 3):
                assert image == by_kbk(T).labels
            # Read as bytes, each listed sum is the tableau's labels and then its
            # image's: a field reaches the ceiling and carries into no neighbour.
            raw = [total.to_bytes(2 * n, "big") for sums in graph.class_promotions(m) for total in sums]
            assert sorted((r[:n], r[n:]) for r in raw) == sorted(
                (bytes(T.labels), bytes(promotion(T).labels)) for T, _ in pairs
            )
            assert max(max(r[:n]) for r in raw) == max(max(r[n:]) for r in raw) == m
        table = build_gapless_table(shape)
        assert sum(row.period * row.orbits for row in table.rows) == 2 * n - 1
    T = _random_linear_labels(rectangle(2, 64), 200, rng)
    assert promotion(T) == by_kbk(T)
    for shape in (rectangle(1, 256), Poset(300, [])):
        with pytest.raises(ParameterError, match="at most 255 elements"):
            list(enumerate_gapless(shape))
        with pytest.raises(ParameterError, match="at most 255 elements"):
            build_gapless_table(shape)


def _random_linear_labels(shape, m, rng):
    """A tableau with ceiling m and n distinct labels, 1 among them, along a random linear extension."""
    order, placed = [], 0
    while len(order) < shape.n:
        ready = [x for x in range(shape.n) if not (placed >> x) & 1 and shape.lower_masks[x] & ~placed == 0]
        x = rng.choice(ready)
        order.append(x)
        placed |= 1 << x
    labels = [0] * shape.n
    for x, v in zip(order, [1] + sorted(rng.sample(range(2, m + 1), shape.n - 1))):
        labels[x] = v
    return IncreasingTableau(shape, labels, m)


def test_promotion_matches_kbk_on_random_orders():
    # Seeded random orders of 1 to 9 elements: distinct labels along a random
    # linear extension, and labels that climb the covers by random steps, so
    # that incomparable boxes share labels and label 1 may be missing.
    from test_poset import _random_covers

    rng = random.Random(20261021)
    for _ in range(60):
        n = rng.randint(1, 9)
        shape = Poset(n, _random_covers(rng, n))
        tableaux = [_random_linear_labels(shape, n + rng.randint(0, 3), rng)]
        labels = [0] * n
        for x in shape.topo:
            labels[x] = max((labels[a] for a in shape.lower[x]), default=0) + rng.randint(1, 2)
        tableaux.append(IncreasingTableau(shape, labels, max(labels) + rng.randint(0, 2)))
        for T in tableaux:
            assert promotion(T) == by_kbk(T), (shape.covers, T.labels, T.m)


def test_promotion_matches_kbk_across_the_field_width_boundaries():
    # A key field counts up to the element count: one byte up to 255 elements,
    # two from 256.  One random tableau on each side of the 128 and 256 boundaries,
    # on random covers between layers of 8 elements.
    from test_poset import _layered_covers

    rng = random.Random(127)
    for n in (127, 128, 255, 256):
        shape = Poset(n, _layered_covers(rng, n))
        T = _random_linear_labels(shape, n + 3, rng)
        assert promotion(T) == by_kbk(T), n


def test_promotion_decodes_wide_shapes_and_high_labels():
    # With more than 255 distinct labels, a box can lie outside more of the
    # swept ideals than one byte counts, so the sweep's per-box fields widen.
    rng = random.Random(20)
    chain = rectangle(1, 300)
    gapless = IncreasingTableau(chain, range(1, 301), 300)
    assert promotion(gapless) == gapless == by_kbk(gapless)
    for shape in (chain, rectangle(2, 150)):
        for m in (300, 400):
            T = _random_linear_labels(shape, m, rng)
            assert T.m_t == 300
            assert promotion(T) == by_kbk(T)
    # Labels above 255 on a small shape: gappy inflations of every gapless
    # propeller-3 tableau, with and without label 1.
    shape = propeller(3)
    for T in enumerate_gapless(shape):
        for m in (256, 300):
            for first in (0, 1):
                ones = set(rng.sample(range(1, m), T.m - first))
                if first:
                    ones.add(0)
                gappy = inflate(T, tuple(int(pos in ones) for pos in range(m)))
                assert (1 in gappy.labels) == bool(first)
                assert promotion(gappy) == by_kbk(gappy)


def test_promotion_never_enumerates_ideals(monkeypatch):
    # rectangle(8, 8) has 12,870 ideals; a single promotion must not list them.
    from minuscule import ideals, tableaux

    def refuse(*args, **kwargs):
        raise AssertionError("promotion enumerated the shape's ideals")

    monkeypatch.setattr(ideals, "_ideal_masks", refuse)
    monkeypatch.setattr(tableaux, "_ideal_masks", refuse)
    shape = rectangle(8, 8)
    rank = shape.rank
    gapless = IncreasingTableau(shape, [r + 1 for r in rank], 15)
    assert promotion(gapless) == gapless == by_kbk(gapless)
    for offset in (1, 2):  # gappy, with and without label 1
        gappy = IncreasingTableau(shape, [2 * r + offset for r in rank], 31)
        assert promotion(gappy) == by_kbk(gappy) != gappy


def test_table_build_and_promotion_share_one_sweep_automaton(monkeypatch):
    # The build and promotion() read one sweep automaton per shape: once a
    # build has filled it, neither the listing nor promotion() takes its
    # miss path again.
    from minuscule import tableaux

    shape = parse_poset_spec("shifted-staircase-5")
    build_gapless_table(shape)

    def refuse(*args):
        raise AssertionError("a step missed the automaton")

    monkeypatch.setattr(tableaux, "_swap_step", refuse)
    graph = _IdealGraph(shape)
    for m in graph.class_sizes():
        for T, image in listing(graph, m):
            assert promotion(T).labels == image


def test_listing_survives_an_evicted_automaton():
    # The graph holds the automaton its tails memo is keyed by. Clearing _sweep's
    # cache between the ceilings of a listing makes _sweep(shape) start a new
    # automaton that numbers its states afresh; the listing must go on with the
    # graph's own, so the memo's state numbers still name the states they did.
    shape = cayley_moufang()
    expected = [(T.m, T.labels) for T in enumerate_gapless(shape)]
    tableaux = enumerate_gapless(shape)
    listed = []
    for m, size in _IdealGraph(shape).class_sizes().items():
        listed += [(T.m, T.labels) for T in itertools.islice(tableaux, size)]
        before = _sweep(shape)
        _sweep.cache_clear()
        assert _sweep(shape) is not before
        # The new automaton fills in another order than the listing's did.
        for labels_m, labels in listed[::-5]:
            promotion(IncreasingTableau(shape, labels, labels_m))
    assert next(tableaux, None) is None
    assert listed == expected
    # The memo lives and dies with its graph: a second build lists from an empty one.
    graph = _IdealGraph(shape)
    graph.class_orbits(shape.n)
    assert graph.tails and not _IdealGraph(shape).tails


def test_promotion_census_walk_is_bounded(monkeypatch):
    # A promotion onto one tableau must fail the census, not hang it.
    from minuscule import tableaux

    shape = propeller(3)
    sink = next(enumerate_increasing(shape, 8))
    monkeypatch.setattr(tableaux, "promotion", lambda t: sink)
    with pytest.raises(RuntimeError, match="within"):
        promotion_census(shape, 8)


def test_ideal_graph_walks_a_linear_extension():
    # A 4-chain indexed top down: index order is no linear extension, yet each
    # ideal reaches the full one by one path, of as many steps as its complement has elements.
    chain = Poset(4, [(3, 2), (2, 1), (1, 0)])
    graph = _IdealGraph(chain)
    assert graph.paths == {mask: {4 - mask.bit_count(): 1} for mask in (0, 0b1000, 0b1100, 0b1110, 0b1111)}
    assert graph.class_sizes() == {4: 1}
    # Its one tableau labels the elements 4, 3, 2, 1 and is its own promotion.
    ((T, image),) = listing(graph, 4)
    assert T.labels == image == (4, 3, 2, 1)


def _surjections(c, r):
    # Ways to label c antichain elements by r steps, each step used: inclusion-exclusion.
    return sum((-1) ** j * comb(r, j) * (r - j) ** c for j in range(r + 1))


@pytest.mark.parametrize("spec", ["chain-4-top-down", "antichain-9", "cayley-moufang", "rectangle-3x4"])
def test_path_counts_span_the_complements_chain_to_its_size(spec):
    # From an ideal, the full ideal is reached in r steps exactly for r from
    # the longest chain of the complement (one step per element of it) up to
    # the complement's size (one element per step).  Chains and ideals come
    # from the covers alone here.
    shape = {
        "chain-4-top-down": Poset(4, [(3, 2), (2, 1), (1, 0)]),
        "antichain-9": Poset(9, []),
    }.get(spec) or parse_poset_spec(spec)
    n = shape.n
    graph = _IdealGraph(shape)
    ideals = [
        mask for mask in range(1 << n)
        if all((mask >> a) & 1 for a, b in shape.covers if (mask >> b) & 1)
    ]
    assert sorted(graph.paths) == ideals
    height = {}  # longest chain upward from each element, counted in elements
    for x in sorted(range(n), key=lambda x: -shape.rank[x]):
        height[x] = 1 + max((height[b] for a, b in shape.covers if a == x), default=0)
    for mask in ideals:
        rest = [x for x in range(n) if not (mask >> x) & 1]
        longest = max((height[x] for x in rest), default=0)
        assert sorted(graph.paths[mask]) == list(range(longest, len(rest) + 1))
        if not shape.covers:
            assert graph.paths[mask] == {r: _surjections(len(rest), r) for r in graph.paths[mask]}
    sizes = graph.class_sizes()
    assert 0 not in sizes and list(sizes) == sorted(sizes)
    # The empty shape's one path has no steps, and 0 is no ceiling.
    empty = _IdealGraph(Poset(0, []))
    assert empty.paths == {0: {0: 1}} and empty.class_sizes() == {}
    if spec == "antichain-9":
        # 7,087,261 tableaux: the surjection counts above stand in for the listing.
        assert sum(sizes.values()) == 7_087_261
    else:
        assert sizes == Counter(T.m for T in enumerate_gapless(shape))
