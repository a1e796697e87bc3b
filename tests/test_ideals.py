import itertools
from collections import Counter
from random import Random

import pytest

from minuscule import (
    OrderIdeal,
    ParameterError,
    PlanePartition,
    Poset,
    StateCapExceeded,
    cayley_moufang,
    chain_product,
    enumerate_ideals,
    freudenthal,
    ideal_to_plane_partition,
    plane_partition_gf,
    plane_partition_to_ideal,
    poset_from_shape,
    propeller,
    rectangle,
    rowmotion,
    rowmotion_orbits,
    ShapeDiagram,
)


def brute_force_ideal_masks(P):
    """2^n filter oracle, independent of the pruned enumeration."""
    lower = {x: [a for a, b in P.covers if b == x] for x in range(P.n)}
    out = []
    for mask in range(1 << P.n):
        if all(
            all((mask >> a) & 1 for a in lower[x])
            for x in range(P.n)
            if (mask >> x) & 1
        ):
            out.append(mask)
    return sorted(out)


def test_ideal_counts_against_brute_force():
    for P in (propeller(3), rectangle(2, 3), cayley_moufang()):
        fast = sorted(i.mask for i in enumerate_ideals(P))
        assert fast == brute_force_ideal_masks(P)
    assert len(brute_force_ideal_masks(cayley_moufang())) == 27


def test_ideal_counts_match_generating_function():
    assert sum(1 for _ in enumerate_ideals(cayley_moufang())) == 27 == plane_partition_gf(cayley_moufang(), 1)(1)
    assert sum(1 for _ in enumerate_ideals(freudenthal())) == 56 == plane_partition_gf(freudenthal(), 1)(1)


def test_chain_ideal_count():
    chain = chain_product(poset_from_shape(ShapeDiagram([(0, 1)])), 4)
    assert sum(1 for _ in enumerate_ideals(chain)) == 5


def test_enumeration_cap():
    with pytest.raises(StateCapExceeded):
        list(enumerate_ideals(cayley_moufang(), cap=5))


def test_rowmotion_extremes():
    P = propeller(3)
    empty = OrderIdeal(P, 0)
    image = rowmotion(empty)
    assert image.members() == P.minimal()
    full = OrderIdeal(P, (1 << P.n) - 1)
    assert rowmotion(full).mask == 0


def test_ideal_mask_must_be_down_closed():
    # In rectangle(2, 2) element 3 is the top, so {3} alone is no ideal; an
    # action stepped on it would return an ideal without complaint.
    P = rectangle(2, 2)
    with pytest.raises(ParameterError, match="down-closed"):
        OrderIdeal(P, 0b1000)
    with pytest.raises(ParameterError, match="down-closed"):
        OrderIdeal(P, 0b0110)
    with pytest.raises(ParameterError, match="out of range"):
        OrderIdeal(P, 1 << P.n)
    assert OrderIdeal(P, 0b0111).members() == [0, 1, 2]
    # The library's own ideals are down-closed without the check.
    for ideal in enumerate_ideals(chain_product(P, 2)):
        assert ideal.is_down_closed() and rowmotion(ideal).is_down_closed()


def test_rowmotion_is_bijection():
    for P in (rectangle(2, 2), propeller(3), chain_product(rectangle(2, 2), 2)):
        masks = [i.mask for i in enumerate_ideals(P)]
        images = {rowmotion(OrderIdeal(P, m)).mask for m in masks}
        assert images == set(masks)


def definitional_rowmotion(P):
    """Rowmotion on P as a function of masks: the down-closure of the minimal
    elements of the complement, computed on sets from the covers alone."""
    below = {x: {x} for x in range(P.n)}
    for x in P.topo:
        for a, b in P.covers:
            if b == x:
                below[x] |= below[a]

    def image(mask):
        complement = {x for x in range(P.n) if not (mask >> x) & 1}
        minimal = {x for x in complement if not (below[x] - {x}) & complement}
        return sum(1 << y for y in set().union(*(below[x] for x in minimal)))

    return image


def test_rowmotion_matches_set_definition():
    from minuscule import ideals

    # Element counts 0, 8, 9, 48, 54 and 66 cover empty, whole, partial and multi-word byte chunks.
    products = (
        chain_product(rectangle(2, 2), 0),
        chain_product(rectangle(2, 2), 2),
        chain_product(rectangle(3, 3), 1),
        chain_product(cayley_moufang(), 3),
        chain_product(freudenthal(), 2),
        chain_product(rectangle(1, 2), 33),
    )
    assert [P.n for P in products] == [0, 8, 9, 48, 54, 66]
    for P in products:
        oracle = definitional_rowmotion(P)
        for ideal in enumerate_ideals(P):
            assert rowmotion(ideal).mask == oracle(ideal.mask)
        # The census's bit-parallel step, on every ideal of the product at once.
        base, k = P.product_of
        masks = [ideal.mask for ideal in enumerate_ideals(P)] + [0] * 8  # a top byte of empty ideals
        columns, full = ideals._mask_columns(masks, P.n), (1 << len(masks)) - 1
        assert ideals._lane_masks(columns, full) == masks
        image, moved = ideals._sweep_step(base, k)(columns, columns, full)
        assert ideals._lane_masks(image, full) == [oracle(m) for m in masks]
        assert moved == sum(1 << j for j, m in enumerate(masks) if oracle(m) != m)


def test_rowmotion_orbit_walk_is_bounded(monkeypatch):
    # A rowmotion that is not a bijection must fail the census, not hang it.
    from minuscule import ideals

    monkeypatch.setattr(ideals, "_sweep_step", lambda poset, k: lambda ideal, start, full: ([0] * (poset.n * k), full))
    with pytest.raises(RuntimeError, match="within"):
        rowmotion_orbits(propeller(3), 1)


def test_cycle_walker_pops_a_permutation_into_its_cycles():
    from minuscule.ideals import _cycles

    perm = {1: 2, 2: 3, 3: 1, 4: 4, 5: 6, 6: 5}
    image = dict(perm)
    cycles = list(_cycles(image))
    assert image == {}
    assert sorted(sorted(c) for c in cycles) == [[1, 2, 3], [4], [5, 6]]
    for c in cycles:  # keys in walk order
        assert [perm[a] for a in c] == c[1:] + c[:1]
    # Repeated images and images outside the keys.
    for bad in ({1: 2, 2: 3, 3: 2}, {1: 2, 2: 1, 3: 1}, {1: 2, 2: 9}, {1: 9}):
        with pytest.raises(RuntimeError, match="within"):
            list(_cycles(bad))


def test_orbit_summary_from_state_counts():
    from minuscule.ideals import OrbitSummary

    summary = OrbitSummary.from_states(Counter({4: 8, 1: 3}))
    assert summary.orbit_sizes == ((1, 3), (4, 2)) and summary.total_states == 11
    with pytest.raises(RuntimeError, match="do not split into orbits"):
        OrbitSummary.from_states(Counter({4: 6}))


def test_rowmotion_orbits_checks_the_cap_before_listing(monkeypatch):
    # freudenthal x 7 has 144,538,624 ideals: the count alone must refuse it.
    from minuscule import ideals

    def refuse(*args, **kwargs):
        raise AssertionError("the census listed ideals past the state cap")

    monkeypatch.setattr(ideals, "_multichain_chunks", refuse)
    with pytest.raises(StateCapExceeded):
        rowmotion_orbits(freudenthal(), 7, cap=10**6)


def test_a_warm_lattice_still_checks_the_cap_before_listing(monkeypatch):
    # With freudenthal's count rows stored up to k = 7, a census under a smaller cap
    # is refused from the stored counts of ideals of P x k (7), sub-ideal pairs (2,
    # 1,463) and ideals of P (1, 56), before any ideal is listed.
    from minuscule import ideals

    P = freudenthal()
    rowmotion_orbits(P, 2)
    assert ideals._lattice(P).count(7, 10**9) == 144_538_624

    def refuse(*args, **kwargs):
        raise AssertionError("the census listed ideals past the state cap")

    monkeypatch.setattr(ideals, "_multichain_chunks", refuse)
    for k, cap in ((7, 10**6), (2, 1000), (1, 50)):
        with pytest.raises(StateCapExceeded):
            rowmotion_orbits(P, k, cap=cap)


def test_recounts_of_one_shape_list_its_ideals_once(monkeypatch):
    # Censuses of one shape at k = 2..6 share its lattice: its ideals and their
    # sub-ideal lists are made once, and every census matches one on a cold lattice.
    from minuscule import ideals

    P = propeller(3)
    cold = []
    for k in range(2, 7):
        ideals._lattice.cache_clear()
        cold.append(rowmotion_orbits(P, k))
    ideals._lattice.cache_clear()
    calls = Counter()
    for name in ("_ideal_masks", "_sub_ideals"):
        real = getattr(ideals, name)
        monkeypatch.setattr(ideals, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    assert [rowmotion_orbits(P, k) for k in range(2, 7)] == cold
    assert calls == {"_ideal_masks": 1, "_sub_ideals": 1}


def test_a_deep_census_keeps_a_bounded_tail():
    # rectangle(2, 2) x 60 lists its last 32 levels from the lattice's tails; the
    # lattice keeps only the shallow levels, at most _TAIL_BYTES >> 4 = 256 KB of them,
    # as traced on a copy of what it keeps (the tails are built untraced).
    import pickle
    import tracemalloc

    from minuscule import ideals

    ideals._lattice.cache_clear()
    lattice = ideals._lattice(rectangle(2, 2))
    assert lattice.count(60, 10**7) == 1_231_041
    lattice.tail(32)  # the depth the census of rectangle(2, 2) x 60 lists with
    tails = lattice.tails
    ideals._lattice.cache_clear()
    saved = pickle.dumps(tails)
    tracemalloc.start()
    try:
        copy = pickle.loads(saved)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert copy == tails and 1 < len(tails) - 1 < 25
    assert 0 < kept <= 256 * 1024


def test_the_lattice_hands_out_immutable_tables():
    # A census that changed a shared table would change every later census of the shape.
    from minuscule import ideals

    P = propeller(4)
    rowmotion_orbits(P, 5)
    lattice = ideals._lattice(P)
    assert len(lattice.tails) > 1

    def immutable(table):  # ints, bytes, and tuples of them at any depth
        return isinstance(table, (int, bytes)) or isinstance(table, tuple) and all(map(immutable, table))

    tables = [lattice.masks, lattice.cells, lattice.subs, lattice.below, lattice.tails, lattice.tail(4)]
    assert all(map(immutable, tables))
    for table in tables:
        with pytest.raises(TypeError):
            table[0] = table[0]


def test_rowmotion_orbits_refuses_a_listing_short_of_the_count(monkeypatch):
    # The census checks its listing against the count table: a listing that
    # skips one chunk of ideals raises instead of reporting fewer orbits.
    from minuscule import ideals

    chunks = ideals._multichain_chunks

    def one_chunk_short(*args):
        listed = chunks(*args)
        next(listed)
        return listed

    monkeypatch.setattr(ideals, "_CHUNK", 5)
    monkeypatch.setattr(ideals, "_multichain_chunks", one_chunk_short)
    with pytest.raises(RuntimeError, match="but counted"):
        rowmotion_orbits(propeller(3), 2)


def test_rowmotion_orbits_across_chunks(monkeypatch):
    # Orbits straddle chunk boundaries; sizes are divided out only at the end.
    from minuscule import ideals

    cases = ((cayley_moufang(), 2), (propeller(4), 3), (rectangle(1, 1), 40))
    expected = [rowmotion_orbits(P, k) for P, k in cases]
    for chunk in (5, 8):
        monkeypatch.setattr(ideals, "_CHUNK", chunk)
        assert [rowmotion_orbits(P, k) for P, k in cases] == expected
    # Lanes left behind restart from where they stand, in later and narrower sweeps.
    monkeypatch.setattr(ideals, "_CHUNK", 1 << 16)
    monkeypatch.setattr(ideals, "_STRAGGLERS", 0)
    assert [rowmotion_orbits(P, k) for P, k in cases] == expected


def test_multichain_listing_is_the_product_ideals(monkeypatch):
    # Read every streamed multichain back into a mask of P x k: each ideal exactly once,
    # whether the levels come from precomputed tails or from the depth-first walk above them.
    from minuscule import ideals

    # rectangle(1, 2) x 12: walks that stop at the empty ideal inside a chunk, zero-padded.
    cases = (
        (rectangle(2, 2), 4), (propeller(3), 1), (rectangle(3, 3), 2), (cayley_moufang(), 3), (rectangle(1, 1), 9),
        (rectangle(1, 2), 12),
    )
    # Each budget on a fresh lattice: at 1 << 14 it keeps a few shallow tail levels
    # and builds the deeper ones from them.  Chunks of 7 lanes fill part of one byte
    # per plane, and of 19 lanes two bytes and part of a third.
    for chunk, budget, (P, k) in itertools.product((7, 19), (0, 300, 1 << 14, ideals._TAIL_BYTES), cases):
        monkeypatch.setattr(ideals, "_CHUNK", chunk)
        monkeypatch.setattr(ideals, "_TAIL_BYTES", budget)
        lattice = ideals._Lattice(P)
        lattice.count(k, 10**6)
        width = (P.n + 7) // 8
        listed = []
        for lanes, planes in ideals._multichain_chunks(lattice, k):
            assert lanes <= chunk and all(len(plane) == lanes for plane in planes)
            masks = []
            for j in range(lanes):
                mask = 0
                for i in range(k):
                    level = int.from_bytes(bytes(planes[i * width + p][j] for p in range(width)), "little")
                    mask |= sum(1 << (x * k + i) for x in range(P.n) if level >> x & 1)
                masks.append(mask)
            # The transposed chunk holds the same ideals, lane j at bit j.
            assert ideals._lane_masks(ideals._bit_columns(lanes, planes, P.n, k, width), (1 << lanes) - 1) == masks
            listed += masks
        assert sorted(listed) == sorted(ideals._ideal_masks(chain_product(P, k)))


def test_multichain_planes_stay_within_one_chunk(monkeypatch):
    # Every plane is allocated one chunk long and each run, of a walk level or from a
    # tail, is written in place at its lanes: no plane grows past its chunk, however
    # many multichains lie below a shallow level's ideal.
    from minuscule import ideals

    longest = 0

    class Plane(bytearray):
        def __iadd__(self, other):
            nonlocal longest
            result = super().__iadd__(other)
            longest = max(longest, len(self))
            return result

        def __setitem__(self, index, value):
            nonlocal longest
            super().__setitem__(index, value)
            longest = max(longest, len(self))

    cases = ((rectangle(2, 2), 8), (rectangle(1, 2), 30), (propeller(3), 4))
    expected = [rowmotion_orbits(P, k) for P, k in cases]
    monkeypatch.setattr(ideals, "bytearray", Plane, raising=False)
    for chunk, budget in itertools.product((7, 64), (0, ideals._TAIL_BYTES)):
        monkeypatch.setattr(ideals, "_CHUNK", chunk)
        monkeypatch.setattr(ideals, "_TAIL_BYTES", budget)
        longest = 0
        assert [rowmotion_orbits(P, k) for P, k in cases] == expected
        assert 0 < longest <= chunk


def test_rowmotion_orbits_on_random_posets(monkeypatch):
    # Seeded random orders with small products: the census, over several chunk sizes
    # and tail budgets, against the cycles of the set-definition rowmotion on every
    # ideal of P x k.
    from minuscule import ideals
    from test_poset import _random_covers

    rng = Random(20261020)
    budgets = (0, 300, ideals._TAIL_BYTES)
    cases = 0
    while cases < 60:
        n, k = rng.randint(0, 8), rng.randint(0, 3)
        P = Poset(n, _random_covers(rng, n))
        product = chain_product(P, k)
        masks = [ideal.mask for ideal in enumerate_ideals(product)]
        if len(masks) > 300:  # keeps the run under a second
            continue
        cases += 1
        image = definitional_rowmotion(product)
        expected = Counter(map(len, ideals._cycles({m: image(m) for m in masks})))
        for chunk, budget in itertools.product((5, 1 << 16), budgets):
            monkeypatch.setattr(ideals, "_CHUNK", chunk)
            monkeypatch.setattr(ideals, "_TAIL_BYTES", budget)
            summary = rowmotion_orbits(P, k)
            assert (summary.sizes(), summary.total_states) == (expected, len(masks)), (P.covers, k, chunk, budget)


def test_multichain_walk_stops_at_the_empty_ideal(monkeypatch):
    # With no tails, the walk over rectangle(1, 1) x 50 follows only the full ideal,
    # once per level: it never iterates the empty ideal's sub-ideals.
    from minuscule import ideals

    class Counted(list):
        # The sub-ideal list of ideal a, counting how often it is iterated.
        def __init__(self, a, inside):
            super().__init__(sorted(inside))
            self.a = a

        def __iter__(self):
            iterated[self.a] += 1
            return super().__iter__()

    monkeypatch.setattr(ideals, "_TAIL_BYTES", 0)
    k = 50
    lattice = ideals._Lattice(rectangle(1, 1))
    lattice.count(k, 10**6)
    lattice.subs = tuple(Counted(a, inside) for a, inside in enumerate(lattice.subs))
    iterated = Counter()
    listed = sum(lanes for lanes, _ in ideals._multichain_chunks(lattice, k))
    assert listed == k + 1
    assert iterated[0] == 0
    assert sum(iterated.values()) <= k


def test_rowmotion_orbit_example_2x2():
    summary = rowmotion_orbits(rectangle(2, 2), 1)
    assert summary.total_states == 6
    assert summary.orbit_sizes == ((2, 1), (4, 1))
    assert summary.fixed_by_power(2) == 2
    assert summary.fixed_by_power(4) == 6
    assert summary.order() == 4


def test_rowmotion_orbits_singleton_chain():
    single = poset_from_shape(ShapeDiagram([(0, 1)]))
    for k in (1, 2, 5):
        summary = rowmotion_orbits(single, k)
        assert summary.orbit_sizes == ((k + 1, 1),)


def test_rowmotion_orbits_cap():
    with pytest.raises(StateCapExceeded):
        rowmotion_orbits(cayley_moufang(), 1, cap=10)
    # 1,024 ideals fit the cap, but their 3^10 sub-ideal pairs do not.
    with pytest.raises(StateCapExceeded):
        rowmotion_orbits(Poset(10, []), 2, cap=2000)
    # The count rows stop at the first level past the cap, not at level k.
    with pytest.raises(StateCapExceeded):
        rowmotion_orbits(rectangle(1, 1), 10**9, cap=1000)
    with pytest.raises(ParameterError, match="nonnegative"):
        rowmotion_orbits(cayley_moufang(), -1)


def test_state_count_matches_generating_function():
    for P, kmax in ((propeller(3), 3), (cayley_moufang(), 2), (rectangle(2, 3), 2)):
        for k in range(kmax + 1):
            summary = rowmotion_orbits(P, k)
            assert summary.total_states == plane_partition_gf(P, k)(1)


def test_plane_partition_round_trip_exhaustive():
    P = rectangle(2, 2)
    product = chain_product(P, 2)
    for ideal in enumerate_ideals(product):
        pp = ideal_to_plane_partition(ideal)
        back = plane_partition_to_ideal(pp)
        assert back.mask == ideal.mask and back.poset == product


def test_plane_partition_extremes():
    P = propeller(3)
    product = chain_product(P, 2)
    empty = ideal_to_plane_partition(OrderIdeal(product, 0))
    assert set(empty.heights) == {0}
    full = ideal_to_plane_partition(OrderIdeal(product, (1 << product.n) - 1))
    assert set(full.heights) == {2}


def test_plane_partition_validation():
    P = rectangle(2, 2)
    with pytest.raises(ParameterError):
        # Heights increasing along a cover: not order-reversing.
        PlanePartition(P, 2, (0, 1, 1, 2))
    with pytest.raises(ParameterError):
        ideal_to_plane_partition(OrderIdeal(P, 0))  # not a chain product
    with pytest.raises(ParameterError, match="length"):
        PlanePartition(P, 2, (2, 1, 1))
    with pytest.raises(ParameterError, match="outside 0..2"):
        PlanePartition(P, 2, (3, 1, 1, 0))


def test_sizes_count_ideal_cardinalities():
    P = propeller(3)
    product = chain_product(P, 1)
    by_size = Counter(len(i) for i in enumerate_ideals(product))
    gf = plane_partition_gf(P, 1)
    assert [by_size.get(e, 0) for e in range(gf.degree + 1)] == list(gf.coeffs)
