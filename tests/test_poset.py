import json
from collections import Counter
from random import Random

import pytest

from minuscule import (
    ParameterError,
    Poset,
    ShapeDiagram,
    build_minuscule_poset,
    cayley_moufang,
    chain_product,
    freudenthal,
    load_poset,
    parse_poset_spec,
    poset_from_shape,
    propeller,
    rank_vector,
    rectangle,
    shifted_staircase,
)


def test_family_sizes_and_ranks():
    cm = cayley_moufang()
    assert cm.n == 16 and cm.rk == 10
    pf = freudenthal()
    assert pf.n == 27 and pf.rk == 16
    for p in (3, 4, 5):
        pp = propeller(p)
        assert pp.n == 2 * p and pp.rk == 2 * p - 2


def test_unique_min_and_max():
    for P in (cayley_moufang(), freudenthal(), propeller(4), rectangle(2, 3), shifted_staircase(3)):
        assert len(P.minimal()) == 1
        assert len(P.maximal()) == 1


def test_all_ranks_attained_on_cayley_moufang():
    ranks = set(rank_vector(cayley_moufang()))
    assert ranks == set(range(11))


def test_maximal_chain_through_any_element_has_full_length():
    # In every built-in family, the longest chain through x always has the
    # poset's full chain length, regardless of x.
    for P in (propeller(3), propeller(5), cayley_moufang(), freudenthal(), rectangle(2, 3), shifted_staircase(3)):
        assert all(P.rank[x] + P.corank[x] == P.rk for x in range(P.n)), P.family


def test_freudenthal_heights():
    # Independent longest-chain oracle through the full order relation,
    # not the cover-based pass used by the constructor.
    pf = freudenthal()
    below = {x: {a for a, b in pf.covers if b == x} for x in range(pf.n)}

    def chain_len(x, memo={}):
        if x not in memo:
            memo[x] = max((chain_len(a) + 1 for a in below[x]), default=0)
        return memo[x]

    oracle = [chain_len(x) for x in range(pf.n)]
    assert list(pf.rank) == oracle
    heights = [r + 1 for r in pf.rank]
    assert max(heights) == 17
    assert sum(heights) == 243


def test_propeller_shape_matches_diagram():
    assert propeller(5).shape.rows == ((0, 5), (3, 5))
    assert poset_from_shape(ShapeDiagram([(0, 5), (3, 5)])) == propeller(5)


def test_shape_examples():
    sq = poset_from_shape(ShapeDiagram([(0, 2), (0, 2)]))
    assert sq.n == 4 and len(sq.minimal()) == 1 and len(sq.maximal()) == 1
    single = poset_from_shape(ShapeDiagram([(0, 1)]))
    assert single.n == 1 and single.rk == 0


def test_bad_parameters():
    with pytest.raises(ParameterError):
        propeller(2)
    with pytest.raises(ParameterError):
        rectangle(0, 3)
    with pytest.raises(ParameterError):
        ShapeDiagram([(0, 0)])
    with pytest.raises(ParameterError, match="at least one row"):
        ShapeDiagram([])
    with pytest.raises(ParameterError, match="offsets must be nonnegative"):
        ShapeDiagram([(-1, 2)])
    with pytest.raises(ParameterError, match="staircase size"):
        shifted_staircase(0)
    with pytest.raises(ParameterError, match="chain length"):
        chain_product(propeller(3), -1)
    with pytest.raises(ParameterError, match="rows 0 and 1 share no column"):
        poset_from_shape(ShapeDiagram([(0, 1), (5, 1)]))
    with pytest.raises(ParameterError, match="rows 1 and 2 share no column"):
        poset_from_shape(ShapeDiagram([(0, 2), (1, 2), (3, 2)]))


def test_cover_list_validation():
    with pytest.raises(ParameterError):
        Poset(3, [(0, 1), (1, 2), (0, 2)])  # (0, 2) implied
    with pytest.raises(ParameterError):
        Poset(2, [(0, 1), (1, 0)])  # cycle
    with pytest.raises(ParameterError):
        Poset(2, [(0, 1), (0, 1)])  # duplicate
    with pytest.raises(ParameterError, match="nonnegative"):
        Poset(-1, [])
    with pytest.raises(ParameterError, match="out of range"):
        Poset(2, [(0, 2)])


def test_chain_product():
    single = poset_from_shape(ShapeDiagram([(0, 1)]))
    c3 = chain_product(single, 3)
    assert c3.n == 3 and c3.rk == 2
    assert rank_vector(chain_product(single, 4)) == (0, 1, 2, 3)
    p3 = propeller(3)
    assert chain_product(p3, 2).n == 12
    cm = cayley_moufang()
    assert chain_product(cm, 1) == Poset(16, cm.covers)
    assert chain_product(cm, 0).n == 0
    for P in (p3, rectangle(2, 2)):
        for k in (1, 2, 3):
            prod = chain_product(P, k)
            assert prod.n == P.n * k
            assert prod.rk == P.rk + k - 1


def test_transitive_reduction_of_products():
    # No cover may be implied by two others; the constructor enforces this,
    # so rebuilding from the cover list must succeed.
    for P in (chain_product(propeller(3), 2), chain_product(rectangle(2, 2), 3)):
        assert Poset(P.n, P.covers) == P


def test_serialization_stable_and_diffable(tmp_path):
    cm1, cm2 = cayley_moufang(), cayley_moufang()
    assert cm1.canonical_json() == cm2.canonical_json()
    assert cm1.digest() == cm2.digest()
    path = tmp_path / "poset.json"
    path.write_text(cm1.canonical_json())
    assert load_poset(str(path)) == cm1


def test_digest_is_computed_once_and_unchanged(monkeypatch):
    import hashlib
    import pickle

    from minuscule import poset as poset_module

    P = freudenthal()
    expected = hashlib.sha256(P.canonical_json().encode()).hexdigest()
    assert P.digest() == expected
    # Later calls read the stored value; a pickled copy (as a pool worker
    # receives it) carries it along.
    monkeypatch.setattr(poset_module.hashlib, "sha256", None)
    assert P.digest() == expected
    assert pickle.loads(pickle.dumps(P)).digest() == expected


def test_posets_and_shapes_refuse_assignment():
    # Equal posets share one sweep automaton for the process, so a poset that
    # could be changed would poison every equal shape's promotion.
    import copy
    import pickle

    from minuscule import IncreasingTableau, promotion
    from minuscule.tableaux import _sweep

    P = propeller(4)
    with pytest.raises(AttributeError):
        P.lower_masks = (0,) * 8
    with pytest.raises(AttributeError):
        P.shape.rows = ((0, 1),)
    _sweep(P)
    T = IncreasingTableau(propeller(4), tuple(range(1, 9)), 8)
    assert promotion(T).labels == (1, 2, 3, 5, 4, 6, 7, 8)
    # Pickle (a pool task) and copy restore the slots past the refusal.
    P.digest()
    for clone in (pickle.loads(pickle.dumps(P)), copy.copy(P), copy.deepcopy(P)):
        assert clone == P and clone.shape == P.shape and clone.lower_masks == P.lower_masks
        assert clone._digest == P.digest()
        with pytest.raises(AttributeError):
            clone.n = 0


def test_load_poset_shape_form(tmp_path):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"shape": {"rows": [[0, 5], [3, 5]]}}))
    assert load_poset(str(path)) == propeller(5)
    for data, message in (({"covers": [[0, 1]]}, "explicit element count"), ({"n": 2}, "'shape' or 'covers'")):
        path.write_text(json.dumps(data))
        with pytest.raises(ParameterError, match=message):
            load_poset(str(path))


def test_parse_poset_spec():
    assert parse_poset_spec("cayley-moufang").n == 16
    assert parse_poset_spec("propeller-4") == propeller(4)
    assert parse_poset_spec("rectangle-2x3") == rectangle(2, 3)
    assert parse_poset_spec("shifted-staircase-3") == shifted_staircase(3)
    for bad in ("dodecahedron", "rectangle-3", "rectangle-2x3x4", "freudenthal-2", "propeller-x", "propeller-2"):
        with pytest.raises(ParameterError):
            parse_poset_spec(bad)


def test_build_minuscule_poset_dispatch():
    assert build_minuscule_poset("propeller", 5) == propeller(5)
    assert build_minuscule_poset("cayley-moufang").n == 16
    with pytest.raises(ParameterError):
        build_minuscule_poset("simply-laced")


def _relabelled(P, rng):
    # P with its elements renamed by a random permutation, so topo is not the identity.
    perm = list(range(P.n))
    rng.shuffle(perm)
    return Poset(P.n, [(perm[a], perm[b]) for a, b in P.covers])


def _closure(n, covers):
    # reach[a][b]: b is reachable from a along covers (a itself included), by Floyd-Warshall.
    reach = [[a == b for b in range(n)] for a in range(n)]
    for a, b in covers:
        reach[a][b] = True
    for c in range(n):
        for a in range(n):
            if reach[a][c]:
                for b in range(n):
                    reach[a][b] = reach[a][b] or reach[c][b]
    return reach


def _random_covers(rng, n):
    # The cover relation of a random order on 0..n-1: a random relation, closed
    # transitively and then reduced, with elements renamed.
    perm = list(range(n))
    rng.shuffle(perm)
    reach = _closure(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.35])
    return [
        (perm[a], perm[b]) for a in range(n) for b in range(n)
        if a != b and reach[a][b] and not any(reach[a][c] and reach[c][b] for c in range(n) if c not in (a, b))
    ]


def _layered_covers(rng, n, width=8):
    # Random covers between consecutive layers of `width` elements, with elements
    # renamed: a path climbs one layer per cover, so no cover is implied by others.
    perm = list(range(n))
    rng.shuffle(perm)
    return [
        (perm[a], perm[b]) for a in range(n)
        for b in range((a // width + 1) * width, min(n, (a // width + 2) * width)) if rng.random() < 0.3
    ]


def _posets_for_derived_data():
    rng = Random(20261019)
    families = [
        cayley_moufang(), freudenthal(), propeller(3), propeller(5), rectangle(2, 3),
        shifted_staircase(4), chain_product(propeller(3), 2),
    ]
    posets = families + [_relabelled(P, rng) for P in families]
    posets += [Poset(n, _random_covers(rng, n)) for n in [0, 1, 2] + [rng.randint(3, 9) for _ in range(60)]]
    return posets


def test_derived_data_matches_closure_and_longest_chains():
    for P in _posets_for_derived_data():
        n = P.n
        reach = _closure(n, P.covers)
        as_mask = lambda bits: sum(1 << b for b in range(n) if bits[b])
        assert P.up_masks == tuple(as_mask(reach[x]) for x in range(n))
        assert P.down_masks == tuple(as_mask([reach[a][x] for a in range(n)]) for x in range(n))
        # Longest chains ending and starting at x, over the whole order, by memoized search.
        rank, corank = {}, {}

        def up_to(x):
            if x not in rank:
                rank[x] = max((up_to(a) + 1 for a in range(n) if a != x and reach[a][x]), default=0)
            return rank[x]

        def down_from(x):
            if x not in corank:
                corank[x] = max((down_from(b) + 1 for b in range(n) if b != x and reach[x][b]), default=0)
            return corank[x]

        assert P.rank == tuple(up_to(x) for x in range(n))
        assert P.corank == tuple(down_from(x) for x in range(n))


def test_every_added_transitive_cover_is_refused():
    refused = 0
    for P in _posets_for_derived_data():
        if P.n > 16:
            continue
        reach = _closure(P.n, P.covers)
        covers = set(P.covers)
        for a in range(P.n):
            for b in range(P.n):
                if a != b and reach[a][b] and (a, b) not in covers:
                    with pytest.raises(ParameterError, match=rf"cover \({a}, {b}\) is implied by a longer path"):
                        Poset(P.n, P.covers + ((a, b),))
                    refused += 1
    assert refused > 500


def _connected_by_search(shape):
    # The graph search over a diagram's covers that once guarded poset_from_shape.
    boxes = shape.boxes()
    index = {b: i for i, b in enumerate(boxes)}
    adj = [[] for _ in boxes]
    for (r, c), i in index.items():
        for nb in ((r, c + 1), (r + 1, c)):
            if nb in index:
                adj[i].append(index[nb])
                adj[index[nb]].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(boxes)


def test_connectivity_rule_matches_graph_search():
    # Rows that abut without sharing a column, such as (0, 2) under (2, 2), touch
    # only at a corner and are disconnected; random rows hit that edge often.
    rng = Random(7)
    cases = [[(0, 2), (2, 2)], [(2, 2), (0, 2)], [(0, 2), (1, 2)], [(1, 2), (0, 2)], [(0, 3), (1, 1), (3, 2)]]
    cases += [[(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))] for _ in range(2000)]
    outcomes = Counter()
    for rows in cases:
        shape = ShapeDiagram(rows)
        connected = _connected_by_search(shape)
        outcomes[connected] += 1
        if connected:
            assert poset_from_shape(shape).n == len(shape.boxes())
        else:
            with pytest.raises(ParameterError, match=r"disconnected: rows \d+ and \d+ share no column"):
                poset_from_shape(shape)
    assert outcomes[True] > 100 and outcomes[False] > 100
