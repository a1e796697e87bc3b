import json

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
        up = [0] * P.n
        for x in reversed(P.topo):
            up[x] = max((up[y] + 1 for y in P.upper[x]), default=0)
        assert all(P.rank[x] + up[x] == P.rk for x in range(P.n)), P.family


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
    with pytest.raises(ParameterError):
        poset_from_shape(ShapeDiagram([(0, 1), (5, 1)]))  # disconnected


def test_cover_list_validation():
    with pytest.raises(ParameterError):
        Poset(3, [(0, 1), (1, 2), (0, 2)])  # (0, 2) implied
    with pytest.raises(ParameterError):
        Poset(2, [(0, 1), (1, 0)])  # cycle
    with pytest.raises(ParameterError):
        Poset(2, [(0, 1), (0, 1)])  # duplicate


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


def test_load_poset_shape_form(tmp_path):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"shape": {"rows": [[0, 5], [3, 5]]}}))
    assert load_poset(str(path)) == propeller(5)


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
