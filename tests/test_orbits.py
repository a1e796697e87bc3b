import json
import sys
from collections import Counter
from dataclasses import replace
from importlib import resources
from math import comb, gcd, lcm
from random import Random

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
    count_fixed,
    count_fixed_qbinomial,
    deflate,
    enumerate_gapless,
    enumerate_increasing,
    exact_period_vector_count,
    frame,
    frame_check,
    freudenthal,
    inflate,
    inflated_period,
    load_or_build_table,
    max_dual_tree_filter,
    max_tree_ideal,
    parse_poset_spec,
    poset_from_shape,
    promote_pair,
    promotion,
    promotion_census,
    promotion_order,
    propeller,
    rectangle,
    rotate_left,
    rowmotion_orbits,
    shifted_staircase,
    verify_csp,
)
from minuscule import cli, orbits
from minuscule.ideals import OrbitSummary, _ideal_masks
from minuscule.qpoly import (
    RootOfUnityValue, _factor_residue, _hook_factors, eval_at_root, is_zero_at_primitive_root,
    plane_partition_gf,
)
from minuscule.orbits import CspRecord, load_table, packaged_table, promotion_orbits, save_table


def census_fixed(sizes: Counter, j: int) -> int:
    return sum(s * n for s, n in sizes.items() if j % s == 0)


def test_propeller_tables():
    for p in (3, 4, 5, 6):
        table = build_gapless_table(propeller(p))
        assert table.triples() == [[2 * p - 1, 1, 1], [2 * p, 2, 1]]
        assert table.total == 3


def test_table_row_invariants(cm_table):
    assert sum(r.period * r.orbits for r in cm_table.rows) == cm_table.total == 549
    for r in cm_table.rows:
        rep = IncreasingTableau(cayley_moufang(), r.rep, r.m_t)
        assert rep.is_gapless
        cur = promotion(rep)
        steps = 1
        while cur != rep:
            cur = promotion(cur)
            steps += 1
        assert steps == r.period


def test_table_periods_divide_class_order(cm_table, pf_table):
    for table in (cm_table, pf_table):
        by_class: dict[int, list[int]] = {}
        for r in table.rows:
            by_class.setdefault(r.m_t, []).append(r.period)
        for periods in by_class.values():
            order = lcm(*periods)
            assert all(order % p == 0 for p in periods)


def test_inflated_period_examples():
    assert inflated_period(12, 12, 3, 1) == 3  # gapless: all-ones content has period 1
    assert inflated_period(8, 7, 1, 8) == 8
    with pytest.raises(ParameterError):
        inflated_period(8, 7, 1, 3)  # 3 does not divide 8
    with pytest.raises(ParameterError):
        inflated_period(9, 7, 1, 3)  # no vector: 9 does not divide 21
    with pytest.raises(ParameterError, match="positive"):
        inflated_period(8, 7, 0, 8)


def test_inflated_period_brute_force():
    # The single gapless ceiling-7 tableau of the 8-element propeller,
    # inflated to ceiling 8 with one gap, has promotion period 8.
    p4 = propeller(4)
    S = next(t for t in enumerate_gapless(p4) if t.m == 7)
    v = (1, 1, 1, 1, 1, 1, 1, 0)
    T = inflate(S, v)
    assert inflated_period(8, 7, 1, 8) == 8
    cur = promotion(T)
    steps = 1
    while cur != T:
        cur = promotion(cur)
        steps += 1
    assert steps == 8


def test_period_bound_from_row_divisibility(cm_table, pf_table):
    # For the least j with period | j * m_t, every inflation of that row has
    # period dividing j * m; brute-forced on propellers below.
    tables = [(build_gapless_table(propeller(p)), 2 * p - 1) for p in (3, 4)]
    tables += [(cm_table, 11), (pf_table, 17)]
    for table, m_min in tables:
        for m in range(m_min, m_min + 6):
            for row in table.rows:
                if row.m_t > m:
                    continue
                j = 1
                while (j * row.m_t) % row.period:
                    j += 1
                for e in range(1, m + 1):
                    if m % e or (e * row.m_t) % m or exact_period_vector_count(m, row.m_t, e) == 0:
                        continue
                    assert (j * m) % inflated_period(m, row.m_t, row.period, e) == 0


def test_multiple_rows_inflate_to_exact_multiples(pf_table):
    # Rows whose period is an exact multiple j of their ceiling inflate to
    # period j * m for every admissible content period.
    for row in pf_table.rows:
        if row.period % row.m_t:
            continue
        j = row.period // row.m_t
        for m in range(row.m_t, row.m_t + 8):
            for e in range(1, m + 1):
                if m % e or (e * row.m_t) % m or exact_period_vector_count(m, row.m_t, e) == 0:
                    continue
                assert inflated_period(m, row.m_t, row.period, e) == j * m


def test_table_orbits_match_the_census_on_random_posets():
    # Seeded random orders: the orbit sizes read off the table, at the least
    # ceiling, the next one and a ceiling with gaps, against a walk of every
    # increasing tableau.
    from test_poset import _random_covers
    from minuscule.tableaux import _IdealGraph

    rng = Random(20261020)
    cases = 0
    while cases < 40:
        n = rng.randint(3, 8)
        P = Poset(n, _random_covers(rng, n))
        sizes = _IdealGraph(P).class_sizes()
        # Tableaux of ceiling n + 1: each gapless one of ceiling t, spread over t of the n + 1 labels.
        if sum(sizes.values()) > 3_000 or sum(ways * comb(n + 1, t) for t, ways in sizes.items()) > 30_000:
            continue  # keeps the run under a second
        cases += 1
        table = build_gapless_table(P)
        for m in (P.rk + 1, P.rk + 2, n + 1):
            assert promotion_orbits(table, m).sizes() == promotion_census(P, m), (P.covers, m)


def test_realized_orbit_sizes_divide_action_order():
    for p in (3, 4):
        shape = propeller(p)
        table = build_gapless_table(shape)
        for m in range(2 * p - 1, 2 * p + 4):
            census = promotion_census(shape, m)
            order = promotion_order(shape, m, table=table).period
            assert all(order % s == 0 for s in census)


def test_pair_promotion_commutes_exhaustively():
    shape = propeller(3)
    for m in (6, 7):
        for T in enumerate_increasing(shape, m):
            S, v = deflate(T), content_vector(T)
            got = promote_pair(S, v)
            image = promotion(T)
            assert got == (deflate(image), content_vector(image))


def test_pair_promotion_cases():
    p4 = propeller(4)
    S = next(t for t in enumerate_gapless(p4) if t.m == 7)
    v = (0, 1, 1, 1, 1, 1, 1, 1)
    assert promote_pair(S, v) == (S, rotate_left(v))
    ones = (1,) * 7
    assert promote_pair(S, ones) == (promotion(S), ones)
    with pytest.raises(ParameterError):
        promote_pair(S, (1, 0, 1))
    gappy = inflate(S, v)
    with pytest.raises(ParameterError, match="gapless"):
        promote_pair(gappy, (1,) * 8)


def test_exact_period_vector_count():
    assert exact_period_vector_count(6, 5, 6) == 6
    assert exact_period_vector_count(6, 3, 2) == 2  # 101010 and 010101
    assert exact_period_vector_count(6, 3, 6) == 18
    assert exact_period_vector_count(4, 2, 4) == 4
    assert exact_period_vector_count(12, 12, 1) == 1
    # Total over exact periods is the plain binomial.
    from math import comb

    for m, n in ((6, 3), (8, 4), (12, 5)):
        total = sum(
            exact_period_vector_count(m, n, e)
            for e in range(1, m + 1)
            if m % e == 0 and (n * e) % m == 0
        )
        assert total == comb(m, n)


def test_exact_period_must_be_positive():
    for e in (0, -1, -2, -6):
        with pytest.raises(ParameterError, match="positive divisor"):
            exact_period_vector_count(6, 3, e)
    with pytest.raises(ParameterError, match="m positive"):
        exact_period_vector_count(0, 0, 1)


def test_count_fixed_against_census_small():
    for shape, table in ((propeller(3), build_gapless_table(propeller(3))),):
        for m in range(5, 10):
            census = promotion_census(shape, m)
            order = promotion_order(shape, m, table=table).period
            for j in range(1, order + 1):
                if order % j == 0:
                    assert count_fixed(table, m, j) == census_fixed(census, j)


def test_count_fixed_monotone_and_total(cm_table):
    m = 14
    order = promotion_order(cayley_moufang(), m, table=cm_table).period
    total = count_fixed(cm_table, m, order)
    assert total == sum(1 for _ in enumerate_increasing(cayley_moufang(), m))
    divs = [j for j in range(1, order + 1) if order % j == 0]
    for a in divs:
        for b in divs:
            if b % a == 0:
                assert count_fixed(cm_table, m, a) <= count_fixed(cm_table, m, b)
    with pytest.raises(ParameterError, match="positive"):
        count_fixed(cm_table, m, 0)


def test_burnside_consistency(cm_table, pf_table):
    for table, poset, ms in ((cm_table, cayley_moufang(), (12, 16)), (pf_table, freudenthal(), (22, 24))):
        for m in ms:
            order = promotion_order(poset, m, table=table).period
            total = sum(count_fixed(table, m, gcd(d, order)) for d in range(1, order + 1))
            assert total % order == 0


def test_qbinomial_form_agrees_where_valid(cm_table):
    # On tables whose periods divide their ceilings the closed form and the
    # general sum agree for every divisor.
    for table, poset in ((cm_table, cayley_moufang()), (build_gapless_table(propeller(4)), propeller(4))):
        for m in range(poset.rk + 1, poset.rk + 13):
            for d in range(1, m + 1):
                if m % d == 0:
                    assert count_fixed_qbinomial(table, m, d) == count_fixed(table, m, m // d)


def test_qbinomial_form_rejects_freudenthal(pf_table):
    with pytest.raises(ParameterError):
        count_fixed_qbinomial(pf_table, 24, 2)
    with pytest.raises(ParameterError, match="must divide"):
        count_fixed_qbinomial(pf_table, 24, 5)


def test_promotion_order_reports(cm_table):
    rep = promotion_order(cayley_moufang(), 12, table=cm_table)
    assert rep.period == 12 and rep.max_orbit == 12
    assert rep.witness is not None and rep.witness.m == 12
    rep17 = promotion_order(cayley_moufang(), 17, table=cm_table)
    assert rep17.period == 17
    assert rep17.witness.m_t < 17  # witness is a strict inflation
    with pytest.raises(ParameterError):
        promotion_order(cayley_moufang(), 10, table=cm_table)


def test_promotion_order_checks_the_ceiling_before_any_table(monkeypatch, capsys):
    from minuscule import orbits
    from minuscule.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("looked up a table for an impossible ceiling")

    monkeypatch.setattr(orbits, "load_or_build_table", refuse)
    with pytest.raises(ParameterError, match="ceiling 2"):
        promotion_order(rectangle(4, 4), 2)
    assert main(["period", "--poset", "rectangle-4x4", "--m", "2"]) == 3
    assert "ceiling 2" in capsys.readouterr().err


def test_promotion_order_matches_brute_force():
    for p, ms in ((3, range(5, 10)), (4, range(7, 10))):
        shape = propeller(p)
        table = build_gapless_table(shape)
        for m in ms:
            census = promotion_census(shape, m)
            rep = promotion_order(shape, m, table=table)
            assert rep.period == lcm(*census)
            assert rep.max_orbit == max(census)


def test_rowmotion_and_promotion_orbit_multisets_agree():
    # The two dynamical systems have the same orbit-size multiset.
    cases = [(propeller(3), k) for k in range(0, 4)]
    cases += [(cayley_moufang(), 1), (cayley_moufang(), 2), (freudenthal(), 1)]
    for shape, k in cases:
        m = shape.rk + k + 1
        psi = rowmotion_orbits(shape, k)
        pro = promotion_census(shape, m)
        assert Counter(dict(psi.orbit_sizes)) == pro
        assert promotion_orbits(load_or_build_table(shape), m) == psi


def test_rowmotion_census_certifies_the_headline_range():
    # The paper's range on the plane-partition side: a full rowmotion census of
    # P x k, against the shipped tables' promotion orbits at m = k + rk + 1.
    summaries = {}
    for shape, ks in ((freudenthal(), (3, 4, 5)), (cayley_moufang(), range(3, 7))):
        table = packaged_table(shape)
        for k in ks:
            summaries[shape.family, k] = summary = rowmotion_orbits(shape, k)
            assert summary == promotion_orbits(table, k + shape.rk + 1), (shape.family, k)
    # Freudenthal height 5, where sieving fails: no plane partition is fixed by rowmotion.
    height5 = summaries["freudenthal", 5]
    assert height5.total_states == 2_785_552
    assert height5.orbit_sizes == ((22, 126_610), (66, 2))
    assert height5.fixed_by_power(1) == 0


def test_low_height_sieving_on_other_minuscule_families():
    # Height <= 2 sieving is a theorem for every minuscule family; the
    # rectangles and staircases have very different orbit tables, so this
    # exercises the whole pipeline on independent structure.
    for shape in (rectangle(2, 3), rectangle(3, 3), rectangle(2, 4), shifted_staircase(3), shifted_staircase(4)):
        table = build_gapless_table(shape)
        for k in (0, 1, 2):
            assert verify_csp(shape, k, table=table).holds, (shape.family, k)


def test_verify_csp_records(cm_table):
    verdict = verify_csp(cayley_moufang(), 1, table=cm_table)
    assert verdict.holds and verdict.order == 12 and verdict.m == 12
    assert verdict.psi_cross_checked  # 27 states, well under the recount cap
    assert [r.fixed_count for r in verdict.records][-1] == 27
    data = verdict.to_dict()
    assert data["holds"] is True
    assert len(data["records"]) == 12
    big = verify_csp(cayley_moufang(), 8, table=cm_table)
    assert big.holds and not big.psi_cross_checked
    with pytest.raises(ParameterError, match="nonnegative"):
        verify_csp(cayley_moufang(), -1, table=cm_table)


def test_verify_csp_values_are_the_roots_values(cm_table, pf_table):
    # One value per primitive order, from the factors or the polynomial, must
    # give every record the per-d value of the expanded polynomial.
    for shape, table, ks in (
        (cayley_moufang(), cm_table, (0, 1, 2, 3, 4, 5, 6, 25, 80)),
        (freudenthal(), pf_table, (*range(8), 10, 16)),
        (propeller(4), build_gapless_table(propeller(4)), range(7)),
        (rectangle(3, 4), build_gapless_table(rectangle(3, 4)), range(4)),
        (shifted_staircase(5), build_gapless_table(shifted_staircase(5)), range(4)),
    ):
        for k in ks:
            verdict = verify_csp(shape, k, table=table)
            gf = plane_partition_gf(shape, k)
            assert [r.d for r in verdict.records] == list(range(1, verdict.order + 1))
            for r in verdict.records:
                assert r.value == eval_at_root(gf, verdict.order, r.d), (shape.family, k, r.d)


# (cases the factors decide, cases) over every divisor of the action's order
# at k = 0..40; Freudenthal's undecided cases are those of every k >= 5.
_FACTOR_DECIDED = {
    "cayley-moufang": (183, 183),
    "freudenthal": (330, 485),
    "propeller-3": (173, 173),
    "propeller-4": (173, 173),
    "propeller-5": (179, 179),
    "propeller-6": (183, 183),
    "rectangle-3x4": (165, 173),
    "shifted-staircase-5": (173, 179),
}


@pytest.mark.parametrize("spec", _FACTOR_DECIDED)
def test_root_values_read_from_the_factors(spec):
    # Every residue the factors decide is eval_at_root's on the expanded polynomial.
    shape = parse_poset_spec(spec)
    table = load_or_build_table(shape)
    decided = cases = 0
    for k in range(41):
        order = promotion_orbits(table, k + shape.rk + 1).order()
        numer, denom = _hook_factors(shape, k)
        gf = plane_partition_gf(shape, k)
        for g in range(1, order + 1):
            if order % g:
                continue
            cases += 1
            residue = _factor_residue(numer, denom, order // g)
            if residue is not None:
                decided += 1
                assert residue == eval_at_root(gf, order, g).residue, (k, g)
    assert (decided, cases) == _FACTOR_DECIDED[spec]


# The (shape, height) of every verify_csp query of the sieve workload.
SIEVE_QUERIES = [("cayley-moufang", k) for k in (*range(21), 25, 80)]
SIEVE_QUERIES += [("freudenthal", k) for k in (*range(8), 10, 16)]
SIEVE_QUERIES += [(f"propeller-{p}", k) for p in range(3, 7) for k in range(7)]
SIEVE_QUERIES += [(spec, k) for spec in ("rectangle-3x4", "shifted-staircase-5") for k in range(4)]


def test_verify_csp_builds_the_polynomial_only_for_undecided_roots(monkeypatch):
    # Over the heights a sieve pass queries, only Freudenthal k >= 5 has a
    # primitive order the factors leave open, and each query builds once.
    built = []
    real = orbits.plane_partition_gf

    def spy(poset, k):
        built.append((poset.family, k))
        return real(poset, k)

    monkeypatch.setattr(orbits, "plane_partition_gf", spy)
    tables = {}
    for spec, k in SIEVE_QUERIES:
        shape = parse_poset_spec(spec)
        if spec not in tables:
            tables[spec] = load_or_build_table(shape)
        verify_csp(shape, k, table=tables[spec])
    assert built == [("freudenthal", k) for k in (5, 6, 7, 10, 16)]


def _eager_records(shape, k: int, table, order: int) -> tuple[CspRecord, ...]:
    """Every record d = 1..order built one by one, each class gcd(d, order) counted
    afresh from the table and the expanded polynomial."""
    m = k + shape.rk + 1
    gf = plane_partition_gf(shape, k)
    classes, records = {}, []
    for d in range(1, order + 1):
        g = gcd(d, order)
        if g not in classes:
            classes[g] = count_fixed(table, m, g), eval_at_root(gf, order, g).residue
        fixed, residue = classes[g]
        value = RootOfUnityValue(order, d, order // g, residue)
        records.append(CspRecord(d, fixed, value, value.equals_int(fixed)))
    return tuple(records)


def test_verify_csp_records_built_on_read_equal_the_eager_tuple():
    # A verdict keeps one value per divisor class of the order and builds record d when
    # it is read; read every way, the records are the tuple of every power's record.
    tables = {}
    for spec, k in SIEVE_QUERIES:
        shape = parse_poset_spec(spec)
        if spec not in tables:
            tables[spec] = load_or_build_table(shape)
        verdict = verify_csp(shape, k, table=tables[spec])
        lazy, eager = verdict.records, _eager_records(shape, k, tables[spec], verdict.order)
        where = (spec, k)
        assert len(lazy) == len(eager) == verdict.order, where
        assert lazy[0] == eager[0] and lazy[-1] == eager[-1], where
        assert lazy[1::3] == eager[1::3] and isinstance(lazy[1::3], tuple), where
        assert tuple(lazy) == eager, where
        assert lazy == eager and eager == lazy and not lazy != eager, where
        for past in (verdict.order, -verdict.order - 1):
            with pytest.raises(IndexError):
                lazy[past]
        full = replace(verdict, records=eager, holds=all(r.match for r in eager))
        assert verdict == full and full == verdict and hash(verdict) == hash(full), where
        assert verdict.to_dict() == full.to_dict() and verdict.holds == full.holds, where


def test_verify_csp_memory_follows_the_divisor_classes():
    # Order 5011, prime: two divisor classes.  Its 5011 records, had they been held,
    # would take some 1.4 MB; the walk of the largest orbit keeps one label tuple.
    import tracemalloc

    shape = cayley_moufang()
    table = packaged_table(shape)
    verify_csp(shape, 5000, table=table)  # the process-wide caches are filled once
    tracemalloc.start()
    try:
        verdict = verify_csp(shape, 5000, table=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds and len(verdict.records) == verdict.order == 5011
    assert peak < 0.25 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_verify_csp_recount_rejects_a_wrong_table(cm_table):
    # One extra orbit in a ceiling-12 row still splits into whole orbits, so
    # only the rowmotion recount can catch it.
    row = next(r for r in cm_table.rows if r.m_t == 12)
    rows = tuple(replace(r, orbits=r.orbits + 1) if r is row else r for r in cm_table.rows)
    wrong = replace(cm_table, rows=rows, total=cm_table.total + row.period)
    with pytest.raises(RuntimeError, match="rowmotion orbits"):
        verify_csp(cayley_moufang(), 1, table=wrong)


def test_recount_mismatch_on_a_fresh_or_true_table_is_an_engine_error(tmp_path, monkeypatch):
    # A recount that disagrees with a fresh build, with a cache-dir file equal
    # to a fresh build, or with a shipped table is the engine's fault.
    wrong = OrbitSummary(((2, 1),), 2)
    monkeypatch.setattr(orbits, "rowmotion_orbits", lambda *args, **kwargs: wrong)
    for shape in (propeller(3), propeller(3), cayley_moufang()):  # built, then read
        with pytest.raises(RuntimeError, match="rowmotion orbits"):
            verify_csp(shape, 0, cache_dir=tmp_path)
    assert len(list(tmp_path.iterdir())) == 1


def test_verify_csp_failure_detail(pf_table):
    verdict = verify_csp(freudenthal(), 5, table=pf_table)
    assert not verdict.holds
    first = verdict.records[0]
    assert first.d == 1 and first.fixed_count == 0 and not first.match


def test_sieving_fails_at_the_engine_ceiling():
    # Freudenthal k = 5, 6, 7 at the ceiling verify_csp uses, m = k + rk + 1 (criterion 6
    # evaluates at 3(k + 18)): no plane partition is fixed by the action, and gf vanishes
    # neither at the action's order nor at 3m, so the d = 1 value is not an integer.
    pf = freudenthal()
    table = packaged_table(pf)
    for k in (5, 6, 7):
        verdict = verify_csp(pf, k, table=table)
        gf = plane_partition_gf(pf, k)
        assert verdict.m == k + pf.rk + 1
        (d1,) = [r for r in verdict.records if r.d == 1]
        assert d1.fixed_count == 0 and not d1.match
        assert not is_zero_at_primitive_root(gf, verdict.order)
        assert not is_zero_at_primitive_root(gf, 3 * verdict.m)


def test_tree_ideal_and_dual_filter_propeller():
    # Bottom row plus the leftmost top box; dually the top row plus the
    # rightmost bottom box.
    for p in (3, 4, 5):
        pp = propeller(p)
        assert max_tree_ideal(pp) == frozenset(range(p + 1))
        assert max_dual_tree_filter(pp) == frozenset(range(p - 1, 2 * p))
        assert frame(pp) == frozenset(range(2 * p))


def _frame_by_listing(poset):
    # The definition itself: list every ideal, keep the tree ideals (each
    # member has at most one lower cover) and the complements that are
    # dual-tree filters (each member has at most one upper cover), and take
    # the unions.
    ideal, dual = 0, 0
    full = (1 << poset.n) - 1
    for mask in _ideal_masks(poset):
        members = [x for x in range(poset.n) if (mask >> x) & 1]
        if all(len(poset.lower[x]) <= 1 for x in members):
            ideal |= mask
        if all(len(poset.upper[x]) <= 1 for x in range(poset.n) if not (mask >> x) & 1):
            dual |= full ^ mask
    as_set = lambda mask: frozenset(x for x in range(poset.n) if (mask >> x) & 1)
    return as_set(ideal), as_set(dual)


# Every built-in family with at most 5,000 ideals (a x b rectangles have
# binomial(a + b, a), shifted staircases 2^s), and a chain indexed top down.
_SMALL_POSETS = (
    [cayley_moufang(), freudenthal(), Poset(4, [(3, 2), (2, 1), (1, 0)])]
    + [propeller(p) for p in range(3, 9)]
    + [rectangle(a, b) for a in range(1, 8) for b in range(a, 13) if comb(a + b, a) <= 5000]
    + [shifted_staircase(s) for s in range(1, 13)]
)


@pytest.mark.parametrize("poset", _SMALL_POSETS, ids=lambda poset: poset.family or "chain-4-top-down")
def test_frame_read_from_covers_matches_ideal_listing(poset):
    tree_ideal, dual_filter = _frame_by_listing(poset)
    assert max_tree_ideal(poset) == tree_ideal
    assert max_dual_tree_filter(poset) == dual_filter
    # The dual filter is the tree ideal of the dual poset.
    assert max_dual_tree_filter(poset) == max_tree_ideal(Poset(poset.n, [(b, a) for a, b in poset.covers]))
    assert frame(poset) == tree_ideal | dual_filter


def test_frame_lists_no_ideals(monkeypatch):
    # rectangle(8, 8) has 12,870 ideals; its frame is the boundary, read from the covers.
    from minuscule import ideals, orbits

    def refuse(*args, **kwargs):
        raise AssertionError("the frame must not list ideals")

    monkeypatch.setattr(ideals, "_ideal_masks", refuse)
    monkeypatch.setattr(orbits, "_ideal_masks", refuse, raising=False)
    boundary = frozenset(8 * r + c for r in range(8) for c in range(8) if r in (0, 7) or c in (0, 7))
    assert len(boundary) == 28
    assert frame(rectangle(8, 8)) == boundary


def test_verify_csp_reads_one_orbit_summary(monkeypatch):
    # One promotion_orbits summary serves the order, the fixed counts and the
    # largest-orbit witness, which is still walked once.
    from minuscule import orbits

    calls = Counter()

    def spy(name):
        real = getattr(orbits, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(orbits, name, wrapped)

    spy("promotion_orbits")
    spy("_largest_orbit_witness")
    for k, holds in ((2, True), (5, False)):
        calls.clear()
        assert verify_csp(freudenthal(), k, table=packaged_table(freudenthal())).holds == holds
        assert calls == {"promotion_orbits": 1, "_largest_orbit_witness": 1}


def test_a_huge_ceiling_is_refused_before_its_divisors_are_listed(monkeypatch, cm_table):
    # Content periods are read from the divisors of gcd(m, m_t), never of m, so a
    # huge ceiling is summed, counted and refused past the state cap at once.
    import time

    real = orbits._divisors

    def divisors(n):
        assert n <= 10**6, f"listed the divisors of {n}"
        return real(n)

    monkeypatch.setattr(orbits, "_divisors", divisors)
    table = build_gapless_table(propeller(3))  # rows (5, 1, 1) and (6, 2, 1)
    m = 10**30
    start = time.monotonic()
    summary = promotion_orbits(table, m)
    assert summary.orbit_sizes[0] == (m // 5, 1)  # one window of length m / 5 with a single one
    assert [size for size, _ in summary.orbit_sizes] == [m // 5, m]
    assert summary.total_states == count_fixed(table, m, m) == comb(m, 5) + 2 * comb(m, 6)
    assert count_fixed(table, m, m // 5) == exact_period_vector_count(m, 5, m // 5) == m // 5
    assert exact_period_vector_count(m, 27, m) == comb(m, 27)  # 27 and m coprime: no smaller period
    for n, e, count in ((0, 1, 1), (0, m, 0), (m, m, 0), (m, 1, 1)):  # constant vectors: period 1
        assert exact_period_vector_count(m, n, e) == count
    assert time.monotonic() - start < 1
    with pytest.raises(StateCapExceeded, match=f"the largest orbit has {m} tableaux to walk"):
        promotion_order(propeller(3), m, table=table)
    m = 10**30 + cayley_moufang().rk + 1
    with pytest.raises(StateCapExceeded, match=f"the largest orbit has {m} tableaux to walk"):
        verify_csp(cayley_moufang(), 10**30, table=cm_table)


def _factored(n: int) -> Counter:
    primes, p = Counter(), 2
    while p * p <= n:
        while n % p == 0:
            primes[p] += 1
            n //= p
        p += 1
    if n > 1:
        primes[n] += 1
    return primes


def _summary_over_every_divisor(table, m: int) -> OrbitSummary:
    """The orbit summary over every divisor e of m, kept when e * m_t / m is whole, with
    its exact-period vectors counted by Mobius inversion over the kept ep | e."""
    divisors = [1]
    for p, power in _factored(m).items():
        divisors = [d * p**i for d in divisors for i in range(power + 1)]
    divisors.sort()

    def mobius(n):
        powers = _factored(n).values()
        return 0 if any(a > 1 for a in powers) else (-1) ** len(powers)

    states = Counter()
    for row in table.rows:
        if row.m_t > m:
            continue
        for e in divisors:
            if (e * row.m_t) % m:
                continue
            vectors = sum(
                mobius(e // ep) * comb(ep, row.m_t * ep // m)
                for ep in divisors if e % ep == 0 and (row.m_t * ep) % m == 0
            )
            if vectors:
                states[inflated_period(m, row.m_t, row.period, e)] += row.period * row.orbits * vectors
    return OrbitSummary.from_states(states)


def test_content_periods_from_the_gcd_match_every_divisor_of_the_ceiling(cm_table):
    # The summaries of three shapes at every ceiling up to 500, at 720720 (240 divisors)
    # and at 2**40, against the rule that lists every divisor of m.
    for table in (cm_table, packaged_table(freudenthal()), build_gapless_table(propeller(3))):
        for m in (*range(1, 501), 720720, 2**40):
            assert promotion_orbits(table, m) == _summary_over_every_divisor(table, m), (table.poset.family, m)


def test_frame_of_exceptional_shapes(pf_table, cm_table):
    pf_report = frame_check(freudenthal(), table=pf_table)
    assert pf_report.match
    assert pf_report.frame_elements == (0, 1, 2, 3, 4, 5, 6, 16, 21, 22, 23, 24, 25, 26)
    cm_report = frame_check(cayley_moufang(), table=cm_table)
    assert cm_report.stable_elements == tuple(range(16))  # every element is stable
    assert not cm_report.match  # the frame is a proper subset


def test_table_save_load_round_trip(tmp_path, cm_table):
    path = tmp_path / "table.json"
    save_table(cm_table, path)
    again = load_table(path, cayley_moufang())
    assert again.triples() == cm_table.triples()
    assert again.stable == cm_table.stable
    with pytest.raises(ParameterError):
        load_table(path, freudenthal())


def test_packaged_tables_present():
    for poset, total in ((cayley_moufang(), 549), (freudenthal(), 624493)):
        table = packaged_table(poset)
        assert table is not None and table.total == total
    assert packaged_table(rectangle(2, 2)) is None


def test_shipped_tables_are_named_by_digest():
    shipped = resources.files("minuscule").joinpath("data/cache")
    names = sorted(e.name for e in shipped.iterdir() if e.name.endswith(".json"))
    assert len(names) == 2
    assert names == sorted(orbits._PACKAGED_SHA256)  # every shipped table is pinned
    for name in names:
        digest = json.loads(shipped.joinpath(name).read_text())["poset_digest"]
        assert name == f"gapless-{digest}.json"


def test_packaged_table_is_read_once(monkeypatch):
    # Two queries on Freudenthal open its shipped file once: the parsed table is kept.
    name = orbits._table_name(freudenthal())
    opened, watching = [], [True]

    def hook(event, args):
        if watching and event == "open" and str(args[0]).endswith(name):
            opened.append(args[0])

    sys.addaudithook(hook)  # audit hooks stay for the process; this one goes quiet below
    monkeypatch.setattr(orbits, "_TABLES", {})
    try:
        first = verify_csp(freudenthal(), 2)
        second = verify_csp(freudenthal(), 3)
    finally:
        watching.clear()
    assert len(opened) == 1
    assert first.holds and second.holds


def test_packaged_table_keeps_the_callers_poset():
    # The kept table is rewrapped per call: same covers, another family, its own family.
    own = packaged_table(freudenthal())
    other = Poset(own.poset.n, own.poset.covers, family="renamed")
    table = packaged_table(other)
    assert table.poset is other and table.to_dict()["family"] == "renamed"
    assert table.rows == own.rows and table.stable == own.stable and table.total == own.total
    assert packaged_table(freudenthal()).to_dict()["family"] == "freudenthal"


def test_cache_dir_table_is_read_again(tmp_path):
    # Tables are kept by the sha256 of their bytes: a file rewritten between two lookups is read again.
    shape = rectangle(2, 2)
    load_or_build_table(shape, cache_dir=tmp_path)  # built and written
    assert load_or_build_table(shape, cache_dir=tmp_path).stable == (0, 1, 2, 3)  # read
    path = tmp_path / orbits._table_name(shape)
    data = json.loads(path.read_text())
    data["stable"] = []
    path.write_text(json.dumps(data))
    assert load_or_build_table(shape, cache_dir=tmp_path).stable == ()


def test_cache_dir_table_is_checked_once_per_distinct_file(tmp_path, monkeypatch):
    # Repeated lookups of an unchanged cache-dir file parse and check it once,
    # and a second cache directory holding the same bytes adds no check.
    checked = []
    real = orbits._table_from_dict
    monkeypatch.setattr(orbits, "_table_from_dict", lambda data, poset: checked.append(poset) or real(data, poset))
    monkeypatch.setattr(orbits, "_TABLES", {})
    shape = propeller(4)
    name = orbits._table_name(shape)
    first, second = tmp_path / "first", tmp_path / "second"
    table = load_or_build_table(shape, cache_dir=first)  # built and written
    for _ in range(3):
        assert load_or_build_table(shape, cache_dir=first).rows == table.rows
    assert verify_csp(shape, 2, cache_dir=first).holds
    assert len(checked) == 1
    second.mkdir()
    (second / name).write_bytes((first / name).read_bytes())
    assert load_or_build_table(shape, cache_dir=second).rows == table.rows
    assert promotion_order(shape, 12, cache_dir=second).period == 12
    assert len(checked) == 1


def test_shipped_tables_equal_a_fresh_build(tmp_path, cm_table, pf_table):
    # The packaged tables are save_table of a fresh build, byte for byte, reps included.
    shipped = resources.files("minuscule").joinpath("data/cache")
    for table in (cm_table, pf_table):
        name = f"gapless-{table.poset.digest()}.json"
        save_table(table, tmp_path / name)
        assert (tmp_path / name).read_bytes() == shipped.joinpath(name).read_bytes()


def _gapless_counts_by_inversion(P) -> dict[int, int]:
    """Gapless tableaux per ceiling 0..n+1 from the product formula alone.

    The tableaux of ceiling m number N(m) = plane_partition_gf(P, m - rk - 1)(1),
    none below rk + 1, and each deflates to one gapless tableau of some ceiling t
    with one of C(m, t) label sets: N(m) = sum_t C(m, t) g(t).  Binomial
    inversion gives g(m) = sum_t (-1)^(m - t) C(m, t) N(t).
    """
    ceilings = range(P.n + 2)
    total = [plane_partition_gf(P, t - P.rk - 1)(1) if t > P.rk else 0 for t in ceilings]
    return {m: sum((-1) ** (m - t) * comb(m, t) * total[t] for t in range(m + 1)) for m in ceilings}


def test_ceiling_counts_from_the_product_formula():
    # Every ceiling counted a second time: the golden headline tables' sums of
    # period x orbits, and the ideal graph's path counts on other shapes, against
    # the inverted product formula, which leaves no tableau at ceiling n + 1.
    from minuscule.tableaux import _IdealGraph

    for name, P in (("cayley-moufang", cayley_moufang()), ("freudenthal", freudenthal())):
        by_ceiling = dict.fromkeys(range(P.n + 2), 0)
        for m_t, period, count in cli._golden_table(cli._GOLDEN, name)[0]:
            by_ceiling[m_t] += period * count
        assert _gapless_counts_by_inversion(P) == by_ceiling, name
    for spec in ("propeller-5", "rectangle-3x4", "shifted-staircase-5"):
        P = parse_poset_spec(spec)
        by_ceiling = dict.fromkeys(range(P.n + 2), 0) | _IdealGraph(P).class_sizes()
        assert _gapless_counts_by_inversion(P) == by_ceiling, spec


def test_load_or_build_uses_cache_dir(tmp_path):
    shape = propeller(5)
    table = load_or_build_table(shape, cache_dir=tmp_path)
    files = list(tmp_path.glob("gapless-*.json"))
    assert len(files) == 1
    again = load_or_build_table(shape, cache_dir=tmp_path)
    assert again.triples() == table.triples()


def test_build_cap():
    with pytest.raises(StateCapExceeded):
        build_gapless_table(cayley_moufang(), cap=10)


def test_the_build_counts_successor_entries_against_the_cap():
    # A 13-element antichain has 8,192 ideals but 3**13 - 2**13 successor
    # entries. Each ideal's are counted before they are made, so the build is
    # refused in about a megabyte; making them all first would take some 65 MB.
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(StateCapExceeded, match="too many successor entries"):
            build_gapless_table(Poset(13, []), cap=10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("value", [True, 2.0])
def test_entry_points_refuse_non_integer_parameters(value):
    # A boolean or a float is refused, never read as 1 or converted.
    from minuscule.errors import state_cap

    from minuscule import OrderIdeal, PlanePartition, chain_product, k_bender_knuth, vector_inflation

    P = cayley_moufang()
    table = load_or_build_table(P)
    T = next(enumerate_gapless(propeller(3)))
    calls = (
        lambda: state_cap(value),
        lambda: rowmotion_orbits(P, value),
        lambda: plane_partition_gf(P, value),
        lambda: verify_csp(P, value),
        lambda: promotion_order(P, value),
        lambda: chain_product(P, value),
        lambda: rectangle(value, 2),
        lambda: rectangle(2, value),
        lambda: shifted_staircase(value),
        lambda: propeller(value),
        lambda: inflated_period(4, 2, 1, value),
        lambda: inflated_period(value, 2, 1, 2),
        lambda: exact_period_vector_count(4, 2, value),
        lambda: exact_period_vector_count(value, 1, 1),
        lambda: promotion_orbits(table, value),
        lambda: count_fixed(table, value, 2),
        lambda: count_fixed(table, 12, value),
        lambda: count_fixed_qbinomial(table, value, 1),
        lambda: count_fixed_qbinomial(table, 12, value),
        # Checked before the packaged table is looked up, not only when a build runs.
        lambda: verify_csp(P, 2, workers=value),
        lambda: promotion_order(P, 12, workers=value),
        lambda: frame_check(P, workers=value),
        lambda: load_or_build_table(P, workers=value),
        lambda: load_or_build_table(P, cap=value),
        lambda: build_gapless_table(propeller(3), workers=value),
        lambda: vector_inflation((1, 0, 1), value),
        lambda: k_bender_knuth(T, value),
        lambda: OrderIdeal(P, value),
        lambda: PlanePartition(rectangle(1, 1), value, (1,)),
    )
    for call in calls:
        with pytest.raises(ParameterError, match="expected an integer"):
            call()


def test_fixed_point_counts_refuse_a_negative_ceiling():
    # As enumerate_increasing does; ceiling 0 has no tableau to count.
    table = load_or_build_table(cayley_moufang())
    calls = (
        lambda: promotion_orbits(table, -3),
        lambda: count_fixed(table, -3, 1),
        lambda: count_fixed_qbinomial(table, -4, 2),
    )
    for call in calls:
        with pytest.raises(ParameterError, match="ceiling must be nonnegative"):
            call()
    assert count_fixed(table, 0, 1) == count_fixed_qbinomial(table, 0, 1) == 0


@pytest.mark.parametrize("value", [0, -1])
def test_worker_count_below_one_is_refused(value):
    # Checked before the packaged table is looked up, as the integer check is.
    P = cayley_moufang()
    calls = (
        lambda: build_gapless_table(propeller(3), workers=value),
        lambda: load_or_build_table(P, workers=value),
        lambda: verify_csp(P, 2, workers=value),
        lambda: promotion_order(P, 12, workers=value),
        lambda: frame_check(P, workers=value),
    )
    for call in calls:
        with pytest.raises(ParameterError, match="worker count must be at least 1"):
            call()


def test_pool_is_clamped_to_the_ceiling_count(monkeypatch):
    # A stand-in pool that records its size and maps in-process: no real
    # processes are started for the large worker count.
    import concurrent.futures

    from minuscule import orbits

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    shape = propeller(3)
    single = build_gapless_table(shape, workers=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # Three chains are far below the in-process cut-off; lift it to reach the pool.
    monkeypatch.setattr(orbits, "_POOL_MIN_CHAINS", 0)
    wide = build_gapless_table(shape, workers=8)
    ceilings = {row.m_t for row in single.rows}
    assert sizes == [len(ceilings)] and len(ceilings) < 8
    assert (wide.rows, wide.stable, wide.total) == (single.rows, single.stable, single.total)


def test_a_forced_pool_builds_what_one_worker_builds(monkeypatch):
    # Seeded random orders, far below the pool cut-off, built by a real 2-process
    # pool once the cut-off is lifted, against the in-process build.
    import concurrent.futures

    from test_poset import _random_covers

    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    rng = Random(20261022)
    shapes = [Poset(n, _random_covers(rng, n)) for n in (5, 6, 7)]
    singles = [build_gapless_table(P) for P in shapes]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(orbits, "_POOL_MIN_CHAINS", 0)
    for P, single in zip(shapes, singles):
        pooled = build_gapless_table(P, workers=2)
        assert (pooled.rows, pooled.stable, pooled.total) == (single.rows, single.stable, single.total), P.covers
    assert started == [2, 2, 2]


def test_small_builds_start_no_pool(monkeypatch):
    import concurrent.futures

    from minuscule import orbits

    # On a 2-CPU machine with both CPUs idle, a 2-worker pool lost on rectangle-2x8
    # (20,793 chains) and broke even between 39,453 and 56,569 chains, below
    # rectangle-3x5 (126,289). With one CPU busy it lost on rectangle-3x5 as well
    # and won only at 352,879 chains (BENCH_27.json, break_even).
    assert 20_793 < orbits._POOL_MIN_CHAINS < 126_289

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a build below the cut-off started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    for shape in (cayley_moufang(), propeller(3), rectangle(3, 4)):
        single = build_gapless_table(shape, workers=1)
        dual = build_gapless_table(shape, workers=2)
        assert (dual.rows, dual.stable, dual.total) == (single.rows, single.stable, single.total)


def _eager_partition(tableaux, m):
    """Rows and stable elements of one ceiling's gapless tableaux, walking each orbit with public promotion().

    A row's representative is the least label array among the tableaux of its period.
    """
    from minuscule.ideals import _cycles

    n = tableaux[0].shape.n
    rows = {}
    moved = set()
    for orbit in _cycles({T: promotion(T) for T in tableaux}):
        tau = len(orbit)
        count, rep = rows.get(tau, (0, orbit[0].labels))
        rows[tau] = (count + 1, min(rep, *(t.labels for t in orbit)))
        for s, t in enumerate(orbit):
            u = orbit[(s + m) % tau]
            moved.update(x for x in range(n) if t.labels[x] != u.labels[x])
    return (
        [(tau, count, rep) for tau, (count, rep) in sorted(rows.items())],
        [x for x in range(n) if x not in moved],
    )


@pytest.mark.parametrize(
    "spec",
    ["cayley-moufang", "propeller-3", "propeller-4", "propeller-5", "propeller-6",
     "rectangle-3x4", "rectangle-2x6", "shifted-staircase-5", "staircase-321"],
)
def test_partition_reads_keys_lazily_like_an_eager_oracle(spec):
    from minuscule import parse_poset_spec
    from minuscule.tableaux import _IdealGraph

    # Every orbit of the minuscule shapes here has a period dividing its
    # ceiling; the Young diagram (3, 2, 1) has orbits that m-fold promotion
    # moves, so it reaches the stable-set xor.
    if spec == "staircase-321":
        shape = poset_from_shape(ShapeDiagram([(0, 3), (0, 2), (0, 1)]))
    else:
        shape = parse_poset_spec(spec)
    by_ceiling = {}
    for T in enumerate_gapless(shape):
        by_ceiling.setdefault(T.m, []).append(T)
    graph = _IdealGraph(shape)
    assert sorted(by_ceiling) == sorted(graph.class_sizes())
    for m, tableaux in by_ceiling.items():
        rows, moved = graph.class_orbits(m)
        stable = [x for x in range(shape.n) if not (moved >> x) & 1]
        assert sum(tau * count for tau, count, _ in rows) == len(tableaux)
        assert (rows, stable) == _eager_partition(tableaux, m)


def test_failed_cache_write_leaves_no_table(tmp_path, monkeypatch):
    # A write that dies half-way must not leave a truncated table under the
    # cache name; the next lookup rebuilds and writes a complete one.
    import pathlib

    from minuscule import orbits

    shape = propeller(4)
    real_write = pathlib.Path.write_text

    def half_write(self, text, *args, **kwargs):
        real_write(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    with monkeypatch.context() as patched:
        patched.setattr(pathlib.Path, "write_text", half_write)
        with pytest.raises(OSError):
            load_or_build_table(shape, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []

    builds = []
    real_build = orbits.build_gapless_table
    monkeypatch.setattr(
        orbits, "build_gapless_table", lambda *a, **k: builds.append(1) or real_build(*a, **k)
    )
    table = load_or_build_table(shape, cache_dir=tmp_path)
    assert builds == [1]
    (path,) = tmp_path.iterdir()
    assert path.name == f"gapless-{shape.digest()}.json"
    assert load_table(path, shape).triples() == table.triples()


def test_orbit_walks_are_bounded(monkeypatch):
    # A promotion that is not a bijection must fail the walk, not hang it.
    from minuscule import orbits
    from minuscule.tableaux import _IdealGraph, _sweep

    shape = propeller(3)
    table = build_gapless_table(shape)
    class_promotions = _IdealGraph.class_promotions
    sweep = _sweep(shape)

    def onto_least(self, m):
        # Every tableau of the ceiling promoted onto its least one.
        keys = sweep.keys(class_promotions(self, m))
        return [[(key << sweep.shift) + min(keys) for key in keys]]

    def off_the_class(self, m):
        # The last image replaced by a key that is no tableau of the ceiling.
        *groups, last = class_promotions(self, m)
        return groups + [last[:-1] + [last[-1] >> sweep.shift << sweep.shift]]

    with monkeypatch.context() as patched:
        patched.setattr(_IdealGraph, "class_promotions", onto_least)
        with pytest.raises(RuntimeError, match="within"):
            build_gapless_table(shape)
        patched.setattr(_IdealGraph, "class_promotions", off_the_class)
        with pytest.raises(RuntimeError, match="not a chain of ceiling"):
            build_gapless_table(shape)
    witness = promotion_order(shape, 8, table=table).witness
    sink = next(t for t in enumerate_increasing(shape, 8) if t != witness)
    monkeypatch.setattr(orbits, "_promote", lambda sweep, labels, m: sink.labels)
    with pytest.raises(RuntimeError, match="within"):
        promotion_order(shape, 8, table=table)


def test_a_listing_one_orbit_short_fails_the_build(monkeypatch):
    # A listing that drops one whole orbit is still a permutation, so every
    # walk closes: the count of the ceiling's paths alone refuses it.
    from minuscule.tableaux import _IdealGraph, _sweep

    shape = rectangle(3, 4)
    class_promotions = _IdealGraph.class_promotions
    sweep = _sweep(shape)

    def one_orbit_short(self, m):
        listed = [total for sums in class_promotions(self, m) for total in sums]
        promote = sweep.promotions([listed])
        orbit, key = set(), listed[0] >> sweep.shift
        while key not in orbit:
            orbit.add(key)
            key = promote[key]
        return [[total for total in listed if total >> sweep.shift not in orbit]]

    monkeypatch.setattr(_IdealGraph, "class_promotions", one_orbit_short)
    with pytest.raises(RuntimeError, match="enumeration mismatch"):
        build_gapless_table(shape)


def test_a_witness_of_another_orbit_size_is_refused(monkeypatch):
    # The witness is walked with the labels-only promotion step: a step that fixes
    # every label tuple closes its orbit at once, short of the table's largest orbit.
    from minuscule import orbits

    shape = propeller(3)
    table = build_gapless_table(shape)
    monkeypatch.setattr(orbits, "_promote", lambda sweep, labels, m: labels)
    with pytest.raises(RuntimeError, match="witness verification failed: orbit size 1"):
        promotion_order(shape, 8, table=table)


def test_the_witness_walk_keeps_no_tableaux():
    # The largest orbit is walked one tableau at a time: at m = 50,000 the
    # walk keeps no list of the 50,000 tableaux it passes (some 17 MB).
    import tracemalloc

    shape = propeller(3)
    table = build_gapless_table(shape)
    tracemalloc.start()
    try:
        report = promotion_order(shape, 50_000, table=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.max_orbit == 50_000
    assert peak < 4_000_000


def test_a_build_lists_each_ceiling_once(monkeypatch):
    # Only a failed orbit walk lists its ceiling a second time: a build that
    # succeeds lists each ceiling exactly once.
    from minuscule.tableaux import _IdealGraph

    class_promotions = _IdealGraph.class_promotions
    listed = []

    def spy(self, m):
        listed.append(m)
        return class_promotions(self, m)

    monkeypatch.setattr(_IdealGraph, "class_promotions", spy)
    for shape in (propeller(3), cayley_moufang(), rectangle(3, 4)):
        listed.clear()
        build_gapless_table(shape, workers=1)
        assert sorted(listed) == list(_IdealGraph(shape).class_sizes())


def test_a_table_of_another_poset_is_refused():
    # A table answers only for its own poset: another one's table is bad input,
    # not a wrong period, a stable set outside the shape or a label error.
    from minuscule.orbits import packaged_table

    cm, pf = cayley_moufang(), freudenthal()
    cm_table, pf_table = packaged_table(cm), packaged_table(pf)
    with pytest.raises(ParameterError, match="different poset"):
        promotion_order(cm, 12, table=pf_table)
    with pytest.raises(ParameterError, match="different poset"):
        frame_check(cm, table=pf_table)
    with pytest.raises(ParameterError, match="different poset"):
        verify_csp(rectangle(4, 4), 6, table=cm_table)
    report = promotion_order(cm, 12, table=cm_table)
    assert (report.period, report.max_orbit) == (12, 12)
