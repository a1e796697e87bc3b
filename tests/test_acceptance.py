"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 asserts the verified promotion orders.  On the 27-element
exceptional shape the order is 3m for ceilings 22 and 23 but 6m for
24..30, not the 3m once stated there: the orbit table has rows of period
2*m_t (e.g. (24, 48)), and orbits of sizes 2m and 3m at the same ceiling
force an order of lcm(2m, 3m) = 6m.  The largest single orbit is still 3m.
Both orbit sizes are walked with an independent K-jeu-de-taquin
promotion (`kjdt_promotion`) that shares no code with the library.
"""

import time
from collections import Counter
from math import comb, gcd, lcm

from minuscule import (
    IncreasingTableau,
    build_gapless_table,
    cayley_moufang,
    content_vector,
    count_fixed,
    deflate,
    enumerate_gapless,
    enumerate_increasing,
    eval_at_root,
    frame_check,
    freudenthal,
    inflate,
    is_zero_at_primitive_root,
    plane_partition_gf,
    promotion,
    promotion_census,
    promotion_order,
    propeller,
    rectangle,
    rotate_left,
    rowmotion_orbits,
    verify_csp,
)
from minuscule import cli
from minuscule.orbits import GaplessOrbitTable, _periodic_vector
from test_tableaux import load_fixture


def criterion(number: int, description: str, ok: bool, detail: str = ""):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {description}"
    if detail and not ok:
        line += f"  :: {detail}"
    print(line)
    assert ok, f"criterion {number}: {description} {detail}"


def kjdt_promotion(covers, labels, m: int) -> tuple[int, ...]:
    """K-promotion by K-jeu-de-taquin (Pechenik 2014), from the cover list alone.

    Delete the 1s; for i = 2..m, every empty box with an upper cover
    labeled i takes label i while every i-box with an empty lower cover
    empties; fill the boxes still empty with m+1 and subtract 1 throughout.
    """
    n = len(labels)
    up = [[] for _ in range(n)]
    down = [[] for _ in range(n)]
    for a, b in covers:
        up[a].append(b)
        down[b].append(a)
    cur = [None if v == 1 else v for v in labels]
    for i in range(2, m + 1):
        fill = [x for x in range(n) if cur[x] is None and any(cur[y] == i for y in up[x])]
        vacate = [y for y in range(n) if cur[y] == i and any(cur[x] is None for x in down[y])]
        for x in fill:
            cur[x] = i
        for y in vacate:
            cur[y] = None
    return tuple((m + 1 if v is None else v) - 1 for v in cur)


def kjdt_orbit_size(covers, labels, m: int) -> int | None:
    """Steps until kjdt_promotion returns to labels; None past 6m steps."""
    start = cur = tuple(labels)
    for steps in range(1, 6 * m + 1):
        cur = kjdt_promotion(covers, cur, m)
        if cur == start:
            return steps
    return None


def test_criterion_1_gapless_table_cayley_moufang():
    start = time.monotonic()
    table = build_gapless_table(cayley_moufang(), workers=1)
    elapsed = time.monotonic() - start
    rows, total = cli._golden_table(cli._GOLDEN, "cayley-moufang")
    ok = table.triples() == rows and table.total == total == 549
    ok = ok and elapsed < 10.0
    criterion(1, "cayley-moufang orbit table (549 gapless tableaux, single-threaded < 10 s)", ok,
              f"total {table.total}, {elapsed:.2f}s")


def test_criterion_2_gapless_table_freudenthal(freudenthal_builds):
    single = freudenthal_builds["single"]
    dual = freudenthal_builds["dual"]
    rows, total = cli._golden_table(cli._GOLDEN, "freudenthal")
    ok = single.triples() == rows and single.total == total == 624493
    identical = (
        dual.triples() == single.triples()
        and dual.total == single.total
        and dual.stable == single.stable
        and [r.rep for r in dual.rows] == [r.rep for r in single.rows]
    )
    faster = freudenthal_builds["dual_time"] < freudenthal_builds["single_time"]
    # The CPU seconds say whether a loss is the pool's or the host's: a pool
    # given one CPU's throughput spends about its wall time in CPU, not twice it.
    builds = freudenthal_builds
    criterion(
        2,
        "freudenthal orbit table (624493 gapless tableaux; 2 workers faster, identical output)",
        ok and identical and faster,
        f"single {builds['single_time']:.1f}s (cpu {builds['single_cpu']:.2f}s),"
        f" dual {builds['dual_time']:.1f}s (cpu {builds['dual_cpu']:.2f}s parent + {builds['dual_pool_cpu']:.2f}s pool)",
    )


def test_criterion_3_gapless_tables_propellers():
    ok = True
    detail = []
    for p in (3, 4, 5, 6):
        table = build_gapless_table(propeller(p))
        rows, _ = cli._golden_table(cli._GOLDEN, f"propeller-{p}")
        if table.triples() != rows or table.total != 3:
            ok = False
            detail.append(f"p={p}: {table.triples()}")
    two_cycle = [t for t in enumerate_gapless(propeller(4)) if t.m == 8]
    first = load_fixture("propeller4_m8_first.txt")
    second = load_fixture("propeller4_m8_second.txt")
    ok = ok and set(two_cycle) == {first, second}
    ok = ok and promotion(first) == second and promotion(second) == first
    singleton = [t for t in enumerate_gapless(propeller(4)) if t.m == 7]
    ok = ok and singleton == [load_fixture("propeller4_m7.txt")] and promotion(singleton[0]) == singleton[0]
    criterion(3, "propeller orbit tables for p=3..6, including the explicit ceiling-8 two-cycle",
              ok, "; ".join(detail))


def test_criterion_4_promotion_orders(cm_table, pf_table):
    violations = []
    cm = cayley_moufang()
    for m in range(12, 31):
        got = promotion_order(cm, m, table=cm_table).period
        if got != m:
            violations.append(f"cayley-moufang m={m}: {got}")
    for p in range(3, 7):
        shape = propeller(p)
        table = build_gapless_table(shape)
        for m in range(2 * p, 2 * p + 11):
            got = promotion_order(shape, m, table=table).period
            if got != m:
                violations.append(f"propeller-{p} m={m}: {got}")
    pf = freudenthal()
    for m in range(18, 22):
        got = promotion_order(pf, m, table=pf_table).period
        if got != m:
            violations.append(f"freudenthal m={m}: {got}")
    short_row = next(r for r in pf_table.rows if (r.m_t, r.period) == (24, 48))
    for m in range(22, 31):
        report = promotion_order(pf, m, table=pf_table)
        want = 3 * m if m < 24 else 6 * m
        if (report.period, report.max_orbit) != (want, 3 * m):
            violations.append(
                f"freudenthal m={m}: expected {want}/{3 * m}, "
                f"computed {report.period}/{report.max_orbit}"
            )
        if m >= 24:
            # Certify 6m = lcm(2m, 3m) with two orbits walked by the oracle:
            # an inflation of the (24, 48) row and the engine's 3m witness.
            inflated = inflate(IncreasingTableau(pf, short_row.rep, 24), _periodic_vector(m, 24, m))
            short = IncreasingTableau(pf, inflated.labels, m)  # validated as a tableau
            sizes = (kjdt_orbit_size(pf.covers, short.labels, m),
                     kjdt_orbit_size(pf.covers, report.witness.labels, m))
            if sizes != (2 * m, 3 * m) or lcm(*sizes) != report.period:
                violations.append(f"freudenthal m={m}: oracle orbit sizes {sizes}")
    for table in (cm_table, pf_table):
        for row in table.rows:
            walked = kjdt_orbit_size(table.poset.covers, row.rep, row.m_t)
            if walked != row.period:
                violations.append(
                    f"{table.poset.family} row ({row.m_t}, {row.period}): oracle walks {walked}"
                )
    criterion(4, "promotion action orders (m; m; 3m on freudenthal for m=22,23 and 6m for "
              "24<=m<=30 with largest orbit 3m, certified by K-jeu-de-taquin)",
              not violations, "; ".join(violations))


def test_criterion_5_csp_holds(cm_table, pf_table):
    failures = []
    cm = cayley_moufang()
    for k in range(1, 21):
        if not verify_csp(cm, k, table=cm_table).holds:
            failures.append(f"cayley-moufang k={k}")
    pf = freudenthal()
    for k in range(0, 5):
        if not verify_csp(pf, k, table=pf_table).holds:
            failures.append(f"freudenthal k={k}")
    for p in range(3, 7):
        shape = propeller(p)
        table = build_gapless_table(shape)
        for k in range(0, 7):
            if not verify_csp(shape, k, table=table).holds:
                failures.append(f"propeller-{p} k={k}")
    criterion(5, "sieving holds: cayley-moufang k<=20, freudenthal k<=4, propellers p<=6 k<=6",
              not failures, "; ".join(failures))


def test_criterion_6_csp_fails(pf_table):
    pf = freudenthal()
    problems = []
    for k in (5, 6, 7):
        verdict = verify_csp(pf, k, table=pf_table)
        m = k + 17 + 1
        gf = plane_partition_gf(pf, k)
        d1 = verdict.records[0]
        if verdict.holds:
            problems.append(f"k={k} unexpectedly holds")
        if d1.d != 1 or d1.fixed_count != 0 or d1.match:
            problems.append(f"k={k} d=1 record {d1}")
        if is_zero_at_primitive_root(gf, 3 * m):
            problems.append(f"k={k}: gf vanishes at a primitive {3 * m}-th root")
    criterion(6, "sieving fails for freudenthal k=5,6,7 with zero fixed points but nonzero gf",
              not problems, "; ".join(problems))


def test_criterion_7_bijection_and_commutation_suites():
    violations = 0
    checked = 0
    for shape, m_max in ((propeller(3), 8), (rectangle(2, 3), 7)):
        gapless_by_m = Counter(t.m for t in enumerate_gapless(shape))
        for m in range(shape.rk + 1, m_max + 1):
            tabs = list(enumerate_increasing(shape, m))
            expected_count = sum(c * comb(m, n) for n, c in gapless_by_m.items() if n <= m)
            if len(tabs) != expected_count:
                violations += 1
            for T in tabs:
                checked += 1
                S, v = deflate(T), content_vector(T)
                if not (S.is_gapless and sum(v) == S.m and inflate(S, v) == T):
                    violations += 1
                image = promotion(T)
                if v[0] == 1:
                    if deflate(image) != promotion(S):
                        violations += 1
                elif image.labels != tuple(x - 1 for x in T.labels):
                    violations += 1
                if content_vector(image) != rotate_left(v):
                    violations += 1
    criterion(7, f"deflation bijection, promotion commutation, content rotation ({checked} tableaux)",
              violations == 0, f"{violations} violations")


def test_criterion_8_oracle_equivalence(cm_table):
    problems = []
    for shape, m_range in ((propeller(3), range(5, 10)), (propeller(4), range(7, 10))):
        table = build_gapless_table(shape)
        for m in m_range:
            census = promotion_census(shape, m)
            order = promotion_order(shape, m, table=table).period
            for j in [d for d in range(1, order + 1) if order % d == 0]:
                brute = sum(s * n for s, n in census.items() if j % s == 0)
                if count_fixed(table, m, j) != brute:
                    problems.append(f"{shape.family} m={m} j={j}")
    # Rowmotion side, via the orbit-multiset equivalence.
    for shape, table, ks in (
        (cayley_moufang(), cm_table, (0, 1, 2)),
        (propeller(3), build_gapless_table(propeller(3)), (0, 1, 2, 3, 4)),
    ):
        for k in ks:
            m = shape.rk + k + 1
            summary = rowmotion_orbits(shape, k)
            order = promotion_order(shape, m, table=table).period
            if summary.order() != order:
                problems.append(f"{shape.family} k={k}: order {summary.order()} vs {order}")
            for j in [d for d in range(1, order + 1) if order % d == 0]:
                if summary.fixed_by_power(j) != count_fixed(table, m, j):
                    problems.append(f"{shape.family} k={k} j={j}")
    criterion(8, "fixed-point counts agree with brute-force promotion and rowmotion censuses",
              not problems, "; ".join(problems))


def test_criterion_9_closed_form_arithmetic(cm_table):
    problems = []
    for m in range(16, 61, 8):
        got = count_fixed(cm_table, m, m // 8)
        if got != m * (m - 8) // 64:
            problems.append(f"cayley-moufang m={m} d=8: {got}")
    for p in range(3, 6):
        shape = propeller(p)
        table = build_gapless_table(shape)
        for m in range(2 * p - 1, 61):
            gf = None
            for d in range(2, m + 1):
                if m % d:
                    continue
                got = count_fixed(table, m, m // d)
                if p % d == 0:
                    want = 2 * comb(m // d, 2 * p // d)
                elif (2 * p - 1) % d == 0:
                    want = comb(m // d, (2 * p - 1) // d)
                else:
                    want = 0
                    if gf is None:
                        gf = plane_partition_gf(shape, m - 2 * p + 1)
                    value = eval_at_root(gf, m, m // d)
                    if not value.equals_int(0):
                        problems.append(f"p={p} m={m} d={d}: gf value {value.value}")
                    if not is_zero_at_primitive_root(gf, d):
                        problems.append(f"p={p} m={m} d={d}: gf misses the cyclotomic factor")
                if got != want:
                    problems.append(f"p={p} m={m} d={d}: {got} != {want}")
    criterion(9, "closed-form fixed-point counts for p<=5, m<=60 (binomial and vanishing cases)",
              not problems, "; ".join(problems[:6]))


def test_criterion_10_operator_fixtures():
    ok = cli._tableau_fixtures_ok(propeller(4))
    criterion(10, "label-swap, promotion, and deflation/inflation fixtures", ok)
