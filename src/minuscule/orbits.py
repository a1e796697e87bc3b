"""Gapless orbit tables, the inflated-period formula, fixed-point counts, and sieving verdicts.

The promotion action on all tableaux of a shape is controlled by a finite
table: for each ceiling, the gapless tableaux partitioned into promotion
orbits.  Everything downstream (periods of the action, fixed-point counts
of its powers, cyclic sieving verdicts against the plane-partition
generating function) is exact arithmetic over that table.
"""

import hashlib
import json
import os
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, partial
from importlib import resources
from math import comb, gcd
from operator import eq, index
from pathlib import Path

from .errors import ParameterError, StateCapExceeded, _integer, read_input, state_cap
from .ideals import OrbitSummary, _orbit, rowmotion_orbits
from .poset import Poset
from .qpoly import (
    RootOfUnityValue, _divisors, _factor_residue, _hook_factors, _mobius, eval_at_root, plane_partition_gf,
    q_binomial_at_root,
)
from .tableaux import IncreasingTableau, _check_pair, _IdealGraph, _promote, _sweep, inflate, promotion, rotate_left

_TABLE_SCHEMA = "minuscule.gapless-table/1"

# verify_csp recounts rowmotion orbits when P x k has at most this many ideals.
_PSI_CHECK_CAP = 20_000

# Builds of fewer gapless tableaux than this run in one process whatever the
# worker count: with both CPUs idle a 2-process pool lost 20% at 39,453 and
# won 6% at 56,569, so the cut lies between; with one CPU busy it lost up to
# 126,289 (BENCH_27.json).
_POOL_MIN_CHAINS = 50_000


@dataclass(frozen=True)
class GaplessOrbitRow:
    """One orbit class: ceiling m_t, orbit period, orbit count, and a representative."""

    m_t: int
    period: int
    orbits: int
    rep: tuple[int, ...]


@dataclass(frozen=True)
class GaplessOrbitTable:
    poset: Poset
    rows: tuple[GaplessOrbitRow, ...]
    stable: tuple[int, ...]
    total: int

    def triples(self) -> list[list[int]]:
        return [[r.m_t, r.period, r.orbits] for r in self.rows]

    def to_dict(self) -> dict:
        return {
            "schema": _TABLE_SCHEMA,
            "family": self.poset.family,
            "poset_digest": self.poset.digest(),
            "total": self.total,
            "stable": list(self.stable),
            "rows": [
                {"m_t": r.m_t, "period": r.period, "orbits": r.orbits, "rep": list(r.rep)}
                for r in self.rows
            ],
        }


def _table_from_dict(data: dict, poset: Poset) -> GaplessOrbitTable:
    if not isinstance(data, dict):
        raise ParameterError("not a JSON object")
    if data.get("schema") != _TABLE_SCHEMA:
        raise ParameterError(f"unsupported table schema {data.get('schema')!r}")
    if data.get("poset_digest") != poset.digest():
        raise ParameterError("cached table belongs to a different poset")
    if poset.n == 0:
        raise ParameterError("the empty shape has no orbit table")
    rows = tuple(
        GaplessOrbitRow(*map(_integer, (r["m_t"], r["period"], r["orbits"])), tuple(map(_integer, r["rep"])))
        for r in data["rows"]
    )
    table = GaplessOrbitTable(poset, rows, tuple(map(_integer, data["stable"])), _integer(data["total"]))
    if any(min(r.m_t, r.period, r.orbits) < 1 for r in rows):
        raise ParameterError("cached table has a row whose ceiling, period or orbit count is not positive")
    keys = [(r.m_t, r.period) for r in rows]
    if keys != sorted(set(keys)):
        raise ParameterError("cached table rows are not strictly ascending by ceiling and period")
    if table.stable != tuple(sorted(set(table.stable).intersection(range(poset.n)))):
        raise ParameterError("cached table's stable elements are not strictly ascending inside the shape")
    if sum(r.period * r.orbits for r in rows) != table.total:
        raise ParameterError("cached table is inconsistent: orbit sizes do not sum to the total")
    by_ceiling: Counter = Counter()
    for r in rows:
        by_ceiling[r.m_t] += r.period * r.orbits
    # Each ideal and successor entry of a true table's shape lies on one of its
    # total chains (n + 1 ideals, n steps), so that product bounds its recount.
    try:
        sizes = _IdealGraph(poset, max(1, table.total * (poset.n + 1))).class_sizes()
    except StateCapExceeded:
        sizes = None
    if by_ceiling != sizes:
        raise ParameterError("cached table does not match the shape: wrong tableau count at some ceiling")
    sweep = _sweep(poset)
    for r in rows:  # last, as each rep's orbit is walked
        start = IncreasingTableau(poset, r.rep, r.m_t)
        if not start.is_gapless:
            raise ParameterError(f"cached table row {r.m_t, r.period}: its rep is not gapless")
        if _orbit(start.labels, partial(_promote, sweep, m=r.m_t), r.period) != r.period:
            raise ParameterError(f"cached table row {r.m_t, r.period}: its rep's orbit has another size")
    return table


def _workers(value) -> int:
    """A worker count: an integer, at least 1."""
    workers = _integer(value)
    if workers < 1:
        raise ParameterError(f"worker count must be at least 1, got {workers}")
    return workers


def build_gapless_table(poset: Poset, workers: int = 1, cap: int | None = None) -> GaplessOrbitTable:
    """Enumerate every gapless tableau of the shape and partition each ceiling into orbits.

    With workers > 1 the ceilings are distributed over processes, unless the
    shape has fewer than _POOL_MIN_CHAINS gapless tableaux: such a build runs
    in one process whatever the worker count.  Either way the graph splits
    the ceilings, largest first, each checked against its path count, and
    one loop takes their rows, so the result is identical (asserted by tests).
    """
    cap = state_cap(cap)
    workers = _workers(workers)
    if poset.n == 0:
        raise ParameterError("the empty shape has no orbit table")
    graph = _IdealGraph(poset, cap)
    sizes = graph.class_sizes()
    chains = sum(sizes.values())
    order = sorted(sizes, key=lambda m: (-sizes[m], m))
    if workers > 1 and chains >= _POOL_MIN_CHAINS:
        # Loaded here, so a process that starts no pool never imports them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        with ProcessPoolExecutor(max_workers=min(workers, len(order)), mp_context=ctx) as pool:
            classes = list(pool.map(graph.class_orbits, order))
    else:
        classes = map(graph.class_orbits, order)
    rows = []
    moved = 0
    for m, (class_rows, class_moved) in zip(order, classes):
        moved |= class_moved
        rows.extend(GaplessOrbitRow(m, tau, count, rep) for tau, count, rep in class_rows)
    rows.sort(key=lambda row: row.m_t)  # stable: each ceiling keeps its rows by period
    stable = tuple(x for x in range(poset.n) if not (moved >> x) & 1)
    return GaplessOrbitTable(poset, tuple(rows), stable, chains)


def save_table(table: GaplessOrbitTable, path: str | Path) -> None:
    """Write the table as JSON; a temporary file renamed into place, so readers never see half a table."""
    path = Path(path)
    text = json.dumps(table.to_dict(), indent=1, sort_keys=True) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_table(path: str | Path, poset: Poset) -> GaplessOrbitTable:
    """The table stored in a JSON file; an unreadable or ill-formed file is bad input naming the file."""
    return _read_table(Path(path), poset)


def _table_name(poset: Poset) -> str:
    return f"gapless-{poset.digest()}.json"


# The sha256 of each table shipped under data/cache, by file name: a file
# that does not match its pin is an internal error.
_PACKAGED_SHA256 = {
    "gapless-1b3fa808a09e726e5a8edd99a44615f7e966d32fa916b5192f11a371853737e9.json":
        "e32200080060da8d5fcee794c1e57b7263ecb55567290439fb7ef9e9373d5d62",
    "gapless-aa722f08f2f0dcb36e71be3a353fc477e0924ae2eac33f74b5892f3a9202adab.json":
        "b417e3b3425d3395e42f26eb2359e6feb9d46ae04206fee1df0138e1f79744c3",
}

# Each stored table as checked, by (sha256 of its file, poset digest): the same
# bytes for the same shape are checked once per process, shipped or in a cache
# directory, and a rewritten file is read afresh.
_TABLES: dict[tuple[str, str], GaplessOrbitTable] = {}


def _read_table(source, poset: Poset, pin: str | None = None) -> GaplessOrbitTable:
    """The table in source, a path or with pin a shipped file's name, on the caller's poset.
    A kept pinned table opens no file; a file that does not match its pin is an internal error."""
    table = _TABLES.get((pin, poset.digest()))
    if table is None:
        if pin is not None:
            source = resources.files("minuscule").joinpath("data/cache", source)
        def parse(data: bytes) -> GaplessOrbitTable:
            key = (hashlib.sha256(data).hexdigest(), poset.digest())
            if pin is not None and key[0] != pin:
                raise RuntimeError(f"packaged table {source} does not match its sha256 pin")
            if key not in _TABLES:
                _TABLES[key] = _table_from_dict(json.loads(data), poset)
            return _TABLES[key]
        table = read_input(source, parse, "table")
    return GaplessOrbitTable(poset, table.rows, table.stable, table.total)


def packaged_table(poset: Poset) -> GaplessOrbitTable | None:
    """Table shipped with the package for this exact poset, if any, on the caller's poset."""
    name = _table_name(poset)
    pin = _PACKAGED_SHA256.get(name)
    return None if pin is None else _read_table(name, poset, pin)


def load_or_build_table(
    poset: Poset,
    cache_dir: str | Path | None = None,
    workers: int = 1,
    cap: int | None = None,
) -> GaplessOrbitTable:
    """Packaged table, else on-disk cache keyed by poset digest (made before any build), else a fresh build.

    workers, and cap when given, are checked before any lookup.
    """
    workers = _workers(workers)
    if cap is not None:
        cap = state_cap(cap)
    table = packaged_table(poset)
    if table is not None:
        return table
    cache_path = None
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"unusable cache directory {cache_dir}: {exc}") from exc
        cache_path = cache_dir / _table_name(poset)
        if cache_path.exists():
            return load_table(cache_path, poset)
    table = build_gapless_table(poset, workers=workers, cap=cap)
    if cache_path is not None:
        save_table(table, cache_path)
    return table


def _table_for(
    poset: Poset, table: GaplessOrbitTable | None, cache_dir: str | Path | None, workers: int
) -> GaplessOrbitTable:
    """The given table, refused unless it is the poset's own; without one, the looked-up table."""
    workers = _workers(workers)
    if table is None:
        return load_or_build_table(poset, cache_dir=cache_dir, workers=workers)
    if table.poset != poset:
        raise ParameterError("the given table belongs to a different poset")
    return table


def inflated_period(m: int, m_t: int, tau: int, ell: int) -> int:
    """Promotion period of an inflated tableau: ceiling m, gapless data (m_t, tau), content period ell."""
    m, m_t, tau, ell = map(_integer, (m, m_t, tau, ell))
    if m < 1 or m_t < 1 or tau < 1 or ell < 1:
        raise ParameterError("all arguments must be positive")
    if m % ell:
        raise ParameterError(f"content period {ell} must divide the ceiling {m}")
    if (ell * m_t) % m:
        raise ParameterError(
            f"no content vector of length {m} with {m_t} ones has period {ell}"
        )
    return _inflated_period(m, m_t, tau, ell)


def _inflated_period(m: int, m_t: int, tau: int, ell: int) -> int:
    return ell * tau // gcd(ell * m_t // m, tau)


def promote_pair(gapless: IncreasingTableau, v: tuple[int, ...]):
    """Promotion transported through deflation: promote the gapless part iff v starts with 1, rotate v."""
    _check_pair(gapless, v)
    if v and v[0] == 1:
        return promotion(gapless), rotate_left(v)
    return gapless, rotate_left(v)


def exact_period_vector_count(m: int, n: int, e: int) -> int:
    """Number of binary vectors of length m with n ones and exact rotation period e."""
    m, n, e = map(_integer, (m, n, e))
    if m < 1 or not 0 <= n <= m:
        raise ParameterError("need 0 <= n <= m with m positive")
    if e < 1 or m % e:
        raise ParameterError(f"exact period {e} must be a positive divisor of the length {m}")
    if n in (0, m):  # the constant vector, of period 1; here gcd(m, n) = m, too many divisors to list
        return int(e == 1)
    g = gcd(m, n)
    j, off = divmod(e, m // g)
    return 0 if off else _exact_period_count(m // g, n // g, j)


def _exact_period_count(step: int, ones: int, j: int) -> int:
    # Length m, n ones: a period e holds n * e / m ones, so e = step * j, step = m / gcd(m, n),
    # j | gcd(m, n).  Mobius inversion over the periods step * i, i | j, of ones * i ones each.
    return sum(_mobius(j // i) * comb(step * i, ones * i) for i in _divisors(j))


@cache
def _content_periods(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """The exact rotation periods e of the binary vectors of length m with n ones, ascending,
    each with its nonzero vector count: one divisor listing of gcd(m, n) <= n."""
    g = gcd(m, n)
    counts = ((m // g * j, _exact_period_count(m // g, n // g, j)) for j in _divisors(g))
    return tuple((e, vectors) for e, vectors in counts if vectors)


def _inflation_classes(table: GaplessOrbitTable, m: int):
    """All ceiling-m tableaux, as inflations of a table row by the vectors of exact content
    period e: yields (row, e, vector count, promotion period h of each inflation).
    """
    for row in table.rows:
        if row.m_t <= m:
            for e, vectors in _content_periods(m, row.m_t):
                yield row, e, vectors, _inflated_period(m, row.m_t, row.period, e)


def promotion_orbits(table: GaplessOrbitTable, m: int) -> OrbitSummary:
    """Multiset of promotion orbit sizes on all ceiling-m tableaux, read off the table: each
    row of ceiling m_t lists the divisors of gcd(m, m_t) <= m_t, so the cost does not grow with m."""
    m = _integer(m)
    if m < 0:
        raise ParameterError("ceiling must be nonnegative")
    states: Counter = Counter()
    for row, _, vectors, h in _inflation_classes(table, m):
        states[h] += row.period * row.orbits * vectors
    return OrbitSummary.from_states(states)


def count_fixed(table: GaplessOrbitTable, m: int, j: int) -> int:
    """Number of tableaux with ceiling m whose promotion period divides j.

    Sums, over table rows and admissible content periods e, the count of
    exact-period-e vectors whose inflated period divides j, weighted by the
    row's tableau count; the periods e of a row follow the divisors of gcd(m, m_t).
    """
    m, j = _integer(m), _integer(j)
    if j < 1:
        raise ParameterError("j must be positive")
    return promotion_orbits(table, m).fixed_by_power(j)


def count_fixed_qbinomial(table: GaplessOrbitTable, m: int, d: int) -> int:
    """Fixed-count via the q-binomial closed form, for rows whose period divides their ceiling.

    Counts tableaux with ceiling m and period dividing m/d, for d | m; only
    valid when every row with m_t <= m has period dividing m_t (true for the
    Cayley-Moufang poset and the propellers).
    """
    m, d = _integer(m), _integer(d)
    if m < 0:
        raise ParameterError("ceiling must be nonnegative")
    if d < 1 or m % d:
        raise ParameterError(f"d = {d} must divide m = {m}")
    total = 0
    for row in table.rows:
        if row.m_t > m:
            continue
        if row.m_t % row.period:
            raise ParameterError(
                f"row (m_t={row.m_t}, period={row.period}) is outside this formula's hypothesis"
            )
        if (row.m_t // row.period) % d == 0:
            total += row.period * row.orbits * q_binomial_at_root(m, row.m_t, d)
    return total


def _periodic_vector(m: int, n: int, e: int) -> tuple[int, ...]:
    # Ones-block window tiled m/e times: exact rotation period e.
    ones = n * e // m
    window = (1,) * ones + (0,) * (e - ones)
    return window * (m // e)


@dataclass(frozen=True)
class PeriodReport:
    """Order of the promotion action on all ceiling-m tableaux.

    period is the order of the permutation (lcm of all orbit sizes);
    max_orbit is the largest single orbit, and witness is a verified tableau
    attaining it.  The two numbers agree except when some orbit size fails
    to divide the largest one.
    """

    m: int
    period: int
    max_orbit: int
    witness: IncreasingTableau | None


def _largest_orbit_witness(poset: Poset, table: GaplessOrbitTable, m: int):
    """(the ceiling-m summary of table, its largest orbit size, a tableau attaining it or
    None): the tableau is an inflated table row whose orbit is walked to confirm its size.

    An orbit longer than the state cap is not walked: it raises StateCapExceeded.  The
    summary lists the divisors of gcd(m, m_t) <= n per row, so a huge m is refused at once.
    """
    promo = promotion_orbits(table, m)
    max_orbit = promo.orbit_sizes[-1][0] if promo.orbit_sizes else 1
    cap = state_cap()
    if max_orbit > cap:
        raise StateCapExceeded(f"the largest orbit has {max_orbit} tableaux to walk", cap)
    for row, e, _, h in _inflation_classes(table, m):
        if h == max_orbit:
            rep = IncreasingTableau(poset, row.rep, row.m_t)
            witness = inflate(rep, _periodic_vector(m, row.m_t, e))
            steps = _orbit(witness.labels, partial(_promote, _sweep(poset), m=m), max_orbit)
            if steps is None:
                raise RuntimeError(f"orbit walk did not return to its start within {max_orbit} steps")
            if steps != max_orbit:
                raise RuntimeError(f"witness verification failed: orbit size {steps}, expected {max_orbit}")
            return promo, max_orbit, witness
    return promo, max_orbit, None


def promotion_order(
    poset: Poset,
    m: int,
    table: GaplessOrbitTable | None = None,
    cache_dir: str | Path | None = None,
    workers: int = 1,
) -> PeriodReport:
    """Order of promotion on all ceiling-m tableaux of the shape, with a maximal-orbit witness.

    Every tableau is an inflation of a table row by a content vector, so the
    realized orbit sizes are the inflated periods over rows and admissible
    exact content periods; the order is their lcm.  The witness's orbit is
    walked to confirm its size.
    """
    m = _integer(m)
    if m < poset.rk + 1:
        raise ParameterError(f"no tableaux of this shape with ceiling {m}")
    table = _table_for(poset, table, cache_dir, workers)
    promo, max_orbit, witness = _largest_orbit_witness(poset, table, m)
    return PeriodReport(m, promo.order(), max_orbit, witness)


@dataclass(frozen=True)
class CspRecord:
    d: int
    fixed_count: int
    value: RootOfUnityValue
    match: bool


class _CspRecords(Sequence):
    """The records d = 1..order of a verdict, read-only, each built when it is read.

    Record d depends on d only through g = gcd(d, order), so only the classes
    g -> (fixed count, residue, match) are kept: memory follows the divisors
    of the order, not the order.  Indexing, slicing (to a tuple), iteration,
    equality and hashing behave as on the tuple of every record.
    """

    __slots__ = ("_order", "_by_gcd")

    def __init__(self, order: int, by_gcd: dict[int, tuple[int, tuple[int, ...], bool]]):
        self._order = order
        self._by_gcd = by_gcd

    def _record(self, d: int) -> CspRecord:
        g = gcd(d, self._order)
        fixed, residue, match = self._by_gcd[g]
        return CspRecord(d, fixed, RootOfUnityValue(self._order, d, self._order // g, residue), match)

    def __len__(self) -> int:
        return self._order

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._record, range(1, self._order + 1)[i]))
        i = index(i)
        if i < 0:
            i += self._order
        if not 0 <= i < self._order:
            raise IndexError("CSP record index out of range")
        return self._record(i + 1)

    def __iter__(self):
        return map(self._record, range(1, self._order + 1))

    def __eq__(self, other):
        if isinstance(other, _CspRecords):
            return self._order == other._order and self._by_gcd == other._by_gcd
        if isinstance(other, tuple):
            return len(other) == self._order and all(map(eq, self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


@dataclass(frozen=True)
class CspVerdict:
    poset_family: str
    k: int
    m: int
    order: int
    records: Sequence[CspRecord]
    holds: bool
    psi_cross_checked: bool = False

    def to_dict(self) -> dict:
        return {
            "poset": self.poset_family,
            "k": self.k,
            "m": self.m,
            "order": self.order,
            "holds": self.holds,
            "psi_cross_checked": self.psi_cross_checked,
            "records": [
                {
                    "d": r.d,
                    "fixed_count": r.fixed_count,
                    "value": r.value.value,
                    "match": r.match,
                }
                for r in self.records
            ],
        }


def verify_csp(
    poset: Poset,
    k: int,
    table: GaplessOrbitTable | None = None,
    cache_dir: str | Path | None = None,
    workers: int = 1,
) -> CspVerdict:
    """Exact sieving check: does the generating function evaluate, at every power of a
    primitive root of unity of the action's order, to the matching fixed-point count?

    The order and the fixed points of every power are read off one tableau-side
    orbit summary at ceiling m = k + rk + 1, whose largest orbit is walked.  The
    value at each primitive order is read exactly from the hook product's factors
    where they decide it; the polynomial is built, at most once, only when some
    primitive order needs it, and evaluated there.  A non-integer value is an
    automatic mismatch.  The verdict keeps one fixed count and value per divisor
    class gcd(d, order) and builds the record of each power d when it is read.  At
    most _PSI_CHECK_CAP ideals, the rowmotion orbit multiset is recounted by brute
    force and must equal the tableau side's.  A disagreement raises: as bad input
    naming the file when the table was read from cache_dir and a fresh build
    differs from it, and otherwise as an engine bug, not a sieving failure.
    """
    k = _integer(k)
    numer, denom = _hook_factors(poset, k)  # refuses a negative k and a shape of no built-in family
    given = table
    table = _table_for(poset, table, cache_dir, workers)
    m = k + poset.rk + 1
    promo = _largest_orbit_witness(poset, table, m)[0]
    order = promo.order()
    (count,) = _factor_residue(numer, denom, 1)  # gf(1): every factor vanishes at q = 1
    recounted = count <= _PSI_CHECK_CAP
    if recounted:
        summary = rowmotion_orbits(poset, k, cap=_PSI_CHECK_CAP)
        if summary != promo:
            detail = f"rowmotion orbits {summary.orbit_sizes} disagree with the tableau side {promo.orbit_sizes}"
            if given is None and cache_dir is not None and packaged_table(poset) is None:
                if build_gapless_table(poset, workers=workers).triples() != table.triples():
                    path = Path(cache_dir) / _table_name(poset)
                    raise ParameterError(f"cached table {path} does not match the shape: {detail}")
            raise RuntimeError(detail)
    # zeta^d and the d-fold action depend on d only through g = gcd(d, order).
    gf = None
    by_gcd = {}
    for g in _divisors(order):
        residue = _factor_residue(numer, denom, order // g)
        if residue is None:
            if gf is None:
                gf = plane_partition_gf(poset, k)
            residue = eval_at_root(gf, order, g).residue
        fixed = promo.fixed_by_power(g)
        by_gcd[g] = fixed, residue, RootOfUnityValue(order, g, order // g, residue).equals_int(fixed)
    holds = all(match for _, _, match in by_gcd.values())
    return CspVerdict(poset.family, k, m, order, _CspRecords(order, by_gcd), holds, recounted)


def max_tree_ideal(poset: Poset) -> frozenset[int]:
    """The largest order ideal in which every element covers at most one other.

    An ideal holds every lower cover of its members, so it is a tree ideal
    exactly when it avoids the elements with two or more lower covers; the
    elements whose down-set avoids them all form the largest one.
    """
    branching = sum(1 << x for x in range(poset.n) if len(poset.lower[x]) > 1)
    return frozenset(x for x in range(poset.n) if not poset.down_masks[x] & branching)


def max_dual_tree_filter(poset: Poset) -> frozenset[int]:
    """The largest order filter in which every element is covered by at most one other:
    the elements whose up-set avoids every element with two or more upper covers."""
    branching = sum(1 << x for x in range(poset.n) if len(poset.upper[x]) > 1)
    return frozenset(x for x in range(poset.n) if not poset.up_masks[x] & branching)


def frame(poset: Poset) -> frozenset[int]:
    """Union of the maximal tree ideal and the maximal dual-tree filter."""
    return max_tree_ideal(poset) | max_dual_tree_filter(poset)


@dataclass(frozen=True)
class FrameReport:
    frame_elements: tuple[int, ...]
    stable_elements: tuple[int, ...]
    match: bool


def frame_check(
    poset: Poset,
    table: GaplessOrbitTable | None = None,
    cache_dir: str | Path | None = None,
    workers: int = 1,
) -> FrameReport:
    """Compare the structural frame with the set of elements fixed by m-fold promotion
    across every gapless tableau (accumulated during table construction)."""
    table = _table_for(poset, table, cache_dir, workers)
    frame_els = tuple(sorted(frame(poset)))
    stable_els = table.stable
    return FrameReport(frame_els, stable_els, frame_els == stable_els)
