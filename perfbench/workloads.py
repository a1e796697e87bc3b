"""The benchmark's three workloads: table-build, sieve and census.

Each workload is a closed loop with one client in one process (only the
2-worker table builds use a pool, of 2 processes).  A pass sends a fixed
list of requests back to back, times each one between two runs of the
reference kernel (its gauge), and checks every output against golden or
expected values.  A traced pass makes the same requests with a span
around every call the benchmark makes into a library layer; on sieve,
where a request is one library call (verify_csp, promotion_order,
frame_check, load_or_build_table), a profile hook adds a span for each call
that request makes to the library's layer functions, so the call counts
are the library's own.  Measurements that need work the requests do not
do run once after the timed loop (probe).  The benchmark never patches
the library.

Each workload names its per-layer metrics and, for each, the end-to-end
metric it should move and on which workload (LAYER_METRICS).
"""

import json
import os
import random
import shutil
import sys
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from io import StringIO
from math import gcd
from pathlib import Path
from statistics import median
from time import perf_counter

from reference import gauge

# Gapless tableaux per ceiling of the 27-element shape (624,493 in all) and
# its orbit count; the paper's headline numbers.
FREUDENTHAL_GAPLESS = {
    17: 1, 18: 38, 19: 570, 20: 4560, 21: 21945, 22: 67298,
    23: 134596, 24: 174800, 25: 142025, 26: 65550, 27: 13110,
}
FREUDENTHAL_ORBITS = 26_050

# Fresh builds with 1 and then 2 workers, on shapes whose build takes
# 20-200 ms: short requests make many passes per run, so each request's
# median over them repeats from run to run, and the reference kernel timed
# around a short request sees the speed the machine ran it at.  The
# shapes differ in balance: shifted-staircase-5 splits well over 2 workers,
# one ceiling of rectangle-3x4 holds most of its tableaux.  A fresh
# Freudenthal build (about 45 s with 1 worker) runs only in the traced run,
# inside `reproduce --threads 2`.
BUILD_SHAPES = ("shifted-staircase-5", "rectangle-3x4", "rectangle-2x6", "cayley-moufang")
GOLDEN_BUILDS = ("propeller-3", "propeller-4", "propeller-5", "propeller-6")

# Period spot checks that `minuscule reproduce` runs: (shape, m) -> (period, max_orbit).
PERIODS = {
    ("cayley-moufang", 12): (12, 12), ("cayley-moufang", 17): (17, 17),
    ("cayley-moufang", 30): (30, 30),
    ("freudenthal", 18): (18, 18), ("freudenthal", 21): (21, 21),
    ("freudenthal", 22): (66, 66), ("freudenthal", 23): (69, 69),
    ("freudenthal", 24): (144, 72), ("freudenthal", 25): (150, 75),
    ("propeller-4", 8): (8, None), ("propeller-4", 13): (13, None),
}

# verify_csp recounts fixed points by rowmotion when gf(1) is at most this;
# the non-packaged shapes are queried only at heights under it.
PSI_CHECK_CAP = 20_000
PACKAGED = ("cayley-moufang", "freudenthal")
UNPACKAGED = ("rectangle-3x4", "shifted-staircase-5")
UNPACKAGED_HEIGHTS = range(0, 4)
# Large heights, the same for every seed, on both exceptional shapes.  A
# query's cost follows the action's order, which depends on how the
# ceiling factors, so heights drawn per seed would make the work of a pass
# depend on the seed; the seed shuffles the query order only.  Freudenthal
# at k=10 and k=16 takes 80-140 ms a query (k=50 takes about 0.9 s, k=80
# about 2.3 s): short queries keep a pass near 2 s, about a dozen passes
# per run.  Cayley-Moufang stays under 50 ms up to k=80, and its heights
# up to 20 are queried already.
LARGE_HEIGHTS = {"cayley-moufang": (25, 80), "freudenthal": (10, 16)}

# Census pairs: rowmotion on P x k against promotion at m = rk + k + 1.
# The timed pairs take 20-140 ms a request, so a run makes about seventy
# passes.  The headline pairs (1-2 s a request) and the 108-element freudenthal x 4
# census (7-9 s) run once, in the traced run's probe.
CENSUS = (("cayley-moufang", 3), ("freudenthal", 2))
HEADLINE_CENSUS = (("cayley-moufang", 4), ("freudenthal", 3))
DEEP_CENSUS = ("freudenthal", 4)
CENSUS_STATES = {
    ("cayley-moufang", 3): 3_003, ("freudenthal", 2): 1_463,
    ("cayley-moufang", 4): 19_305, ("freudenthal", 3): 24_320, ("freudenthal", 4): 293_930,
}

PROMOTION_SAMPLE = 1000


class Checks:
    """Checked outputs attempted, and one message per mismatch."""

    def __init__(self):
        self.attempted = 0
        self.mismatches: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.mismatches.append(what)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Workload:
    name = ""
    # the poset specs the workload builds at set-up
    SPECS: tuple[str, ...] = ()
    # per-layer metric -> the end-to-end metric it should move, on which workload
    LAYER_METRICS: dict[str, str] = {}

    def __init__(self, lib, posets: dict, root: Path, workdir: Path, seed: int, tracer, checks: Checks):
        self.lib = lib
        self.posets = posets
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.span = tracer.span
        self.check = checks.expect
        self.states_per_pass = 0

    @classmethod
    def make_posets(cls, lib) -> dict:
        return {spec: lib.parse_poset_spec(spec) for spec in cls.SPECS}

    @contextmanager
    def request(self, name, out: list, tag=None):
        """Time one request into out as (name, seconds, gauge).

        The gauge is the mean time of the reference kernel run right
        before and right after the request: how fast the machine ran
        around it.
        """
        before = gauge()
        with self.span("request", name if tag is None else tag):
            t0 = perf_counter()
            yield
            seconds = perf_counter() - t0
        out.append((name, seconds, (before + gauge()) / 2))

    def golden(self, name: str) -> dict:
        return json.loads((self.root / "src/minuscule/data/golden" / name).read_text())

    def run_pass(self) -> list[tuple]:
        """One pass of requests; returns (request, seconds, gauge) per request, the same requests every pass."""
        raise NotImplementedError

    def layer_metrics(self) -> dict[str, float]:
        """Workload-specific per-layer metrics, from the spans of the traced passes."""
        raise NotImplementedError

    def probe(self) -> dict[str, float]:
        """Extra traced-run measurements made after the timed loop."""
        return {}


class TableBuild(Workload):
    """Fresh orbit-table builds: each build shape with 1 and then 2 workers, then the small golden shapes."""

    name = "table-build"
    SPECS = BUILD_SHAPES + GOLDEN_BUILDS + ("freudenthal",)
    LAYER_METRICS = {
        "tableaux.enumerate_gapless_s": "build_w1_s on table-build",
        **{f"tableaux.gapless.m{m}": "exact count; sums to 624,493" for m in FREUDENTHAL_GAPLESS},
        **{
            f"tableaux.promotion_gapless_us.m{m}": "build_w1_s on table-build"
            + ("; build_w2_s through the largest ceiling" if m == 24 else "")
            for m in FREUDENTHAL_GAPLESS
        },
        "orbits.orbits": "exact count, 26,050",
        "orbits.w2_excess_s": "scaling_w2 on table-build",
        "cli.reproduce_w2_s": "build_w2_s on table-build (ROADMAP's reproduce time)",
    }

    def __init__(self, *args):
        super().__init__(*args)
        # Regression references made by this engine for the shapes the
        # repository ships no golden table for.
        golden = json.loads((Path(__file__).parent / "golden_tables.json").read_text())
        for spec in BUILD_SHAPES + GOLDEN_BUILDS:
            if spec not in golden:
                golden[spec] = self.golden(f"table_{spec.replace('-', '_')}.json")
        self.golden_tables = golden
        self.golden_freudenthal = self.golden("table_freudenthal.json")
        self.excess: list[float] = []
        self.table_reads: list[str] = []
        stored = (str(self.root / "src/minuscule/data/cache"), str(self.workdir))
        reads = self.table_reads

        def watch_opens(event, args):
            # Every file the process opens from here on: no stored table may be read.
            if event == "open" and isinstance(args[0], (str, bytes)):
                path = os.path.abspath(os.fsdecode(args[0]))
                if path.startswith(stored):
                    reads.append(path)

        sys.addaudithook(watch_opens)

    def _build(self, out, request, spec, workers):
        with self.request(request, out), self.span("orbits.build_gapless_table", request):
            return self.lib.build_gapless_table(self.posets[spec], workers=workers)

    def run_pass(self):
        out = []
        w1_total = w2_total = 0.0
        for spec in BUILD_SHAPES:
            w1 = self._build(out, f"build_w1 {spec}", spec, 1)
            w2 = self._build(out, f"build_w2 {spec}", spec, 2)
            w1_total += out[-2][1]
            w2_total += out[-1][1]
            self._check_golden(spec, w1)
            self.check(
                (w2.rows, w2.stable, w2.total) == (w1.rows, w1.stable, w1.total),
                f"{spec} 2-worker table differs from the 1-worker table",
            )
            self.check(sum(r.period * r.orbits for r in w1.rows) == w1.total, f"{spec} orbit sizes do not sum to the total")
        for spec in GOLDEN_BUILDS:
            self._check_golden(spec, self._build(out, f"build_w1 {spec}", spec, 1))
        self.check(not self.table_reads, f"table-build read stored tables: {sorted(set(self.table_reads))}")
        self.excess.append(w2_total - w1_total / 2)
        return out

    def _check_golden(self, spec, table):
        g = self.golden_tables[spec]
        ok = table.triples() == g["rows"] and table.total == g["total"]
        if "stable" in g:
            ok = ok and list(table.stable) == g["stable"]
        self.check(ok, f"{spec} table differs from its golden")

    def layer_metrics(self):
        return {"orbits.w2_excess_s": median(self.excess)}

    def probe(self):
        lib, span = self.lib, self.span
        shape = self.posets["freudenthal"]
        out = {}
        counts = Counter()
        samples: dict[int, list] = {m: [] for m in FREUDENTHAL_GAPLESS}
        stride = {m: max(1, n // PROMOTION_SAMPLE) for m, n in FREUDENTHAL_GAPLESS.items()}
        with span("tableaux.enumerate_gapless") as rec:
            for t in lib.enumerate_gapless(shape):
                seen = counts[t.m]
                counts[t.m] = seen + 1
                if seen % stride.get(t.m, 1) == 0:
                    samples.setdefault(t.m, []).append(t)
        out["tableaux.enumerate_gapless_s"] = rec[5] - rec[4]
        self.check(dict(counts) == FREUDENTHAL_GAPLESS, f"gapless counts per ceiling {dict(counts)}")
        for m in FREUDENTHAL_GAPLESS:
            out[f"tableaux.gapless.m{m}"] = counts[m]
            tabs = samples[m]
            with span("tableaux.promotion", f"m{m}") as rec:
                for t in tabs:
                    lib.promotion(t)
            out[f"tableaux.promotion_gapless_us.m{m}"] = (rec[5] - rec[4]) / max(1, len(tabs)) * 1e6

        from minuscule import cli

        # reproduce builds the Freudenthal table fresh with 2 workers and
        # compares its rows with the golden ones; the orbit count is that
        # of the rows it found equal.
        buf = StringIO()
        with span("cli.main", "reproduce") as rec, redirect_stdout(buf):
            code = cli.main(["reproduce", "--threads", "2"])
        out["cli.reproduce_w2_s"] = rec[5] - rec[4]
        lines = buf.getvalue().strip().splitlines()
        self.check(code == 0 and lines[-1:] == ["OK: 0 failure(s)"], f"reproduce exited {code}")
        self.check(all(line.startswith("PASS") for line in lines[:-1]), "reproduce reported a FAIL line")
        for shape_name, m in PERIODS:
            self.check(f"PASS  period {shape_name} m={m}" in lines, f"reproduce lacks period {shape_name} m={m}")
        self.check("PASS  gapless-table freudenthal" in lines, "reproduce lacks the freudenthal table check")
        g = self.golden_freudenthal
        out["orbits.orbits"] = sum(orbits for _, _, orbits in g["rows"])
        self.check(g["total"] == sum(FREUDENTHAL_GAPLESS.values()), f"golden freudenthal total {g['total']}")
        self.check(out["orbits.orbits"] == FREUDENTHAL_ORBITS, f"freudenthal orbits {out['orbits.orbits']}")
        self.check(not self.table_reads, f"table-build read stored tables: {sorted(set(self.table_reads))}")
        return out


class Sieve(Workload):
    """Back-to-back sieving and period queries; every query looks its table up, as the CLI does."""

    name = "sieve"
    SPECS = PACKAGED + tuple(f"propeller-{p}" for p in range(3, 7)) + UNPACKAGED
    LAYER_METRICS = {
        "orbits.load_or_build_table_ms": "query_p50_ms on sieve (packaged-table lookup, paid per query)",
        "poset.digest_ms": "query_p50_ms on sieve (paid per lookup)",
        "orbits.promotion_order_ms": "query_p50_ms on sieve",
        "orbits.cold_build_ms": "query_tail_ms on sieve",
        "orbits.cached_load_ms": "query_p50_ms on sieve",
        "qpoly.plane_partition_gf_ms": "query_tail_ms on sieve",
        "qpoly.eval_at_root_ms": "query_tail_ms on sieve",
        "qpoly.eval_calls": "query_tail_ms on sieve (exact count per pass)",
        "qpoly.eval_useful_ratio": "query_tail_ms on sieve",
        "orbits.count_fixed_ms": "query_tail_ms on sieve",
        "orbits.count_fixed_calls": "query_tail_ms on sieve (exact count per pass)",
        "orbits.count_fixed_useful_ratio": "query_tail_ms on sieve",
        "ideals.recount_ms": "query_tail_ms on sieve",
    }

    def __init__(self, *args):
        super().__init__(*args)
        q = [("csp", "cayley-moufang", k) for k in range(0, 21)]
        q += [("csp", "freudenthal", k) for k in range(0, 8)]
        q += [("csp", f"propeller-{p}", k) for p in range(3, 7) for k in range(0, 7)]
        q += [("period", spec, m) for spec, m in PERIODS]
        q += [("frame", "freudenthal", 0)]
        q += [("csp", spec, k) for spec, heights in LARGE_HEIGHTS.items() for k in heights]
        q += [("csp", spec, k) for spec in UNPACKAGED for k in UNPACKAGED_HEIGHTS]
        assert len(set(q)) == len(q), "a query is listed twice"
        self.queries = q
        lib = self.lib
        # The library functions a traced query is watched for: code object ->
        # (span name, arguments kept as the span's tag).
        self.watched = {
            lib.Poset.digest.__code__: ("poset.digest", ()),
            lib.load_or_build_table.__code__: ("orbits.load_or_build_table", ()),
            lib.build_gapless_table.__code__: ("orbits.build_gapless_table", ()),
            lib.orbits.load_table.__code__: ("orbits.load_table", ()),
            lib.promotion_order.__code__: ("orbits.promotion_order", ()),
            lib.verify_csp.__code__: ("orbits.verify_csp", ()),
            lib.frame_check.__code__: ("orbits.frame_check", ()),
            lib.plane_partition_gf.__code__: ("qpoly.plane_partition_gf", ()),
            lib.eval_at_root.__code__: ("qpoly.eval_at_root", ("n", "d")),
            lib.count_fixed.__code__: ("orbits.count_fixed", ("j",)),
            lib.rowmotion_orbits.__code__: ("ideals.rowmotion_orbits", ()),
        }
        self.pass_counts: list[tuple[int, int, int, int]] = []
        self.passes = 0

    def run_pass(self):
        # A fresh cache directory per pass.  Right before the first query
        # on each shape without a packaged table, a lookup request builds
        # and writes the table; the shape's queries then read it back.
        # The build is a request of its own, so every pass times the same
        # work whatever the shuffled order.
        self.cache_dir = self.workdir / f"cache-{self.passes}"
        self.cache_dir.mkdir(parents=True)
        self.passes += 1
        spans = self.tracer.spans
        counts = [0, 0, 0, 0]
        shuffled = list(self.queries)
        self.rng.shuffle(shuffled)
        order = []
        for query in shuffled:
            spec = query[1]
            if spec not in PACKAGED and ("lookup", spec, 0) not in order:
                order.append(("lookup", spec, 0))
            order.append(query)
        out = []
        for query in order:
            first = len(spans)
            with self.request(query, out, "%s %s %d" % query), self.tracer.library_calls(self.watched):
                self._query(query)
            if self.tracer.enabled:
                # Calls the library made for this query, and how many of
                # them were distinct: eval_at_root by gcd(d, order) class,
                # count_fixed by its power j.
                evals = [s[3] for s in spans[first:] if s[2] == "qpoly.eval_at_root"]
                fixed = [s[3] for s in spans[first:] if s[2] == "orbits.count_fixed"]
                counts[0] += len(evals)
                counts[1] += len({gcd(n, d) for n, d in evals})
                counts[2] += len(fixed)
                counts[3] += len(set(fixed))
        self.check(
            len(os.listdir(self.cache_dir)) == len(self.posets) - len(PACKAGED),
            f"cache directory holds {os.listdir(self.cache_dir)}",
        )
        if self.tracer.enabled:
            self.pass_counts.append(tuple(counts))
        shutil.rmtree(self.cache_dir)
        return out

    def _query(self, query):
        kind, spec, n = query
        lib, shape = self.lib, self.posets[spec]
        if kind == "csp":
            v = lib.verify_csp(shape, n, cache_dir=self.cache_dir)
            holds, first_fixed = v.holds, v.records[0].fixed_count
            fails = spec == "freudenthal" and n >= 5
            self.check(holds == (not fails), f"verify_csp {spec} k={n}: holds={holds}")
            if fails:
                self.check(first_fixed == 0, f"verify_csp {spec} k={n}: {first_fixed} fixed at d=1")
            if spec in UNPACKAGED:
                self.check(v.psi_cross_checked, f"verify_csp {spec} k={n}: no rowmotion recount")
        elif kind == "period":
            r = lib.promotion_order(shape, n, cache_dir=self.cache_dir)
            period, max_orbit = PERIODS[(spec, n)]
            ok = r.period == period and max_orbit in (None, r.max_orbit)
            self.check(ok, f"period {spec} m={n}: {r.period}/{r.max_orbit}")
        elif kind == "lookup":
            table = lib.load_or_build_table(shape, cache_dir=self.cache_dir)
            self.check(sum(r.period * r.orbits for r in table.rows) == table.total, f"{spec} orbit sizes do not sum to the total")
        else:
            r = lib.frame_check(shape, cache_dir=self.cache_dir)
            self.check(r.match, f"frame-check {spec}: {r.frame_elements} vs {r.stable_elements}")

    def layer_metrics(self):
        spans = self.tracer.spans
        d = self.tracer.durations
        ms = lambda values: mean(values) * 1e3
        # A lookup is cold when it built the table, cached when it read it
        # back from the cache directory, and packaged otherwise.
        children: dict[int, set] = {}
        for s in spans:
            if s[1] is not None:
                children.setdefault(s[1], set()).add(s[2])
        lookups = {"packaged": [], "cold": [], "cached": []}
        for s in spans:
            if s[2] == "orbits.load_or_build_table":
                inner = children.get(s[0], set())
                kind = "cold" if "orbits.build_gapless_table" in inner else "cached" if "orbits.load_table" in inner else "packaged"
                lookups[kind].append(s[5] - s[4])
        counts = self.pass_counts
        self.check(len(set(counts)) == 1, f"eval/count_fixed counts differ between passes: {counts}")
        evals, eval_useful, fixed, fixed_useful = counts[0]
        return {
            "orbits.load_or_build_table_ms": ms(lookups["packaged"]),
            "poset.digest_ms": ms(d("poset.digest")),
            "orbits.promotion_order_ms": ms(d("orbits.promotion_order")),
            "orbits.cold_build_ms": ms(lookups["cold"]),
            "orbits.cached_load_ms": ms(lookups["cached"]),
            "qpoly.plane_partition_gf_ms": ms(d("qpoly.plane_partition_gf")),
            "qpoly.eval_at_root_ms": ms(d("qpoly.eval_at_root")),
            "qpoly.eval_calls": evals,
            "qpoly.eval_useful_ratio": eval_useful / evals if evals else 0.0,
            "orbits.count_fixed_ms": ms(d("orbits.count_fixed")),
            "orbits.count_fixed_calls": fixed,
            "orbits.count_fixed_useful_ratio": fixed_useful / fixed if fixed else 0.0,
            "ideals.recount_ms": ms(d("ideals.rowmotion_orbits")),
        }


def _key(spec, letter, n):
    return f"{spec}-{letter}{n}"


# The rank of each census shape: promotion at m = rk + k + 1 matches rowmotion on P x k.
_RANK = {"cayley-moufang": 10, "freudenthal": 16}


def _ceiling(spec, k):
    return _RANK[spec] + k + 1


class Census(Workload):
    """Brute-force orbit censuses: rowmotion on ideals of P x k, promotion on increasing tableaux."""

    name = "census"
    SPECS = ("cayley-moufang", "freudenthal")
    LAYER_METRICS = {
        "poset.chain_product_ms": "states_per_s on census",
        **{
            f"ideals.{metric}.{_key(spec, 'k', k)}": "states_per_s on census"
            + ("" if (spec, k) in CENSUS else " (traced run's probe)")
            for spec, k in CENSUS + HEADLINE_CENSUS + (DEEP_CENSUS,)
            for metric in ("rowmotion_orbits_s", "states")
            + (() if (spec, k) in CENSUS else ("enumerate_ideals_s",))
        },
        **{
            f"tableaux.{metric}.{_key(spec, 'm', _ceiling(spec, k))}": "states_per_s on census"
            + ("" if (spec, k) in CENSUS else " (traced run's probe)")
            for spec, k in CENSUS + HEADLINE_CENSUS
            for metric in ("enumerate_increasing_s", "promotion_gappy_us", "increasing")
        },
    }

    def __init__(self, *args):
        super().__init__(*args)
        self.layer: dict[str, list[float]] = {}
        for spec, rank in _RANK.items():
            self.check(self.posets[spec].rk == rank, f"{spec} has rank {self.posets[spec].rk}, not {rank}")

    def _record(self, name, value):
        if self.tracer.enabled:
            self.layer.setdefault(name, []).append(value)

    def run_pass(self):
        out = []
        states = 0
        for spec, k in CENSUS:
            states += self._census(spec, k, out)
        self.states_per_pass = states
        return out

    def _census(self, spec, k, out: list) -> int:
        """Rowmotion on P x k, then promotion at the matching ceiling, as two requests; the states visited."""
        m = _ceiling(spec, k)
        key_k, key_m = _key(spec, "k", k), _key(spec, "m", m)
        with self.request(key_k, out):
            summary = self._rowmotion(spec, k)
        with self.request(key_m, out):
            sizes, count = self._promotion(spec, m)
        self.check(sizes == summary.sizes(), f"{key_m}: promotion orbits {dict(sizes)} vs rowmotion {summary.orbit_sizes}")
        self.check(count == summary.total_states, f"{key_m}: {count} tableaux vs {summary.total_states} ideals")
        self._check_rowmotion(spec, k, summary)
        return summary.total_states + count

    def _rowmotion(self, spec, k):
        key = _key(spec, "k", k)
        with self.span("ideals.rowmotion_orbits") as rec:
            summary = self.lib.rowmotion_orbits(self.posets[spec], k)
        if rec is not None:
            self._record(f"ideals.rowmotion_orbits_s.{key}", rec[5] - rec[4])
            self._record(f"ideals.states.{key}", summary.total_states)
        return summary

    def _promotion(self, spec, m):
        """Promotion-orbit sizes over every increasing tableau with ceiling m, and their number."""
        lib, span = self.lib, self.span
        key = _key(spec, "m", m)
        with span("tableaux.enumerate_increasing") as rec:
            tabs = list(lib.enumerate_increasing(self.posets[spec], m))
        if rec is not None:
            self._record(f"tableaux.enumerate_increasing_s.{key}", rec[5] - rec[4])
        sizes = Counter()
        seen = set()
        with span("tableaux.promotion") as rec:
            for t in tabs:
                if t in seen:
                    continue
                orbit = [t]
                cur = lib.promotion(t)
                while cur != t:
                    orbit.append(cur)
                    cur = lib.promotion(cur)
                seen.update(orbit)
                sizes[len(orbit)] += 1
        if rec is not None:
            self._record(f"tableaux.promotion_gappy_us.{key}", (rec[5] - rec[4]) / len(tabs) * 1e6)
            self._record(f"tableaux.increasing.{key}", len(tabs))
        return sizes, len(tabs)

    def _check_rowmotion(self, spec, k, summary):
        lib, span = self.lib, self.span
        shape = self.posets[spec]
        with span("qpoly.plane_partition_gf"):
            expected = lib.plane_partition_gf(shape, k)(1)
        self.check(
            summary.total_states == expected == CENSUS_STATES[spec, k],
            f"{spec} x {k}: {summary.total_states} ideals, gf(1) = {expected}",
        )
        with span("orbits.load_or_build_table"):
            table = lib.load_or_build_table(shape)
        m = _ceiling(spec, k)
        for j in divisors(summary.order()):
            with span("orbits.count_fixed"):
                fixed = lib.count_fixed(table, m, j)
            self.check(summary.fixed_by_power(j) == fixed, f"{spec} x {k}: fixed by power {j} differs")

    def probe(self):
        # The headline products: their posets and a plain traversal of
        # their ideals, which rowmotion_orbits does not expose; then their
        # censuses, and the rowmotion census of the deep product.
        lib, span = self.lib, self.span
        products = []
        for spec, k in HEADLINE_CENSUS + (DEEP_CENSUS,):
            key = _key(spec, "k", k)
            with span("poset.chain_product") as rec:
                product = lib.chain_product(self.posets[spec], k)
            products.append(rec[5] - rec[4])
            with span("ideals.enumerate_ideals") as rec:
                count = sum(1 for _ in lib.enumerate_ideals(product))
            self._record(f"ideals.enumerate_ideals_s.{key}", rec[5] - rec[4])
            self.check(count == CENSUS_STATES[spec, k], f"{key}: {count} ideals enumerated")
        for spec, k in HEADLINE_CENSUS:
            self._census(spec, k, [])
        spec, k = DEEP_CENSUS
        self._check_rowmotion(spec, k, self._rowmotion(spec, k))
        return {"poset.chain_product_ms": mean(products) * 1e3}

    def layer_metrics(self):
        out = {}
        for name, values in self.layer.items():
            if name.startswith(("ideals.states.", "tableaux.increasing.")):
                self.check(len(set(values)) == 1, f"{name} differs between passes: {values}")
                out[name] = values[0]
            else:
                out[name] = median(values)
        return out


WORKLOADS = {cls.name: cls for cls in (TableBuild, Sieve, Census)}
