"""Command-line interface: one binary, subcommands per engine capability.

Exit codes: 0 all good, 1 mathematical mismatch against golden data,
2 resource cap exceeded, 3 bad input (usage errors included), 4 internal
error (any other exception, such as a failed engine self-check).  Each
subcommand offers only the options it reads.  Output is canonical (sorted,
newline-terminated) so identical inputs give byte-identical output
regardless of worker count.
"""

import argparse
import hashlib
import json
import sys
import time
import traceback
from importlib import resources
from pathlib import Path

from .errors import ParameterError, StateCapExceeded, UnsupportedPosetError, read_json
from .ideals import rowmotion_orbits
from .orbits import (
    build_gapless_table,
    frame_check,
    load_or_build_table,
    promotion_order,
    verify_csp,
)
from .poset import freudenthal, parse_poset_spec
from .qpoly import plane_partition_gf
from .tableaux import (
    IncreasingTableau, content_vector, deflate, enumerate_gapless, inflate, k_bender_knuth, promotion, promotion_census,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_RESOURCE = 2
EXIT_BAD_INPUT = 3
EXIT_INTERNAL = 4


def emit(payload, fmt: str = "text") -> str:
    """Canonical rendering: a (header, rows) table as text, csv or json, rows in
    the given order; any other payload as one JSON line."""
    if not (isinstance(payload, tuple) and len(payload) == 2):
        return json.dumps(payload, sort_keys=True) + "\n"
    header, rows = payload
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(str(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    widths = [max(len(h), *(len(str(r[i])) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.extend(
        "  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip() for row in rows
    )
    return "\n".join(lines) + "\n"


def _cmd_rowmotion_orbits(args) -> tuple[int, str]:
    poset = parse_poset_spec(args.poset)
    summary = rowmotion_orbits(poset, args.k, cap=args.state_cap)
    rows = [[size, mult] for size, mult in summary.orbit_sizes]
    out = emit((["orbit_size", "multiplicity"], rows), args.format)
    out += emit({"total_states": summary.total_states})
    return EXIT_OK, out


def _cmd_gapless_table(args) -> tuple[int, str]:
    poset = parse_poset_spec(args.poset)
    if args.fresh:
        table = build_gapless_table(poset, workers=args.threads, cap=args.state_cap)
    else:
        table = load_or_build_table(
            poset, cache_dir=args.cache_dir, workers=args.threads, cap=args.state_cap
        )
    rows = table.triples()
    out = emit((["m_t", "period", "orbits"], rows), args.format)
    if args.format != "csv":
        out += emit({"total": table.total})
    return EXIT_OK, out


def _cmd_verify_csp(args) -> tuple[int, str]:
    poset = parse_poset_spec(args.poset)
    verdict = verify_csp(poset, args.k, cache_dir=args.cache_dir, workers=args.threads)
    if args.json:
        return EXIT_OK, emit(verdict.to_dict())
    rows = [
        [r.d, r.fixed_count, r.value.value if r.value.is_integer else "non-integer", r.match]
        for r in verdict.records
    ]
    out = emit((["d", "fixed", "value", "match"], rows))
    out += f"verdict: {'holds' if verdict.holds else 'fails'} (order {verdict.order}, m {verdict.m})\n"
    return EXIT_OK, out


def _cmd_period(args) -> tuple[int, str]:
    poset = parse_poset_spec(args.poset)
    report = promotion_order(poset, args.m, cache_dir=args.cache_dir, workers=args.threads)
    payload = {"m": report.m, "period": report.period, "max_orbit": report.max_orbit}
    return EXIT_OK, emit(payload)


def _cmd_frame_check(args) -> tuple[int, str]:
    poset = parse_poset_spec(args.poset) if args.poset else freudenthal()
    report = frame_check(poset, cache_dir=args.cache_dir, workers=args.threads)
    payload = {
        "frame": list(report.frame_elements),
        "stable": list(report.stable_elements),
        "match": report.match,
    }
    return (EXIT_OK if report.match else EXIT_MISMATCH), emit(payload)


def _cmd_qpoly(args) -> tuple[int, str]:
    poset = parse_poset_spec(args.poset)
    gf = plane_partition_gf(poset, args.k)
    return EXIT_OK, emit(list(gf.coeffs), "json")


_GOLDEN = resources.files("minuscule").joinpath("data/golden")


def _golden_table(root, family: str) -> tuple[list, int]:
    """The rows and total of a family's golden orbit table in the directory root."""
    path = root.joinpath(f"table_{family.replace('-', '_')}.json")
    return read_json(path, lambda data: (data["rows"], data["total"]), "golden")


# Headline shapes, in report order; each table is built fresh once per run.
_FAMILIES = ("cayley-moufang", "propeller-3", "propeller-4", "propeller-5", "propeller-6", "freudenthal")

# Sieving verdicts (family, k, holds): Cayley-Moufang holds at every height
# checked, Freudenthal up to height 4 and fails at 5.
_SIEVING = tuple(("cayley-moufang", k, True) for k in range(9)) + tuple(
    ("freudenthal", k, k <= 4) for k in range(6)
)

# Spot checks of the action order (family, m, period, max_orbit).  The full
# action order and the largest single orbit differ on the 27-element shape
# once the ceiling reaches 24; both are checked.
_PERIODS = (
    ("cayley-moufang", 12, 12, 12), ("cayley-moufang", 17, 17, 17), ("cayley-moufang", 30, 30, 30),
    ("freudenthal", 18, 18, 18), ("freudenthal", 21, 21, 21), ("freudenthal", 22, 66, 66),
    ("freudenthal", 23, 69, 69), ("freudenthal", 24, 144, 72), ("freudenthal", 25, 150, 75),
    ("propeller-4", 8, 8, 8), ("propeller-4", 13, 13, 13),
)


def _headline_checks(threads: int, golden_root):
    """Yield (name, passed, detail) for each headline result, in report order."""
    tables = {}
    for family in _FAMILIES:
        rows, total = _golden_table(golden_root, family)
        table = tables[family] = build_gapless_table(parse_poset_spec(family), workers=threads)
        got = table.triples()
        detail = f"got {got}" if family.startswith("propeller") else f"got total {table.total}"
        yield f"gapless-table {family}", got == rows and table.total == total, detail

    for family, k, holds in _SIEVING:
        name = f"verify-csp {family} k={k}"
        if family == "freudenthal":
            name += " (holds)" if holds else " (fails)"
        table = tables[family]
        yield name, verify_csp(table.poset, k, table=table).holds == holds, ""

    for family, m, period, max_orbit in _PERIODS:
        table = tables[family]
        rep = promotion_order(table.poset, m, table=table)
        ok = (rep.period, rep.max_orbit) == (period, max_orbit)
        yield f"period {family} m={m}", ok, f"got {rep.period}/{rep.max_orbit}"

    cm, pf = tables["cayley-moufang"].poset, tables["freudenthal"].poset
    report = frame_check(pf, table=tables["freudenthal"])
    yield "frame-check freudenthal", report.match, f"frame {report.frame_elements} vs stable {report.stable_elements}"

    yield "tableau operator fixtures", _tableau_fixtures_ok(tables["propeller-4"].poset), ""

    for family, k in (("cayley-moufang", 1), ("propeller-3", 2)):
        shape = tables[family].poset
        psi = rowmotion_orbits(shape, k).sizes()
        pro = promotion_census(shape, shape.rk + k + 1)
        yield f"orbit multisets agree ({family}, k={k})", psi == pro, f"{psi} vs {pro}"

    points = (plane_partition_gf(cm, 1)(1), plane_partition_gf(pf, 1)(1))
    yield "generating function point counts", points == (27, 56), ""


def _load_fixture(name: str, m: int | None = None) -> IncreasingTableau:
    """A golden tableau, read from its text form; the ceiling defaults to the largest label."""
    path = _GOLDEN.joinpath("tableaux", name)
    return IncreasingTableau.from_text(path.read_text(), m=m)


def _tableau_fixtures_ok(propeller_4) -> bool:
    base = _load_fixture("kbk_base.txt")
    ok = all(k_bender_knuth(base, i) == _load_fixture(f"kbk_swap_{i}.txt") for i in (3, 4, 5))
    ok = ok and promotion(_load_fixture("promotion_cm_m13_input.txt")) == _load_fixture("promotion_cm_m13_output.txt")
    gappy = _load_fixture("deflation_input_m7.txt", m=7)
    gapless = _load_fixture("deflation_output.txt")
    ok = ok and deflate(gappy) == gapless
    ok = ok and content_vector(gappy) == (1, 1, 0, 1, 1, 1, 0)
    ok = ok and inflate(gapless, (1, 1, 0, 1, 1, 1, 0)) == gappy
    first, second = [t for t in enumerate_gapless(propeller_4) if t.m == 8]
    ok = ok and {_load_fixture("propeller4_m8_first.txt"), _load_fixture("propeller4_m8_second.txt")} == {first, second}
    ok = ok and promotion(first) == second and promotion(second) == first
    return ok


def _cmd_reproduce(args) -> tuple[int, str]:
    """One PASS/FAIL line per headline result, every table rebuilt from scratch, then the count of failures."""
    golden_root = Path(args.golden_dir) if args.golden_dir else _GOLDEN
    lines = [
        f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail and not ok else "")
        for name, ok, detail in _headline_checks(args.threads, golden_root)
    ]
    failures = sum(line.startswith("FAIL") for line in lines)
    lines.append(f"{'OK' if failures == 0 else 'MISMATCH'}: {failures} failure(s)")
    return (EXIT_OK if failures == 0 else EXIT_MISMATCH), "\n".join(lines) + "\n"


def _add_common(sub: argparse.ArgumentParser, poset_required: bool = True, tables: bool = True, state_cap: bool = False) -> None:
    """Options shared by the subcommands; each takes only the ones it reads."""
    if poset_required:
        sub.add_argument("--poset", required=True, help="family (e.g. cayley-moufang, freudenthal, propeller-5, rectangle-2x3) or a JSON file")
    else:
        sub.add_argument("--poset", default=None, help="poset family or JSON file (default: freudenthal)")
    if tables:
        sub.add_argument("--threads", type=int, default=1, help="worker processes for table building")
        sub.add_argument("--cache-dir", default=None, help="directory for gapless-table caches")
    if state_cap:
        sub.add_argument("--state-cap", type=int, default=None, help="cap on exhaustive traversals (env MINUSCULE_STATE_CAP)")
    sub.add_argument("--manifest", default=None, help="write a run manifest JSON to this path")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_BAD_INPUT; subparsers are made from the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minuscule",
        description="Exact rowmotion, K-promotion, and cyclic-sieving engine over minuscule posets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("rowmotion-orbits", help="rowmotion orbit sizes on ideals of poset x k")
    _add_common(s, tables=False, state_cap=True)
    s.add_argument("--k", type=int, required=True, help="chain height")
    s.add_argument("--format", choices=("text", "json", "csv"), default="text")
    s.set_defaults(func=_cmd_rowmotion_orbits)

    s = subs.add_parser("gapless-table", help="promotion orbit table of gapless tableaux")
    _add_common(s, state_cap=True)
    s.add_argument("--format", choices=("text", "json", "csv"), default="text")
    s.add_argument("--fresh", action="store_true", help="rebuild even if a cached table exists")
    s.set_defaults(func=_cmd_gapless_table)

    s = subs.add_parser("verify-csp", help="exact cyclic-sieving verdict for (poset, k)")
    _add_common(s)
    s.add_argument("--k", type=int, required=True, help="plane partition height bound")
    s.add_argument("--json", action="store_true", help="emit the verdict as JSON")
    s.set_defaults(func=_cmd_verify_csp)

    s = subs.add_parser("period", help="order of promotion on ceiling-m tableaux")
    _add_common(s)
    s.add_argument("--m", type=int, required=True, help="label ceiling")
    s.set_defaults(func=_cmd_period)

    s = subs.add_parser("frame-check", help="structural frame vs promotion-stable elements")
    _add_common(s, poset_required=False)
    s.set_defaults(func=_cmd_frame_check)

    s = subs.add_parser("qpoly", help="coefficients of the plane-partition generating function")
    _add_common(s, tables=False)
    s.add_argument("--k", type=int, required=True, help="plane partition height bound")
    s.set_defaults(func=_cmd_qpoly)

    s = subs.add_parser("reproduce", help="recompute headline results and compare against golden files")
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--golden-dir", default=None, help="directory of golden JSON files")
    s.add_argument("--manifest", default=None)
    s.set_defaults(func=_cmd_reproduce)

    return parser


def _write_manifest(path: str, args, command: str, wall: float, output: str, code: int) -> None:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "manifest") and v is not None
    }
    manifest = {
        "subcommand": command,
        "parameters": params,
        "wall_time_s": round(wall, 3),
        "exit_code": code,
        "output_sha256": hashlib.sha256(output.encode()).hexdigest(),
        "output_bytes": len(output.encode()),
    }
    try:
        Path(path).write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    except OSError as exc:
        raise ParameterError(f"cannot write manifest {path}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code, output = args.func(args)
        if args.manifest:
            _write_manifest(args.manifest, args, args.command, time.monotonic() - start, output, code)
    except (ParameterError, UnsupportedPosetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except StateCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
