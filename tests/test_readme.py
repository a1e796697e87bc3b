"""The README against the code: every contract number it states, every
benchmark record it cites, and its library quick start."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from minuscule import ParameterError, build_gapless_table, cli, errors, orbits, rectangle

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def stated(pattern: str) -> set[int]:
    """The numbers the README states where pattern matches; it must match."""
    found = {int(n.replace(",", "")) for n in re.findall(pattern, README)}
    assert found, f"README no longer states {pattern!r}"
    return found


def golden_total(family: str) -> int:
    return cli._golden_table(cli._GOLDEN, family)[1]


def test_readme_numbers_match_the_code():
    assert stated(r"16-box shape has\s+\*\*([\d,]+)\*\*") == {golden_total("cayley-moufang")}
    assert stated(r"27-box shape has\s+\*\*([\d,]+)\*\*") == {golden_total("freudenthal")}
    assert stated(r"fewer than ([\d,]+)\s+gapless tableaux") == {orbits._POOL_MIN_CHAINS}
    assert stated(r"at most ([\d,]+) plane\s+partitions") == {orbits._PSI_CHECK_CAP}
    assert {10**e for e in stated(r"default is 10\^(\d+)")} == {errors.DEFAULT_STATE_CAP}
    assert f"`{errors._CAP_ENV}` environment variable" in README
    # The element limit of a table build: it takes that many and refuses one more.
    (limit,) = stated(r"at most (\d+)\s+elements")
    build_gapless_table(rectangle(1, limit))
    with pytest.raises(ParameterError, match=f"at most {limit} elements"):
        build_gapless_table(rectangle(1, limit + 1))
    codes = re.findall(r"`(\d)` (success|mathematical mismatch|state cap exceeded|bad input|internal error)", README)
    assert {int(code): meaning for code, meaning in codes} == {
        cli.EXIT_OK: "success",
        cli.EXIT_MISMATCH: "mathematical mismatch",
        cli.EXIT_RESOURCE: "state cap exceeded",
        cli.EXIT_BAD_INPUT: "bad input",
        cli.EXIT_INTERNAL: "internal error",
    }
    # Every measured number cites the benchmark record it comes from.
    cited = stated(r"BENCH_(\d+)\.json")
    assert [n for n in sorted(cited) if not (ROOT / f"BENCH_{n}.json").is_file()] == []
    # The sieve row states the median its record measured.
    (row,) = re.findall(r"\| `sieve` workload, `wall_ref` \| ([\d.]+) \| `BENCH_(\d+)\.json` \|", README)
    record = json.loads((ROOT / f"BENCH_{row[1]}.json").read_text())
    assert row == (f"{record['benchmark_summary']['sieve']['wall_ref']['change_median']:.1f}", "37")


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    out, names = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(block, names)
    rowmotion, holds, period = out.getvalue().splitlines()
    # What the block's comments promise.
    assert rowmotion == "((3, 1), (12, 2))"
    assert len(names["table"].rows) == 11 and names["table"].total == 549
    assert holds == "True"
    assert period.startswith("PeriodReport(m=20, period=20,")
