"""Orbit tables, action orders, exact sieving verdicts, and the frame of the 27-box shape.

Run with:  python demos/05_sieving_verdicts.py
(uses the shipped orbit table for the 27-box shape, so it finishes in seconds)
"""

from minuscule import (
    build_gapless_table,
    cayley_moufang,
    frame_check,
    freudenthal,
    load_or_build_table,
    promotion_order,
    verify_csp,
)

# ---------------------------------------------------------------------------
# The whole promotion action is controlled by a finite table: for each
# ceiling, the gapless tableaux split into orbits.  The 16-box exceptional
# shape has 549 gapless tableaux; the 27-box one has 624,493 (a shipped table,
# pinned by its sha256 and read once per process; rebuild it with
# build_gapless_table or the CLI's --fresh).
# ---------------------------------------------------------------------------
cm = cayley_moufang()
cm_table = build_gapless_table(cm)
print(f"{cm.family}: {cm_table.total} gapless tableaux")
for row in cm_table.rows:
    print(f"  ceiling {row.m_t:2d}: {row.orbits:3d} orbit(s) of period {row.period}")

pf = freudenthal()
pf_table = load_or_build_table(pf)
print(f"\n{pf.family}: {pf_table.total} gapless tableaux in {len(pf_table.rows)} orbit classes")

# ---------------------------------------------------------------------------
# Orders of the action.  On the 16-box shape every orbit size divides the
# ceiling.  On the 27-box shape the largest orbit has size 3m once m >= 22,
# but orbits of size 2*m_t exist too (e.g. period 48 at ceiling 24), so the
# order of the permutation doubles to 6m from m = 24 on.
# ---------------------------------------------------------------------------
print("\naction orders:")
for m in (12, 20):
    rep = promotion_order(cm, m, table=cm_table)
    print(f"  {cm.family:>14} m={m}: order {rep.period}")
for m in (18, 22, 24, 30):
    rep = promotion_order(pf, m, table=pf_table)
    print(f"  {pf.family:>14} m={m}: order {rep.period}, largest orbit {rep.max_orbit}")

# ---------------------------------------------------------------------------
# The sieving check: does the plane-partition generating function, evaluated
# at powers of a root of unity of the action's order, count the fixed points
# of the corresponding power of the action?  Exactly true on the 16-box
# shape for every height; true on the 27-box shape only up to height 4.
# ---------------------------------------------------------------------------
print("\nsieving verdicts:")
for k in (1, 2, 3):
    print(f"  {cm.family} k={k}:", "holds" if verify_csp(cm, k, table=cm_table).holds else "fails")
for k in (4, 5):
    verdict = verify_csp(pf, k, table=pf_table)
    tag = "holds" if verdict.holds else "fails"
    print(f"  {pf.family} k={k}: {tag} (order {verdict.order})")
    if not verdict.holds:
        first = verdict.records[0]
        print(f"      first mismatch at d={first.d}: {first.fixed_count} fixed points,",
              "non-integer value" if not first.value.is_integer else f"value {first.value.value}")

# ---------------------------------------------------------------------------
# Which boxes never move under the m-fold action?  Exactly the "frame":
# the largest tree-shaped ideal plus the largest dual-tree filter.
# ---------------------------------------------------------------------------
report = frame_check(pf, table=pf_table)
print("\nframe elements:", report.frame_elements)
print("promotion-stable elements match:", report.match)
