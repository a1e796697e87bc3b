from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from random import Random

import pytest

from minuscule import (
    ExactnessError,
    ParameterError,
    Poset,
    QPolynomial,
    UnsupportedPosetError,
    cayley_moufang,
    chain_product,
    cyclotomic,
    enumerate_ideals,
    eval_at_root,
    freudenthal,
    is_zero_at_primitive_root,
    parse_poset_spec,
    plane_partition_gf,
    propeller,
    q_binomial,
    q_binomial_at_root,
    q_factorial,
    q_int,
    q_ratio_limit,
    rectangle,
    shifted_staircase,
)
from minuscule.qpoly import _divisors, _factor_residue, _q_quotient


def test_polynomial_basics():
    p = QPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2) and p.degree == 1
    assert (p * QPolynomial([0, 1])).coeffs == (0, 1, 2)
    assert p(3) == 7
    assert QPolynomial.zero().degree == -1
    q = QPolynomial.monomial(3) - QPolynomial.one()
    quot, rem = q.divmod(QPolynomial([-1, 1]))
    assert rem == QPolynomial.zero() and quot.coeffs == (1, 1, 1)
    with pytest.raises(ExactnessError):
        QPolynomial([1, 1]).exact_div(QPolynomial([0, 2]))
    with pytest.raises(ZeroDivisionError):
        p.divmod(QPolynomial.zero())
    with pytest.raises(ParameterError, match="nonnegative"):
        QPolynomial.monomial(-1)


def test_q_binomial_values():
    assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert q_binomial(7, 0) == QPolynomial.one()
    assert q_binomial(2, 3) == QPolynomial.zero()
    for i in range(9):
        for j in range(i + 1):
            assert q_binomial(i, j)(1) == comb(i, j)


def test_q_binomial_brute_force_weight_oracle():
    # Sum of q^(sum of chosen positions - minimal sum) over j-subsets of [i].
    for i, j in ((4, 2), (5, 2), (6, 3)):
        weights = {}
        for subset in combinations(range(i), j):
            w = sum(subset) - sum(range(j))
            weights[w] = weights.get(w, 0) + 1
        oracle = QPolynomial(weights.get(e, 0) for e in range(max(weights) + 1))
        assert q_binomial(i, j) == oracle


def dense_q_factorial(a):
    out = QPolynomial.one()
    for i in range(1, a + 1):
        out = out * q_int(i)
    return out


def test_q_factorial_matches_dense_product():
    # The definition: a product of q-integers, with dense multiplication.
    for a in range(16):
        assert q_factorial(a) == dense_q_factorial(a), a
    # A negative index is refused, as q_int and q_binomial refuse theirs.
    for call in (lambda: q_factorial(-1), lambda: q_int(-1), lambda: q_binomial(-1, 0)):
        with pytest.raises(ParameterError, match="nonnegative"):
            call()


def test_q_binomial_matches_dense_quotient():
    # The definition: [i]_q ... [i-j+1]_q over [j]_q!, by dense multiplication and division.
    for i in range(25):
        for j in range(i + 3):
            want = QPolynomial.zero()
            if j <= i:
                num = QPolynomial.one()
                for a in range(i - j + 1, i + 1):
                    num = num * q_int(a)
                want = num.exact_div(dense_q_factorial(j))
            assert q_binomial(i, j) == want, (i, j)


def test_cyclotomic_matches_dense_division():
    # The definition: q^n - 1 divided by the cyclotomics of the proper divisors of n.
    dense = {}
    for n in range(1, 121):
        poly = QPolynomial.monomial(n) - QPolynomial.one()
        for d in range(1, n):
            if n % d == 0:
                poly = poly.exact_div(dense[d])
        dense[n] = poly
        assert cyclotomic(n) == poly, n


def test_cyclotomic_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)
    for n in (4, 9, 15, 30):
        prod = QPolynomial.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == QPolynomial.monomial(n) - QPolynomial.one()
    with pytest.raises(ParameterError, match=">= 1"):
        cyclotomic(0)


def test_a_cached_cyclotomic_refuses_assignment():
    # cyclotomic(n) hands every caller one object; rebinding its coefficients
    # would change every later root value in the process.
    import copy
    import pickle

    c = cyclotomic(5)
    with pytest.raises(AttributeError):
        c.coeffs = (1,)
    assert eval_at_root(QPolynomial([0, 1]), 5, 1).residue == (0, 1)
    for clone in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
        assert clone == c and hash(clone) == hash(c)


def test_eval_at_root_basics():
    f = QPolynomial([1, 1, 1])
    assert eval_at_root(f, 3, 1).equals_int(0)
    assert eval_at_root(f, 3, 3).equals_int(3)  # exponent n means evaluation at 1
    g = q_binomial(4, 2)
    assert eval_at_root(g, 4, 4).equals_int(6)
    assert not eval_at_root(QPolynomial([0, 1]), 8, 1).is_integer  # zeta_8 itself
    with pytest.raises(ParameterError, match=">= 1"):
        eval_at_root(f, 0, 1)


def test_eval_at_root_agrees_with_closed_form():
    for i in range(1, 31):
        for d in range(1, i + 1):
            if i % d:
                continue
            for j in range(0, i + 3):
                got = eval_at_root(q_binomial(i, j), i, i // d)
                want = q_binomial_at_root(i, j, d)
                assert got.equals_int(want), (i, j, d)


def test_residue_degree_below_cyclotomic_degree():
    for n, d in ((12, 1), (12, 8), (30, 6), (7, 3), (9, 9)):
        value = eval_at_root(q_binomial(9, 4), n, d)
        from math import gcd

        n_prime = n // gcd(n, d)
        assert value.primitive_order == n_prime
        assert len(value.residue) <= cyclotomic(n_prime).degree


def test_q_binomial_at_root_examples():
    assert q_binomial_at_root(16, 8, 8) == comb(2, 1) == 2
    assert q_binomial_at_root(12, 8, 3) == 0
    for p in (3, 4, 5):
        for m in range(2 * p, 40):
            for d in range(2, m + 1):
                if m % d == 0 and (2 * p - 1) % d == 0:
                    assert q_binomial_at_root(m, 2 * p - 1, d) == comb(m // d, (2 * p - 1) // d)
    with pytest.raises(ParameterError):
        q_binomial_at_root(10, 4, 3)  # 3 does not divide 10
    with pytest.raises(ParameterError, match="positive"):
        q_binomial_at_root(0, 1, 1)


def test_character_sum_identity():
    # Summing the evaluations over all powers of a primitive root picks out
    # every n-th coefficient, n times.
    for i, j in ((6, 2), (8, 3), (12, 4)):
        f = q_binomial(i, j)
        total = 0
        for d in range(1, i + 1):
            value = eval_at_root(f, i, d)
            assert value.is_integer
            total += value.value
        expected = i * sum(c for e, c in enumerate(f.coeffs) if e % i == 0)
        assert total == expected


def test_q_ratio_limit():
    assert q_ratio_limit(10, 5, 20, 5) == Fraction(2)
    assert q_ratio_limit(7, 3, 8, 4) == Fraction(1)
    for d, n in ((3, 9), (5, 20)):
        assert q_ratio_limit(d, d, n, d) == Fraction(1)
    with pytest.raises(ParameterError):
        q_ratio_limit(7, 4, 8, 4)
    with pytest.raises(ParameterError, match="positive divisor"):
        q_ratio_limit(7, 3, 6, 4)  # 4 does not divide 6
    with pytest.raises(ParameterError, match="indices must be positive"):
        q_ratio_limit(0, 4, 8, 4)


def test_is_zero_at_primitive_root():
    n = 6
    assert is_zero_at_primitive_root(QPolynomial.monomial(n) - QPolynomial.one(), n)
    assert not is_zero_at_primitive_root(QPolynomial.one(), n)
    assert is_zero_at_primitive_root(q_int(6), 6)
    assert not is_zero_at_primitive_root(q_int(6), 4)


def test_gf_point_counts():
    assert plane_partition_gf(cayley_moufang(), 1)(1) == 27
    assert plane_partition_gf(freudenthal(), 1)(1) == 56
    for P in (propeller(3), propeller(4), cayley_moufang(), rectangle(2, 3), shifted_staircase(3)):
        for k in (0, 1, 2, 3):
            gf = plane_partition_gf(P, k)
            count = sum(1 for _ in enumerate_ideals(chain_product(P, k)))
            assert gf(1) == count, (P.family, k)
    for k in (0, 1, 2, 3):
        gf = plane_partition_gf(freudenthal(), k)
        assert gf(1) == sum(1 for _ in enumerate_ideals(chain_product(freudenthal(), k)))
    with pytest.raises(ParameterError, match="nonnegative"):
        plane_partition_gf(cayley_moufang(), -1)


def test_gf_shape_invariants():
    for P, k in ((cayley_moufang(), 2), (propeller(4), 3), (freudenthal(), 2)):
        gf = plane_partition_gf(P, k)
        assert gf.degree == k * P.n
        assert all(c >= 0 for c in gf.coeffs)
        assert gf.coeffs == gf.coeffs[::-1]  # rank-symmetric


def test_gf_propeller_closed_form():
    # A second route: ratio of q-factorials and q-integers.  q_factorial shares its
    # quotient with plane_partition_gf; the dense product oracle below is independent.
    for p in (3, 4, 5):
        for k in range(7):
            m = k + 2 * p - 1
            num = q_factorial(m) * q_int(m - (p - 1))
            den = q_factorial(2 * p - 1) * q_factorial(m - (2 * p - 1)) * q_int(p)
            assert plane_partition_gf(propeller(p), k) == num.exact_div(den)


def test_gf_rejects_custom_posets():
    from minuscule import ShapeDiagram, poset_from_shape

    hook = poset_from_shape(ShapeDiagram([(0, 3), (0, 1)]))
    with pytest.raises(UnsupportedPosetError):
        plane_partition_gf(hook, 1)


def test_gf_matches_dense_product_oracle():
    # The product formula computed with dense QPolynomial arithmetic and one exact division.
    one = QPolynomial.one()
    for P in (
        propeller(3), propeller(5), rectangle(2, 3), rectangle(3, 4),
        shifted_staircase(4), cayley_moufang(), freudenthal(),
    ):
        for k in range(13):
            num, den = one, one
            for r in P.rank:
                num = num * (QPolynomial.monomial(r + 1 + k) - one)
                den = den * (QPolynomial.monomial(r + 1) - one)
            assert plane_partition_gf(P, k) == num.exact_div(den), (P.family, k)


def _ideal_lattice(P):
    """(size, indices of its sub-ideals) for each order ideal of P, read from P.covers alone:
    the ideals are bit masks grown from the empty one an addable element at a time."""
    below = [0] * P.n
    for a, b in P.covers:
        below[b] |= 1 << a
    ideals, level = {0}, {0}
    while level:  # the ideals one element larger than those of the last level
        level = {ideal | 1 << x for ideal in level for x in range(P.n) if not ideal >> x & 1 and not below[x] & ~ideal}
        ideals |= level
    ideals = sorted(ideals)
    return [(ideal.bit_count(), [j for j, sub in enumerate(ideals) if not sub & ~ideal]) for ideal in ideals]


def _gf_by_transfer(P, heights) -> dict[int, tuple[int, ...]]:
    """The coefficients of the plane-partition generating function of P at each height k in
    heights, counted by size as multichains I_1 ⊆ ... ⊆ I_k of order ideals:
    F_k(I) = q^|I| * sum over J ⊆ I of F_(k-1)(J), F_0 = 1 at the empty ideal.  Each
    polynomial is one integer with a byte-aligned field per coefficient, wide enough for the
    total at the largest height, which bounds every coefficient."""
    lattice = _ideal_lattice(P)
    start = [1] + [0] * (len(lattice) - 1)
    f = start
    for _ in range(max(heights)):
        f = [sum(f[j] for j in subs) for _, subs in lattice]
    width = sum(f).bit_length() // 8 + 1
    f, out = start, {}
    for k in range(max(heights) + 1):
        if k:
            f = [sum(f[j] for j in subs) << (8 * width * size) for size, subs in lattice]
        if k in heights:
            packed = sum(f).to_bytes(width * (k * P.n + 1), "little")
            out[k] = tuple(int.from_bytes(packed[i:i + width], "little") for i in range(0, len(packed), width))
    return out


# The heights of the sieve workload's verify_csp queries.
SIEVE_HEIGHTS = {
    "cayley-moufang": (*range(21), 25, 80),
    "freudenthal": (*range(8), 10, 16),
    **{f"propeller-{p}": range(7) for p in range(3, 7)},
    "rectangle-3x4": range(4),
    "shifted-staircase-5": range(4),
}


def test_gf_coefficients_counted_by_a_transfer_over_ideals():
    # Every coefficient counted a second time, sharing no code with the ideal listing or
    # the hook product: a wrong height or cover passes the q = 1 counts, not this.  At every
    # sieve query the values at the roots the sieve reads (the divisors of the promotion
    # order) equal the factor rule wherever it decides them.
    from minuscule import load_or_build_table
    from minuscule.orbits import promotion_orbits
    from minuscule.qpoly import _hook_factors

    coefficient_heights = {
        "cayley-moufang": range(21),
        "freudenthal": range(21),
        **{f"propeller-{p}": range(11) for p in range(3, 7)},
        "rectangle-3x4": range(11),
        "shifted-staircase-5": range(11),
    }
    decided = 0
    for spec in coefficient_heights:
        P = parse_poset_spec(spec)
        gf = _gf_by_transfer(P, {*coefficient_heights[spec], *SIEVE_HEIGHTS[spec]})
        for k in coefficient_heights[spec]:
            assert gf[k] == plane_partition_gf(P, k).coeffs, (spec, k)
        table = load_or_build_table(P)
        for k in SIEVE_HEIGHTS[spec]:
            numer, denom = _hook_factors(P, k)
            for d in _divisors(promotion_orbits(table, k + P.rk + 1).order()):
                residue = _factor_residue(numer, denom, d)
                if residue is not None:
                    decided += 1
                    assert eval_at_root(QPolynomial(gf[k]), d, 1).residue == residue, (spec, k, d)
        if spec in ("cayley-moufang", "freudenthal"):
            # The dimensions of the minuscule representations of E6 and E7 pin the transfer itself.
            assert sum(gf[1]) == {"cayley-moufang": 27, "freudenthal": 56}[spec]
    assert decided == 265


def test_gf_division_is_checked():
    # Heights 1, 2, 2: at k = 1 the quotient is [3]_q (1 - q^3) / (1 - q^2), not a polynomial.
    fake = Poset(3, [(0, 1), (0, 2)], family="fake")
    with pytest.raises(ExactnessError):
        plane_partition_gf(fake, 1)
    # Read from the factors: (1 - q^2) / (1 - q^4) at q = -1 tends to 2 / 4.
    with pytest.raises(ExactnessError, match="not an integer"):
        _factor_residue([2], [4], 2)


def test_constructor_refuses_floats_and_booleans():
    # No floats anywhere in a verdict: a non-integer coefficient is refused, never truncated.
    for coeffs in ([1.7, 2.2], [True, 2], [1, Fraction(1, 2)]):
        with pytest.raises(ParameterError):
            QPolynomial(coeffs)
    with pytest.raises(ParameterError):
        QPolynomial.monomial(2, 1.0)
    assert QPolynomial([3, -1, 0]).coeffs == (3, -1)


@pytest.mark.parametrize("value", [True, 2.0, 2.5])
def test_integer_arguments_refuse_non_integers(value):
    # A boolean or a float is refused as a parameter error, never read as 1 or converted.
    f = q_int(3)
    calls = (
        lambda: q_int(value),
        lambda: q_factorial(value),
        lambda: q_binomial(value, 2),
        lambda: q_binomial(4, value),
        lambda: cyclotomic(value),
        lambda: eval_at_root(f, value, 1),
        lambda: eval_at_root(f, 6, value),
        lambda: is_zero_at_primitive_root(f, value),
        lambda: q_binomial_at_root(value, 2, 1),
        lambda: q_binomial_at_root(4, value, 1),
        lambda: q_binomial_at_root(4, 2, value),
        lambda: q_ratio_limit(value, 1, 2, 1),
        lambda: q_ratio_limit(1, value, 2, 1),
        lambda: q_ratio_limit(1, 1, value, 1),
        lambda: q_ratio_limit(1, 1, 2, value),
        lambda: QPolynomial.monomial(value),
    )
    for call in calls:
        with pytest.raises(ParameterError, match="expected an integer"):
            call()


def _one_minus(a):
    return QPolynomial.one() - QPolynomial.monomial(a)


def _divides(numer, denom):
    # prod (1 - q^b) | prod (1 - q^a) iff, for every n, no more b than a are multiples of n:
    # each side holds the n-th cyclotomic once per such factor.
    top = max(numer + denom, default=1)
    return all(
        sum(b % n == 0 for b in denom) <= sum(a % n == 0 for a in numer)
        for n in range(1, top + 1)
    )


def test_q_quotient_matches_dense_reference():
    # Seeded random multisets with shared factors and b | a pairs, against dense
    # products and one exact division; a non-exact quotient must raise on both sides.
    rng = Random(1717)
    exact = inexact = shared = 0
    for _ in range(300):
        numer = [rng.randint(1, 12) for _ in range(rng.randint(0, 6))]
        denom = rng.sample(numer, rng.randint(0, len(numer)))
        shared += bool(denom)
        for a in numer:
            if rng.random() < 0.5:
                denom.append(rng.choice([b for b in range(1, a + 1) if a % b == 0]))
        denom += [rng.randint(1, 6) for _ in range(rng.randint(0, 2))]
        rng.shuffle(denom)
        num, den = QPolynomial.one(), QPolynomial.one()
        for a in numer:
            num = num * _one_minus(a)
        for b in denom:
            den = den * _one_minus(b)
        if _divides(numer, denom):
            exact += 1
            assert _q_quotient(numer, denom) == num.exact_div(den), (numer, denom)
        else:
            inexact += 1
            with pytest.raises(ExactnessError):
                num.exact_div(den)
            with pytest.raises(ExactnessError):
                _q_quotient(numer, denom)
    assert exact > 50 and inexact > 50 and shared > 100


def _dense_remainder(f, g):
    # Schoolbook long division over every coefficient of a monic g, zeros included.
    rem = list(f)
    for i in range(len(rem) - len(g), -1, -1):
        c = rem[i + len(g) - 1]
        for j, gc in enumerate(g):
            rem[i + j] -= c * gc
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def test_eval_at_root_matches_dense_fold():
    # For every d | n with n <= 200: zeta^d has order n / d, so fold the exponents one by
    # one modulo n / d and divide densely by that cyclotomic.
    rng = Random(200)
    f = QPolynomial([rng.randint(-9, 9) for _ in range(451)] + [1])
    want = {}
    for order in range(1, 201):
        folded = [0] * order
        for e, c in enumerate(f.coeffs):
            folded[e % order] += c
        want[order] = _dense_remainder(folded, cyclotomic(order).coeffs)
    for n in range(1, 201):
        for d in range(1, n + 1):
            if n % d == 0:
                value = eval_at_root(f, n, d)
                assert value.primitive_order == n // d
                assert value.residue == want[n // d], (n, d)


def test_divisors_by_trial_division_up_to_the_square_root():
    for n in range(2001):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    # 10**12 = 2**12 * 5**12: 169 divisors, found in about 10**6 trial divisions.
    big = _divisors(10**12)
    assert len(big) == 169 and big == sorted(big) and big[-2:] == [5 * 10**11, 10**12]
