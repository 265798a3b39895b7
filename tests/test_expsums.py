import cmath
import itertools
import math

import numpy as np
import pytest

from sievelab import expsums, oracles, sqrtmod
from sievelab.acceptance import BOMBIERI_CORPUS
from sievelab.arith import is_prime
from sievelab.expsums import (RationalFunctionModP, _inverse_table,
                              _unit_inverses, _unit_pairs, esum_jh,
                              gauss_sum_closed, gauss_sum_direct, gcal,
                              gcal_bound, rational_expsum, unit_phases)
from sievelab.oracles import e_frac, gcal_literal, rational_literal
from sievelab.sieve import SieveInstance, ls_lhs


def test_e_frac_exact_reduction():
    assert e_frac(0, 5) == 1
    assert abs(e_frac(10 ** 18 + 1, 4) - 1j) < 1e-12
    assert abs(e_frac(-1, 4) + 1j) < 1e-12


def test_unit_phases():
    assert abs(unit_phases(8)[2] - 1j) < 1e-12
    # every q <= 1000, q next to 2^k (so q = B^2 and q = B^2 + 1, the
    # edges where the last row of the sqrt-split table is cut), and two
    # large primes; each entry against the scalar e_frac
    qs = set(range(1, 1001))
    qs |= {2 ** k + d for k in range(1, 18) for d in (-1, 0, 1)}
    qs |= {99991, 10 ** 6 + 3}
    for q in sorted(qs):
        ph = unit_phases(q)
        assert ph.shape == (q,)
        assert ph[0] == 1
        want = np.fromiter(map(e_frac, range(q), itertools.repeat(q, q)),
                           dtype=complex, count=q)
        assert np.abs(ph - want).max() < 1e-14, q


def test_gauss_direct_small():
    # G(3;1,0) = 1 + e(1/3) + e(1/3) ... literal check
    want = sum(cmath.exp(2j * math.pi * (n * n % 3) / 3) for n in range(1, 4))
    assert abs(gauss_sum_direct(3, 1, 0).value - want) < 1e-12


def test_gauss_direct_refuses_int64_overflow(monkeypatch):
    # 3037000500^2 >= 2^63: refused before the length-q array is built
    def no_arrays(*args, **kwargs):
        raise AssertionError("allocated before the int64 check")

    monkeypatch.setattr(np, "arange", no_arrays)
    with pytest.raises(ValueError, match="2\\^63"):
        gauss_sum_direct(3037000500, 1, 0)


def test_gauss_closed_examples():
    # eps_5 = 1, (1/5) = 1: G(5;1,0) = sqrt(5)
    assert abs(gauss_sum_closed(5, 1, 0).value - math.sqrt(5)) < 1e-12
    # eps_3 = i, (1/3) = 1: G(3;1,0) = i sqrt(3)
    assert abs(gauss_sum_closed(3, 1, 0).value - 1j * math.sqrt(3)) < 1e-12
    assert gauss_sum_closed(1, 0, 0).value == 1


def test_gauss_closed_matches_direct():
    # 46339 and 46341 sit on either side of q^2 < 2^31, where the direct
    # sum leaves uint32 for uint64; at 65537, n^2 passes 2^32
    for q in (1, 3, 9, 15, 21, 45, 225, 1001, 46339, 46341, 65537):
        for a in (0, 1, 2, 3, 5, 7, 15):
            for b in (0, 1, 3, 6, 10):
                d = gauss_sum_direct(q, a, b).value
                c = gauss_sum_closed(q, a, b).value
                assert abs(d - c) < 1e-6, (q, a, b)


def test_gauss_modulus_of_unit_coefficient():
    for q in (3, 15, 99, 1001):
        for a in (1, 2, 4):
            if math.gcd(a, q) != 1:
                continue
            for b in (0, 5):
                g = gauss_sum_closed(q, a, b).value
                assert abs(abs(g) - math.sqrt(q)) < 1e-9 * q


def test_gauss_closed_vanishing():
    # gcd(a, q) does not divide b -> 0
    assert gauss_sum_closed(9, 3, 1).value == 0
    assert gauss_sum_closed(15, 5, 2).value == 0


def test_gauss_closed_rejects_even():
    with pytest.raises(ValueError):
        gauss_sum_closed(4, 1, 0)


def test_esum_paired_equals_bare():
    rng = np.random.default_rng(0)
    cases = [(r, int(rng.integers(0, r)), int(rng.integers(0, r)), 1,
              int(rng.integers(0, 3)))
             for r in (1, 2, 7, 12, 45, 90, 97) for _ in range(3)]
    # (r, l, n, j, h): even r, prime powers, h = 0 or negative, l and n
    # negative or >= r; each sum is far from 0, so a wrong phase shows
    cases += [(1, 5, -3, 1, 2), (2, -1, 4, 1, 0), (12, -14, -3, 1, 0),
              (12, -14, 14, 1, -1), (64, -66, 66, 1, 0), (27, 57, 29, 1, -1),
              (27, 57, 29, 5, -1), (49, -1, 51, 1, -1), (125, -1, 127, 7, -1),
              (360, -362, 362, 1, 0), (360, 720, -3, 1, 0)]
    for r, l, n, j, h in cases:
        p = esum_jh(l, n, j, h, r, form="paired")
        b = esum_jh(l, n, j, h, r, form="bare")
        assert abs(p.value - b.value) < 1e-9 * r, (r, l, n, j, h)
        assert p.terms == b.terms


def paired_sums():
    """paired esum_jh at every r <= 300 and at r = 46340, the last int32
    modulus, as (value, terms, margin) tuples."""
    out = []
    for r in list(range(1, 301)) + [46340]:
        for l, n, j, h in ((1, 2, 1, 1), (-3, 5, r - 1, 0), (7, -1, 1, -2)):
            v = esum_jh(l, n, j, h, r)
            out.append((v.value, v.terms, v.margin))
    return out


def test_paired_esum_is_the_same_in_int64(request):
    # int32 kernels at every one of these r; forced to int64 every value
    # is bit-identical, since each phase is the same exact residue
    int32_sums = paired_sums()
    assert sqrtmod.root_pairs(46340).dtype == np.int32
    request.getfixturevalue("int64_residues")
    assert sqrtmod.root_pairs(46340).dtype == np.int64
    assert paired_sums() == int32_sums


@pytest.mark.parametrize("r", [46340, 46341])
def test_esum_paired_equals_bare_at_the_int32_bound(r):
    # paired runs in int32 at 46340 = 2^2 5 7 331 and in int64 at
    # 46341 = 3 13 29 41, where a product of two residues may pass 2^31
    for l, n, j, h in ((1, 2, 1, 1), (-5, r + 3, 11, -1)):
        p = esum_jh(l, n, j, h, r, form="paired")
        b = esum_jh(l, n, j, h, r, form="bare")
        assert abs(p.value - b.value) < 1e-9 * r, (r, l, n, j, h)
        assert p.terms == b.terms


def test_bare_esum_refuses_a_huge_modulus_before_any_work(monkeypatch):
    # the one bound of the squaring oracle, checked in oracles alone
    assert oracles._ORACLE_MAX_R == 1 << 20

    def squared(*args):
        raise AssertionError("squared the residues")

    # mod_inverse is the first work _square_groups does past its guard
    monkeypatch.setattr(oracles, "mod_inverse", squared)
    oracles._square_groups.cache_clear()
    for r in (2 ** 20 + 1, 2 ** 63):
        with pytest.raises(ValueError, match="r must be <= 1048576"):
            esum_jh(1, 2, 1, 1, r, form="bare")
    # r = 2^20 itself passes the bound and starts squaring
    with pytest.raises(AssertionError, match="squared the residues"):
        esum_jh(1, 2, 1, 1, 2 ** 20, form="bare")


def test_esum_margin_bound():
    # explicit bracket r^{4/5} (h,r) (l,r)^{1/5} with the (0,r)=r convention
    v = esum_jh(0, 0, 1, 0, 45)
    assert v.margin == pytest.approx(abs(v.value) / (45 ** 0.8 * 45 * 45 ** 0.2))


def test_esum_rejects_noncoprime_j():
    with pytest.raises(ValueError):
        esum_jh(1, 1, 3, 1, 45)


def test_esum_refuses_a_modulus_below_one():
    # the bare form factorizes nothing, so it checks r itself
    for r in (0, -45):
        for form in ("paired", "bare"):
            with pytest.raises(ValueError):
                esum_jh(1, 2, 1, 1, r, form=form)


def test_esum_refuses_an_unknown_form_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("factorized before the form check")

    for module in (expsums, sqrtmod):
        monkeypatch.setattr(module, "factorize", no_work)
    with pytest.raises(ValueError, match="unknown form 'pared'"):
        esum_jh(1, 2, 1, 1, 45, form="pared")


def test_gcal_direct_value():
    # q = 3, a=b=0: sum over units of 1 = phi(3) = 2
    assert abs(gcal(3, 0, 0, 1, 0, 0, 1).value - 2) < 1e-12
    assert gcal(1, 5, 5, 1, 1, 1, 1).value == 1


def test_gcal_multiplicativity():
    rng = np.random.default_rng(1)
    done = 0
    while done < 30:
        q1 = int(rng.integers(1, 30)) * 2 + 1
        q2 = int(rng.integers(1, 30)) * 2 + 1
        if math.gcd(q1, q2) != 1:
            continue
        q = q1 * q2
        a, b, k, u = (int(rng.integers(0, q)) for _ in range(4))
        j = int(rng.integers(1, q))
        s = int(rng.integers(1, q))
        if math.gcd(j * s, q) != 1:
            continue
        lhs = gcal(q, a, b, j, k, u, s).value
        rhs = (gcal(q1, a, b, j, k, u, s * q2).value
               * gcal(q2, a, b, j, k, u, s * q1).value)
        assert abs(lhs - rhs) < 1e-6
        done += 1


def test_gcal_prime_power_bound():
    rng = np.random.default_rng(2)
    for q in (3, 9, 27, 81, 5, 25, 125, 7, 49, 11, 121, 13):
        for _ in range(5):
            a, b, k, u = (int(rng.integers(0, q)) for _ in range(4))
            v = abs(gcal(q, a, b, 1, k, u, 1).value)
            assert v <= gcal_bound(q, a, b, k, u) + 1e-9


def test_gcal_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gcal(4, 0, 0, 1, 0, 0, 1)  # even q
    with pytest.raises(ValueError):
        gcal(9, 0, 0, 3, 0, 0, 1)  # gcd(js, q) != 1


def test_rational_function_reduction():
    f = RationalFunctionModP((1, 7), (7, 1), 7)
    assert f.reduced() == ((1,), (0, 1))
    assert f.total_degree() == 1
    assert not f.is_constant()
    g = RationalFunctionModP((2, 4), (1, 2), 7)
    assert g.is_constant()


def test_rational_function_rejects():
    with pytest.raises(ValueError):
        RationalFunctionModP((1,), (1,), 6)  # p not prime
    with pytest.raises(ValueError):
        RationalFunctionModP((1,), (7, 14), 7)  # denominator vanishes


def test_bombieri_bound_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 97, 101):
        for coeffs in ((0, 1), (0, 0, 1, 1), (1, 2, 3)):
            f = RationalFunctionModP(coeffs, (1,), p)
            if f.is_constant():
                continue
            v = rational_expsum(f)
            assert v.margin <= 1 + 1e-12


def test_bombieri_kloosterman():
    # f(n) = n + 1/n: the classical Kloosterman bound with d_p = 2
    for p in (5, 13, 97, 499):
        f = RationalFunctionModP((1, 0, 1), (0, 1), p)  # (1 + n^2) / n
        v = rational_expsum(f)
        assert v.terms == p - 1
        assert abs(v.value.imag) < 1e-9  # Kloosterman sums are real
        assert v.margin <= 1


def test_bombieri_rejects_constant():
    with pytest.raises(ValueError):
        rational_expsum(RationalFunctionModP((3,), (1,), 7))


def test_esum_paired_refuses_int64_overflow():
    with pytest.raises(ValueError, match="2\\^63"):
        esum_jh(1, 2, 1, 1, 3037000500)


def prime_power_parts(q):
    """The prime powers of q, ascending, by trial division."""
    parts, p = [], 2
    while q > 1:
        if p * p > q:
            p = q
        if q % p == 0:
            parts.append(1)
            while q % p == 0:
                q //= p
                parts[-1] *= p
        p += 1
    return parts


def generator_powers(q):
    """g^t mod q for t < phi(q), g the least generator of (Z/q)*, for a
    cyclic (Z/q)*: each unit's powers are listed until they return to 1."""
    phi = sum(math.gcd(c, q) == 1 for c in range(1, q + 1))
    for g in range(1, q + 1):
        powers = [1 % q]
        while len(powers) <= phi and (powers[-1] * g - 1) % q:
            powers.append(powers[-1] * g % q)
        if len(powers) == phi:
            return powers


def test_unit_inverses():
    # a prime power's table lists the powers of the least generator of its
    # unit group; a composite q's lists sum_i c_i e_i mod q over every
    # choice of c_i from its prime powers' tables, the smallest prime power
    # varying slowest (e_i the CRT idempotents); every inverse is pow's.
    # Every odd q <= 2000, q = 2, phi(q) = 2^k (q = 17, 257, 65537), q next
    # to 2^k, and odd moduli near 4e4 as the benchmark's cold gcal calls
    # use.  The tables are uint32 while q^2 < 2^31 (46339 below, 46341
    # above) and uint64 beyond, where products mod 2^16 + 3 pass 2^32
    assert [a.tolist() for a in _unit_pairs(1)] == [[0], [0]]
    assert [a.tolist() for a in _unit_inverses(2)] == [[1], [1]]
    rng = np.random.default_rng(7)
    qs = list(range(3, 2001, 2))
    qs += [2 ** e + d for e in (8, 12, 16) for d in (-1, 1, 3)]
    qs += [9999, 39601, 46339, 46341]
    qs += [int(q) for q in 2 * rng.integers(1, 20000, 20) + 1]
    for q in qs:
        units, invs = _unit_pairs(q)
        assert units.dtype == invs.dtype == (np.uint32 if q <= 46340
                                             else np.uint64)
        parts = prime_power_parts(q)
        if len(parts) == 1:
            assert all(a is b for a, b in zip(_unit_inverses(q), (units, invs)))
        idempotents = [q // qi * pow(q // qi, -1, qi) % q for qi in parts]
        want = [sum(c * e for c, e in zip(choice, idempotents)) % q
                for choice in itertools.product(*map(generator_powers, parts))]
        assert units.tolist() == want, q
        assert invs.tolist() == [pow(c, -1, q) for c in want], q


def test_least_generator_passes_a_root_that_fails_mod_p_squared():
    # 5 is the least primitive root mod 40487, but 5^(p-1) = 1 mod p^2, so
    # 5 generates no (Z/p^a)* with a >= 2.  Checked by the orders mod p^a
    # alone: g^(phi/l) != 1 for each prime l of phi, and every smaller
    # g' fails that test
    p = 40487
    for a in (1, 2, 3):
        q, phi = p ** a, p ** (a - 1) * (p - 1)
        primes = [l for l in (2, 31, 653, p) if phi % l == 0]
        g = expsums._least_generator(p, a)
        assert g == (5 if a == 1 else 10)
        for h in range(1, g + 1):
            generates = all(pow(h, phi // l, q) != 1 for l in primes)
            assert generates == (h == g), (a, h)


def test_unit_inverses_refuses_a_non_cyclic_or_composite_modulus():
    # (Z/2^a)* is not cyclic for a >= 3; 4, 1 and composite q have no
    # prime-power table either: _unit_pairs combines their factors'
    for q in (4, 8, 2 ** 10, 1, 15, 45, 2 * 49):
        with pytest.raises(ValueError, match="2 or a power of an odd prime"):
            _unit_inverses(q)


def test_inverse_table():
    # c^-1 mod p at index c, 0 at index 0, in the signed dtype of
    # rational_expsum's residues: int32 at 46337, int64 at 46349
    for p in [p for p in range(2, 2001) if is_prime(p)] + [46337, 46349]:
        table = _inverse_table(p)
        assert table.dtype == sqrtmod._residue_dtype(p)
        assert table.tolist() == [0] + [pow(c, -1, p) for c in range(1, p)], p


def test_gcal_keeps_no_table_of_a_composite_modulus(fresh_tables):
    # G(45 * 49) reads the tables of 5, 9 and 49 and keeps only those; the
    # tables of 2205 and its phase table are built for the call alone
    want = gcal_literal(2205, 3, 2, 1, 5, 4, 2)
    assert abs(gcal(2205, 3, 2, 1, 5, 4, 2).value - want) < 1e-9 * 2205
    assert sorted(expsums._TABLES.tables) == [
        ("_unit_inverses", 5), ("_unit_inverses", 9), ("_unit_inverses", 49)]
    gcal(49, 3, 2, 1, 5, 4, 2)
    assert ("unit_phases", 49) in expsums._TABLES.tables
    # keep=False still reads a table that another caller kept
    kept = unit_phases(2205)
    assert unit_phases(2205, keep=False) is kept


def test_unit_inverses_refuses_int64_overflow(monkeypatch):
    # 3037000501^2 >= 2^63: gcal and rational_expsum refuse q (a product
    # 313 * 9702877) and the prime p before any length-q array or any
    # prime-power table is built
    def no_arrays(*args, **kwargs):
        raise AssertionError("allocated before the int64 check")

    monkeypatch.setattr(np, "arange", no_arrays)
    monkeypatch.setattr(np, "ones", no_arrays)
    monkeypatch.setattr(np, "zeros", no_arrays)
    monkeypatch.setattr(expsums, "_unit_inverses", no_arrays)
    with pytest.raises(ValueError, match="2\\^63"):
        gcal(3037000501, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="2\\^63"):
        rational_expsum(RationalFunctionModP((0, 1), (1,), 3037000507))


def test_gcal_matches_literal_sum():
    rng = np.random.default_rng(8)
    for q in range(1, 302, 2):
        done = 0
        while done < 2:
            a, b, k, u = (int(rng.integers(-3 * q, 3 * q)) for _ in range(4))
            j, s = (int(rng.integers(-3 * q, 3 * q)) for _ in range(2))
            if math.gcd(j * s, q) != 1:
                continue
            v = gcal(q, a, b, j, k, u, s)
            assert abs(v.value - gcal_literal(q, a, b, j, k, u, s)) < 1e-9 * q, \
                (q, a, b, j, k, u, s)
            assert v.terms == sum(math.gcd(c, q) == 1 for c in range(1, q + 1))
            done += 1


@pytest.mark.parametrize("q", [46335, 46339, 46341, 65537])
def test_gcal_matches_literal_sum_at_the_uint32_bound(q):
    # the phases run in uint32 below q^2 = 2^31 (46339, and 3 * 5 * 3089
    # from CRT tables) and in uint64 above it (3^2 * 19 * 271); at 65537 a
    # product of two residues reaches 2^32
    rng = np.random.default_rng(q)
    a, b, k, u = (int(v) for v in rng.integers(0, q, 4))
    v = gcal(q, a, b, 1, k, u, 1)
    assert abs(v.value - gcal_literal(q, a, b, 1, k, u, 1)) < 1e-9 * q


def test_rational_expsum_matches_literal_sum():
    # criterion 7's corpus at every p <= 101 (p = 2 included) and
    # negative coefficients
    corpus = list(BOMBIERI_CORPUS) + [((-3, 5, -1), (0, -2)),
                                      ((7, 0, -4, 1), (-1, 0, 3))]
    compared = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97, 101):
        for num, den in corpus:
            try:
                v = rational_expsum(RationalFunctionModP(num, den, p))
            except ValueError:
                continue  # constant mod p or vanishing denominator
            want, terms = rational_literal(num, den, p)
            assert abs(v.value - want) < 1e-9 * p, (p, num, den)
            assert v.terms == terms
            compared += 1
    assert compared > 400


def corpus_sums(ps):
    """rational_expsum over criterion 7's corpus at each p of ps, as
    (value, terms, margin) tuples, or the refusal's message."""
    out = []
    for p in ps:
        for num, den in BOMBIERI_CORPUS:
            try:
                v = rational_expsum(RationalFunctionModP(num, den, p))
            except ValueError as e:
                out.append(str(e))
                continue
            out.append((v.value, v.terms, v.margin))
    return out


def test_rational_expsum_is_the_same_in_int64(request):
    # criterion 7's corpus at every prime p <= 101 and at 46337, the
    # largest prime with p^2 < 2^31: int32 kernels, then int64 ones
    ps = [p for p in range(2, 102) if is_prime(p)] + [46337]
    int32_sums = corpus_sums(ps)
    request.getfixturevalue("int64_residues")
    assert corpus_sums(ps) == int32_sums


def unsigned_sums():
    """gauss_sum_direct at every odd q < 400 and its double, and gcal at
    every odd q < 400, then both at 46335 = 3 * 5 * 3089 and the prime
    46339, the last moduli whose phases run in uint32, as (value, terms)
    pairs."""
    out = []
    for q in list(range(1, 400, 2)) + [46335, 46339]:
        for v in (gauss_sum_direct(q, 3, 5), gcal(q, 2, 3, 1, 5, 4, 2)):
            out.append((v.value, v.terms))
        if q < 400:
            v = gauss_sum_direct(2 * q, 3, 5)
            out.append((v.value, v.terms))
    return out


def test_unsigned_kernels_are_the_same_in_uint64(request):
    # gauss_sum_direct and gcal add two products in uint32 at every one
    # of these q; forced to uint64 every value is bit-identical
    uint32_sums = unsigned_sums()
    assert _unit_pairs(46335)[0].dtype == np.uint32
    request.getfixturevalue("int64_residues")
    assert expsums._residue_dtype(3, "q", unsigned=True) is np.uint64
    assert _unit_pairs(46335)[0].dtype == _unit_pairs(3)[0].dtype == np.uint64
    assert unsigned_sums() == uint32_sums


@pytest.mark.parametrize("p", [46337, 46349])
def test_rational_expsum_matches_literal_sum_at_the_int32_bound(p):
    # int32 at 46337, int64 at 46349, the next prime: degree 6 numerators,
    # an inverse alone and a quartic denominator
    for num, den in (((0, 1, 0, 0, 0, 0, 1), (1,)), ((1,), (0, 1)),
                     ((0, 1, 1), (1, 0, 0, 0, 1))):
        v = rational_expsum(RationalFunctionModP(num, den, p))
        want, terms = rational_literal(num, den, p)
        assert abs(v.value - want) < 1e-9 * p, (p, num, den)
        assert v.terms == terms


@pytest.fixture
def fresh_tables():
    """An empty table memo before and after the test."""
    unit_phases.cache_clear()
    yield
    unit_phases.cache_clear()


def test_table_memo_hit_returns_the_same_read_only_object(fresh_tables):
    ph = unit_phases(97)
    assert unit_phases(97) is ph
    tables = _unit_inverses(97)
    assert _unit_inverses(97) is tables
    for a in (ph, *tables):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_table_memo_evicts_the_least_recently_used_first(fresh_tables,
                                                         monkeypatch):
    sizes = {q: expsums._owned_nbytes(unit_phases(q)) for q in (1000, 1001, 1002)}
    unit_phases.cache_clear()
    monkeypatch.setattr(expsums, "_TABLE_BUDGET", sizes[1000] + sizes[1001])
    first = unit_phases(1000)
    unit_phases(1001)
    assert unit_phases(1000) is first  # 1000 is now the most recent
    unit_phases(1002)  # evicts 1001
    assert [q for _, q in expsums._TABLES.tables] == [1000, 1002]
    info = unit_phases.cache_info()
    assert (info.hits, info.misses, info.tables) == (1, 3, 2)
    assert info.nbytes == sizes[1000] + sizes[1002]
    assert unit_phases(1000) is first


def test_table_memo_stays_within_its_budget(fresh_tables, monkeypatch):
    budget = 2 ** 16
    monkeypatch.setattr(expsums, "_TABLE_BUDGET", budget)
    for q in [101, 997, 1999, 3001, 101, 49, 1999, 2003, 4001]:
        unit_phases(q)
        _unit_inverses(q)
        info = unit_phases.cache_info()
        assert info.budget == budget
        assert 0 < info.nbytes <= budget
        assert info.nbytes == sum(size for _, size in
                                  expsums._TABLES.tables.values())
        assert info.tables == len(expsums._TABLES.tables)


def test_table_memo_does_not_keep_a_table_over_its_budget(fresh_tables,
                                                          monkeypatch):
    monkeypatch.setattr(expsums, "_TABLE_BUDGET", 1000)
    small = unit_phases(7)  # a 3 x 3 table, 144 bytes
    big = unit_phases(1000)  # 16 kB
    assert big.shape == (1000,) and not big.flags.writeable
    assert abs(big[250] - 1j) < 1e-14
    assert unit_phases(1000) is not big
    info = unit_phases.cache_info()
    assert (info.hits, info.misses, info.tables) == (0, 3, 1)
    assert unit_phases(7) is small


def test_table_memo_cache_info_and_cache_clear(fresh_tables):
    empty = unit_phases.cache_info()
    assert (empty.hits, empty.misses, empty.tables, empty.nbytes) == (0, 0, 0, 0)
    assert empty.budget == 2 ** 22
    _unit_inverses(49)
    _unit_inverses(49)
    unit_phases(49)
    # each function counts its own lookups; tables and bytes are shared
    inv, ph = _unit_inverses.cache_info(), unit_phases.cache_info()
    assert (inv.hits, inv.misses) == (1, 1)
    assert (ph.hits, ph.misses) == (0, 1)
    assert inv.tables == ph.tables == 2 and inv.nbytes == ph.nbytes > 0
    # a unit table's two arrays view one buffer, counted once
    units, invs = _unit_inverses(49)
    assert units.base is invs.base
    assert inv.nbytes == unit_phases(49).nbytes + units.base.nbytes
    # clearing through either function empties the one memo
    _unit_inverses.cache_clear()
    for f in (unit_phases, _unit_inverses):
        assert f.cache_info()[:4] == (0, 0, 0, 0)


def _complete_sum_values():
    """Every fast complete sum that reads the table memo, and ls_lhs."""
    out = [gauss_sum_direct(q, a, b).value
           for q in list(range(1, 302, 3)) + [46341] for a, b in ((2, 3), (5, 0))]
    out += [gcal(q, 3, 2, 1, 5, 4, 2).value for q in range(1, 302, 2)]
    for p in [p for p in range(2, 102) if all(p % d for d in range(2, p))]:
        for num, den in BOMBIERI_CORPUS:
            try:
                out.append(rational_expsum(RationalFunctionModP(num, den, p)).value)
            except ValueError:
                continue
    rng = np.random.default_rng(27)
    inst = SieveInstance(5, rng.standard_normal(96) + 1j * rng.standard_normal(96), 9)
    out += [ls_lhs(inst, moduli) for moduli in ("classical", "squares")]
    return out


def test_table_memo_budget_leaves_every_value_bit_identical(fresh_tables,
                                                            monkeypatch):
    # the standing rule for a fast path with regimes: no table kept, and
    # every table kept (the second pass reads them all from the memo)
    monkeypatch.setattr(expsums, "_TABLE_BUDGET", 0)
    none_kept = _complete_sum_values()
    assert unit_phases.cache_info().tables == 0
    monkeypatch.setattr(expsums, "_TABLE_BUDGET", math.inf)
    _complete_sum_values()
    all_kept = _complete_sum_values()
    assert unit_phases.cache_info().hits > 0
    assert np.array(all_kept).tobytes() == np.array(none_kept).tobytes()
