import hashlib
import signal
import sys
from collections import Counter

import numpy as np
import pytest

from sievelab import sqrtmod
from sievelab import arith, oracles
from sievelab.arith import FactoredModulus, factorize, is_prime
from sievelab.expsums import esum_jh
from sievelab.oracles import root_multiset
from sievelab.sqrtmod import (RootSet, _residue_dtype, _vec_pow_mod,
                              build_root_multiset, build_root_multiset_ladder,
                              root_pairs, sqrt_mod_all)


def oracle_roots(m, r):
    ks = np.arange(r, dtype=np.int64)
    return tuple(int(k) for k in ks[ks * ks % r == m % r])


@pytest.fixture
def cold_memo():
    """Clear sqrt_mod_all's memo before and after a test that patches solver
    internals, so cached roots neither mask nor outlive a patched solver."""
    sqrtmod._sqrt_mod_all.cache_clear()
    yield
    sqrtmod._sqrt_mod_all.cache_clear()


def squaring_pairs(r):
    """Every (m, k) with m = k^2 mod r, by squaring, sorted by (m, k)."""
    ks = np.arange(r, dtype=np.int64)
    ms = ks * ks % r
    order = np.lexsort((ks, ms))
    return np.stack([ms[order], ks[order]], axis=1)


def test_rootset_validates():
    with pytest.raises(ValueError):
        RootSet(7, 2, (1,))  # 1*1 != 2 mod 7
    with pytest.raises(ValueError):
        RootSet(15, 4, (7, 2))  # unsorted
    # each passes the square check mod 7: (-3)^2 = 10^2 = 2 and 3^2 = 9
    # and (0, 7) both square to 0 mod 7: 7 sits on the range's open end
    for m, roots in ((2, (-3,)), (2, (3, 10)), (0, (0, 7))):
        with pytest.raises(ValueError, match="roots must lie in"):
            RootSet(7, m, roots)
    with pytest.raises(ValueError, match="m = 9 is not in"):
        RootSet(7, 9, (3,))
    rs = RootSet(15, 4, (2, 7, 8, 13))
    assert len(rs) == 4 and 7 in rs


def test_sqrt_mod_prime_exhaustive():
    # exponent 1 of the prime-power solver, over 2-adic valuations
    # s = v(p - 1) from 1 (3, 7, 11) through 2 (5, 13, 101) to 4 (17),
    # 5 (97) and 8 (257)
    for p in (3, 5, 7, 11, 13, 17, 97, 101, 257):
        for m in range(p):
            assert sqrt_mod_all(m, p).roots == oracle_roots(m, p)


def test_unit_root_mod_prime_at_large_two_adic_valuations():
    # 65537 = 2^16 + 1: every unit against the set of squares
    p = 65537
    squares = {k * k % p for k in range(1, p)}
    for m in range(1, p):
        x = sqrtmod._unit_root_mod_prime(m, p)
        if m in squares:
            assert x is not None and x * x % p == m, m
        else:
            assert x is None, m
    # 998244353 = 119 * 2^23 + 1 and 29 * 2^57 + 1: seeded m against
    # Euler's criterion, squares of seeded k as well
    rng = np.random.default_rng(15)
    for p in (998244353, 4179340454199820289):
        assert is_prime(p)
        for k in rng.integers(1, 2 ** 62, size=200):
            for m in (int(k) % p, int(k) * int(k) % p):
                x = sqrtmod._unit_root_mod_prime(m, p)
                if pow(m, (p - 1) // 2, p) == 1:
                    assert x is not None and x * x % p == m, (m, p)
                else:
                    assert x is None, (m, p)


def test_sqrt_mod_prime_rejects_two_and_composites(monkeypatch, cold_memo):
    # the prime-power solver is reached only through a FactoredModulus,
    # which refuses a factor that is not prime when it is built
    for n in (1, 9, 15):
        with pytest.raises(ValueError, match="is not prime"):
            FactoredModulus(n, ((n, 1),))

    # p = 2 never reaches the odd-prime solver: the 2-power branch takes it
    def odd_only(m, p):
        raise AssertionError(f"odd-prime solver called with p = {p}")

    monkeypatch.setattr(sqrtmod, "_unit_root_mod_prime", odd_only)
    for a in range(1, 5):
        for m in range(2 ** a):
            assert sqrt_mod_all(m, 2 ** a).roots == oracle_roots(m, 2 ** a)


def test_sqrt_mod_prime_power_exhaustive():
    for p, amax in ((2, 8), (3, 5), (5, 3), (7, 3), (11, 2), (13, 2)):
        for a in range(1, amax + 1):
            q = p ** a
            for m in range(q):
                got = sqrt_mod_all(m, q).roots
                assert got == oracle_roots(m, q), (m, p, a)


def test_root_count_of_zero():
    # m = 0 has exactly p^floor(alpha/2) roots mod p^alpha
    for p in (2, 3, 5, 7, 11):
        for a in range(1, 8):
            if p ** a > 10 ** 4:
                break
            assert len(sqrt_mod_all(0, p ** a).roots) == p ** (a // 2)


def test_odd_power_of_p_has_no_roots():
    # m = p^beta * unit with odd beta is never a square mod p^alpha
    assert sqrt_mod_all(3, 3 ** 3).roots == ()
    assert sqrt_mod_all(2, 2 ** 4).roots == ()
    assert sqrt_mod_all(5 * 3, 5 ** 4).roots == ()


def test_sqrt_mod_all_examples():
    assert sqrt_mod_all(4, 15).roots == (2, 7, 8, 13)
    assert sqrt_mod_all(0, 1).roots == (0,)
    assert sqrt_mod_all(1, 24).roots == (1, 5, 7, 11, 13, 17, 19, 23)


def test_sqrt_mod_all_exhaustive_small():
    for r in range(1, 121):
        for m in range(r):
            assert sqrt_mod_all(m, r).roots == oracle_roots(m, r), (m, r)


def test_sqrt_mod_all_memo_keys_on_the_residue(cold_memo):
    for r in (1, 2, 15, 24, 97, 360):
        for m in range(-3, r + 3):
            rs = sqrt_mod_all(m, r)
            assert rs == sqrt_mod_all(m + r, r) == sqrt_mod_all(m - r, r)
            assert rs.m == m % r
    info = sqrtmod._sqrt_mod_all.cache_info()
    assert info.maxsize == 256 and info.hits > 0


def test_sqrt_mod_all_memo_cold_and_warm_equal_oracle(cold_memo):
    # r <= 256 residues stay cached, so the second pass is all hits; a
    # larger r scans through evictions and misses again
    memo = sqrtmod._sqrt_mod_all
    for r in (12, 35, 97, 256, 1001, 1024):
        memo.cache_clear()
        for _ in ("cold", "warm"):
            for m in range(r):
                assert sqrt_mod_all(m, r).roots == oracle_roots(m, r), (m, r)
        info = memo.cache_info()
        assert (info.hits, info.misses) == ((r, r) if r <= 256 else (0, 2 * r))


def test_sqrt_mod_all_hits_do_not_factorize(monkeypatch, cold_memo):
    # r < 1 and r > 2^63 are refused on every call, the first by
    # sqrt_mod_all itself and the second by factorize, since a refusal
    # is never cached
    for _ in range(2):
        for r in (0, -5):
            with pytest.raises(ValueError, match="sqrt_mod_all requires r >= 1"):
                sqrt_mod_all(1, r)
        with pytest.raises(ValueError, match="factorize caps n at 2\\^63"):
            sqrt_mod_all(1, 2 ** 63 + 1)
    # the memo is keyed on the integers (m mod r, r): after one pass over
    # 233 residues, every call hits and none reaches factorize
    moduli = (1, 15, 97, 120)
    for r in moduli:
        for m in range(r):
            sqrt_mod_all(m, r)

    def no_factorize(n):
        raise AssertionError(f"factorize({n}) on a memo hit")

    for mod in (arith, sqrtmod):
        monkeypatch.setattr(mod, "factorize", no_factorize)
    for r in moduli:
        for m in range(-r, 2 * r):
            assert sqrt_mod_all(m, r).roots == oracle_roots(m, r), (m, r)


@pytest.mark.parametrize("ta, tb", [([], [0, 0, 2]), ([0, 1, 2], []),
                                    ([1, 3], [0, 0, 2])],
                         ids=["no owners", "no runs", "empty runs"])
def test_matching_pairs_with_an_empty_side(ta, tb):
    # no owner, no run at all, or owners 1 and 3 whose runs in tb are
    # empty: no pair, as two empty integer arrays
    i, ib = sqrtmod._matching_pairs(np.array(ta, dtype=np.int64),
                                    np.array(tb, dtype=np.int64), 4)
    for a in (i, ib):
        assert a.shape == (0,) and a.dtype.kind == "i"


@pytest.mark.parametrize("fault", ["non-root", "duplicate"])
def test_sqrt_mod_all_validates_recombined_roots(monkeypatch, cold_memo, fault):
    # the per-factor roots are no longer wrapped in RootSets: the final
    # RootSet must catch a bad factor root through the recombined ones
    solver = sqrtmod._sqrt_mod_prime_power

    def mutant(m, p, a):
        roots = solver(m, p, a)
        q = p ** a
        if fault == "duplicate":
            return roots + roots[-1:]
        bad = next(k for k in range(q) if (k * k - m) % q)
        return tuple(sorted(set(roots[1:]) | {bad}))

    monkeypatch.setattr(sqrtmod, "_sqrt_mod_prime_power", mutant)
    match = "not a root" if fault == "non-root" else "duplicate-free"
    for m, r in ((4, 15), (1, 24), (0, 9), (2, 7)):
        with pytest.raises(ValueError, match=match):
            sqrt_mod_all(m, r)


def test_roots_closed_under_negation():
    for r in (7, 12, 45, 97, 360):
        for m in range(0, r, 7):
            roots = sqrt_mod_all(m, r).roots
            assert all((r - k) % r in roots for k in roots)


def test_root_pairs_matches_squaring():
    # every r <= 2000, then prime powers, smooth r, a prime = 1 mod 8, a
    # prime above 10^4 and twice it, and 967381 = 97 * 9973.  46340 and
    # 46341 sit on either side of r^2 < 2^31, where root_pairs leaves
    # int32 for int64, and the keys m*r + k of 46349 pass 2^31, so an
    # int32 run there wraps
    rs = list(range(1, 2001)) + [5040, 6561, 8192, 9240, 9601, 10007,
                                 2 * 10007, 46340, 46341, 46349, 967381]
    for r in rs:
        rp = root_pairs(r)
        # the table is in the working dtype, and column-major, so that each
        # column a caller reads is contiguous
        assert rp.dtype == (np.int32 if r <= 46340 else np.int64), r
        assert rp[:, 0].flags.c_contiguous and rp[:, 1].flags.c_contiguous
        assert np.array_equal(rp, squaring_pairs(r)), r


def test_root_pairs_neither_factorizes_nor_solves(monkeypatch):
    # root_pairs squares, so it is the table criterion 1 checks the array
    # solver against; its refusal of r < 1 is its own
    def called(*args):
        raise AssertionError("called")

    monkeypatch.setattr(sqrtmod, "factorize", called)
    monkeypatch.setattr(sqrtmod, "_prime_power_residue_roots", called)
    for r in (1, 45, 9240, 46349):
        assert np.array_equal(root_pairs(r), squaring_pairs(r)), r
    with pytest.raises(ValueError, match="r >= 1"):
        root_pairs(0)


def sorted_pairs(t, k):
    """An array solver's (t, k) over every residue, t the residue itself,
    as a table sorted by (m, k) = (t, k)."""
    order = np.lexsort((k, t))
    return np.stack([t[order], k[order]], axis=1)


def prime_power_table(p, a):
    """The array solver's pairs over every residue mod p^a, in int64, as
    a table sorted by (m, k)."""
    v = np.arange(p ** a, dtype=np.int64)
    return sorted_pairs(*sqrtmod._prime_power_residue_roots(v, p, a))


def test_prime_pair_table_equals_squaring():
    # the array solver at primes, two from each class mod 8: s = v(p - 1)
    # is 1 for p = 3 mod 4, 2 for p = 5 mod 8 and at least 3 for
    # p = 1 mod 8; 40961, 65537 and 786433 have s = 13, 16 and 18, so
    # every step of the Tonelli-Shanks schedule runs
    for p in (17, 9601, 3, 11, 5, 9973, 7, 10007, 40961, 65537, 786433):
        assert np.array_equal(prime_power_table(p, 1), squaring_pairs(p)), p


@pytest.mark.parametrize("n", [5040, 9240, 20014, 967381])
def test_residue_roots_of_every_residue_equal_squaring(n):
    # the multisets' array pass: smooth n, 2 * 10007, and 967381 = 97 * 9973,
    # whose CRT idempotents lie near 10^6
    t, k = sqrtmod._residue_roots(np.arange(n, dtype=np.int64), factorize(n))
    assert np.array_equal(sorted_pairs(t, k), squaring_pairs(n)), n


def loop_built_pairs(p, a):
    """The (m, k) table of p^a from the scalar solver, one m at a time."""
    rows = [(m, k) for m in range(p ** a)
            for k in sqrtmod._sqrt_mod_prime_power(m, p, a)]
    return np.array(rows, dtype=np.int64)


#: sha256 of every table with p^a <= 10^4 (p ascending, then a; ms bytes,
#: then ks bytes, widened to int32) as the scalar solver's loop over m
#: built them
PP_TABLES_SHA256 = ("45541a75a5eafc4a4ddaeb604048f598"
                    "4d39837abc3cbb2db6d979885f346df4")


def test_prime_power_tables_equal_the_loop_built_ones():
    # the array solver's tables at every prime power <= 10^4, then at 3^10
    # and 2^16, whose keys m*q + k pass 2^31
    digest = hashlib.sha256()
    for p in range(2, 10 ** 4 + 1):
        if not is_prime(p):
            continue
        for a in range(1, 14):
            if p ** a > 10 ** 4:
                break
            table = prime_power_table(p, a)
            if a >= 2:
                assert np.array_equal(table, loop_built_pairs(p, a)), (p, a)
            digest.update(table[:, 0].astype(np.int32).tobytes())
            digest.update(table[:, 1].astype(np.int32).tobytes())
    assert digest.hexdigest() == PP_TABLES_SHA256
    for p, a in ((3, 10), (2, 16)):
        assert np.array_equal(prime_power_table(p, a),
                              loop_built_pairs(p, a)), (p, a)


def test_root_pairs_tonelli_prime():
    # a prime = 1 mod 8, where the array solver needs Tonelli-Shanks steps;
    # the squared table has every root and one row per k
    p = 9601
    rp = root_pairs(p)
    assert np.all((rp[:, 1] * rp[:, 1] - rp[:, 0]) % p == 0)
    assert np.all(np.bincount(rp[:, 1], minlength=p) == 1)


def solver_root_sets(v, p, a):
    """_prime_power_residue_roots(v, p, a) grouped by t: one sorted tuple
    of roots per entry of v, after checking the output's shape and dtype."""
    t, k = sqrtmod._prime_power_residue_roots(v, p, a)
    assert t.shape == k.shape and k.dtype == v.dtype
    groups = [[] for _ in range(v.size)]
    for ti, ki in zip(t.tolist(), k.tolist()):
        groups[ti].append(ki)
    return [tuple(sorted(roots)) for roots in groups]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_prime_power_array_solver_matches_the_scalar_one(dtype):
    # the one array solver, behind the multisets' array pass, root set by
    # root set: every residue of small p^a (int32 holds them too, since
    # q^2 < 2^31), in int32 also the largest prime, power of 2 and power
    # of 3 and a prime square below 46341, then seeded residues of
    # every valuation beta and v = 0 in int64, in shuffled order, where
    # the roots p^(beta/2) x + s p^(a - beta/2) of even beta are many
    cases = [(2, 1), (2, 2), (2, 3), (3, 5), (5, 4), (7, 3), (2, 11),
             (9973, 1)]
    if dtype is np.int32:
        cases += [(46337, 1), (2, 15), (3, 9), (181, 2)]
    for p, a in cases:
        v = np.arange(p ** a, dtype=dtype)
        want = [sqrtmod._sqrt_mod_prime_power(m, p, a) for m in range(p ** a)]
        assert solver_root_sets(v, p, a) == want, (p, a)
    if dtype is np.int32:
        return
    rng = np.random.default_rng(22)
    for p, a in ((2, 20), (3, 12), (7, 7)):
        v = [0]
        for beta in range(a):
            v += [int(w) * p ** beta
                  for w in rng.integers(1, p ** (a - beta), 12) if w % p]
        v = rng.permutation(np.array(v, dtype=dtype))
        want = [sqrtmod._sqrt_mod_prime_power(m, p, a) for m in v.tolist()]
        assert solver_root_sets(v, p, a) == want, (p, a)


def checked_multiset(R, j, r, h=None, build=build_root_multiset):
    """The (keys, counts) of build_root_multiset, or of its oracle
    root_multiset, after checking their format: int64 arrays, keys
    strictly ascending in [0, r), every count >= 1."""
    keys, counts = build(R, j, r, h)
    assert keys.dtype == counts.dtype == np.int64
    assert keys.ndim == 1 and keys.shape == counts.shape
    assert np.all(np.diff(keys) > 0)
    assert keys.size == 0 or (keys[0] >= 0 and int(keys[-1]) < r)
    assert np.all(counts >= 1)
    return keys, counts


def same_multiset(a, b):
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_build_root_multiset_plain_methods_agree():
    for r in (7, 12, 45, 97):
        for j in (1, 5):
            if np.gcd(j, r) != 1:
                continue
            for R in (1, 3, r):
                fast = checked_multiset(R, j, r)
                oracle = checked_multiset(R, j, r, build=root_multiset)
                assert same_multiset(fast, oracle), (r, j, R)
    # 3 is a non-residue mod 7, so m = 1 has no root at j = 3
    for build in (build_root_multiset, root_multiset):
        keys, _ = checked_multiset(1, 3, 7, build=build)
        assert keys.size == 0


@pytest.mark.parametrize("r", [3037000500, 10 ** 12 + 39])
def test_build_root_multiset_plain_serves_r_squared_past_2_63(r):
    # r^2 >= 2^63, so the fast builder solves per m even at R >= _ARRAY_MIN_R
    R, j = 40, 7
    keys, counts = checked_multiset(R, j, r)
    jinv = pow(j, -1, r)
    assert all(1 <= k * k * jinv % r <= R for k in keys.tolist())
    assert np.all(counts == 1)
    assert keys.size == sum(len(sqrt_mod_all(j * m, r)) for m in range(1, R + 1))
    assert keys.size > 0


def test_build_root_multiset_plain_mass():
    # mass = number of (m, k) pairs with m <= R
    _, counts = checked_multiset(8, 1, 15)
    direct = sum(len(sqrt_mod_all(m, 15).roots) for m in range(1, 9))
    assert sum(counts.tolist()) == direct


def test_build_root_multiset_difference():
    r, j, h, R = 21, 2, 1, 8
    _, counts = checked_multiset(R, j, r, h=h)
    count = 0
    for m in range(1, R + 1):
        ks = sqrt_mod_all(j * m % r, r).roots
        kts = sqrt_mod_all(j * (m + h) % r, r).roots
        count += len(ks) * len(kts)
    assert sum(counts.tolist()) == count == 8
    # differences past 2^62 and r = 2^63 itself, as in
    # test_f2_pair_sums_near_2_63_do_not_wrap
    for r in (2 ** 63 - 25, 2 ** 63):
        for R, h in ((12, 3), (8, 7), (16, 2)):
            keys, counts = checked_multiset(R, 1, r, h=h)
            literal = Counter((kt - k) % r for m in range(1, R + 1)
                              for k in sqrt_mod_all(m, r).roots
                              for kt in sqrt_mod_all(m + h, r).roots)
            assert (list(zip(keys.tolist(), counts.tolist()))
                    == sorted(literal.items())), (r, R, h)


def test_build_root_multiset_difference_methods_agree():
    # the oracle squares every residue; the fast builder calls the solver
    for r in (1, 2, 8, 12, 21, 45, 63, 97, 128, 360):
        for j in (1, 2, 5):
            if np.gcd(j, r) != 1:
                continue
            for R in {1, min(4, r), min(8, r), r}:
                for h in (-3, 0, 1, 2, r + 1):
                    fast = checked_multiset(R, j, r, h=h)
                    oracle = checked_multiset(R, j, r, h=h, build=root_multiset)
                    assert same_multiset(fast, oracle), (r, j, R, h)
    # 3 is a non-residue mod 7, so m = 1 has no root at j = 3
    for build in (build_root_multiset, root_multiset):
        keys, _ = checked_multiset(1, 3, 7, h=1, build=build)
        assert keys.size == 0


@pytest.fixture(params=["array", "loop"])
def fast_regime(request, monkeypatch):
    """Force the fast builder, of either kind, into one regime, with the
    other regime's solver patched to raise, so the regime under test runs."""
    def other_regime(*args, **kwargs):
        raise AssertionError("ran the other regime")

    if request.param == "array":
        monkeypatch.setattr(sqrtmod, "_ARRAY_MIN_R", 0)
        monkeypatch.setattr(sqrtmod, "sqrt_mod_all", other_regime)
    else:
        monkeypatch.setattr(sqrtmod, "_ARRAY_MIN_R", sys.maxsize)
        monkeypatch.setattr(sqrtmod, "_residue_roots", other_regime)


def test_fast_regimes_of_both_kinds_match_the_oracle_on_criterion_3(
        fast_regime):
    # a seeded slice of criterion 3's grid: r <= 60, a unit j, R <= 8, and
    # both kinds (h None is the plain kind)
    rng = np.random.default_rng(3)
    for r in sorted(rng.choice(np.arange(1, 61), 24, replace=False).tolist()):
        units = [j for j in range(1, r + 1) if np.gcd(j, r) == 1]
        j = units[int(rng.integers(len(units)))]
        for R in {1, min(int(rng.integers(2, 9)), r), min(8, r)}:
            for h in (None, 0, 1, 2, -5, r + 3):
                fast = checked_multiset(R, j, r, h=h)
                oracle = checked_multiset(R, j, r, h=h, build=root_multiset)
                assert same_multiset(fast, oracle), (r, j, R, h)


#: moduli with omega = 1, 2, 3 distinct odd primes
OMEGA_MODULI_AT_R_600 = [99991, 11 * 5381, 3 * 101 * 241]
#: 2-power cofactors, and 3^12, whose non-unit residues of R = 600 have
#: many roots
COFACTOR_MODULI_AT_R_600 = [2 ** 6 * 1499, 2 ** 4 * 7 * 857, 3 ** 12]
#: 7^7, whose non-unit residues of R = 600 have many roots, and 2^16 + 1
#: at R = 1, r // 2 and r: at R = r every residue is counted
PRIME_POWER_AND_FULL_RANGE_MODULI = [7 ** 7, 2 ** 16 + 1]


def assert_both_kinds_match_the_oracle(r):
    """Both kinds (h None is the plain kind) at R = 600, and at 2^16 + 1
    at R = 1, r // 2 and r instead."""
    for R in ((1, r // 2, r) if r == 2 ** 16 + 1 else (600,)):
        for j, h in ((1, None), (1, 1), (5, None), (5, -5)):
            fast = checked_multiset(R, j, r, h=h)
            oracle = checked_multiset(R, j, r, h=h, build=root_multiset)
            assert same_multiset(fast, oracle), (R, j, h)


@pytest.mark.parametrize("r", OMEGA_MODULI_AT_R_600 + COFACTOR_MODULI_AT_R_600
                         + PRIME_POWER_AND_FULL_RANGE_MODULI)
def test_fast_regimes_of_both_kinds_match_the_oracle_at_R_600(r, fast_regime):
    assert_both_kinds_match_the_oracle(r)


def test_square_groups_are_memoized_read_only():
    # one table of squares per r, whatever j: a warm build equals a cold
    # one, and a caller cannot change the cached groups
    memo = oracles._square_groups
    assert memo.cache_info().maxsize == 1
    points = [(R, h) for R in (1, 4, 8) for h in (0, 1, 2, -5)]
    for r, j in ((21, 2), (45, 7), (97, 5), (128, 3)):
        cold = []
        for R, h in points:
            memo.cache_clear()
            cold.append(root_multiset(R, j, r, h=h))
        memo.cache_clear()
        warm = [root_multiset(R, j, r, h=h) for R, h in points]
        assert all(map(same_multiset, warm, cold)), (r, j)
        info = memo.cache_info()
        assert (info.hits, info.misses) == (len(points) - 1, 1)
        root_multiset(8, 1, r)
        assert memo.cache_info().misses == 1
        groups = memo(r)
        m, ks = next(iter(groups.items()))
        with pytest.raises(TypeError):
            groups[m] = ks + (0,)
        with pytest.raises(TypeError):
            del groups[m]
        with pytest.raises(AttributeError):
            ks.append(0)
        assert groups == memo(r) and groups[m] == ks


def test_build_root_multiset_validates():
    # the fast builder and its oracle refuse alike, for both kinds
    for build in (build_root_multiset, root_multiset):
        for h in (None, 1):
            with pytest.raises(ValueError, match="need 1 <= R <= r"):
                build(0, 1, 7, h)
            with pytest.raises(ValueError, match="need gcd"):
                build(3, 7, 7, h)


def test_root_pairs_m_runs_match_scalar_solver():
    for r in (1, 2, 8, 9, 97, 360, 1024, 9601):
        pairs = root_pairs(r)
        assert pairs.shape == (r, 2)
        # root_pairs squares in the working dtype, int32 at these r
        assert pairs.dtype == np.int32
        ends = np.searchsorted(pairs[:, 0], np.arange(r + 1))
        assert ends[0] == 0 and ends[r] == r
        for m in range(r):
            got = tuple(int(k) for k in pairs[ends[m]:ends[m + 1], 1])
            assert got == sqrt_mod_all(m, r).roots


def test_int64_square_preconditions_at_boundary():
    # 3037000499^2 < 2^63 <= 3037000500^2
    base = np.array([2, 3], dtype=np.int64)
    assert _vec_pow_mod(base, 2, 3037000499).tolist() == [4, 9]
    with pytest.raises(ValueError, match="2\\^63"):
        _vec_pow_mod(base, 2, 3037000500)
    # the guard of root_pairs, hence of esum_jh's paired form, refuses
    # before any table of that size is built
    _residue_dtype(3037000499, "r")
    with pytest.raises(ValueError, match="2\\^63"):
        esum_jh(1, 2, 1, 1, 3037000500)
    # root_pairs sorts on the key m*r + k, so it refuses the same r itself
    with pytest.raises(ValueError, match="2\\^63"):
        root_pairs(3037000500)


@pytest.mark.parametrize("n", [46340, 46341, 46349, 3037000499, 3037000500])
def test_numpy_integers_meet_the_width_rule_as_ints(n):
    # 46340^2 < 2^31 <= 46341^2 and 3037000499^2 < 2^63 <= 3037000500^2.
    # The rule squares the int n, so a numpy n can neither pick 32 bits
    # past the edge (np.int32(46349)^2 wraps) nor pass the refusal
    # (np.int64(3037000500)^2 wraps); int32 holds n < 2^31 only
    for kind in [np.int64] + ([np.int32] if n < 2 ** 31 else []):
        for unsigned in (False, True):
            if n * n < 2 ** 63:
                assert (_residue_dtype(kind(n), "r", unsigned)
                        is _residue_dtype(n, "r", unsigned))
            else:
                with pytest.raises(ValueError, match="r = 3037000500 too large"):
                    _residue_dtype(kind(n), "r", unsigned)
        if n < 46350:
            want = root_pairs(n)
            got = root_pairs(kind(n))
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert sqrt_mod_all(kind(4), kind(n)) == sqrt_mod_all(4, n)
        for h in (None, 1):
            assert all(map(np.array_equal, build_root_multiset(
                kind(40), kind(11), kind(n), h if h is None else kind(h)),
                build_root_multiset(40, 11, n, h)))
    if n * n >= 2 ** 63:
        for r in (n, 2 ** 32):
            with pytest.raises(ValueError, match="2\\^63"):
                root_pairs(np.int64(r))


def test_float_arguments_raise_type_error():
    # operator.index refuses a float, where it would otherwise be squared
    # or reduced as a float
    for call in (lambda: sqrt_mod_all(4, 15.0), lambda: sqrt_mod_all(4.0, 15),
                 lambda: root_pairs(15.0), lambda: _residue_dtype(15.0),
                 lambda: build_root_multiset(3, 1, 15.0),
                 lambda: build_root_multiset(3, 1, 15, 1.0),
                 lambda: build_root_multiset_ladder([1, 2.0], 1, 15)):
        with pytest.raises(TypeError):
            call()


def test_ladder_increments_sum_to_the_one_rung_builds(fast_regime):
    # each increment holds the m of its own rung only, so the increments
    # up to a rung, merged, give that rung's one-rung build, in both
    # regimes of the builder and for both kinds
    for r, j, Rs in ((45, 2, [1, 4, 8, 30]), (97, 5, [3, 40, 41, 97]),
                     (360, 7, [1, 2, 50])):
        for h in (None, 0, 1, -5):
            table = Counter()
            for R, (keys, counts) in zip(Rs, build_root_multiset_ladder(
                    Rs, j, r, h)):
                table.update(dict(zip(keys.tolist(), counts.tolist())))
                keys, counts = checked_multiset(R, j, r, h)
                assert sorted(table.items()) == list(zip(
                    keys.tolist(), counts.tolist())), (r, j, Rs, h, R)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32, np.uint64])
def test_mod_helper_equals_numpy_remainder(dtype):
    # the ends of each dtype, where a // p * p wraps for negative a, and
    # random operands of both signs
    info = np.iinfo(dtype)
    a = np.concatenate([
        np.array([info.min, info.min + 1, info.max - 1, info.max, 0, 1],
                 dtype=dtype),
        np.random.default_rng(5).integers(info.min, info.max, 2000,
                                          dtype=dtype, endpoint=True)])
    assert a.size >= sqrtmod._MOD_MIN_SIZE > 6
    for p in (1, 2, 3, 8, 9973, 2 ** 16 + 1, 46340, int(info.max)):
        for part in (a, a[:6]):  # both forms of the helper
            got = sqrtmod._mod(part, p)
            assert got.dtype == a.dtype
            assert np.array_equal(got, part % p), p


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_vec_pow_mod_equals_pow_for_every_small_exponent(dtype):
    # bases of both signs and past p, which the helper reduces first; the
    # largest p whose square each dtype holds, and p = 1
    base = np.array([-7, -1, 0, 1, 2, 3, 5, 46339, 46340], dtype=dtype)
    big = 46340 if dtype is np.int32 else 3037000499
    for p in (1, 2, 7, 9973, big):
        for e in range(131):
            got = _vec_pow_mod(base, e, p)
            assert got.dtype == dtype
            assert got.tolist() == [pow(int(b), e, p) for b in base], (p, e)


def test_vec_pow_mod_refuses_negative_exponent():
    # e >>= 1 never leaves -1, so a missing check loops forever; the alarm
    # turns that into a failure instead of a hung test run
    def hang(signum, frame):
        raise TimeoutError("_vec_pow_mod did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="exponent"):
            _vec_pow_mod(np.array([2, 3], dtype=np.int64), -1, 7)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_sqrt_mod_all_trusts_factored_primes(monkeypatch, cold_memo):
    calls = []

    def counting_is_prime(p):
        calls.append(p)
        return is_prime(p)

    monkeypatch.setattr(arith, "is_prime", counting_is_prime)
    for r, primes in ((8, [2]), (9, [3]), (360, [2, 3, 5]), (1001, [7, 11, 13])):
        # from a cold factorize memo, the first call factorizes r and
        # validates each of its primes once; later calls reuse it
        factorize.cache_clear()
        calls.clear()
        for m in range(r):
            assert sqrt_mod_all(m, r).roots == oracle_roots(m, r)
            assert calls == primes, (m, r)
    calls.clear()
    # a FactoredModulus checks its exponents, then its primes, when built
    with pytest.raises(ValueError, match="is not prime"):
        FactoredModulus(4, ((4, 1),))
    with pytest.raises(ValueError, match="exponent 0"):
        FactoredModulus(1, ((5, 0),))
    assert calls == [4]
