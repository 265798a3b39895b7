import math
import signal

import numpy as np
import pytest

from sievelab import arith
from sievelab.arith import (FactoredModulus, eps_q, factorize, is_prime,
                            jacobi, mod_inverse)
from sievelab.oracles import gcd_power_sum

#: the ten smallest primes above the trial-division bound 10^3
PRIMES_ABOVE_TRIAL = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061)


def spf_sieve(limit):
    """Smallest prime factor of every n <= limit, by a numpy sieve."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p::p]
            block[block == 0] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset
    return spf


def sieve_factors(n, spf):
    fac = {}
    while n > 1:
        p = int(spf[n])
        fac[p] = fac.get(p, 0) + 1
        n //= p
    return tuple(sorted(fac.items()))


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(2, 43):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_large():
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31 + 1)
    assert is_prime(10 ** 9 + 7)
    # Carmichael numbers must not fool the deterministic bases
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_prime(n)


def test_is_prime_beyond_twelve_bases():
    # psi_12 is a strong pseudoprime to every prime base up to 37
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    # psi_13 fools the 13 bases up to 41 as well, so it is refused
    psi13 = 3317044064679887385961981
    assert not is_prime(psi13 - 1)
    with pytest.raises(ValueError, match="proven only below"):
        is_prime(psi13)


#: psi_1..psi_13 (OEIS A014233): psi_k is the least strong pseudoprime to
#: every one of the first k prime bases 2, 3, 5, ...
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981)
FIRST_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    """Whether odd n > 2 passes the strong Fermat test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def trial_division_primes(lo, hi):
    """Whether each n in [lo, hi) is prime, by every trial divisor up to
    isqrt(hi), for 2 <= lo."""
    n = np.arange(lo, hi, dtype=np.int64)
    prime = np.ones(n.size, dtype=bool)
    for d in range(2, math.isqrt(hi) + 1):
        prime &= (n % d != 0) | (n == d)
    return prime


@pytest.fixture(params=["chosen", "all13"])
def mr_bases(request, monkeypatch):
    """is_prime as it chooses its bases, and with every n below its
    refusal bound tested to all 13."""
    if request.param == "all13":
        monkeypatch.setattr(arith, "_PSI", (0,) * 12 + (PSI[-1],))


def test_is_prime_matches_a_sieve_below_2_20(mr_bases):
    # one base below psi_1 = 2047, two below psi_2 = 1373653
    limit = 1 << 20
    spf = spf_sieve(limit - 1)
    want = np.flatnonzero(spf == np.arange(limit))[2:]
    got = [n for n in range(limit) if is_prime(n)]
    assert got == want.tolist()


@pytest.mark.parametrize("psi", [PSI[1], PSI[2]])
def test_is_prime_matches_trial_division_around_psi(psi, mr_bases):
    lo, hi = psi - 10 ** 4, psi + 10 ** 4 + 1
    want = np.flatnonzero(trial_division_primes(lo, hi)) + lo
    assert [n for n in range(lo, hi) if is_prime(n)] == want.tolist()


def test_is_prime_refuses_each_psi_k_its_bases_pass(mr_bases):
    # psi_k fools the first k bases, so a base count chosen by n <= psi_k
    # instead of n < psi_k calls it prime
    for k, psi in enumerate(PSI[:12], start=1):
        assert all(strong_probable_prime(psi, a)
                   for a in FIRST_PRIME_BASES[:k]), k
        assert not is_prime(psi), k


def test_factorize_reconstructs():
    for n in list(range(1, 200)) + [360, 1024, 9973, 2 ** 20 - 1, 10 ** 9 + 6]:
        fm = factorize(n)
        prod = 1
        for p, a in fm.factors:
            assert is_prime(p)
            prod *= p ** a
        assert prod == n


def test_factorize_matches_spf_sieve():
    # below 10^6 trial division to 10^3 factors alone; just above it the
    # first cofactors reach Miller-Rabin and rho
    lo, hi = 10 ** 6 - 2 * 10 ** 3, 10 ** 6 + 2 * 10 ** 4
    spf = spf_sieve(hi)
    for n in list(range(1, 2 * 10 ** 4 + 1)) + list(range(lo, hi + 1)):
        assert factorize(n).factors == sieve_factors(n, spf), n


def test_factorize_prime_powers_above_trial_bound():
    for p in PRIMES_ABOVE_TRIAL:
        a = 1
        while p ** a <= 2 ** 63:
            assert factorize(p ** a).factors == ((p, a),)
            a += 1


def test_factorize_products_above_trial_bound():
    ps = PRIMES_ABOVE_TRIAL
    for i, p in enumerate(ps):
        for q in ps[i + 1:]:
            assert factorize(p * q).factors == ((p, 1), (q, 1))
            assert factorize(p * p * q).factors == ((p, 2), (q, 1))
            assert factorize(p * q * q).factors == ((p, 1), (q, 2))
            for s in ps[ps.index(q) + 1:]:
                assert factorize(p * q * s).factors == ((p, 1), (q, 1), (s, 1))
    # a Carmichael number (6k+1)(12k+1)(18k+1), k = 195, all factors > 10^3
    carmichael = 1171 * 2341 * 3511
    assert pow(2, carmichael - 1, carmichael) == 1
    assert factorize(carmichael).factors == ((1171, 1), (2341, 1), (3511, 1))


def test_factorize_near_10_12():
    # one modulus from each class of the large queries: a prime, p*q with
    # both primes near 10^6, and p*q with p in [10^3, 10^4]
    assert factorize(999999999989).factors == ((999999999989, 1),)
    assert factorize(999983 * 1000003).factors == ((999983, 1), (1000003, 1))
    assert factorize(1009 * 991080257).factors == ((1009, 1), (991080257, 1))


def test_factorize_balanced_semiprime_near_2_63():
    def hang(signum, frame):
        raise TimeoutError("factorize did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        fm = factorize(3000000019 * 3000001003)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert fm.factors == ((3000000019, 1), (3000001003, 1))


def test_pollard_rho_only_past_trial_division(monkeypatch):
    calls = []
    rho = arith._pollard_rho

    def counting_rho(n):
        calls.append(n)
        return rho(n)

    monkeypatch.setattr(arith, "_pollard_rho", counting_rho)
    factorize.cache_clear()  # a memo hit would skip the work counted here
    for n in [991 * 997, 997 ** 2, 999983] + list(range(10 ** 6 - 2000, 10 ** 6)):
        factorize(n)
    assert calls == []
    assert factorize(1009 * 1013).factors == ((1009, 1), (1013, 1))
    assert calls == [1009 * 1013]


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factored_modulus_validates():
    with pytest.raises(ValueError):
        FactoredModulus(12, ((4, 1), (3, 1)))  # 4 is not prime
    with pytest.raises(ValueError):
        FactoredModulus(10, ((2, 1), (3, 1)))  # product mismatch
    fm = FactoredModulus(12, ((2, 2), (3, 1)))
    assert list(fm.prime_powers) == [4, 3]
    assert fm.divisor_count() == 6


def test_jacobi_matches_euler_for_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 97):
        for a in range(0, p):
            euler = pow(a, (p - 1) // 2, p)
            want = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert jacobi(a, p) == want


def test_jacobi_multiplicative_in_top():
    for q in (15, 21, 45, 77, 105):
        for a in range(1, 30):
            for b in range(1, 30):
                assert jacobi(a * b, q) == jacobi(a, q) * jacobi(b, q)


def test_mod_inverse():
    for q in (2, 3, 10, 97, 360):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                with pytest.raises(ValueError):
                    mod_inverse(a, q)
            else:
                assert a * mod_inverse(a, q) % q == 1
    with pytest.raises(ValueError, match="^6 has no inverse mod 10$"):
        mod_inverse(6, 10)
    # every a is a unit mod 1, with inverse 0
    assert [mod_inverse(a, 1) for a in (-5, 0, 1, 7)] == [0, 0, 0, 0]
    assert mod_inverse(-3, 7) == 2 and mod_inverse(10 ** 20 + 1, 97) == 59


def test_crt_idempotents():
    # e_i = 1 mod q_i, 0 mod every other q_k, and the e_i sum to 1 mod n
    for n in (1, 2, 2 ** 10, 3 ** 7, 97, 360, 255255, 999983 * 1000003):
        fm = factorize(n)
        es, qs = fm.crt_idempotents, fm.prime_powers
        assert len(es) == len(qs)
        for i, e in enumerate(es):
            assert 0 <= e < n
            for k, q in enumerate(qs):
                assert e % q == (1 if k == i else 0), (n, i, q)
        assert sum(es) % n == 1 % n
        # computed once, and never part of equality or the hash
        assert isinstance(es, tuple) and fm.crt_idempotents is es
        assert fm == factorize(n) and hash(fm) == hash(factorize(n))


def test_divisor_count():
    assert factorize(1).divisor_count() == 1
    assert factorize(12).divisor_count() == 6
    assert factorize(9973).divisor_count() == 2
    assert factorize(360).divisor_count() == 24


def test_gcd_power_sum_matches_direct():
    for r in (1, 2, 12, 36, 97):
        for sigma in (0.2, 0.5, 1.0):
            for H in (1, 7, 50):
                direct = sum(math.gcd(h, r) ** sigma for h in range(1, H + 1))
                assert gcd_power_sum(H, r, sigma) == pytest.approx(direct)


def test_gcd_power_sum_divisor_bound():
    # the explicit bound with constant 1: sum <= H * tau(r)
    for r in (12, 36, 97, 720, 2310):
        tau = factorize(r).divisor_count()
        for H in (1, 10, 100):
            for sigma in (0.2, 0.5, 1.0):
                assert gcd_power_sum(H, r, sigma) <= H * tau + 1e-9


def test_eps_q():
    assert eps_q(1) == 1
    assert eps_q(5) == 1
    assert eps_q(3) == 1j
    assert eps_q(7) == 1j
    assert eps_q(9) == 1
