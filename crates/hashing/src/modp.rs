//! Modular arithmetic over `u64` moduli and deterministic primality.
//!
//! All routines widen through `u128`, so they are exact for any 64-bit
//! modulus. The Miller–Rabin implementation uses the standard deterministic
//! witness set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}`, which is
//! known to be correct for every `n < 2^64`.

/// Computes `(a * b) mod m` without overflow.
#[inline]
pub fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0, "modulus must be positive");
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Computes `(a + b) mod m` without overflow.
#[inline]
pub fn addmod(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(m > 0, "modulus must be positive");
    ((a as u128 + b as u128) % m as u128) as u64
}

/// Computes `(a + b) mod m` for `a < m` and `b ≤ m` with one add and one
/// conditional subtract: no `u128`, no divide. Exact for every `u64`
/// modulus, including `m > 2^63`, where `a + b` carries out of 64 bits.
#[inline]
pub fn add_reduced(a: u64, b: u64, m: u64) -> u64 {
    debug_assert!(a < m && b <= m, "add_reduced needs a < m and b ≤ m");
    let (sum, carry) = a.overflowing_add(b);
    if carry || sum >= m {
        sum.wrapping_sub(m)
    } else {
        sum
    }
}

/// Computes `base^exp mod m` by binary exponentiation.
pub fn powmod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    debug_assert!(m > 0, "modulus must be positive");
    if m == 1 {
        return 0;
    }
    let mut acc: u64 = 1;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// A Barrett-style reducer: precomputed magic for repeated `x mod m`.
///
/// Rust compiles a `% m` with a *runtime* modulus to a hardware divide
/// (u128 long division here, since the callers widen), which costs an
/// order of magnitude more than a multiply. The batched evaluation tier
/// ([`crate::PolynomialHash::eval_batch`]) reduces millions of times
/// against the same modulus, so it hoists the division into this one-time
/// reciprocal and reduces with two multiplies.
///
/// Exact — [`Reducer::rem`] equals `x % m` for **every** `u64` input, so
/// routing a hash through it cannot perturb a single output bit. Proof
/// sketch: with `µ = ⌊2^64/m⌋`, the estimate `q = ⌊x·µ/2^64⌋` satisfies
/// `⌊x/m⌋ − 2 ≤ q ≤ ⌊x/m⌋`, so `r = x − q·m < 3m` and at most two
/// conditional subtractions finish the reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reducer {
    m: u64,
    /// `⌊2^64 / m⌋`.
    mu: u64,
}

impl Reducer {
    /// Prepares reduction modulo `m` (requires `m ≥ 2`).
    #[inline]
    pub fn new(m: u64) -> Self {
        assert!(m >= 2, "Reducer needs a modulus ≥ 2");
        Self { m, mu: ((1u128 << 64) / m as u128) as u64 }
    }

    /// The modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.m
    }

    /// Computes `x % m` exactly, without a divide.
    #[inline]
    pub fn rem(&self, x: u64) -> u64 {
        let q = ((x as u128 * self.mu as u128) >> 64) as u64;
        // q ≤ ⌊x/m⌋, so q·m ≤ x and the subtraction cannot wrap.
        let mut r = x - q.wrapping_mul(self.m);
        if r >= self.m {
            r -= self.m;
        }
        if r >= self.m {
            r -= self.m;
        }
        r
    }
}

/// Deterministic witness set sufficient for all `n < 2^64`.
const MILLER_RABIN_WITNESSES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Deterministic Miller–Rabin primality test, exact for every `u64`.
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &small in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == small {
            return true;
        }
        if n.is_multiple_of(small) {
            return false;
        }
    }
    // Write n − 1 = d · 2^r with d odd.
    let mut d = n - 1;
    let r = d.trailing_zeros();
    d >>= r;
    'witness: for &a in &MILLER_RABIN_WITNESSES {
        let mut x = powmod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..r {
            x = mulmod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Returns the smallest prime `>= n`.
///
/// By Bertrand's postulate this terminates after scanning fewer than `n`
/// candidates; in practice prime gaps below `2^64` are tiny (< 1500).
pub fn next_prime(n: u64) -> u64 {
    let mut candidate = n.max(2);
    if candidate > 2 && candidate.is_multiple_of(2) {
        candidate += 1;
    }
    loop {
        if is_prime_u64(candidate) {
            return candidate;
        }
        candidate = if candidate == 2 { 3 } else { candidate + 2 };
    }
}

/// Finds a prime in the inclusive range `[lo, hi]`, if one exists.
///
/// Algorithm 1 (paper line 16) needs a prime in `[8 n log n, 16 n log n]`;
/// Bertrand's postulate guarantees one whenever `hi >= 2·lo − 2`.
pub fn prime_in_range(lo: u64, hi: u64) -> Option<u64> {
    if lo > hi {
        return None;
    }
    let p = next_prime(lo);
    if p <= hi {
        Some(p)
    } else {
        None
    }
}

/// Returns `⌈log₂(n)⌉` for `n ≥ 1` (and `0` for `n ∈ {0, 1}`).
#[inline]
pub fn ceil_log2(n: u64) -> u32 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros()
    }
}

/// Returns `⌊log₂(n)⌋` for `n ≥ 1`. Panics on `n = 0`.
#[inline]
pub fn floor_log2(n: u64) -> u32 {
    assert!(n > 0, "floor_log2(0) is undefined");
    63 - n.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mulmod_matches_wide_arithmetic() {
        let cases = [
            (u64::MAX, u64::MAX, u64::MAX),
            (u64::MAX - 1, u64::MAX - 2, u64::MAX - 58),
            (12345, 67890, 97),
            (0, 5, 7),
        ];
        for (a, b, m) in cases {
            let expect = ((a as u128 * b as u128) % m as u128) as u64;
            assert_eq!(mulmod(a, b, m), expect);
        }
    }

    #[test]
    fn powmod_small_cases() {
        assert_eq!(powmod(2, 10, 1_000_000_007), 1024);
        assert_eq!(powmod(3, 0, 7), 1);
        assert_eq!(powmod(10, 18, 1_000_000_007), 49);
        assert_eq!(powmod(5, 3, 1), 0);
    }

    #[test]
    fn powmod_fermat_little_theorem() {
        // a^(p-1) ≡ 1 mod p for prime p and gcd(a, p) = 1.
        for p in [7u64, 97, 1009, 1_000_003, 2_147_483_647] {
            for a in [2u64, 3, 10, 123_456] {
                assert_eq!(powmod(a % p, p - 1, p), 1, "a={a} p={p}");
            }
        }
    }

    #[test]
    fn small_primes_recognized() {
        let primes = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 97, 101, 1009];
        for p in primes {
            assert!(is_prime_u64(p), "{p} should be prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        for c in [0u64, 1, 4, 6, 8, 9, 15, 21, 25, 27, 33, 35, 49, 91, 1001] {
            assert!(!is_prime_u64(c), "{c} should be composite");
        }
    }

    #[test]
    fn strong_pseudoprimes_rejected() {
        // Classic strong pseudoprimes to small bases.
        for c in [2047u64, 1_373_653, 25_326_001, 3_215_031_751, 3_825_123_056_546_413_051] {
            assert!(!is_prime_u64(c), "{c} is a strong pseudoprime, not prime");
        }
    }

    #[test]
    fn large_known_primes() {
        assert!(is_prime_u64(2_147_483_647)); // 2^31 − 1
        assert!(is_prime_u64((1 << 61) - 1)); // 2^61 − 1
        assert!(is_prime_u64(18_446_744_073_709_551_557)); // largest u64 prime
        assert!(!is_prime_u64(u64::MAX));
    }

    #[test]
    fn primality_matches_trial_division_exhaustively() {
        let mut sieve = vec![true; 10_000];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..10_000usize {
            if sieve[i] {
                let mut j = i * i;
                while j < 10_000 {
                    sieve[j] = false;
                    j += i;
                }
            }
        }
        for n in 0..10_000u64 {
            assert_eq!(is_prime_u64(n), sieve[n as usize], "disagreement at {n}");
        }
    }

    #[test]
    fn next_prime_examples() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(3), 3);
        assert_eq!(next_prime(4), 5);
        assert_eq!(next_prime(90), 97);
        assert_eq!(next_prime(1_000_000), 1_000_003);
    }

    #[test]
    fn prime_in_range_finds_bertrand_prime() {
        // The paper's interval [8 n log n, 16 n log n] always contains a prime.
        for n in [16u64, 100, 1000, 50_000] {
            let log_n = ceil_log2(n).max(1) as u64;
            let lo = 8 * n * log_n;
            let hi = 16 * n * log_n;
            let p = prime_in_range(lo, hi).expect("Bertrand interval must contain a prime");
            assert!(p >= lo && p <= hi);
            assert!(is_prime_u64(p));
        }
    }

    #[test]
    fn prime_in_range_empty_interval() {
        assert_eq!(prime_in_range(24, 28), None); // no prime in [24, 28]
        assert_eq!(prime_in_range(10, 5), None);
    }

    #[test]
    fn log2_helpers() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(1024), 10);
        assert_eq!(floor_log2(1535), 10);
    }

    #[test]
    fn reducer_matches_hardware_remainder() {
        let moduli = [
            2u64,
            3,
            5,
            97,
            1009,
            65_536,
            (1 << 31) - 1,
            1 << 31,
            (1 << 31) + 11,
            1_000_000_007,
            (1 << 61) - 1,
            18_446_744_073_709_551_557, // largest u64 prime
            u64::MAX,
        ];
        let inputs = [
            0u64,
            1,
            2,
            96,
            97,
            98,
            65_535,
            65_536,
            (1 << 31) - 1,
            1 << 31,
            (1 << 62) + 12345,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &m in &moduli {
            let red = Reducer::new(m);
            assert_eq!(red.modulus(), m);
            for &x in &inputs {
                assert_eq!(red.rem(x), x % m, "x = {x}, m = {m}");
            }
            // Dense sweep around multiples of m to hit every correction path.
            for k in 0u64..4 {
                let base = m.saturating_mul(k);
                for d in 0..8u64 {
                    let x = base.saturating_add(d);
                    assert_eq!(red.rem(x), x % m, "x = {x}, m = {m}");
                }
            }
        }
        // Pseudorandom cross-check over many (x, m) pairs.
        let mut g = crate::prf::SplitMix64::new(0xBADC_0FFE);
        for _ in 0..20_000 {
            let m = g.next_u64().max(2);
            let x = g.next_u64();
            assert_eq!(Reducer::new(m).rem(x), x % m, "x = {x}, m = {m}");
        }
    }

    #[test]
    fn addmod_wraps() {
        assert_eq!(addmod(u64::MAX - 1, u64::MAX - 1, u64::MAX), u64::MAX - 2);
        assert_eq!(addmod(3, 4, 5), 2);
    }

    #[test]
    fn add_reduced_matches_addmod_across_the_carry() {
        let big = (1u64 << 63) + 29; // a modulus whose sums carry out of 64 bits
        for m in [2u64, 7, 101, big, u64::MAX] {
            for a in [0, 1, m / 2, m - 1] {
                for b in [0, 1, m / 2, m - 1, m] {
                    assert_eq!(add_reduced(a, b, m), addmod(a, b, m), "{a} + {b} mod {m}");
                }
            }
        }
    }
}
