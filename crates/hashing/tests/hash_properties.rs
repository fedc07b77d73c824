//! Property-based tests for the hashing substrate: algebraic laws of the
//! modular arithmetic, structural guarantees of the families, and
//! determinism of every seeded construction.

use proptest::prelude::*;
use sc_hash::{
    is_prime_u64, mulmod, next_prime, powmod, prime_in_range, AffineFamily, OracleFn,
    PolynomialFamily, SplitMix64, TwoUniversalFamily,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mulmod_is_exact(a in any::<u64>(), b in any::<u64>(), m in 1u64..) {
        let expect = ((a as u128 * b as u128) % m as u128) as u64;
        prop_assert_eq!(mulmod(a, b, m), expect);
    }

    #[test]
    fn powmod_matches_repeated_multiplication(base in 0u64..1000, exp in 0u64..64, m in 2u64..100_000) {
        let mut acc = 1u64 % m;
        for _ in 0..exp {
            acc = mulmod(acc, base % m, m);
        }
        prop_assert_eq!(powmod(base, exp, m), acc);
    }

    #[test]
    fn next_prime_is_prime_and_minimal(n in 0u64..10_000_000) {
        let p = next_prime(n);
        prop_assert!(p >= n.max(2));
        prop_assert!(is_prime_u64(p));
        // No prime strictly between n and p (spot-check small gaps).
        if p > n {
            for q in n..p {
                prop_assert!(!is_prime_u64(q));
            }
        }
    }

    #[test]
    fn bertrand_interval_never_empty(n in 2u64..100_000, l in 1u64..32) {
        prop_assert!(prime_in_range(8 * n * l, 16 * n * l).is_some());
    }

    #[test]
    fn affine_hash_stays_in_range(a in 0u64..97, b in 0u64..97, z in any::<u64>()) {
        let fam = AffineFamily::new(97);
        let h = fam.member(a, b);
        prop_assert!(h.eval(z) < 97);
    }

    #[test]
    fn two_universal_member_index_roundtrip(idx in 0u128..(31 * 30)) {
        let fam = TwoUniversalFamily::with_modulus(31, 5);
        let h = fam.member(idx);
        prop_assert!(h.a >= 1 && h.a < 31);
        prop_assert!(h.b < 31);
        // Lexicographic enumeration: recompute index.
        let back = (h.a as u128 - 1) * 31 + h.b as u128;
        prop_assert_eq!(back, idx);
    }

    #[test]
    fn polynomial_sampling_is_seed_deterministic(seed in any::<u64>()) {
        let fam = PolynomialFamily::for_domain(1 << 16, 256, 4);
        let h1 = fam.sample(&mut SplitMix64::new(seed));
        let h2 = fam.sample(&mut SplitMix64::new(seed));
        prop_assert_eq!(h1, h2);
    }

    #[test]
    fn oracle_fn_consistent_and_ranged(seed in any::<u64>(), id in any::<u64>(), x in any::<u64>(), r in 1u64..1_000_000) {
        let f = OracleFn::new(seed, id, r);
        prop_assert!(f.eval(x) < r);
        prop_assert_eq!(f.eval(x), f.eval(x));
    }

    #[test]
    fn splitmix_fork_independence(seed in any::<u64>(), t1 in any::<u64>(), t2 in any::<u64>()) {
        prop_assume!(t1 != t2);
        let parent = SplitMix64::new(seed);
        let mut a = parent.fork(t1);
        let mut b = parent.fork(t2);
        // Different tweaks should not produce identical first draws.
        prop_assert_ne!(a.next_u64(), b.next_u64());
    }
}

// ---- Batched evaluation tiers ----
//
// The batch/table tiers are pure accelerations: every law below pins them
// bit-for-bit to the scalar reference path, including the boundary values
// the vectorized loops are most likely to mishandle (range 1, domain
// endpoints, moduli past the u64 dot-product guard).

use sc_hash::{PolynomialHash, Reducer, VertexSlotTable};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reducer_rem_matches_hardware(x in any::<u64>(), m in 2u64..) {
        prop_assert_eq!(Reducer::new(m).rem(x), x % m);
    }

    #[test]
    fn oracle_presplit_factorization_matches_scalar(
        seed in any::<u64>(),
        id in any::<u64>(),
        r in 1u64..1_000_000,
        mut xs in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        // The fused batch tier rests on this law: the inner mixing round
        // is key-independent, so `eval = eval_presplit ∘ presplit` holds
        // bit-for-bit for every oracle — including the domain endpoints.
        xs.extend([0, 1, u64::MAX]);
        let f = OracleFn::new(seed, id, r);
        for &x in &xs {
            prop_assert_eq!(f.eval_presplit(OracleFn::presplit(x)), f.eval(x));
        }
    }

    #[test]
    fn polynomial_eval_batch_matches_scalar(
        seed in any::<u64>(),
        domain_log in 4u32..34,
        range in 1u64..100_000,
        degree in 2usize..6,
        mut xs in proptest::collection::vec(any::<u32>(), 0..100),
    ) {
        // domain_log ≥ 31 pushes p past the dot-product guard for the
        // higher degrees, covering the scalar-fallback arm too.
        xs.extend([0, 1, u32::MAX]);
        let fam = PolynomialFamily::for_domain(1u64 << domain_log, range, degree);
        let h = fam.sample(&mut SplitMix64::new(seed));
        let mut out = vec![0u64; xs.len()];
        h.eval_batch(&xs, &mut out);
        for (&x, &o) in xs.iter().zip(&out) {
            prop_assert_eq!(o, h.eval(x as u64));
        }
    }

    #[test]
    fn slot_table_matches_scalar_and_finds_all_collisions(
        seed in any::<u64>(),
        n in 2usize..80,
        slots in 1usize..12,
        range in 1u64..4096,
        from_raw in 0usize..12,
    ) {
        let fam = PolynomialFamily::for_domain(n as u64, range, 4);
        let mut rng = SplitMix64::new(seed);
        let hashes: Vec<_> = (0..slots).map(|_| fam.sample(&mut rng)).collect();
        let table = VertexSlotTable::build(&hashes, n)
            .expect("small same-field configuration must tabulate");
        for v in 0..n as u32 {
            for (s, h) in hashes.iter().enumerate() {
                prop_assert_eq!(table.value(v, s), h.eval(v as u64));
            }
        }
        // equal_slots reports exactly the colliding slot suffix.
        let from = from_raw % slots;
        let (u, v) = (0u32, (n - 1) as u32);
        let mut reported = Vec::new();
        table.equal_slots(u, v, from, |s| reported.push(s));
        let expect: Vec<usize> = (from..slots)
            .filter(|&s| hashes[s].eval(u as u64) == hashes[s].eval(v as u64))
            .collect();
        prop_assert_eq!(reported, expect);
    }

    #[test]
    fn slot_table_difference_fill_matches_horner(
        seed in any::<u64>(),
        range_raw in any::<u64>(),
        n in 1usize..200,
        slots in 1usize..10,
        max_k in 1usize..6,
    ) {
        // Small primes put most vertices past the modulus; 2^31 − 1 is the
        // largest modulus the difference arm takes, and the prime above
        // 2^31 forces the Horner arm, as does any hash with 5
        // coefficients (drawn only when max_k = 5).
        let primes = [2, 3, 5, 7, 31, 97, 1009, 65_537, (1 << 31) - 1, next_prime(1 << 31)];
        let mut rng = SplitMix64::new(seed);
        for p in primes {
            let max_range = p.min(1 << 16);
            let pow2 = 1 << (range_raw % (max_range.ilog2() as u64 + 1));
            let other = 1 + range_raw % max_range;
            for s in [1, pow2, other] {
                let hashes: Vec<PolynomialHash> = (0..slots)
                    .map(|_| {
                        let k = 1 + rng.below(max_k as u64) as usize;
                        let coefficients = (0..k).map(|_| rng.below(p)).collect();
                        PolynomialHash { coefficients, p, s }
                    })
                    .collect();
                let table = VertexSlotTable::build(&hashes, n).expect("in the table envelope");
                for v in 0..n as u32 {
                    for (slot, h) in hashes.iter().enumerate() {
                        prop_assert_eq!(
                            table.value(v, slot),
                            h.eval(v as u64),
                            "v={} slot={} p={} s={}",
                            v,
                            slot,
                            p,
                            s
                        );
                    }
                }
            }
        }
    }
}
