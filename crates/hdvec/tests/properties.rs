//! Property-based tests for the HDC algebra.

use hdvec::{bundle, Accumulator, BitSliceAccumulator, Hypervector, ItemMemory, TieBreak};
use proptest::prelude::*;

/// Strategy: a dimension that exercises word boundaries.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), 2usize..130, Just(256usize), Just(1000usize)]
}

/// Strategy: (dim, seed) pair for generating random vectors.
fn dim_and_seed() -> impl Strategy<Value = (usize, u64)> {
    (dims(), any::<u64>())
}

fn vector(dim: usize, seed: u64, index: u64) -> Hypervector {
    ItemMemory::new(dim, seed)
        .expect("non-zero dimension")
        .hypervector(index)
}

proptest! {
    #[test]
    fn bind_is_commutative((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        prop_assert_eq!(a.bind(&b), b.bind(&a));
    }

    #[test]
    fn bind_is_associative((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        let c = vector(dim, seed, 2);
        prop_assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
    }

    #[test]
    fn bind_is_self_inverse((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        prop_assert_eq!(a.bind(&b).bind(&b), a);
    }

    #[test]
    fn bind_preserves_hamming_distance((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        let c = vector(dim, seed, 2);
        prop_assert_eq!(a.bind(&c).hamming(&b.bind(&c)), a.hamming(&b));
    }

    #[test]
    fn permute_is_invertible((dim, seed) in dim_and_seed(), shift in 0usize..4096) {
        let a = vector(dim, seed, 0);
        let s = shift % dim;
        let inverse = (dim - s) % dim;
        prop_assert_eq!(a.permute(s).permute(inverse), a);
    }

    #[test]
    fn permute_preserves_negative_count((dim, seed) in dim_and_seed(), shift in 0usize..4096) {
        let a = vector(dim, seed, 0);
        prop_assert_eq!(a.permute(shift).count_negative(), a.count_negative());
    }

    #[test]
    fn cosine_is_symmetric_and_bounded((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        let ab = a.cosine(&b);
        prop_assert_eq!(ab, b.cosine(&a));
        prop_assert!((-1.0..=1.0).contains(&ab));
        prop_assert_eq!(a.cosine(&a), 1.0);
    }

    #[test]
    fn dot_equals_dim_minus_twice_hamming((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        prop_assert_eq!(a.dot(&b), dim as i64 - 2 * a.hamming(&b) as i64);
    }

    #[test]
    fn components_roundtrip((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let back = Hypervector::from_components(&a.to_components()).expect("valid components");
        prop_assert_eq!(back, a);
    }

    #[test]
    fn negation_flips_all((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        prop_assert_eq!(a.negated().count_negative(), dim - a.count_negative());
        prop_assert_eq!(a.negated().negated(), a);
    }

    #[test]
    fn bundle_of_odd_copies_is_identity((dim, seed) in dim_and_seed(), copies in 1usize..6) {
        let a = vector(dim, seed, 0);
        let odd = 2 * copies - 1;
        let refs: Vec<&Hypervector> = (0..odd).map(|_| &a).collect();
        prop_assert_eq!(bundle(refs, TieBreak::default()).expect("non-empty"), a);
    }

    #[test]
    fn accumulator_order_does_not_matter((dim, seed) in dim_and_seed()) {
        let vs: Vec<Hypervector> = (0..5).map(|i| vector(dim, seed, i)).collect();
        let mut forward = Accumulator::new(dim).expect("non-zero dimension");
        let mut backward = Accumulator::new(dim).expect("non-zero dimension");
        for v in &vs {
            forward.add(v);
        }
        for v in vs.iter().rev() {
            backward.add(v);
        }
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn accumulator_counts_stay_bounded((dim, seed) in dim_and_seed(), n in 1usize..10) {
        let mut acc = Accumulator::new(dim).expect("non-zero dimension");
        for i in 0..n {
            acc.add(&vector(dim, seed, i as u64));
        }
        // Each vote changes a counter by exactly ±1.
        prop_assert!(acc.counts().iter().all(|&c| c.unsigned_abs() as usize <= n));
        // Parity: counter parity matches vote-count parity.
        prop_assert!(acc
            .counts()
            .iter()
            .all(|&c| (c.unsigned_abs() as usize) % 2 == n % 2));
    }

    #[test]
    fn bitslice_threshold_equals_reference_threshold(
        (dim, seed) in dim_and_seed(),
        weights in prop::collection::vec(1u32..10, 0..40),
        tie_seed in any::<u64>(),
    ) {
        // The bit-sliced bundle, thresholded straight from its planes,
        // must equal the i32-counter reference for any bundle size and
        // weights, including the plane-growth boundaries and every tie
        // policy.
        let mut fast = BitSliceAccumulator::new(dim).expect("non-zero dimension");
        let mut reference = Accumulator::new(dim).expect("non-zero dimension");
        for (i, &weight) in weights.iter().enumerate() {
            let v = vector(dim, seed, i as u64);
            fast.add_weighted(&v, weight);
            reference.add_weighted(&v, weight as i32);
        }
        prop_assert_eq!(fast.added(), reference.added());
        for tie in [TieBreak::Positive, TieBreak::Negative, TieBreak::Seeded(tie_seed)] {
            prop_assert_eq!(fast.to_hypervector(tie), reference.to_hypervector(tie));
        }
    }

    #[test]
    fn noise_flips_at_most_everything((dim, seed) in dim_and_seed(), rate in 0.0f64..=1.0) {
        let a = vector(dim, seed, 0);
        let mut rng = prng::Xoshiro256PlusPlus::seed_from_u64(seed ^ 0xABCD);
        let noisy = a.with_noise(rate, &mut rng);
        prop_assert!(a.hamming(&noisy) <= dim);
    }
}

/// The bit-slice comparator against naive i32 bundling over a fixed
/// grid: word-boundary dimensions up to the paper's d, every bundle size
/// 0..40 (even and odd, across the plane-growth boundaries), every
/// uniform weight 1..9 plus a mixed-weight sequence, and random,
/// all-positive and all-negative inputs, under all three tie policies.
#[test]
fn bitslice_threshold_matches_naive_bundling_on_a_fixed_grid() {
    for dim in [1usize, 63, 64, 65, 130, 10_000] {
        let memory = ItemMemory::new(dim, 0xB175).expect("non-zero dimension");
        let positive = Hypervector::positive(dim).expect("non-zero dimension");
        let negative = Hypervector::negative(dim).expect("non-zero dimension");
        for source in ["random", "all-positive", "all-negative"] {
            // Weighting 0 is the mixed sequence; 1..=9 are uniform.
            for weighting in 0..=9u32 {
                let mut fast = BitSliceAccumulator::new(dim).expect("non-zero dimension");
                let mut reference = Accumulator::new(dim).expect("non-zero dimension");
                for size in 0..=40u64 {
                    for tie in [
                        TieBreak::Positive,
                        TieBreak::Negative,
                        TieBreak::Seeded(0x71E),
                    ] {
                        assert_eq!(
                            fast.to_hypervector(tie),
                            reference.to_hypervector(tie),
                            "dim {dim}, {source}, weighting {weighting}, {size} vectors, {tie:?}"
                        );
                    }
                    let hv = match source {
                        "random" => memory.hypervector(size),
                        "all-positive" => positive.clone(),
                        _ => negative.clone(),
                    };
                    let weight = match weighting {
                        0 => 1 + (size as u32 * 7) % 9,
                        w => w,
                    };
                    fast.add_weighted(&hv, weight);
                    reference.add_weighted(&hv, weight as i32);
                }
            }
        }
    }
}
