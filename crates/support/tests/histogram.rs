//! Property tests for the log2-bucketed [`Histogram`]: merge forms a
//! commutative monoid, bucket indices are monotone in the sample value,
//! record_n matches repeated record, and the whole suite replays
//! deterministically from its seed.

use levioso_support::histogram::BUCKETS;
use levioso_support::{Gen, Histogram, Rng};

fn arb_histogram(g: &mut Gen) -> Histogram {
    let mut h = Histogram::new();
    for _ in 0..g.usize_in(0..16) {
        // Bias toward small values but cover the full bucket range.
        let v = match g.usize_in(0..3) {
            0 => g.u64_in(0..8),
            1 => g.u64_in(0..1 << 20),
            _ => g.u64_any(),
        };
        h.record_n(v, g.u64_in(1..4));
    }
    h
}

levioso_support::props! {
    cases = 128;

    /// Merge is associative and commutative with `new()` as identity.
    fn merge_is_a_commutative_monoid(g) {
        let (a, b, c) = (arb_histogram(g), arb_histogram(g), arb_histogram(g));
        g.note("a.count", &a.count());
        g.note("b.count", &b.count());
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "merge must be commutative");
        let mut id = a.clone();
        id.merge(&Histogram::new());
        assert_eq!(id, a, "empty histogram must be the merge identity");
    }

    /// Bucket index is monotone non-decreasing in the sample value, and
    /// every value lands inside its bucket's [lo, hi] range.
    fn bucket_index_is_monotone_and_self_consistent(g) {
        let x = g.u64_any();
        let y = g.u64_any();
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        g.note("lo", &lo);
        g.note("hi", &hi);
        let (bl, bh) = (Histogram::bucket_index(lo), Histogram::bucket_index(hi));
        assert!(bl <= bh, "bucket index must be monotone: {bl} > {bh}");
        assert!(bl < BUCKETS && bh < BUCKETS);
        assert!((Histogram::bucket_lo(bl)..=Histogram::bucket_hi(bl)).contains(&lo));
        assert!((Histogram::bucket_lo(bh)..=Histogram::bucket_hi(bh)).contains(&hi));
    }

    /// `record_n(v, n)` is exactly `n` single records, and merging a
    /// histogram built from any split of a sample list equals recording
    /// the whole list into one histogram.
    fn record_n_and_merge_agree_with_singletons(g) {
        let samples: Vec<(u64, u64)> =
            (0..g.usize_in(0..12)).map(|_| (g.u64_in(0..1 << 30), g.u64_in(1..5))).collect();
        g.note("samples", &format!("{samples:?}"));
        let mut whole = Histogram::new();
        let mut merged = Histogram::new();
        for &(v, n) in &samples {
            whole.record_n(v, n);
            let mut part = Histogram::new();
            for _ in 0..n {
                part.record(v);
            }
            merged.merge(&part);
        }
        assert_eq!(whole, merged);
        assert_eq!(whole.count(), samples.iter().map(|&(_, n)| n).sum::<u64>());
    }
}

/// Edge-sample audit (zero-delay blame entries are common, and `u64::MAX`
/// is the saturating extreme): pins the *intended* bucket assignment at the
/// boundaries. In particular 0 and 1 land in different buckets — bucket 0
/// is exactly `{0}`, bucket 1 is exactly `{1}` — so zero-delay entries are
/// never conflated with one-cycle delays.
#[test]
fn bucket_assignment_at_the_edges() {
    // 0 and 1 must not share a bucket.
    assert_eq!(Histogram::bucket_index(0), 0);
    assert_eq!(Histogram::bucket_index(1), 1);
    // Each power of two opens a new bucket; its predecessor closes one.
    for k in 1..64 {
        let p = 1u64 << k;
        assert_eq!(Histogram::bucket_index(p), k + 1, "2^{k} opens bucket {}", k + 1);
        assert_eq!(Histogram::bucket_index(p - 1), k, "2^{k}-1 closes bucket {k}");
    }
    // The extremes land inside the table (no out-of-range panic).
    assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
    assert_eq!(BUCKETS, 65, "0, then one bucket per bit width");
    // Bucket bounds are self-consistent at the edges.
    assert_eq!((Histogram::bucket_lo(0), Histogram::bucket_hi(0)), (0, 0));
    assert_eq!((Histogram::bucket_lo(1), Histogram::bucket_hi(1)), (1, 1));
    assert_eq!(Histogram::bucket_hi(BUCKETS - 1), u64::MAX);
}

/// Recording the edge samples must keep every summary statistic finite and
/// exact: count, sum, max, quantile bounds, and merge all behave at 0 and
/// `u64::MAX`.
#[test]
fn edge_samples_survive_summaries_and_merge() {
    let mut h = Histogram::new();
    h.record(0);
    h.record(0);
    h.record(u64::MAX);
    assert_eq!(h.count(), 3);
    assert_eq!(h.max(), u64::MAX);
    // Sum saturates rather than wrapping (two zeros contribute nothing).
    assert_eq!(h.sum(), u64::MAX);
    // Quantiles: the lower half is exactly the zero bucket, the top lands
    // in the u64::MAX bucket whose upper bound is u64::MAX itself.
    assert_eq!(h.quantile_hi(0.5), 0);
    assert_eq!(h.quantile_hi(1.0), u64::MAX);
    // Merge with an all-zeros histogram preserves the edge buckets.
    let mut zeros = Histogram::new();
    zeros.record_n(0, 5);
    let mut merged = zeros.clone();
    merged.merge(&h);
    assert_eq!(merged.count(), 8);
    assert_eq!(merged.max(), u64::MAX);
    assert_eq!(merged.quantile_hi(0.5), 0);
}

/// The property generators above are seed-deterministic: replaying the
/// same seed reproduces the same histogram bit-for-bit (the contract the
/// failing-input reports rely on).
#[test]
fn generators_replay_from_their_seed() {
    for seed in [0u64, 1, 0xdead_beef] {
        let mut g1 = Gen::from_seed(seed);
        let mut g2 = Gen::from_seed(seed);
        assert_eq!(arb_histogram(&mut g1), arb_histogram(&mut g2), "seed {seed}");
    }
}
