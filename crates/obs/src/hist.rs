//! Fixed log-bucket latency histograms with mergeable snapshots.
//!
//! ## Bucket layout
//!
//! Values (typically microseconds) map to one of [`NUM_BUCKETS`] fixed
//! buckets: values below 4 get exact unit buckets, and every power of
//! two above that is split into 4 sub-buckets keyed by the two bits
//! under the most significant bit. Bucket width therefore grows
//! geometrically with ≤ 25 % relative error — enough for p50/p99
//! reporting across nine orders of magnitude — while the layout stays
//! *fixed*: two histograms always share bucket boundaries, so merging
//! is element-wise addition (associative and commutative by
//! construction) with no rebinning.
//!
//! ## Recording
//!
//! `record` is two relaxed `fetch_add`s (bucket + sum) on one of
//! [`RECORD_SHARDS`] per-thread-striped bucket arrays — no locks, no
//! CAS loops, and threads that stay on their stripe never contend.
//! `snapshot` folds the stripes with the same merge a reader uses to
//! add two snapshots, which is what the proptests pin down: shard-merge
//! must equal single-recorder.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Sub-bucket bits per power of two.
const SUB_BITS: u32 = 2;
/// Sub-buckets per power of two (4).
const SUB: usize = 1 << SUB_BITS;
/// Total buckets. Index 251 is the last reachable bucket
/// (`bucket_of(u64::MAX)`); the spare tail keeps the arithmetic simple.
pub const NUM_BUCKETS: usize = 256;
/// Recording stripes. Threads hash onto a stripe at first use; eight
/// stripes de-contend the common server shapes (worker pool + flushers)
/// without bloating snapshots.
const RECORD_SHARDS: usize = 8;

/// The bucket index for `v`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let o = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = ((v >> (o - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    (o - SUB_BITS + 1) as usize * SUB + sub
}

/// The inclusive lower bound of bucket `i` (the inverse of
/// [`bucket_of`]: `bucket_of(bucket_low(i)) == i` for reachable `i`).
#[inline]
pub fn bucket_low(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let g = (i / SUB) as u32; // the bucket's octave minus one
    let sub = (i % SUB) as u64;
    (SUB as u64 + sub) << (g - 1)
}

/// The last reachable bucket index (`bucket_of(u64::MAX)`).
const TOP_BUCKET: usize = (63 - SUB_BITS as usize + 1) * SUB + (SUB - 1);

/// The exclusive upper bound of bucket `i` (saturating for the top
/// bucket, whose `bucket_low(i + 1)` would overflow u64).
#[inline]
fn bucket_high(i: usize) -> u64 {
    if i >= TOP_BUCKET {
        u64::MAX
    } else {
        bucket_low(i + 1)
    }
}

/// One recording stripe: a full bucket array plus the running sum.
struct Stripe {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Which stripe this thread records on. Assigned round-robin at first
/// use so pool workers spread out even when thread ids cluster.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % RECORD_SHARDS;
    }
    IDX.with(|i| *i)
}

/// A lock-free log-bucket histogram. See the module docs for the
/// layout; construction is [`Registry::histogram`](crate::Registry) in
/// normal use.
pub struct Histogram {
    stripes: Box<[Stripe]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Histogram {
            stripes: (0..RECORD_SHARDS).map(|_| Stripe::new()).collect(),
        }
    }

    /// Records one sample. Two relaxed `fetch_add`s when sampling is
    /// enabled; a load + branch when it is not (see
    /// [`set_enabled`](crate::set_enabled)).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let s = &self.stripes[stripe_index()];
        s.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in microseconds — the unit every latency
    /// histogram in the system uses.
    #[inline]
    pub fn record_micros(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Folds the stripes into one mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for s in self.stripes.iter() {
            for (i, b) in s.buckets.iter().enumerate() {
                out.buckets[i] += b.load(Ordering::Relaxed);
            }
            // Wrapping, like the atomic adds that feed it: a sum that
            // laps u64 misreports the mean but must never panic.
            out.sum = out.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
        }
        out
    }
}

/// A point-in-time view of a [`Histogram`]: the full fixed bucket array
/// plus the sample sum. Merging is element-wise addition, so any
/// grouping of recorders (stripes, nodes, seconds) folds to the same
/// totals in any order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sum of every recorded sample.
    pub sum: u64,
    /// Per-bucket sample counts (`NUM_BUCKETS` entries; see
    /// [`bucket_low`] for boundaries).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            sum: 0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Adds `other` into `self` element-wise (sums wrap, matching the
    /// recorder's atomic adds).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.sum = self.sum.wrapping_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) as the midpoint of
    /// the bucket holding that rank — exact for values below 4, within
    /// the ≤ 25 % bucket width above. Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let low = bucket_low(i);
                return low + (bucket_high(i) - low) / 2;
            }
        }
        bucket_low(NUM_BUCKETS - 1)
    }

    /// The non-empty buckets as `(index, count)` pairs — the wire form.
    pub fn sparse(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// Rebuilds a snapshot from its wire form. Out-of-range indices are
    /// ignored (a newer peer with a larger layout, not an error).
    pub fn from_sparse(sum: u64, pairs: &[(u32, u64)]) -> Self {
        let mut out = HistogramSnapshot {
            sum,
            ..Default::default()
        };
        for &(i, c) in pairs {
            if let Some(b) = out.buckets.get_mut(i as usize) {
                *b += c;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_and_low_agree() {
        // Every reachable bucket's lower bound maps back to it.
        for i in 0..=TOP_BUCKET {
            assert_eq!(bucket_of(bucket_low(i)), i, "bucket {i}");
        }
        // Exhaustive small range plus boundaries: monotone, total.
        let mut prev = 0;
        for v in 0..4096u64 {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of must be monotone at {v}");
            assert!(bucket_low(b) <= v && v < bucket_high(b), "v={v} b={b}");
            prev = b;
        }
        assert_eq!(bucket_of(u64::MAX), TOP_BUCKET);
        const { assert!(TOP_BUCKET < NUM_BUCKETS) };
    }

    #[test]
    fn quantiles_track_known_distributions() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum, 500_500);
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        // Bucket width at ~500 is 128, at ~990 is 256: generous bounds.
        assert!((350..=700).contains(&p50), "p50={p50}");
        assert!((800..=1400).contains(&p99), "p99={p99}");
        assert!(s.quantile(0.0) >= 1);
        assert!(s.quantile(1.0) >= p99);
    }

    #[test]
    fn sparse_round_trips() {
        let h = Histogram::new();
        for v in [0, 1, 7, 100, 5000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(HistogramSnapshot::from_sparse(s.sum, &s.sparse()), s);
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0);
    }
}
