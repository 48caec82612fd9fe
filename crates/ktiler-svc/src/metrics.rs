//! Atomic service metrics: counters and latency histograms.
//!
//! Everything here is lock-free (`AtomicU64` with relaxed ordering —
//! counters are monotone and read only for reporting) so the hot request
//! path never serializes on the metrics registry. The registry renders to
//! JSON for the `STATS` request and the shutdown dump.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two microsecond buckets in a histogram: bucket `i`
/// counts samples in `[2^i, 2^(i+1))` µs (bucket 0 also catches sub-µs
/// samples), so the top bucket starts at `2^30` µs ≈ 18 minutes.
const BUCKETS: usize = 31;

/// A lock-free latency histogram over power-of-two microsecond buckets.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound (exclusive, in µs) of the bucket containing the `q`
    /// quantile, or 0 with no samples. Quantiles are bucket-resolution
    /// approximations — fine for a service dashboard, not for benchmarks
    /// (the bench bins keep exact per-request latencies and sort).
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }

    /// Renders the histogram summary as a JSON object.
    pub fn to_json(&self) -> String {
        let count = self.count();
        let sum = self.sum_us.load(Ordering::Relaxed);
        let mean = if count == 0 { 0.0 } else { sum as f64 / count as f64 };
        format!(
            "{{\"count\": {count}, \"mean_us\": {mean:.1}, \"p50_us\": {}, \"p99_us\": {}, \
             \"p999_us\": {}, \"max_us\": {}}}",
            self.quantile_us(0.50),
            self.quantile_us(0.99),
            self.quantile_us(0.999),
            self.max_us.load(Ordering::Relaxed)
        )
    }
}

/// The service's metrics registry.
///
/// Counter semantics (all monotone):
///
/// * `requests` — schedule requests accepted into the queue.
/// * `cache_hits` — requests answered from a verified on-disk artifact.
/// * `cache_misses` — requests that found no artifact and computed one.
/// * `verify_failures` — artifacts that failed parse or verification on
///   load and were transparently recomputed (each also counts the request
///   toward `cache_misses`' recompute path, reported as `RECOMPUTE`).
/// * `sheds` — requests rejected because the queue was full.
/// * `deadline_expired` — requests dropped because their deadline passed
///   before a worker picked them up.
/// * `coalesced` — requests attached to an identical in-flight request
///   (single-flight followers; they never ran the pipeline).
/// * `pipeline_runs` — actual tiling computations (Algorithm 1 + 2).
/// * `analysis_runs` — analyze + calibrate passes (misses of the
///   in-memory workload memo).
/// * `store_failures` — artifacts that could not be persisted (the
///   response is still served; only the cache write is lost).
/// * `errors` — requests that failed with a pipeline or bad-request error.
/// * `worker_panics` — panics caught by a worker while running a request;
///   each one produced a structured response (degraded or
///   `SvcError::Internal`), never a hung client.
/// * `workers_respawned` — crashed worker threads replaced by the
///   supervisor, so the pool never shrinks.
/// * `degraded_total` — requests answered with a verified **untiled**
///   schedule (`Outcome::DegradedUntiled`) because the cache-aware
///   pipeline failed.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Schedule requests accepted into the queue.
    pub requests: AtomicU64,
    /// Requests answered from a verified on-disk artifact.
    pub cache_hits: AtomicU64,
    /// Requests that found no artifact and computed one.
    pub cache_misses: AtomicU64,
    /// Artifacts failing parse/verify on load, recomputed.
    pub verify_failures: AtomicU64,
    /// Requests rejected because the queue was full.
    pub sheds: AtomicU64,
    /// Requests whose deadline passed while queued.
    pub deadline_expired: AtomicU64,
    /// Single-flight followers served by a leader's run.
    pub coalesced: AtomicU64,
    /// Actual tiling computations.
    pub pipeline_runs: AtomicU64,
    /// Analyze + calibrate passes (workload-memo misses).
    pub analysis_runs: AtomicU64,
    /// Artifact persists that failed (response still served).
    pub store_failures: AtomicU64,
    /// Requests that failed with an error.
    pub errors: AtomicU64,
    /// Panics caught by workers while running a request.
    pub worker_panics: AtomicU64,
    /// Crashed workers replaced by the supervisor.
    pub workers_respawned: AtomicU64,
    /// Requests served a verified untiled schedule after a pipeline
    /// failure.
    pub degraded_total: AtomicU64,
    /// Local cache misses filled from a peer node's cache (the artifact
    /// was fetched, re-verified locally, stored and served).
    pub peer_fills: AtomicU64,
    /// Peer fetch attempts that did not produce a usable artifact
    /// (transport failure, key not held, parse or verification failure) —
    /// each one fell through to a local recompute, never an error.
    pub peer_fetch_failures: AtomicU64,
    /// `FETCH` requests this node answered from its cache for a peer.
    pub fetches_served: AtomicU64,
    /// Stores skipped because the cache volume was out of space — the
    /// response was still served from the computed schedule; only the
    /// persist was bypassed (cache-bypass degradation, never an error).
    pub store_skipped: AtomicU64,
    /// Quarantine renames that themselves failed — the bad artifact is
    /// still on disk under its live name and will be retried or replaced
    /// by the recompute's store.
    pub quarantine_failures: AtomicU64,
    /// Artifacts evicted by the size-budget sweeper (LRU by mtime).
    pub cache_evictions: AtomicU64,
    /// Torn temporary files removed during cache open (uncommitted
    /// writes left by a crash mid-store).
    pub tmp_recovered: AtomicU64,
    /// `DIGEST` requests this node answered for a peer.
    pub digests_served: AtomicU64,
    /// Anti-entropy rounds completed (periodic or `SYNC`-triggered).
    pub sync_rounds: AtomicU64,
    /// Artifacts pulled from peers by anti-entropy and stored locally.
    pub sync_pulls: AtomicU64,
    /// Anti-entropy pull attempts that produced no stored artifact
    /// (transport failure, key vanished, parse failure, store failure).
    pub sync_pull_failures: AtomicU64,
    /// Latency of the block-analysis pass alone (`kgraph::analyze_fast`),
    /// recorded once per memo-miss recompute.
    pub analyze_latency: LatencyHistogram,
    /// Latency of the tiling computation.
    pub tile_latency: LatencyHistogram,
    /// Latency of artifact load + verify.
    pub cache_load_latency: LatencyHistogram,
    /// End-to-end pipeline latency (leader's view, excluding queueing).
    pub total_latency: LatencyHistogram,
}

/// Increments a counter by one (relaxed).
pub fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

impl Metrics {
    /// Current value of a counter.
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// Renders the full registry as a JSON object.
    pub fn to_json(&self) -> String {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            "{{\n  \"requests\": {},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
             \"verify_failures\": {},\n  \"sheds\": {},\n  \"deadline_expired\": {},\n  \
             \"coalesced\": {},\n  \"pipeline_runs\": {},\n  \"analysis_runs\": {},\n  \
             \"store_failures\": {},\n  \"errors\": {},\n  \"worker_panics\": {},\n  \
             \"workers_respawned\": {},\n  \"degraded_total\": {},\n  \"peer_fills\": {},\n  \
             \"peer_fetch_failures\": {},\n  \"fetches_served\": {},\n  \
             \"store_skipped\": {},\n  \
             \"quarantine_failures\": {},\n  \"cache_evictions\": {},\n  \
             \"tmp_recovered\": {},\n  \"digests_served\": {},\n  \
             \"sync_rounds\": {},\n  \"sync_pulls\": {},\n  \
             \"sync_pull_failures\": {},\n  \"latency_us\": {{\n    \
             \"analyze\": {},\n    \"tile\": {},\n    \"cache_load\": {},\n    \"total\": {}\n  \
             }}\n}}",
            c(&self.requests),
            c(&self.cache_hits),
            c(&self.cache_misses),
            c(&self.verify_failures),
            c(&self.sheds),
            c(&self.deadline_expired),
            c(&self.coalesced),
            c(&self.pipeline_runs),
            c(&self.analysis_runs),
            c(&self.store_failures),
            c(&self.errors),
            c(&self.worker_panics),
            c(&self.workers_respawned),
            c(&self.degraded_total),
            c(&self.peer_fills),
            c(&self.peer_fetch_failures),
            c(&self.fetches_served),
            c(&self.store_skipped),
            c(&self.quarantine_failures),
            c(&self.cache_evictions),
            c(&self.tmp_recovered),
            c(&self.digests_served),
            c(&self.sync_rounds),
            c(&self.sync_pulls),
            c(&self.sync_pull_failures),
            self.analyze_latency.to_json(),
            self.tile_latency.to_json(),
            self.cache_load_latency.to_json(),
            self.total_latency.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        for us in [1u64, 3, 100, 1000, 1000, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        // p50 falls in the 1000 µs bucket's range? rank 3 → the 100 µs
        // sample's bucket [64,128) → upper bound 128.
        assert_eq!(h.quantile_us(0.5), 128);
        assert_eq!(h.quantile_us(0.99), 1 << 10);
        let json = h.to_json();
        assert!(json.contains("\"count\": 6"), "{json}");
        assert!(json.contains("\"max_us\": 1000"), "{json}");
        assert!(json.contains("\"p999_us\""), "{json}");
        // With 6 samples, p99 and p999 both resolve to the last sample's
        // bucket.
        assert_eq!(h.quantile_us(0.999), 1 << 10);
    }

    #[test]
    fn sub_microsecond_samples_land_in_bucket_zero() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(5));
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(1.0), 2);
    }

    #[test]
    fn registry_renders_every_counter() {
        let m = Metrics::default();
        bump(&m.requests);
        bump(&m.cache_hits);
        m.total_latency.record(Duration::from_millis(2));
        let json = m.to_json();
        for field in [
            "requests",
            "cache_hits",
            "cache_misses",
            "verify_failures",
            "sheds",
            "deadline_expired",
            "coalesced",
            "pipeline_runs",
            "analysis_runs",
            "store_failures",
            "errors",
            "worker_panics",
            "workers_respawned",
            "degraded_total",
            "peer_fills",
            "peer_fetch_failures",
            "fetches_served",
            "store_skipped",
            "quarantine_failures",
            "cache_evictions",
            "tmp_recovered",
            "digests_served",
            "sync_rounds",
            "sync_pulls",
            "sync_pull_failures",
            "latency_us",
        ] {
            assert!(json.contains(&format!("\"{field}\"")), "{field} missing from {json}");
        }
        assert!(json.contains("\"requests\": 1"), "{json}");
    }
}
