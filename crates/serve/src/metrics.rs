//! Service-level metrics: request counters, a latency histogram, and a
//! process-wide fold of every served run's [`TraceSummary`].
//!
//! Counters are plain relaxed atomics — `/metrics` is a monitoring
//! endpoint, not a ledger, and torn cross-counter reads are acceptable.
//! Cache counters are not kept here: each cache (the body cache, the
//! fleet cell cache, the catalog's trace and plan caches) counts its own hits,
//! misses, joins and evictions, and `render` reads those.
//! Latency lands in a log2-microsecond [`Histogram`] (the same type the
//! trace summaries and fleet reports use), from which p50/p99 are
//! estimated as bucket upper bounds (an overestimate of at most 2×,
//! which is the honest resolution of a log2 histogram).
//!
//! Every simulation the service executes runs under a per-run
//! `CounterSink`; the resulting [`TraceSummary`] is folded here under a
//! mutex with `merge_weighted(…, 1)` so `/metrics` can report
//! simulator-level totals (events, runs, energy ledger) alongside
//! HTTP-level ones. The fold keeps no per-run rows, so it stays the same
//! size however many runs the process serves.

use nvp_exec::CacheStats;
use nvp_trace::{EventKind, Histogram, TraceSummary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// All counters the service exports on `/metrics`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections the accept loop took, including those it refused
    /// with 503 at the connection cap.
    pub connections: AtomicU64,
    /// Total HTTP requests accepted for parsing.
    pub requests: AtomicU64,
    /// Responses by coarse class.
    pub ok: AtomicU64,
    /// 400s: malformed JSON or invalid fields.
    pub bad_request: AtomicU64,
    /// 404s and 405s: unknown route, or a known route with the wrong method.
    pub not_found: AtomicU64,
    /// 413s: body over the configured limit.
    pub too_large: AtomicU64,
    /// 429s: admission-control rejections (queue full).
    pub rejected: AtomicU64,
    /// 408s: slow clients cut off by the read deadline.
    pub timeouts: AtomicU64,
    /// 500s: worker failures.
    pub failures: AtomicU64,
    /// 503s: connection cap or shutting down.
    pub unavailable: AtomicU64,
    /// Simulations actually executed by the pool.
    pub simulations: AtomicU64,
    /// Executed simulations that ran on the step engine.
    pub runs_step: AtomicU64,
    /// Executed simulations that ran on the compiled engine.
    pub runs_compiled: AtomicU64,
    /// Fleet jobs newly accepted by `POST /v1/fleet`.
    pub fleet_jobs: AtomicU64,
    /// Fleet POSTs answered by an already-registered job (same content
    /// address — the spec hashed to an existing id).
    pub fleet_deduped: AtomicU64,
    /// Fleet jobs that ran to completion.
    pub fleet_done: AtomicU64,
    /// Fleet jobs whose worker panicked.
    pub fleet_failed: AtomicU64,
    /// Finished fleet jobs dropped from the registry to keep it bounded.
    pub fleet_evicted: AtomicU64,
    /// Chunks folded across all fleet jobs.
    pub fleet_chunks_done: AtomicU64,
    /// Gauge: chunks being simulated right now. A job folds its chunks
    /// sequentially, so this equals the number of actively running jobs.
    pub fleet_chunks_in_flight: AtomicU64,
    /// End-to-end latency of `/v1/run` requests, in microseconds.
    pub run_latency: Mutex<Histogram>,
    /// Fold of every served simulation's trace summary (constant-size:
    /// no per-run rows).
    pub sim_totals: Mutex<TraceSummary>,
}

/// Bumps a counter by one.
pub fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Reads a counter.
pub fn read(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl Metrics {
    /// Records one `/v1/run` end-to-end latency.
    pub fn record_run_latency_us(&self, us: u64) {
        self.run_latency
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .record(us);
    }

    /// Folds one simulation's trace summary into the process totals.
    pub fn absorb_summary(&self, summary: &TraceSummary) {
        self.sim_totals
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .merge_weighted(summary, 1);
    }

    /// Renders the plain-text exposition body served on `/metrics`.
    /// One `name value` pair per line, Prometheus-style but without
    /// type annotations (the service is dependency-free, not scrapeable
    /// by contract). `connections_active` is the server's gauge of
    /// accepted, unfinished connections; `bodies` are its result-cache
    /// counters.
    pub fn render(
        &self,
        queue_depth: usize,
        connections_active: usize,
        bodies: &CacheStats,
    ) -> String {
        let mut out = String::with_capacity(1024);
        let mut line = |name: &str, value: String| {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        };
        for (name, value) in [
            ("nvp_connections_accepted_total", read(&self.connections)),
            ("nvp_connections_active", connections_active as u64),
            ("nvp_requests_total", read(&self.requests)),
            ("nvp_responses_ok_total", read(&self.ok)),
            ("nvp_responses_bad_request_total", read(&self.bad_request)),
            ("nvp_responses_not_found_total", read(&self.not_found)),
            ("nvp_responses_too_large_total", read(&self.too_large)),
            ("nvp_responses_rejected_total", read(&self.rejected)),
            ("nvp_responses_timeout_total", read(&self.timeouts)),
            ("nvp_responses_failure_total", read(&self.failures)),
            ("nvp_responses_unavailable_total", read(&self.unavailable)),
            // Result cache: hits served stored bytes, misses scheduled a
            // simulation, coalesced requests joined one in flight.
            ("nvp_cache_hits_total", bodies.hits),
            ("nvp_cache_misses_total", bodies.misses),
            ("nvp_coalesced_total", bodies.coalesced),
            ("nvp_simulations_total", read(&self.simulations)),
            ("nvp_runs_engine_step_total", read(&self.runs_step)),
            ("nvp_runs_engine_compiled_total", read(&self.runs_compiled)),
            // Op tables built for `Compiled` runs, which no engine executes
            // any more (DESIGN §13, ROADMAP item 3): the catalog cache keeps
            // this flat at one per kernel × dimensions.
            ("nvp_compile_total", nvp_repro::catalog::compile_count()),
            // Checkpoint-plan syntheses for live-dirty runs: flat at one
            // per kernel × dimensions while the plan cache holds them.
            ("nvp_plan_synth_total", nvp_repro::catalog::plan_count()),
            // Fleet jobs, and how much per-cell simulation the cell cache
            // let overlapping fleets share instead of recompute.
            ("nvp_fleet_jobs_total", read(&self.fleet_jobs)),
            ("nvp_fleet_jobs_deduped_total", read(&self.fleet_deduped)),
            ("nvp_fleet_jobs_done_total", read(&self.fleet_done)),
            ("nvp_fleet_jobs_failed_total", read(&self.fleet_failed)),
            ("nvp_fleet_jobs_evicted_total", read(&self.fleet_evicted)),
            ("nvp_fleet_chunks_done_total", read(&self.fleet_chunks_done)),
            (
                "nvp_fleet_chunks_in_flight",
                read(&self.fleet_chunks_in_flight),
            ),
            (
                "nvp_fleet_cells_computed_total",
                nvp_fleet::cells_computed(),
            ),
            ("nvp_fleet_cells_shared_total", nvp_fleet::cells_shared()),
        ] {
            line(name, value.to_string());
        }
        // Occupancy of the four exported bounded caches: rendered bodies,
        // fleet cell outcomes, synthesized power traces and checkpoint
        // plans.
        for (prefix, stats) in [
            ("nvp_cache", *bodies),
            ("nvp_fleet_cell_cache", nvp_fleet::cell_cache_stats()),
            ("nvp_trace_cache", nvp_repro::catalog::trace_cache_stats()),
            ("nvp_plan_cache", nvp_repro::catalog::plan_cache_stats()),
        ] {
            line(&format!("{prefix}_entries"), stats.entries.to_string());
            line(&format!("{prefix}_capacity"), stats.capacity.to_string());
            let evictions = stats.evictions.to_string();
            line(&format!("{prefix}_evictions_total"), evictions);
        }
        line("nvp_queue_depth", queue_depth.to_string());
        {
            let latency = self.run_latency.lock().unwrap_or_else(|p| p.into_inner());
            line("nvp_run_latency_count", latency.count().to_string());
            line("nvp_run_latency_mean_us", format!("{:.1}", latency.mean()));
            for (name, q) in [
                ("nvp_run_latency_p50_us", 0.50),
                ("nvp_run_latency_p99_us", 0.99),
            ] {
                line(name, latency.quantile(q).unwrap_or(0).to_string());
            }
        }
        {
            let totals = self.sim_totals.lock().unwrap_or_else(|p| p.into_inner());
            line("nvp_sim_events_total", totals.total().to_string());
            // Every served run emits exactly one `run_end`.
            let runs = totals.count(EventKind::RunEnd);
            line("nvp_sim_runs_total", runs.to_string());
            line(
                "nvp_sim_retention_failures_total",
                totals.retention_failures.to_string(),
            );
            line(
                "nvp_sim_energy_income_nj",
                format!("{:.3}", totals.ledger.income_nj),
            );
            line(
                "nvp_sim_energy_compute_nj",
                format!("{:.3}", totals.ledger.compute_nj),
            );
            line(
                "nvp_sim_energy_backup_nj",
                format!("{:.3}", totals.ledger.backup_nj),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_bucket_upper_bounds() {
        let m = Metrics::default();
        for _ in 0..99 {
            m.record_run_latency_us(100); // bucket [64,128)
        }
        m.record_run_latency_us(1_000_000); // one outlier
        let text = m.render(0, 0, &CacheStats::default());
        assert!(text.contains("nvp_run_latency_count 100\n"), "{text}");
        assert!(text.contains("nvp_run_latency_p50_us 127\n"), "{text}");
        // p99 still lands in the common bucket; p100 would catch the outlier.
        assert!(text.contains("nvp_run_latency_p99_us 127\n"), "{text}");
        let hist = m.run_latency.lock().unwrap();
        assert!(hist.quantile(1.0).unwrap() >= 1_000_000);
    }

    #[test]
    fn zero_latency_is_recorded_not_panicked() {
        let m = Metrics::default();
        m.record_run_latency_us(0);
        let text = m.render(0, 0, &CacheStats::default());
        assert!(text.contains("nvp_run_latency_count 1\n"), "{text}");
        assert!(text.contains("nvp_run_latency_mean_us 0.0\n"), "{text}");
        // Bin 0 holds exactly zero, so its upper bound is zero.
        assert!(text.contains("nvp_run_latency_p50_us 0\n"), "{text}");
    }

    #[test]
    fn render_contains_every_counter() {
        let m = Metrics::default();
        bump(&m.connections);
        bump(&m.requests);
        let bodies = CacheStats {
            hits: 1,
            misses: 2,
            coalesced: 3,
            evictions: 4,
            entries: 7,
            capacity: 1024,
        };
        let text = m.render(3, 2, &bodies);
        for expected in [
            "nvp_connections_accepted_total 1\n",
            "nvp_connections_active 2\n",
            "nvp_requests_total 1\n",
            "nvp_cache_hits_total 1\n",
            "nvp_cache_misses_total 2\n",
            "nvp_coalesced_total 3\n",
            "nvp_cache_evictions_total 4\n",
            "nvp_cache_entries 7\n",
            "nvp_cache_capacity 1024\n",
            "nvp_queue_depth 3\n",
            "nvp_sim_events_total 0\n",
        ] {
            assert!(text.contains(expected), "missing {expected:?} in\n{text}");
        }
        // Process-wide caches and counters: present, values owned elsewhere.
        for name in [
            "nvp_compile_total ",
            "nvp_fleet_cells_computed_total ",
            "nvp_fleet_cells_shared_total ",
            "nvp_fleet_cell_cache_entries ",
            "nvp_fleet_cell_cache_capacity ",
            "nvp_fleet_cell_cache_evictions_total ",
            "nvp_trace_cache_entries ",
            "nvp_trace_cache_capacity ",
            "nvp_trace_cache_evictions_total ",
            "nvp_plan_synth_total ",
            "nvp_plan_cache_entries ",
            "nvp_plan_cache_capacity ",
            "nvp_plan_cache_evictions_total ",
            "nvp_fleet_jobs_evicted_total ",
        ] {
            assert!(text.contains(name), "missing {name:?} in\n{text}");
        }
    }

    #[test]
    fn per_engine_run_counters_render_independently() {
        let m = Metrics::default();
        bump(&m.runs_compiled);
        bump(&m.runs_compiled);
        bump(&m.runs_step);
        let text = m.render(0, 0, &CacheStats::default());
        assert!(text.contains("nvp_runs_engine_step_total 1\n"));
        assert!(text.contains("nvp_runs_engine_compiled_total 2\n"));
    }

    #[test]
    fn sim_totals_lines_are_pinned() {
        use nvp_kernels::KernelId;
        use nvp_repro::catalog::{simulate_traced, RunRequest};
        use nvp_sim::BackupScope;
        use nvp_trace::CounterSink;
        let m = Metrics::default();
        for (kernel, scope) in [
            (KernelId::Sobel, BackupScope::FullState),
            (KernelId::Median, BackupScope::FullState),
            (KernelId::Sobel, BackupScope::LiveOnly),
        ] {
            let req = RunRequest {
                kernel,
                scope,
                img: 8,
                frames: 1,
                trace_seconds: 0.3,
                ..RunRequest::default()
            };
            let mut sink = CounterSink::new();
            simulate_traced(&req, &mut sink);
            m.absorb_summary(&sink.summary);
        }
        let text = m.render(0, 0, &CacheStats::default());
        let sim: Vec<&str> = text.lines().filter(|l| l.starts_with("nvp_sim_")).collect();
        assert_eq!(
            sim,
            [
                "nvp_sim_events_total 145",
                "nvp_sim_runs_total 3",
                "nvp_sim_retention_failures_total 0",
                "nvp_sim_energy_income_nj 30848.807",
                "nvp_sim_energy_compute_nj 19716.400",
                "nvp_sim_energy_backup_nj 9748.214",
            ],
            "{text}"
        );
    }

    #[test]
    fn absorbed_runs_are_not_retained() {
        use nvp_trace::{CounterSink, Event, Tracer};
        let m = Metrics::default();
        for tick in 0..1_000 {
            let mut sink = CounterSink::new();
            sink.record(&Event::RunEnd {
                tick,
                income_nj: 2.0,
                compute_nj: 1.0,
                backup_nj: 0.5,
                restore_nj: 0.25,
                saved_nj: 0.0,
                backups: 1,
                restores: 1,
                frames: 1,
                forward_progress: 1,
            });
            m.absorb_summary(&sink.summary);
        }
        assert!(m.sim_totals.lock().unwrap().runs.is_empty());
        let text = m.render(0, 0, &CacheStats::default());
        assert!(text.contains("nvp_sim_runs_total 1000\n"), "{text}");
        assert!(text.contains("nvp_sim_events_total 1000\n"), "{text}");
    }
}
