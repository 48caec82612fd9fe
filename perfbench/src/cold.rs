//! The offline pipeline, one span per layer call, and the two cold
//! workloads built on it.
//!
//! A cold pass takes an application spec to a verified, serialized
//! schedule: build → `kgraph::analyze_fast` → `ktiler::calibrate` →
//! `ktiler_schedule` → `Schedule::validate` → `verify_schedule` →
//! `schedule_to_text`, on a freshly built application with nothing
//! memoized. The serving workload reuses the same pipeline to build its
//! reference artifacts in-process.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

use gpu_sim::{DeviceMemory, FreqConfig, GpuConfig};
use kgraph::{AppGraph, GraphTrace};
use ktiler::{
    calibrate, execute_schedule, ktiler_schedule, schedule_from_text, schedule_to_text,
    verify_schedule, Calibration, CalibrationConfig, KtilerConfig, Schedule, TileParams,
    TilingOutcome,
};
use ktiler_svc::proto::{Request, Response};
use ktiler_svc::{
    schedule_cache_key, CacheKey, CacheProbe, Outcome, ScheduleCache, ScheduleRequest,
    ScheduleResponse, WorkloadSpec,
};

use crate::report::{latency_summary, median, peak_rss_mb, quantile, tail_by_thirds, Report};
use crate::spans::Tracer;
use crate::{Opts, SETUP_ROUNDS};

/// The optical-flow schedule hash every build must reproduce at the
/// harness scale (512², 30 Jacobi iterations, 3 levels).
pub const OPTFLOW_512_HASH: u64 = 0x86dd_0652_62ba_f764;

/// HSOpticalFlow on the canonical synthetic frames, exactly as the
/// scheduling service builds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppSpec {
    pub size: u32,
    pub iters: u32,
    pub levels: u32,
}

/// The harness scale, whose schedule hash is [`OPTFLOW_512_HASH`].
pub const HARNESS: AppSpec = AppSpec { size: 512, iters: 30, levels: 3 };

/// A built application: graph and device memory.
pub struct App {
    pub name: String,
    pub graph: AppGraph,
    pub mem: DeviceMemory,
}

impl AppSpec {
    /// Builds the application from its spec.
    pub fn build(&self) -> App {
        let AppSpec { size, iters, levels } = *self;
        let p = hsoptflow::HsParams { levels, jacobi_iters: iters, warp_iters: 1, alpha2: 0.1 };
        let (f0, f1) = hsoptflow::synthetic_pair(size, size, 1.0, 0.5, 7);
        let app = hsoptflow::build_app(&f0, &f1, &p);
        App {
            name: format!("optflow_{size}x{size}_{iters}ji_{levels}l"),
            graph: app.graph,
            mem: app.mem,
        }
    }

    /// The service's name for this workload.
    pub fn service_spec(&self) -> WorkloadSpec {
        WorkloadSpec::OptFlow { size: self.size, iters: self.iters, levels: self.levels }
    }
}

/// The device model and tiling configuration the service uses.
pub fn gpu() -> GpuConfig {
    GpuConfig::gtx960m()
}

fn ktiler_config(gpu: &GpuConfig) -> KtilerConfig {
    KtilerConfig {
        weight_threshold_ns: 1_000.0,
        tile: TileParams::paper(gpu.cache.capacity_bytes, gpu.cache.line_bytes, 0.0),
    }
}

/// Everything one cold pass produced.
pub struct Compiled {
    pub app: App,
    pub gt: GraphTrace,
    pub tiled: Tiled,
}

impl Compiled {
    /// The content-addressed key the service stores this artifact under.
    pub fn key(&self) -> CacheKey {
        self.tiled.key(&self.app, &self.gt)
    }
}

/// One cold pass from spec to verified, serialized schedule.
pub fn compile(
    tr: &mut Tracer,
    req: u64,
    spec: &AppSpec,
    freq: FreqConfig,
) -> Result<Compiled, String> {
    tr.span("pass", req, |tr| {
        let mut app = tr.span("app.build", req, |_| spec.build());
        let gt = analyze(tr, req, &mut app)?;
        let tiled = tile(tr, req, &app, &gt, freq)?;
        Ok(Compiled { app, gt, tiled })
    })
}

/// Block analysis of a freshly built application.
pub fn analyze(tr: &mut Tracer, req: u64, app: &mut App) -> Result<GraphTrace, String> {
    let line_bytes = gpu().cache.line_bytes;
    tr.span("kgraph.analyze", req, |_| kgraph::analyze_fast(&app.graph, &mut app.mem, line_bytes))
        .map_err(|e| format!("{}: analysis failed: {e}", app.name))
}

/// The pipeline after analysis, at one operating point.
pub struct Tiled {
    pub cal: Calibration,
    pub kcfg: KtilerConfig,
    pub out: TilingOutcome,
    pub text: String,
    /// `Schedule::validate` and `verify_schedule` verdicts; `None` is clean.
    pub problem: Option<String>,
}

impl Tiled {
    /// The content-addressed key the service stores this artifact under.
    pub fn key(&self, app: &App, gt: &GraphTrace) -> CacheKey {
        schedule_cache_key(&app.graph, gt, &gpu().cache, &self.cal, &self.kcfg)
    }
}

/// Calibration → Algorithm 1 + 2 → validate + verify → serialization.
pub fn tile(
    tr: &mut Tracer,
    req: u64,
    app: &App,
    gt: &GraphTrace,
    freq: FreqConfig,
) -> Result<Tiled, String> {
    let gpu = gpu();
    let g = &app.graph;
    let cal = tr.span("ktiler.calibrate", req, |_| {
        calibrate(g, gt, &gpu, freq, &CalibrationConfig::default())
    });
    let kcfg = ktiler_config(&gpu);
    let out = tr
        .span("ktiler.schedule", req, |_| ktiler_schedule(g, gt, &cal, &kcfg))
        .map_err(|e| format!("{}: tiling failed: {e}", app.name))?;
    let problem = tr.span("ktiler.verify", req, |_| {
        if let Err(e) = out.schedule.validate(g, &gt.deps) {
            return Some(format!("{}: validate: {e}", app.name));
        }
        let report = verify_schedule(&out.schedule, g, gt, &kcfg.tile);
        (!report.is_clean()).then(|| format!("{}: verify: {report}", app.name))
    });
    let text = tr.span("ktiler.codec", req, |_| schedule_to_text(&out.schedule));
    Ok(Tiled { cal, kcfg, out, text, problem })
}

/// Simulated run times of the default order and the KTILER schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    pub default_ns: f64,
    pub ktiler_ns: f64,
    pub l2_hits: u64,
    pub l2_misses: u64,
}

impl Sim {
    pub fn speedup(&self) -> f64 {
        self.default_ns / self.ktiler_ns
    }
}

/// Runs both orders on the timing simulator.
pub fn simulate(tr: &mut Tracer, req: u64, c: &Compiled, freq: FreqConfig) -> Result<Sim, String> {
    let gpu = gpu();
    let (g, gt) = (&c.app.graph, &c.gt);
    let default = tr
        .span("gpu_sim.exec", req, |_| {
            execute_schedule(&Schedule::default_order(g), g, gt, &gpu, freq, None)
        })
        .map_err(|e| format!("{}: default-order simulation failed: {e}", c.app.name))?;
    let tiled = tr
        .span("gpu_sim.exec", req, |_| {
            execute_schedule(&c.tiled.out.schedule, g, gt, &gpu, freq, None)
        })
        .map_err(|e| format!("{}: KTILER simulation failed: {e}", c.app.name))?;
    Ok(Sim {
        default_ns: default.total_ns,
        ktiler_ns: tiled.total_ns,
        l2_hits: tiled.stats.l2_hits,
        l2_misses: tiled.stats.l2_misses,
    })
}

/// Replays the structural dependency pass over the analysed traces in
/// program order; the result must equal the graph analysis produced.
/// `analyze_fast` runs the same pass inside and does not time it, so the
/// replay is how `trace.deps_ms` sees it.
pub fn replay_deps(tr: &mut Tracer, req: u64, c: &Compiled) -> bool {
    let deps = tr.span("trace.deps", req, |_| {
        let mut b = trace::StructuralDepBuilder::new(c.app.mem.buffers());
        for &id in &c.gt.order {
            b.visit_node(id.0, &c.gt.nodes[id.0 as usize].blocks);
        }
        b.finish()
    });
    deps == c.gt.deps
}

/// Parses the serialized schedule back; it must equal the emitted one.
pub fn decode_text(tr: &mut Tracer, req: u64, c: &Compiled) -> bool {
    let parsed = tr.span("ktiler.codec", req, |_| schedule_from_text(&c.tiled.text));
    parsed.is_ok_and(|s| s == c.tiled.out.schedule)
}

/// FNV-1a over a byte string, the repo's schedule fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The per-application facts every workload reports as layer metrics.
pub fn record_compile_layers(rep: &mut Report, compiled: &[&Compiled], sims: &[Sim]) {
    let sum = |f: &dyn Fn(&Compiled) -> usize| compiled.iter().map(|c| f(c)).sum::<usize>() as f64;
    rep.metric("trace.dep_edges", sum(&|c| c.gt.deps.num_edges()));
    rep.metric("ktiler.merges_accepted", sum(&|c| c.tiled.out.report.merges_accepted));
    rep.metric("ktiler.merges_rejected", sum(&|c| c.tiled.out.report.merges_rejected));
    rep.metric("ktiler.merges_invalid", sum(&|c| c.tiled.out.report.merges_invalid));
    rep.metric("ktiler.launches", sum(&|c| c.tiled.out.schedule.num_launches()));
    rep.metric(
        "ktiler.tiled_launches",
        sum(&|c| c.tiled.out.schedule.num_tiled_launches(&c.app.graph)),
    );
    rep.metric("ktiler.artifact_bytes", sum(&|c| c.tiled.text.len()));
    let errs: Vec<f64> = compiled
        .iter()
        .zip(sims)
        .map(|(c, s)| 100.0 * (c.tiled.out.est_cost_ns - s.ktiler_ns).abs() / s.ktiler_ns)
        .collect();
    rep.metric("ktiler.model_err_pct", errs.iter().sum::<f64>() / errs.len().max(1) as f64);
    let (hits, misses) = sims.iter().fold((0, 0), |(h, m), s| (h + s.l2_hits, m + s.l2_misses));
    rep.metric("gpu_sim.l2_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
}

/// Layer timings taken from spans, per pass: the sum of every span
/// called `name` whose request id maps to the pass.
fn per_pass_ms(tr: &Tracer, name: &str, pass_of: impl Fn(u64) -> u64) -> Vec<f64> {
    let mut sums: Vec<(u64, f64)> = Vec::new();
    for s in tr.spans().iter().filter(|s| s.name == name) {
        let p = pass_of(s.req);
        match sums.iter_mut().find(|(q, _)| *q == p) {
            Some((_, v)) => *v += s.ms(),
            None => sums.push((p, s.ms())),
        }
    }
    sums.into_iter().map(|(_, v)| v).collect()
}

/// Records the analyzer/tiler layer timings from spans. `pass_of` maps a
/// request id to the pass (or setup round) it belongs to.
pub fn record_span_layers(rep: &mut Report, tr: &Tracer, pass_of: impl Fn(u64) -> u64 + Copy) {
    let m = |name: &str| median(&per_pass_ms(tr, name, pass_of));
    let analyze = per_pass_ms(tr, "kgraph.analyze", pass_of);
    let deps = per_pass_ms(tr, "trace.deps", pass_of);
    let acquire: Vec<f64> = analyze.iter().zip(&deps).map(|(a, d)| a - d).collect();
    rep.metric("trace.deps_ms", median(&deps));
    rep.metric("kgraph.analyze_ms", median(&analyze));
    let pass = median(&per_pass_ms(tr, "pass", pass_of));
    rep.note(format!(
        "dependency pass {:.1} ms = {:.1}% of kgraph.analyze {:.1} ms = {:.1}% of a traced \
         compile {pass:.1} ms",
        median(&deps),
        100.0 * median(&deps) / median(&analyze),
        median(&analyze),
        100.0 * median(&deps) / pass,
    ));
    rep.metric("kgraph.acquire_ms", median(&acquire));
    rep.metric("ktiler.calibrate_ms", m("ktiler.calibrate"));
    rep.metric("ktiler.schedule_ms", m("ktiler.schedule"));
    rep.metric("ktiler.verify_ms", m("ktiler.verify"));
    rep.metric("ktiler.codec_us", 1e3 * m("ktiler.codec"));
    rep.metric("gpu_sim.exec_ms", m("gpu_sim.exec"));
}

/// Rounds of the in-process artifact layer probes.
const ARTIFACT_ROUNDS: usize = 5;

/// Times the cache and frame layers in-process on this workload's own
/// artifacts: `ScheduleCache::store` into a scratch directory, `probe`
/// (load + parse + verify) of what was stored, and the wire encode +
/// decode of the request and response frames. Every probe must hit with
/// the stored bytes and every frame must round-trip.
pub fn record_artifact_layers(
    rep: &mut Report,
    tr: &mut Tracer,
    compiled: &[&Compiled],
    dir: &Path,
) -> Result<(), String> {
    let cache = ScheduleCache::open(dir).map_err(|e| format!("open scratch cache: {e}"))?;
    let mut store_ms = Vec::new();
    let mut probe_ms = Vec::new();
    let mut codec_us = Vec::new();
    // The request line is the same size for every key; the response
    // carries the artifact.
    let spec = WorkloadSpec::OptFlow { size: 512, iters: 30, levels: 3 };
    let request = Request::Schedule(ScheduleRequest::new(spec));
    for round in 0..ARTIFACT_ROUNDS {
        let req = round as u64;
        let (mut st, mut pr, mut co) = (0.0, 0.0, 0.0);
        for c in compiled {
            let key = c.key();
            let t = Instant::now();
            let stored =
                tr.span("ktiler_svc.cache_store", req, |_| cache.store(&key, &c.tiled.text));
            st += t.elapsed().as_secs_f64() * 1e3;
            rep.op(stored.is_ok(), || format!("{}: scratch store failed: {stored:?}", c.app.name));

            let t = Instant::now();
            let probe = tr.span("ktiler_svc.cache_probe", req, |_| {
                cache.probe(&key, &c.app.graph, &c.gt, &c.tiled.kcfg.tile)
            });
            pr += t.elapsed().as_secs_f64() * 1e3;
            let hit = matches!(&probe, CacheProbe::Hit { text, .. } if *text == c.tiled.text);
            rep.op(hit, || format!("{}: scratch probe did not hit its own artifact", c.app.name));

            let resp = Response::Schedule(ScheduleResponse {
                outcome: Outcome::Hit,
                key,
                launches: c.tiled.out.schedule.num_launches(),
                text: c.tiled.text.clone(),
            });
            let t = Instant::now();
            let ok = tr.span("ktiler_svc.frame_codec", req, |_| {
                let req_ok = Request::decode(&request.encode()).is_ok_and(|r| r == request);
                let resp_ok = Response::decode(&resp.encode()).is_ok_and(|r| r == resp);
                req_ok && resp_ok
            });
            co += t.elapsed().as_secs_f64() * 1e6;
            rep.op(ok, || format!("{}: frame codec round trip differs", c.app.name));
        }
        store_ms.push(st / compiled.len() as f64);
        probe_ms.push(pr / compiled.len() as f64);
        codec_us.push(co / compiled.len() as f64);
    }
    rep.metric("ktiler_svc.cache_store_ms", median(&store_ms));
    rep.metric("ktiler_svc.cache_probe_ms", median(&probe_ms));
    rep.metric("ktiler_svc.frame_codec_us", median(&codec_us));
    Ok(())
}

/// Concurrent callers of the closed loop, as many as the box has cores:
/// two build jobs, each compiling back to back. Passes of two processes
/// run side by side take as long as passes run alone, so two callers
/// double the samples a run's statistics rest on. Traced runs use one,
/// so no second compile contends with the layer timings.
const CALLERS: usize = 2;

/// Timed passes each caller makes at least, so a run's median rests on
/// several samples. Traced runs alternate untraced and traced passes.
const MIN_TIMED_PASSES: usize = 3;

/// The `optflow_cold` application.
pub fn cold_spec(smoke: bool) -> AppSpec {
    if smoke {
        AppSpec { size: 64, iters: 3, levels: 2 }
    } else {
        HARNESS
    }
}

/// Checks shared by every caller: the expected schedule hash (at smoke
/// scale, the first finished pass's) and the first simulation.
#[derive(Default)]
struct Expect {
    hash: OnceLock<u64>,
    sim: OnceLock<Sim>,
}

/// One caller's share of the run.
struct Caller {
    tr: Tracer,
    rep: Report,
    warmup_s: Vec<f64>,
    pass_s: Vec<f64>,
    traced_pass_s: Vec<f64>,
    /// Timed passes as (end, seconds since the window opened; duration, ms).
    done: Vec<(f64, f64)>,
    launches: usize,
    /// The latest compile, kept by traced runs for the layer probes.
    last: Option<Compiled>,
}

impl Caller {
    fn new(tr: &Tracer) -> Self {
        Caller {
            tr: tr.sibling(),
            rep: Report::default(),
            warmup_s: Vec::new(),
            pass_s: Vec::new(),
            traced_pass_s: Vec::new(),
            done: Vec::new(),
            launches: 0,
            last: None,
        }
    }

    /// One checked pass; a pass that panics counts as failed, so the other
    /// callers never wait for this one at a barrier it cannot reach.
    fn pass(
        &mut self,
        opts: &Opts,
        spec: &AppSpec,
        expect: &Expect,
        req: u64,
        window: Option<Instant>,
    ) {
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            self.checked_pass(opts, spec, expect, req, window)
        }));
        if ran.is_err() {
            self.rep.fail(format!("pass {req} panicked"));
        }
    }

    /// Compile, hash, simulate and, traced, replay the dependency pass and
    /// decode the artifact (outside the pass timing). `window` is when the
    /// timed window opened; a warm-up pass has none.
    fn checked_pass(
        &mut self,
        opts: &Opts,
        spec: &AppSpec,
        expect: &Expect,
        req: u64,
        window: Option<Instant>,
    ) {
        let traced_run = opts.trace;
        let traced = traced_run && window.is_some() && self.pass_s.len() > self.traced_pass_s.len();
        self.tr.set_on(traced);
        // Untraced runs keep nothing between passes, so the peak resident
        // set is one compile per caller.
        self.last = None;
        let freq = FreqConfig::default();
        let t = Instant::now();
        let c = compile(&mut self.tr, req, spec, freq);
        let s = t.elapsed().as_secs_f64();
        let (tr, rep) = (&mut self.tr, &mut self.rep);
        let c = match c {
            Ok(c) => c,
            Err(e) => return rep.op(false, || e),
        };
        match (window, traced) {
            (None, _) => self.warmup_s.push(s),
            (Some(_), false) => self.pass_s.push(s),
            (Some(_), true) => self.traced_pass_s.push(s),
        }
        if let Some(w) = window {
            self.done.push((w.elapsed().as_secs_f64(), s * 1e3));
        }
        rep.op(c.tiled.problem.is_none(), || c.tiled.problem.clone().unwrap_or_default());
        let hash = fnv1a(c.tiled.text.as_bytes());
        let expected = *expect.hash.get_or_init(|| hash);
        let expected = if opts.corrupt_reference { !expected } else { expected };
        rep.op(hash == expected, || {
            format!("{}: schedule hash {hash:#018x}, expected {expected:#018x}", c.app.name)
        });
        match simulate(tr, req, &c, freq) {
            Ok(sim) => {
                let first = *expect.sim.get_or_init(|| sim);
                rep.op(sim == first, || format!("{}: simulation is not deterministic", c.app.name));
            }
            Err(e) => rep.op(false, || e),
        }
        if traced {
            rep.op(replay_deps(tr, req, &c), || {
                format!("{}: replayed dependency graph differs from analysis", c.app.name)
            });
            rep.op(decode_text(tr, req, &c), || {
                format!("{}: decoded schedule differs from the emitted one", c.app.name)
            });
        }
        self.launches = c.tiled.out.schedule.num_launches();
        if traced_run {
            self.last = Some(c);
        }
    }
}

/// Runs `optflow_cold`.
///
/// Warm-up passes are checked but not timed. The first caller first makes
/// one alone, so the peak resident set read after it is one compile's;
/// then, with more than one caller, every caller makes one at once: the
/// first pass on a thread's fresh heap, and the first pair run side by
/// side, are the slowest. From the start of the timed window each caller
/// compiles back to back until less than half a pass of `--seconds` is
/// left. Untraced runs time each pass end to end; traced runs alternate
/// untraced and traced passes, so the tracing overhead is a difference
/// of measured passes.
pub fn run(opts: &Opts, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let spec = cold_spec(opts.smoke);
    let traced_run = tr.on();

    let mut setup_s = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        let app = spec.build();
        setup_s.push(t.elapsed().as_secs_f64());
        drop(app);
    }

    let expect = Expect::default();
    if spec == HARNESS {
        let _ = expect.hash.set(OPTFLOW_512_HASH);
    }
    let n_callers = if traced_run { 1 } else { CALLERS };
    let mut callers: Vec<Caller> = (0..n_callers).map(|_| Caller::new(tr)).collect();
    let turn = Barrier::new(n_callers);
    let window = OnceLock::new();
    let rss_mb = OnceLock::new();
    // Request ids number passes across callers: pass `n` of caller `k` is
    // `n * CALLERS + k`; passes 0 and 1 are warm-ups.
    let req = |k: usize, n: usize| (n * CALLERS + k) as u64;
    std::thread::scope(|s| {
        for (k, c) in callers.iter_mut().enumerate() {
            let (spec, expect, turn, window, rss_mb) = (&spec, &expect, &turn, &window, &rss_mb);
            s.spawn(move || {
                if k == 0 {
                    c.pass(opts, spec, expect, req(k, 0), None);
                    let _ = rss_mb.set(peak_rss_mb("self").unwrap_or(0.0));
                }
                turn.wait();
                if n_callers > 1 {
                    c.pass(opts, spec, expect, req(k, 1), None);
                }
                turn.wait();
                let opened = *window.get_or_init(Instant::now);
                for n in 2.. {
                    // Stop once the window has less than half a pass left,
                    // so a run overshoots `--seconds` by little.
                    let (done, elapsed) = (n - 2, opened.elapsed().as_secs_f64());
                    let half_pass = elapsed / done.max(1) as f64 / 2.0;
                    if done >= MIN_TIMED_PASSES && elapsed + half_pass >= opts.seconds {
                        break;
                    }
                    c.pass(opts, spec, expect, req(k, n), Some(opened));
                }
            });
        }
    });
    let window_s = window.get().map_or(0.0, |w| w.elapsed().as_secs_f64());

    let (mut pass_s, mut traced_pass_s, mut warmup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut done = Vec::new();
    // A closed loop's throughput: each caller's completed passes over the
    // time to its last one, summed over callers.
    let mut rps = 0.0;
    let mut launches = 0;
    let mut last = None;
    for c in callers {
        if let Some(&(end_s, _)) = c.done.last() {
            rps += c.done.len() as f64 / end_s;
        }
        pass_s.extend(c.pass_s);
        traced_pass_s.extend(c.traced_pass_s);
        warmup_s.extend(c.warmup_s);
        done.extend(c.done);
        launches = c.launches;
        last = last.or(c.last);
        tr.merge(c.tr);
        rep.absorb(c.rep);
    }
    tr.set_on(traced_run);

    let sim = *expect.sim.get().ok_or("no pass compiled and simulated")?;
    let timed_ms: Vec<f64> = done.iter().map(|&(_, ms)| ms).collect();
    let (sorted, summary) = latency_summary(&timed_ms);
    rep.note(format!(
        "{} timed passes ({} traced) by {n_callers} callers in {window_s:.1} s after {} warm-up: \
         {summary}",
        timed_ms.len(),
        traced_pass_s.len(),
        warmup_s.len()
    ));
    let times = |v: &[f64]| v.iter().map(|s| format!("{s:.2}")).collect::<Vec<_>>().join(" ");
    rep.note(format!("warm-up pass times, s: {}", times(&warmup_s)));
    rep.note(format!("untraced pass times, s: {}", times(&pass_s)));
    let (tails, p99) = tail_by_thirds(&done, window_s);
    rep.note(format!("tail by third of the window: {tails:.3?} ms; req_p99_ms is their median"));
    rep.note(format!(
        "{}x{}: hash {:#018x} speedup {:.4} launches {launches}",
        spec.size,
        spec.size,
        expect.hash.get().copied().unwrap_or(0),
        sim.speedup()
    ));

    rep.metric("setup_s", median(&setup_s));
    rep.metric("cold_schedule_s", median(&pass_s));
    rep.metric("sim_speedup", sim.speedup());
    rep.metric("req_p50_ms", quantile(&sorted, 0.5));
    rep.metric("req_p99_ms", p99);
    rep.metric("req_rps", rps);
    rep.metric("peak_rss_mb", rss_mb.get().copied().unwrap_or(0.0));
    if !traced_run {
        return Ok(());
    }

    let compiled: Vec<&Compiled> = last.iter().collect();
    record_compile_layers(rep, &compiled, &[sim]);
    record_span_layers(rep, tr, |req| req);
    record_artifact_layers(rep, tr, &compiled, &opts.run_dir.join("scratch-cache"))?;
    let untraced = median(&pass_s);
    rep.metric("trace.overhead_pct", 100.0 * (median(&traced_pass_s) - untraced) / untraced);
    Ok(())
}
