//! The serving workload, `cluster_churn`, driven over TCP against the
//! repo's own `ktiler_serve` and `ktiler_gateway` programs.
//!
//! Every node and gateway runs as a child process in the run's scratch
//! directory, on an ephemeral port. A [`Proc`] guard kills and reaps its
//! child on every exit path — a failed check, an error return or a panic
//! unwinding through the run — so no run leaves an orphan behind.
//!
//! The load is a closed loop: [`CONNECTIONS`] client threads in this
//! process, one connection each, each sending its next request only after
//! the previous answer arrived, like build jobs waiting for a schedule.
//! Every latency is kept exactly and every answer is compared byte for
//! byte with a reference the benchmark computed in-process.

use std::fs::File;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gpu_sim::{FreqConfig, SplitMix64};
use ktiler_gateway::HashRing;
use ktiler_svc::proto::{Request, Response};
use ktiler_svc::{CacheKey, NetClient, Outcome, ScheduleRequest, ScheduleResponse, WorkloadSpec};

use crate::cold::{
    analyze, compile, decode_text, record_artifact_layers, record_compile_layers,
    record_span_layers, replay_deps, simulate, tile, AppSpec, Compiled, Sim,
};
use crate::report::{
    geomean, latency_summary, median, peak_rss_mb, quantile, tail_by_thirds, Report,
};
use crate::spans::Tracer;
use crate::{Opts, SETUP_ROUNDS};

/// Load connections, one per core of the 2-core reference box.
const CONNECTIONS: usize = 2;

/// How long a child may take to bind its port or to exit after `SHUTDOWN`.
const CHILD_TIMEOUT: Duration = Duration::from_secs(30);

/// Round trips timed per layer probe (`PING`, gateway hop).
const PROBE_ROUNDS: usize = 100;

/// A child process (node or gateway), killed and reaped when dropped.
struct Proc {
    name: String,
    child: Child,
    addr: String,
}

impl Proc {
    /// Starts `bin` with `args` plus `--port-file`, and waits until it has
    /// bound its port.
    fn spawn(opts: &Opts, bin: &str, name: &str, args: &[String]) -> Result<Proc, String> {
        let port_file = opts.run_dir.join(format!("{name}.port"));
        let log = File::create(opts.run_dir.join(format!("{name}.log")))
            .map_err(|e| format!("{name}: cannot create log: {e}"))?;
        let child = Command::new(opts.bin_dir.join(bin))
            .args(args)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let mut p = Proc { name: name.to_string(), child, addr: String::new() };
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if s.ends_with('\n') {
                    p.addr = s.trim().to_string();
                    return Ok(p);
                }
            }
            if let Ok(Some(status)) = p.child.try_wait() {
                return Err(format!("{name} exited during startup: {status}"));
            }
            if Instant::now() > deadline {
                return Err(format!("{name} did not report its port"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn request(&self, req: &Request) -> Result<Response, String> {
        let mut c = NetClient::connect(self.addr.as_str())
            .map_err(|e| format!("{}: connect: {e}", self.name))?;
        c.request(req).map_err(|e| format!("{}: {}: {e}", self.name, req.to_line()))
    }

    /// The `STATS` JSON.
    fn stats(&self) -> Result<String, String> {
        match self.request(&Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(format!("{}: STATS answered {other:?}", self.name)),
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Sends `SHUTDOWN` and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let bye = self.request(&Request::Shutdown);
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && matches!(bye, Ok(Response::Bye)) => {
                    return Ok(())
                }
                Ok(Some(status)) => {
                    return Err(format!("{} shut down badly: {status}, {bye:?}", self.name))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err(format!("{} did not exit after SHUTDOWN", self.name)),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A free loopback port, found by binding port 0. Two peer nodes must know
/// each other's address before either starts, so they cannot both use
/// `--addr 127.0.0.1:0`.
fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve a port: {e}"))?;
    l.local_addr().map(|a| a.port()).map_err(|e| format!("reserve a port: {e}"))
}

/// Every `"key": <integer>` in a `STATS` JSON text, in order (top-level
/// fields precede the per-node arrays in both node and gateway `STATS`).
fn json_ints<'a>(json: &'a str, key: &str) -> impl Iterator<Item = u64> + 'a {
    let pat = format!("\"{key}\": ");
    let starts: Vec<usize> = json.match_indices(&pat).map(|(i, _)| i + pat.len()).collect();
    starts.into_iter().filter_map(move |i| {
        let rest = &json[i..];
        let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        rest[..end].parse().ok()
    })
}

/// A warm key: the request and the artifact every answer must equal.
struct Reference {
    req: ScheduleRequest,
    key: CacheKey,
    text: String,
}

/// The warm keys, compiled in-process.
struct Warm {
    refs: Vec<Reference>,
    compiled: Vec<Compiled>,
    sims: Vec<Sim>,
}

/// Compiles every warm key in-process (spans, simulation, traced-run
/// replay checks): the references every answer is compared with.
fn build_references(
    opts: &Opts,
    tr: &mut Tracer,
    rep: &mut Report,
    specs: &[AppSpec],
) -> Result<Warm, String> {
    let freq = FreqConfig::default();
    let (mut refs, mut compiled, mut sims) = (Vec::new(), Vec::new(), Vec::new());
    for (i, spec) in specs.iter().enumerate() {
        let req = i as u64;
        let c = compile(tr, req, spec, freq)?;
        rep.op(c.tiled.problem.is_none(), || c.tiled.problem.clone().unwrap_or_default());
        sims.push(simulate(tr, req, &c, freq)?);
        if tr.on() {
            rep.op(replay_deps(tr, req, &c), || format!("{}: replayed deps differ", c.app.name));
            rep.op(decode_text(tr, req, &c), || {
                format!("{}: decoded schedule differs", c.app.name)
            });
        }
        let workload = spec.service_spec();
        let mut text = c.tiled.text.clone();
        if opts.corrupt_reference {
            text.push('\n');
        }
        refs.push(Reference { req: ScheduleRequest::new(workload), key: c.key(), text });
        compiled.push(c);
    }
    Ok(Warm { refs, compiled, sims })
}

/// Checks one answer against its reference.
fn check(
    resp: &ScheduleResponse,
    key: &CacheKey,
    text: &str,
    want_hit: bool,
) -> Result<(), String> {
    if want_hit && resp.outcome != Outcome::Hit {
        return Err(format!("key {key}: expected HIT, got {}", resp.outcome.as_str()));
    }
    if resp.outcome == Outcome::DegradedUntiled {
        return Err(format!("key {key}: served a degraded untiled schedule"));
    }
    if resp.key != *key {
        return Err(format!("key {key}: served key {}", resp.key));
    }
    if resp.text != text {
        return Err(format!("key {key}: served text differs from the reference"));
    }
    Ok(())
}

/// Sends one `SCHEDULE` and returns the answer and its latency in ms.
fn schedule(c: &mut NetClient, req: &ScheduleRequest) -> Result<(ScheduleResponse, f64), String> {
    let t = Instant::now();
    let resp = c.request(&Request::Schedule(req.clone())).map_err(|e| format!("transport: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match resp {
        Response::Schedule(r) => Ok((r, ms)),
        other => Err(format!("SCHEDULE answered {other:?}")),
    }
}

/// Warms every reference through `addr`: the first request must compute
/// the artifact (MISS), the second must hit it. Returns the summed MISS
/// latency in seconds.
fn warm(addr: &str, refs: &[Reference], rep: &mut Report) -> Result<f64, String> {
    let mut c = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut cold_s = 0.0;
    for r in refs {
        let (resp, ms) = schedule(&mut c, &r.req)?;
        cold_s += ms / 1e3;
        rep.op(resp.outcome == Outcome::Miss, || {
            format!("warm-up of {}: expected MISS, got {}", r.req.workload, resp.outcome.as_str())
        });
        rep.op(check(&resp, &r.key, &r.text, false).is_ok(), || {
            format!(
                "warm-up of {}: {}",
                r.req.workload,
                check(&resp, &r.key, &r.text, false).unwrap_err()
            )
        });
        let (resp, _) = schedule(&mut c, &r.req)?;
        let verdict = check(&resp, &r.key, &r.text, true);
        rep.op(verdict.is_ok(), || {
            format!("re-request of {}: {}", r.req.workload, verdict.unwrap_err())
        });
    }
    Ok(cold_s)
}

/// What the load generator sends: warm keys by popularity, and (churn)
/// never-seen keys at distinct DVFS points.
///
/// Each connection deals its requests from a deck holding every key in
/// proportion to its popularity, reshuffled by the seed for every cycle:
/// the seed changes the order, never the mix, so the share of expensive
/// requests is the same in every run.
struct Mix {
    /// One cycle of requests: `Some(k)` is warm key `k`, `None` a
    /// never-seen key.
    deck: Vec<Option<usize>>,
    /// Sizes never-seen keys cycle through.
    fresh_sizes: Vec<WorkloadSpec>,
    /// Offset of this seed's DVFS points, in MHz.
    fresh_mhz0: f64,
}

impl Mix {
    /// A deck with `counts[k]` copies of warm key `k` and `fresh`
    /// never-seen keys.
    fn deck(counts: &[usize], fresh: usize) -> Vec<Option<usize>> {
        let warm = counts.iter().enumerate().flat_map(|(k, &c)| std::iter::repeat_n(Some(k), c));
        warm.chain(std::iter::repeat_n(None, fresh)).collect()
    }

    /// The `i`-th never-seen key: distinct core clocks 0.5 MHz apart.
    fn fresh(&self, i: u64) -> ScheduleRequest {
        let spec = self.fresh_sizes[i as usize % self.fresh_sizes.len()];
        let mut req = ScheduleRequest::new(spec);
        req.gpu_mhz = self.fresh_mhz0 + 0.5 * i as f64;
        req
    }

    /// Deals the next request slot, reshuffling the deck when it runs out.
    fn deal(&self, hand: &mut Vec<Option<usize>>, rng: &mut SplitMix64) -> Option<usize> {
        if hand.is_empty() {
            hand.extend_from_slice(&self.deck);
            for i in (1..hand.len()).rev() {
                hand.swap(i, rng.gen_range_usize(0, i + 1));
            }
        }
        hand.pop().flatten()
    }
}

/// The closed loop's measurements.
#[derive(Default)]
struct Load {
    /// `(completion time in s since the loop started, latency in ms)` of
    /// every correct answer.
    all_ms: Vec<(f64, f64)>,
    /// Latency of every correct never-seen-key answer, ms.
    fresh_ms: Vec<f64>,
    /// `(warm key, latency in ms)` of every correct warm answer.
    warm_ms: Vec<(usize, f64)>,
    /// Latencies of traced / untraced warm answers (traced runs alternate).
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    /// Never-seen keys served: (index, answer), checked after the loop.
    fresh: Vec<(u64, ScheduleResponse)>,
    window_s: f64,
}

/// Runs [`CONNECTIONS`] closed-loop clients against `addr` for the run's
/// seconds. `midpoint` runs once, on this thread, halfway through.
fn closed_loop(
    opts: &Opts,
    tr: &mut Tracer,
    rep: &mut Report,
    addr: &str,
    refs: &[Reference],
    mix: &Mix,
    midpoint: impl FnOnce() -> Result<(), String>,
) -> Load {
    let traced_run = tr.on();
    let next_fresh = AtomicU64::new(0);
    let load = Mutex::new(Load::default());
    let failures = Mutex::new(Vec::<String>::new());
    let attempted = AtomicU64::new(0);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(opts.seconds);
    let mut tracers: Vec<Tracer> = (0..CONNECTIONS).map(|_| tr.sibling()).collect();
    let mid = std::thread::scope(|s| {
        for (t, tt) in tracers.iter_mut().enumerate() {
            let (load, failures, attempted, next_fresh) =
                (&load, &failures, &attempted, &next_fresh);
            s.spawn(move || {
                let mut rng = SplitMix64::new(opts.seed ^ (0x9e37_79b9_7f4a_7c15 * (t as u64 + 1)));
                let mut local = Load::default();
                let mut fails = Vec::new();
                let mut client = NetClient::connect(addr).map_err(|e| format!("connect: {e}"));
                let mut hand = Vec::new();
                let mut n = 0u64;
                while Instant::now() < end {
                    let (req, hot) = match mix.deal(&mut hand, &mut rng) {
                        Some(k) => (refs[k].req.clone(), Ok(k)),
                        None => {
                            let i = next_fresh.fetch_add(1, Ordering::Relaxed);
                            (mix.fresh(i), Err(i))
                        }
                    };
                    let traced = traced_run && n.is_multiple_of(2);
                    tt.set_on(traced);
                    let id = ((t as u64) << 32) | n;
                    n += 1;
                    attempted.fetch_add(1, Ordering::Relaxed);
                    let answer = match client.as_mut() {
                        Ok(c) => tt.span("client.schedule", id, |_| schedule(c, &req)),
                        Err(e) => Err(e.clone()),
                    };
                    let (resp, ms) = match answer {
                        Ok(a) => a,
                        Err(e) => {
                            fails.push(format!("{}: {e}", Request::Schedule(req).to_line()));
                            std::thread::sleep(Duration::from_millis(10));
                            client = NetClient::connect(addr).map_err(|e| format!("connect: {e}"));
                            continue;
                        }
                    };
                    match hot {
                        Ok(k) => {
                            if let Err(e) = check(&resp, &refs[k].key, &refs[k].text, false) {
                                fails.push(e);
                                continue;
                            }
                            local.warm_ms.push((k, ms));
                            // Overhead compares warm answers only; a
                            // never-seen key's cost swamps a span's.
                            if traced {
                                local.traced_ms.push(ms);
                            } else {
                                local.untraced_ms.push(ms);
                            }
                        }
                        Err(i) => {
                            if resp.outcome == Outcome::DegradedUntiled {
                                fails.push(format!("fresh key {i}: served a degraded schedule"));
                                continue;
                            }
                            local.fresh_ms.push(ms);
                            local.fresh.push((i, resp));
                        }
                    }
                    local.all_ms.push((start.elapsed().as_secs_f64(), ms));
                }
                let mut l = load.lock().expect("no client thread panics holding the lock");
                l.all_ms.extend(local.all_ms);
                l.fresh_ms.extend(local.fresh_ms);
                l.warm_ms.extend(local.warm_ms);
                l.traced_ms.extend(local.traced_ms);
                l.untraced_ms.extend(local.untraced_ms);
                l.fresh.extend(local.fresh);
                failures.lock().expect("no client thread panics holding the lock").extend(fails);
            });
        }
        let half = start + Duration::from_secs_f64(opts.seconds / 2.0);
        std::thread::sleep(half.saturating_duration_since(Instant::now()));
        midpoint()
    });
    for t in tracers {
        tr.merge(t);
    }
    tr.set_on(traced_run);
    let mut load = load.into_inner().expect("client threads joined without panicking");
    load.window_s = start.elapsed().as_secs_f64();
    let failures = failures.into_inner().expect("client threads joined without panicking");
    // A never-seen key's answer is counted once, when `check_fresh`
    // compares it with its reference; the loop counts only its failures.
    let fresh_served = load.fresh.len() as u64;
    rep.succeeded(attempted.into_inner() - failures.len() as u64 - fresh_served);
    for f in failures {
        rep.fail(f);
    }
    if let Err(e) = mid {
        rep.fail(format!("midpoint action: {e}"));
    }
    load
}

/// Records the latency metrics of a closed loop, with a per-key
/// breakdown in the notes.
fn record_latency(rep: &mut Report, load: &Load, refs: &[Reference]) {
    for (k, r) in refs.iter().enumerate() {
        let ms: Vec<f64> =
            load.warm_ms.iter().filter(|(key, _)| *key == k).map(|&(_, ms)| ms).collect();
        rep.note(format!("warm {}: {}", r.req.workload, latency_summary(&ms).1));
    }
    if !load.fresh_ms.is_empty() {
        rep.note(format!("never-seen keys: {}", latency_summary(&load.fresh_ms).1));
    }
    let all: Vec<f64> = load.all_ms.iter().map(|&(_, ms)| ms).collect();
    let (sorted, text) = latency_summary(&all);
    rep.note(format!("all correct answers in {:.2} s: {text}", load.window_s));
    let (tails, p99) = tail_by_thirds(&load.all_ms, load.window_s);
    rep.note(format!("tail by third of the window: {tails:.3?} ms; req_p99_ms is their median"));
    rep.metric("req_p50_ms", quantile(&sorted, 0.5));
    rep.metric("req_p99_ms", p99);
    rep.metric("req_rps", sorted.len() as f64 / load.window_s);
}

/// Median round trip of `PING`, in µs.
fn ping_rtt_us(tr: &mut Tracer, addr: &str) -> Result<f64, String> {
    let mut c = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut us = Vec::with_capacity(PROBE_ROUNDS);
    for i in 0..PROBE_ROUNDS {
        let t = Instant::now();
        let resp = tr.span("ktiler_svc.ping", i as u64, |_| c.request(&Request::Ping));
        us.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(resp, Ok(Response::Pong)) {
            return Err(format!("PING answered {resp:?}"));
        }
    }
    Ok(median(&us))
}

/// Node counters from `STATS`, summed over `stats`.
fn record_node_counters(rep: &mut Report, stats: &[String]) {
    let sum = |key: &str| stats.iter().filter_map(|s| json_ints(s, key).next()).sum::<u64>() as f64;
    let hits = sum("cache_hits");
    rep.metric("ktiler_svc.hits", hits);
    rep.metric("ktiler_svc.misses", sum("cache_misses"));
    rep.metric("ktiler_svc.peer_fills", sum("peer_fills"));
    rep.metric("ktiler_svc.analysis_runs", sum("analysis_runs"));
    rep.metric("ktiler_svc.pipeline_runs", sum("pipeline_runs"));
    rep.metric("ktiler_svc.hit_ratio", hits / sum("requests").max(1.0));
}

/// Schedule quality and latency always, and when traced the layer metrics
/// of the in-process compiles and artifact probes plus the tracing
/// overhead (warm answers only).
fn record_serving(
    opts: &Opts,
    tr: &mut Tracer,
    rep: &mut Report,
    warm: &Warm,
    load: &Load,
) -> Result<(), String> {
    rep.metric("sim_speedup", geomean(&warm.sims.iter().map(Sim::speedup).collect::<Vec<_>>()));
    record_latency(rep, load, &warm.refs);
    if !tr.on() {
        return Ok(());
    }
    let compiled: Vec<&Compiled> = warm.compiled.iter().collect();
    record_compile_layers(rep, &compiled, &warm.sims);
    record_span_layers(rep, tr, |_| 0);
    record_artifact_layers(rep, tr, &compiled, &opts.run_dir.join("scratch-cache"))?;
    let untraced = median(&load.untraced_ms);
    rep.metric("trace.overhead_pct", 100.0 * (median(&load.traced_ms) - untraced) / untraced);
    Ok(())
}

fn optflow(sizes: &[u32], smoke: bool) -> Vec<AppSpec> {
    let (iters, levels) = if smoke { (3, 2) } else { (30, 3) };
    sizes.iter().map(|&size| AppSpec { size, iters, levels }).collect()
}

/// Ring parameters passed to the gateway, so the benchmark can compute
/// which node owns each key.
const VNODES: usize = 64;
const RING_SEED: u64 = 0;

/// Two peer nodes behind a gateway.
struct Cluster {
    /// Node addresses exactly as the gateway was configured with them.
    addrs: Vec<String>,
    nodes: Vec<Proc>,
    gateway: Proc,
}

impl Cluster {
    fn start(opts: &Opts, round: usize) -> Result<Cluster, String> {
        let ports = [free_port()?, free_port()?];
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let mut nodes = Vec::new();
        for (i, addr) in addrs.iter().enumerate() {
            let cache = opts.run_dir.join(format!("churn{round}-node{i}-cache"));
            let args = vec![
                "--addr".into(),
                addr.clone(),
                "--cache-dir".into(),
                cache.display().to_string(),
                "--peer".into(),
                addrs[1 - i].clone(),
            ];
            nodes.push(Proc::spawn(opts, "ktiler_serve", &format!("node{i}-churn{round}"), &args)?);
        }
        let mut args: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
        for a in &addrs {
            args.extend(["--node".into(), a.clone()]);
        }
        args.extend([
            "--vnodes".into(),
            VNODES.to_string(),
            "--seed".into(),
            RING_SEED.to_string(),
        ]);
        let gateway = Proc::spawn(opts, "ktiler_gateway", &format!("gateway-churn{round}"), &args)?;
        Ok(Cluster { addrs, nodes, gateway })
    }

    fn shutdown(self) -> Result<(), String> {
        self.gateway.shutdown()?;
        for n in self.nodes {
            n.shutdown()?;
        }
        Ok(())
    }

    fn peak_rss_mb(&self) -> f64 {
        self.gateway.peak_rss_mb() + self.nodes.iter().map(Proc::peak_rss_mb).sum::<f64>()
    }

    /// Index of the node that is primary owner of the most references.
    fn busiest_owner(&self, refs: &[Reference]) -> usize {
        let ring = HashRing::build(&self.addrs, VNODES, RING_SEED);
        let mut owned = vec![0usize; self.addrs.len()];
        for r in refs {
            if let Some(&i) = ring.owner_indices(&r.req.routing_key(), 1).first() {
                owned[i] += 1;
            }
        }
        (0..owned.len()).max_by_key(|&i| (owned[i], usize::MAX - i)).unwrap_or(0)
    }
}

/// Median µs of a warm `SCHEDULE` through the gateway minus the same
/// request sent straight to the node that owns it.
fn gateway_hop_us(tr: &mut Tracer, cluster: &Cluster, r: &Reference) -> Result<f64, String> {
    let owner = cluster.busiest_owner(std::slice::from_ref(r));
    let connect = |a: &str| NetClient::connect(a).map_err(|e| format!("connect {a}: {e}"));
    let mut via_gw = connect(&cluster.gateway.addr)?;
    let mut direct = connect(&cluster.nodes[owner].addr)?;
    let (mut gw_ms, mut node_ms) = (Vec::new(), Vec::new());
    for i in 0..PROBE_ROUNDS as u64 {
        let (_, ms) = tr.span("ktiler_gateway.hop", i, |_| schedule(&mut via_gw, &r.req))?;
        gw_ms.push(ms);
        let (_, ms) = tr.span("ktiler_svc.direct", i, |_| schedule(&mut direct, &r.req))?;
        node_ms.push(ms);
    }
    Ok(1e3 * (median(&gw_ms) - median(&node_ms)))
}

/// Checks every never-seen key's answer against an in-process compile at
/// the same operating point (analysis once per size, then tiling per key).
fn check_fresh(
    opts: &Opts,
    tr: &mut Tracer,
    rep: &mut Report,
    mix: &Mix,
    load: &Load,
) -> Result<(), String> {
    let specs = optflow(
        &mix.fresh_sizes
            .iter()
            .map(|s| {
                let WorkloadSpec::OptFlow { size, .. } = *s;
                size
            })
            .collect::<Vec<_>>(),
        opts.smoke,
    );
    let was_on = tr.on();
    tr.set_on(false);
    for (si, spec) in specs.iter().enumerate() {
        let mut app = spec.build();
        let gt = analyze(tr, 0, &mut app)?;
        for (i, resp) in load.fresh.iter().filter(|(i, _)| *i as usize % specs.len() == si) {
            let req = mix.fresh(*i);
            let t = tile(tr, 0, &app, &gt, FreqConfig::new(req.gpu_mhz, req.mem_mhz))?;
            let mut text = t.text.clone();
            if opts.corrupt_reference {
                text.push('\n');
            }
            let verdict = check(resp, &t.key(&app, &gt), &text, false);
            rep.op(verdict.is_ok(), || format!("fresh key {i}: {}", verdict.unwrap_err()));
        }
    }
    tr.set_on(was_on);
    Ok(())
}

/// A gateway over two peer nodes: warm hits mixed with never-seen keys,
/// and a `DRAIN` of the busiest node halfway through.
pub fn run(opts: &Opts, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let sizes = if opts.smoke { vec![32, 48, 64] } else { vec![64, 96, 128] };
    let specs = optflow(&sizes, opts.smoke);
    let warm_keys = build_references(opts, tr, rep, &specs)?;
    let refs = &warm_keys.refs;

    let mut setup_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut cluster = None;
    for round in 0..SETUP_ROUNDS {
        if let Some(c) = cluster.take() {
            Cluster::shutdown(c)?;
        }
        let t = Instant::now();
        let c = Cluster::start(opts, round)?;
        warm_s.push(warm(&c.gateway.addr, refs, rep)?);
        setup_s.push(t.elapsed().as_secs_f64());
        cluster = Some(c);
    }
    let cluster = cluster.ok_or("no cluster")?;
    assert!(!opts.panic_after_setup, "--panic-after-setup: panicking with the cluster running");
    if tr.on() {
        let hop = gateway_hop_us(tr, &cluster, &refs[0])?;
        rep.metric("ktiler_gateway.hop_us", hop);
        let rtt = ping_rtt_us(tr, &cluster.nodes[0].addr)?;
        rep.metric("ktiler_svc.ping_rtt_us", rtt);
    }

    let mix = Mix {
        deck: Mix::deck(&[8, 5, 3], 4),
        fresh_sizes: specs.iter().map(AppSpec::service_spec).collect(),
        fresh_mhz0: 600.0 + (opts.seed % 1000) as f64 * 0.0005,
    };
    let drained = cluster.addrs[cluster.busiest_owner(refs)].clone();
    let gateway = &cluster.gateway;
    let load = closed_loop(opts, tr, rep, &gateway.addr, refs, &mix, || {
        match gateway.request(&Request::Drain { node: drained.clone(), on: true })? {
            Response::Drained { draining: true, .. } => Ok(()),
            other => Err(format!("DRAIN answered {other:?}")),
        }
    });
    rep.metric("peak_rss_mb", cluster.peak_rss_mb());
    let node_stats = cluster.nodes.iter().map(Proc::stats).collect::<Result<Vec<_>, _>>()?;
    let gw_stats = cluster.gateway.stats()?;
    Cluster::shutdown(cluster)?;
    check_fresh(opts, tr, rep, &mix, &load)?;
    rep.note(format!("drained {drained} at the midpoint"));

    rep.note(format!("setups: {setup_s:.3?} s"));
    rep.metric("setup_s", median(&setup_s));
    let fresh_s: Vec<f64> = load.fresh_ms.iter().map(|ms| ms / 1e3).collect();
    rep.metric(
        "cold_schedule_s",
        if fresh_s.is_empty() { median(&warm_s) } else { median(&fresh_s) },
    );
    if tr.on() {
        record_node_counters(rep, &node_stats);
        rep.metric(
            "ktiler_gateway.forwarded",
            json_ints(&gw_stats, "forwarded").next().unwrap_or(0) as f64,
        );
        rep.metric(
            "ktiler_gateway.replica_stores",
            json_ints(&gw_stats, "replications").next().unwrap_or(0) as f64,
        );
        let transitions = ["to_suspect", "to_down", "to_up"]
            .iter()
            .map(|k| json_ints(&gw_stats, k).sum::<u64>())
            .sum::<u64>();
        rep.metric("ktiler_gateway.state_transitions", transitions as f64);
    }
    record_serving(opts, tr, rep, &warm_keys, &load)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers_read_stats_counters() {
        let gw = "{\"requests\": 5, \"forwarded\": 4,\n \"nodes\": [{\"forwarded\": 3, \
                  \"transitions\": {\"to_suspect\": 1, \"to_down\": 0, \"to_up\": 2}}]}";
        assert_eq!(json_ints(gw, "forwarded").collect::<Vec<_>>(), vec![4, 3]);
        assert_eq!(json_ints(gw, "to_up").chain(json_ints(gw, "to_suspect")).sum::<u64>(), 3);
        assert_eq!(json_ints(gw, "absent").next(), None);
    }

    #[test]
    fn fresh_keys_are_distinct_operating_points() {
        let spec = WorkloadSpec::OptFlow { size: 64, iters: 30, levels: 3 };
        let mix = Mix { deck: Mix::deck(&[], 1), fresh_sizes: vec![spec], fresh_mhz0: 600.0 };
        let a = mix.fresh(0).routing_key();
        let b = mix.fresh(1).routing_key();
        assert_ne!(a, b);
        assert_ne!(a, ScheduleRequest::new(spec).routing_key());
    }

    #[test]
    fn every_cycle_deals_the_whole_deck() {
        let mix = Mix { deck: Mix::deck(&[3, 1], 2), fresh_sizes: Vec::new(), fresh_mhz0: 0.0 };
        let mut rng = SplitMix64::new(9);
        let mut hand = Vec::new();
        for _ in 0..4 {
            let mut cycle: Vec<Option<usize>> =
                (0..6).map(|_| mix.deal(&mut hand, &mut rng)).collect();
            cycle.sort();
            assert_eq!(cycle, vec![None, None, Some(0), Some(0), Some(0), Some(1)]);
        }
    }
}
