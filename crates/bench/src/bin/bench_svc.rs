//! `bench_svc` — load-test the multi-node deployment: N `ktiler_serve`
//! nodes behind a `ktiler_gateway`, driven by O(10k) concurrent client
//! connections with a hot/cold key mix, optionally killing the node that
//! owns the hottest keys mid-run.
//!
//! ```text
//! bench_svc [--nodes N] [--conns N] [--hot-keys N] [--cold-keys N]
//!           [--hot-frac F] [--seed N] [--no-kill] [--small]
//!           [--out PATH] [--work-dir DIR]
//! ```
//!
//! Defaults: 4 nodes, 10000 connections (one schedule request each),
//! 16 hot keys taking 95% of the traffic, 64 cold keys, node kill
//! enabled, output to `results/BENCH_svc.json`. `--small` shrinks
//! everything for smoke tests (2 nodes, 200 connections) and marks the
//! JSON `"small": true` so the results gate can reject it.
//!
//! The run has four phases:
//!
//! 1. **Reference** — every distinct request is computed by an
//!    in-process single-node [`Service`]; its schedule text is the
//!    byte-identical truth every multi-node response is compared against.
//! 2. **Warmup** — each hot key is requested once through the gateway,
//!    so its artifact is cached on its owner; then every node is sent
//!    `SYNC`, and since the nodes peer each other, one anti-entropy round
//!    copies every hot artifact to every node.
//! 3. **Measurement** — all connections are opened, every request is
//!    written at one instant `t0` (a closed burst), and a single-threaded
//!    readiness loop (mirroring the server's own event loop) drives
//!    writes and reads until every response has landed. Each request's
//!    latency runs from `t0` to its response, so it includes its wait
//!    behind the rest of the burst. Halfway through, `--no-kill` absent,
//!    the node owning hot key 0 is killed: in-flight and subsequent
//!    requests for its keys must fail over with zero client-visible
//!    errors and byte-identical answers.
//! 4. **Verdict** — responses are checked against the reference, the
//!    warm-key hit rate (hits + peer fills, no recompute) is computed,
//!    the exact per-request latencies are sorted into nearest-rank
//!    p50/p99/p99.9, and the JSON report is written.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

use ktiler_gateway::HashRing;
use ktiler_svc::proto::{write_frame, DecodeEvent, FrameDecoder, Request, Response};
use ktiler_svc::{NetClient, Outcome, ScheduleRequest, Service, ServiceConfig, WorkloadSpec};

const RING_VNODES: usize = 64;
const RING_SEED: u64 = 0;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_svc [--nodes N] [--conns N] [--hot-keys N] [--cold-keys N] \
         [--hot-frac F] [--seed N] [--no-kill] [--small] [--out PATH] [--work-dir DIR]"
    );
    std::process::exit(2);
}

fn arg_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    match arg_value(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
    }
}

/// SplitMix64 — the repo's standard seedable generator for benches.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn uniform(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct BenchConfig {
    nodes: usize,
    conns: usize,
    hot_keys: usize,
    cold_keys: usize,
    hot_frac: f64,
    seed: u64,
    kill: bool,
    small: bool,
    out: PathBuf,
    work_dir: PathBuf,
}

fn parse_config() -> BenchConfig {
    let small = arg_flag("--small");
    let (d_nodes, d_conns, d_hot, d_cold) =
        if small { (2, 200, 4, 8) } else { (4, 10_000, 16, 64) };
    BenchConfig {
        nodes: arg_parse("--nodes", d_nodes),
        conns: arg_parse("--conns", d_conns),
        hot_keys: arg_parse("--hot-keys", d_hot),
        cold_keys: arg_parse("--cold-keys", d_cold),
        hot_frac: arg_parse("--hot-frac", 0.95),
        seed: arg_parse("--seed", 20260808u64),
        kill: !arg_flag("--no-kill"),
        small,
        out: PathBuf::from(arg_value("--out").unwrap_or_else(|| "results/BENCH_svc.json".into())),
        work_dir: PathBuf::from(
            arg_value("--work-dir")
                .unwrap_or_else(|| format!("target/bench_svc.{}", std::process::id())),
        ),
    }
}

/// The request for spec index `i`: indices below `hot_keys` are the hot
/// set, the rest are cold. All are small optical-flow problems — the
/// point is routing and caching behaviour, not simulation time — varied
/// along the iteration axis so every index has a distinct schedule key.
fn spec_for(i: usize, hot_keys: usize) -> ScheduleRequest {
    let spec = if i < hot_keys {
        WorkloadSpec::OptFlow { size: 64, iters: 1 + i as u32, levels: 2 }
    } else {
        WorkloadSpec::OptFlow { size: 32, iters: 1 + (i - hot_keys) as u32, levels: 2 }
    };
    ScheduleRequest::new(spec)
}

/// Reserves `n` distinct ephemeral ports by binding and dropping
/// listeners. The tiny race (another process grabbing a port before the
/// node binds it) is acceptable for a local bench.
fn reserve_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| fatal(&format!("bind: {e}"))))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()).unwrap_or_else(|e| fatal(&format!("addr: {e}"))))
        .collect()
}

fn fatal(msg: &str) -> ! {
    eprintln!("bench_svc: {msg}");
    std::process::exit(1)
}

/// Path to a sibling binary of this executable.
fn sibling(name: &str) -> PathBuf {
    let mut p = std::env::current_exe().unwrap_or_else(|e| fatal(&format!("current_exe: {e}")));
    p.set_file_name(name);
    p
}

fn spawn_node(addr: &str, cache_dir: &Path, peers: &[String], log: &Path) -> Child {
    let logf = std::fs::File::create(log).unwrap_or_else(|e| fatal(&format!("log {log:?}: {e}")));
    let mut cmd = Command::new(sibling("ktiler_serve"));
    cmd.arg("--addr")
        .arg(addr)
        .arg("--cache-dir")
        .arg(cache_dir)
        .arg("--workers")
        .arg("2")
        .arg("--queue")
        .arg("256")
        .arg("--peer-timeout-ms")
        .arg("2000");
    for p in peers {
        cmd.arg("--peer").arg(p);
    }
    cmd.stdout(Stdio::null())
        .stderr(logf)
        .spawn()
        .unwrap_or_else(|e| fatal(&format!("spawn ktiler_serve: {e}")))
}

fn spawn_gateway(addr: &str, nodes: &[String], queue: usize, log: &Path) -> Child {
    let logf = std::fs::File::create(log).unwrap_or_else(|e| fatal(&format!("log {log:?}: {e}")));
    let mut cmd = Command::new(sibling("ktiler_gateway"));
    cmd.arg("--addr")
        .arg(addr)
        .arg("--replicas")
        .arg("2")
        .arg("--vnodes")
        .arg(RING_VNODES.to_string())
        .arg("--seed")
        .arg(RING_SEED.to_string())
        .arg("--forwarders")
        .arg("8")
        .arg("--queue")
        .arg(queue.to_string())
        .arg("--node-timeout-ms")
        .arg("60000");
    for n in nodes {
        cmd.arg("--node").arg(n);
    }
    cmd.stdout(Stdio::null())
        .stderr(logf)
        .spawn()
        .unwrap_or_else(|e| fatal(&format!("spawn ktiler_gateway: {e}")))
}

/// Blocks until `addr` answers a PING, or panics after `timeout`.
fn wait_ready(addr: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(mut c) = NetClient::connect_timeout(addr, Duration::from_millis(500)) {
            if matches!(c.request(&Request::Ping), Ok(Response::Pong)) {
                return;
            }
        }
        if Instant::now() >= deadline {
            fatal(&format!("{addr} never became ready"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn send_shutdown(addr: &str) {
    if let Ok(mut c) = NetClient::connect_timeout(addr, Duration::from_millis(500)) {
        let _ = c.request(&Request::Shutdown);
    }
}

/// One measurement connection: a request written once, a response read
/// once, non-blocking throughout.
struct ClientConn {
    stream: TcpStream,
    dec: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    spec: usize,
    sent_at: Instant,
    outcome: Option<Result<(Outcome, String), String>>,
}

/// Sweeps every open connection once: flush pending writes, read what is
/// available, decode, and push each answered request's latency (µs) onto
/// `latencies_us`. Returns how many connections finished this sweep.
fn sweep(conns: &mut [ClientConn], latencies_us: &mut Vec<u64>) -> usize {
    let mut finished = 0;
    let mut buf = [0u8; 4096];
    let mut events = Vec::new();
    for c in conns.iter_mut() {
        if c.outcome.is_some() {
            continue;
        }
        while c.out_pos < c.out.len() {
            match c.stream.write(&c.out[c.out_pos..]) {
                Ok(0) => {
                    c.outcome = Some(Err("socket closed while writing".into()));
                    break;
                }
                Ok(n) => c.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    c.outcome = Some(Err(format!("write: {e}")));
                    break;
                }
            }
        }
        if c.outcome.is_some() {
            finished += 1;
            continue;
        }
        loop {
            match c.stream.read(&mut buf) {
                Ok(0) => {
                    c.outcome = Some(Err("eof before response".into()));
                    break;
                }
                Ok(n) => {
                    events.clear();
                    if let Err(e) = c.dec.feed(&buf[..n], &mut events) {
                        c.outcome = Some(Err(format!("frame: {e}")));
                        break;
                    }
                    if let Some(ev) = events.pop() {
                        c.outcome = Some(decode_response(&ev));
                        latencies_us.push(c.sent_at.elapsed().as_micros() as u64);
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    c.outcome = Some(Err(format!("read: {e}")));
                    break;
                }
            }
        }
        if c.outcome.is_some() {
            finished += 1;
        }
    }
    finished
}

/// Nearest-rank quantile of ascending `sorted`: the smallest sample with
/// at least a `q` share of all samples at or below it (0 when empty).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn decode_response(ev: &DecodeEvent) -> Result<(Outcome, String), String> {
    let DecodeEvent::Frame(payload) = ev else {
        return Err("foreign protocol version in response".into());
    };
    match Response::decode(payload) {
        Ok(Response::Schedule(r)) => Ok((r.outcome, r.text)),
        Ok(Response::Err(e)) => Err(format!("service error: {e}")),
        Ok(other) => Err(format!("unexpected response: {other:?}")),
        Err(e) => Err(format!("undecodable response: {e}")),
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let cfg = parse_config();
    if cfg.nodes == 0 || cfg.conns == 0 || cfg.hot_keys == 0 {
        usage();
    }
    std::fs::create_dir_all(&cfg.work_dir)
        .unwrap_or_else(|e| fatal(&format!("work dir {:?}: {e}", cfg.work_dir)));
    if let Some(parent) = cfg.out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }

    let total_specs = cfg.hot_keys + cfg.cold_keys;
    let specs: Vec<ScheduleRequest> = (0..total_specs).map(|i| spec_for(i, cfg.hot_keys)).collect();

    // Phase 1: single-node reference, computed in-process before any
    // timing starts.
    eprintln!("[bench_svc] computing single-node reference ({total_specs} schedules)");
    let t_ref = Instant::now();
    let reference: Vec<String> = {
        let svc = Service::start(ServiceConfig::new(cfg.work_dir.join("reference-cache")))
            .unwrap_or_else(|e| fatal(&format!("reference service: {e}")));
        let client = svc.client();
        let texts = specs
            .iter()
            .map(|req| {
                client
                    .schedule(req.clone())
                    .unwrap_or_else(|e| fatal(&format!("reference compute: {e}")))
                    .text
            })
            .collect();
        svc.shutdown();
        texts
    };
    eprintln!("[bench_svc] reference done in {:.1}s", t_ref.elapsed().as_secs_f64());

    // Spawn the ring and the gateway.
    let ports = reserve_ports(cfg.nodes + 1);
    let node_addrs: Vec<String> =
        ports[..cfg.nodes].iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let gw_addr = format!("127.0.0.1:{}", ports[cfg.nodes]);
    let mut children: Vec<(String, Option<Child>)> = Vec::new();
    for (i, addr) in node_addrs.iter().enumerate() {
        let peers: Vec<String> = node_addrs.iter().filter(|a| *a != addr).cloned().collect();
        let child = spawn_node(
            addr,
            &cfg.work_dir.join(format!("node{i}-cache")),
            &peers,
            &cfg.work_dir.join(format!("node{i}.log")),
        );
        children.push((addr.clone(), Some(child)));
    }
    let mut gateway =
        spawn_gateway(&gw_addr, &node_addrs, cfg.conns * 2, &cfg.work_dir.join("gateway.log"));
    for addr in &node_addrs {
        wait_ready(addr, Duration::from_secs(30));
    }
    wait_ready(&gw_addr, Duration::from_secs(30));
    eprintln!("[bench_svc] {} node(s) + gateway {gw_addr} up", cfg.nodes);

    // Phase 2: warm each hot key on its owner through the gateway, then
    // let one anti-entropy round per node copy the artifacts to every
    // other node.
    let t_warm = Instant::now();
    {
        let mut c = NetClient::connect(&gw_addr).unwrap_or_else(|e| fatal(&format!("warmup: {e}")));
        for (i, req) in specs.iter().take(cfg.hot_keys).enumerate() {
            match c.request(&Request::Schedule(req.clone())) {
                Ok(Response::Schedule(r)) => {
                    if r.text != reference[i] {
                        fatal(&format!("warmup response for hot key {i} != reference"));
                    }
                }
                other => fatal(&format!("warmup hot key {i}: {other:?}")),
            }
        }
    }
    for addr in &node_addrs {
        let mut c = NetClient::connect(addr).unwrap_or_else(|e| fatal(&format!("sync: {e}")));
        match c.request(&Request::Sync) {
            Ok(Response::Synced { failed: 0, .. }) => {}
            other => fatal(&format!("SYNC on {addr}: {other:?}")),
        }
    }
    eprintln!("[bench_svc] warmup done in {:.1}s", t_warm.elapsed().as_secs_f64());

    // Pick the victim before the clock starts: the primary owner of hot
    // key 0 — guaranteed to be serving warm traffic when it dies.
    let ring = HashRing::build(&node_addrs, RING_VNODES, RING_SEED);
    let victim = ring.owner_indices(&specs[0].routing_key(), 1)[0];

    // Phase 3: open every connection, write every request, sweep.
    let mut rng = SplitMix64(cfg.seed);
    let mut conns: Vec<ClientConn> = Vec::with_capacity(cfg.conns);
    for _ in 0..cfg.conns {
        let spec = if rng.uniform() < cfg.hot_frac {
            (rng.next() as usize) % cfg.hot_keys
        } else {
            cfg.hot_keys + (rng.next() as usize) % cfg.cold_keys.max(1)
        };
        let stream = {
            let mut attempt = 0;
            loop {
                match TcpStream::connect(&gw_addr) {
                    Ok(s) => break s,
                    Err(e) if attempt < 50 => {
                        attempt += 1;
                        eprintln!("[bench_svc] connect retry {attempt}: {e}");
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => fatal(&format!("connect: {e}")),
                }
            }
        };
        stream.set_nonblocking(true).unwrap_or_else(|e| fatal(&format!("nonblocking: {e}")));
        stream.set_nodelay(true).ok();
        let mut out = Vec::new();
        write_frame(&mut out, &Request::Schedule(specs[spec].clone()).encode())
            .unwrap_or_else(|e| fatal(&format!("encode: {e}")));
        conns.push(ClientConn {
            stream,
            dec: FrameDecoder::new(),
            out,
            out_pos: 0,
            spec,
            sent_at: Instant::now(),
            outcome: None,
        });
    }
    eprintln!("[bench_svc] {} connections open, driving requests", conns.len());

    let mut latencies_us = Vec::with_capacity(cfg.conns);
    let t0 = Instant::now();
    for c in conns.iter_mut() {
        c.sent_at = t0;
    }
    let mut done = 0usize;
    let mut killed = false;
    let kill_at = cfg.conns / 2;
    while done < cfg.conns {
        let finished = sweep(&mut conns, &mut latencies_us);
        done += finished;
        if cfg.kill && !killed && done >= kill_at {
            if let Some(child) = children[victim].1.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
            children[victim].1 = None;
            killed = true;
            eprintln!(
                "[bench_svc] killed node {victim} ({}) at {done}/{} responses",
                children[victim].0, cfg.conns
            );
        }
        if finished == 0 {
            if t0.elapsed() > Duration::from_secs(600) {
                fatal("measurement phase timed out after 600s");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let wall = t0.elapsed();
    latencies_us.sort_unstable();
    eprintln!("[bench_svc] {} responses in {:.1}s", cfg.conns, wall.as_secs_f64());

    // Phase 4: verdict.
    let mut client_errors = 0usize;
    let mut mismatches = 0usize;
    let mut hot_requests = 0usize;
    let mut hot_hits = 0usize;
    let mut outcome_counts: HashMap<&'static str, u64> = HashMap::new();
    for c in &conns {
        match c.outcome.as_ref().expect("all conns finished") {
            Err(e) => {
                client_errors += 1;
                eprintln!("[bench_svc] client error (spec {}): {e}", c.spec);
            }
            Ok((outcome, text)) => {
                *outcome_counts.entry(outcome.as_str()).or_insert(0) += 1;
                if *text != reference[c.spec] {
                    mismatches += 1;
                }
                if c.spec < cfg.hot_keys {
                    hot_requests += 1;
                    if matches!(outcome, Outcome::Hit | Outcome::PeerFill) {
                        hot_hits += 1;
                    }
                }
            }
        }
    }
    let warm_hit_rate = if hot_requests == 0 { 1.0 } else { hot_hits as f64 / hot_requests as f64 };
    let all_match = mismatches == 0;

    // Tear down: gateway first (it stops dialing nodes), then the nodes.
    send_shutdown(&gw_addr);
    let _ = gateway.wait();
    for (addr, child) in children.iter_mut() {
        if let Some(mut c) = child.take() {
            send_shutdown(addr);
            let _ = c.wait();
        }
    }

    let mut outcomes_json: Vec<String> =
        outcome_counts.iter().map(|(k, v)| format!("    \"{}\": {v}", k.to_lowercase())).collect();
    outcomes_json.sort();
    let unix =
        SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let json = format!(
        "{{\n  \"bench\": \"svc\",\n  \"small\": {},\n  \"generated_unix\": {unix},\n  \
         \"nodes\": {},\n  \"conns\": {},\n  \"requests\": {},\n  \"hot_keys\": {},\n  \
         \"cold_keys\": {},\n  \"hot_frac\": {},\n  \"killed_node\": {},\n  \
         \"wall_ms\": {},\n  \"throughput_rps\": {:.1},\n  \"p50_us\": {},\n  \
         \"p99_us\": {},\n  \"p999_us\": {},\n  \"warm_hit_rate\": {:.4},\n  \
         \"client_errors\": {client_errors},\n  \"mismatches\": {mismatches},\n  \
         \"all_match\": {all_match},\n  \"outcomes\": {{\n{}\n  }}\n}}\n",
        cfg.small,
        cfg.nodes,
        cfg.conns,
        cfg.conns,
        cfg.hot_keys,
        cfg.cold_keys,
        cfg.hot_frac,
        killed,
        wall.as_millis(),
        cfg.conns as f64 / wall.as_secs_f64(),
        nearest_rank(&latencies_us, 0.50),
        nearest_rank(&latencies_us, 0.99),
        nearest_rank(&latencies_us, 0.999),
        warm_hit_rate,
        outcomes_json.join(",\n"),
    );
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| fatal(&format!("write {:?}: {e}", cfg.out)));
    println!("{json}");
    eprintln!("[bench_svc] report written to {:?}", cfg.out);

    if client_errors > 0 || !all_match {
        fatal(&format!("{client_errors} client errors, {mismatches} mismatches"));
    }
}
