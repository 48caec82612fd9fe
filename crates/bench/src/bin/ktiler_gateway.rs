//! `ktiler_gateway` — route schedule requests across a ring of
//! `ktiler_serve` nodes.
//!
//! Starts a [`ktiler_gateway::Gateway`] over the given node addresses and
//! serves the same framed wire protocol the nodes speak, so clients point
//! at the gateway and need not know the ring exists. Runs until a
//! `SHUTDOWN` request arrives, then dumps the gateway stats as JSON.
//!
//! ```text
//! ktiler_gateway --node HOST:PORT [--node HOST:PORT]...
//!                [--addr HOST:PORT] [--replicas N] [--vnodes N]
//!                [--seed N] [--forwarders N] [--queue N]
//!                [--node-timeout-ms N] [--fallback-cache-dir DIR]
//!                [--probe-interval-ms N] [--suspect-after N]
//!                [--down-after N] [--port-file PATH] [--stats-out PATH]
//! ```
//!
//! Defaults mirror [`ktiler_gateway::GatewayConfig::new`]: 2 owners per
//! key, 64 virtual nodes, seed 0, 4 forwarders, a 16384-deep queue and a
//! 10 s per-node timeout. `--fallback-cache-dir` arms the local-recompute
//! fallback: when every owner of a key is unreachable the gateway
//! computes the schedule itself (cached in the given directory) instead
//! of erroring. An unknown flag exits 2 with the usage text.
//!
//! The health prober `PING`s every node each `--probe-interval-ms`
//! (default 500; must be positive) and, together with failed forwards,
//! drives the per-node `Up → Suspect → Down` membership state shown in
//! `STATS`; `Up` owners are tried before `Suspect` ones.
//! `--suspect-after` / `--down-after` set the consecutive-failure
//! thresholds. `DRAIN HOST:PORT` (see `ktiler_tool client drain`) marks a
//! node for graceful restart. Replicas get their copies node to node
//! (peer fill and anti-entropy, see `ktiler_serve`), never from the
//! gateway.

use std::sync::Arc;
use std::time::Duration;

use ktiler_gateway::{Gateway, GatewayConfig};
use ktiler_svc::{serve_front, ServerTuning, ServiceConfig};

/// Every flag `ktiler_gateway` accepts; each takes one value.
const FLAGS: &[&str] = &[
    "--node",
    "--addr",
    "--replicas",
    "--vnodes",
    "--seed",
    "--forwarders",
    "--queue",
    "--node-timeout-ms",
    "--fallback-cache-dir",
    "--probe-interval-ms",
    "--suspect-after",
    "--down-after",
    "--port-file",
    "--stats-out",
];

/// Whether the command line is nothing but `--flag VALUE` pairs naming
/// flags in [`FLAGS`], so a misspelled or retired flag is a usage error
/// instead of a silently ignored setting.
fn flags_are_known() -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    args.chunks(2).all(|pair| matches!(pair, [flag, _] if FLAGS.contains(&flag.as_str())))
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn arg_values(name: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).filter(|w| w[0] == name).map(|w| w[1].clone()).collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: ktiler_gateway --node HOST:PORT [--node HOST:PORT]... [--addr HOST:PORT] \
         [--replicas N] [--vnodes N] [--seed N] [--forwarders N] [--queue N] \
         [--node-timeout-ms N] [--fallback-cache-dir DIR] [--probe-interval-ms N>0] \
         [--suspect-after N] [--down-after N] [--port-file PATH] [--stats-out PATH]"
    );
    std::process::exit(2);
}

fn arg_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    match arg_value(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
    }
}

fn arg_millis(name: &str, default: Duration) -> Duration {
    match arg_value(name) {
        None => default,
        Some(n) => Duration::from_millis(n.parse().unwrap_or_else(|_| usage())),
    }
}

fn main() {
    let nodes = arg_values("--node");
    if nodes.is_empty() || !flags_are_known() {
        usage();
    }
    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:0".into());

    let mut cfg = GatewayConfig::new(nodes);
    cfg.replicas = arg_parse("--replicas", cfg.replicas);
    cfg.vnodes = arg_parse("--vnodes", cfg.vnodes);
    cfg.seed = arg_parse("--seed", cfg.seed);
    cfg.forwarders = arg_parse("--forwarders", cfg.forwarders);
    cfg.queue_capacity = arg_parse("--queue", cfg.queue_capacity);
    cfg.node_timeout = arg_millis("--node-timeout-ms", cfg.node_timeout);
    if let Some(dir) = arg_value("--fallback-cache-dir") {
        cfg.local_fallback = Some(ServiceConfig::new(&dir));
    }
    cfg.probe_interval = arg_millis("--probe-interval-ms", cfg.probe_interval);
    if cfg.probe_interval.is_zero() {
        usage();
    }
    cfg.suspect_after = arg_parse("--suspect-after", cfg.suspect_after);
    cfg.down_after = arg_parse("--down-after", cfg.down_after);

    let gw = match Gateway::start(cfg) {
        Ok(g) => Arc::new(g),
        Err(e) => {
            eprintln!("error: cannot start gateway: {e}");
            std::process::exit(1);
        }
    };
    let server = match serve_front(addr.as_str(), Arc::clone(&gw), ServerTuning::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };

    let local = server.local_addr();
    println!("gateway on {local} routing to {} node(s)", gw.ring().nodes().len());
    if let Some(path) = arg_value("--port-file") {
        if let Err(e) = std::fs::write(&path, format!("{local}\n")) {
            eprintln!("error: cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }

    let gw = server.join();
    let stats = gw.stats_json();
    eprintln!("{stats}");
    if let Some(path) = arg_value("--stats-out") {
        if let Err(e) = std::fs::write(&path, &stats) {
            eprintln!("error: cannot write stats file {path}: {e}");
            std::process::exit(1);
        }
    }
}
