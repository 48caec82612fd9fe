//! Multi-node chaos: kill the node that owns a key while clients keep
//! asking for it, restart a node with a cold cache into a ring of warm
//! peers, converge an empty restart back to warm over anti-entropy with
//! no client traffic at all, and flap a node `Up → Down → Up` under the
//! gateway's health prober. All end the same way — every answer
//! byte-identical to the single-node reference, zero client-visible
//! errors.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ktiler_gateway::{Gateway, GatewayConfig, NodeState};
use ktiler_svc::proto::{Request, Response};
use ktiler_svc::{
    digest_from_peer, fetch_from_peer, serve_front, serve_with, NetClient, Outcome,
    ScheduleRequest, ScheduleResponse, ServerTuning, Service, ServiceConfig, WorkloadSpec,
};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ktiler-chaos-multi-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_request() -> ScheduleRequest {
    ScheduleRequest::new(WorkloadSpec::OptFlow { size: 64, iters: 3, levels: 2 })
}

/// One in-process "node": a [`Service`] behind the event-loop server.
fn start_node(tag: &str, peers: Vec<String>) -> (ktiler_svc::Server, Arc<Service>, String) {
    start_node_with(tag, "127.0.0.1:0", peers, None)
}

/// Like [`start_node`] but binding a specific address (a node "restart"
/// reclaims its old port) and optionally running anti-entropy against
/// the peers every `sync_interval`.
fn start_node_with(
    tag: &str,
    addr: &str,
    peers: Vec<String>,
    sync_interval: Option<Duration>,
) -> (ktiler_svc::Server, Arc<Service>, String) {
    let mut cfg = ServiceConfig::new(tmp_dir(tag));
    cfg.workers = 1;
    cfg.peers = peers;
    cfg.peer_timeout = Duration::from_millis(2000);
    cfg.sync_interval = sync_interval;
    let svc = Arc::new(Service::start(cfg).expect("start node service"));
    let server = serve_with(addr, Arc::clone(&svc), ServerTuning::default()).expect("serve node");
    let addr = server.local_addr().to_string();
    (server, svc, addr)
}

fn schedule_via(addr: &str, req: &ScheduleRequest) -> ScheduleResponse {
    let mut c = NetClient::connect(addr).expect("connect");
    match c.request(&Request::Schedule(req.clone())).expect("request") {
        Response::Schedule(r) => r,
        other => panic!("expected a schedule, got {other:?}"),
    }
}

/// The single-node reference: what one isolated service computes for the
/// request. Every multi-node answer must be byte-identical to this.
fn reference_text(tag: &str, req: &ScheduleRequest) -> String {
    let svc = Service::start(ServiceConfig::new(tmp_dir(tag))).expect("reference service");
    let text = svc.client().schedule(req.clone()).expect("reference compute").text;
    svc.shutdown();
    text
}

#[test]
fn killing_the_owning_node_fails_over_byte_identically() {
    let req = small_request();
    let reference = reference_text("ref-kill", &req);

    let (server_a, svc_a, addr_a) = start_node("kill-a", vec![]);
    let (server_b, svc_b, addr_b) = start_node("kill-b", vec![]);
    let nodes = vec![addr_a.clone(), addr_b.clone()];

    let mut gcfg = GatewayConfig::new(nodes.clone());
    gcfg.forwarders = 2;
    gcfg.node_timeout = Duration::from_secs(10);
    let gw = Arc::new(Gateway::start(gcfg).expect("start gateway"));
    let owner_addr = gw.ring().primary(&req.routing_key()).expect("owner").to_string();
    let gw_server =
        serve_front("127.0.0.1:0", Arc::clone(&gw), ServerTuning::default()).expect("serve gw");
    let gw_addr = gw_server.local_addr().to_string();

    // Warm: computed on the owner.
    let first = schedule_via(&gw_addr, &req);
    assert_eq!(first.text, reference, "warm response diverged from the reference");

    // Kill the owning node: server torn down, service stopped, port gone.
    let (dead_server, dead_svc) =
        if owner_addr == addr_a { (server_a, svc_a) } else { (server_b, svc_b) };
    drop(dead_server);
    dead_svc.shutdown();

    // The gateway's pooled connection to the owner is now dead; the next
    // requests must fail over to the replica with byte-identical answers
    // and zero client-visible errors.
    for _ in 0..3 {
        let resp = schedule_via(&gw_addr, &req);
        assert_eq!(resp.text, reference, "failover response diverged from the reference");
        assert_ne!(
            resp.outcome,
            Outcome::DegradedUntiled,
            "failover must serve the real schedule, not the degraded fallback"
        );
    }
    assert!(gw.failovers() >= 1, "the gateway never recorded a failover");

    gw_server.request_stop();
    let gw = gw_server.join();
    drop(gw);
}

#[test]
fn restarted_node_read_through_fills_then_serves_hits() {
    let req = small_request();
    let reference = reference_text("ref-restart", &req);

    // Node A computes and caches the schedule.
    let (server_a, _svc_a, addr_a) = start_node("restart-a", vec![]);
    let computed = schedule_via(&addr_a, &req);
    assert_eq!(computed.outcome, Outcome::Miss, "fresh node should compute");
    assert_eq!(computed.text, reference);

    // Node B comes up (a restart: empty cache) with A as its peer. Its
    // first answer must be a read-through fill from A — no recompute —
    // and every answer after that a plain local hit.
    let (server_b, _svc_b, addr_b) = start_node("restart-b", vec![addr_a.clone()]);
    let filled = schedule_via(&addr_b, &req);
    assert_eq!(filled.outcome, Outcome::PeerFill, "expected a peer fill, got {filled:?}");
    assert_eq!(filled.text, reference, "peer-filled schedule diverged from the reference");

    let hit = schedule_via(&addr_b, &req);
    assert_eq!(hit.outcome, Outcome::Hit, "the fill should have stored the artifact locally");
    assert_eq!(hit.text, reference);

    drop(server_a);
    drop(server_b);
}

#[test]
fn empty_restarted_node_converges_to_digest_parity_via_anti_entropy_alone() {
    // Warm node A with three distinct artifacts through client traffic.
    let (server_a, _svc_a, addr_a) = start_node("sync-a", vec![]);
    let requests: Vec<ScheduleRequest> = [(64, 3, 2), (96, 3, 2), (64, 4, 2)]
        .iter()
        .map(|&(size, iters, levels)| {
            ScheduleRequest::new(WorkloadSpec::OptFlow { size, iters, levels })
        })
        .collect();
    for req in &requests {
        assert_eq!(schedule_via(&addr_a, req).outcome, Outcome::Miss);
    }
    let timeout = Duration::from_millis(2000);
    let warm = digest_from_peer(&addr_a, timeout).expect("digest A");
    assert_eq!(warm.len(), requests.len());

    // Node B starts empty (the restart) with A as a peer and a fast
    // anti-entropy loop. Not one client request touches B: convergence
    // must come from the DIGEST/FETCH exchange alone.
    let (server_b, svc_b, addr_b) = start_node_with(
        "sync-b",
        "127.0.0.1:0",
        vec![addr_a.clone()],
        Some(Duration::from_millis(50)),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let local = digest_from_peer(&addr_b, timeout).expect("digest B");
        if local == warm {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "anti-entropy never reached digest parity: {} of {} keys",
            local.len(),
            warm.len()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Parity is not just key names: every pulled artifact is
    // byte-identical to the warm node's copy, and serving one is a plain
    // local HIT (no peer fill, no recompute).
    for key in &warm {
        let a = fetch_from_peer(&addr_a, key, timeout).expect("fetch from A");
        let b = fetch_from_peer(&addr_b, key, timeout).expect("fetch from B");
        assert_eq!(a, b, "pulled artifact diverged for {key}");
    }
    for req in &requests {
        let resp = schedule_via(&addr_b, req);
        assert_eq!(resp.outcome, Outcome::Hit, "a synced key must serve as a local hit");
    }

    svc_b.shutdown();
    drop(server_b);
    drop(server_a);
}

#[test]
fn flapping_node_walks_up_down_up_with_zero_client_errors() {
    let req = small_request();
    let reference = reference_text("ref-flap", &req);

    let (server_a, _svc_a, addr_a) = start_node("flap-a", vec![]);
    let (server_b, svc_b, addr_b) = start_node("flap-b", vec![]);

    let mut gcfg = GatewayConfig::new(vec![addr_a.clone(), addr_b.clone()]);
    // Probe fast so the test sees the transitions.
    gcfg.forwarders = 2;
    gcfg.node_timeout = Duration::from_secs(5);
    gcfg.probe_interval = Duration::from_millis(25);
    gcfg.suspect_after = 1;
    gcfg.down_after = 2;
    let gw = Arc::new(Gateway::start(gcfg).expect("start gateway"));
    let owner_addr = gw.ring().primary(&req.routing_key()).expect("owner").to_string();
    let gw_server =
        serve_front("127.0.0.1:0", Arc::clone(&gw), ServerTuning::default()).expect("serve gw");
    let gw_addr = gw_server.local_addr().to_string();

    let first = schedule_via(&gw_addr, &req);
    assert_eq!(first.text, reference);

    // Kill the owner. The prober must walk it Up → Suspect → Down.
    let (dead_server, dead_svc) =
        if owner_addr == addr_a { (server_a, _svc_a) } else { (server_b, svc_b) };
    drop(dead_server);
    dead_svc.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while gw.node_state(&owner_addr).expect("known node").0 != NodeState::Down {
        assert!(Instant::now() < deadline, "prober never declared the dead node Down");
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats_down = gw.stats_json();
    assert!(
        stats_down.contains("\"state\": \"down\""),
        "STATS must show the down node:\n{stats_down}"
    );

    // While the node is down, traffic remaps to the replica with
    // byte-identical answers and zero client-visible errors.
    for _ in 0..3 {
        let resp = schedule_via(&gw_addr, &req);
        assert_eq!(resp.text, reference, "down-window response diverged");
    }

    // Restart the node on its old port (empty cache — the worst case);
    // the prober must bring it back Up and restore its placement.
    let (server_back, svc_back, addr_back) =
        start_node_with("flap-restart", &owner_addr, vec![], None);
    assert_eq!(addr_back, owner_addr, "the restart must reclaim the old address");
    let deadline = Instant::now() + Duration::from_secs(10);
    while gw.node_state(&owner_addr).expect("known node").0 != NodeState::Up {
        assert!(Instant::now() < deadline, "prober never brought the restarted node back Up");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (to_suspect, to_down, to_up) = gw.transitions(&owner_addr).expect("known node");
    assert!(
        to_suspect >= 1 && to_down >= 1 && to_up >= 1,
        "transitions not recorded: {to_suspect}/{to_down}/{to_up}"
    );

    // And the answers stayed byte-identical across the whole flap.
    for _ in 0..3 {
        let resp = schedule_via(&gw_addr, &req);
        assert_eq!(resp.text, reference, "post-recovery response diverged");
    }
    assert!(gw.probe_rounds() >= 1);

    gw_server.request_stop();
    drop(gw_server.join());
    svc_back.shutdown();
    drop(server_back);
    drop(gw);
}
