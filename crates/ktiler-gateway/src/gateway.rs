//! The gateway: a [`FrontEnd`] that owns no cache and runs no pipeline —
//! it routes each schedule request to the nodes owning its routing key
//! and relays the answer.
//!
//! **Routing.** The routing key is [`ScheduleRequest::routing_key`] —
//! computable from the request line alone — hashed onto the
//! [`HashRing`]; the first `replicas` distinct nodes in ring order are
//! the *owners*, tried in order. Because placement is deterministic,
//! every request for a given workload and operating point lands on the
//! same shard, whose cache therefore concentrates exactly that shard of
//! the key space.
//!
//! **Failover.** A transport failure (dead node, torn connection,
//! timeout), a nonsense answer, or a node-level rejection (`SHED`,
//! `SHUTDOWN`) moves on to the next owner. Failures that are
//! deterministic for the request (`BAD_REQUEST`, `PIPELINE`) are returned
//! as-is — every replica would answer the same. When every owner fails,
//! the gateway falls back to a local compute service when configured,
//! else reports `INTERNAL`. Idempotency makes all of this safe: a
//! schedule request is a pure function of its inputs, so trying it on two
//! nodes can only cost duplicate work, never wrong answers. Replicas get
//! their copies node to node — read-through peer fill on a miss and
//! `DIGEST`/`SYNC` anti-entropy — never from the gateway.
//!
//! **Health.** One state machine per node, `Up → Suspect → Down`, fed by
//! one failure streak: a prober thread `PING`s every node each
//! `probe_interval`, and failed forwards count too. One successful probe
//! or forward drives `→ Up`. Routing excludes `Down` and draining nodes
//! via [`HashRing::owner_indices_excluding`], so their keys fall to ring
//! successors *before* a request pays the discovery timeout, and tries
//! `Up` owners before `Suspect` ones, so a node that just failed is tried
//! last until a probe or a forward succeeds — reactive failover remains
//! the safety net for the window between a crash and the probe that
//! notices it. `DRAIN <addr>` marks a node draining (probed, never routed
//! to) for graceful restarts.
//!
//! The event loop hands [`Dispatch::Pending`] tickets to a pool of
//! forwarder threads (blocking I/O per forwarder, bounded by
//! `node_timeout`), so slow shards never stall the loop.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ktiler_svc::fault;
use ktiler_svc::metrics::LatencyHistogram;
use ktiler_svc::proto::{Request, Response};
use ktiler_svc::{
    Dispatch, FrontEnd, NetClient, ScheduleRequest, ScheduleResponse, Service, ServiceConfig,
    SvcError, Ticket, TicketSink,
};

use crate::ring::HashRing;

/// Tunables of a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Node addresses (`host:port`), the identity the ring hashes.
    pub nodes: Vec<String>,
    /// Owners per key: the primary plus `replicas - 1` successors.
    pub replicas: usize,
    /// Virtual nodes per node on the ring.
    pub vnodes: usize,
    /// Seed of the ring's point positions; every participant must agree.
    pub seed: u64,
    /// Forwarder threads draining the gateway queue (each holds one
    /// pooled connection per node).
    pub forwarders: usize,
    /// Queue capacity; a request beyond it sheds, exactly like a node's
    /// own queue. Sized for the 10k-connection benches by default.
    pub queue_capacity: usize,
    /// Connect/read/write timeout for one attempt against one node.
    pub node_timeout: Duration,
    /// When set, the gateway starts a local [`Service`] and computes
    /// requests itself after every owner has failed — degraded latency,
    /// zero client-visible errors.
    pub local_fallback: Option<ServiceConfig>,
    /// How often the health prober `PING`s every node; must be nonzero.
    /// A probe success is what clears a `Suspect` node that receives no
    /// traffic, so probing cannot be switched off.
    pub probe_interval: Duration,
    /// Consecutive failures that move a node `Up → Suspect`.
    pub suspect_after: u32,
    /// Consecutive failures that move a node `Suspect → Down` (counted
    /// from the first failure, so `down_after` must exceed
    /// `suspect_after`).
    pub down_after: u32,
}

impl GatewayConfig {
    /// A config with defaults sized for a handful of local nodes:
    /// 2 owners per key, 64 vnodes, 4 forwarders, a 16384-deep queue, a
    /// 10 s node timeout and a 500 ms probe interval.
    pub fn new(nodes: Vec<String>) -> Self {
        GatewayConfig {
            nodes,
            replicas: 2,
            vnodes: 64,
            seed: 0,
            forwarders: 4,
            queue_capacity: 16384,
            node_timeout: Duration::from_secs(10),
            local_fallback: None,
            probe_interval: Duration::from_millis(500),
            suspect_after: 1,
            down_after: 3,
        }
    }
}

/// The health state the prober assigns a node, ordered from most to
/// least preferred for routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeState {
    /// Answering probes (or forwards); routed to normally.
    Up,
    /// At least `suspect_after` consecutive failed probes or forwards;
    /// still routed to — one blip must not remap traffic — but only after
    /// the key's `Up` owners.
    Suspect,
    /// `down_after` consecutive failures; excluded from routing (its keys
    /// fall to ring successors) until a probe or forward succeeds again.
    Down,
}

impl NodeState {
    /// The stable token used in STATS JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            NodeState::Up => "up",
            NodeState::Suspect => "suspect",
            NodeState::Down => "down",
        }
    }
}

/// Prober bookkeeping for one node (behind the health mutex).
struct NodeHealth {
    state: NodeState,
    consecutive_failures: u32,
    draining: bool,
    to_suspect: u64,
    to_down: u64,
    to_up: u64,
}

impl NodeHealth {
    fn new() -> Self {
        NodeHealth {
            state: NodeState::Up,
            consecutive_failures: 0,
            draining: false,
            to_suspect: 0,
            to_down: 0,
            to_up: 0,
        }
    }
}

#[derive(Default)]
struct GwMetrics {
    requests: AtomicU64,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    sheds: AtomicU64,
    local_fallbacks: AtomicU64,
    errors: AtomicU64,
    probe_rounds: AtomicU64,
    forward_latency: LatencyHistogram,
}

#[derive(Default)]
struct NodeStats {
    forwarded: AtomicU64,
    failures: AtomicU64,
}

struct GwJob {
    req: ScheduleRequest,
    deadline: Option<Instant>,
    sink: TicketSink,
}

struct QueueState {
    jobs: VecDeque<GwJob>,
    shutdown: bool,
}

struct Inner {
    cfg: GatewayConfig,
    ring: HashRing,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// The prober sleeps on its own condvar (guarded by the queue mutex,
    /// whose shutdown flag it watches): if it shared `queue_cv`, an
    /// enqueue's `notify_one` could wake the prober instead of a
    /// forwarder and leave the job unserved.
    prober_cv: Condvar,
    metrics: GwMetrics,
    node_stats: Vec<NodeStats>,
    /// Per node: the membership state machine.
    health: Mutex<Vec<NodeHealth>>,
    local: Option<Service>,
}

/// The running gateway: hand it to
/// [`serve_front`](ktiler_svc::serve_front) to put it on the network.
pub struct Gateway {
    inner: Arc<Inner>,
    forwarders: Mutex<Vec<JoinHandle<()>>>,
    prober: Mutex<Option<JoinHandle<()>>>,
}

impl Gateway {
    /// Starts the gateway: builds the ring, starts the local fallback
    /// service when configured, and spawns the forwarder pool and the
    /// health prober.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a zero `probe_interval`; any
    /// error from starting the fallback service or spawning threads.
    pub fn start(cfg: GatewayConfig) -> io::Result<Gateway> {
        if cfg.probe_interval.is_zero() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "probe_interval must be > 0"));
        }
        let ring = HashRing::build(&cfg.nodes, cfg.vnodes, cfg.seed);
        let local = match &cfg.local_fallback {
            Some(sc) => Some(Service::start(sc.clone())?),
            None => None,
        };
        let n = cfg.nodes.len();
        let forwarder_count = cfg.forwarders.max(1);
        let inner = Arc::new(Inner {
            cfg,
            ring,
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            queue_cv: Condvar::new(),
            prober_cv: Condvar::new(),
            metrics: GwMetrics::default(),
            node_stats: (0..n).map(|_| NodeStats::default()).collect(),
            health: Mutex::new((0..n).map(|_| NodeHealth::new()).collect()),
            local,
        });
        let mut handles = Vec::with_capacity(forwarder_count);
        for i in 0..forwarder_count {
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ktiler-gw-forward-{i}"))
                    .spawn(move || inner.forwarder_loop())?,
            );
        }
        let prober = if n > 0 {
            let inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("ktiler-gw-prober".into())
                    .spawn(move || inner.prober_loop())?,
            )
        } else {
            None
        };
        Ok(Gateway { inner, forwarders: Mutex::new(handles), prober: Mutex::new(prober) })
    }

    /// The ring this gateway routes by.
    pub fn ring(&self) -> &HashRing {
        &self.inner.ring
    }

    /// Requests that failed over to a non-primary owner.
    pub fn failovers(&self) -> u64 {
        self.inner.metrics.failovers.load(Ordering::Relaxed)
    }

    /// Requests computed by the local fallback service.
    pub fn local_fallbacks(&self) -> u64 {
        self.inner.metrics.local_fallbacks.load(Ordering::Relaxed)
    }

    /// Completed prober rounds (one round probes every node once).
    pub fn probe_rounds(&self) -> u64 {
        self.inner.metrics.probe_rounds.load(Ordering::Relaxed)
    }

    /// The membership state and draining flag of `node`, or `None` for an
    /// address the gateway was not configured with.
    pub fn node_state(&self, node: &str) -> Option<(NodeState, bool)> {
        let ni = self.inner.cfg.nodes.iter().position(|n| n == node)?;
        let health = fault::lock(&self.inner.health);
        Some((health[ni].state, health[ni].draining))
    }

    /// The `(to_suspect, to_down, to_up)` transition counters of `node`.
    pub fn transitions(&self, node: &str) -> Option<(u64, u64, u64)> {
        let ni = self.inner.cfg.nodes.iter().position(|n| n == node)?;
        let health = fault::lock(&self.inner.health);
        Some((health[ni].to_suspect, health[ni].to_down, health[ni].to_up))
    }

    /// Sets (or clears) the draining flag of `node`: a draining node keeps
    /// answering probes but receives no routed traffic, so it can be
    /// restarted without a single failed-over request. Returns the flag as
    /// now set.
    ///
    /// # Errors
    ///
    /// [`SvcError::BadRequest`] when `node` is not in the configured list.
    pub fn drain(&self, node: &str, on: bool) -> Result<bool, SvcError> {
        let Some(ni) = self.inner.cfg.nodes.iter().position(|n| n == node) else {
            return Err(SvcError::BadRequest(format!("unknown node '{node}'")));
        };
        fault::lock(&self.inner.health)[ni].draining = on;
        Ok(on)
    }

    /// Renders the gateway's metrics as JSON (the `STATS` answer):
    /// top-level counters, the forward-latency histogram, and one object
    /// per node with its forwarded/failure counts and membership state.
    pub fn stats_json(&self) -> String {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let m = &self.inner.metrics;
        let health = fault::lock(&self.inner.health);
        let nodes = self
            .inner
            .cfg
            .nodes
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                let h = &health[i];
                format!(
                    "{{\"addr\": \"{addr}\", \"forwarded\": {}, \"failures\": {}, \
                     \"state\": \"{}\", \"draining\": {}, \
                     \"transitions\": {{\"to_suspect\": {}, \"to_down\": {}, \"to_up\": {}}}}}",
                    c(&self.inner.node_stats[i].forwarded),
                    c(&self.inner.node_stats[i].failures),
                    h.state.as_str(),
                    h.draining,
                    h.to_suspect,
                    h.to_down,
                    h.to_up,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    ");
        format!(
            "{{\n  \"gateway\": true,\n  \"requests\": {},\n  \"forwarded\": {},\n  \
             \"failovers\": {},\n  \"sheds\": {},\n  \"local_fallbacks\": {},\n  \
             \"errors\": {},\n  \"probe_rounds\": {},\n  \
             \"forward_latency_us\": {},\n  \"nodes\": [\n    {nodes}\n  ]\n}}",
            c(&m.requests),
            c(&m.forwarded),
            c(&m.failovers),
            c(&m.sheds),
            c(&m.local_fallbacks),
            c(&m.errors),
            c(&m.probe_rounds),
            m.forward_latency.to_json()
        )
    }
}

impl FrontEnd for Gateway {
    fn handle(&self, req: Request) -> Dispatch {
        match req {
            Request::Ping => Dispatch::Ready(Response::Pong),
            Request::Stats => Dispatch::Ready(Response::Stats(self.stats_json())),
            Request::Schedule(req) => {
                let deadline = req.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
                let (ticket, sink) = Ticket::pair(deadline);
                {
                    let mut q = fault::lock(&self.inner.queue);
                    if q.shutdown {
                        return Dispatch::Ready(Response::Err(SvcError::ShuttingDown));
                    }
                    if q.jobs.len() >= self.inner.cfg.queue_capacity {
                        fault_bump(&self.inner.metrics.sheds);
                        return Dispatch::Ready(Response::Err(SvcError::Shed));
                    }
                    fault_bump(&self.inner.metrics.requests);
                    q.jobs.push_back(GwJob { req, deadline, sink });
                    self.inner.queue_cv.notify_one();
                }
                Dispatch::Pending(ticket)
            }
            // The gateway holds no artifacts; peers exchange them node to
            // node.
            Request::Fetch(_) | Request::Digest | Request::Sync => {
                Dispatch::Ready(Response::Err(SvcError::BadRequest(
                    "FETCH/DIGEST/SYNC are node verbs; the gateway holds no artifacts".into(),
                )))
            }
            Request::Drain { node, on } => Dispatch::Ready(match self.drain(&node, on) {
                Ok(draining) => Response::Drained { node, draining },
                Err(e) => Response::Err(e),
            }),
            // Only reachable from direct callers; the loop intercepts it.
            Request::Shutdown => Dispatch::Ready(Response::Bye),
        }
    }

    fn wind_down(&self) {
        {
            let mut q = fault::lock(&self.inner.queue);
            q.shutdown = true;
            self.inner.queue_cv.notify_all();
            self.inner.prober_cv.notify_all();
        }
        for h in std::mem::take(&mut *fault::lock(&self.forwarders)) {
            let _ = h.join();
        }
        if let Some(h) = fault::lock(&self.prober).take() {
            let _ = h.join();
        }
        if let Some(local) = &self.inner.local {
            local.shutdown();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.wind_down();
    }
}

fn fault_bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

impl Inner {
    /// One forwarder: drains the queue until shutdown (serving whatever
    /// is still queued, like the service's own workers), holding one
    /// pooled connection per node.
    fn forwarder_loop(&self) {
        let mut conns: HashMap<usize, NetClient> = HashMap::new();
        loop {
            let job = {
                let mut q = fault::lock(&self.queue);
                loop {
                    if let Some(j) = q.jobs.pop_front() {
                        break j;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = fault::cv_wait(&self.queue_cv, q);
                }
            };
            self.forward(job, &mut conns);
        }
    }

    /// Routes one job: owners in ring order (`Up` before `Suspect`),
    /// failover on transport errors, nonsense answers and node-level
    /// rejections, local fallback when every owner failed.
    fn forward(&self, job: GwJob, conns: &mut HashMap<usize, NetClient>) {
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            job.sink.fulfill(Err(SvcError::DeadlineExceeded));
            return;
        }
        let t0 = Instant::now();
        let rk = job.req.routing_key();
        // Route around Down and draining nodes: their keys fall to ring
        // successors without rebuilding the ring, so every other key keeps
        // its owner. When exclusion leaves nothing (everything down or
        // draining), fall back to the unfiltered walk — a stale verdict
        // must not turn into a refusal. Suspect owners go after Up ones
        // (the sort is stable, so ring order holds within a state): they
        // are still tried when the Up ones fail — a hint, not a verdict.
        let owners = {
            let health = fault::lock(&self.health);
            let excluded: Vec<bool> =
                health.iter().map(|h| h.draining || h.state == NodeState::Down).collect();
            let mut owners = self.ring.owner_indices_excluding(&rk, self.cfg.replicas, &excluded);
            if owners.is_empty() {
                owners = self.ring.owner_indices(&rk, self.cfg.replicas);
            }
            owners.sort_by_key(|&ni| health[ni].state);
            owners
        };
        let mut result = None;
        for (attempt, &ni) in owners.iter().enumerate() {
            match self.forward_to(ni, &job.req, conns) {
                Ok(Response::Schedule(resp)) => {
                    fault_bump(&self.node_stats[ni].forwarded);
                    fault_bump(&self.metrics.forwarded);
                    if attempt > 0 {
                        fault_bump(&self.metrics.failovers);
                    }
                    self.record_success(ni);
                    result = Some(Ok(resp));
                    break;
                }
                Ok(Response::Err(e)) => match e {
                    // Node-level conditions: another owner may do better.
                    SvcError::Shed | SvcError::ShuttingDown => {
                        fault_bump(&self.node_stats[ni].failures);
                    }
                    // Deterministic for this request on every replica.
                    other => {
                        result = Some(Err(other));
                        break;
                    }
                },
                // A node answering nonsense is as unusable as a dead one.
                Ok(_) | Err(_) => {
                    fault_bump(&self.node_stats[ni].failures);
                    conns.remove(&ni);
                    self.record_failure(ni);
                }
            }
        }
        let result = result.unwrap_or_else(|| self.local_compute(&job.req));
        if result.is_err() {
            fault_bump(&self.metrics.errors);
        } else {
            self.metrics.forward_latency.record(t0.elapsed());
        }
        job.sink.fulfill(result);
    }

    /// One attempt against one node: reuse the pooled connection, and if
    /// that fails (the node may have restarted since), dial fresh once
    /// before reporting failure.
    fn forward_to(
        &self,
        ni: usize,
        req: &ScheduleRequest,
        conns: &mut HashMap<usize, NetClient>,
    ) -> io::Result<Response> {
        let request = Request::Schedule(req.clone());
        if let Some(c) = conns.get_mut(&ni) {
            match c.request(&request) {
                Ok(r) => return Ok(r),
                Err(_) => {
                    conns.remove(&ni);
                }
            }
        }
        let mut c = NetClient::connect_timeout(&self.cfg.nodes[ni], self.cfg.node_timeout)?;
        let r = c.request(&request)?;
        conns.insert(ni, c);
        Ok(r)
    }

    /// Every owner failed: compute locally when configured, else report.
    fn local_compute(&self, req: &ScheduleRequest) -> Result<ScheduleResponse, SvcError> {
        match &self.local {
            Some(svc) => {
                fault_bump(&self.metrics.local_fallbacks);
                svc.client().schedule(req.clone())
            }
            None => Err(SvcError::Internal("no replica reachable for this key".into())),
        }
    }

    /// One success (probe or forward) resets the failure streak and
    /// brings the node back `Up` — the recovery half of the state machine,
    /// so a restarted node gets its ring points (and only its keys) and
    /// its place in the try order back immediately.
    fn record_success(&self, ni: usize) {
        let mut health = fault::lock(&self.health);
        let h = &mut health[ni];
        h.consecutive_failures = 0;
        if h.state != NodeState::Up {
            h.state = NodeState::Up;
            h.to_up += 1;
        }
    }

    /// One failure (probe or forward) extends the streak; crossing
    /// `suspect_after` demotes `Up → Suspect`, crossing `down_after`
    /// demotes `Suspect → Down`. Counted jointly so a dead node under
    /// traffic is declared Down faster than the probe cadence alone.
    fn record_failure(&self, ni: usize) {
        let mut health = fault::lock(&self.health);
        let h = &mut health[ni];
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        if h.state == NodeState::Up && h.consecutive_failures >= self.cfg.suspect_after {
            h.state = NodeState::Suspect;
            h.to_suspect += 1;
        }
        if h.state == NodeState::Suspect && h.consecutive_failures >= self.cfg.down_after {
            h.state = NodeState::Down;
            h.to_down += 1;
        }
    }

    /// The prober: each `probe_interval`, `PING` every node over a fresh
    /// connection (a pooled one would hide a dead node behind a warm
    /// kernel buffer) and feed the result to the state machine. The wait
    /// sits on the queue mutex so shutdown wakes it immediately.
    fn prober_loop(&self) {
        let interval = self.cfg.probe_interval;
        // A probe answers in microseconds on a healthy node; bounding it
        // by the interval keeps one hung node from stalling the round,
        // with a floor so tests running at millisecond cadence still give
        // the TCP handshake room.
        let probe_timeout = self.cfg.node_timeout.min(interval).max(Duration::from_millis(50));
        loop {
            let next = Instant::now() + interval;
            {
                let mut q = fault::lock(&self.queue);
                loop {
                    if q.shutdown {
                        return;
                    }
                    let now = Instant::now();
                    if now >= next {
                        break;
                    }
                    let (guard, _) = fault::cv_wait_timeout(&self.prober_cv, q, next - now);
                    q = guard;
                }
            }
            for ni in 0..self.cfg.nodes.len() {
                let up = NetClient::connect_timeout(&self.cfg.nodes[ni], probe_timeout)
                    .and_then(|mut c| c.request(&Request::Ping))
                    .map(|r| matches!(r, Response::Pong))
                    .unwrap_or(false);
                if up {
                    self.record_success(ni);
                } else {
                    self.record_failure(ni);
                }
            }
            fault_bump(&self.metrics.probe_rounds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_stats_render_and_fetch_is_rejected() {
        let gw = Gateway::start(GatewayConfig::new(vec!["127.0.0.1:1".into()])).expect("start");
        let json = gw.stats_json();
        for field in [
            "gateway",
            "requests",
            "forwarded",
            "failovers",
            "sheds",
            "local_fallbacks",
            "errors",
            "forward_latency_us",
            "nodes",
            "addr",
            "state",
        ] {
            assert!(json.contains(&format!("\"{field}\"")), "{field} missing from {json}");
        }
        let Dispatch::Ready(Response::Err(SvcError::BadRequest(_))) =
            gw.handle(Request::Fetch(ktiler_svc::CacheKey { hi: 1, lo: 2 }))
        else {
            panic!("FETCH should be rejected at the gateway");
        };
    }

    #[test]
    fn a_zero_probe_interval_is_rejected() {
        let mut cfg = GatewayConfig::new(vec!["127.0.0.1:1".into()]);
        cfg.probe_interval = Duration::ZERO;
        let err = Gateway::start(cfg).err().expect("probing cannot be switched off");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn unreachable_nodes_without_fallback_yield_internal() {
        // Dial an address nothing listens on; both owners fail, no local
        // fallback is configured, so the client gets a structured error.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let mut cfg = GatewayConfig::new(vec![addr]);
        cfg.node_timeout = Duration::from_millis(200);
        cfg.forwarders = 1;
        let gw = Gateway::start(cfg).expect("start");
        let req = ScheduleRequest::new(ktiler_svc::WorkloadSpec::OptFlow {
            size: 32,
            iters: 2,
            levels: 2,
        });
        let Dispatch::Pending(ticket) = gw.handle(Request::Schedule(req)) else {
            panic!("schedule should queue");
        };
        let result = take(ticket);
        assert!(matches!(result, Err(SvcError::Internal(_))), "{result:?}");
    }

    /// Waits (bounded) for the forwarders to answer `ticket`.
    fn take(mut ticket: Ticket) -> Result<ScheduleResponse, SvcError> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(r) = ticket.try_take() {
                return r;
            }
            assert!(Instant::now() < deadline, "forwarder never answered");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn a_node_answering_nonsense_is_demoted_like_a_dead_one() {
        // A fake node that answers every frame with `OK PONG`.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                while let Ok(Some(_)) = ktiler_svc::proto::read_frame(&mut reader) {
                    if ktiler_svc::proto::write_frame(&mut writer, &Response::Pong.encode())
                        .is_err()
                    {
                        break;
                    }
                }
            }
        });
        let mut cfg = GatewayConfig::new(vec![addr.clone()]);
        // No probe round within the test: only the forward may move the
        // state.
        cfg.probe_interval = Duration::from_secs(60);
        cfg.forwarders = 1;
        cfg.node_timeout = Duration::from_secs(5);
        let gw = Gateway::start(cfg).expect("start");
        let req = ScheduleRequest::new(ktiler_svc::WorkloadSpec::OptFlow {
            size: 32,
            iters: 2,
            levels: 2,
        });
        let Dispatch::Pending(ticket) = gw.handle(Request::Schedule(req)) else {
            panic!("schedule should queue");
        };
        let result = take(ticket);
        assert!(matches!(result, Err(SvcError::Internal(_))), "{result:?}");
        assert_eq!(gw.node_state(&addr), Some((NodeState::Suspect, false)));
        assert_eq!(gw.transitions(&addr), Some((1, 0, 0)));
    }

    #[test]
    fn up_owners_are_tried_before_suspect_ones() {
        // Two live nodes; the key's primary is made Suspect by hand, so
        // the forward must go to the other owner first.
        let svc_dirs: Vec<_> = (0..2)
            .map(|i| {
                std::env::temp_dir().join(format!("ktiler-gw-order-{i}-{}", std::process::id()))
            })
            .collect();
        let servers: Vec<_> = svc_dirs
            .iter()
            .map(|d| {
                let _ = std::fs::remove_dir_all(d);
                let svc = Arc::new(Service::start(ServiceConfig::new(d)).expect("node"));
                ktiler_svc::serve_with("127.0.0.1:0", svc, ktiler_svc::ServerTuning::default())
                    .expect("serve")
            })
            .collect();
        let nodes: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let mut cfg = GatewayConfig::new(nodes.clone());
        cfg.probe_interval = Duration::from_secs(60);
        cfg.forwarders = 1;
        let gw = Gateway::start(cfg).expect("start");
        let req = ScheduleRequest::new(ktiler_svc::WorkloadSpec::OptFlow {
            size: 32,
            iters: 2,
            levels: 2,
        });
        let owners = gw.ring().owner_indices(&req.routing_key(), 2);
        let (primary, other) = (owners[0], owners[1]);
        gw.inner.record_failure(primary);
        assert_eq!(gw.node_state(&nodes[primary]), Some((NodeState::Suspect, false)));

        let Dispatch::Pending(ticket) = gw.handle(Request::Schedule(req)) else {
            panic!("schedule should queue");
        };
        take(ticket).expect("the Up owner answers");
        let forwarded = |ni: usize| gw.inner.node_stats[ni].forwarded.load(Ordering::Relaxed);
        assert_eq!((forwarded(primary), forwarded(other)), (0, 1));
        assert_eq!(gw.failovers(), 0, "trying the Up owner first is not a failover");
        assert_eq!(gw.node_state(&nodes[primary]), Some((NodeState::Suspect, false)));
        drop(gw);
        for s in servers {
            s.request_stop();
            drop(s.join());
        }
        for d in &svc_dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
