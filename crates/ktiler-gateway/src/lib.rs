//! The multi-node deployment layer over `ktiler-svc`: a consistent-hash
//! ring sharding the 128-bit schedule-key space across nodes, and a
//! gateway that routes requests to the owning shard and fails over — to
//! the next replica, then to a local recompute — when a node dies
//! mid-request.
//!
//! The deployment story (DESIGN.md §15):
//!
//! * Every node is a plain `ktiler_serve` process; nodes configured as
//!   peers read-through-fill each other's cache misses (`FETCH`) and
//!   repair each other's replicas by anti-entropy (`DIGEST`/`SYNC`) —
//!   the only ways artifacts move between nodes.
//! * The [`HashRing`](ring::HashRing) is computed independently by every
//!   participant from the shared `(node list, vnodes, seed)` — placement
//!   needs no coordination service.
//! * The [`Gateway`] speaks the same wire protocol as a node, so clients
//!   cannot tell the difference; it owns no cache and computes nothing
//!   (unless configured with a local fallback service for the
//!   all-replicas-down case).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gateway;
pub mod ring;

pub use gateway::{Gateway, GatewayConfig, NodeState};
pub use ring::HashRing;
