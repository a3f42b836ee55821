//! A consistent-hash sharding tier over multiple Drift gateways.
//!
//! One gateway's schedule cache thrashes once the working set of
//! distinct schedule keys outgrows its LRU. This crate adds a front
//! tier that speaks the same newline-delimited-JSON wire protocol as
//! the gateway (`docs/SERVING.md`) and routes every job to one of N
//! backend gateways by consistent hash of the job's **schedule key** —
//! the exact [`drift_core::schedule::ScheduleKey`] its execution will
//! look up. Per-shard key sets are therefore disjoint: each backend's
//! cache holds only its own `1/N` slice of the keyspace, which is what
//! makes the aggregate hit rate scale with shard count instead of
//! degrading under key-diverse load.
//!
//! The [`server::Router`] owns the unhappy paths — shard health checks
//! with ejection and re-admission, bounded retry-with-failover along
//! the ring's successor chain for shed and orphaned jobs (exactly one
//! response per accepted id, deadline budgets decremented across hops),
//! live resharding via `{"control":"reshard",...}`, and a graceful
//! drain that answers everything in flight. [`ring::HashRing`] is the
//! placement function; [`ring::route_key`] maps specs to keys.
//!
//! # Example
//!
//! ```rust
//! use drift_gateway::client::Client;
//! use drift_gateway::server::{Gateway, GatewayConfig};
//! use drift_gateway::protocol::Response;
//! use drift_router::server::{Router, RouterConfig};
//! use drift_serve::job::{JobKind, JobSpec};
//!
//! let gw = Gateway::start(
//!     "127.0.0.1:0",
//!     GatewayConfig::with_workers(2),
//!     drift_obs::Recorder::disabled(),
//!     drift_obs::Tracer::disabled(),
//!     None, // no persistent schedule store
//! )
//! .unwrap();
//! let router = Router::start(
//!     "127.0.0.1:0",
//!     &[gw.local_addr().to_string()],
//!     RouterConfig::default(),
//!     drift_obs::Recorder::disabled(),
//!     drift_obs::Tracer::disabled(),
//! )
//! .unwrap();
//! let mut client = Client::connect(&router.local_addr().to_string()).unwrap();
//! let spec = JobSpec {
//!     id: 7,
//!     seed: 1,
//!     kind: JobKind::Schedule { m: 128, k: 256, n: 128, fa: 0.25, fw: 0.5 },
//! };
//! match client.submit(&spec, None).unwrap() {
//!     Response::Result(result) => assert_eq!(result.id, 7),
//!     other => panic!("unexpected response {other:?}"),
//! }
//! let summary = router.shutdown();
//! assert_eq!(summary.accepted, 1);
//! gw.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod ring;
pub mod server;

pub use ring::{route_key, HashRing, MAX_VNODES};
pub use server::{Router, RouterConfig, RouterSummary};
