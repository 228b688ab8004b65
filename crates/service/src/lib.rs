//! `fullview-service` — a long-running coverage-evaluation daemon.
//!
//! The one-shot `fvc` commands pay the fleet-construction cost (deploy,
//! spatial index, tile layout) on every invocation. This crate keeps a
//! [`CameraNetwork`](fullview_model::CameraNetwork) warm in a daemon and
//! answers coverage queries over a minimal line-delimited TCP protocol
//! (std-only: no async runtime, no serialization framework — the build
//! environment is fully offline).
//!
//! Layering, bottom to top:
//!
//! * [`protocol`] — the request/response wire codec (zero-copy request
//!   parsing: fields borrow from the line buffer).
//! * [`admission`] — per-client token-bucket admission control in front
//!   of the queue (`hello client=…` identity, `busy retry_after=` sheds).
//! * [`cache`] — content-addressed result cache (canonical-digest keys,
//!   LRU eviction, selective invalidation on fleet mutations).
//! * [`queue`] — bounded job queue + worker pool; the daemon's single
//!   back-pressure point.
//! * [`metrics`] — per-endpoint counters and latency quantiles behind
//!   the `stats` endpoint.
//! * [`snapshot`] — warm-state persistence: the fleet serialized with
//!   exact bit patterns and verified canonical fingerprints.
//! * [`verbs`] — the verb table and the one request validator.
//! * [`frontend`] — the accept and connection loops the daemon and the
//!   cluster coordinator share.
//! * [`server`] — the daemon: fleet, sweeps, cache, mutations, dispatch.
//! * [`client`] — the blocking client used by `fvc query`, the cluster
//!   coordinator, and tests (supports bounded-window pipelining).
//!
//! ```no_run
//! use fullview_service::{Client, Response, Server, ServiceConfig};
//!
//! let profile = fullview_model::NetworkProfile::homogeneous(
//!     fullview_model::SensorSpec::new(0.15, std::f64::consts::FRAC_PI_3).unwrap(),
//! );
//! let server = Server::start(ServiceConfig::new(profile)).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! match client.request("map side=24").unwrap() {
//!     Response::Ok(map) => print!("{map}"),
//!     Response::Err(message) => eprintln!("server: {message}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod frontend;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod snapshot;
pub mod verbs;
pub mod wal;

pub use admission::{AdmissionControl, AdmissionSnapshot, ANON_CLIENT};
pub use cache::{CacheStats, Lookup, ResultCache};
pub use client::Client;
pub use metrics::{Metrics, MetricsSnapshot};
pub use protocol::{Request, Response};
pub use queue::{JobQueue, SubmitError};
pub use server::{Server, ServiceConfig};
pub use snapshot::{read_snapshot, snapshot_from_text, snapshot_to_text, write_snapshot, Snapshot};
pub use wal::{read_wal, wal_path_for, WalOp, WalRecord, WalWriter};
