//! Client/server deployment protocol for HDG.
//!
//! The paper describes a protocol between `n` users and an untrusted
//! aggregator: the aggregator publishes the collection plan (grid
//! geometry + group assignment), each user's device produces exactly one
//! randomized report, and the aggregator reconstructs the grids from the
//! report stream. This crate makes that concrete:
//!
//! * [`plan`] — the public [`plan::SessionPlan`]: everything a client needs
//!   (ε, granularities, its group's target grid, the session's oracle
//!   policy and estimation approach). Contains no private data.
//! * [`client`] — the device side: record in, one wire report out, through
//!   whichever `privmdr_oracles::FrequencyOracle` the plan's policy selects
//!   for the client's group ([`client::ClientFactory`] hoists the per-group
//!   oracle construction when stamping out many clients).
//! * [`wire`] — a compact binary encoding of reports: length-prefixed
//!   [`wire::Batch`] frames whose 8-byte header carries the session's
//!   [`wire::MechanismTag`] oracle/approach discriminant, then 16 bytes per
//!   report (20 for the float-carrying oracles), built on `bytes`
//!   (justification for the dependency: zero-copy buffer management for
//!   the report stream).
//! * [`cursor`] — zero-copy ingestion: a borrowing [`cursor::FrameCursor`]
//!   that validates frames exactly like [`wire::Batch::decode`] but yields
//!   `(seed, y)` pairs straight from the input buffer, so contiguous
//!   streams reach the support kernel without materializing a
//!   `Vec<Report>`.
//! * [`server`] — streaming ingestion: per-group frequency-oracle support
//!   accumulators that never buffer raw reports, a sharded parallel batch
//!   path that is bit-identical to serial ingestion, and an
//!   approach-parameterized finalizer producing a fitted `privmdr-core`
//!   HDG or TDG model or a serializable snapshot of it.
//! * [`serve`] — the read path: a [`serve::QueryServer`] restores a
//!   `privmdr_core::ModelSnapshot` (shipped via the wire frames in
//!   [`wire`]) and answers framed query batches, sharding each batch
//!   across threads with answers bit-identical to a serial pass.
//! * [`stream`] — long-lived deployment shapes: an
//!   [`stream::EpochCollector`] that cuts cumulative per-epoch snapshots
//!   without halting ingestion, and a `CollectorState` wire frame (`0xCC`)
//!   that lets geographically split collectors fan in through
//!   [`server::Collector::merge`] — both bit-identical to the one-shot
//!   path by construction.
//! * [`registry`] — the multi-tenant serving tier: a
//!   [`registry::SnapshotRegistry`] keyed by session id whose tenants
//!   hot-swap epochs behind an `Arc` (in-flight batches finish on the old
//!   epoch) with a bounded LRU answer cache in front of each tenant,
//!   cached ≡ uncached ≡ single-tenant bit for bit.
//! * [`served`] — the daemon loop over the registry: a tag-versioned
//!   session envelope (`0x5E`) routing the existing snapshot/query frames
//!   to tenants, so `collect --epoch-every` output feeds a
//!   [`served::ServedNode`] directly.
//!
//! The end-to-end path is equivalent to `Hdg::fit` in `SimMode::Exact`
//! (tests verify the accuracy statistically); the difference is that here
//! the pieces are separated across a wire boundary the way a real
//! deployment would be.

pub mod client;
pub mod cursor;
pub mod plan;
pub mod registry;
pub mod serve;
pub mod served;
pub mod server;
pub mod stream;
pub mod wire;

pub use client::{Client, ClientFactory};
pub use cursor::{FrameCursor, ReportFrame};
pub use plan::{GroupTarget, SessionPlan};
pub use registry::{AnswerCache, CacheStats, PublishReceipt, SnapshotRegistry, Tenant};
pub use serve::QueryServer;
pub use served::{
    decode_session_frame, encode_session_open, encode_session_route, session_open_to_bytes,
    session_route_to_bytes, ServedNode, ServedStats, SessionFrame,
};
pub use server::Collector;
pub use stream::{
    collector_state_to_bytes, decode_collector_state, encode_collector_state, EpochCollector,
    EpochCut,
};
pub use wire::{
    decode_snapshot, encode_snapshot, snapshot_to_bytes, AnswerBatch, Batch, MechanismTag,
    QueryBatch, Report,
};

// Re-exported so protocol consumers can name the plan's mechanism knobs
// without depending on the oracle crate directly.
pub use privmdr_core::ApproachKind;
pub use privmdr_oracles::OraclePolicy;

/// Errors from protocol handling.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The wire buffer is truncated or malformed.
    Malformed(&'static str),
    /// A report referenced a group outside the plan.
    UnknownGroup(u32),
    /// Plan parameters are invalid.
    BadPlan(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Malformed(what) => write!(f, "malformed report: {what}"),
            ProtocolError::UnknownGroup(g) => write!(f, "report for unknown group {g}"),
            ProtocolError::BadPlan(msg) => write!(f, "invalid session plan: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}
