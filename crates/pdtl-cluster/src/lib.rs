//! PDTL distributed runtime.
//!
//! Implements the master/worker protocol of the paper's Figure 1 on a
//! *simulated cluster*: `N` node tasks × `P` worker threads each, every
//! node owning a private on-disk replica of the oriented graph and a
//! per-core memory budget. The protocol steps are exactly the paper's:
//!
//! 1. the master orients the graph (once, in parallel);
//! 2. the oriented graph is **replicated** to every node's local disk —
//!    the `Θ(N|E|)` term of the network bound — with the master starting
//!    its own computation before the transfers finish;
//! 3. each processor receives a configuration `C_{i,j}`: its memory
//!    budget and the contiguous pivot-edge range it is responsible for;
//! 4. nodes run MGT per core and send counts (and triangle lists, when
//!    listing) back; the master sums them atomically.
//!
//! Every byte that would cross the network — configurations, graph
//! replicas, results, triangle batches — passes through a counted
//! [`transport`], so Theorem IV.3's `Θ(NP + N|E| + T)` network bound is
//! measured, and a configurable [`netmodel`] converts bytes into modeled
//! copy times (Table III's copy columns) on any host.

pub mod error;
pub mod fault;
pub mod message;
pub mod netmodel;
pub mod node;
pub mod report;
pub mod runner;
pub mod server;
pub mod tcp;
pub mod transport;

pub use error::{ClusterError, Result};
pub use fault::{FaultKind, FaultPlan, FaultSpec, FAULT_ENV};
pub use message::{
    CatalogGraphInfo, Message, NodeDirectives, NodeFault, QueryOperation, QueryOptions, ServerStats,
};
pub use netmodel::{NetModel, NetTraffic};
pub use report::{ClusterReport, NodeReport};
pub use runner::{ClusterConfig, ClusterRunner, RetryPolicy, TransportKind};
pub use server::{Catalog, QueryReply, ServeClient, ServeConfig, Server};
