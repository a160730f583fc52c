//! Timing simulation: turns the policies' counted device operations into
//! response times — the §IV-B measurements (Figures 9–11).
//!
//! * [`service`] — the service-time model: how long one request's
//!   foreground operations take on the disks, the flash and the CPU;
//! * [`queue`] — virtual-time multi-server queues (the RAID's member
//!   disks, the SSD's channels);
//! * [`openloop`] — trace replay by arrival timestamp (the RAIDmeter
//!   experiment of Figure 9);
//! * [`des`] — a refined discrete-event replay: per-member-disk FIFO
//!   queues with seek-position-aware mechanical service times;
//! * [`closedloop`] — N back-to-back request threads over a Zipf source
//!   (the FIO experiment of Figures 10–11);
//! * [`factory`] — constructs any policy by name so experiments can sweep
//!   them uniformly;
//! * [`replay`] — the one content-tracking driver of the real-byte
//!   `KddEngine`: seeded page mutations, group commits, verified reads.
//!
//! Both counting drivers take a [`kdd_obs::Recorder`] (a disabled one
//! records nothing). The open loop also keeps a plain
//! [`replay_open_loop`], the observed form with a disabled recorder,
//! because the repository's benchmark package calls it by that name.

#![warn(missing_docs)]

pub mod closedloop;
pub mod des;
pub mod factory;
pub mod openloop;
pub mod queue;
pub mod replay;
pub mod service;

pub use closedloop::{run_closed_loop, ClosedLoopReport};
pub use des::{replay_des, DesReport};
pub use factory::{build_policy, PolicyKind};
pub use openloop::{
    obs_snapshot_policy, replay_open_loop, replay_open_loop_observed, OpenLoopReport,
};
pub use queue::MultiServer;
pub use replay::{replay_engine, EngineReplayReport};
pub use service::ServiceModel;
