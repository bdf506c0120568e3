//! `socc-net` — flow-level network simulator for the SoC Cluster fabric.
//!
//! The paper's networking subsystem (§2.2) is a two-level switched tree:
//! five SoCs per PCB at 1 GbE, twelve PCB uplinks at 1 GbE, and a 20 Gbps
//! Ethernet Switch Board trunk. This crate models that fabric (and any
//! other static topology) at the *flow* level:
//!
//! - [`topology`]: nodes, directed links, BFS routing and the
//!   [`soc_cluster`](topology::Topology::soc_cluster) fabric builder;
//! - [`fairness`]: max-min fair bandwidth allocation (progressive filling);
//! - [`tcp`]: goodput efficiency and slow-start latency calibrated to the
//!   measured 903 Mbps / 0.44 ms inter-SoC path (§2.3);
//! - [`sim`]: the [`sim::FlowNet`] event-driven simulator mixing
//!   long-lived streams and finite transfers;
//! - [`packet`]: the opt-in packet-level engine ([`packet::PacketNet`]) used to
//!   cross-validate the flow model and calibrate its goodput factor.
//!
//! # Examples
//!
//! ```
//! use socc_net::sim::FlowNet;
//! use socc_net::tcp::TcpModel;
//! use socc_net::topology::Topology;
//! use socc_sim::units::DataSize;
//!
//! let fabric = Topology::soc_cluster(60);
//! let mut net = FlowNet::new(fabric.topology.clone(), TcpModel::inter_soc());
//! net.start_transfer(fabric.socs[0], fabric.socs[1], DataSize::megabytes(8.0)).unwrap();
//! let (finish, done) = net.run_to_idle();
//! assert_eq!(done.len(), 1);
//! assert!(finish.as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod failure;
pub mod fairness;
pub mod packet;
pub mod sim;
pub mod tcp;
pub mod topology;
pub mod wan;

pub use topology::LinkId;
