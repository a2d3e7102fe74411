//! # chipletqc
//!
//! A full reproduction of *Scaling Superconducting Quantum Computers
//! with Chiplet Architectures* (Smith, Ravi, Baker, Chong — MICRO 2022)
//! as a Rust library.
//!
//! Fixed-frequency transmon devices suffer *frequency collisions*:
//! fabrication variation pushes qubit-qubit detunings into resonance
//! windows that ruin cross-resonance gates, and the chance of a
//! collision grows with chip size, so collision-free yield collapses
//! for large monolithic chips. The paper's proposal — and this
//! library's subject — is to scale through **multi-chip modules
//! (MCMs)** of small, high-yield chiplets linked through a carrier
//! interposer.
//!
//! The workspace layers (all re-exported here):
//!
//! * [`chipletqc_topology`] — heavy-hex devices, chiplets, MCMs;
//! * [`chipletqc_collision`] — the Table I collision criteria;
//! * [`chipletqc_yield`] — Monte Carlo collision-free yield;
//! * [`chipletqc_noise`] — empirical detuning→infidelity + link noise;
//! * [`chipletqc_assembly`] — KGD binning, assembly, bump bonds;
//! * [`chipletqc_circuit`] / [`chipletqc_benchmarks`] /
//!   [`chipletqc_transpile`] / [`chipletqc_sim`] — the program side;
//! * [`lab`] — the shared fabricate → characterize → assemble →
//!   compare pipeline with caching;
//! * [`routing`] — routed circuits (per-edge gate usage) as a shared,
//!   store-backed product keyed by circuit × device × transpiler;
//! * [`experiments`] — one module per paper table/figure, each with a
//!   `paper()`-scale and `quick()`-scale configuration, a `run`
//!   function, and a plain-text renderer.
//!
//! # Quickstart
//!
//! ```
//! use chipletqc::lab::{Lab, LabConfig};
//! use chipletqc::prelude::*;
//!
//! // Compare a 3x3 MCM of 20-qubit chiplets against its 180-qubit
//! // monolithic counterpart (reduced batch for doc-test speed).
//! let lab = Lab::new(LabConfig::quick());
//! let spec = McmSpec::new(ChipletSpec::with_qubits(20).unwrap(), 3, 3);
//! let cmp = lab.compare(&spec);
//! assert_eq!(cmp.spec.num_qubits(), 180);
//! // The MCM assembles plenty of modules even at a reduced batch.
//! assert!(cmp.mcm_population > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod lab;
pub mod report;
pub mod routing;

pub use chipletqc_assembly;
pub use chipletqc_benchmarks;
pub use chipletqc_circuit;
pub use chipletqc_collision;
pub use chipletqc_math;
pub use chipletqc_noise;
pub use chipletqc_sim;
pub use chipletqc_store;
pub use chipletqc_topology;
pub use chipletqc_transpile;
pub use chipletqc_yield;

/// The commonly used types across the workspace.
pub mod prelude {
    pub use crate::lab::{ComparisonMode, Lab, LabConfig, SystemComparison};
    pub use crate::report::TextTable;
    pub use chipletqc_assembly::prelude::*;
    pub use chipletqc_benchmarks::suite::Benchmark;
    pub use chipletqc_circuit::circuit::Circuit;
    pub use chipletqc_circuit::qubit::Qubit;
    pub use chipletqc_collision::criteria::CollisionParams;
    pub use chipletqc_collision::frequencies::Frequencies;
    pub use chipletqc_math::rng::Seed;
    pub use chipletqc_noise::NoiseModel;
    pub use chipletqc_topology::device::Device;
    pub use chipletqc_topology::family::{ChipletSpec, MonolithicSpec};
    pub use chipletqc_topology::mcm::McmSpec;
    pub use chipletqc_topology::plan::FrequencyPlan;
    pub use chipletqc_transpile::pipeline::Transpiler;
    pub use chipletqc_yield::fabrication::FabricationParams;
}
