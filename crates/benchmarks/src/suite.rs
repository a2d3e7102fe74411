//! The benchmark suite behind the Fig. 10 / Table II evaluations.
//!
//! Wraps all seven generators behind one enum and encodes the paper's
//! sizing rule: "Circuits were designed for 80 % system qubit
//! utilization to allocate ancilla for compiler mapping and
//! optimization." Structured benchmarks (adder, bit code) round down to
//! their nearest constructible size.

use chipletqc_circuit::circuit::Circuit;
use chipletqc_math::rng::Seed;

use crate::adder::largest_adder_within;
use crate::bitcode::largest_bitcode_within;
use crate::bv::{all_ones, bv_circuit};
use crate::ghz::ghz_circuit;
use crate::hamiltonian::{tfim_circuit, TfimParams};
use crate::primacy::{primacy_circuit, PrimacyParams};
use crate::qaoa::{qaoa_circuit, QaoaParams};

/// The paper's qubit-utilization target.
pub const UTILIZATION: f64 = 0.8;

/// One of the seven evaluation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// Bernstein–Vazirani hidden-string search.
    Bv,
    /// QAOA (p = 1, path graph).
    Qaoa,
    /// GHZ state preparation.
    Ghz,
    /// Cuccaro ripple-carry adder.
    Adder,
    /// Quantum-primacy random circuits.
    Primacy,
    /// Bit-flip-code syndrome measurement.
    BitCode,
    /// 1-D TFIM Trotter simulation.
    Hamiltonian,
}

impl Benchmark {
    /// All seven, in the paper's listing order.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::Bv,
        Benchmark::Qaoa,
        Benchmark::Ghz,
        Benchmark::Adder,
        Benchmark::Primacy,
        Benchmark::BitCode,
        Benchmark::Hamiltonian,
    ];

    /// The short tag used in the paper's Table II
    /// (`bv`, `q`, `g`, `a`, `p`, `bc`, `h`).
    pub fn tag(self) -> &'static str {
        match self {
            Benchmark::Bv => "bv",
            Benchmark::Qaoa => "q",
            Benchmark::Ghz => "g",
            Benchmark::Adder => "a",
            Benchmark::Primacy => "p",
            Benchmark::BitCode => "bc",
            Benchmark::Hamiltonian => "h",
        }
    }

    /// A human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bv => "Bernstein-Vazirani",
            Benchmark::Qaoa => "QAOA",
            Benchmark::Ghz => "GHZ",
            Benchmark::Adder => "Ripple-Carry Adder",
            Benchmark::Primacy => "Quantum Primacy",
            Benchmark::BitCode => "Bit Code",
            Benchmark::Hamiltonian => "Hamiltonian (TFIM)",
        }
    }

    /// Generates this benchmark at `logical_qubits` size (structured
    /// benchmarks round down to the nearest constructible size).
    ///
    /// `seed` only affects the randomized primacy benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `logical_qubits` is below the benchmark's minimum
    /// (2–4 qubits depending on structure).
    pub fn generate(self, logical_qubits: usize, seed: Seed) -> Circuit {
        match self {
            Benchmark::Bv => bv_circuit(logical_qubits, &all_ones(logical_qubits - 1)),
            Benchmark::Qaoa => qaoa_circuit(logical_qubits, &QaoaParams::p1()),
            Benchmark::Ghz => ghz_circuit(logical_qubits),
            Benchmark::Adder => largest_adder_within(logical_qubits)
                .unwrap_or_else(|| panic!("no adder fits in {logical_qubits} qubits")),
            Benchmark::Primacy => {
                primacy_circuit(logical_qubits, &PrimacyParams::paper(), seed)
            }
            Benchmark::BitCode => largest_bitcode_within(logical_qubits)
                .unwrap_or_else(|| panic!("no bit code fits in {logical_qubits} qubits")),
            Benchmark::Hamiltonian => tfim_circuit(logical_qubits, &TfimParams::paper()),
        }
    }

    /// Generates this benchmark at the paper's 80 % utilization of a
    /// `device_qubits`-qubit system.
    pub fn for_device_qubits(self, device_qubits: usize, seed: Seed) -> Circuit {
        self.generate(logical_width(device_qubits), seed)
    }
}

/// The logical width [`Benchmark::for_device_qubits`] generates at:
/// 80 % of `device_qubits`, at least 4.
pub fn logical_width(device_qubits: usize) -> usize {
    ((device_qubits as f64 * UTILIZATION).floor() as usize).max(4)
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_seven_generate_at_32_logical() {
        for b in Benchmark::ALL {
            let c = b.generate(32, Seed(1));
            assert!(c.num_qubits() <= 32, "{b} overflows");
            assert!(c.num_qubits() >= 31, "{b} wastes qubits: {}", c.num_qubits());
            assert!(c.count_2q() > 0, "{b} has no entanglement");
        }
    }

    #[test]
    fn utilization_rule() {
        let c = Benchmark::Ghz.for_device_qubits(100, Seed(1));
        assert_eq!(c.num_qubits(), 80);
        let c = Benchmark::Bv.for_device_qubits(40, Seed(1));
        assert_eq!(c.num_qubits(), 32);
    }

    #[test]
    fn structured_benchmarks_round_down() {
        // 32 logical: adder takes 2k+2 = 32 (k=15); bitcode 2d-1 = 31.
        assert_eq!(Benchmark::Adder.generate(32, Seed(1)).num_qubits(), 32);
        assert_eq!(Benchmark::BitCode.generate(32, Seed(1)).num_qubits(), 31);
        assert_eq!(Benchmark::Adder.generate(33, Seed(1)).num_qubits(), 32);
    }

    #[test]
    fn tags_match_table2() {
        let tags: Vec<&str> = Benchmark::ALL.iter().map(|b| b.tag()).collect();
        assert_eq!(tags, vec!["bv", "q", "g", "a", "p", "bc", "h"]);
    }

    #[test]
    fn minimum_floor_protects_small_devices() {
        // A 5-qubit device: 80% = 4 qubits, clamped to the minimum 4.
        let c = Benchmark::Ghz.for_device_qubits(5, Seed(1));
        assert_eq!(c.num_qubits(), 4);
    }

    #[test]
    fn display_and_name() {
        assert_eq!(Benchmark::Hamiltonian.to_string(), "Hamiltonian (TFIM)");
        assert_eq!(Benchmark::Primacy.name(), "Quantum Primacy");
    }
}
