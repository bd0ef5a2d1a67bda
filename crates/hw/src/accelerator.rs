//! Accelerator (GPU) specifications.
//!
//! Peak throughput numbers follow Table 9 of the paper. One subtlety the
//! paper calls out in Section 7.6: to keep convergence identical across
//! clusters they run GEMMs with FP32 accumulation, which roughly *halves*
//! the effective matmul throughput of the RTX 4090 (330 → ~165 TFLOPS)
//! while the A100 keeps its full 312 TFLOPS. The `effective_matmul_flops`
//! field captures the achievable peak; `marketing_flops` keeps the
//! datasheet number used for MFU reporting.

/// Static description of one accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorSpec {
    /// Human-readable model name, e.g. `"RTX 4090"`.
    pub name: &'static str,
    /// On-device memory in bytes.
    pub memory_bytes: u64,
    /// Datasheet FP16 tensor throughput in FLOP/s (used as the MFU
    /// denominator, matching the paper).
    pub marketing_flops: f64,
    /// Achievable dense-GEMM throughput in FLOP/s after accounting for the
    /// FP32-accumulation penalty described in Section 7.6.
    pub effective_matmul_flops: f64,
    /// Device memory bandwidth in bytes/s (bounds memory-bound kernels such
    /// as softmax and normalisation).
    pub memory_bandwidth: f64,
    /// Board power in watts (Section 9 discusses operating cost).
    pub power_watts: f64,
}

impl AcceleratorSpec {
    /// NVIDIA RTX 4090, 24 GB — the paper's cost-effective accelerator.
    pub fn rtx4090() -> Self {
        Self {
            name: "RTX 4090",
            memory_bytes: 24 * GIB,
            marketing_flops: 330e12,
            // FP32 accumulation halves the throughput on Ada consumer parts.
            effective_matmul_flops: 165e12,
            memory_bandwidth: 1008e9,
            power_watts: 450.0,
        }
    }

    /// NVIDIA A100 80 GB SXM — the paper's reference datacentre accelerator.
    pub fn a100_80g() -> Self {
        Self {
            name: "A100 80GB",
            memory_bytes: 80 * GIB,
            marketing_flops: 312e12,
            effective_matmul_flops: 312e12,
            memory_bandwidth: 2039e9,
            power_watts: 400.0,
        }
    }

    /// Fraction of device memory usable by the framework after CUDA context,
    /// allocator reserve and fragmentation. The paper observed the PyTorch
    /// allocator reserving extra memory (Section 7.2, the ZB OOM); 96 %
    /// usable matches the very-tight configurations Tables 5-8 report as
    /// runnable on the 24 GB card.
    pub fn usable_memory_bytes(&self) -> u64 {
        (self.memory_bytes as f64 * 0.96) as u64
    }
}

/// One gibibyte in bytes.
pub const GIB: u64 = 1024 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table9() {
        let g4090 = AcceleratorSpec::rtx4090();
        let a100 = AcceleratorSpec::a100_80g();
        assert_eq!(g4090.memory_bytes, 24 * GIB);
        assert_eq!(a100.memory_bytes, 80 * GIB);
        assert!(g4090.marketing_flops > a100.marketing_flops);
        assert!(g4090.effective_matmul_flops < a100.effective_matmul_flops);
    }

    #[test]
    fn usable_memory_leaves_reserve() {
        let g = AcceleratorSpec::rtx4090();
        assert!(g.usable_memory_bytes() < g.memory_bytes);
        assert!(g.usable_memory_bytes() > 21 * GIB);
    }
}
