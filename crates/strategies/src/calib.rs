//! Calibration constants for the performance model.
//!
//! Everything in this struct is a knob the simulation cannot derive from
//! first principles — GPU kernel efficiency, framework overheads, CPU
//! optimizer throughput, activation footprints. Each constant is pinned by
//! a specific observation in the paper; EXPERIMENTS.md records the
//! paper-vs-simulated numbers the final values produce.

/// Tunable constants of the training performance/memory model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Peak FP16 Tensor-Core throughput per GPU (A100: 312 TFLOP/s).
    pub gpu_peak_flops: f64,
    /// Asymptotic GEMM efficiency for large per-kernel work.
    /// Pinned by: ZeRO-2 at 5.2 B reaching 524 TFLOP/s aggregate (Fig. 7-a).
    pub gemm_eff_max: f64,
    /// Per-kernel FLOPs at which efficiency reaches half of
    /// `gemm_eff_max`. Pinned by: Megatron (quarter-size GEMMs) at
    /// 331 TFLOP/s vs DDP's 438 in single-node (Fig. 7-a).
    pub gemm_eff_half_flops: f64,
    /// Fixed per-iteration overhead in seconds (Python step, launcher,
    /// data loader). Pinned by: DDP throughput rising 379 → 438 TFLOP/s
    /// from 0.7 B to 1.4 B (Table V).
    pub iteration_overhead_s: f64,
    /// Per-kernel launch overhead, seconds.
    pub kernel_overhead_s: f64,
    /// Fraction of a layer's forward time spent in element-wise /
    /// transform kernels (Fig. 5 orange/red spans).
    pub elementwise_frac: f64,
    /// GPU Adam throughput, parameters/second (fused FP32 update).
    pub gpu_adam_params_per_s: f64,
    /// CPU Adam throughput per socket, parameters/second (DeepSpeed's
    /// AVX CPU-Adam). Pinned by: ZeRO-2-Offload reaching 191 TFLOP/s at
    /// 11.4 B (Fig. 11-a) and the 1.38 s ZeRO-1-Offload iteration (Fig. 5).
    pub cpu_adam_params_per_s: f64,
    /// Stored activation values per (layer · token · hidden-unit) with
    /// activation checkpointing (DeepSpeed/ZeRO runs).
    pub act_coeff_ckpt: f64,
    /// Same without checkpointing (plain DDP / Megatron runs). Pinned by:
    /// DDP topping out at 1.4 B on a 40 GB A100 (Fig. 6-a).
    pub act_coeff_nockpt: f64,
    /// Fixed per-GPU memory overhead (CUDA context, workspaces), bytes.
    pub gpu_fixed_bytes: f64,
    /// Extra per-GPU buffer bytes for ZeRO-1/2 (all-gather and
    /// reduce buckets).
    pub zero12_buffer_bytes: f64,
    /// Extra per-GPU buffer bytes for ZeRO-3 (live parameters,
    /// prefetch queue).
    pub zero3_buffer_bytes: f64,
    /// Host-side bytes per parameter for CPU offload (FP32 master, m, v,
    /// FP32 gradient staging, double buffers). Pinned by: ZeRO-2-Offload
    /// using 353 GB of CPU memory for the 11.4 B model (Fig. 11-b).
    pub offload_cpu_bytes_per_param: f64,
    /// Host-side bytes per parameter retained when states live on NVMe
    /// (staging + working copies). Pinned by: ZeRO-Infinity optimizer
    /// offload using 317 GB CPU for 11.4 B (Fig. 11-b).
    pub infinity_cpu_bytes_per_param: f64,
    /// NVMe bytes per parameter for optimizer offload (the 12 P states).
    pub infinity_nvme_bytes_per_param: f64,
    /// Baseline host memory per node for the framework + dataset cache,
    /// bytes (paper Sec. IV-D: 18–25 GB).
    pub host_base_bytes: f64,
    /// Fraction of each rank's offloaded host partition that lands on the
    /// *wrong* socket (the paper observes the offload path is not
    /// NUMA-aware; Sec. V-A3).
    pub offload_cross_socket_frac: f64,
    /// Per-flow effective rate of DeepSpeed's partitioned collectives over
    /// RoCE, bytes/second. Pinned by: the dual-node ZeRO RoCE averages of
    /// Table IV (10.5–16.3 GBps node-aggregate) and ZeRO-2's 424 TFLOP/s
    /// (Fig. 7-b). Plain NCCL large-bucket rings (DDP) instead run at
    /// [`Calibration::nccl_internode_cap`].
    pub ds_internode_cap: f64,
    /// Per-flow effective rate of plain NCCL's large-bucket ring
    /// all-reduce over RoCE, bytes/second. Pinned by: DDP's 640 TFLOP/s in
    /// dual-node training (Fig. 7-b) with its 9.28 GBps RoCE average
    /// (Table IV).
    pub nccl_internode_cap: f64,
    /// Per-flow inter-node rate of Megatron's fused tensor-parallel
    /// all-reduces (moderate message sizes; between the two regimes
    /// above). Pinned by: Megatron's 121 TFLOP/s dual-node collapse
    /// (Fig. 7-b).
    pub megatron_internode_cap: f64,
    /// Per-flow inter-node rate of ZeRO-3's per-layer-group parameter
    /// gathers (smaller buckets than ZeRO-1/2's whole-state collectives).
    /// Pinned by: ZeRO-3's 458 TFLOP/s in dual-node training (Fig. 7-b).
    pub zero3_internode_cap: f64,
    /// Framework DRAM traffic per GPU per iteration, bytes (data-loader
    /// copies, logging, host-side bookkeeping). Pinned by: Table IV's
    /// 1.5–3.5 GBps single-node DRAM averages.
    pub host_dram_bytes_per_iter: f64,
    /// Framework PCIe H2D traffic per GPU per iteration, bytes (kernel
    /// arguments, small tensors, gradient norms). Pinned by: Table IV's
    /// 0.6–6 GBps single-node PCIe-GPU averages.
    pub host_pcie_bytes_per_iter: f64,
    /// Half-width of the uniform per-kernel duration jitter (clock
    /// boosting, cache effects, scheduler noise). Gives the sampled
    /// bandwidth counters the avg < p90 < peak spread real hardware shows.
    pub compute_jitter_frac: f64,
    /// Per-layer GPU-side stall from DeepSpeed ZeRO-3's module hooks
    /// (parameter coalescing/partitioning around every gathered layer),
    /// seconds. Pinned by: ZeRO-3's 381 TFLOP/s vs ZeRO-2's 524 in
    /// single-node training (Fig. 7-a).
    pub zero3_hook_s_per_layer: f64,
    /// Fixed per-step overhead of the serving frontend (scheduler,
    /// sampling, detokenization, kernel launch), seconds. Paid by every
    /// prefill and every decode step — far smaller than
    /// `iteration_overhead_s` because there is no optimizer/data-loader
    /// work, but it is the term that makes small-batch decode
    /// protocol-bound rather than wire-bound.
    pub serve_step_overhead_s: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            gpu_peak_flops: 312e12,
            gemm_eff_max: 0.50,
            gemm_eff_half_flops: 8.0e9,
            iteration_overhead_s: 0.050,
            kernel_overhead_s: 3.0e-6,
            elementwise_frac: 0.07,
            gpu_adam_params_per_s: 40e9,
            cpu_adam_params_per_s: 2.5e9,
            act_coeff_ckpt: 0.8,
            act_coeff_nockpt: 30.0,
            gpu_fixed_bytes: 3.5e9,
            zero12_buffer_bytes: 4.5e9,
            zero3_buffer_bytes: 5.5e9,
            offload_cpu_bytes_per_param: 30.0,
            infinity_cpu_bytes_per_param: 27.0,
            infinity_nvme_bytes_per_param: 12.0,
            host_base_bytes: 20e9,
            offload_cross_socket_frac: 0.35,
            ds_internode_cap: 1.3e9,
            nccl_internode_cap: 8.0e9,
            megatron_internode_cap: 6.5e9,
            zero3_internode_cap: 0.85e9,
            host_dram_bytes_per_iter: 0.13e9,
            host_pcie_bytes_per_iter: 0.05e9,
            compute_jitter_frac: 0.06,
            zero3_hook_s_per_layer: 2.5e-3,
            serve_step_overhead_s: 4.0e-3,
        }
    }
}

impl Calibration {
    /// Effective GEMM efficiency for a kernel of `flops` FLOPs
    /// (saturating `work / (work + half)` curve).
    pub fn gemm_efficiency(&self, flops: f64) -> f64 {
        self.gemm_eff_max * flops / (flops + self.gemm_eff_half_flops)
    }

    /// Wall time of a GPU kernel performing `flops` FLOPs.
    pub fn kernel_time_s(&self, flops: f64) -> f64 {
        if flops <= 0.0 {
            return self.kernel_overhead_s;
        }
        self.kernel_overhead_s + flops / (self.gpu_peak_flops * self.gemm_efficiency(flops))
    }

    /// Wall time of a GPU Adam update over `params` parameters.
    pub fn gpu_adam_time_s(&self, params: f64) -> f64 {
        params / self.gpu_adam_params_per_s
    }

    /// Wall time of a CPU (socket) Adam update over `params` parameters.
    pub fn cpu_adam_time_s(&self, params: f64) -> f64 {
        params / self.cpu_adam_params_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_saturates() {
        let c = Calibration::default();
        let small = c.gemm_efficiency(1e9);
        let large = c.gemm_efficiency(1e13);
        assert!(small < large);
        assert!(large < c.gemm_eff_max);
        assert!(large > 0.95 * c.gemm_eff_max);
    }

    #[test]
    fn kernel_time_monotone_in_flops() {
        let c = Calibration::default();
        let t1 = c.kernel_time_s(1e10);
        let t2 = c.kernel_time_s(2e10);
        assert!(t2 > t1);
        assert!(c.kernel_time_s(0.0) == c.kernel_overhead_s);
    }

    #[test]
    fn adam_rates() {
        let c = Calibration::default();
        // GPU Adam is an order of magnitude faster than CPU Adam.
        assert!(c.gpu_adam_time_s(1e9) < c.cpu_adam_time_s(1e9) / 5.0);
    }

    #[test]
    fn ddp_per_gpu_rate_is_near_paper() {
        // At the 1.4 B model, one GPU's per-layer forward GEMM work is
        // ~4.1e11 FLOPs; the resulting sustained rate must land near the
        // ~110 TFLOP/s per GPU that DDP's 438 TFLOP/s aggregate implies.
        let c = Calibration::default();
        let layer_flops = 2.0 * 50.36e6 * 4096.0;
        // A layer issues ~6 GEMM kernels (as the iteration builder models).
        let rate = layer_flops / (6.0 * c.kernel_time_s(layer_flops / 6.0));
        assert!(
            rate > 110e12 && rate < 160e12,
            "per-GPU sustained rate {:.1} TFLOP/s out of band",
            rate / 1e12
        );
    }
}
