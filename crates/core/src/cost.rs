//! Infrastructure-cost accounting — quantifying the paper's conclusion
//! that NVMe/CPU offloading "significantly reduces infrastructure costs
//! and allows many researchers to have access to state-of-the-art models".
//!
//! Costs are list-price-class estimates for the paper's era of hardware;
//! what matters for the analysis is their ratio, not their absolute value.

use zerosim_hw::LinkClass;

use crate::report::TrainingReport;

/// Capital cost of the cluster pieces, USD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One A100-SXM4-40GB module.
    pub gpu_usd: f64,
    /// One XE8545-class chassis (2 CPUs, 1 TB DRAM, NICs), GPUs excluded.
    pub node_base_usd: f64,
    /// One D7-P5600-class 3.2 TB NVMe drive.
    pub nvme_usd: f64,
    /// Per-port share of the SN3700-class switch.
    pub switch_port_usd: f64,
    /// Rated write endurance of one drive, bytes (D7-P5600 3.2 TB class:
    /// ~3 drive-writes-per-day over the 5-year warranty ≈ 17.5 PB TBW).
    /// Flash is a consumable: NVMe offload rewrites the optimizer
    /// partition every iteration, so sustained training traffic buys the
    /// drive a measurable fraction of its lifetime.
    pub nvme_endurance_bytes: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            gpu_usd: 12_000.0,
            node_base_usd: 30_000.0,
            nvme_usd: 900.0,
            switch_port_usd: 1_500.0,
            nvme_endurance_bytes: 17.5e15,
        }
    }
}

/// Cost-efficiency of one characterized configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Capital cost of everything the run occupies, USD.
    pub capital_usd: f64,
    /// Aggregate throughput, FLOP/s.
    pub throughput_flops: f64,
    /// Drive-replacement cost accrued per second of training from NVMe
    /// write wear, USD/s (zero when the run never touches flash).
    pub nvme_wear_usd_per_s: f64,
}

impl CostReport {
    /// Throughput bought per dollar (TFLOP/s per k$; higher is better).
    pub fn tflops_per_kusd(&self) -> f64 {
        self.throughput_flops / 1e12 / (self.capital_usd / 1000.0)
    }

    /// Flash-endurance cost of `train_secs` of sustained training, USD.
    pub fn wear_usd(&self, train_secs: f64) -> f64 {
        self.nvme_wear_usd_per_s * train_secs
    }
}

impl CostModel {
    /// Prices the hardware a run occupies: its nodes (with their GPUs and
    /// scratch drives) and, for multi-node runs, the switch ports — plus
    /// the wear rate its measured NVMe traffic inflicts on the drives.
    pub fn estimate(
        &self,
        report: &TrainingReport,
        gpus_per_node: usize,
        nvme_per_node: usize,
    ) -> CostReport {
        let nodes = report.nodes as f64;
        let mut capital = nodes
            * (self.node_base_usd
                + gpus_per_node as f64 * self.gpu_usd
                + nvme_per_node as f64 * self.nvme_usd);
        if report.nodes > 1 {
            capital += nodes * 2.0 * self.switch_port_usd;
        }
        // Wear: charge drive replacement at the rate training writes to
        // flash, measured on the PCIe x4 wires to the drives (the Table
        // IV "PCIe-NVMe" cells). Reads are wear-free, and the offload
        // traffic pattern is read/write symmetric (states stream out and
        // back every iteration), so writes are half the measured traffic.
        // Pooling bytes across a node's drives makes the rate independent
        // of the stripe width: rate / (k · endurance) · (k · price).
        let write_rate: f64 = (0..report.nodes)
            .map(|n| 0.5 * report.bandwidth.stats(n, LinkClass::PcieNvme).avg)
            .sum();
        CostReport {
            capital_usd: capital,
            throughput_flops: report.throughput_flops(),
            nvme_wear_usd_per_s: write_rate / self.nvme_endurance_bytes * self.nvme_usd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RunConfig, TrainingSim};
    use zerosim_hw::{ClusterSpec, NvmeId};
    use zerosim_model::GptConfig;
    use zerosim_strategies::{Strategy, TrainOptions, ZeroStage};

    fn report(strategy: Strategy, billions: f64, nodes: usize) -> TrainingReport {
        let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
        let opts = if nodes == 1 {
            TrainOptions::single_node()
        } else {
            TrainOptions::dual_node()
        };
        let cfg = RunConfig {
            allow_overflow: true,
            ..RunConfig::quick()
        };
        sim.run(
            &strategy,
            &GptConfig::paper_model_with_params(billions),
            &opts,
            &cfg,
        )
        .unwrap()
    }

    #[test]
    fn consolidation_is_cheaper_per_tflops() {
        // The paper's Sec. V-A headline as economics: ZeRO-2 CPU offload on
        // ONE node beats Megatron on TWO nodes in throughput AND costs half
        // the hardware.
        let cost = CostModel::default();
        let megatron = cost.estimate(&report(Strategy::Megatron { tp: 8, pp: 1 }, 11.2, 2), 4, 2);
        let offload = cost.estimate(
            &report(
                Strategy::ZeroOffload {
                    stage: ZeroStage::Two,
                    offload_params: false,
                },
                11.2,
                1,
            ),
            4,
            2,
        );
        assert!(offload.capital_usd < 0.6 * megatron.capital_usd);
        assert!(offload.tflops_per_kusd() > 2.0 * megatron.tflops_per_kusd());
    }

    #[test]
    fn nvme_wear_charges_flash_traffic_and_only_flash_traffic() {
        use zerosim_strategies::InfinityPlacement;

        // DDP never touches flash: wear must be exactly zero.
        let cost = CostModel::default();
        let ddp = cost.estimate(&report(Strategy::Ddp, 1.4, 1), 4, 2);
        assert_eq!(ddp.nvme_wear_usd_per_s, 0.0);
        assert_eq!(ddp.wear_usd(1e9), 0.0);

        // ZeRO-Infinity streams optimizer state over NVMe every
        // iteration; its measured device traffic must pin the wear rate.
        let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
        let d = |drive| NvmeId { node: 0, drive };
        let vol = sim.cluster_mut().create_volume(vec![d(0), d(1)]);
        let strategy = Strategy::ZeroInfinity {
            offload_params: false,
            placement: InfinityPlacement::new(vec![vol]),
        };
        let r = sim
            .run(
                &strategy,
                &GptConfig::paper_model_with_params(5.5),
                &TrainOptions::single_node(),
                &RunConfig::quick(),
            )
            .unwrap();
        let infinity = cost.estimate(&r, 4, 2);
        // Pin the wear term to the model: half the measured NVMe device
        // traffic (the write half), one drive-cost per endurance budget.
        let write_rate = 0.5 * r.bandwidth.stats(0, LinkClass::PcieNvme).avg;
        assert!(write_rate > 1e8, "offload must move real flash traffic");
        let want = write_rate / cost.nvme_endurance_bytes * cost.nvme_usd;
        assert!(
            (infinity.nvme_wear_usd_per_s - want).abs() < 1e-12 * want.max(1.0),
            "wear {} != pinned {want}",
            infinity.nvme_wear_usd_per_s
        );
        // Magnitude: cents-to-dollars per hour, not noise and not capital.
        let per_hour = infinity.wear_usd(3600.0);
        assert!(
            per_hour > 0.01 && per_hour < 50.0,
            "wear {per_hour} $/h out of band"
        );
        // Halving the endurance doubles the charge, price held fixed.
        let fragile = CostModel {
            nvme_endurance_bytes: cost.nvme_endurance_bytes / 2.0,
            ..cost
        };
        let doubled = fragile.estimate(&r, 4, 2);
        assert!((doubled.nvme_wear_usd_per_s / infinity.nvme_wear_usd_per_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nvme_drives_are_cheap_capacity() {
        // Adding scratch drives barely moves the capital cost.
        let cost = CostModel::default();
        let r = report(Strategy::Ddp, 1.4, 1);
        let without = cost.estimate(&r, 4, 0).capital_usd;
        let with8 = cost.estimate(&r, 4, 8).capital_usd;
        assert!(with8 / without < 1.12);
    }
}
