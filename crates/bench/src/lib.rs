//! `zerosim-bench` — the experiment harness regenerating every table and
//! figure of the paper, plus the command-line tools built on it.
//!
//! Run `cargo run --release -p zerosim-bench --bin repro -- all` to
//! regenerate everything, or pass an artifact id (`fig6`, `table4`, ...).

#![warn(missing_docs)]

pub mod cli;
pub mod data;
pub mod experiments;

/// All artifact ids: the paper's tables and figures in paper order,
/// followed by the extension studies (`ext1`–`ext15`).
pub const ARTIFACTS: [&str; 35] = [
    "fig1",
    "fig2",
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table4",
    "table5",
    "fig11",
    "fig12",
    "fig13",
    "table6",
    "ext1",
    "ext2",
    "ext3",
    "ext4",
    "ext5",
    "ext6",
    "ext7",
    "ext8",
    "ext9",
    "ext10",
    "ext11",
    "ext12",
    "ext13",
    "ext14",
    "ext15",
    "scorecard",
];

/// Renders one artifact by id.
///
/// # Panics
/// Panics on an unknown id (the `repro` binary validates first).
pub fn render(id: &str) -> String {
    use experiments::{
        extensions, fleet, micro, offload, resilience, scorecard, serving, setup, train,
    };
    match id {
        "fig1" => setup::fig1(),
        "fig2" => setup::fig2(),
        "table1" => setup::table1(),
        "table2" => setup::table2(),
        "table3" => setup::table3(),
        "fig3" => micro::fig3(),
        "fig4" => micro::fig4(),
        "fig5" => train::fig5(),
        "fig6" => train::fig6(),
        "fig7" => train::fig7(),
        "fig8" => train::fig8(),
        "fig9" => train::fig9(),
        "fig10" => train::fig10(),
        "table4" => train::table4(),
        "table5" => train::table5(),
        "fig11" => offload::fig11(),
        "fig12" => offload::fig12(),
        "fig13" => offload::fig13(),
        "table6" => offload::table6(),
        "ext1" => extensions::ext1_megatron_layouts(),
        "ext2" => extensions::ext2_eight_nvme(),
        "ext3" => extensions::ext3_iod_ablation(),
        "ext4" => extensions::ext4_batch_size(),
        "ext5" => extensions::ext5_nic_sweep(),
        "ext6" => extensions::ext6_energy(),
        "ext7" => extensions::ext7_cost(),
        "ext8" => extensions::ext8_horizontal_vs_vertical(),
        "ext9" => extensions::ext9_grad_accum(),
        "ext10" => extensions::ext10_hidden_size(),
        "ext11" => resilience::goodput_table(),
        "ext12" => extensions::ext12_jean_zay_scale(),
        "ext13" => fleet::ext13_fleet_economics(),
        "ext14" => serving::ext14_serving_latency(),
        "ext15" => extensions::ext15_zeropp_roce_degradation(),
        "scorecard" => scorecard::scorecard(),
        other => panic!("unknown artifact id {other:?}"),
    }
}
