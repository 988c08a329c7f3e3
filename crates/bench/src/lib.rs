//! # uc-bench — experiment harness
//!
//! Shared drivers for the figure-regeneration binaries and the
//! Criterion benches. Each binary regenerates one paper artifact:
//!
//! * `figures` — E1/E2: the Fig. 1a–d / Fig. 2 classification matrix;
//! * `prop1` — E2: the pipelined-convergence impossibility, run
//!   operationally;
//! * `prop4` — E5: SUC witness verification over seed sweeps;
//! * `hierarchy` — E3: Prop. 2/3 implication counts on random
//!   histories;
//! * `case_study` — E6: §VI final-state divergence table;
//! * `complexity` — E7: message/byte accounting;
//! * `gc_table` — E10: log retention with and without stability GC.
//!
//! [`harness`] is what the hand-rolled benches share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use std::collections::BTreeSet;
use uc_core::{GenericReplica, OpInput, ReplicaNode};
use uc_crdt::{SetNode, SetOp, SetReplica};
use uc_sim::{LatencyModel, Metrics, Pid, ScheduledOp, SetOpKind, SimConfig, Simulation};
use uc_spec::{SetAdt, SetUpdate};

/// Default latency model used by the experiment drivers.
pub fn default_latency() -> LatencyModel {
    LatencyModel::Uniform(5, 60)
}

/// Drive a workload through the update-consistent set (Algorithm 1)
/// and return each replica's converged state plus the metrics.
pub fn drive_uc_set(
    n: usize,
    seed: u64,
    schedule: &[ScheduledOp],
    latency: LatencyModel,
) -> (Vec<BTreeSet<u32>>, Metrics) {
    let mut sim = Simulation::new(
        SimConfig {
            n,
            seed,
            latency,
            fifo_links: false,
        },
        |pid| ReplicaNode::untraced(GenericReplica::new(SetAdt::<u32>::new(), pid)),
    );
    sim.set_msg_size(|m| 16 + m.ts.wire_size());
    for op in schedule {
        let input = match op.kind {
            SetOpKind::Insert(v) => OpInput::Update(SetUpdate::Insert(v as u32)),
            SetOpKind::Delete(v) => OpInput::Update(SetUpdate::Delete(v as u32)),
            // A single-object replica has no multi-key cut to take:
            // a snapshot read degenerates to a plain read.
            SetOpKind::Read | SetOpKind::SnapshotRead => OpInput::Query(uc_spec::SetQuery::Read),
        };
        sim.schedule_invoke(op.time, op.pid, input);
    }
    sim.run_to_quiescence();
    let states = (0..n as Pid)
        .map(|p| sim.process_mut(p).replica.materialize())
        .collect();
    (states, sim.metrics.clone())
}

/// Drive a workload through any [`SetReplica`] baseline and return
/// each replica's converged read plus the metrics and footprints.
pub fn drive_crdt_set<S>(
    n: usize,
    seed: u64,
    schedule: &[ScheduledOp],
    latency: LatencyModel,
    mut make: impl FnMut(Pid) -> S,
) -> (Vec<BTreeSet<u32>>, Metrics, Vec<usize>)
where
    S: SetReplica<u32> + 'static,
{
    let mut sim = Simulation::new(
        SimConfig {
            n,
            seed,
            latency,
            fifo_links: false,
        },
        |pid| SetNode::new(make(pid)),
    );
    for op in schedule {
        let input = match op.kind {
            SetOpKind::Insert(v) => SetOp::Insert(v as u32),
            SetOpKind::Delete(v) => SetOp::Delete(v as u32),
            SetOpKind::Read | SetOpKind::SnapshotRead => SetOp::Read,
        };
        sim.schedule_invoke(op.time, op.pid, input);
    }
    sim.run_to_quiescence();
    let states: Vec<BTreeSet<u32>> = (0..n as Pid)
        .map(|p| sim.process(p).replica.read())
        .collect();
    let footprints = (0..n as Pid)
        .map(|p| sim.process(p).replica.footprint())
        .collect();
    (states, sim.metrics.clone(), footprints)
}

/// Render a small aligned table: header row + rows of cells.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in header.iter().enumerate() {
        out.push_str(&format!("{:<w$}  ", h, w = widths[i]));
    }
    out.push('\n');
    for (i, _) in header.iter().enumerate() {
        out.push_str(&"-".repeat(widths[i]));
        out.push_str("  ");
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push('\n');
    }
    out
}

/// Format a set compactly for table cells.
pub fn fmt_set(s: &BTreeSet<u32>) -> String {
    let items: Vec<String> = s.iter().map(u32::to_string).collect();
    format!("{{{}}}", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_sim::WorkloadSpec;

    #[test]
    fn uc_driver_converges() {
        let schedule = uc_sim::workload::generate(&WorkloadSpec {
            processes: 3,
            ops_per_process: 10,
            ..Default::default()
        });
        let (states, metrics) = drive_uc_set(3, 7, &schedule, default_latency());
        assert!(states.windows(2).all(|w| w[0] == w[1]));
        assert!(metrics.messages_sent > 0);
    }

    #[test]
    fn crdt_driver_converges() {
        let schedule = uc_sim::workload::conflict_rounds(4, 3, 200);
        let (states, _, footprints) = drive_crdt_set(
            4,
            9,
            &schedule,
            default_latency(),
            uc_crdt::OrSet::<u32>::new,
        );
        assert!(states.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(footprints.len(), 4);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["bcd".into(), "22".into()],
            ],
        );
        assert!(t.contains("name"));
        assert!(t.contains("bcd"));
    }
}
