//! ZL007 — fault-schedule sanity.
//!
//! Replays the schedule in firing order (time, then insertion) and
//! checks each event against the cluster and the accumulated fault
//! state: restores must restore *something*, node losses must not
//! repeat, magnitudes must be physical, and targets must exist. Events
//! past the simulation horizon are advisory — they are legal, they just
//! never fire. Re-degrading a link or resource that is already degraded
//! is also advisory: scale factors are absolute with respect to nominal
//! (not cumulative), so overlapping windows silently discard the first
//! window's restore semantics — usually a sign two sampled windows
//! should have been merged.

use std::collections::HashSet;

use zerosim_simkit::FaultKind;

use crate::diag::{LintCode, Severity, Site};
use crate::pass::{Artifacts, Pass, Sink};

/// ZL007 (see module docs).
#[derive(Debug)]
pub struct FaultSchedulePass;

impl Pass for FaultSchedulePass {
    fn code(&self) -> LintCode {
        LintCode::FaultSchedule
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let Some(schedule) = art.faults else {
            return;
        };
        let cluster = art.cluster;
        let link_count = cluster.net().link_count();
        let resource_count = cluster.resource_slots().len();
        let node_count = cluster.spec().nodes;

        // Firing order: stable sort by time, insertion order on ties
        // (matches `FaultSchedule::cursor`). Sites stay insertion
        // indices so findings point at the event the caller wrote.
        let events = schedule.events();
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by(|&a, &b| events[a].at.cmp(&events[b].at).then(a.cmp(&b)));

        let mut faulted_links: HashSet<usize> = HashSet::new();
        let mut slowed_resources: HashSet<usize> = HashSet::new();
        let mut lost_nodes: HashSet<usize> = HashSet::new();

        for i in order {
            let ev = &events[i];
            let site = Site::FaultEvent(i);
            if let Some(h) = art.horizon_s {
                if ev.at.as_secs() > h {
                    sink.report_at_most(
                        LintCode::FaultSchedule,
                        Severity::Warning,
                        site.clone(),
                        format!(
                            "event at t={:.3}s is past the {h:.3}s horizon and never fires",
                            ev.at.as_secs()
                        ),
                        "shorten the schedule or extend the run".to_string(),
                    );
                }
            }
            match &ev.kind {
                FaultKind::ScaleLink { link, factor } => {
                    if link.index() >= link_count {
                        sink.report(
                            LintCode::FaultSchedule,
                            site,
                            format!("targets unknown link {}", link.index()),
                            format!("the cluster has {link_count} links"),
                        );
                    } else if !(factor.is_finite() && *factor > 0.0) {
                        sink.report(
                            LintCode::FaultSchedule,
                            site,
                            format!("non-physical link scale factor {factor}"),
                            "factors must be finite and positive".to_string(),
                        );
                    } else if !faulted_links.insert(link.index()) {
                        sink.report_at_most(
                            LintCode::FaultSchedule,
                            Severity::Warning,
                            site,
                            format!(
                                "re-degrades link {} that is already degraded \
                                 (overlapping windows)",
                                link.index()
                            ),
                            "factors are absolute, not cumulative; merge the windows".to_string(),
                        );
                    }
                }
                FaultKind::RestoreLink { link } => {
                    if link.index() >= link_count {
                        sink.report(
                            LintCode::FaultSchedule,
                            site,
                            format!("targets unknown link {}", link.index()),
                            format!("the cluster has {link_count} links"),
                        );
                    } else if !faulted_links.remove(&link.index()) {
                        sink.report_at_most(
                            LintCode::FaultSchedule,
                            Severity::Warning,
                            site,
                            format!("restores link {} that was never degraded", link.index()),
                            "a restore without a prior fault is a no-op".to_string(),
                        );
                    }
                }
                FaultKind::SlowResource { resource, factor } => {
                    if *resource >= resource_count {
                        sink.report(
                            LintCode::FaultSchedule,
                            site,
                            format!("targets unknown resource {resource}"),
                            format!("the cluster has {resource_count} compute resources"),
                        );
                    } else if !(factor.is_finite() && *factor > 0.0) {
                        sink.report(
                            LintCode::FaultSchedule,
                            site,
                            format!("non-physical resource factor {factor}"),
                            "factors must be finite and positive".to_string(),
                        );
                    } else if !slowed_resources.insert(*resource) {
                        sink.report_at_most(
                            LintCode::FaultSchedule,
                            Severity::Warning,
                            site,
                            format!(
                                "re-slows resource {resource} that is already slowed \
                                 (overlapping windows)"
                            ),
                            "factors are absolute, not cumulative; merge the windows".to_string(),
                        );
                    }
                }
                FaultKind::RestoreResource { resource } => {
                    if *resource >= resource_count {
                        sink.report(
                            LintCode::FaultSchedule,
                            site,
                            format!("targets unknown resource {resource}"),
                            format!("the cluster has {resource_count} compute resources"),
                        );
                    } else if !slowed_resources.remove(resource) {
                        sink.report_at_most(
                            LintCode::FaultSchedule,
                            Severity::Warning,
                            site,
                            format!("restores resource {resource} that was never slowed"),
                            "a restore without a prior fault is a no-op".to_string(),
                        );
                    }
                }
                FaultKind::NodeLoss { node } => {
                    if *node >= node_count {
                        sink.report(
                            LintCode::FaultSchedule,
                            site,
                            format!("loses unknown node {node}"),
                            format!("the cluster has {node_count} node(s)"),
                        );
                    } else if !lost_nodes.insert(*node) {
                        sink.report(
                            LintCode::FaultSchedule,
                            site,
                            format!("node {node} is lost twice (overlapping node loss)"),
                            "a lost node stays lost; drop the duplicate event".to_string(),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintConfig;
    use crate::pass::{AnalysisReport, PassManager};
    use zerosim_hw::{Cluster, ClusterSpec};
    use zerosim_simkit::{FaultSchedule, LinkId};

    fn run(schedule: &FaultSchedule, horizon: Option<f64>) -> AnalysisReport {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(FaultSchedulePass));
        let mut art = Artifacts::new(&cluster).with_faults(schedule);
        if let Some(h) = horizon {
            art = art.with_horizon_s(h);
        }
        pm.run(&art)
    }

    fn link(c: &Cluster) -> LinkId {
        c.links(0, zerosim_hw::LinkClass::Roce)[0]
    }

    #[test]
    fn degrade_then_restore_is_clean() {
        let c = Cluster::new(ClusterSpec::default()).unwrap();
        let s = FaultSchedule::new(7)
            .at(
                1.0,
                FaultKind::ScaleLink {
                    link: link(&c),
                    factor: 0.25,
                },
            )
            .unwrap()
            .at(2.0, FaultKind::RestoreLink { link: link(&c) })
            .unwrap();
        let r = run(&s, Some(10.0));
        assert!(r.is_clean(), "{}", r.render_text());
        assert_eq!(r.warning_count(), 0);
    }

    #[test]
    fn restore_without_fault_warns_even_when_pushed_first() {
        let c = Cluster::new(ClusterSpec::default()).unwrap();
        // Pushed out of time order: the restore (insertion 0) fires at
        // t=1 *before* the degrade at t=5, so it restores nothing.
        let s = FaultSchedule::new(7)
            .at(1.0, FaultKind::RestoreLink { link: link(&c) })
            .unwrap()
            .at(
                5.0,
                FaultKind::ScaleLink {
                    link: link(&c),
                    factor: 0.5,
                },
            )
            .unwrap();
        let r = run(&s, None);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.diagnostics[0].site, Site::FaultEvent(0));
    }

    #[test]
    fn overlapping_node_loss_and_bad_magnitudes_deny() {
        let c = Cluster::new(ClusterSpec::default()).unwrap();
        let s = FaultSchedule::new(7)
            .at(1.0, FaultKind::NodeLoss { node: 1 })
            .unwrap()
            .at(2.0, FaultKind::NodeLoss { node: 1 })
            .unwrap()
            .at(
                3.0,
                FaultKind::ScaleLink {
                    link: link(&c),
                    factor: 0.0,
                },
            )
            .unwrap()
            .at(
                4.0,
                FaultKind::SlowResource {
                    resource: 999,
                    factor: 0.5,
                },
            )
            .unwrap();
        let r = run(&s, None);
        assert_eq!(r.deny_count(), 3);
        assert!(r.diagnostics[0].message.contains("lost twice"));
        assert!(r.diagnostics[1].message.contains("scale factor"));
        assert!(r.diagnostics[2].message.contains("unknown resource"));
    }

    #[test]
    fn overlapping_degradation_warns() {
        let c = Cluster::new(ClusterSpec::default()).unwrap();
        let s = FaultSchedule::new(7)
            .at(
                1.0,
                FaultKind::ScaleLink {
                    link: link(&c),
                    factor: 0.5,
                },
            )
            .unwrap()
            .at(
                2.0,
                FaultKind::ScaleLink {
                    link: link(&c),
                    factor: 0.25,
                },
            )
            .unwrap()
            .at(3.0, FaultKind::RestoreLink { link: link(&c) })
            .unwrap()
            .at(
                1.0,
                FaultKind::SlowResource {
                    resource: 0,
                    factor: 0.5,
                },
            )
            .unwrap()
            .at(
                2.0,
                FaultKind::SlowResource {
                    resource: 0,
                    factor: 0.7,
                },
            )
            .unwrap();
        let r = run(&s, None);
        assert!(r.is_clean(), "{}", r.render_text());
        assert_eq!(r.warning_count(), 2);
        assert!(r.diagnostics[0].message.contains("re-degrades link"));
        assert!(r.diagnostics[1].message.contains("re-slows resource 0"));
        // Sequential (restore-separated) windows on the same target are fine.
        let (l, factor) = (link(&c), 0.5);
        let sequential = FaultSchedule::new(7)
            .at(1.0, FaultKind::ScaleLink { link: l, factor })
            .unwrap()
            .at(2.0, FaultKind::RestoreLink { link: l })
            .unwrap()
            .at(5.0, FaultKind::ScaleLink { link: l, factor })
            .unwrap()
            .at(6.0, FaultKind::RestoreLink { link: l })
            .unwrap();
        let r = run(&sequential, Some(10.0));
        assert!(r.is_clean());
        assert_eq!(r.warning_count(), 0);
    }

    #[test]
    fn event_past_horizon_warns() {
        let c = Cluster::new(ClusterSpec::default()).unwrap();
        let s = FaultSchedule::new(7)
            .at(
                50.0,
                FaultKind::ScaleLink {
                    link: link(&c),
                    factor: 0.5,
                },
            )
            .unwrap();
        let r = run(&s, Some(10.0));
        assert!(r.is_clean());
        assert_eq!(r.warning_count(), 1);
        assert!(r.diagnostics[0].message.contains("never fires"));
    }
}
