//! Inter-node RoCE latency tests — the OFED `perftest` substitute
//! (Sec. III-C1, Fig. 3).

use zerosim_hw::{Cluster, ClusterSpec, SocketId};
use zerosim_simkit::{NullObserver, SimTime};

/// RDMA verb / semantic under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaSemantic {
    /// Channel semantic SEND (receiver posts a buffer).
    Send,
    /// Memory semantic RDMA READ (initiator pulls; round trip).
    Read,
    /// Memory semantic RDMA WRITE (initiator pushes).
    Write,
}

impl RdmaSemantic {
    /// All three semantics the paper plots.
    pub const ALL: [RdmaSemantic; 3] =
        [RdmaSemantic::Send, RdmaSemantic::Read, RdmaSemantic::Write];

    /// Display name matching the figure labels.
    pub fn label(&self) -> &'static str {
        match self {
            RdmaSemantic::Send => "SEND",
            RdmaSemantic::Read => "RDMA READ",
            RdmaSemantic::Write => "RDMA WRITE",
        }
    }
}

/// One latency measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// Message size in bytes.
    pub msg_bytes: usize,
    /// Measured one-sided completion latency.
    pub latency: SimTime,
}

/// Measures the completion latency of one message between node-0 and
/// node-1 CPU memory.
///
/// Same-socket uses each side's local NIC; cross-socket forces the
/// neighbouring CPU's NIC so the message crosses xGMI and the I/O-die
/// crossbar (Sec. III-C).
pub fn roce_latency(
    cluster: &mut Cluster,
    semantic: RdmaSemantic,
    msg_bytes: usize,
    cross_socket: bool,
) -> SimTime {
    let a = SocketId { node: 0, socket: 0 };
    let b = SocketId { node: 1, socket: 0 };
    let nic = if cross_socket { 1 } else { 0 };
    let route = cluster.route_internode_cpu_via(a, b, nic, nic);

    // Semantic adjustments: SEND involves the remote CPU posting the
    // receive (a fixed software cost); READ is a round trip.
    let sw = match semantic {
        RdmaSemantic::Send => SimTime::from_us(0.8),
        RdmaSemantic::Write => SimTime::ZERO,
        // The read request is a small wire message; its cost is about half
        // the full path latency before data starts flowing back.
        RdmaSemantic::Read => route.latency / 2,
    };

    let net = cluster.net_mut();
    let before_flows = net.flow_count();
    net.start_flow_capped(route.links(), msg_bytes.max(1) as f64, route.cap)
        .expect("routes from a validated cluster are non-empty and known");
    let mut t = 0.0;
    while net.flow_count() > before_flows {
        match net.advance_to_next_event(SimTime::from_secs(t), &mut NullObserver) {
            Some((dt, _)) => t += dt,
            None => break,
        }
    }
    route.latency + sw + SimTime::from_secs(t)
}

/// Sweeps message sizes (powers of two), as in Fig. 3.
pub fn latency_sweep(
    spec: &ClusterSpec,
    semantic: RdmaSemantic,
    cross_socket: bool,
    sizes: &[usize],
) -> Vec<LatencyPoint> {
    let mut cluster = Cluster::new(spec.clone()).expect("valid spec");
    sizes
        .iter()
        .map(|&msg_bytes| LatencyPoint {
            msg_bytes,
            latency: roce_latency(&mut cluster, semantic, msg_bytes, cross_socket),
        })
        .collect()
}

/// The message sizes the paper sweeps (2 B – 8 MB).
pub fn paper_message_sizes() -> Vec<usize> {
    (1..=23).map(|i| 1usize << i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_socket_small_messages_under_6us() {
        let spec = ClusterSpec::default();
        for semantic in RdmaSemantic::ALL {
            let pts = latency_sweep(&spec, semantic, false, &[2, 1024, 65536]);
            for p in &pts[..2] {
                assert!(
                    p.latency < SimTime::from_us(6.0),
                    "{} {}B: {}",
                    semantic.label(),
                    p.msg_bytes,
                    p.latency
                );
            }
        }
    }

    #[test]
    fn cross_socket_is_several_times_slower_but_under_40us() {
        let spec = ClusterSpec::default();
        for semantic in RdmaSemantic::ALL {
            let same = latency_sweep(&spec, semantic, false, &[4096])[0].latency;
            let cross = latency_sweep(&spec, semantic, true, &[4096])[0].latency;
            let ratio = cross.as_secs() / same.as_secs();
            assert!(ratio > 3.0, "{}: ratio {ratio}", semantic.label());
            assert!(
                cross < SimTime::from_us(40.0),
                "{}: cross {cross}",
                semantic.label()
            );
        }
    }

    #[test]
    fn latency_grows_with_message_size() {
        let spec = ClusterSpec::default();
        let pts = latency_sweep(&spec, RdmaSemantic::Write, false, &paper_message_sizes());
        assert_eq!(pts.len(), 23);
        assert!(pts.last().unwrap().latency > pts[0].latency * 10);
        for w in pts.windows(2) {
            assert!(w[1].latency >= w[0].latency, "latency must be monotone");
        }
    }

    #[test]
    fn read_is_slower_than_write() {
        let spec = ClusterSpec::default();
        let r = latency_sweep(&spec, RdmaSemantic::Read, false, &[256])[0].latency;
        let w = latency_sweep(&spec, RdmaSemantic::Write, false, &[256])[0].latency;
        assert!(r > w);
    }
}
