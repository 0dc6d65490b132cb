//! Packet batching and cost accounting for inter-node streams.

use gamma_des::{SimTime, Usage};

use crate::config::RingConfig;

/// Pending (not yet flushed) bytes/tuples for one sender→receiver stream.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    bytes: u64,
    tuples: u64,
}

/// The interconnect fabric for one machine.
///
/// `Fabric` tracks, for every ordered (src, dst) node pair, the bytes
/// accumulated toward the next outgoing packet, and charges the supplied
/// per-node [`Usage`] ledgers as packets fill. Callers must [`Fabric::flush`]
/// at the end of each phase so partially filled packets are paid for — Gamma
/// flushed output buffers when an operator closed its output streams.
#[derive(Debug, Clone)]
pub struct Fabric {
    cfg: RingConfig,
    nodes: usize,
    pending: Vec<Pending>,
}

impl Fabric {
    /// A fabric connecting `nodes` processors.
    pub fn new(cfg: RingConfig, nodes: usize) -> Self {
        assert!(nodes > 0, "a machine needs at least one node");
        Fabric {
            cfg,
            nodes,
            pending: vec![Pending::default(); nodes * nodes],
        }
    }

    /// Network configuration in force.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Number of nodes the fabric connects.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    #[inline]
    fn slot(&mut self, src: usize, dst: usize) -> &mut Pending {
        debug_assert!(src < self.nodes && dst < self.nodes);
        &mut self.pending[src * self.nodes + dst]
    }

    /// Send one tuple of `bytes` from `src` to `dst`, batching into packets.
    ///
    /// Same-node sends are short-circuited: they are batched exactly like
    /// remote sends (the producing process still fills message buffers) but
    /// a full buffer costs only the short-circuit hand-off and never touches
    /// the ring.
    pub fn send_tuple(&mut self, usage: &mut [Usage], src: usize, dst: usize, bytes: u64) {
        let cfg_packet = self.cfg.packet_bytes;
        let marshal = self.cfg.marshal_cpu_per_tuple;
        let local_copy = self.cfg.shortcircuit_cpu_per_tuple;
        if src == dst {
            usage[src].cpu(local_copy);
        } else {
            usage[src].cpu(marshal);
        }
        let p = self.slot(src, dst);
        p.tuples += 1;
        if p.bytes + bytes > cfg_packet && p.bytes > 0 {
            // Tuple does not fit in the current packet: flush, then start a
            // new packet with this tuple (tuples are never split in Gamma).
            let (fb, ft) = (p.bytes, p.tuples - 1);
            p.bytes = bytes;
            p.tuples = 1;
            self.emit(usage, src, dst, fb, ft);
        } else {
            p.bytes += bytes;
            if p.bytes >= cfg_packet {
                let (fb, ft) = (p.bytes, p.tuples);
                p.bytes = 0;
                p.tuples = 0;
                self.emit(usage, src, dst, fb, ft);
            }
        }
    }

    /// Flush every partially filled packet (end of an operator's output
    /// streams / end of phase).
    pub fn flush(&mut self, usage: &mut [Usage]) {
        for src in 0..self.nodes {
            for dst in 0..self.nodes {
                let p = self.pending[src * self.nodes + dst];
                if p.bytes > 0 {
                    self.pending[src * self.nodes + dst] = Pending::default();
                    self.emit(usage, src, dst, p.bytes, p.tuples);
                }
            }
        }
    }

    /// Charge one (possibly short-circuited) message of `bytes` carrying
    /// `tuples` tuples.
    fn emit(&mut self, usage: &mut [Usage], src: usize, dst: usize, bytes: u64, tuples: u64) {
        if src == dst {
            usage[src].cpu(self.cfg.shortcircuit_cpu_per_msg);
            usage[src].counts.msgs_shortcircuit += 1;
            gamma_metrics::counter_add("msgs_shortcircuit", src as u16, "fabric", 1);
            gamma_metrics::counter_add("shortcircuit_bytes", src as u16, "fabric", bytes);
            gamma_trace::emit(
                src as u16,
                usage[src].total_demand().as_us(),
                gamma_trace::EventKind::ShortCircuit {
                    bytes: crate::trace_bytes(bytes),
                },
            );
        } else {
            usage[src].cpu(self.cfg.send_cpu_per_packet);
            usage[src].net(self.cfg.wire_time(bytes), bytes);
            usage[src].counts.packets_sent += 1;
            usage[dst].cpu(self.cfg.recv_cpu_per_packet);
            usage[dst].cpu(SimTime::from_us(
                self.cfg.unmarshal_cpu_per_tuple.as_us() * tuples,
            ));
            usage[dst].counts.packets_recv += 1;
            gamma_metrics::counter_add("packets_sent", src as u16, "fabric", 1);
            gamma_metrics::counter_add("wire_bytes", src as u16, "fabric", bytes);
            gamma_metrics::observe("packet_bytes", src as u16, "fabric", bytes);
            gamma_metrics::counter_add("packets_recv", dst as u16, "fabric", 1);
            gamma_trace::emit(
                src as u16,
                usage[src].total_demand().as_us(),
                gamma_trace::EventKind::PacketSend {
                    dst: dst as u16,
                    bytes: crate::trace_bytes(bytes),
                },
            );
            gamma_trace::emit(
                dst as u16,
                usage[dst].total_demand().as_us(),
                gamma_trace::EventKind::PacketRecv {
                    src: src as u16,
                    bytes: crate::trace_bytes(bytes),
                },
            );
        }
    }

    /// Send a control message (operator start/commit, split table, bit
    /// filter) of `bytes` from `src` to `dst`. Control messages are sent
    /// immediately — they are not batched with tuple traffic — and may span
    /// several packets (a split table larger than one packet "must be sent
    /// in pieces", the cause of the paper's low-memory cost bump).
    ///
    /// Returns the number of packets used.
    pub fn control(&mut self, usage: &mut [Usage], src: usize, dst: usize, bytes: u64) -> u64 {
        let bytes = bytes.max(1);
        if src == dst {
            usage[src].cpu(self.cfg.shortcircuit_cpu_per_msg);
            usage[src].cpu(self.cfg.control_cpu_per_msg);
            usage[src].counts.msgs_shortcircuit += 1;
            usage[src].counts.control_msgs += 1;
            gamma_metrics::counter_add("msgs_shortcircuit", src as u16, "control", 1);
            gamma_metrics::counter_add("shortcircuit_bytes", src as u16, "control", bytes);
            gamma_metrics::counter_add("control_msgs", src as u16, "control", 1);
            {
                let at = usage[src].total_demand().as_us();
                gamma_trace::emit(
                    src as u16,
                    at,
                    gamma_trace::EventKind::ShortCircuit {
                        bytes: crate::trace_bytes(bytes),
                    },
                );
                gamma_trace::emit(
                    src as u16,
                    at,
                    gamma_trace::EventKind::Control {
                        dst: dst as u16,
                        bytes: crate::trace_bytes(bytes),
                    },
                );
            }
            return 0;
        }
        let packets = self.cfg.packets_for(bytes);
        let mut remaining = bytes;
        for _ in 0..packets {
            let chunk = remaining.min(self.cfg.packet_bytes);
            remaining -= chunk;
            usage[src].cpu(self.cfg.send_cpu_per_packet);
            usage[src].net(self.cfg.wire_time(chunk), chunk);
            usage[src].counts.packets_sent += 1;
            usage[dst].cpu(self.cfg.recv_cpu_per_packet);
            usage[dst].counts.packets_recv += 1;
            gamma_metrics::counter_add("packets_sent", src as u16, "control", 1);
            gamma_metrics::counter_add("wire_bytes", src as u16, "control", chunk);
            gamma_metrics::observe("packet_bytes", src as u16, "control", chunk);
            gamma_metrics::counter_add("packets_recv", dst as u16, "control", 1);
            gamma_trace::emit(
                src as u16,
                usage[src].total_demand().as_us(),
                gamma_trace::EventKind::PacketSend {
                    dst: dst as u16,
                    bytes: crate::trace_bytes(chunk),
                },
            );
            gamma_trace::emit(
                dst as u16,
                usage[dst].total_demand().as_us(),
                gamma_trace::EventKind::PacketRecv {
                    src: src as u16,
                    bytes: crate::trace_bytes(chunk),
                },
            );
        }
        usage[dst].cpu(self.cfg.control_cpu_per_msg);
        usage[dst].counts.control_msgs += 1;
        gamma_metrics::counter_add("control_msgs", dst as u16, "control", 1);
        gamma_trace::emit(
            dst as u16,
            usage[dst].total_demand().as_us(),
            gamma_trace::EventKind::Control {
                dst: dst as u16,
                bytes: crate::trace_bytes(bytes),
            },
        );
        packets
    }

    /// Charge the receiver side of a control message sent by the (off-node)
    /// scheduler process to `node`: operator starts, split tables,
    /// bit-filter broadcasts. The scheduler's own serialized send cost is
    /// what the query replay adds to response time; this accounts the
    /// receiving node's protocol CPU and the ring occupancy. Returns
    /// packets used.
    pub fn scheduler_control(&mut self, usage: &mut Usage, node: usize, bytes: u64) -> u64 {
        let bytes = bytes.max(1);
        let packets = self.cfg.packets_for(bytes);
        let mut remaining = bytes;
        for _ in 0..packets {
            let chunk = remaining.min(self.cfg.packet_bytes);
            remaining -= chunk;
            usage.cpu(self.cfg.recv_cpu_per_packet);
            usage.net(self.cfg.wire_time(chunk), chunk);
            usage.counts.packets_recv += 1;
            gamma_metrics::counter_add("packets_recv", node as u16, "sched", 1);
            gamma_metrics::counter_add("wire_bytes", node as u16, "sched", chunk);
            gamma_metrics::observe("packet_bytes", node as u16, "sched", chunk);
            gamma_trace::emit(
                node as u16,
                usage.total_demand().as_us(),
                gamma_trace::EventKind::PacketRecv {
                    src: u16::MAX, // the off-node scheduler process
                    bytes: crate::trace_bytes(chunk),
                },
            );
        }
        usage.cpu(self.cfg.control_cpu_per_msg);
        usage.counts.control_msgs += 1;
        gamma_metrics::counter_add("control_msgs", node as u16, "sched", 1);
        gamma_trace::emit(
            node as u16,
            usage.total_demand().as_us(),
            gamma_trace::EventKind::Control {
                dst: node as u16,
                bytes: crate::trace_bytes(bytes),
            },
        );
        packets
    }

    /// Serialized scheduler-side cost of dispatching one control message of
    /// `bytes` (CPU to build it plus per-packet protocol cost). Added
    /// directly to response time by the query replay, since Gamma ran one
    /// scheduler process per query.
    pub fn scheduler_dispatch_cost(&self, dispatch_cpu: SimTime, bytes: u64) -> SimTime {
        let packets = self.cfg.packets_for(bytes.max(1));
        dispatch_cpu + self.cfg.send_cpu_per_packet.scaled(packets)
    }

    /// True if no stream holds unflushed bytes (used by debug assertions at
    /// phase boundaries).
    pub fn is_drained(&self) -> bool {
        self.pending.iter().all(|p| p.bytes == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: usize) -> (Fabric, Vec<Usage>) {
        (
            Fabric::new(RingConfig::gamma_1989(), n),
            vec![Usage::ZERO; n],
        )
    }

    #[test]
    fn remote_tuples_batch_into_packets() {
        let (mut f, mut u) = fabric(2);
        // 208-byte Wisconsin tuples: 9 fit in a 2 KB packet (1872 bytes),
        // the 10th overflows into the next packet.
        for _ in 0..9 {
            f.send_tuple(&mut u, 0, 1, 208);
        }
        assert_eq!(
            u[0].counts.packets_sent, 0,
            "9*208=1872 < 2048, still pending"
        );
        f.send_tuple(&mut u, 0, 1, 208);
        assert_eq!(u[0].counts.packets_sent, 1, "10th tuple flushes the packet");
        assert_eq!(u[1].counts.packets_recv, 1);
        f.flush(&mut u);
        assert_eq!(
            u[0].counts.packets_sent, 2,
            "flush emits the partial packet"
        );
        assert!(f.is_drained());
    }

    #[test]
    fn exact_fill_flushes_immediately() {
        let (mut f, mut u) = fabric(2);
        f.send_tuple(&mut u, 0, 1, 2048);
        assert_eq!(u[0].counts.packets_sent, 1);
        assert!(f.is_drained());
    }

    #[test]
    fn local_sends_shortcircuit() {
        let (mut f, mut u) = fabric(2);
        for _ in 0..10 {
            f.send_tuple(&mut u, 1, 1, 208);
        }
        f.flush(&mut u);
        assert_eq!(u[1].counts.packets_sent, 0);
        assert_eq!(
            u[1].counts.msgs_shortcircuit, 2,
            "one full + one partial message"
        );
        assert_eq!(
            u[1].ring_bytes, 0,
            "short-circuited messages never touch the ring"
        );
        // Short-circuiting is much cheaper than the remote path.
        let (mut f2, mut u2) = fabric(2);
        for _ in 0..10 {
            f2.send_tuple(&mut u2, 0, 1, 208);
        }
        f2.flush(&mut u2);
        let remote_cpu = u2[0].cpu + u2[1].cpu;
        assert!(u[1].cpu.as_us() * 2 < remote_cpu.as_us());
    }

    #[test]
    fn ring_bytes_accounted_for_remote_only() {
        let (mut f, mut u) = fabric(3);
        f.send_tuple(&mut u, 0, 2, 2048);
        assert_eq!(u[0].ring_bytes, 2048);
        assert_eq!(
            u[2].ring_bytes, 0,
            "receiver does not double-count ring bytes"
        );
    }

    #[test]
    fn control_message_spans_packets() {
        let (mut f, mut u) = fabric(2);
        // A 5000-byte split table needs 3 packets of 2048.
        let packets = f.control(&mut u, 0, 1, 5000);
        assert_eq!(packets, 3);
        assert_eq!(u[0].counts.packets_sent, 3);
        assert_eq!(u[1].counts.control_msgs, 1);
    }

    #[test]
    fn control_message_local_is_free_of_packets() {
        let (mut f, mut u) = fabric(2);
        let packets = f.control(&mut u, 1, 1, 5000);
        assert_eq!(packets, 0);
        assert_eq!(u[1].counts.control_msgs, 1);
        assert_eq!(u[1].counts.msgs_shortcircuit, 1);
    }

    #[test]
    fn oversized_tuple_gets_own_packets() {
        let (mut f, mut u) = fabric(2);
        f.send_tuple(&mut u, 0, 1, 100);
        // A tuple bigger than remaining space flushes the pending packet
        // first, then travels alone.
        f.send_tuple(&mut u, 0, 1, 2040);
        assert_eq!(u[0].counts.packets_sent, 1, "first packet flushed early");
        f.flush(&mut u);
        assert_eq!(u[0].counts.packets_sent, 2);
    }

    #[test]
    fn tuple_counts_charged_to_receiver() {
        let (mut f, mut u) = fabric(2);
        for _ in 0..10 {
            f.send_tuple(&mut u, 0, 1, 208);
        }
        f.flush(&mut u);
        let per_tuple = RingConfig::gamma_1989().unmarshal_cpu_per_tuple;
        let per_packet = RingConfig::gamma_1989().recv_cpu_per_packet;
        assert_eq!(u[1].cpu, per_packet.scaled(2) + per_tuple.scaled(10));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_fabric_rejected() {
        Fabric::new(RingConfig::gamma_1989(), 0);
    }
}
