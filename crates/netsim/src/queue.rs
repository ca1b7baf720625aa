//! The network's pending-event queue.
//!
//! Events pop in `(at, seq)` order from one binary min-heap: earliest
//! time first, ties broken by push order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

use malnet_wire::Packet;

use crate::stack::SockId;
use crate::time::SimTime;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    Deliver,
    Timer {
        host: Ipv4Addr,
        token: u64,
    },
    ConnectTimeout {
        host: Ipv4Addr,
        sock: SockId,
    },
    /// Scheduled host up/down transition (chaos layer: C2 downtime
    /// windows). Dispatch calls `Network::set_host_up`.
    HostState {
        host: Ipv4Addr,
        up: bool,
    },
}

pub(crate) struct QueuedEvent {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
    pub(crate) packet: Option<Packet>,
}

impl QueuedEvent {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Min-heap of pending events, keyed by `(at, seq)`.
#[derive(Default)]
pub(crate) struct EventQueue {
    seq: u64,
    heap: BinaryHeap<Reverse<QueuedEvent>>,
}

impl EventQueue {
    /// Enqueue an event; its `seq` is the next push number.
    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind, packet: Option<Packet>) {
        self.heap.push(Reverse(QueuedEvent {
            at,
            seq: self.seq,
            kind,
            packet,
        }));
        self.seq += 1;
    }

    /// Time of the earliest pending event.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(ev)| ev.at)
    }

    /// Pop the earliest event if it is due at or before `until`.
    pub(crate) fn pop_due(&mut self, until: SimTime) -> Option<QueuedEvent> {
        if self.heap.peek()?.0.at > until {
            return None;
        }
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// Events still pending.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    const HOST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// Events due at the same time pop in push order, whatever their
    /// kind, and an earlier event pushed later still pops first.
    #[test]
    fn equal_times_pop_in_push_order() {
        let t0 = SimTime::from_day(1, 0);
        let t1 = t0 + SimDuration::from_secs(3);
        let mut q = EventQueue::default();
        let timeout = |sock| EventKind::ConnectTimeout {
            host: HOST,
            sock: SockId(sock),
        };
        let timer = EventKind::Timer {
            host: HOST,
            token: 1,
        };
        for (at, kind) in [
            (t1, timeout(0)),
            (t1, EventKind::Deliver),
            (t1, timer),
            (t1, timeout(1)),
            (t0, EventKind::Deliver),
            (t1, EventKind::Deliver),
        ] {
            q.push(at, kind, None);
        }
        assert_eq!(q.next_at(), Some(t0));
        assert!(q.pop_due(t0 - SimDuration::from_micros(1)).is_none());
        let order: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop_due(t1))
            .map(|ev| ev.key())
            .collect();
        assert_eq!(
            order,
            [(t0, 4), (t1, 0), (t1, 1), (t1, 2), (t1, 3), (t1, 5)]
        );
        assert_eq!(q.len(), 0);
    }
}
