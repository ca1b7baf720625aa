//! The network's pending-event queue.
//!
//! Events pop in `(at, seq)` order: earliest time first, ties broken by
//! push order. Most events live in a binary min-heap. Connect timeouts
//! do not need one: every timeout is armed at `now + CONNECT_TIMEOUT`
//! and the clock never runs backwards, so they arrive already sorted
//! and wait in a FIFO. A pop takes the smaller of the two heads by
//! `(at, seq)`, which halves the heap traffic of every active open.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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

/// Min-heap plus connect-timeout FIFO, merged by `(at, seq)`.
#[derive(Default)]
pub(crate) struct EventQueue {
    seq: u64,
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    /// Connect timeouts in push order, which is `(at, seq)` order.
    timeouts: VecDeque<QueuedEvent>,
}

impl EventQueue {
    /// Enqueue an event; its `seq` is the next push number.
    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind, packet: Option<Packet>) {
        let ev = QueuedEvent {
            at,
            seq: self.seq,
            kind,
            packet,
        };
        self.seq += 1;
        // A timeout armed earlier than the FIFO's tail (impossible on a
        // forward-running clock) goes to the heap, so the FIFO stays
        // sorted whatever the caller does.
        let sorted = self.timeouts.back().is_none_or(|last| last.at <= at);
        if matches!(kind, EventKind::ConnectTimeout { .. }) && sorted {
            self.timeouts.push_back(ev);
        } else {
            self.heap.push(Reverse(ev));
        }
    }

    /// Time of the earliest pending event.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        match (self.heap.peek(), self.timeouts.front()) {
            (Some(Reverse(h)), Some(t)) => Some(h.at.min(t.at)),
            (Some(Reverse(h)), None) => Some(h.at),
            (None, t) => t.map(|t| t.at),
        }
    }

    /// Pop the earliest event if it is due at or before `until`.
    pub(crate) fn pop_due(&mut self, until: SimTime) -> Option<QueuedEvent> {
        let fifo_first = match (self.heap.peek(), self.timeouts.front()) {
            (Some(Reverse(h)), Some(t)) => t.key() < h.key(),
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if fifo_first {
            if self.timeouts.front()?.at > until {
                return None;
            }
            self.timeouts.pop_front()
        } else {
            if self.heap.peek()?.0.at > until {
                return None;
            }
            self.heap.pop().map(|Reverse(ev)| ev)
        }
    }

    /// Events still pending.
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.timeouts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use malnet_prng::Rng;
    use proptest::test_rng;

    const HOST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// Random interleavings of pushes and pops, popped in lockstep with
    /// a plain `BinaryHeap` of `(at, seq)`: the oracle order the single
    /// heap used to give. The pushes model the network's traffic: connect
    /// timeouts at `now + 3 s`, jittered deliveries, timers (some due
    /// exactly when a timeout is), repeats of an earlier `at`, and the
    /// occasional out-of-order timeout that must bypass the FIFO.
    #[test]
    fn pop_order_matches_a_single_heap() {
        let mut rng = test_rng("pop_order_matches_a_single_heap");
        let timeout = SimDuration::from_secs(3);
        for case in 0..200 {
            let mut q = EventQueue::default();
            let mut oracle: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut now = SimTime::from_day(1, 0);
            let mut used: Vec<SimTime> = vec![now];
            let mut next_seq = 0u64;
            let ops = rng.gen_range(1..400);
            for _ in 0..ops {
                if rng.gen_bool(0.6) {
                    let (at, kind) = match rng.gen_range(0..6u32) {
                        0 | 1 => (
                            now + timeout,
                            EventKind::ConnectTimeout {
                                host: HOST,
                                sock: SockId(next_seq),
                            },
                        ),
                        2 => (
                            now + SimDuration::from_micros(40_000 + rng.gen_range(0..30_000)),
                            EventKind::Deliver,
                        ),
                        3 => {
                            let delay = if rng.gen_bool(0.5) {
                                timeout
                            } else {
                                SimDuration::from_millis(rng.gen_range(0..5_000))
                            };
                            (
                                now + delay,
                                EventKind::Timer {
                                    host: HOST,
                                    token: 1,
                                },
                            )
                        }
                        4 => (used[rng.gen_range(0..used.len())], EventKind::Deliver),
                        _ => (
                            now + SimDuration::from_millis(rng.gen_range(0..3_000)),
                            EventKind::ConnectTimeout {
                                host: HOST,
                                sock: SockId(next_seq),
                            },
                        ),
                    };
                    used.push(at);
                    q.push(at, kind, None);
                    oracle.push(Reverse((at, next_seq)));
                    next_seq += 1;
                } else {
                    let until = if rng.gen_bool(0.2) {
                        SimTime(u64::MAX)
                    } else {
                        now + SimDuration::from_millis(rng.gen_range(0..4_000))
                    };
                    let got = q.pop_due(until).map(|ev| ev.key());
                    let want = match oracle.peek() {
                        Some(Reverse(k)) if k.0 <= until => oracle.pop().map(|Reverse(k)| k),
                        _ => None,
                    };
                    assert_eq!(got, want, "case {case}: pop diverged from the heap oracle");
                    if let Some((at, _)) = got {
                        now = now.max(at);
                    }
                }
                let want_next = oracle.peek().map(|Reverse(k)| k.0);
                assert_eq!(q.next_at(), want_next, "case {case}: next_at diverged");
                assert_eq!(q.len(), oracle.len());
            }
            while let Some(Reverse(want)) = oracle.pop() {
                let got = q.pop_due(SimTime(u64::MAX)).map(|ev| ev.key());
                assert_eq!(got, Some(want), "case {case}: drain diverged");
            }
            assert!(q.pop_due(SimTime(u64::MAX)).is_none());
        }
    }
}
