//! The DNS service of the simulated Internet.
//!
//! [`DnsService`] is the [`crate::net::Service`] that answers A queries
//! on UDP 53. It answers from a zone fixed when it is built (the world's
//! resolver: each DNS-named C2 and its host) or with one address for
//! every name (the sandbox's InetSim-style fake resolver). Either way it
//! applies the network's [`DnsFaults`] the same way: one fault draw per
//! well-formed query.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use malnet_prng::rngs::StdRng;
use malnet_prng::Rng;
use malnet_wire::dns::{DnsMessage, DomainName};

use crate::net::{Service, ServiceCtx};
use crate::stack::SockEvent;

/// How an injected DNS failure manifests for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsFailure {
    /// The query is silently dropped (resolver overloaded / path loss).
    Drop,
    /// The resolver answers SERVFAIL.
    ServFail,
    /// The resolver lies with NXDOMAIN for an existing name.
    NxDomain,
}

/// Fault-injection policy for DNS services, carried by the
/// [`crate::net::Network`] like [`crate::net::LinkFaults`] and applied by
/// every [`DnsService`] on that network.
///
/// All rates default to 0.0, in which case `decide` never draws from the
/// RNG — a fault-free network is byte-identical to one that predates this
/// knob (the chaos layer's `FaultPlan::none()` guarantee).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DnsFaults {
    /// Probability a query is silently dropped.
    pub drop_rate: f64,
    /// Probability a query is answered SERVFAIL.
    pub servfail_rate: f64,
    /// Probability a query is answered NXDOMAIN regardless of the zone.
    pub nxdomain_rate: f64,
}

impl DnsFaults {
    /// Is any failure mode configured?
    pub fn any(&self) -> bool {
        self.drop_rate > 0.0 || self.servfail_rate > 0.0 || self.nxdomain_rate > 0.0
    }

    /// Decide the fate of one query. Draws exactly one RNG value when any
    /// rate is non-zero and none otherwise.
    pub fn decide(&self, rng: &mut StdRng) -> Option<DnsFailure> {
        if !self.any() {
            return None;
        }
        let draw: f64 = rng.gen();
        if draw < self.drop_rate {
            Some(DnsFailure::Drop)
        } else if draw < self.drop_rate + self.servfail_rate {
            Some(DnsFailure::ServFail)
        } else if draw < self.drop_rate + self.servfail_rate + self.nxdomain_rate {
            Some(DnsFailure::NxDomain)
        } else {
            None
        }
    }
}

/// Where a [`DnsService`]'s answers come from.
#[derive(Debug)]
enum Answers {
    /// A fixed zone: the name's address, or NXDOMAIN.
    // Point queries by name only, never iterated. lint: hash-ok
    Zone(HashMap<DomainName, Ipv4Addr>),
    /// One address for every name.
    Wildcard(Ipv4Addr),
}

/// The DNS server: answers A queries on UDP 53.
#[derive(Debug)]
pub struct DnsService {
    answers: Answers,
}

impl DnsService {
    /// Answer from the A records `records`, one address per name (a later
    /// record for a name replaces an earlier one); other names get
    /// NXDOMAIN.
    pub fn zone(records: impl IntoIterator<Item = (DomainName, Ipv4Addr)>) -> Self {
        DnsService {
            answers: Answers::Zone(records.into_iter().collect()),
        }
    }

    /// Answer every name with `addr`: InetSim's DNS behaviour, which lets
    /// DNS-configured malware proceed far enough to reveal its C2 domain
    /// and follow-on traffic.
    pub fn wildcard(addr: Ipv4Addr) -> Self {
        DnsService {
            answers: Answers::Wildcard(addr),
        }
    }
}

impl Service for DnsService {
    fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
        ctx.udp_bind(53);
    }

    fn on_event(&mut self, ctx: &mut ServiceCtx<'_>, ev: SockEvent) {
        let SockEvent::UdpData { src, data, .. } = ev else {
            return;
        };
        let Ok(query) = DnsMessage::decode(&data) else {
            return; // malformed query: silently dropped, like most resolvers
        };
        if query.is_response {
            return;
        }
        // Fault injection (chaos layer): the network's DNS fault policy
        // may drop the query or corrupt the verdict.
        let injected = ctx.dns_faults().decide(ctx.rng());
        if injected.is_some() {
            ctx.note_dns_fault();
        }
        let addr = match &self.answers {
            Answers::Zone(records) => records.get(&query.question).copied(),
            Answers::Wildcard(addr) => Some(*addr),
        };
        let reply = match (injected, addr) {
            (Some(DnsFailure::Drop), _) => return,
            (Some(DnsFailure::ServFail), _) => DnsMessage::servfail(query.id, query.question),
            (Some(DnsFailure::NxDomain), _) | (None, None) => {
                DnsMessage::nxdomain(query.id, query.question)
            }
            (None, Some(addr)) => DnsMessage::answer(query.id, query.question, &[addr]),
        };
        ctx.udp_send(53, src.0, src.1, reply.encode());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Network;
    use crate::time::{SimDuration, SimTime};
    use malnet_wire::dns::Rcode;

    /// Where the tests' resolver lives.
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(9, 9, 9, 9);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const HOST: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);

    fn name(s: &str) -> DomainName {
        DomainName::new(s).unwrap()
    }

    /// A network with `svc` at [`RESOLVER`] under `faults` and the client
    /// bound to UDP 40000.
    fn resolver_net(svc: DnsService, seed: u64, faults: DnsFaults) -> Network {
        let mut net = Network::new(SimTime::EPOCH, seed);
        net.dns_faults = faults;
        net.add_service_host(RESOLVER, Box::new(svc));
        net.add_external_host(CLIENT);
        net.ext_udp_bind(CLIENT, 40000);
        net
    }

    /// Send `datagram` from the client to the resolver and return the
    /// replies that arrive within a second.
    fn exchange(net: &mut Network, datagram: Vec<u8>) -> Vec<DnsMessage> {
        net.ext_udp_send(CLIENT, 40000, RESOLVER, 53, datagram);
        net.run_for(SimDuration::from_secs(1));
        net.ext_events(CLIENT)
            .into_iter()
            .filter_map(|e| match e {
                SockEvent::UdpData { data, .. } => DnsMessage::decode(&data).ok(),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn resolves_known_name() {
        let cnc = name("cnc.botnet.example");
        let svc = DnsService::zone([(cnc.clone(), HOST)]);
        let mut net = resolver_net(svc, 1, DnsFaults::default());
        let replies = exchange(&mut net, DnsMessage::query(99, cnc).encode());
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].id, 99);
        assert_eq!(replies[0].answers[0].1, HOST);
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let svc = DnsService::zone([(name("cnc.botnet.example"), HOST)]);
        let mut net = resolver_net(svc, 1, DnsFaults::default());
        let replies = exchange(
            &mut net,
            DnsMessage::query(1, name("nope.example")).encode(),
        );
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].rcode, Rcode::NxDomain);
    }

    #[test]
    fn wildcard_dns_answers_everything() {
        let sink = Ipv4Addr::new(100, 64, 0, 1);
        let mut net = resolver_net(DnsService::wildcard(sink), 5, DnsFaults::default());
        for (id, q) in [(3, "cnc.weird-botnet.ru"), (4, "nope.example")] {
            let replies = exchange(&mut net, DnsMessage::query(id, name(q)).encode());
            assert_eq!(replies.len(), 1, "{q}");
            assert_eq!(replies[0].question, name(q));
            assert_eq!(replies[0].answers[0].1, sink, "{q}");
        }
    }

    /// Drive `n` queries for `name` against a zone resolver holding it
    /// with the given fault policy; returns the decoded replies (dropped
    /// queries simply produce no reply).
    fn query_n(faults: DnsFaults, name: &DomainName, n: u16) -> Vec<DnsMessage> {
        let svc = DnsService::zone([(name.clone(), HOST)]);
        let mut net = resolver_net(svc, 99, faults);
        (0..n)
            .flat_map(|id| exchange(&mut net, DnsMessage::query(id, name.clone()).encode()))
            .collect()
    }

    #[test]
    fn fault_free_policy_never_draws_or_fails() {
        let name = name("stable.example");
        let replies = query_n(DnsFaults::default(), &name, 8);
        assert_eq!(replies.len(), 8);
        assert!(replies.iter().all(|r| r.rcode == Rcode::NoError));
    }

    #[test]
    fn injected_faults_drop_and_corrupt_verdicts() {
        let name = name("chaotic.example");
        // All three modes at once; every query must hit one of them.
        let faults = DnsFaults {
            drop_rate: 0.4,
            servfail_rate: 0.3,
            nxdomain_rate: 0.3,
        };
        let replies = query_n(faults, &name, 40);
        assert!(replies.len() < 40, "no query was ever dropped");
        assert!(replies.iter().any(|r| r.rcode == Rcode::ServFail));
        assert!(replies.iter().any(|r| r.rcode == Rcode::NxDomain));
        assert!(replies.iter().all(|r| r.rcode != Rcode::NoError));
    }

    #[test]
    fn fault_decisions_are_seed_deterministic() {
        let name = name("repeat.example");
        let faults = DnsFaults {
            drop_rate: 0.2,
            servfail_rate: 0.2,
            nxdomain_rate: 0.2,
        };
        let a: Vec<_> = query_n(faults, &name, 30)
            .into_iter()
            .map(|r| (r.id, r.rcode))
            .collect();
        let b: Vec<_> = query_n(faults, &name, 30)
            .into_iter()
            .map(|r| (r.id, r.rcode))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_queries_are_dropped() {
        let mut net = resolver_net(DnsService::wildcard(HOST), 1, DnsFaults::default());
        assert!(exchange(&mut net, vec![1, 2, 3]).is_empty());
    }

    /// The names of [`verdicts`]'s queries.
    fn nth_name(id: u16) -> DomainName {
        name(&format!("c2-{id}.example"))
    }

    /// The verdicts on 40 queries for distinct names, in order, from
    /// `svc` under one network seed and fault policy: each query's rcode,
    /// or `None` when it was dropped. With `noise`, a malformed datagram
    /// and a DNS response reach the resolver before each query.
    fn verdicts(svc: DnsService, noise: bool) -> Vec<Option<Rcode>> {
        let faults = DnsFaults {
            drop_rate: 0.2,
            servfail_rate: 0.2,
            nxdomain_rate: 0.2,
        };
        let mut net = resolver_net(svc, 31, faults);
        (0..40)
            .map(|id| {
                if noise {
                    assert!(exchange(&mut net, vec![0xde, 0xad]).is_empty());
                    let stray = DnsMessage::answer(id, nth_name(id), &[HOST]);
                    assert!(exchange(&mut net, stray.encode()).is_empty());
                }
                let replies = exchange(&mut net, DnsMessage::query(id, nth_name(id)).encode());
                assert!(replies.len() <= 1 && replies.iter().all(|r| r.id == id));
                replies.first().map(|r| r.rcode)
            })
            .collect()
    }

    /// Both kinds of resolver make exactly one fault draw per well-formed
    /// query and none for a malformed datagram or a response: a zone that
    /// holds every queried name and a wildcard give the same verdicts on
    /// the same network, and noise between the queries moves none.
    #[test]
    fn zone_and_wildcard_draw_one_fault_per_query() {
        let zone = || DnsService::zone((0..40).map(|id| (nth_name(id), HOST)));
        let wildcard = || DnsService::wildcard(HOST);
        let want = verdicts(zone(), false);
        for kind in [
            None,
            Some(Rcode::NoError),
            Some(Rcode::ServFail),
            Some(Rcode::NxDomain),
        ] {
            assert!(want.contains(&kind), "no {kind:?} in {want:?}");
        }
        assert_eq!(verdicts(wildcard(), false), want, "wildcard");
        assert_eq!(verdicts(zone(), true), want, "zone with noise");
        assert_eq!(verdicts(wildcard(), true), want, "wildcard with noise");
    }
}
