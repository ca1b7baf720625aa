//! The oracle for world networks built on first touch: the eager builder
//! that installed every world host when the network was created, and a
//! property test that drives an eager and a lazy network with the same
//! traffic and compares everything the outside can see.

use malnet_netsim::net::NetStats;
use malnet_netsim::stack::{SockEvent, SockId};
use malnet_protocols::mirai;
use malnet_wire::dns::DnsMessage;
use malnet_wire::{pcap, Packet};

use super::*;

/// The eager world network of `day`: the resolver, every C2 host (down
/// unless alive), the standalone downloaders and, inside the probing
/// window, a banner and a sink decoy per probe subnet wherever nothing
/// else lives.
fn eager_network(w: &World, day: u32, seed: u64) -> Network {
    let mut net = Network::new(SimTime::from_day(day, 0), seed ^ u64::from(day) << 17);
    let zone = DnsHandle::new();
    for c2 in &w.c2s {
        if let C2Endpoint::Domain(d) = &c2.endpoint {
            if let Ok(name) = DomainName::new(d) {
                zone.set(name, vec![c2.host_ip]);
            }
        }
    }
    net.add_service_host(WORLD_RESOLVER, Box::new(DnsService::new(zone)));
    for c2 in &w.c2s {
        let commands = w
            .attack_schedule
            .get(&(c2.id, day))
            .cloned()
            .unwrap_or_default();
        let cfg = C2Config {
            family: c2.family,
            port: c2.port,
            respond: if commands.is_empty() {
                c2.respond
            } else {
                RespondMode::Always
            },
            commands_on_login: commands,
            serve_loader: c2.serves_loader.clone(),
        };
        net.add_service_host(c2.host_ip, Box::new(C2Service::new(cfg, C2Log::default())));
        if !c2.alive_on(day) {
            net.set_host_up(c2.host_ip, false);
        }
    }
    for (ip, loader) in &w.downloaders {
        // One entry, looked up by path only. lint: hash-ok
        let mut files = HashMap::new();
        files.insert(
            format!("/{loader}"),
            format!("#!/bin/sh\n# {loader}\n").into_bytes(),
        );
        net.add_service_host(*ip, Box::new(HttpFileServer::new(80, files)));
    }
    if (w.probe_start_day..w.probe_start_day + 14).contains(&day) {
        for (ip, _, banner) in decoys(w) {
            if net.has_host(ip) {
                continue;
            }
            if banner {
                net.add_service_host(ip, Box::new(BannerService::apache(PROBE_PORTS.to_vec())));
            } else {
                net.add_service_host(ip, Box::new(SinkService::new(PROBE_PORTS.to_vec())));
            }
        }
    }
    net
}

/// Each probe subnet's decoy addresses, a probe port each, and whether
/// the decoy is the banner one.
fn decoys(w: &World) -> Vec<(Ipv4Addr, u16, bool)> {
    let mut out = Vec::new();
    for (i, subnet) in w.probe_subnets.iter().enumerate() {
        let k = i as u32;
        out.push((subnet.host(60 + k).expect("room"), PROBE_PORTS[i], true));
        out.push((
            subnet.host(80 + k).expect("room"),
            PROBE_PORTS[i + 6],
            false,
        ));
    }
    out
}

/// Every address a world host may occupy, with the port it serves.
fn occupied(w: &World) -> Vec<(Ipv4Addr, u16)> {
    let mut out = vec![(WORLD_RESOLVER, 53)];
    out.extend(w.c2s.iter().map(|c2| (c2.host_ip, c2.port)));
    out.extend(w.downloaders.iter().map(|(ip, _)| (*ip, 80)));
    out.extend(decoys(w).into_iter().map(|(ip, port, _)| (ip, port)));
    out
}

/// No world service listens here.
const CLOSED_PORT: u16 = 1;

/// The outside host that sends all the traffic.
const OUTSIDE: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 77);

/// The state changes and empty addresses of one case.
struct Case {
    day: u32,
    seed: u64,
    /// `(C2 address, start, length)`: downtime windows on live C2s, the
    /// first of them open while the SYNs arrive.
    downtime: Vec<(Ipv4Addr, SimDuration, SimDuration)>,
    /// Direct `set_host_up` calls on C2s before any traffic.
    flips: Vec<(Ipv4Addr, bool)>,
    /// Addresses nothing occupies.
    empty: Vec<Ipv4Addr>,
}

/// Everything the outside can see of a world network.
struct Seen {
    capture: Vec<(u64, Packet)>,
    stats: NetStats,
    inbox: Vec<SockEvent>,
    /// `(has_host, host_up)` per occupied address, before and after.
    states: Vec<Vec<(bool, bool)>>,
}

fn random_case(w: &World, rng: &mut StdRng) -> Case {
    let window = w.probe_start_day..w.probe_start_day + 14;
    let attack_days: Vec<u32> = w.attack_schedule.keys().map(|&(_, day)| day).collect();
    let day = match rng.gen_range(0..3) {
        0 if !attack_days.is_empty() => attack_days[rng.gen_range(0..attack_days.len())],
        1 => rng.gen_range(window),
        _ => rng.gen_range(0..window.end + 10),
    };
    let live: Vec<Ipv4Addr> = (w.c2s.iter())
        .filter(|c2| c2.alive_on(day))
        .map(|c2| c2.host_ip)
        .collect();
    let mut downtime = Vec::new();
    if !live.is_empty() {
        let len = SimDuration::from_secs(rng.gen_range(20..600));
        downtime.push((live[rng.gen_range(0..live.len())], SimDuration::ZERO, len));
        let start = SimDuration::from_secs(rng.gen_range(0..3_600));
        downtime.push((live[rng.gen_range(0..live.len())], start, len));
    }
    let flips = (0..rng.gen_range(1..4))
        .map(|_| {
            (
                w.c2s[rng.gen_range(0..w.c2s.len())].host_ip,
                rng.gen_bool(0.5),
            )
        })
        .collect();
    let taken = occupied(w);
    let mut empty: Vec<Ipv4Addr> = (0..12)
        .map(|k| {
            let subnet = &w.probe_subnets[k % w.probe_subnets.len()];
            subnet.host(rng.gen_range(1..250)).expect("room")
        })
        .collect();
    empty.push(Ipv4Addr::new(100, 70, rng.gen(), rng.gen()));
    empty.retain(|ip| taken.iter().all(|(t, _)| t != ip));
    Case {
        day,
        seed: rng.gen(),
        downtime,
        flips,
        empty,
    }
}

/// Drive `net` as an outside host would: SYNs to every occupied address
/// on its port and on a closed one, to every HTTP server on port 80 and
/// to the empty addresses; an A query per DNS-named C2; a payload on
/// every connection that opens (an HTTP GET on port 80, a login
/// elsewhere, then a keepalive), and two hours for command timers.
fn drive(net: &mut Network, w: &World, case: &Case) -> Seen {
    let t0 = net.now();
    net.add_external_host(OUTSIDE);
    net.start_capture(OUTSIDE);
    net.ext_udp_bind(OUTSIDE, 5353);
    for &(ip, start, len) in &case.downtime {
        net.schedule_host_state(ip, t0 + start, false);
        net.schedule_host_state(ip, t0 + start + len, true);
    }
    for &(ip, up) in &case.flips {
        net.set_host_up(ip, up);
    }
    let occupied = occupied(w);
    let states = |net: &Network| -> Vec<(bool, bool)> {
        (occupied.iter())
            .map(|&(ip, _)| (net.has_host(ip), net.host_up(ip)))
            .collect()
    };
    let before = states(net);

    let http = (w.downloaders.iter().map(|(ip, _)| *ip))
        .chain((w.c2s.iter().filter(|c2| c2.serves_loader.is_some())).map(|c2| c2.host_ip));
    let targets: Vec<(Ipv4Addr, u16)> = (occupied.iter())
        .flat_map(|&(ip, port)| [(ip, port), (ip, CLOSED_PORT)])
        .chain(http.map(|ip| (ip, 80)))
        .chain(case.empty.iter().map(|&ip| (ip, 23)))
        .collect();
    let mut ports: BTreeMap<SockId, u16> = BTreeMap::new();
    for &(ip, port) in &targets {
        ports.insert(net.ext_tcp_connect(OUTSIDE, ip, port), port);
    }
    let domains = w.c2s.iter().filter_map(|c2| match &c2.endpoint {
        C2Endpoint::Domain(d) => DomainName::new(d).ok(),
        C2Endpoint::Ip(_) => None,
    });
    for (id, name) in domains.enumerate() {
        let query = DnsMessage::query(id as u16, name).encode();
        net.ext_udp_send(OUTSIDE, 5353, WORLD_RESOLVER, 53, query);
    }
    net.run_for(SimDuration::from_secs(10));
    let mut inbox = net.ext_events(OUTSIDE);

    let opened: Vec<(SockId, u16)> = (inbox.iter())
        .filter_map(|ev| match ev {
            SockEvent::Connected(sock) => Some((*sock, ports[sock])),
            _ => None,
        })
        .collect();
    for &(sock, port) in &opened {
        let payload: &[u8] = if port == 80 {
            b"GET /t8UsA2.sh HTTP/1.0\r\n\r\n"
        } else {
            &mirai::HANDSHAKE
        };
        net.ext_tcp_send(OUTSIDE, sock, payload);
    }
    net.run_for(SimDuration::from_secs(60));
    inbox.extend(net.ext_events(OUTSIDE));
    for &(sock, port) in &opened {
        if port != 80 {
            net.ext_tcp_send(OUTSIDE, sock, &mirai::KEEPALIVE);
        }
    }
    net.run_until(t0 + SimDuration::from_secs(2 * 3_600));
    inbox.extend(net.ext_events(OUTSIDE));
    let (capture, skipped) = pcap::parse_capture(&net.stop_capture(OUTSIDE)).expect("tap framing");
    assert_eq!(skipped, 0, "every frame the tap wrote decodes");
    Seen {
        states: vec![before, states(net)],
        stats: net.stats,
        inbox,
        capture,
    }
}

/// A lazily built world network is indistinguishable from the eager
/// one: same capture, statistics, inbox and host answers, for random
/// worlds, days (attack days, probing-window days, any day) and seeds,
/// with downtime windows and direct state flips on C2s. Half the worlds
/// move a probe C2 and a downloader onto decoy addresses, where the
/// decoys must give way.
#[test]
fn lazy_world_network_matches_the_eager_build() {
    let mut rng = proptest::test_rng("lazy_world_network_matches_the_eager_build");
    let mut opened = 0;
    let mut commands = 0;
    for world_case in 0..6 {
        let mut w = World::generate(WorldConfig {
            seed: rng.gen(),
            n_samples: rng.gen_range(40..160),
            cal: Calibration::default(),
        });
        if world_case % 2 == 1 {
            let [(banner_ip, ..), (sink_ip, ..), ..] = decoys(&w)[..] else {
                unreachable!("six probe subnets")
            };
            w.c2s[w.probe_c2_ids[0]].host_ip = banner_ip;
            w.downloaders[0].0 = sink_ip;
            w.roster = Arc::new(Roster::new(&w));
        }
        for case_no in 0..6 {
            let case = random_case(&w, &mut rng);
            let ctx = format!("world {world_case} case {case_no} day {}", case.day);
            let mut eager = eager_network(&w, case.day, case.seed);
            let (mut lazy, logs) = w.network_for_day_detached(case.day, case.seed);
            assert!(logs.is_empty());
            let want = drive(&mut eager, &w, &case);
            let got = drive(&mut lazy, &w, &case);
            assert_eq!(got.states, want.states, "host answers, {ctx}");
            assert_eq!(got.stats, want.stats, "stats, {ctx}");
            assert_eq!(got.inbox, want.inbox, "inbox, {ctx}");
            let first_diff = (got.capture.iter().zip(&want.capture)).position(|(a, b)| a != b);
            assert!(
                got.capture == want.capture,
                "capture, {ctx}: lengths {} vs {}, first difference at {first_diff:?}",
                got.capture.len(),
                want.capture.len()
            );
            opened += (want.inbox.iter())
                .filter(|ev| matches!(ev, SockEvent::Connected(_)))
                .count();
            // Commands go out 4 minutes or more after a login; no other
            // payload is sent that late.
            let late = SimTime::from_day(case.day, 0) + SimDuration::from_mins(3);
            commands += (want.capture.iter())
                .filter(|(ts, p)| *ts > late.as_micros() && p.src != OUTSIDE)
                .filter(|(_, p)| !p.transport.payload().is_empty())
                .count();
        }
    }
    assert!(opened > 0, "no connection opened");
    assert!(commands > 0, "no C2 issued a command");
}
