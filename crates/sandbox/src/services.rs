//! Fake-endpoint services the sandbox spins up on demand.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use malnet_netsim::net::{Service, ServiceCtx};
use malnet_netsim::stack::SockEvent;

use crate::sandbox::CapturedExploit;

/// Shared collector the sandbox reads after a run.
pub type VictimLog = Arc<Mutex<Vec<CapturedExploit>>>;

/// A fake victim: completes the TCP handshake on its ports, records the
/// first payload of each connection, sends a bland acknowledgement, and
/// closes. This is the paper's handshaker endpoint (§2.4).
#[derive(Debug)]
pub struct FakeVictim {
    ip: Ipv4Addr,
    ports: Vec<u16>,
    log: VictimLog,
    got: BTreeMap<malnet_netsim::stack::SockId, bool>,
}

impl FakeVictim {
    /// A victim at `ip` accepting on `ports`, appending payloads to `log`.
    pub fn new(ip: Ipv4Addr, ports: Vec<u16>, log: VictimLog) -> Self {
        FakeVictim {
            ip,
            ports,
            log,
            got: BTreeMap::new(),
        }
    }
}

impl Service for FakeVictim {
    fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
        for p in self.ports.clone() {
            ctx.tcp_listen(p);
        }
    }

    fn on_event(&mut self, ctx: &mut ServiceCtx<'_>, ev: SockEvent) {
        match ev {
            SockEvent::TcpData { sock, data } => {
                if let std::collections::btree_map::Entry::Vacant(e) = self.got.entry(sock) {
                    e.insert(true);
                    let port = ctx.stack.local_port(sock).unwrap_or(0);
                    self.log.lock().unwrap().push(CapturedExploit {
                        victim: self.ip,
                        port,
                        payload: data,
                    });
                    // A minimal HTTP-ish acknowledgement keeps chatty
                    // exploits talking; then close like an embedded httpd.
                    ctx.tcp_send(sock, b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
                    ctx.tcp_close(sock);
                }
            }
            SockEvent::PeerClosed { sock } | SockEvent::Reset { sock } => {
                self.got.remove(&sock);
            }
            _ => {}
        }
    }
}

/// InetSim-style sinkhole: accepts TCP on any listed port, replies with a
/// canned HTTP 200 and a tiny body for anything that looks like HTTP, or
/// stays silent otherwise. Used to fake downloader servers in contained
/// mode so loaders "succeed".
#[derive(Debug)]
pub struct InetSimHttp {
    ports: Vec<u16>,
}

impl InetSimHttp {
    /// Fake HTTP on `ports` (typically 80).
    pub fn new(ports: Vec<u16>) -> Self {
        InetSimHttp { ports }
    }
}

impl Service for InetSimHttp {
    fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
        for p in self.ports.clone() {
            ctx.tcp_listen(p);
        }
    }

    fn on_event(&mut self, ctx: &mut ServiceCtx<'_>, ev: SockEvent) {
        if let SockEvent::TcpData { sock, data } = ev {
            if data.starts_with(b"GET") || data.starts_with(b"POST") {
                ctx.tcp_send(
                    sock,
                    b"HTTP/1.0 200 OK\r\nServer: INetSim HTTP\r\nContent-Length: 10\r\n\r\nfake-binar",
                );
            }
            ctx.tcp_close(sock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malnet_netsim::net::Network;
    use malnet_netsim::time::{SimDuration, SimTime};

    const BOT: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 2);
    const FAKE: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 3);

    #[test]
    fn fake_victim_records_first_payload() {
        let log: VictimLog = Arc::default();
        let mut net = Network::new(SimTime::EPOCH, 5);
        net.add_service_host(
            FAKE,
            Box::new(FakeVictim::new(FAKE, vec![8080], log.clone())),
        );
        net.add_external_host(BOT);
        let sock = net.ext_tcp_connect(BOT, FAKE, 8080);
        net.run_for(SimDuration::from_secs(1));
        net.ext_tcp_send(
            BOT,
            sock,
            b"POST /GponForm/diag_Form HTTP/1.1\r\n\r\nXWebPageName=diag",
        );
        net.run_for(SimDuration::from_secs(2));
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].port, 8080);
        assert!(log[0].payload.starts_with(b"POST /GponForm"));
    }

    #[test]
    fn inetsim_http_serves_fake_body() {
        let mut net = Network::new(SimTime::EPOCH, 5);
        net.add_service_host(FAKE, Box::new(InetSimHttp::new(vec![80])));
        net.add_external_host(BOT);
        let sock = net.ext_tcp_connect(BOT, FAKE, 80);
        net.run_for(SimDuration::from_secs(1));
        net.ext_tcp_send(BOT, sock, b"GET /bins/mips HTTP/1.0\r\n\r\n");
        net.run_for(SimDuration::from_secs(1));
        let evs = net.ext_events(BOT);
        let data: Vec<u8> = evs
            .iter()
            .filter_map(|e| match e {
                SockEvent::TcpData { data, .. } => Some(data.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert!(String::from_utf8_lossy(&data).contains("INetSim"));
    }
}
