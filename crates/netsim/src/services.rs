//! Reusable application services for the simulated Internet.
//!
//! * [`HttpFileServer`] — a minimal HTTP/1.0 file server. The world model
//!   uses it as the malware **downloader server**: exploit payloads fetch
//!   loader scripts (`wget.sh`, `t8UsA2.sh`, …) from these hosts, usually
//!   co-located with the C2 (paper §3.1).
//! * [`BannerService`] — greets every connection with a protocol banner
//!   and closes. The paper's probing methodology filters out "hosts that
//!   present a well-known banner (such as Apache or Nginx)"; these hosts
//!   are the decoys that exercise that filter.
//! * [`SinkService`] — accepts connections and swallows data (a quiet
//!   non-C2 host that completes handshakes).

use std::collections::HashMap;

use crate::net::{Service, ServiceCtx};
use crate::stack::SockEvent;

/// A minimal HTTP/1.0 file server on a configurable port (default 80).
#[derive(Debug)]
pub struct HttpFileServer {
    port: u16,
    // Looked up by requested path only, never iterated. lint: hash-ok
    files: HashMap<String, Vec<u8>>,
    // Per-socket reassembly buffers, point-accessed by id. lint: hash-ok
    buf: HashMap<crate::stack::SockId, Vec<u8>>,
}

impl HttpFileServer {
    /// Serve `files` (path → body) on `port`.
    // Moved into the lookup-only `files` field above. lint: hash-ok
    pub fn new(port: u16, files: HashMap<String, Vec<u8>>) -> Self {
        HttpFileServer {
            port,
            files,
            buf: HashMap::new(), // lint: hash-ok
        }
    }
}

impl Service for HttpFileServer {
    fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
        ctx.tcp_listen(self.port);
    }

    fn on_event(&mut self, ctx: &mut ServiceCtx<'_>, ev: SockEvent) {
        match ev {
            SockEvent::TcpData { sock, data } => {
                let buf = self.buf.entry(sock).or_default();
                buf.extend_from_slice(&data);
                // A complete request ends with CRLFCRLF.
                if let Some(pos) = find_subslice(buf, b"\r\n\r\n") {
                    let head = String::from_utf8_lossy(&buf[..pos]).to_string();
                    self.buf.remove(&sock);
                    let path = head
                        .lines()
                        .next()
                        .and_then(|l| l.split_whitespace().nth(1))
                        .unwrap_or("/");
                    let response = match self.files.get(path) {
                        Some(body) => {
                            let mut r = format!(
                                "HTTP/1.0 200 OK\r\nServer: httpd\r\nContent-Length: {}\r\n\r\n",
                                body.len()
                            )
                            .into_bytes();
                            r.extend_from_slice(body);
                            r
                        }
                        None => b"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_vec(),
                    };
                    ctx.tcp_send(sock, &response);
                    ctx.tcp_close(sock);
                }
            }
            SockEvent::PeerClosed { sock } | SockEvent::Reset { sock } => {
                self.buf.remove(&sock);
            }
            _ => {}
        }
    }
}

/// Greets each accepted connection with a fixed banner, then closes.
#[derive(Debug)]
pub struct BannerService {
    ports: Vec<u16>,
    banner: String,
}

impl BannerService {
    /// A service presenting `banner` on each of `ports`.
    pub fn new(ports: Vec<u16>, banner: &str) -> Self {
        BannerService {
            ports,
            banner: banner.to_string(),
        }
    }

    /// An Apache-flavoured decoy.
    pub fn apache(ports: Vec<u16>) -> Self {
        Self::new(ports, "Server: Apache/2.4.41 (Ubuntu)\r\n")
    }

    /// An nginx-flavoured decoy.
    pub fn nginx(ports: Vec<u16>) -> Self {
        Self::new(ports, "Server: nginx/1.18.0\r\n")
    }
}

impl Service for BannerService {
    fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
        for p in self.ports.clone() {
            ctx.tcp_listen(p);
        }
    }

    fn on_event(&mut self, ctx: &mut ServiceCtx<'_>, ev: SockEvent) {
        if let SockEvent::Accepted { sock, .. } = ev {
            let banner = self.banner.clone().into_bytes();
            ctx.tcp_send(sock, &banner);
            ctx.tcp_close(sock);
        }
    }
}

/// Accepts connections on its ports and silently consumes everything.
#[derive(Debug)]
pub struct SinkService {
    ports: Vec<u16>,
}

impl SinkService {
    /// A sink listening on `ports`.
    pub fn new(ports: Vec<u16>) -> Self {
        SinkService { ports }
    }
}

impl Service for SinkService {
    fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
        for p in self.ports.clone() {
            ctx.tcp_listen(p);
        }
        for p in self.ports.clone() {
            ctx.udp_bind(p);
        }
    }

    fn on_event(&mut self, _ctx: &mut ServiceCtx<'_>, _ev: SockEvent) {}
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Network;
    use crate::time::{SimDuration, SimTime};
    use std::net::Ipv4Addr;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn drain_tcp_data(evs: &[SockEvent]) -> Vec<u8> {
        let mut out = Vec::new();
        for e in evs {
            if let SockEvent::TcpData { data, .. } = e {
                out.extend_from_slice(data);
            }
        }
        out
    }

    #[test]
    fn http_file_server_serves_loader() {
        let mut files = HashMap::new();
        files.insert("/wget.sh".to_string(), b"#!/bin/sh\nwget bot\n".to_vec());
        let mut net = Network::new(SimTime::EPOCH, 3);
        net.add_service_host(SERVER, Box::new(HttpFileServer::new(80, files)));
        net.add_external_host(CLIENT);
        let sock = net.ext_tcp_connect(CLIENT, SERVER, 80);
        net.run_for(SimDuration::from_secs(1));
        net.ext_tcp_send(CLIENT, sock, b"GET /wget.sh HTTP/1.0\r\n\r\n");
        net.run_for(SimDuration::from_secs(2));
        let evs = net.ext_events(CLIENT);
        let body = drain_tcp_data(&evs);
        let text = String::from_utf8_lossy(&body);
        assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");
        assert!(text.contains("wget bot"));
        assert!(evs
            .iter()
            .any(|e| matches!(e, SockEvent::PeerClosed { .. })));
    }

    #[test]
    fn http_404_for_unknown_path() {
        let mut net = Network::new(SimTime::EPOCH, 3);
        net.add_service_host(SERVER, Box::new(HttpFileServer::new(80, HashMap::new())));
        net.add_external_host(CLIENT);
        let sock = net.ext_tcp_connect(CLIENT, SERVER, 80);
        net.run_for(SimDuration::from_secs(1));
        net.ext_tcp_send(CLIENT, sock, b"GET /nothing HTTP/1.0\r\n\r\n");
        net.run_for(SimDuration::from_secs(2));
        let body = drain_tcp_data(&net.ext_events(CLIENT));
        assert!(String::from_utf8_lossy(&body).starts_with("HTTP/1.0 404"));
    }

    #[test]
    fn banner_service_greets_and_closes() {
        let mut net = Network::new(SimTime::EPOCH, 3);
        net.add_service_host(SERVER, Box::new(BannerService::apache(vec![666])));
        net.add_external_host(CLIENT);
        let _sock = net.ext_tcp_connect(CLIENT, SERVER, 666);
        net.run_for(SimDuration::from_secs(2));
        let evs = net.ext_events(CLIENT);
        let body = drain_tcp_data(&evs);
        assert!(String::from_utf8_lossy(&body).contains("Apache"));
        assert!(evs
            .iter()
            .any(|e| matches!(e, SockEvent::PeerClosed { .. })));
    }

    #[test]
    fn sink_counts_bytes() {
        let mut net = Network::new(SimTime::EPOCH, 3);
        net.add_service_host(SERVER, Box::new(SinkService::new(vec![5555])));
        net.add_external_host(CLIENT);
        let sock = net.ext_tcp_connect(CLIENT, SERVER, 5555);
        net.run_for(SimDuration::from_secs(1));
        net.ext_tcp_send(CLIENT, sock, &[0u8; 100]);
        net.ext_udp_send(CLIENT, 1, SERVER, 5555, vec![0u8; 50]);
        net.run_for(SimDuration::from_secs(2));
        // Can't reach inside the box; confirm via stats that data flowed.
        assert!(net.stats.delivered >= 4);
    }

    #[test]
    fn partial_http_requests_buffer_until_complete() {
        let mut files = HashMap::new();
        files.insert("/x".to_string(), b"ok".to_vec());
        let mut net = Network::new(SimTime::EPOCH, 3);
        net.add_service_host(SERVER, Box::new(HttpFileServer::new(80, files)));
        net.add_external_host(CLIENT);
        let sock = net.ext_tcp_connect(CLIENT, SERVER, 80);
        net.run_for(SimDuration::from_secs(1));
        net.ext_tcp_send(CLIENT, sock, b"GET /x HT");
        net.run_for(SimDuration::from_secs(1));
        assert!(drain_tcp_data(&net.ext_events(CLIENT)).is_empty());
        net.ext_tcp_send(CLIENT, sock, b"TP/1.0\r\n\r\n");
        net.run_for(SimDuration::from_secs(1));
        let body = drain_tcp_data(&net.ext_events(CLIENT));
        assert!(String::from_utf8_lossy(&body).contains("200 OK"));
    }
}
