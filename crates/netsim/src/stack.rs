//! Per-host socket table: a miniature sockets layer over [`crate::tcp`].
//!
//! Each simulated host owns a [`HostStack`]. Application code (a
//! [`crate::net::Service`] or the sandbox's emulated malware) uses the
//! small sockets API (`tcp_listen` / `tcp_connect` / `tcp_send` /
//! `udp_bind` / `udp_send` / …); incoming packets are demultiplexed by
//! [`HostStack::handle_packet`], which returns reply packets plus a list
//! of [`SockEvent`]s for the application.

use std::collections::{btree_map, hash_map, BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

use malnet_wire::icmp::IcmpMessage;
use malnet_wire::packet::{Packet, Transport};
use malnet_wire::tcp::TcpFlags;

use crate::hash::FixedState;
use crate::tcp::{TcpConn, TcpEvent, TcpState};

/// Opaque socket identifier, unique within one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SockId(pub u64);

/// Why a connect attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectError {
    /// The peer answered with RST (port closed but host alive).
    Refused,
    /// No answer before the SYN timeout (host dead or dropping).
    TimedOut,
}

/// Events delivered to the application layer of a host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockEvent {
    /// An active open completed.
    Connected(SockId),
    /// An active open failed.
    ConnectFailed {
        /// The socket that failed.
        sock: SockId,
        /// Failure reason.
        reason: ConnectError,
    },
    /// A listener accepted a connection (handshake complete).
    Accepted {
        /// Local listening port.
        listener_port: u16,
        /// The new connection's socket.
        sock: SockId,
        /// Remote endpoint.
        peer: (Ipv4Addr, u16),
    },
    /// Payload bytes arrived on a TCP connection.
    TcpData {
        /// The connection.
        sock: SockId,
        /// Bytes received, in order.
        data: Vec<u8>,
    },
    /// The peer closed its sending direction.
    PeerClosed {
        /// The connection.
        sock: SockId,
    },
    /// The connection was reset.
    Reset {
        /// The connection.
        sock: SockId,
    },
    /// A UDP datagram arrived on a bound port.
    UdpData {
        /// Local bound port.
        port: u16,
        /// Remote endpoint.
        src: (Ipv4Addr, u16),
        /// Datagram payload.
        data: Vec<u8>,
    },
    /// An ICMP message arrived (echo requests are auto-answered and not
    /// surfaced).
    IcmpIn {
        /// Sender address.
        from: Ipv4Addr,
        /// The message.
        msg: IcmpMessage,
    },
}

impl SockEvent {
    /// The socket this event concerns, if any.
    pub fn sock(&self) -> Option<SockId> {
        match self {
            SockEvent::Connected(s)
            | SockEvent::ConnectFailed { sock: s, .. }
            | SockEvent::Accepted { sock: s, .. }
            | SockEvent::TcpData { sock: s, .. }
            | SockEvent::PeerClosed { sock: s }
            | SockEvent::Reset { sock: s } => Some(*s),
            _ => None,
        }
    }
}

/// Output of feeding one packet to a stack.
#[derive(Debug, Default)]
pub struct StackOutput {
    /// Packets to transmit in response.
    pub replies: Vec<Packet>,
    /// Application events.
    pub events: Vec<SockEvent>,
}

type ConnKey = (u16, Ipv4Addr, u16); // (local port, remote ip, remote port)

/// The socket table of one host.
#[derive(Debug)]
pub struct HostStack {
    /// The host's address.
    pub ip: Ipv4Addr,
    next_sock: u64,
    next_ephemeral: u16,
    iss: u32,
    // Ordered maps: `abort_all` walks `conns`, and event emission order
    // must not depend on per-process hasher state.
    listeners: BTreeSet<u16>,
    udp_binds: BTreeSet<u16>,
    conns: BTreeMap<ConnKey, (SockId, TcpConn)>,
    // Point queries by socket id only; nothing iterates it. lint: hash-ok
    by_sock: HashMap<SockId, ConnKey, FixedState>,
    /// When true, closed UDP ports elicit ICMP port-unreachable and closed
    /// TCP ports elicit RST (a "live host"). When false the stack is
    /// silent, which the network uses to model firewalled hosts.
    pub responds_when_closed: bool,
}

impl HostStack {
    /// Create a stack for the given address.
    pub fn new(ip: Ipv4Addr) -> Self {
        HostStack {
            ip,
            next_sock: 1,
            next_ephemeral: 32768,
            iss: (u32::from(ip)).wrapping_mul(2654435761),
            listeners: BTreeSet::new(),
            udp_binds: BTreeSet::new(),
            conns: BTreeMap::new(),
            by_sock: HashMap::default(), // lookup-only, see field. lint: hash-ok
            responds_when_closed: true,
        }
    }

    fn new_sock(&mut self) -> SockId {
        let s = SockId(self.next_sock);
        self.next_sock += 1;
        s
    }

    fn next_iss(&mut self) -> u32 {
        self.iss = self.iss.wrapping_mul(1664525).wrapping_add(1013904223);
        self.iss
    }

    /// Allocate an ephemeral source port.
    pub fn ephemeral_port(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = if self.next_ephemeral >= 60999 {
            32768
        } else {
            self.next_ephemeral + 1
        };
        p
    }

    /// Start listening for TCP connections on `port`.
    pub fn tcp_listen(&mut self, port: u16) {
        self.listeners.insert(port);
    }

    /// Bind a UDP port.
    pub fn udp_bind(&mut self, port: u16) {
        self.udp_binds.insert(port);
    }

    /// Unbind a UDP port.
    pub fn udp_unbind(&mut self, port: u16) {
        self.udp_binds.remove(&port);
    }

    /// Active-open a TCP connection from an ephemeral port.
    pub fn tcp_connect(&mut self, dst: Ipv4Addr, dport: u16) -> (SockId, Packet) {
        let sport = self.ephemeral_port();
        self.tcp_connect_from(sport, dst, dport)
    }

    /// Active-open from a chosen source port (DDoS code paths pick their
    /// own source ports).
    pub fn tcp_connect_from(&mut self, sport: u16, dst: Ipv4Addr, dport: u16) -> (SockId, Packet) {
        let (sock, conn, syn) = self.open(sport, dst, dport);
        let key = (sport, dst, dport);
        self.conns.insert(key, (sock, conn));
        self.by_sock.insert(sock, key);
        (sock, syn)
    }

    /// The SYN of an active open from an ephemeral port, keeping no
    /// connection: it consumes the socket id, the port and the ISS that
    /// [`HostStack::tcp_connect`] would, for a SYN nothing can answer.
    pub(crate) fn tcp_syn(&mut self, dst: Ipv4Addr, dport: u16) -> (SockId, Packet) {
        let sport = self.ephemeral_port();
        let (sock, _, syn) = self.open(sport, dst, dport);
        (sock, syn)
    }

    /// Draw the ISS and the socket id of an active open.
    fn open(&mut self, sport: u16, dst: Ipv4Addr, dport: u16) -> (SockId, TcpConn, Packet) {
        let iss = self.next_iss();
        let (conn, syn) = TcpConn::connect((self.ip, sport), (dst, dport), iss);
        (self.new_sock(), conn, syn)
    }

    /// Send bytes on an established connection.
    pub fn tcp_send(&mut self, sock: SockId, data: &[u8]) -> Vec<Packet> {
        match self.conn_mut(sock) {
            Some(conn) => conn.send(data),
            None => Vec::new(),
        }
    }

    /// Orderly close.
    pub fn tcp_close(&mut self, sock: SockId) -> Vec<Packet> {
        let out = match self.conn_mut(sock) {
            Some(conn) => conn.close().into_iter().collect(),
            None => Vec::new(),
        };
        self.gc(sock);
        out
    }

    /// Abortive close (RST).
    pub fn tcp_abort(&mut self, sock: SockId) -> Option<Packet> {
        let out = self.conn_mut(sock).and_then(|c| c.abort());
        self.gc(sock);
        out
    }

    /// Send a UDP datagram from `sport`.
    pub fn udp_send(&mut self, sport: u16, dst: Ipv4Addr, dport: u16, payload: Vec<u8>) -> Packet {
        Packet::udp(self.ip, sport, dst, dport, payload)
    }

    /// Send an ICMP message.
    pub fn icmp_send(&mut self, dst: Ipv4Addr, msg: IcmpMessage) -> Packet {
        Packet::icmp(self.ip, dst, msg)
    }

    /// Remote endpoint of a connection.
    pub fn peer(&self, sock: SockId) -> Option<(Ipv4Addr, u16)> {
        let key = self.by_sock.get(&sock)?;
        self.conns.get(key).map(|(_, c)| c.remote)
    }

    /// Local port of a connection.
    pub fn local_port(&self, sock: SockId) -> Option<u16> {
        self.by_sock.get(&sock).map(|k| k.0)
    }

    /// Connection state, if the socket exists.
    pub fn state(&self, sock: SockId) -> Option<TcpState> {
        let key = self.by_sock.get(&sock)?;
        self.conns.get(key).map(|(_, c)| c.state)
    }

    /// Number of live TCP connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    fn conn_mut(&mut self, sock: SockId) -> Option<&mut TcpConn> {
        let key = self.by_sock.get(&sock)?;
        self.conns.get_mut(key).map(|(_, c)| c)
    }

    fn gc(&mut self, sock: SockId) {
        if let Some(key) = self.by_sock.get(&sock) {
            if self
                .conns
                .get(key)
                .map(|(_, c)| c.is_closed())
                .unwrap_or(false)
            {
                let key = *key;
                self.conns.remove(&key);
                self.by_sock.remove(&sock);
            }
        }
    }

    /// Used by the network's connect-timeout event: if the socket is still
    /// in SYN-SENT, kill it and report the failure.
    pub fn connect_timeout_fired(&mut self, sock: SockId) -> Option<SockEvent> {
        let hash_map::Entry::Occupied(by_sock) = self.by_sock.entry(sock) else {
            return None;
        };
        let btree_map::Entry::Occupied(conn) = self.conns.entry(*by_sock.get()) else {
            return None;
        };
        if conn.get().1.state != TcpState::SynSent {
            return None;
        }
        conn.remove();
        by_sock.remove();
        Some(SockEvent::ConnectFailed {
            sock,
            reason: ConnectError::TimedOut,
        })
    }

    /// Abort every connection, returning the RST notifications for the
    /// peers in canonical `(local port, peer ip, peer port)` order —
    /// `conns` is a `BTreeMap`, so draining it yields exactly that
    /// order with no explicit sort. Used by
    /// `Network::set_host_up(_, false)` so a dying host's peers are not
    /// left with dangling TCP state.
    pub fn abort_all(&mut self) -> Vec<Packet> {
        let mut out = Vec::new();
        for (_, (_, mut conn)) in std::mem::take(&mut self.conns) {
            if let Some(rst) = conn.abort() {
                out.push(rst);
            }
        }
        self.by_sock.clear();
        out
    }

    /// Demultiplex one incoming packet.
    pub fn handle_packet(&mut self, pkt: &Packet) -> StackOutput {
        let mut out = StackOutput::default();
        if pkt.dst != self.ip {
            return out; // not ours; the network should not have delivered it
        }
        match &pkt.transport {
            Transport::Tcp { header, payload } => {
                let key = (header.dst_port, pkt.src, header.src_port);
                if let Some((sock, conn)) = self.conns.get_mut(&key) {
                    let sock = *sock;
                    let was_server_handshake = conn.state == TcpState::SynReceived;
                    let was_connecting = conn.state == TcpState::SynSent;
                    let (replies, evs) = conn.on_segment(header, payload);
                    out.replies.extend(replies);
                    for ev in evs {
                        out.events.push(match ev {
                            TcpEvent::Connected => {
                                if was_server_handshake {
                                    SockEvent::Accepted {
                                        listener_port: key.0,
                                        sock,
                                        peer: (key.1, key.2),
                                    }
                                } else {
                                    SockEvent::Connected(sock)
                                }
                            }
                            TcpEvent::Data(d) => SockEvent::TcpData { sock, data: d },
                            TcpEvent::PeerFin => SockEvent::PeerClosed { sock },
                            TcpEvent::Reset => {
                                if was_connecting {
                                    // RST answering our SYN: refused.
                                    SockEvent::ConnectFailed {
                                        sock,
                                        reason: ConnectError::Refused,
                                    }
                                } else {
                                    SockEvent::Reset { sock }
                                }
                            }
                        });
                    }
                    self.gc(sock);
                } else if header.flags.syn() && !header.flags.ack() {
                    if self.listeners.contains(&header.dst_port) {
                        let iss = self.next_iss();
                        let (conn, syn_ack) = TcpConn::accept(
                            (self.ip, header.dst_port),
                            (pkt.src, header.src_port),
                            iss,
                            header.seq,
                        );
                        let sock = self.new_sock();
                        self.conns.insert(key, (sock, conn));
                        self.by_sock.insert(sock, key);
                        out.replies.push(syn_ack);
                    } else if self.responds_when_closed {
                        // Closed port: RST.
                        out.replies.push(Packet::tcp(
                            self.ip,
                            header.dst_port,
                            pkt.src,
                            header.src_port,
                            0,
                            header.seq.wrapping_add(1),
                            TcpFlags::RST.union(TcpFlags::ACK),
                            vec![],
                        ));
                    }
                } else if header.flags.rst() {
                    // RST for an unknown connection: check whether it
                    // refuses a pending SYN we sent from that port.
                    // (Connection was already removed; nothing to do.)
                } else if self.responds_when_closed {
                    out.replies.push(Packet::tcp(
                        self.ip,
                        header.dst_port,
                        pkt.src,
                        header.src_port,
                        header.ack,
                        header.seq,
                        TcpFlags::RST,
                        vec![],
                    ));
                }
            }
            Transport::Udp { header, payload } => {
                if self.udp_binds.contains(&header.dst_port) {
                    out.events.push(SockEvent::UdpData {
                        port: header.dst_port,
                        src: (pkt.src, header.src_port),
                        data: payload.clone(),
                    });
                } else if self.responds_when_closed {
                    // Quote the offending datagram's IPv4 header and the
                    // first 8 bytes of its payload (RFC 792).
                    let mut original = pkt.encode_ipv4();
                    original.truncate(28);
                    out.replies.push(Packet::icmp(
                        self.ip,
                        pkt.src,
                        IcmpMessage::DestinationUnreachable {
                            code: 3,
                            payload: original,
                        },
                    ));
                }
            }
            Transport::Icmp(msg) => match msg {
                IcmpMessage::EchoRequest {
                    ident,
                    seq,
                    payload,
                } => {
                    out.replies.push(Packet::icmp(
                        self.ip,
                        pkt.src,
                        IcmpMessage::EchoReply {
                            ident: *ident,
                            seq: *seq,
                            payload: payload.clone(),
                        },
                    ));
                }
                other => out.events.push(SockEvent::IcmpIn {
                    from: pkt.src,
                    msg: other.clone(),
                }),
            },
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Shuttle packets between two stacks until quiescent, collecting events.
    fn pump(
        a: &mut HostStack,
        b: &mut HostStack,
        initial: Vec<Packet>,
    ) -> Vec<(Ipv4Addr, SockEvent)> {
        let mut events = Vec::new();
        let mut inflight = initial;
        let mut guard = 0;
        while !inflight.is_empty() {
            guard += 1;
            assert!(guard < 100, "packet storm in test pump");
            let mut next = Vec::new();
            for pkt in inflight {
                let target = if pkt.dst == a.ip { &mut *a } else { &mut *b };
                let out = target.handle_packet(&pkt);
                let tip = target.ip;
                next.extend(out.replies);
                events.extend(out.events.into_iter().map(|e| (tip, e)));
            }
            inflight = next;
        }
        events
    }

    #[test]
    fn full_connect_accept_data_cycle() {
        let mut client = HostStack::new(A);
        let mut server = HostStack::new(B);
        server.tcp_listen(23);
        let (csock, syn) = client.tcp_connect(B, 23);
        let events = pump(&mut client, &mut server, vec![syn]);
        assert!(events
            .iter()
            .any(|(ip, e)| *ip == A && matches!(e, SockEvent::Connected(s) if *s == csock)));
        let acc: Vec<_> = events
            .iter()
            .filter(|(ip, e)| *ip == B && matches!(e, SockEvent::Accepted { .. }))
            .collect();
        assert_eq!(acc.len(), 1);
        // Send data client -> server.
        let data = client.tcp_send(csock, b"ping");
        let events = pump(&mut client, &mut server, data);
        assert!(events
            .iter()
            .any(|(ip, e)| *ip == B
                && matches!(e, SockEvent::TcpData { data, .. } if data == b"ping")));
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let mut client = HostStack::new(A);
        let mut server = HostStack::new(B);
        let (_csock, syn) = client.tcp_connect(B, 9999);
        let out = server.handle_packet(&syn);
        assert_eq!(out.replies.len(), 1);
        let rst = &out.replies[0];
        assert!(rst.tcp_flags().unwrap().rst());
        let out2 = client.handle_packet(rst);
        assert!(out2.events.iter().any(|e| matches!(
            e,
            SockEvent::ConnectFailed {
                reason: ConnectError::Refused,
                ..
            }
        )));
    }

    #[test]
    fn firewalled_host_is_silent() {
        let mut client = HostStack::new(A);
        let mut server = HostStack::new(B);
        server.responds_when_closed = false;
        let (_s, syn) = client.tcp_connect(B, 1312);
        let out = server.handle_packet(&syn);
        assert!(out.replies.is_empty());
        let udp = client.udp_send(5000, B, 1312, b"probe".to_vec());
        let out = server.handle_packet(&udp);
        assert!(out.replies.is_empty());
    }

    #[test]
    fn udp_bind_and_receive() {
        let mut client = HostStack::new(A);
        let mut server = HostStack::new(B);
        server.udp_bind(53);
        let q = client.udp_send(40000, B, 53, b"query".to_vec());
        let out = server.handle_packet(&q);
        assert_eq!(
            out.events,
            vec![SockEvent::UdpData {
                port: 53,
                src: (A, 40000),
                data: b"query".to_vec()
            }]
        );
    }

    #[test]
    fn udp_to_closed_port_gets_port_unreachable() {
        let mut client = HostStack::new(A);
        let mut server = HostStack::new(B);
        let q = client.udp_send(40000, B, 1000, b"x".to_vec());
        let out = server.handle_packet(&q);
        assert_eq!(out.replies.len(), 1);
        match &out.replies[0].transport {
            Transport::Icmp(IcmpMessage::DestinationUnreachable { code, .. }) => {
                assert_eq!(*code, 3)
            }
            other => panic!("expected ICMP unreachable, got {other:?}"),
        }
    }

    #[test]
    fn echo_request_is_auto_answered() {
        let mut a = HostStack::new(A);
        let mut b = HostStack::new(B);
        let ping = a.icmp_send(
            B,
            IcmpMessage::EchoRequest {
                ident: 77,
                seq: 1,
                payload: vec![1, 2, 3],
            },
        );
        let out = b.handle_packet(&ping);
        assert_eq!(out.replies.len(), 1);
        match &out.replies[0].transport {
            Transport::Icmp(IcmpMessage::EchoReply { ident, .. }) => assert_eq!(*ident, 77),
            other => panic!("expected echo reply, got {other:?}"),
        }
        assert!(out.events.is_empty());
        drop(a);
    }

    #[test]
    fn connect_timeout_only_fires_in_syn_sent() {
        let mut client = HostStack::new(A);
        let (sock, _syn) = client.tcp_connect(B, 23);
        let ev = client.connect_timeout_fired(sock);
        assert!(matches!(
            ev,
            Some(SockEvent::ConnectFailed {
                reason: ConnectError::TimedOut,
                ..
            })
        ));
        // Second firing: socket gone.
        assert!(client.connect_timeout_fired(sock).is_none());
    }

    #[test]
    fn close_cycle_garbage_collects() {
        let mut client = HostStack::new(A);
        let mut server = HostStack::new(B);
        server.tcp_listen(80);
        let (csock, syn) = client.tcp_connect(B, 80);
        pump(&mut client, &mut server, vec![syn]);
        assert_eq!(client.conn_count(), 1);
        assert_eq!(server.conn_count(), 1);
        let fins = client.tcp_close(csock);
        let events = pump(&mut client, &mut server, fins);
        let ssock = events
            .iter()
            .find_map(|(ip, e)| {
                if *ip == B {
                    if let SockEvent::PeerClosed { sock } = e {
                        return Some(*sock);
                    }
                }
                None
            })
            .expect("server saw FIN");
        let fins2 = server.tcp_close(ssock);
        pump(&mut client, &mut server, fins2);
        assert_eq!(client.conn_count(), 0);
        assert_eq!(server.conn_count(), 0);
    }

    #[test]
    fn ephemeral_ports_cycle_within_range() {
        let mut s = HostStack::new(A);
        s.next_ephemeral = 60998;
        assert_eq!(s.ephemeral_port(), 60998);
        assert_eq!(s.ephemeral_port(), 60999);
        assert_eq!(s.ephemeral_port(), 32768);
    }

    #[test]
    fn fixed_source_port_connect() {
        let mut client = HostStack::new(A);
        let (sock, syn) = client.tcp_connect_from(666, B, 23);
        assert_eq!(client.local_port(sock), Some(666));
        assert_eq!(syn.transport.src_port(), Some(666));
        assert_eq!(client.peer(sock), Some((B, 23)));
    }
}
