//! The botmaster side: C2 server services installed on world hosts.
//!
//! A [`C2Service`] speaks its family's protocol to connecting bots:
//! acknowledges logins, echoes keepalives, and issues scheduled DDoS
//! commands. Its *elusiveness* — the paper's central observation about
//! C2 behaviour (§3.2) — is modelled per session by a [`RespondMode`]:
//! an accepting-but-silent server is exactly what the probing study
//! observed 91% of the time after a successful probe.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use malnet_prng::Rng;

use malnet_netsim::net::{Service, ServiceCtx};
use malnet_netsim::stack::{SockEvent, SockId};
use malnet_netsim::time::SimDuration;
use malnet_protocols::{daddyl33t, gafgyt, mirai, tsunami, AttackCommand, Family};

/// Session-level responsiveness policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RespondMode {
    /// Engage every session (used for DDoS-observation C2s).
    Always,
    /// Never engage (accept TCP, say nothing).
    Never,
    /// Markov engagement: probability of engaging depends on whether the
    /// previous session was engaged. Calibrated so that ~91% of probes
    /// following a successful probe go unanswered (paper §3.2).
    Markov {
        /// P(engage | last session engaged).
        after_engage: f64,
        /// P(engage | last session silent).
        after_silent: f64,
    },
}

impl RespondMode {
    /// The paper-calibrated elusive profile.
    pub fn elusive() -> Self {
        RespondMode::Markov {
            after_engage: 0.09,
            after_silent: 0.28,
        }
    }
}

/// Ground-truth log shared with the world: what the C2 actually did.
#[derive(Debug, Default)]
pub struct C2LogInner {
    /// Sessions accepted (ts µs, engaged?).
    pub sessions: Vec<(u64, bool)>,
    /// Logins observed (ts µs, first bytes).
    pub logins: Vec<(u64, Vec<u8>)>,
    /// Attack commands issued (ts µs, command).
    pub commands: Vec<(u64, AttackCommand)>,
}

/// Shared handle to a C2's ground-truth log.
pub type C2Log = Arc<Mutex<C2LogInner>>;

/// Configuration of one C2 server.
#[derive(Debug, Clone)]
pub struct C2Config {
    /// Protocol family the server speaks.
    pub family: Family,
    /// Listening port.
    pub port: u16,
    /// Responsiveness policy.
    pub respond: RespondMode,
    /// Commands issued into each engaged session, `delay` after login.
    pub commands_on_login: Vec<(SimDuration, AttackCommand)>,
    /// Also run an HTTP downloader on port 80 (the paper finds most
    /// downloaders co-located with C2s, all on port 80 — §3.1).
    pub serve_loader: Option<String>,
}

impl Default for C2Config {
    fn default() -> Self {
        C2Config {
            family: Family::Mirai,
            port: 23,
            respond: RespondMode::Always,
            commands_on_login: Vec::new(),
            serve_loader: None,
        }
    }
}

struct Session {
    engaged: bool,
    logged_in: bool,
}

/// The C2 server service.
pub struct C2Service {
    cfg: C2Config,
    log: C2Log,
    sessions: BTreeMap<SockId, Session>,
    /// Markov chain state: was the last session engaged?
    last_engaged: bool,
    timers: BTreeMap<u64, (SockId, usize)>,
    next_timer: u64,
    commands_scheduled: bool,
}

impl C2Service {
    /// Create a service with a shared ground-truth log. Its
    /// responsiveness chain starts "last session silent".
    pub fn new(cfg: C2Config, log: C2Log) -> Self {
        C2Service {
            cfg,
            log,
            sessions: BTreeMap::new(),
            last_engaged: false,
            timers: BTreeMap::new(),
            next_timer: 1,
            commands_scheduled: false,
        }
    }

    fn draw_engage(&mut self, ctx: &mut ServiceCtx<'_>) -> bool {
        let engaged = match self.cfg.respond {
            RespondMode::Always => true,
            RespondMode::Never => false,
            RespondMode::Markov {
                after_engage,
                after_silent,
            } => {
                let p = if self.last_engaged {
                    after_engage
                } else {
                    after_silent
                };
                ctx.rng().gen_bool(p)
            }
        };
        self.last_engaged = engaged;
        engaged
    }

    fn ack_bytes(&self) -> Vec<u8> {
        match self.cfg.family {
            Family::Mirai => mirai::KEEPALIVE.to_vec(),
            Family::Gafgyt => gafgyt::PING.as_bytes().to_vec(),
            Family::Daddyl33t => daddyl33t::PING.as_bytes().to_vec(),
            Family::Tsunami => tsunami::welcome_lines("bot").into_bytes(),
            _ => b"OK\n".to_vec(),
        }
    }

    fn encode_command(&self, cmd: &AttackCommand) -> Option<Vec<u8>> {
        match self.cfg.family {
            Family::Mirai => mirai::encode_command(cmd),
            Family::Gafgyt => gafgyt::encode_command(cmd).map(String::into_bytes),
            Family::Daddyl33t => daddyl33t::encode_command(cmd).map(String::into_bytes),
            _ => None,
        }
    }
}

impl Service for C2Service {
    fn start(&mut self, ctx: &mut ServiceCtx<'_>) {
        ctx.tcp_listen(self.cfg.port);
        if self.cfg.serve_loader.is_some() {
            ctx.tcp_listen(80);
        }
    }

    fn on_event(&mut self, ctx: &mut ServiceCtx<'_>, ev: SockEvent) {
        match ev {
            SockEvent::Accepted {
                listener_port,
                sock,
                ..
            } => {
                if listener_port == 80 {
                    return; // downloader connection; handled on data
                }
                // The engagement decision is made lazily at login time:
                // bare scans/liveness probes that never speak must not
                // advance the responsiveness chain.
                self.sessions.insert(
                    sock,
                    Session {
                        engaged: false,
                        logged_in: false,
                    },
                );
            }
            SockEvent::TcpData { sock, data } => {
                if let Some(port) = ctx.stack.local_port(sock) {
                    if port == 80 {
                        // Downloader: any HTTP request gets the loader.
                        if let Some(loader) = &self.cfg.serve_loader {
                            let body = format!("#!/bin/sh\n# {loader}\nwget bins && sh\n");
                            let resp = format!(
                                "HTTP/1.0 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                                body.len()
                            );
                            ctx.tcp_send(sock, resp.as_bytes());
                            ctx.tcp_close(sock);
                        }
                        return;
                    }
                }
                let Some(session) = self.sessions.get_mut(&sock) else {
                    return;
                };
                if !session.logged_in {
                    session.logged_in = true;
                    self.log
                        .lock()
                        .unwrap()
                        .logins
                        .push((ctx.now.as_micros(), data.clone()));
                    // Engagement draw on first protocol bytes.
                    let mut sessions = std::mem::take(&mut self.sessions);
                    let engaged = self.draw_engage(ctx);
                    self.sessions = std::mem::take(&mut sessions);
                    let session = self.sessions.get_mut(&sock).expect("session exists");
                    session.engaged = engaged;
                    self.log
                        .lock()
                        .unwrap()
                        .sessions
                        .push((ctx.now.as_micros(), engaged));
                    if session.engaged {
                        let ack = self.ack_bytes();
                        ctx.tcp_send(sock, &ack);
                        // Every engaged session receives the day's
                        // command schedule; the analysis side counts each
                        // distinct command once (as the paper does).
                        let _ = self.commands_scheduled;
                        for (i, (delay, _)) in self.cfg.commands_on_login.iter().enumerate() {
                            let token = self.next_timer;
                            self.next_timer += 1;
                            self.timers.insert(token, (sock, i));
                            ctx.set_timer(*delay, token);
                        }
                    }
                    return;
                }
                if !session.engaged {
                    return; // elusive: swallow everything silently
                }
                // Engaged steady-state: echo keepalives per family.
                match self.cfg.family {
                    Family::Mirai if mirai::is_keepalive(&data) => {
                        ctx.tcp_send(sock, &mirai::KEEPALIVE);
                    }
                    Family::Tsunami => {
                        // Periodically ping the bot so IRC looks alive.
                        let ping = tsunami::ping_line("irc").into_bytes();
                        ctx.tcp_send(sock, &ping);
                    }
                    _ => {}
                }
            }
            SockEvent::PeerClosed { sock } | SockEvent::Reset { sock } => {
                self.sessions.remove(&sock);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_>, token: u64) {
        let Some((sock, idx)) = self.timers.remove(&token) else {
            return;
        };
        if !self.sessions.contains_key(&sock) {
            return; // bot went away before the command fired
        }
        let Some((_, cmd)) = self.cfg.commands_on_login.get(idx) else {
            return;
        };
        if let Some(bytes) = self.encode_command(cmd) {
            self.log
                .lock()
                .unwrap()
                .commands
                .push((ctx.now.as_micros(), *cmd));
            ctx.tcp_send(sock, &bytes);
        }
    }
}

/// Convenience: install a C2 at `ip` on `net`, returning its log handle.
pub fn install_c2(net: &mut malnet_netsim::net::Network, ip: Ipv4Addr, cfg: C2Config) -> C2Log {
    let log = C2Log::default();
    net.add_service_host(ip, Box::new(C2Service::new(cfg, log.clone())));
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use malnet_netsim::net::Network;
    use malnet_netsim::time::SimTime;
    use malnet_protocols::AttackMethod;

    const C2: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);
    const BOT: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 2);

    fn cmd() -> AttackCommand {
        AttackCommand {
            method: AttackMethod::UdpFlood,
            target: Ipv4Addr::new(203, 0, 113, 50),
            port: 80,
            duration_secs: 5,
        }
    }

    #[test]
    fn engaged_mirai_session_acks_and_issues_command() {
        let mut net = Network::new(SimTime::EPOCH, 3);
        let log = install_c2(
            &mut net,
            C2,
            C2Config {
                family: Family::Mirai,
                port: 23,
                respond: RespondMode::Always,
                commands_on_login: vec![(SimDuration::from_secs(2), cmd())],
                serve_loader: None,
            },
        );
        net.add_external_host(BOT);
        let sock = net.ext_tcp_connect(BOT, C2, 23);
        net.run_for(SimDuration::from_secs(1));
        net.ext_tcp_send(BOT, sock, &mirai::HANDSHAKE);
        net.run_for(SimDuration::from_secs(5));
        let evs = net.ext_events(BOT);
        let received: Vec<u8> = evs
            .iter()
            .filter_map(|e| match e {
                SockEvent::TcpData { data, .. } => Some(data.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        // Ack (2-byte keepalive) followed by an encoded command.
        assert!(received.len() > 2, "{received:?}");
        assert_eq!(&received[..2], &mirai::KEEPALIVE);
        let (decoded, _) = mirai::decode_command(&received[2..]).expect("command decodes");
        assert_eq!(decoded, cmd());
        assert_eq!(log.lock().unwrap().commands.len(), 1);
        assert!(log.lock().unwrap().sessions[0].1);
    }

    #[test]
    fn silent_mode_accepts_but_never_speaks() {
        let mut net = Network::new(SimTime::EPOCH, 3);
        let log = install_c2(
            &mut net,
            C2,
            C2Config {
                respond: RespondMode::Never,
                ..Default::default()
            },
        );
        net.add_external_host(BOT);
        let sock = net.ext_tcp_connect(BOT, C2, 23);
        net.run_for(SimDuration::from_secs(1));
        net.ext_tcp_send(BOT, sock, &mirai::HANDSHAKE);
        net.run_for(SimDuration::from_secs(5));
        let evs = net.ext_events(BOT);
        assert!(evs.iter().any(|e| matches!(e, SockEvent::Connected(_))));
        assert!(
            !evs.iter().any(|e| matches!(e, SockEvent::TcpData { .. })),
            "silent C2 must not send data"
        );
        assert!(!log.lock().unwrap().sessions[0].1);
        assert_eq!(log.lock().unwrap().logins.len(), 1);
    }

    #[test]
    fn markov_mode_rarely_responds_twice_in_a_row() {
        let mut net = Network::new(SimTime::EPOCH, 42);
        let log = install_c2(
            &mut net,
            C2,
            C2Config {
                family: Family::Gafgyt,
                respond: RespondMode::elusive(),
                ..Default::default()
            },
        );
        net.add_external_host(BOT);
        for _ in 0..200 {
            let sock = net.ext_tcp_connect(BOT, C2, 23);
            net.run_for(SimDuration::from_secs(1));
            net.ext_tcp_send(BOT, sock, gafgyt::login_line("mips").as_bytes());
            net.run_for(SimDuration::from_secs(1));
            net.ext_tcp_abort(BOT, sock);
            net.run_for(SimDuration::from_secs(1));
            net.ext_events(BOT);
        }
        let sessions = log.lock().unwrap().sessions.clone();
        assert_eq!(sessions.len(), 200);
        let engaged: Vec<bool> = sessions.iter().map(|(_, e)| *e).collect();
        let successes = engaged.iter().filter(|e| **e).count();
        assert!(successes > 10, "Markov chain should engage sometimes");
        // After a success, the next session is overwhelmingly silent.
        let mut after_success_silent = 0;
        let mut after_success_total = 0;
        for w in engaged.windows(2) {
            if w[0] {
                after_success_total += 1;
                if !w[1] {
                    after_success_silent += 1;
                }
            }
        }
        let rate = after_success_silent as f64 / after_success_total.max(1) as f64;
        assert!(rate > 0.75, "silent-after-success rate {rate}");
    }

    #[test]
    fn downloader_serves_on_port_80() {
        let mut net = Network::new(SimTime::EPOCH, 3);
        install_c2(
            &mut net,
            C2,
            C2Config {
                serve_loader: Some("t8UsA2.sh".into()),
                ..Default::default()
            },
        );
        net.add_external_host(BOT);
        let sock = net.ext_tcp_connect(BOT, C2, 80);
        net.run_for(SimDuration::from_secs(1));
        net.ext_tcp_send(BOT, sock, b"GET /t8UsA2.sh HTTP/1.0\r\n\r\n");
        net.run_for(SimDuration::from_secs(1));
        let data: Vec<u8> = net
            .ext_events(BOT)
            .iter()
            .filter_map(|e| match e {
                SockEvent::TcpData { data, .. } => Some(data.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert!(String::from_utf8_lossy(&data).contains("200 OK"));
        assert!(String::from_utf8_lossy(&data).contains("t8UsA2.sh"));
    }
}
