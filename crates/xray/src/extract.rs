//! Candidate C2 endpoint extraction from the sample's embedded bytecode.
//!
//! MalNet samples carry their behaviour as MNBC bytecode in `.rodata`.
//! [`scan_bytecode`] runs a forward constant-propagation walk over the
//! decoded records: it pairs every `Ldi`-materialized IP with the
//! `Connect`/`SendTo` that uses it, recovers `(addr, port, proto)`
//! triples, and classifies each as C2 check-in, DNS resolver, or P2P
//! peer. Registers poisoned by `Rand` or network reads stay unknown,
//! which is exactly why scan targets (`base | rand`) never show up as
//! candidates. DNS-resolved C2s are recovered by parsing the DNS query
//! message the sample embeds in its blob and tainting the answer
//! register with the queried domain.
//!
//! The walk is total and panic-free on malformed input: corrupt records
//! are skipped (and counted), out-of-range offsets ignored.

use std::net::Ipv4Addr;

use malnet_botgen::botvm::{Op, SockKind, RECORD_SIZE};
use malnet_botgen::stub::CONFIG_MAGIC;
use malnet_mips::elf::ElfFile;

/// Transport protocol of a candidate endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Proto {
    /// TCP connect.
    Tcp,
    /// UDP datagram.
    Udp,
    /// Raw socket (crafted floods).
    Raw,
}

/// What the sample uses the endpoint *for* (statically inferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// C2 check-in (TCP connect, or DNS-resolved connect).
    C2,
    /// Hardcoded DNS resolver (port-53 datagrams).
    Resolver,
    /// P2P bootstrap peer (non-53 datagrams to a fixed address).
    Peer,
}

/// One statically recovered endpoint candidate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Endpoint {
    /// Dotted-quad IP or domain name — same convention as the dynamic
    /// pipeline's D-C2s keys.
    pub addr: String,
    /// Destination port.
    pub port: u16,
    /// Transport.
    pub proto: Proto,
    /// Inferred role.
    pub role: Role,
    /// True when `addr` is a domain (DNS-resolved at runtime).
    pub dns: bool,
}

/// Result of the MNBC bytecode walk.
#[derive(Debug, Clone, Default)]
pub struct BytecodeScan {
    /// Was an MNBC config header found in any read-only segment?
    pub found: bool,
    /// Records decoded.
    pub records: usize,
    /// Records that failed to decode (corrupted samples).
    pub skipped: usize,
    /// Endpoints recovered by constant propagation, sorted and
    /// deduplicated.
    pub endpoints: Vec<Endpoint>,
}

/// Locate the MNBC config in a read-only segment and constant-propagate
/// through its bytecode.
pub fn scan_bytecode(elf: &ElfFile) -> BytecodeScan {
    for seg in elf
        .segments
        .iter()
        .filter(|s| !s.executable && !s.writable && !s.data.is_empty())
    {
        if let Some(scan) = scan_config(&seg.data) {
            return scan;
        }
    }
    BytecodeScan::default()
}

/// Abstract value of one VM register during the walk.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Val {
    /// Known 32-bit constant.
    Const(u32),
    /// Tainted by the DNS answer for this domain.
    Dns(String),
    /// File descriptor of this socket kind.
    Sock(SockKind),
    /// Anything else (random, network reads, parsed input).
    Unknown,
}

const NUM_VREGS: usize = 16;

fn scan_config(d: &[u8]) -> Option<BytecodeScan> {
    if d.len() < 20 || d[0..4] != CONFIG_MAGIC[..] {
        return None;
    }
    let u32_at = |i: usize| u32::from_be_bytes([d[i], d[i + 1], d[i + 2], d[i + 3]]) as usize;
    let (bc_off, bc_len) = (u32_at(4), u32_at(8));
    let (blob_off, blob_len) = (u32_at(12), u32_at(16));
    let mut out = BytecodeScan {
        found: true,
        ..BytecodeScan::default()
    };
    let Some(bytecode) = bc_off
        .checked_add(bc_len)
        .and_then(|end| d.get(bc_off..end))
    else {
        return Some(out);
    };
    let blob = blob_off
        .checked_add(blob_len)
        .and_then(|end| d.get(blob_off..end))
        .unwrap_or(&[]);

    let mut regs: Vec<Val> = vec![Val::Unknown; NUM_VREGS];
    let g = |regs: &[Val], r: u32| regs[(r as usize) % NUM_VREGS].clone();
    // Domain queried by the most recent DNS lookup; consumed by the
    // next `Ldw` (the answer-extraction load in the resolve sequence).
    let mut pending_dns: Option<String> = None;

    for rec in bytecode.chunks(RECORD_SIZE) {
        let Some(op) = Op::decode(rec) else {
            out.skipped += 1;
            continue;
        };
        out.records += 1;
        let set = |regs: &mut Vec<Val>, r: u8, v: Val| {
            regs[(r as usize) % NUM_VREGS] = v;
        };
        match op {
            Op::Ldi { r, a } => set(&mut regs, r, Val::Const(a)),
            Op::Mov { r, x } => {
                let v = g(&regs, x.into());
                set(&mut regs, r, v);
            }
            Op::Add { r, x, y }
            | Op::Sub { r, x, y }
            | Op::Mul { r, x, y }
            | Op::And { r, x, y }
            | Op::Or { r, x, y }
            | Op::Mod { r, x, y } => {
                let v = match (g(&regs, x.into()), g(&regs, y.into())) {
                    (Val::Const(a), Val::Const(b)) => {
                        let c = match op {
                            Op::Add { .. } => a.wrapping_add(b),
                            Op::Sub { .. } => a.wrapping_sub(b),
                            Op::Mul { .. } => a.wrapping_mul(b),
                            Op::And { .. } => a & b,
                            Op::Or { .. } => a | b,
                            _ => {
                                if b == 0 {
                                    0
                                } else {
                                    a % b
                                }
                            }
                        };
                        Val::Const(c)
                    }
                    _ => Val::Unknown,
                };
                set(&mut regs, r, v);
            }
            Op::Addi { r, x, a } => {
                let v = match g(&regs, x.into()) {
                    Val::Const(c) => Val::Const(c.wrapping_add(a)),
                    _ => Val::Unknown,
                };
                set(&mut regs, r, v);
            }
            Op::Shr { r, x, a } | Op::Shl { r, x, a } => {
                let v = match g(&regs, x.into()) {
                    Val::Const(c) => Val::Const(if matches!(op, Op::Shr { .. }) {
                        c.wrapping_shr(a)
                    } else {
                        c.wrapping_shl(a)
                    }),
                    _ => Val::Unknown,
                };
                set(&mut regs, r, v);
            }
            Op::Rand { r }
            | Op::Recv { r, .. }
            | Op::RecvFrom { r, .. }
            | Op::Ldb { r, .. }
            | Op::ParseIp { r, .. }
            | Op::ParseNum { r, .. }
            | Op::Match { r, .. } => set(&mut regs, r, Val::Unknown),
            Op::Ldw { r, .. } => {
                let v = match pending_dns.take() {
                    Some(d) => Val::Dns(d),
                    None => Val::Unknown,
                };
                set(&mut regs, r, v);
            }
            Op::Socket { r, kind } => set(&mut regs, r, Val::Sock(kind)),
            Op::Connect { r, x, y, a, b } => {
                let port = match a {
                    0 => match g(&regs, b) {
                        Val::Const(p) => Some((p & 0xffff) as u16),
                        _ => None,
                    },
                    p => Some((p & 0xffff) as u16),
                };
                let proto = sock_proto(&g(&regs, x.into())).unwrap_or(Proto::Tcp);
                if let Some(port) = port {
                    push_endpoint(&mut out.endpoints, g(&regs, y.into()), port, proto);
                }
                set(&mut regs, r, Val::Unknown); // connect result
            }
            Op::SendTo { x, y, r, a, b, c } => {
                let port = match a {
                    0 => match g(&regs, r.into()) {
                        Val::Const(p) => Some((p & 0xffff) as u16),
                        _ => None,
                    },
                    p => Some((p & 0xffff) as u16),
                };
                let proto = sock_proto(&g(&regs, x.into())).unwrap_or(Proto::Udp);
                if port == Some(53) {
                    // A DNS lookup: recover the queried name from the
                    // query message embedded in the blob.
                    if let Some(domain) = parse_dns_query_name(blob, b as usize, c as usize) {
                        pending_dns = Some(domain);
                    }
                }
                if let Some(port) = port {
                    push_endpoint(&mut out.endpoints, g(&regs, y.into()), port, proto);
                }
            }
            Op::SendToR { y, r, .. } => {
                if let (Val::Const(p), ip) = (g(&regs, r.into()), g(&regs, y.into())) {
                    push_endpoint(&mut out.endpoints, ip, (p & 0xffff) as u16, Proto::Udp);
                }
            }
            // No register effects we track.
            Op::End
            | Op::Jmp { .. }
            | Op::Jeq { .. }
            | Op::Jne { .. }
            | Op::Jlt { .. }
            | Op::SleepMs { .. }
            | Op::SleepR { .. }
            | Op::Send { .. }
            | Op::SendR { .. }
            | Op::Close { .. }
            | Op::Abort { .. }
            | Op::Stb { .. }
            | Op::Cpy { .. }
            | Op::SkipSp { .. }
            | Op::RawSend { .. } => {}
        }
    }
    out.endpoints.sort();
    out.endpoints.dedup();
    Some(out)
}

fn sock_proto(v: &Val) -> Option<Proto> {
    match v {
        Val::Sock(SockKind::Tcp) => Some(Proto::Tcp),
        Val::Sock(SockKind::Udp) => Some(Proto::Udp),
        Val::Sock(_) => Some(Proto::Raw),
        _ => None,
    }
}

fn push_endpoint(out: &mut Vec<Endpoint>, ip: Val, port: u16, proto: Proto) {
    let (addr, dns) = match ip {
        Val::Const(v) => (Ipv4Addr::from(v).to_string(), false),
        Val::Dns(d) => (d, true),
        _ => return, // unknowable destination (scan/flood targets)
    };
    // Non-53 datagrams to a fixed peer are P2P bootstrap, not C2
    // check-ins (the dynamic pipeline's C2 detector skips them too).
    let role = if port == 53 {
        Role::Resolver
    } else if proto == Proto::Udp {
        Role::Peer
    } else {
        Role::C2
    };
    out.push(Endpoint {
        addr,
        port,
        proto,
        role,
        dns,
    });
}

/// Parse the QNAME out of a DNS query message at `blob[off..off+len]`.
/// Strict enough to only match real query messages (flags `RD`, one
/// question, no answers).
fn parse_dns_query_name(blob: &[u8], off: usize, len: usize) -> Option<String> {
    let msg = off.checked_add(len).and_then(|end| blob.get(off..end))?;
    if msg.len() < 12 + 1 + 4 {
        return None;
    }
    let u16_at = |i: usize| u16::from_be_bytes([msg[i], msg[i + 1]]);
    if u16_at(2) != 0x0100 || u16_at(4) != 1 || u16_at(6) != 0 || u16_at(8) != 0 || u16_at(10) != 0
    {
        return None;
    }
    let mut labels: Vec<String> = Vec::new();
    let mut pos = 12usize;
    loop {
        let l = *msg.get(pos)? as usize;
        if l == 0 {
            break;
        }
        if l > 63 || labels.len() > 32 {
            return None;
        }
        let label = msg.get(pos + 1..pos + 1 + l)?;
        if !label
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return None;
        }
        labels.push(String::from_utf8_lossy(label).to_ascii_lowercase());
        pos += 1 + l;
    }
    if labels.is_empty() {
        return None;
    }
    Some(labels.join("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dns_query_name_parses() {
        // Hand-build a query: id 0x4d4e, RD, 1 question: cnc.example A IN.
        let mut q = vec![0x4d, 0x4e, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0];
        q.extend_from_slice(&[3]);
        q.extend_from_slice(b"cnc");
        q.extend_from_slice(&[7]);
        q.extend_from_slice(b"example");
        q.push(0);
        q.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(
            parse_dns_query_name(&q, 0, q.len()),
            Some("cnc.example".to_string())
        );
        // Out-of-range slices are None, not panics.
        assert_eq!(parse_dns_query_name(&q, usize::MAX, 4), None);
        assert_eq!(parse_dns_query_name(&q, 0, q.len() + 100), None);
    }

    #[test]
    fn corrupt_records_are_skipped_not_fatal() {
        use malnet_botgen::binary::{emit_elf, BotProgram};
        use malnet_botgen::botvm::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        b.op(Op::Ldi {
            r: 1,
            a: 0x01020304,
        })
        .op(Op::Socket {
            r: 0,
            kind: SockKind::Tcp,
        })
        .op(Op::Connect {
            r: 2,
            x: 0,
            y: 1,
            a: 23,
            b: 0,
        })
        .op(Op::End);
        let (bytecode, blob) = b.build();
        let mut program = BotProgram { bytecode, blob };
        // Corrupt the *second* record's opcode: the Ldi before it and
        // the Connect after it must still be recovered.
        program.bytecode[RECORD_SIZE] = 0xff;
        let elf_bytes = emit_elf(&program, b"");
        let elf = ElfFile::parse(&elf_bytes).unwrap();
        let scan = scan_bytecode(&elf);
        assert!(scan.found);
        assert_eq!(scan.skipped, 1);
        assert!(scan
            .endpoints
            .iter()
            .any(|e| e.addr == "1.2.3.4" && e.port == 23 && e.role == Role::C2));
    }
}
