//! The Linux MIPS o32 syscall ABI, as seen from both sides.
//!
//! The stub generator (in `malnet-botgen`) emits `li $v0, NR; syscall`
//! sequences; the sandbox implements the numbers below against the
//! simulated network. Numbers are the real Linux o32 values (base 4000)
//! so the binaries look authentic to external tooling.
//!
//! Calling convention (o32):
//! * number in `$v0`
//! * arguments in `$a0..$a3`
//! * result in `$v0`; `$a3` non-zero signals error (and `$v0` holds errno)

/// exit(status)
pub const NR_EXIT: u32 = 4001;
/// read(fd, buf, len)
pub const NR_READ: u32 = 4003;
/// write(fd, buf, len)
pub const NR_WRITE: u32 = 4004;
/// close(fd)
pub const NR_CLOSE: u32 = 4006;
/// time(NULL) → seconds
pub const NR_TIME: u32 = 4013;
/// getpid()
pub const NR_GETPID: u32 = 4020;
/// nanosleep(req, rem) — the sandbox reads req as {secs, nanos} in guest
/// memory
pub const NR_NANOSLEEP: u32 = 4166;
/// accept(fd, addr, addrlen)
pub const NR_ACCEPT: u32 = 4168;
/// bind(fd, sockaddr, len)
pub const NR_BIND: u32 = 4169;
/// connect(fd, sockaddr, len)
pub const NR_CONNECT: u32 = 4170;
/// listen(fd, backlog)
pub const NR_LISTEN: u32 = 4174;
/// recv(fd, buf, len, flags)
pub const NR_RECV: u32 = 4175;
/// recvfrom(fd, buf, len, flags) — src address reporting elided
pub const NR_RECVFROM: u32 = 4176;
/// send(fd, buf, len, flags)
pub const NR_SEND: u32 = 4178;
/// sendto(fd, buf, len, flags, sockaddr, len)
pub const NR_SENDTO: u32 = 4180;
/// socket(domain, type, protocol)
pub const NR_SOCKET: u32 = 4183;
/// getrandom(buf, len, flags)
pub const NR_GETRANDOM: u32 = 4353;

/// AF_INET
pub const AF_INET: u32 = 2;
/// SOCK_STREAM
pub const SOCK_STREAM: u32 = 1;
/// SOCK_DGRAM
pub const SOCK_DGRAM: u32 = 2;
/// SOCK_RAW (used by SYN-flood style attack code)
pub const SOCK_RAW: u32 = 3;

/// Errno: operation would block / timed out.
pub const ETIMEDOUT: u32 = 145;
/// Errno: connection refused.
pub const ECONNREFUSED: u32 = 146;
/// Errno: bad file descriptor.
pub const EBADF: u32 = 9;
/// Errno: invalid argument.
pub const EINVAL: u32 = 22;
/// Errno: interrupted system call (a signal arrived mid-syscall; the
/// caller is expected to retry). Injected by the emulator fault domain.
pub const EINTR: u32 = 4;
/// Errno: out of memory (allocation-backed syscall paths).
pub const ENOMEM: u32 = 12;
/// Errno: too many open files (the per-process fd table is full).
pub const EMFILE: u32 = 24;
/// Errno: resource temporarily unavailable (non-blocking would-block).
pub const EAGAIN: u32 = 11;

/// Layout of `struct sockaddr_in` as the stub writes it into guest
/// memory: family(u16)=AF_INET, port(u16 BE), addr(u32 BE), zero pad to 16.
pub const SOCKADDR_LEN: u32 = 16;

/// Decode a guest sockaddr_in (family, port, ip).
pub fn decode_sockaddr(b: &[u8]) -> Option<(u16, u16, u32)> {
    if b.len() < 8 {
        return None;
    }
    let family = u16::from_be_bytes([b[0], b[1]]);
    let port = u16::from_be_bytes([b[2], b[3]]);
    let ip = u32::from_be_bytes([b[4], b[5], b[6], b[7]]);
    Some((family, port, ip))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sockaddr_roundtrip() {
        // AF_INET, port 8080, 10.1.2.3, zero pad — as the guest stub
        // lays it out.
        let b = [0, 2, 0x1f, 0x90, 10, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0];
        let (fam, port, ip) = decode_sockaddr(&b).unwrap();
        assert_eq!(fam, AF_INET as u16);
        assert_eq!(port, 8080);
        assert_eq!(ip, 0x0a010203);
    }

    #[test]
    fn sockaddr_too_short_is_none() {
        assert!(decode_sockaddr(&[0; 4]).is_none());
    }

    #[test]
    fn syscall_numbers_are_o32() {
        // Spot-check the real Linux o32 table.
        assert_eq!(NR_EXIT, 4001);
        assert_eq!(NR_SOCKET, 4183);
        assert_eq!(NR_CONNECT, 4170);
        assert_eq!(NR_SENDTO, 4180);
        // Errnos: MIPS shares the low classic-Unix values with asm-generic
        // (EINTR..EMFILE) but diverges above 34 (ETIMEDOUT/ECONNREFUSED
        // come from the SysV-derived MIPS table, not the 110/111 of x86).
        assert_eq!(EINTR, 4);
        assert_eq!(EBADF, 9);
        assert_eq!(EAGAIN, 11);
        assert_eq!(ENOMEM, 12);
        assert_eq!(EINVAL, 22);
        assert_eq!(EMFILE, 24);
        assert_eq!(ETIMEDOUT, 145);
        assert_eq!(ECONNREFUSED, 146);
    }
}
