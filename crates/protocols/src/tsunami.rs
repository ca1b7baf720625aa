//! Tsunami (a.k.a. Kaiten): C2 over genuine IRC.
//!
//! The paper (Appendix C) notes Tsunami's "main distinction is its
//! communication over the IRC protocol". Our simulated Tsunami bots
//! register (`NICK`/`USER`), join a channel, answer `PING`, and idle;
//! the D-DDOS study tracks Mirai/Gafgyt/Daddyl33t, so Tsunami C2s in the
//! corpus chat but do not launch attacks — matching Figure 11, where no
//! Tsunami attacks appear.

/// Registration burst a bot sends after connecting.
pub fn register_lines(nick: &str) -> String {
    format!("NICK {nick}\r\nUSER {nick} 8 * :{nick}\r\n")
}

/// Channel join.
pub fn join_line(channel: &str) -> String {
    format!("JOIN {channel}\r\n")
}

/// Server keepalive.
pub fn ping_line(token: &str) -> String {
    format!("PING :{token}\r\n")
}

/// Server's welcome numerics after registration.
pub fn welcome_lines(nick: &str) -> String {
    format!(":irc 001 {nick} :Welcome to the botnet\r\n")
}

/// Does a bot→C2 payload look like IRC registration? (Manual-verification
/// helper; the paper compares captured traffic against known protocols.)
pub fn is_registration(data: &[u8]) -> bool {
    data.starts_with(b"NICK ") || data.starts_with(b"USER ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_roundtrip() {
        let lines = register_lines("mipsbot42");
        assert!(lines.starts_with("NICK mipsbot42\r\n"));
        assert!(lines.contains("USER mipsbot42"));
        assert!(is_registration(lines.as_bytes()));
    }

    #[test]
    fn join_and_welcome_format() {
        assert_eq!(join_line("#iot"), "JOIN #iot\r\n");
        assert!(welcome_lines("bot").contains("001 bot"));
    }
}
