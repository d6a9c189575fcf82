//! NTP generality study (§6.3, Table 11): parse the timeout-procedure
//! sentence, generate the Table 11 code, and exercise the UDP encapsulation
//! of Appendix A by building and decoding an NTP-over-UDP-over-IP packet.
//! Exits nonzero if the Table 11 semantic check fails, the timeout is not
//! due, the UDP checksum does not verify or the decode warns.
//!
//! ```sh
//! cargo run --example ntp_timeout
//! ```

use std::process::ExitCode;

use sage_repro::core::evaluation::table11;
use sage_repro::netsim::headers::{ipv4, ntp, udp};
use sage_repro::netsim::tcpdump::decode_packet;
use sage_repro::spec::corpus::ntp as ntp_corpus;

fn main() -> ExitCode {
    // Table 11: the sentence and the generated code.
    let t11 = table11();
    println!("RFC 1059 sentence:\n  {}\n", t11.sentence);
    println!("generated code:\n{}\n", t11.generated_code);
    println!(
        "paper's reference code:\n{}\n",
        ntp_corpus::TIMEOUT_PAPER_CODE
    );
    println!(
        "semantic check (fires in client and symmetric modes, not in server mode): {}\n",
        if t11.semantics_ok { "ok" } else { "FAILED" }
    );
    let mut ok = t11.semantics_ok;

    // When the timeout fires, the procedure constructs an NTP message and
    // sends it over UDP port 123 (Appendix A).
    let peer = ntp::PeerVariables {
        timer: 64,
        threshold: 64,
        mode: ntp::mode::CLIENT,
    };
    println!(
        "peer.timer = {}, peer.threshold = {}, mode = client",
        peer.timer, peer.threshold
    );
    let due = peer.timeout_due();
    println!("timeout due: {due}");
    ok &= due;

    if due {
        let message = ntp::build_packet(0, 1, ntp::mode::CLIENT, 3, 0xDEAD_BEEF_0000_0001);
        let src = ipv4::addr(10, 0, 1, 100);
        let dst = ipv4::addr(192, 168, 2, 100);
        let datagram = ntp::encapsulate_in_udp(src, dst, 45123, &message);
        let packet = ipv4::build_packet(src, dst, ipv4::PROTO_UDP, 64, datagram.as_bytes());
        println!(
            "\nconstructed NTP packet: {} bytes (NTP) in {} bytes (UDP) in {} bytes (IP)",
            message.len(),
            datagram.len(),
            packet.len()
        );
        let checksum_ok = udp::checksum_ok(src, dst, &datagram);
        println!("UDP checksum valid: {checksum_ok}");
        let decoded = decode_packet(packet.as_bytes());
        println!("tcpdump view: {}", decoded.summary);
        println!("warnings: {:?}", decoded.warnings);
        ok &= checksum_ok && decoded.warnings.is_empty();
    }

    if ok {
        println!("\noverall: the timeout fires and its NTP-over-UDP message is well formed");
        ExitCode::SUCCESS
    } else {
        println!("\noverall: FAILURE — see above");
        ExitCode::FAILURE
    }
}
