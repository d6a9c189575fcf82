//! The statement / expression interpreter for generated code.

use crate::env::Env;
use sage_codegen::ir::{Expr, Function, Stmt};
use sage_netsim::checksum::checksum_omitting_field;
use sage_netsim::headers::{self, ipv4};
use std::fmt;

/// Errors raised during execution of generated code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A header field reference could not be resolved.
    UnknownField(String),
    /// A framework function is not provided by the static framework.
    UnknownFunction(String),
    /// An assignment target is not assignable.
    BadAssignment(String),
    /// `compute_checksum` ran for a protocol whose header has no checksum
    /// field and which is not a known checksum-free protocol.  Protocols
    /// that delegate the checksum to a lower layer (NTP-over-UDP, BFD) opt
    /// out explicitly instead of being silently skipped.
    NoChecksumField(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownField(s) => write!(f, "unknown field {s}"),
            ExecError::UnknownFunction(s) => write!(f, "unknown framework function {s}"),
            ExecError::BadAssignment(s) => write!(f, "cannot assign to {s}"),
            ExecError::NoChecksumField(s) => {
                write!(f, "protocol {s} has no checksum field to compute")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Protocols whose messages carry no checksum of their own because a lower
/// layer provides one: NTP rides UDP, and BFD likewise (RFC 5880 §4).  For
/// these, `compute_checksum` is a deliberate no-op; for every other
/// protocol a missing checksum field is an error, not a silent skip.
pub fn checksum_delegated(protocol: &str) -> bool {
    protocol.eq_ignore_ascii_case("ntp") || protocol.eq_ignore_ascii_case("bfd")
}

fn read_field(env: &Env, protocol: &str, field: &str) -> Result<i64, ExecError> {
    let table = headers::field_table(protocol)
        .ok_or_else(|| ExecError::UnknownField(format!("{protocol}.{field}")))?;
    let source = if protocol == "ip" || protocol == "ipv4" {
        &env.request_ip
    } else {
        &env.reply
    };
    // Special-case the IP addresses, which generated code may have swapped.
    if protocol == "ip" {
        if field == "source_address" {
            return Ok(i64::from(env.reply_src));
        }
        if field == "destination_address" {
            return Ok(i64::from(env.reply_dst));
        }
    }
    source
        .get_field(table, field)
        .map(|v| v as i64)
        .map_err(|_| ExecError::UnknownField(format!("{protocol}.{field}")))
}

fn write_field(env: &mut Env, protocol: &str, field: &str, value: i64) -> Result<(), ExecError> {
    if protocol == "ip" {
        match field {
            "source_address" => {
                env.reply_src = value as u32;
                return Ok(());
            }
            "destination_address" => {
                env.reply_dst = value as u32;
                return Ok(());
            }
            _ => {}
        }
    }
    let table = headers::field_table(protocol)
        .ok_or_else(|| ExecError::UnknownField(format!("{protocol}.{field}")))?;
    let target = if protocol == "ip" || protocol == "ipv4" {
        &mut env.request_ip
    } else {
        &mut env.reply
    };
    target
        .set_field(table, field, value as u64)
        .map_err(|_| ExecError::UnknownField(format!("{protocol}.{field}")))
}

/// Evaluate an expression.
pub fn eval_expr(env: &mut Env, expr: &Expr) -> Result<i64, ExecError> {
    match expr {
        Expr::Num(n) => Ok(*n),
        Expr::Str(_) => Ok(0),
        Expr::Var(name) => Ok(env.var(name)),
        Expr::Field { protocol, field } => read_field(env, protocol, field),
        Expr::Not(e) => Ok(i64::from(eval_expr(env, e)? == 0)),
        Expr::BinOp { op, lhs, rhs } => {
            let l = eval_expr(env, lhs)?;
            let r = eval_expr(env, rhs)?;
            Ok(match op.as_str() {
                "==" => i64::from(l == r),
                "!=" => i64::from(l != r),
                ">=" => i64::from(l >= r),
                "<=" => i64::from(l <= r),
                ">" => i64::from(l > r),
                "<" => i64::from(l < r),
                "&&" => i64::from(l != 0 && r != 0),
                "||" => i64::from(l != 0 || r != 0),
                "+" => l + r,
                "-" => l - r,
                _ => return Err(ExecError::UnknownFunction(format!("operator {op}"))),
            })
        }
        Expr::Call { name, args } => call_framework(env, name, args),
    }
}

/// Dispatch a call into the static framework.
fn call_framework(env: &mut Env, name: &str, args: &[Expr]) -> Result<i64, ExecError> {
    match name {
        "ones_complement_sum" => Ok(i64::from(sage_netsim::checksum::ones_complement_sum(
            env.reply.as_bytes(),
        ))),
        "ones_complement" => {
            // Applied to the one's-complement sum of the message in the
            // checksum idiom; evaluate the inner expression then complement.
            let inner = if args.is_empty() {
                0
            } else {
                eval_expr(env, &args[0])?
            };
            Ok(i64::from(!(inner as u16)))
        }
        "compute_checksum" => {
            // Protocol-generic: locate the checksum field of the protocol
            // the reply buffer holds (ICMP and IGMP both keep it at byte 2;
            // NTP-over-UDP and BFD delegate the checksum to lower layers
            // and opt out via `checksum_delegated`).
            let proto = env.reply_proto.as_str();
            let table = headers::field_table(proto)
                .ok_or_else(|| ExecError::UnknownField(format!("{proto}.checksum")))?;
            let Some(spec) = table.iter().find(|f| f.name == "checksum").copied() else {
                if checksum_delegated(proto) {
                    return Ok(0);
                }
                return Err(ExecError::NoChecksumField(proto.to_string()));
            };
            // The checksum field never aliases the `ip` address special
            // case, so write straight into the reply buffer — no protocol
            // string clone, no second table lookup, no zeroed copy of the
            // frame.
            let ck = checksum_omitting_field(env.reply.as_bytes(), spec.byte_range().0);
            env.reply
                .set_bits(&spec, u64::from(ck))
                .map_err(|_| ExecError::UnknownField(format!("{}.checksum", env.reply_proto)))?;
            Ok(i64::from(ck))
        }
        "reverse_source_and_destination" => {
            std::mem::swap(&mut env.reply_src, &mut env.reply_dst);
            Ok(0)
        }
        "copy_data_to_reply" => {
            // Echo-style replies already start from the received message in
            // this framework; the call is a no-op kept for fidelity.
            Ok(0)
        }
        "send_packet" => {
            env.sent = true;
            Ok(0)
        }
        "discard_packet" => {
            env.discarded = true;
            Ok(0)
        }
        "cease_periodic_transmission" => {
            env.transmission_ceased = true;
            env.set_var("periodic_transmission_active", 0);
            Ok(0)
        }
        "select_session" | "find_session" => {
            let discr = read_field(env, "bfd", "your_discriminator").unwrap_or(0);
            let found = i64::from(env.var(&format!("session.{discr}")) != 0);
            env.set_var("session_found", found);
            env.set_var("selected_session", discr);
            Ok(found)
        }
        "construct_message" => Ok(0),
        "zero_field" => {
            if let Some(Expr::Field { protocol, field }) = args.first() {
                write_field(env, protocol, field, 0)?;
            }
            Ok(0)
        }
        "identify_octet" => Ok(env.var("error_octet")),
        "timeout_procedure" => {
            env.set_var("timeout_procedure_called", 1);
            Ok(0)
        }
        "terminate_poll_sequence" => {
            env.set_var("poll_sequence_active", 0);
            Ok(0)
        }
        "interface_address" | "os_interface_address" => Ok(i64::from(env.reply_dst)),
        "os_timestamp" | "timestamp" => Ok(env.var("framework_time")),
        "ip_source_and_destination" => Ok(0),
        "outbound_buffer" => Ok(env.var("outbound_buffer_space")),
        other => Err(ExecError::UnknownFunction(other.to_string())),
    }
}

/// Execute one statement.
pub fn exec_stmt(env: &mut Env, stmt: &Stmt) -> Result<(), ExecError> {
    match stmt {
        Stmt::Comment(_) => Ok(()),
        Stmt::Assign { target, value } => {
            let v = eval_expr(env, value)?;
            match target {
                Expr::Field { protocol, field } => write_field(env, protocol, field, v),
                Expr::Var(name) => {
                    env.set_var(name, v);
                    Ok(())
                }
                other => Err(ExecError::BadAssignment(other.to_c())),
            }
        }
        Stmt::Call { name, args } => {
            call_framework(env, name, args)?;
            Ok(())
        }
        Stmt::If { cond, then, els } => {
            let c = eval_expr(env, cond)?;
            let branch = if c != 0 { then } else { els };
            for s in branch {
                exec_stmt(env, s)?;
            }
            Ok(())
        }
    }
}

/// Execute a generated function body.
pub fn exec_function(env: &mut Env, function: &Function) -> Result<(), ExecError> {
    for stmt in &function.body {
        exec_stmt(env, stmt)?;
        if env.discarded {
            break;
        }
    }
    Ok(())
}

/// Convenience used by responders: after running the generated code, wrap
/// the reply message in an IP packet using the (possibly swapped) addresses.
pub fn encapsulate_reply(env: &Env) -> sage_netsim::buffer::PacketBuf {
    ipv4::build_packet(
        env.reply_src,
        env.reply_dst,
        ipv4::PROTO_ICMP,
        64,
        env.reply.as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_netsim::checksum::checksum_omitting_field;
    use sage_netsim::headers::icmp;
    use sage_netsim::headers::ipv4::addr;
    use sage_netsim::net::IcmpEvent;

    fn echo_env() -> Env {
        let echo = icmp::build_echo(false, 0x42, 3, b"payload!");
        let req = ipv4::build_packet(
            addr(10, 0, 1, 100),
            addr(10, 0, 1, 1),
            ipv4::PROTO_ICMP,
            64,
            echo.as_bytes(),
        );
        Env::for_event(IcmpEvent::EchoRequest, &req)
    }

    #[test]
    fn assignments_write_header_fields() {
        let mut env = echo_env();
        exec_stmt(
            &mut env,
            &Stmt::Assign {
                target: Expr::field("icmp", "type"),
                value: Expr::Num(0),
            },
        )
        .unwrap();
        assert_eq!(env.reply.get_field(icmp::FIELDS, "type").unwrap(), 0);
    }

    #[test]
    fn reverse_and_checksum_framework_calls() {
        let mut env = echo_env();
        exec_stmt(
            &mut env,
            &Stmt::Call {
                name: "reverse_source_and_destination".into(),
                args: vec![],
            },
        )
        .unwrap();
        assert_eq!(env.reply_src, addr(10, 0, 1, 1));
        assert_eq!(env.reply_dst, addr(10, 0, 1, 100));
        exec_stmt(
            &mut env,
            &Stmt::Assign {
                target: Expr::field("icmp", "type"),
                value: Expr::Num(0),
            },
        )
        .unwrap();
        exec_stmt(
            &mut env,
            &Stmt::Call {
                name: "compute_checksum".into(),
                args: vec![],
            },
        )
        .unwrap();
        assert!(icmp::checksum_ok(&env.reply));
    }

    #[test]
    fn conditionals_follow_the_condition() {
        let mut env = echo_env();
        let stmt = Stmt::If {
            cond: Expr::binop("==", Expr::field("icmp", "code"), Expr::Num(0)),
            then: vec![Stmt::Assign {
                target: Expr::Var("took_then".into()),
                value: Expr::Num(1),
            }],
            els: vec![Stmt::Assign {
                target: Expr::Var("took_else".into()),
                value: Expr::Num(1),
            }],
        };
        exec_stmt(&mut env, &stmt).unwrap();
        assert_eq!(env.var("took_then"), 1);
        assert_eq!(env.var("took_else"), 0);
    }

    #[test]
    fn expression_operators() {
        let mut env = echo_env();
        env.set_var("a", 5);
        env.set_var("b", 3);
        let cases = vec![
            (
                Expr::binop(">=", Expr::Var("a".into()), Expr::Var("b".into())),
                1,
            ),
            (
                Expr::binop("<", Expr::Var("a".into()), Expr::Var("b".into())),
                0,
            ),
            (Expr::binop("&&", Expr::Num(1), Expr::Num(0)), 0),
            (Expr::binop("||", Expr::Num(1), Expr::Num(0)), 1),
            (Expr::binop("+", Expr::Num(2), Expr::Num(3)), 5),
            (Expr::Not(Box::new(Expr::Num(0))), 1),
        ];
        for (expr, expected) in cases {
            assert_eq!(eval_expr(&mut env, &expr).unwrap(), expected, "{expr:?}");
        }
    }

    #[test]
    fn checksum_of_chain_matches_framework_checksum() {
        // icmp.checksum = ones_complement(ones_complement_sum(msg)) with the
        // checksum field pre-zeroed gives the same result as the framework's
        // compute_checksum.
        let mut env = echo_env();
        exec_stmt(
            &mut env,
            &Stmt::Assign {
                target: Expr::field("icmp", "checksum"),
                value: Expr::Num(0),
            },
        )
        .unwrap();
        let expr = Expr::call(
            "ones_complement",
            vec![Expr::call(
                "ones_complement_sum",
                vec![Expr::Var("icmp_message".into())],
            )],
        );
        let v = eval_expr(&mut env, &expr).unwrap() as u16;
        let expected = checksum_omitting_field(env.reply.as_bytes(), 2);
        assert_eq!(v, expected);
    }

    #[test]
    fn discard_stops_execution() {
        let mut env = echo_env();
        let f = Function {
            name: "f".into(),
            role: String::new(),
            body: vec![
                Stmt::Call {
                    name: "discard_packet".into(),
                    args: vec![],
                },
                Stmt::Assign {
                    target: Expr::Var("after".into()),
                    value: Expr::Num(1),
                },
            ],
        };
        exec_function(&mut env, &f).unwrap();
        assert!(env.discarded);
        assert_eq!(env.var("after"), 0);
    }

    #[test]
    fn checksum_without_a_field_is_a_typed_error() {
        // IPv4 has a checksum field, ICMP/IGMP do — but a protocol whose
        // header lacks one must raise NoChecksumField instead of silently
        // doing nothing.  `udp` has a checksum; fake the gap by tagging the
        // reply with a protocol that resolves but has no such field: none
        // of the real tables lack one except ntp/bfd, which are delegated.
        let req = {
            let echo = icmp::build_echo(false, 1, 1, b"x");
            ipv4::build_packet(
                addr(10, 0, 1, 100),
                addr(10, 0, 1, 1),
                ipv4::PROTO_ICMP,
                64,
                echo.as_bytes(),
            )
        };
        // Delegated protocols no-op...
        for proto in ["ntp", "bfd"] {
            let mut env = Env::for_event(IcmpEvent::EchoRequest, &req).with_protocol(proto);
            assert_eq!(
                call_framework(&mut env, "compute_checksum", &[]).unwrap(),
                0,
                "{proto} delegates its checksum to a lower layer"
            );
        }
        // ...and the delegation list is exactly ntp + bfd.
        assert!(checksum_delegated("NTP") && checksum_delegated("bfd"));
        assert!(!checksum_delegated("icmp") && !checksum_delegated("udp"));
        // An unknown protocol still reports the field lookup failure.
        let mut env = Env::for_event(IcmpEvent::EchoRequest, &req).with_protocol("quic");
        assert_eq!(
            call_framework(&mut env, "compute_checksum", &[]),
            Err(ExecError::UnknownField("quic.checksum".into()))
        );
        // The typed error renders an actionable message.
        let err = ExecError::NoChecksumField("tcpish".into());
        assert_eq!(
            err.to_string(),
            "protocol tcpish has no checksum field to compute"
        );
    }

    #[test]
    fn unknown_functions_and_fields_error() {
        let mut env = echo_env();
        assert!(matches!(
            eval_expr(&mut env, &Expr::call("warp_drive", vec![])),
            Err(ExecError::UnknownFunction(_))
        ));
        assert!(matches!(
            eval_expr(&mut env, &Expr::field("icmp", "nonexistent")),
            Err(ExecError::UnknownField(_))
        ));
    }

    #[test]
    fn encapsulated_reply_is_a_valid_ip_packet() {
        let mut env = echo_env();
        exec_stmt(
            &mut env,
            &Stmt::Call {
                name: "reverse_source_and_destination".into(),
                args: vec![],
            },
        )
        .unwrap();
        let pkt = encapsulate_reply(&env);
        assert!(ipv4::checksum_ok(&pkt));
        assert_eq!(
            pkt.get_field(ipv4::FIELDS, "destination_address").unwrap(),
            u64::from(addr(10, 0, 1, 100))
        );
    }
}
