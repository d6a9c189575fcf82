//! Criterion benchmarks for the network substrate and the §6.2 end-to-end
//! workload (generated code answering `ping`/`traceroute`).

use criterion::{criterion_group, criterion_main, Criterion};
use sage_interp::GeneratedResponder;
use sage_netsim::checksum::ones_complement_checksum;
use sage_netsim::headers::{icmp, ipv4};
use sage_netsim::net::{Network, ReferenceResponder};
use sage_netsim::tools::ping::ping_once;
use sage_netsim::tools::traceroute::traceroute;

fn bench_checksum(c: &mut Criterion) {
    let data_small = vec![0xABu8; 64];
    let data_large = vec![0xCDu8; 1500];
    let mut group = c.benchmark_group("ones_complement_checksum");
    group.bench_function("64B", |b| b.iter(|| ones_complement_checksum(&data_small)));
    group.bench_function("1500B", |b| {
        b.iter(|| ones_complement_checksum(&data_large))
    });
    group.finish();
}

fn bench_packet_construction(c: &mut Criterion) {
    c.bench_function("build_echo_plus_ip", |b| {
        b.iter(|| {
            let echo = icmp::build_echo(false, 7, 1, b"0123456789abcdef");
            ipv4::build_packet(
                ipv4::addr(10, 0, 1, 100),
                ipv4::addr(10, 0, 1, 1),
                ipv4::PROTO_ICMP,
                64,
                echo.as_bytes(),
            )
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(20);
    group.bench_function("ping_reference_responder", |b| {
        b.iter(|| {
            let mut net = Network::appendix_a();
            ping_once(
                &mut net,
                &mut ReferenceResponder,
                ipv4::addr(10, 0, 1, 100),
                ipv4::addr(10, 0, 1, 1),
                7,
                1,
                b"0123456789abcdef",
            )
        })
    });
    let program = sage_core::generate_icmp_program();
    group.bench_function("ping_generated_responder", |b| {
        b.iter(|| {
            let mut net = Network::appendix_a();
            let mut responder = GeneratedResponder::new(program.clone());
            ping_once(
                &mut net,
                &mut responder,
                ipv4::addr(10, 0, 1, 100),
                ipv4::addr(10, 0, 1, 1),
                7,
                1,
                b"0123456789abcdef",
            )
        })
    });
    group.bench_function("traceroute_generated_responder", |b| {
        b.iter(|| {
            let mut net = Network::appendix_a();
            let mut responder = GeneratedResponder::new(program.clone());
            traceroute(
                &mut net,
                &mut responder,
                ipv4::addr(10, 0, 1, 100),
                ipv4::addr(192, 168, 2, 100),
                8,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_checksum,
    bench_packet_construction,
    bench_end_to_end
);
criterion_main!(benches);
