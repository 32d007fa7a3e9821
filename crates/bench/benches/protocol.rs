//! Frame decode throughput: `read_message`, which reads a body straight
//! into its final allocation, against `read_message_digested`, which also
//! hashes the body on receipt (what a client pays to verify a watermark).
//! Sizes span a small page, the 64 KiB streaming threshold and the 4 MiB
//! heavy-tail body.

use baps_proxy::{encode_message, read_message, read_message_digested, Message};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::BufReader;

fn bench_read_message(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("read_message");
    for size in [1usize << 10, 64 << 10, 4 << 20] {
        let mut body = vec![0u8; size];
        rng.fill(body.as_mut_slice());
        let frame = encode_message(
            &Message::new("BAPS/1.0 200 OK")
                .header("X-Source", "proxy")
                .header("X-Watermark", "0".repeat(64))
                .with_body(body),
        )
        .expect("frame encodes");
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("plain", size), &frame, |b, frame| {
            b.iter(|| read_message(&mut BufReader::new(black_box(&frame[..]))));
        });
        group.bench_with_input(BenchmarkId::new("digested", size), &frame, |b, frame| {
            b.iter(|| read_message_digested(&mut BufReader::new(black_box(&frame[..]))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_read_message);
criterion_main!(benches);
