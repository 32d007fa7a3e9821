//! MD5 digest throughput (the hash behind URL signatures and watermarks).

use baps_crypto::{md5, sign_digest, verify_digest, KeyPair};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_md5(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("md5");
    // 4 MiB is the largest body in perfbench's heavy-tail workload.
    for size in [64usize, 1 << 10, 8 << 10, 64 << 10, 1 << 20, 4 << 20] {
        let mut data = vec![0u8; size];
        rng.fill(data.as_mut_slice());
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| md5(data));
        });
    }
    group.finish();
}

fn bench_watermark(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let kp = KeyPair::generate(&mut rng);
    let digest = md5(b"a typical cached document digest");
    c.bench_function("sign_digest", |b| {
        b.iter(|| sign_digest(&kp.private, &digest));
    });
    let sig = sign_digest(&kp.private, &digest);
    c.bench_function("verify_digest", |b| {
        b.iter(|| verify_digest(&kp.public, &digest, &sig));
    });
}

criterion_group!(benches, bench_md5, bench_watermark);
criterion_main!(benches);
