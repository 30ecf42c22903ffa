//! Criterion bench for Fig. 8(a): validity checking (`IsValid`), plus the
//! `EncodeOptions` ablations (paper-faithful vs totality, full vs lazy
//! transitivity).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cr_core::encode::{EncodeOptions, EncodedSpec};
use cr_core::isvalid::is_valid_encoded;
use cr_data::{nba, person, vjday};

fn bench_validity(c: &mut Criterion) {
    let mut group = c.benchmark_group("isvalid");
    group.sample_size(20);

    // Paper running example.
    let edith = vjday::edith_spec();
    group.bench_function("vjday/edith", |b| {
        b.iter(|| {
            let enc = EncodedSpec::encode(black_box(&edith));
            black_box(is_valid_encoded(&enc))
        })
    });

    // NBA bins (one representative entity per bin).
    for size in [27usize, 81, 135] {
        let ds = nba::generate_with_sizes(&[size], 7);
        let spec = ds.spec(0);
        group.bench_with_input(BenchmarkId::new("nba", size), &spec, |b, spec| {
            b.iter(|| {
                let enc = EncodedSpec::encode(black_box(spec));
                black_box(is_valid_encoded(&enc))
            })
        });
    }

    // Person bins at 1/10 paper scale.
    for size in [200usize, 600, 1000] {
        let ds = person::generate_with_sizes(&[size], 7);
        let spec = ds.spec(0);
        group.bench_with_input(BenchmarkId::new("person", size), &spec, |b, spec| {
            b.iter(|| {
                let enc = EncodedSpec::encode(black_box(spec));
                black_box(is_valid_encoded(&enc))
            })
        });
    }
    group.finish();

    // Ablations: encoding options on a mid-size Person entity.
    let ds = person::generate_with_sizes(&[400], 7);
    let spec = ds.spec(0);
    let mut ablation = c.benchmark_group("isvalid-ablation");
    ablation.sample_size(20);
    for (label, options) in [
        ("totality+eager (default)", EncodeOptions::default()),
        ("paper-faithful (no totality)", EncodeOptions::paper_faithful()),
        ("lazy-axioms", EncodeOptions::lazy()),
    ] {
        ablation.bench_function(label, |b| {
            b.iter(|| {
                let enc = EncodedSpec::encode_with(black_box(&spec), options);
                black_box(is_valid_encoded(&enc))
            })
        });
    }
    ablation.finish();
}

criterion_group!(benches, bench_validity);
criterion_main!(benches);
