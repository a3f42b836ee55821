//! Criterion: throughput of the Drift precision selector — the per-
//! sub-tensor decision the hardware controller evaluates online. The
//! paper claims the algorithm adds no computational overhead; this
//! bench quantifies the software-model cost per decision, and splits a
//! serve Select job on a 256×768 BERT activation into its layers:
//! generating the tensor, deciding (the streaming pass serve runs),
//! and deciding plus materialising the effective tensor.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use drift_core::selector::DriftPolicy;
use drift_nn::datagen::TokenProfile;
use drift_quant::linear::QuantParams;
use drift_quant::policy::{decide_policy, run_policy, PrecisionPolicy, TensorContext};
use drift_quant::precision::Precision;
use drift_tensor::rng::seeded;
use drift_tensor::stats::SummaryStats;
use drift_tensor::subtensor::SubTensorScheme;

fn bench_selector(c: &mut Criterion) {
    let policy = DriftPolicy::new(0.3).expect("delta is valid");
    let rows = TokenProfile::bert().row_stats(1024, 768, 7);
    let mut global = SummaryStats::new();
    for r in &rows {
        global.merge(r);
    }
    let ctx = TensorContext {
        global,
        params: QuantParams::from_abs_max(global.abs_max(), Precision::INT8),
    };

    c.bench_function("selector/decide_1024_subtensors", |b| {
        b.iter(|| {
            rows.iter()
                .filter(|s| policy.decide(&ctx, s).is_low())
                .count()
        })
    });

    c.bench_function("selector/stats_one_token_768", |b| {
        let mut rng = seeded(3);
        let lap = drift_tensor::dist::Laplace::new(0.0, 0.1).expect("valid scale");
        use drift_tensor::dist::Sampler;
        b.iter_batched(
            || lap.sample_f32(&mut rng, 768),
            SummaryStats::from_slice,
            BatchSize::SmallInput,
        )
    });
}

fn bench_select_layers(c: &mut Criterion) {
    let (tokens, hidden) = (256, 768);
    let profile = TokenProfile::bert();
    let policy = DriftPolicy::new(0.03).expect("delta is valid");
    let scheme = SubTensorScheme::token(hidden);
    let data = profile.generate(tokens, hidden, 42).expect("valid dims");

    c.bench_function("selector/generate_256x768", |b| {
        b.iter(|| profile.generate(tokens, hidden, 42).expect("valid dims"))
    });
    c.bench_function("selector/decide_policy_256x768", |b| {
        b.iter(|| decide_policy(&data, &scheme, Precision::INT8, &policy).expect("token divides"))
    });
    c.bench_function("selector/run_policy_256x768", |b| {
        b.iter(|| run_policy(&data, &scheme, Precision::INT8, &policy).expect("token divides"))
    });
}

criterion_group!(benches, bench_selector, bench_select_layers);
criterion_main!(benches);
