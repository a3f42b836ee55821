//! Property-based tests for the quantization layer, including the
//! integer-GEMM/effective-path equivalence across arbitrary policies
//! and the streaming selection pass against the gather-based one it
//! replaced.

use drift_core::selector::DriftPolicy;
use drift_quant::convert::ConversionChoice;
use drift_quant::drq::DrqPolicy;
use drift_quant::gating::PrecisionGatingPolicy;
use drift_quant::intgemm::{int_gemm, CodedMatrix};
use drift_quant::linear::{
    cosine_similarity, dequantize_slice, mse, quantize_slice, sqnr_db, QuantParams,
};
use drift_quant::policy::{
    decide_policy, run_policy, Decision, PrecisionPolicy, StaticHighPolicy, StaticLowPolicy,
    SubTensorDecision, TensorContext,
};
use drift_quant::Precision;
use drift_tensor::rng::seeded;
use drift_tensor::stats::SummaryStats;
use drift_tensor::subtensor::SubTensorScheme;
use drift_tensor::Tensor;
use proptest::prelude::*;
use rand::Rng;

fn policies() -> Vec<Box<dyn PrecisionPolicy>> {
    vec![
        Box::new(StaticHighPolicy),
        Box::new(StaticLowPolicy::new(Precision::INT4)),
        Box::new(DrqPolicy::new(1.0).unwrap()),
        Box::new(PrecisionGatingPolicy::new(0.3, Precision::INT5).unwrap()),
    ]
}

/// The gather-based `run_policy` the streaming pass replaced, kept as
/// the reference: quantize the whole tensor, then per view gather its
/// values for the statistics and its codes for the reconstruction, and
/// scatter the reconstruction into a clone of the input.
fn reference_run(
    tensor: &Tensor,
    scheme: &SubTensorScheme,
    hp: Precision,
    policy: &dyn PrecisionPolicy,
) -> (QuantParams, Vec<SubTensorDecision>, Tensor) {
    let (codes, params) = quantize_slice(tensor.as_slice(), hp).unwrap();
    let global = SummaryStats::from_slice(tensor.as_slice());
    let ctx = TensorContext { global, params };
    let views = scheme.partition(tensor.shape()).unwrap();
    let mut decisions = Vec::with_capacity(views.len());
    let mut effective = tensor.clone();
    for view in &views {
        let sub = tensor.subtensor(view).unwrap();
        let stats = SummaryStats::from_slice(&sub);
        let decision = policy.decide(&ctx, &stats);
        let sub_codes: Vec<i32> = view.indices().map(|i| codes[i]).collect();
        let restored = match decision {
            Decision::Keep => dequantize_slice(&sub_codes, &params),
            Decision::Convert(choice) => {
                let low = choice.apply_slice(&sub_codes);
                choice.dequantize_slice(&low, &params)
            }
        };
        effective.set_subtensor(view, &restored).unwrap();
        decisions.push(SubTensorDecision {
            view_id: view.id(),
            len: view.len(),
            decision,
        });
    }
    (params, decisions, effective)
}

/// A `[rows, cols]` tensor of per-row-scaled uniform noise (scales
/// spanning four decades, some rows exactly zero), or all zeros.
fn selection_tensor(rows: usize, cols: usize, all_zero: bool, seed: u64) -> Tensor {
    let mut rng = seeded(seed);
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        let scale = if all_zero || rng.gen_bool(0.15) {
            0.0
        } else {
            10f32.powf(rng.gen_range(-3.0f32..1.0))
        };
        data.extend((0..cols).map(|_| scale * rng.gen_range(-1.0f32..1.0)));
    }
    Tensor::from_vec(vec![rows, cols], data).unwrap()
}

/// A test policy whose decision hangs on the last bits of every
/// accumulated statistic, global and per sub-tensor, so an accumulator
/// fed its values in a different order (or through a merge) flips
/// decisions.
struct LowBitsPolicy;

impl PrecisionPolicy for LowBitsPolicy {
    fn name(&self) -> &str {
        "low-bits"
    }

    fn decide(&self, ctx: &TensorContext, stats: &SummaryStats) -> Decision {
        let parity = [ctx.global, *stats]
            .iter()
            .flat_map(|s| [s.mean(), s.variance(), s.mean_abs(), s.abs_max()])
            .fold(0u64, |acc, v| acc ^ v.to_bits());
        if parity.count_ones() % 2 == 1 {
            StaticLowPolicy::new(Precision::INT4).decide(ctx, stats)
        } else {
            Decision::Keep
        }
    }
}

/// Checks `decide_policy` and `run_policy` against [`reference_run`]
/// on `t` for Drift, DRQ, gating, both static policies and
/// [`LowBitsPolicy`], under token,
/// region (`tile_rows` × `tile_cols`, ragged when they do not divide),
/// per-tensor and per-value partitions: the parameters and decisions
/// agree exactly and the effective tensors bit for bit.
fn check_against_reference(
    t: &Tensor,
    delta: f64,
    tile_rows: usize,
    tile_cols: usize,
) -> Result<(), TestCaseError> {
    let cols = *t.shape().dims().last().unwrap();
    let policies: Vec<Box<dyn PrecisionPolicy>> = vec![
        Box::new(DriftPolicy::new(delta).unwrap()),
        Box::new(DrqPolicy::new(delta).unwrap()),
        Box::new(PrecisionGatingPolicy::new(delta / 2.0, Precision::INT4).unwrap()),
        Box::new(StaticHighPolicy),
        Box::new(StaticLowPolicy::new(Precision::INT4)),
        Box::new(LowBitsPolicy),
    ];
    let schemes = [
        SubTensorScheme::token(cols),
        SubTensorScheme::region(tile_rows, tile_cols),
        SubTensorScheme::PerTensor,
        SubTensorScheme::PerValue,
    ];
    let bits = |t: &Tensor| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for scheme in &schemes {
        for policy in &policies {
            let policy = policy.as_ref();
            let decided = decide_policy(t, scheme, Precision::INT8, policy).unwrap();
            let run = run_policy(t, scheme, Precision::INT8, policy).unwrap();
            let (params, decisions, effective) = reference_run(t, scheme, Precision::INT8, policy);
            let at = format!("{} under {scheme:?}", policy.name());
            prop_assert_eq!(decided.params, run.params, "{}", at);
            prop_assert_eq!(&decided.decisions, &run.decisions, "{}", at);
            prop_assert_eq!(run.params, params, "{}", at);
            prop_assert_eq!(&run.decisions, &decisions, "{}", at);
            prop_assert_eq!(bits(&run.effective), bits(&effective), "{}", at);
        }
    }
    Ok(())
}

#[test]
fn single_element_selection_matches_the_gather_reference() {
    for value in [0.0f32, 0.37, -5.0] {
        let t = Tensor::from_vec(vec![1, 1], vec![value]).unwrap();
        for delta in [0.0, 0.3, 1.9] {
            check_against_reference(&t, delta, 1, 1).unwrap();
        }
    }
}

proptest! {
    /// The streaming selection pass equals the gather-based reference
    /// on random tensors, all-zero ones included (see
    /// [`check_against_reference`]).
    #[test]
    fn streaming_selection_matches_the_gather_reference(
        rows in 1usize..9,
        cols in 1usize..14,
        tile_rows in 1usize..4,
        tile_cols in 1usize..6,
        zero in 0u32..8,
        delta in 0.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let t = selection_tensor(rows, cols, zero == 0, seed);
        check_against_reference(&t, delta, tile_rows, tile_cols)?;
    }

    /// INT8 quantize→dequantize never increases the absolute maximum
    /// and keeps cosine similarity high for non-trivial signals.
    #[test]
    fn quantization_is_contractive(
        data in proptest::collection::vec(-50.0f32..50.0, 4..128),
    ) {
        let (codes, params) = quantize_slice(&data, Precision::INT8).unwrap();
        let restored = dequantize_slice(&codes, &params);
        let max_in = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let max_out = restored.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        prop_assert!(max_out <= max_in * (1.0 + 1e-5) + 1e-6);
        if max_in > 1.0 {
            prop_assert!(cosine_similarity(&data, &restored) > 0.99);
            prop_assert!(sqnr_db(&data, &restored) > 20.0);
        }
    }

    /// Converting INT8 codes through every (hc, lc) choice and
    /// reconstructing never exceeds the sum of saturation plus rounding
    /// error bounds.
    #[test]
    fn conversion_error_decomposes(code in -127i32..=127) {
        let params =
            drift_quant::linear::QuantParams::from_abs_max(1.27, Precision::INT8);
        for choice in ConversionChoice::enumerate(Precision::INT8, Precision::INT4) {
            let low = choice.apply_value(code);
            let restored = f64::from(choice.dequantize_value(low, &params));
            let original = f64::from(code) * params.scale;
            let cap = choice.lp().q_max() << choice.lc();
            let saturation = (f64::from(code.abs() - cap)).max(0.0) * params.scale;
            let bound = choice.max_rounding_error(&params) + saturation + 1e-6;
            prop_assert!(
                (restored - original).abs() <= bound,
                "choice {choice}, code {code}: err {} > bound {bound}",
                (restored - original).abs()
            );
        }
    }

    /// run_policy's effective tensor is identical (up to f32 rounding)
    /// to the CodedMatrix dequantization for every policy — the two
    /// compute paths in the workspace agree.
    #[test]
    fn effective_paths_agree(
        rows in 1usize..8,
        cols in 2usize..16,
        seed in 0u64..500,
    ) {
        let t = Tensor::from_fn(vec![rows, cols], |i| {
            let x = (i as u64).wrapping_mul(seed.wrapping_add(17)) % 1000;
            (x as f32 - 500.0) / 173.0
        })
        .unwrap();
        for policy in policies() {
            let run = run_policy(
                &t,
                &SubTensorScheme::token(cols),
                Precision::INT8,
                policy.as_ref(),
            )
            .unwrap();
            let coded =
                CodedMatrix::encode_rows(&t, Precision::INT8, policy.as_ref()).unwrap();
            let eff = coded.to_effective();
            for (a, b) in eff.iter().zip(run.effective.iter()) {
                prop_assert!((a - b).abs() < 1e-5, "{} vs {}", a, b);
            }
        }
    }

    /// int_gemm equals the f64 GEMM of the effective tensors for every
    /// policy and random operands.
    #[test]
    fn int_gemm_exactness(
        m in 1usize..6,
        k in 1usize..12,
        n in 1usize..6,
        seed in 0u64..200,
    ) {
        let a = Tensor::from_fn(vec![m, k], |i| {
            ((i as u64).wrapping_mul(seed + 3) % 97) as f32 / 48.5 - 1.0
        })
        .unwrap();
        let b = Tensor::from_fn(vec![k, n], |i| {
            ((i as u64).wrapping_mul(seed + 7) % 89) as f32 / 44.5 - 1.0
        })
        .unwrap();
        for policy in policies() {
            let ca = CodedMatrix::encode_rows(&a, Precision::INT8, policy.as_ref()).unwrap();
            let cb = CodedMatrix::encode_cols(&b, Precision::INT8, policy.as_ref()).unwrap();
            let c = int_gemm(&ca, &cb).unwrap();
            let (ea, eb) = (ca.to_effective(), cb.to_effective());
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f64;
                    for p in 0..k {
                        acc += f64::from(ea.as_slice()[i * k + p])
                            * f64::from(eb.as_slice()[p * n + j]);
                    }
                    let got = f64::from(c.as_slice()[i * n + j]);
                    prop_assert!(
                        (acc - got).abs() <= acc.abs().max(1.0) * 1e-4,
                        "({i},{j}): {acc} vs {got} under {}",
                        policy.name()
                    );
                }
            }
        }
    }

    /// run_policy never increases MSE when moving from a low to a high
    /// static policy.
    #[test]
    fn static_high_never_lossier_than_static_low(
        rows in 1usize..6,
        cols in 2usize..16,
        seed in 0u64..200,
    ) {
        let t = Tensor::from_fn(vec![rows, cols], |i| {
            ((i as u64).wrapping_mul(seed + 11) % 211) as f32 / 105.5 - 1.0
        })
        .unwrap();
        let scheme = SubTensorScheme::token(cols);
        let high = run_policy(&t, &scheme, Precision::INT8, &StaticHighPolicy).unwrap();
        let low = run_policy(
            &t,
            &scheme,
            Precision::INT8,
            &StaticLowPolicy::new(Precision::INT4),
        )
        .unwrap();
        prop_assert!(
            mse(t.as_slice(), high.effective.as_slice())
                <= mse(t.as_slice(), low.effective.as_slice()) + 1e-12
        );
    }

    /// Decision accounting: low_fraction is consistent with the
    /// per-decision list.
    #[test]
    fn low_fraction_consistent(
        rows in 1usize..10,
        cols in 2usize..12,
        alpha in 0.0f64..2.0,
        seed in 0u64..200,
    ) {
        let t = Tensor::from_fn(vec![rows, cols], |i| {
            let r = i / cols;
            let scale = 0.05 * (1 + r * r) as f32;
            scale * (((i as u64).wrapping_mul(seed + 5) % 13) as f32 - 6.0)
        })
        .unwrap();
        let drq = DrqPolicy::new(alpha).unwrap();
        let run =
            run_policy(&t, &SubTensorScheme::token(cols), Precision::INT8, &drq).unwrap();
        let low_elems: usize = run
            .decisions
            .iter()
            .filter(|d| d.decision.is_low())
            .map(|d| d.len)
            .sum();
        let total: usize = run.decisions.iter().map(|d| d.len).sum();
        prop_assert!((run.low_fraction() - low_elems as f64 / total as f64).abs() < 1e-12);
        prop_assert_eq!(total, rows * cols);
    }
}
