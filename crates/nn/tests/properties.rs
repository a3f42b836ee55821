//! Property-based tests for the NN substrate.

use drift_core::selector::DriftPolicy;
use drift_nn::datagen::TokenProfile;
use drift_nn::engine::{ForwardMode, Model, TinyTransformer};
use drift_nn::layers::{
    attention_with_mask, conv2d_direct, cross_entropy, im2col, layernorm_rows, matmul,
    softmax_rows, transpose, Conv2dSpec,
};
use drift_nn::lower::{lower, model_low_fraction, model_workloads};
use drift_nn::zoo;
use drift_tensor::Tensor;
use proptest::prelude::*;

fn arb_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_fn(vec![rows, cols], |i| {
        (((i as u64).wrapping_mul(seed.wrapping_add(41)) % 997) as f32 - 498.0) / 300.0
    })
    .expect("valid dims")
}

proptest! {
    /// Softmax rows always sum to one and are invariant to per-row
    /// shifts.
    #[test]
    fn softmax_properties(rows in 1usize..8, cols in 1usize..16, seed in 0u64..500, shift in -50.0f32..50.0) {
        let x = arb_tensor(rows, cols, seed);
        let s = softmax_rows(&x).unwrap();
        for r in 0..rows {
            let sum: f32 = s.as_slice()[r * cols..(r + 1) * cols].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
        }
        let shifted = x.map(|v| v + shift);
        let s2 = softmax_rows(&shifted).unwrap();
        for (a, b) in s.iter().zip(s2.iter()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// LayerNorm output rows have zero mean and unit variance.
    #[test]
    fn layernorm_properties(rows in 1usize..8, cols in 2usize..32, seed in 0u64..500) {
        let x = arb_tensor(rows, cols, seed);
        let y = layernorm_rows(&x, 1e-6).unwrap();
        for r in 0..rows {
            let row = &y.as_slice()[r * cols..(r + 1) * cols];
            let mean: f32 = row.iter().sum::<f32>() / cols as f32;
            let var: f32 =
                row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            prop_assert!(mean.abs() < 1e-4);
            prop_assert!(var < 1.1 && !(1e-6..=0.9).contains(&var), "var {var}");
        }
    }

    /// matmul distributes over transpose: (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_identity(
        m in 1usize..6,
        k in 1usize..8,
        n in 1usize..6,
        seed in 0u64..500,
    ) {
        let a = arb_tensor(m, k, seed);
        let b = arb_tensor(k, n, seed + 1);
        let ab_t = transpose(&matmul(&a, &b).unwrap()).unwrap();
        let bt_at = matmul(&transpose(&b).unwrap(), &transpose(&a).unwrap()).unwrap();
        for (x, y) in ab_t.iter().zip(bt_at.iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// The im2col+GEMM path equals direct convolution for random
    /// configurations.
    #[test]
    fn im2col_equals_direct(
        c in 1usize..3,
        hw in 3usize..8,
        out_c in 1usize..4,
        k in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..200,
    ) {
        let spec = Conv2dSpec { in_channels: c, out_channels: out_c, kernel: k, stride: 1, padding: pad };
        prop_assume!(hw + 2 * pad >= k);
        let input = Tensor::from_fn(vec![c, hw, hw], |i| {
            (((i as u64).wrapping_mul(seed + 3) % 19) as f32 - 9.0) * 0.1
        })
        .unwrap();
        let weights = Tensor::from_fn(vec![out_c, k * k * c], |i| {
            (((i as u64).wrapping_mul(seed + 7) % 11) as f32 - 5.0) * 0.1
        })
        .unwrap();
        let direct = conv2d_direct(&input, &weights, &spec).unwrap();
        let cols = im2col(&input, &spec).unwrap();
        let gemm = matmul(&cols, &transpose(&weights).unwrap()).unwrap();
        let (oh, ow) = spec.output_hw(hw, hw).unwrap();
        let gemm_t = transpose(&gemm).unwrap().reshaped(vec![out_c, oh, ow]).unwrap();
        for (a, b) in gemm_t.iter().zip(direct.iter()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// Causal attention: output row i depends only on rows <= i
    /// (perturbing a later token leaves earlier outputs unchanged).
    #[test]
    fn causal_mask_blocks_future(seq in 2usize..8, d in 2usize..8, seed in 0u64..200) {
        let x = arb_tensor(seq, d, seed);
        let wq = arb_tensor(d, d, seed + 1);
        let wk = arb_tensor(d, d, seed + 2);
        let wv = arb_tensor(d, d, seed + 3);
        let base = attention_with_mask(&x, &wq, &wk, &wv, true).unwrap();
        let mut perturbed = x.clone();
        // Change the LAST token only.
        for c in 0..d {
            let v = perturbed.get(&[seq - 1, c]).unwrap();
            perturbed.set(&[seq - 1, c], v + 1.0).unwrap();
        }
        let out = attention_with_mask(&perturbed, &wq, &wk, &wv, true).unwrap();
        for i in 0..seq - 1 {
            for c in 0..d {
                let a = base.get(&[i, c]).unwrap();
                let b = out.get(&[i, c]).unwrap();
                prop_assert!((a - b).abs() < 1e-5, "row {i} leaked future info");
            }
        }
    }

    /// Cross-entropy is minimised by the argmax label on every row.
    #[test]
    fn cross_entropy_argmax_minimal(rows in 1usize..5, classes in 2usize..8, seed in 0u64..200) {
        let logits = arb_tensor(rows, classes, seed);
        let best: Vec<usize> = drift_nn::layers::argmax_rows(&logits).unwrap();
        let ce_best = cross_entropy(&logits, &best).unwrap();
        for other in 0..classes {
            let labels = vec![other; rows];
            let ce = cross_entropy(&logits, &labels).unwrap();
            prop_assert!(ce_best <= ce + 1e-9);
        }
    }

    /// Lowered GEMM shapes are positive and stable, and low fractions
    /// sit in [0, 1] for any δ.
    #[test]
    fn lowering_invariants(delta in 0.001f64..10.0) {
        for desc in [zoo::bert_base(), zoo::deit_s()] {
            let ops = lower(&desc).unwrap();
            prop_assert!(!ops.is_empty());
            for op in &ops {
                prop_assert!(op.shape.macs() > 0);
            }
            let policy = DriftPolicy::new(delta).unwrap();
            let w = model_workloads(&desc, &policy, 3).unwrap();
            let f = model_low_fraction(&w);
            prop_assert!((0.0..=1.0).contains(&f));
        }
    }
}

/// FP32 forwards are pure functions of the input (no hidden state).
#[test]
fn forward_is_pure() {
    let model = TinyTransformer::bert_like(5).unwrap();
    let input = TokenProfile::bert().generate(8, model.hidden(), 3).unwrap();
    let a = model.forward(&input, &ForwardMode::Fp32).unwrap();
    let b = model.forward(&input, &ForwardMode::Fp32).unwrap();
    assert_eq!(a.logits, b.logits);
}

/// `TokenProfile::generate` is pinned bit for bit: an FNV-1a checksum
/// over the f32 bit patterns of one `[64, 512]` tensor per profile. Any
/// change to the RNG draw sequence or the f32 operation order of the
/// generator changes a checksum.
#[test]
fn token_profile_generate_bits_are_pinned() {
    let expected: [(&str, TokenProfile, u64); 4] = [
        ("cnn", TokenProfile::cnn(), 0xcb80_4dcd_0adc_4ba4),
        ("vit", TokenProfile::vit(), 0x3769_2afd_3a53_e6a6),
        ("bert", TokenProfile::bert(), 0xbfb7_82be_a3bb_3a0f),
        ("llm", TokenProfile::llm(), 0xe39d_2f58_b324_baf3),
    ];
    for (name, profile, checksum) in expected {
        let t = profile.generate(64, 512, 42).unwrap();
        let got = t.as_slice().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x1000_0000_01b3)
        });
        assert_eq!(got, checksum, "{name}: {got:#018x}");
    }
}
