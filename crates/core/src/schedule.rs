//! The balanced online scheduler (paper Section 4.3).
//!
//! The share of each precision pair is unknown before runtime, so after
//! the precision selector finishes a layer, the scheduler sizes the four
//! systolic arrays to minimise the maximum per-array latency:
//!
//! ```text
//! min over (R, C) of max { T_hh, T_hl, T_lh, T_ll }      (Eq. 8)
//! ```
//!
//! with each `T` from the analytical model of Eq. 7. Because activation
//! and weight precisions are independent, the search is separable
//! (paper: "greedily adjust R and C separately"): for each vertical cut
//! (weight split), the best horizontal cut on each side is found
//! independently, giving an `O(C·R)` sweep that the controller can
//! evaluate between layers.

use crate::arch::FabricPartition;
use crate::{CoreError, Result};
use drift_accel::gemm::{GemmShape, GemmWorkload, PrecisionQuadrant};
use drift_accel::systolic::{analytical_cycles, ArrayGeometry};
use drift_obs::Recorder;
use drift_quant::precision::{Precision, PrecisionPair};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A scheduling decision for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// The chosen fabric partition.
    pub partition: FabricPartition,
    /// Per-quadrant latencies in `(hh, hl, lh, ll)` order (0 for empty
    /// quadrants).
    pub latencies: [u64; 4],
    /// The maximum per-quadrant latency — the layer's compute time.
    pub makespan: u64,
}

/// Everything the balanced scheduler's answer depends on, as a hashable
/// cache key.
///
/// [`balanced_schedule`] sees a workload only through its four quadrant
/// extents, and [`GemmWorkload::quadrants`] derives those solely from
/// the *counts* of high-precision rows and columns — *which* rows are
/// high never reaches the scheduler. Two workloads agreeing on shape,
/// counts, precisions, and fabric therefore share one [`Schedule`],
/// which is what makes memoising the `O(C·R)` Eq. 8 sweep across jobs
/// sound ([`solve`](ScheduleKey::solve) is the memoisable function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScheduleKey {
    /// The GEMM shape `(M, K, N)`.
    pub shape: GemmShape,
    /// Streamed rows at the high activation precision (`0..=m`).
    pub act_high: usize,
    /// Weight columns at the high weight precision (`0..=n`).
    pub weight_high: usize,
    /// The (high, low) activation precisions.
    pub act_precisions: (Precision, Precision),
    /// The (high, low) weight precisions.
    pub weight_precisions: (Precision, Precision),
    /// The fabric being partitioned.
    pub fabric: ArrayGeometry,
}

impl ScheduleKey {
    /// The key for scheduling `workload` on `fabric`.
    pub fn for_workload(workload: &GemmWorkload, fabric: ArrayGeometry) -> Self {
        ScheduleKey {
            shape: workload.shape(),
            act_high: workload.act_high().iter().filter(|&&h| h).count(),
            weight_high: workload.weight_high().iter().filter(|&&h| h).count(),
            act_precisions: workload.act_precisions(),
            weight_precisions: workload.weight_precisions(),
            fabric,
        }
    }

    /// Rebuilds the `(hh, hl, lh, ll)` quadrants this key abstracts.
    /// Identical to [`GemmWorkload::quadrants`] for any workload the key
    /// was derived from.
    pub fn quadrants(&self) -> [PrecisionQuadrant; 4] {
        let m_h = self.act_high.min(self.shape.m);
        let m_l = self.shape.m - m_h;
        let n_h = self.weight_high.min(self.shape.n);
        let n_l = self.shape.n - n_h;
        let (ah, al) = self.act_precisions;
        let (wh, wl) = self.weight_precisions;
        let k = self.shape.k;
        [
            PrecisionQuadrant {
                pair: PrecisionPair::new(ah, wh),
                rows: m_h,
                cols: n_h,
                k,
            },
            PrecisionQuadrant {
                pair: PrecisionPair::new(ah, wl),
                rows: m_h,
                cols: n_l,
                k,
            },
            PrecisionQuadrant {
                pair: PrecisionPair::new(al, wh),
                rows: m_l,
                cols: n_h,
                k,
            },
            PrecisionQuadrant {
                pair: PrecisionPair::new(al, wl),
                rows: m_l,
                cols: n_l,
                k,
            },
        ]
    }

    /// Runs the balanced scheduler (Eq. 8) for this key. Pure in the
    /// key: equal keys always produce equal schedules, so the result
    /// may be cached and shared.
    ///
    /// # Errors
    ///
    /// Propagates [`balanced_schedule`] errors.
    pub fn solve(&self) -> Result<Schedule> {
        balanced_schedule(self.fabric, &self.quadrants())
    }
}

/// Meters one Eq. 8 solve that took `elapsed`: a
/// `drift_schedule_solves_total` count and a
/// `drift_schedule_solve_nanoseconds` observation. Every solve site —
/// the accelerator's own and the serving tier's schedule cache — meters
/// through here. A no-op on a disabled recorder; callers skip the clock
/// reads then too.
pub fn record_solve(recorder: &Recorder, elapsed: Duration) {
    recorder.counter_add("drift_schedule_solves_total", &[], 1);
    recorder.observe(
        "drift_schedule_solve_nanoseconds",
        &[],
        drift_obs::contract::SOLVE_NS_BUCKETS,
        elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
    );
}

/// Size in bytes of one encoded `(ScheduleKey, Schedule)` entry (see
/// [`encode_entry`]).
pub const ENTRY_BYTES: usize = 124;

/// Appends the canonical binary encoding of one `(key, schedule)` pair
/// to `out`: exactly [`ENTRY_BYTES`] bytes, every `usize` widened to
/// little-endian `u64` and every precision stored as its raw bit width.
/// This is the on-disk record payload of the `drift-store` log; the
/// layout is specified in `docs/PERSISTENCE.md` and round-trips through
/// [`decode_entry`].
pub fn encode_entry(key: &ScheduleKey, schedule: &Schedule, out: &mut Vec<u8>) {
    let mut u64s = |v: usize| out.extend_from_slice(&(v as u64).to_le_bytes());
    u64s(key.shape.m);
    u64s(key.shape.k);
    u64s(key.shape.n);
    u64s(key.act_high);
    u64s(key.weight_high);
    out.push(key.act_precisions.0.bits());
    out.push(key.act_precisions.1.bits());
    out.push(key.weight_precisions.0.bits());
    out.push(key.weight_precisions.1.bits());
    let mut u64s = |v: usize| out.extend_from_slice(&(v as u64).to_le_bytes());
    u64s(key.fabric.rows);
    u64s(key.fabric.cols);
    u64s(schedule.partition.col_split());
    u64s(schedule.partition.rows_left());
    u64s(schedule.partition.rows_right());
    for lat in schedule.latencies {
        out.extend_from_slice(&lat.to_le_bytes());
    }
    out.extend_from_slice(&schedule.makespan.to_le_bytes());
}

/// Decodes one entry produced by [`encode_entry`], re-validating every
/// field through the same constructors a live solve uses (`GemmShape`,
/// `Precision`, `ArrayGeometry`, `FabricPartition`), so a decoded entry
/// is exactly as trustworthy as a freshly solved one.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] when the payload has the
/// wrong length or any field fails validation (zero extents, bad
/// precision bits, partition cuts exceeding the fabric, or a partition
/// fabric disagreeing with the key's).
pub fn decode_entry(bytes: &[u8]) -> Result<(ScheduleKey, Schedule)> {
    let bad = |detail: String| CoreError::InvalidParameter {
        name: "schedule entry",
        detail,
    };
    if bytes.len() != ENTRY_BYTES {
        return Err(bad(format!(
            "expected {ENTRY_BYTES} bytes, got {}",
            bytes.len()
        )));
    }
    let mut pos = 0usize;
    let mut next_u64 = || {
        let v = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8-byte slice"));
        pos += 8;
        v
    };
    let to_usize = |v: u64| -> Result<usize> {
        usize::try_from(v).map_err(|_| bad(format!("value {v} exceeds usize")))
    };
    let (m, k, n) = (next_u64(), next_u64(), next_u64());
    let (act_high, weight_high) = (next_u64(), next_u64());
    let prec_bits = [bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]];
    pos += 4;
    let mut next_u64 = || {
        let v = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8-byte slice"));
        pos += 8;
        v
    };
    let (rows, cols) = (next_u64(), next_u64());
    let (col_split, rows_left, rows_right) = (next_u64(), next_u64(), next_u64());
    let latencies = [next_u64(), next_u64(), next_u64(), next_u64()];
    let makespan = next_u64();
    debug_assert_eq!(pos, ENTRY_BYTES);

    let shape = GemmShape::new(to_usize(m)?, to_usize(k)?, to_usize(n)?)
        .map_err(|e| bad(format!("bad shape: {e}")))?;
    let precision = |bits: u8| Precision::new(bits).map_err(|e| bad(format!("bad precision: {e}")));
    let fabric = ArrayGeometry::new(to_usize(rows)?, to_usize(cols)?)
        .map_err(|e| bad(format!("bad fabric: {e}")))?;
    let key = ScheduleKey {
        shape,
        act_high: to_usize(act_high)?,
        weight_high: to_usize(weight_high)?,
        act_precisions: (precision(prec_bits[0])?, precision(prec_bits[1])?),
        weight_precisions: (precision(prec_bits[2])?, precision(prec_bits[3])?),
        fabric,
    };
    let partition = FabricPartition::new(
        fabric,
        to_usize(col_split)?,
        to_usize(rows_left)?,
        to_usize(rows_right)?,
    )?;
    let schedule = Schedule {
        partition,
        latencies,
        makespan,
    };
    Ok((key, schedule))
}

/// The latency of one quadrant on one geometry (Eq. 7), `0` for an
/// empty quadrant and `None` when the quadrant has work but no units.
pub fn quadrant_latency(q: &PrecisionQuadrant, geo: Option<ArrayGeometry>) -> Option<u64> {
    match (q.shape(), geo) {
        (None, _) => Some(0),
        (Some(_), None) => None,
        (Some(shape), Some(geo)) => Some(analytical_cycles(
            shape,
            q.pair.activation,
            q.pair.weight,
            geo,
        )),
    }
}

/// Best horizontal cut for one column side: distributes `rows` fabric
/// rows between a top and a bottom quadrant sharing `cols` columns.
/// Returns `(rows_top, max_latency)`, or `None` when the side has work
/// but no columns.
fn balance_side(
    top: &PrecisionQuadrant,
    bottom: &PrecisionQuadrant,
    rows: usize,
    cols: usize,
) -> Option<(usize, u64)> {
    let make_geo = |r: usize| {
        if r == 0 || cols == 0 {
            None
        } else {
            Some(ArrayGeometry::new(r, cols).expect("non-zero extents"))
        }
    };
    let mut best: Option<(usize, u64)> = None;
    for rows_top in 0..=rows {
        let t_top = quadrant_latency(top, make_geo(rows_top));
        let t_bottom = quadrant_latency(bottom, make_geo(rows - rows_top));
        if let (Some(a), Some(b)) = (t_top, t_bottom) {
            let m = a.max(b);
            if best.is_none_or(|(_, cur)| m < cur) {
                best = Some((rows_top, m));
            }
        }
    }
    best
}

/// The balanced online schedule of Eq. 8: sweeps the vertical (weight)
/// cut, balancing each side's horizontal (activation) cut
/// independently.
///
/// # Errors
///
/// Returns [`CoreError::InvalidPartition`] only in the impossible case
/// that no feasible partition exists (all quadrants non-empty requires
/// `fabric.rows >= 2` and `fabric.cols >= 2`).
pub fn balanced_schedule(
    fabric: ArrayGeometry,
    quadrants: &[PrecisionQuadrant; 4],
) -> Result<Schedule> {
    let [hh, hl, lh, ll] = quadrants;
    let mut best: Option<Schedule> = None;
    for col_split in 0..=fabric.cols {
        let left = balance_side(hh, lh, fabric.rows, col_split);
        let right = balance_side(hl, ll, fabric.rows, fabric.cols - col_split);
        let (Some((rows_left, m_left)), Some((rows_right, m_right))) = (left, right) else {
            continue;
        };
        let makespan = m_left.max(m_right);
        if best.as_ref().is_none_or(|b| makespan < b.makespan) {
            let partition = FabricPartition::new(fabric, col_split, rows_left, rows_right)?;
            let geos = partition.geometries();
            let latencies = [
                quadrant_latency(hh, geos[0]).expect("feasible by construction"),
                quadrant_latency(hl, geos[1]).expect("feasible by construction"),
                quadrant_latency(lh, geos[2]).expect("feasible by construction"),
                quadrant_latency(ll, geos[3]).expect("feasible by construction"),
            ];
            best = Some(Schedule {
                partition,
                latencies,
                makespan,
            });
        }
    }
    best.ok_or_else(|| CoreError::InvalidPartition {
        detail: format!(
            "no feasible partition of {}x{} for the given quadrants",
            fabric.rows, fabric.cols
        ),
    })
}

/// The static ablation baseline: an even 2×2 split regardless of the
/// precision mix.
///
/// # Errors
///
/// Returns [`CoreError::InvalidPartition`] when a non-empty quadrant
/// lands on a zero-area region (fabric smaller than 2×2).
pub fn equal_schedule(
    fabric: ArrayGeometry,
    quadrants: &[PrecisionQuadrant; 4],
) -> Result<Schedule> {
    let partition =
        FabricPartition::new(fabric, fabric.cols / 2, fabric.rows / 2, fabric.rows / 2)?;
    let geos = partition.geometries();
    let mut latencies = [0u64; 4];
    for (i, (q, geo)) in quadrants.iter().zip(geos).enumerate() {
        latencies[i] = quadrant_latency(q, geo).ok_or_else(|| CoreError::InvalidPartition {
            detail: format!("quadrant {i} has work but no units in the equal split"),
        })?;
    }
    let makespan = latencies.into_iter().max().expect("four entries");
    Ok(Schedule {
        partition,
        latencies,
        makespan,
    })
}

/// A lower bound on any schedule's makespan: perfect work balance over
/// all units. A BitGroup computes `4 × 16 = 64` bit-products per cycle,
/// so a quadrant needs `MACs · pa · pw / 64` BG-cycles.
pub fn oracle_lower_bound(fabric: ArrayGeometry, quadrants: &[PrecisionQuadrant; 4]) -> f64 {
    let bit_products: f64 = quadrants
        .iter()
        .map(|q| {
            q.macs() as f64 * f64::from(q.pair.activation.bits()) * f64::from(q.pair.weight.bits())
        })
        .sum();
    bit_products / 64.0 / fabric.units() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::paper_fabric;
    use drift_accel::gemm::{GemmShape, GemmWorkload};

    fn quadrants_for(
        m: usize,
        n: usize,
        act_high: f64,
        weight_high: f64,
    ) -> [PrecisionQuadrant; 4] {
        let shape = GemmShape::new(m, 512, n).unwrap();
        let ah = (m as f64 * act_high) as usize;
        let wh = (n as f64 * weight_high) as usize;
        let w = GemmWorkload::new(
            "t",
            shape,
            (0..m).map(|i| i < ah).collect(),
            (0..n).map(|j| j < wh).collect(),
        )
        .unwrap();
        w.quadrants()
    }

    #[test]
    fn uniform_workload_gets_whole_fabric() {
        let quads = quadrants_for(256, 256, 1.0, 1.0); // all hh
        let s = balanced_schedule(paper_fabric(), &quads).unwrap();
        // Only the hh quadrant has work; the partition gives it nearly
        // everything (ceiling slack in Eq. 7 can make a slightly
        // narrower array equally good or better).
        let geos = s.partition.geometries();
        assert!(geos[0].unwrap().units() >= 700);
        assert_eq!(s.latencies[1], 0);
        assert_eq!(s.latencies[2], 0);
        assert_eq!(s.latencies[3], 0);
        // And it is never worse than simply using the whole fabric.
        let whole = quadrant_latency(&quads[0], Some(paper_fabric())).unwrap();
        assert!(s.makespan <= whole);
    }

    #[test]
    fn balanced_beats_or_matches_equal_split() {
        for (fa, fw) in [(0.5, 0.5), (0.15, 0.15), (0.4, 0.1), (0.9, 0.2)] {
            let quads = quadrants_for(512, 512, fa, fw);
            let balanced = balanced_schedule(paper_fabric(), &quads).unwrap();
            let equal = equal_schedule(paper_fabric(), &quads).unwrap();
            assert!(
                balanced.makespan <= equal.makespan,
                "fa={fa} fw={fw}: balanced {} > equal {}",
                balanced.makespan,
                equal.makespan
            );
        }
    }

    #[test]
    fn makespan_respects_oracle_bound() {
        for (fa, fw) in [(0.5, 0.5), (0.15, 0.15), (0.8, 0.3)] {
            let quads = quadrants_for(768, 768, fa, fw);
            let s = balanced_schedule(paper_fabric(), &quads).unwrap();
            let lb = oracle_lower_bound(paper_fabric(), &quads);
            assert!(
                s.makespan as f64 >= lb,
                "fa={fa} fw={fw}: makespan {} below bound {lb}",
                s.makespan
            );
            // And it should not be wildly above: pass/edge overheads only.
            assert!(
                (s.makespan as f64) < lb * 4.0 + 10_000.0,
                "fa={fa} fw={fw}: makespan {} too far above bound {lb}",
                s.makespan
            );
        }
    }

    #[test]
    fn more_low_precision_means_faster_layers() {
        let slow = balanced_schedule(paper_fabric(), &quadrants_for(512, 512, 1.0, 1.0))
            .unwrap()
            .makespan;
        let mid = balanced_schedule(paper_fabric(), &quadrants_for(512, 512, 0.5, 0.5))
            .unwrap()
            .makespan;
        let fast = balanced_schedule(paper_fabric(), &quadrants_for(512, 512, 0.1, 0.1))
            .unwrap()
            .makespan;
        assert!(slow > mid, "slow {slow} !> mid {mid}");
        assert!(mid > fast, "mid {mid} !> fast {fast}");
    }

    #[test]
    fn latencies_are_reported_per_quadrant() {
        let quads = quadrants_for(512, 512, 0.3, 0.3);
        let s = balanced_schedule(paper_fabric(), &quads).unwrap();
        assert_eq!(s.makespan, s.latencies.into_iter().max().unwrap());
        assert!(s.latencies.iter().all(|&l| l > 0));
    }

    #[test]
    fn quadrant_latency_edge_cases() {
        let quads = quadrants_for(64, 64, 0.0, 0.0);
        // hh is empty: zero latency even with no geometry.
        assert_eq!(quadrant_latency(&quads[0], None), Some(0));
        // ll has work: no geometry is infeasible.
        assert_eq!(quadrant_latency(&quads[3], None), None);
    }

    #[test]
    fn schedule_key_reproduces_workload_quadrants() {
        let shape = GemmShape::new(40, 96, 24).unwrap();
        // Scattered (non-prefix) high rows/columns: only counts matter.
        let w = GemmWorkload::new(
            "scatter",
            shape,
            (0..40).map(|i| i % 3 == 0).collect(),
            (0..24).map(|j| j % 5 == 1).collect(),
        )
        .unwrap();
        let key = ScheduleKey::for_workload(&w, paper_fabric());
        assert_eq!(key.act_high, 14);
        assert_eq!(key.weight_high, 5);
        assert_eq!(key.quadrants(), w.quadrants());
    }

    #[test]
    fn schedule_key_solve_matches_direct_scheduling() {
        for (fa, fw) in [(0.0, 0.0), (0.3, 0.7), (1.0, 1.0)] {
            let quads = quadrants_for(256, 192, fa, fw);
            let direct = balanced_schedule(paper_fabric(), &quads).unwrap();
            let shape = GemmShape::new(256, 512, 192).unwrap();
            let key = ScheduleKey {
                shape,
                act_high: quads[0].rows,
                weight_high: quads[0].cols,
                act_precisions: (quads[0].pair.activation, quads[3].pair.activation),
                weight_precisions: (quads[0].pair.weight, quads[3].pair.weight),
                fabric: paper_fabric(),
            };
            assert_eq!(key.solve().unwrap(), direct, "fa={fa} fw={fw}");
        }
    }

    #[test]
    fn tiny_fabric_still_schedules() {
        let fabric = ArrayGeometry::new(2, 2).unwrap();
        let quads = quadrants_for(16, 16, 0.5, 0.5);
        let s = balanced_schedule(fabric, &quads).unwrap();
        assert!(s.makespan > 0);
        assert_eq!(s.partition.total_units(), 4);
    }
}
