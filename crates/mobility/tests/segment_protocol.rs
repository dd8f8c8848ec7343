//! Property tests for the motion segment protocol.
//!
//! For both movement models, over random configurations and seeds:
//!
//! * the exported `motion()` segment must reproduce the position the model
//!   has just stepped to, and
//! * evaluated at any later grid tick strictly inside the current decision
//!   window, the same segment must equal the position the model actually
//!   reaches by iterated `step()`ping, bit-for-bit.
//!
//! This is the contract the event-driven engine leans on when it skips
//! movement ticks entirely and evaluates its segment column analytically.

use proptest::prelude::*;
use std::sync::Arc;
use vdtn_geo::{GridMapGen, Point, RoadGraph};
use vdtn_mobility::{MovementModel, ShortestPathMapBased, SpmbConfig, Stationary};
use vdtn_sim_core::{SimDuration, SimRng, SimTime};

/// How many future grid ticks each anchor predicts ahead.
const HORIZON: u64 = 30;

/// Drive `m` for `ticks` one-second steps; at every tick check all earlier
/// predictions that land on it, then predict forward from the fresh state.
fn check_protocol<M: MovementModel>(mut m: M, ticks: u64) {
    let dt = SimDuration::from_secs(1);
    let mut now = SimTime::ZERO;
    let mut pending: Vec<(SimTime, Point)> = Vec::new();
    let mut predicted = 0u64;
    for _ in 0..ticks {
        let end = now + dt;
        let p = m.step(now, dt);
        for &(t, pred) in pending.iter() {
            if t == end {
                assert_eq!(pred, p, "prediction for {end} diverged");
            }
        }
        pending.retain(|&(t, _)| t > end);

        // The exported segment must agree with the model *now*…
        let seg = m.motion();
        assert_eq!(seg.position_at(end), p, "segment disagrees at its anchor");
        // …and predict exactly up to (not including) the next decision.
        let nd = m.next_decision_time();
        for k in 1..=HORIZON {
            let f = end + SimDuration::from_secs(k);
            if f >= nd {
                break;
            }
            pending.push((f, seg.position_at(f)));
            predicted += 1;
        }
        now = end;
    }
    assert!(
        predicted > 0 || ticks == 0,
        "window never admitted a prediction — test is vacuous"
    );
}

fn grid_map() -> Arc<RoadGraph> {
    Arc::new(
        GridMapGen {
            cols: 5,
            rows: 5,
            spacing: 100.0,
        }
        .generate(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spmb_segment_protocol(
        seed in 0u64..1_000_000,
        speed_lo_d in 10u32..150,
        speed_span_d in 0u32..150,
        wait_lo_d in 0u32..200,
        wait_span_d in 10u32..400,
    ) {
        let speed_lo = speed_lo_d as f64 / 10.0;
        let cfg = SpmbConfig {
            speed_lo,
            speed_hi: speed_lo + speed_span_d as f64 / 10.0,
            wait_lo: wait_lo_d as f64 / 10.0,
            wait_hi: (wait_lo_d + wait_span_d) as f64 / 10.0,
        };
        let m = ShortestPathMapBased::new(grid_map(), cfg, SimRng::seed_from_u64(seed));
        check_protocol(m, 400);
    }

    #[test]
    fn stationary_segment_protocol(x in -500i32..500, y in -500i32..500) {
        let m = Stationary::new(Point::new(x as f64, y as f64));
        check_protocol(m, 50);
    }
}
