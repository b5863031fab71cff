//! Property tests for the warm pool: conservation (an instance is either
//! held by a worker, warm in the pool, or reaped — never duplicated) and
//! TTL correctness under arbitrary schedules. The model checker is
//! `pool_model::check`; `pool_model_seeded.rs` feeds it without `proptest`.

mod pool_model;

use pool_model::{check, PoolOp, IMAGES};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0..IMAGES).prop_map(PoolOp::Acquire),
        (0..IMAGES).prop_map(PoolOp::Release),
        (0u16..400).prop_map(PoolOp::Advance),
        Just(PoolOp::Reap),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn instances_are_conserved_and_ttl_holds(ops in proptest::collection::vec(arb_op(), 0..60)) {
        prop_assert_eq!(check(&ops), Ok(()));
    }
}
