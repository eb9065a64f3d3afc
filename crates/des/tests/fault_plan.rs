//! `FaultPlan::from_json`: the inverse of `to_json` on every valid plan,
//! and an error — never a panic — on every invalid one.

use dgmc_des::{FaultPlan, LinkFaults, LinkFlap, NodeOutage, SimDuration};
use proptest::prelude::*;

/// Probabilities on a 2^-53 grid over `[0, 1]`, both ends included.
fn probability() -> impl Strategy<Value = f64> {
    (0u64..=1 << 53).prop_map(|k| k as f64 / (1u64 << 53) as f64)
}

fn link_faults() -> impl Strategy<Value = LinkFaults> {
    (probability(), probability(), probability(), any::<u64>()).prop_map(
        |(loss, hard_loss, duplicate, jitter)| LinkFaults {
            loss,
            hard_loss,
            duplicate,
            jitter: SimDuration::nanos(jitter),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fault_plans_round_trip_through_json(
        faults in (link_faults(), any::<u64>(), any::<u32>()),
        overrides in prop::collection::vec((any::<u32>(), any::<u32>(), link_faults()), 0..4),
        flaps in prop::collection::vec((any::<u32>(), any::<u32>(), 0u64..1 << 40, 1u64..1 << 40), 0..4),
        outages in prop::collection::vec((any::<u32>(), 0u64..1 << 40, 1u64..1 << 40), 0..4),
    ) {
        let (default, retransmit_ns, max_retries) = faults;
        let window = |down: u64, len: u64| (SimDuration::nanos(down), SimDuration::nanos(down + len));
        let plan = FaultPlan {
            default,
            overrides: overrides
                .into_iter()
                .map(|(a, b, f)| ((a.min(b), a.max(b)), f))
                .collect(),
            retransmit_after: SimDuration::nanos(retransmit_ns),
            max_retries,
            flaps: flaps
                .into_iter()
                .map(|(a, b, down, len)| {
                    let (down_at, up_at) = window(down, len);
                    LinkFlap { a, b, down_at, up_at }
                })
                .collect(),
            outages: outages
                .into_iter()
                .map(|(node, down, len)| {
                    let (down_at, up_at) = window(down, len);
                    NodeOutage { node, down_at, up_at }
                })
                .collect(),
        };
        let text = plan.to_json().to_json();
        prop_assert_eq!(FaultPlan::from_json(&text), Ok(plan));
    }
}

#[test]
fn ids_that_do_not_fit_u32_are_rejected() {
    let max = r#"{"default": {}, "overrides": [{"a": 4294967295, "b": 0, "faults": {}}]}"#;
    assert!(FaultPlan::from_json(max).is_ok());
    for bad in [
        r#"{"default": {}, "overrides": [{"a": 4294967296, "b": 1, "faults": {}}]}"#,
        r#"{"default": {}, "flaps": [{"a": 0, "b": 4294967296, "down_at_ns": 1, "up_at_ns": 2}]}"#,
        r#"{"default": {}, "outages": [{"node": 4294967296, "down_at_ns": 1, "up_at_ns": 2}]}"#,
        r#"{"default": {}, "max_retries": 4294967296}"#,
    ] {
        let err = FaultPlan::from_json(bad).expect_err(bad);
        assert!(err.contains("4294967296"), "{err}");
    }
}

#[test]
fn invalid_plans_are_errors_not_panics() {
    for bad in [
        "",
        "[]",
        r#"{"overrides": []}"#,
        r#"{"default": {"hard_loss": -0.5}}"#,
        r#"{"default": {}, "overrides": [{"a": 0, "b": 1, "faults": {"duplicate": 2}}]}"#,
        r#"{"default": {"jitter_ns": 1.5}}"#,
        r#"{"default": {}, "flaps": [{"a": 0, "b": 1, "down_at_ns": 5, "up_at_ns": 5}]}"#,
        r#"{"default": {}, "outages": [{"node": 0, "down_at_ns": 9, "up_at_ns": 2}]}"#,
        r#"{"default": {}, "flaps": {}}"#,
    ] {
        assert!(FaultPlan::from_json(bad).is_err(), "{bad:?} accepted");
    }
}

#[test]
fn absent_fields_take_the_empty_plan_values() {
    assert_eq!(
        FaultPlan::from_json(r#"{"default": {}}"#),
        Ok(FaultPlan::none())
    );
}
