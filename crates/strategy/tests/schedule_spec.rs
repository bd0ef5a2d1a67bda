//! Property: `ScheduleSpec` is the one recipe and the one flag codec.
//! Every method, small dims, knob and polish round-trips through
//! `to_args`/`from_args`, and `generate` builds exactly what the
//! method's generator builds directly.

use proptest::prelude::*;

use mepipe_core::{reschedule::reschedule_backwards, svpp::Mepipe, Synth};
use mepipe_schedule::generator::{Dapple, Dims, ScheduleError, ScheduleGenerator, Vpp, Zb, Zbv};
use mepipe_schedule::{ir::Schedule, Blocks, DualPipe};
use mepipe_strategy::{Method, ScheduleArgError, ScheduleSpec};

/// The explicit reference: each method's generator, built by hand.
fn direct(x: &ScheduleSpec) -> Result<Schedule, ScheduleError> {
    let dims = x.dims;
    let schedule = match (x.method, x.warmup) {
        (Method::Dapple, _) => Dapple.generate(&dims),
        (Method::Vpp, _) => Vpp.generate(&dims),
        (Method::Zb, _) => Zb.generate(&dims),
        (Method::Zbv, _) => Zbv.generate(&dims),
        (Method::Mepipe, None) => Mepipe::new().generate(&dims),
        (Method::Mepipe, Some(f)) => Mepipe::new().warmup_cap(f).generate(&dims),
        (Method::DualPipe, None) => DualPipe::new().generate(&dims),
        (Method::DualPipe, Some(f)) => DualPipe::new().warmup_cap(f).generate(&dims),
        (Method::Blocks, None) => Blocks::uniform().generate(&dims),
        (Method::Blocks, Some(k)) => Blocks::uniform().lifespan(k).generate(&dims),
        (Method::Synth, None) => Synth::new().generate(&dims),
        (Method::Synth, Some(c)) => Synth::new().cap(c).generate(&dims),
    }?;
    if x.reschedule {
        Ok(reschedule_backwards(&schedule)?)
    } else {
        Ok(schedule)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spec_round_trips_and_generates_like_its_generator(
        p in 1usize..=3,
        n in 1usize..=4,
        s in 1usize..=2,
        knob in 0usize..=6,
        has_knob in proptest::bool::ANY,
        reschedule in proptest::bool::ANY,
    ) {
        for method in Method::all() {
            let x = ScheduleSpec {
                warmup: has_knob.then_some(knob),
                reschedule,
                ..ScheduleSpec::new(method, Dims::new(p, n).slices(s))
            };
            let decoded = ScheduleSpec::from_args(&x.to_args());
            if reschedule && method == Method::DualPipe {
                prop_assert!(
                    matches!(decoded, Err(ScheduleArgError::Unsupported(_))),
                    "{x:?} decoded to {decoded:?}"
                );
                prop_assert!(
                    matches!(x.generate(), Err(ScheduleError::Unsupported { .. })),
                    "{x:?} generated"
                );
            } else {
                prop_assert_eq!(decoded, Ok(x));
                prop_assert_eq!(x.generate(), direct(&x), "{:?}", x);
            }
        }
    }
}
