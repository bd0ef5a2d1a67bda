//! One module per reproduced table/figure (see DESIGN.md §5).

pub mod ablations;
pub mod digest;
pub mod disc9;
pub mod fig1;
pub mod fig10;
pub mod fig11_12;
pub mod fig8;
pub mod fig9;
pub mod schedules;
pub mod tab2;
pub mod tab3;
pub mod tab67;
pub mod tab9;
pub mod zoo;

use crate::report::ExperimentReport;

/// An experiment entry: its id and the function regenerating it.
pub type Experiment = (&'static str, fn() -> ExperimentReport);

/// Every experiment, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        ("fig1", fig1::run as fn() -> ExperimentReport),
        ("fig2", schedules::fig2),
        ("fig3", schedules::fig3),
        ("fig4", schedules::fig4),
        ("fig5", schedules::fig5),
        ("fig6", schedules::fig6),
        ("fig7", fig11_12::fig7),
        ("tab2", tab2::run),
        ("tab3", tab3::run),
        ("fig8", fig8::run),
        ("tab6", tab67::tab6),
        ("tab7", tab67::tab7),
        ("fig9", fig9::run),
        ("fig10", fig10::run),
        ("fig11_12", fig11_12::run),
        ("tab9", tab9::run),
        ("abl_wgrad", ablations::abl_wgrad),
        ("abl_slices", ablations::abl_slices),
        ("abl_variants", ablations::abl_variants),
        ("abl_nonuniform", ablations::abl_nonuniform),
        ("abl_messages", ablations::abl_messages),
        ("disc9", disc9::run),
        ("zoo", zoo::run),
        ("solver_smoke", zoo::solver),
    ]
}

/// Diagnostics that run only when named: not paper results, and too
/// slow for the every-experiment sweep. `digest` fingerprints the
/// training math bit for bit (see [`digest`]).
pub fn on_request() -> Vec<Experiment> {
    vec![("digest", digest::run as fn() -> ExperimentReport)]
}
