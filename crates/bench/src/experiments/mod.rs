//! The experiment suite: one module per claim of the paper.
//!
//! Module `eN` is experiment EN. The claim each one measures is the `what`
//! line of its entry in [`all`], and the module docs describe its setup and
//! the shape of result the paper predicts. Outcomes are printed as tables,
//! not recorded; run the `experiments` binary to regenerate them.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

use crate::table::Table;

/// An experiment id and its runner.
pub struct Experiment {
    /// Short id, e.g. `"e4"`.
    pub id: &'static str,
    /// One-line description.
    pub what: &'static str,
    /// Runner; `quick` trades trial counts for speed.
    pub run: fn(bool) -> Vec<Table>,
}

/// The registry, in presentation order.
#[must_use]
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            what: "Theorem 5.7: planted eps^3-near clique recovery",
            run: e1::run,
        },
        Experiment { id: "e2", what: "Corollary 2.2: O(1) rounds at linear size", run: e2::run },
        Experiment {
            id: "e3",
            what: "Corollary 2.3: slightly sublinear cliques, boosted",
            run: e3::run,
        },
        Experiment {
            id: "e4",
            what: "Claim 1 / Figure 1: shingles fails, DistNearClique succeeds",
            run: e4::run,
        },
        Experiment { id: "e5", what: "Lemma 5.1: rounds are O(2^|S|)", run: e5::run },
        Experiment { id: "e6", what: "Lemma 5.2: sample-size Chernoff tail", run: e6::run },
        Experiment {
            id: "e7",
            what: "Lemma 5.3: unconditional output density invariant",
            run: e7::run,
        },
        Experiment { id: "e8", what: "Boosting: failure decays as (1-r)^lambda", run: e8::run },
        Experiment {
            id: "e9",
            what: "Section 6: sub-diameter impossibility, behaviorally",
            run: e9::run,
        },
        Experiment {
            id: "e10",
            what: "Message width: O(log n) vs Theta(Delta log n)",
            run: e10::run,
        },
        Experiment {
            id: "e11",
            what: "Quality vs centralized dense-subgraph algorithms",
            run: e11::run,
        },
        Experiment {
            id: "e12",
            what: "Methodology: tester queries vs distributed rounds",
            run: e12::run,
        },
        Experiment {
            id: "e13",
            what: "Section 5.2 proof chain, measured step by step",
            run: e13::run,
        },
    ]
}
