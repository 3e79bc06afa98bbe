//! Pins every paper and ablation section at quick scale: the `fnv1a`
//! digest of each rendered text must equal the one
//! `repro all --quick --json` reports for that section. A harness
//! refactor that changes a single byte of a figure fails here.
//!
//! The digests are independent of the worker count, so the default run
//! shards over two workers and the `slow-tests` run repeats the list
//! serially, adds Figure 10, and pins the three-trial means of the
//! multi-trial figures.

use sim_core::{fnv1a, ExpOpts};
use squeezy_bench::{
    fig1, fig10, fig11, fig2, fig5, fig6, fig7, fig8, fig9, fpr, hybrid, soft, table1, temporal,
    thp,
};

/// Every section but Figure 10 at one trial, keyed like `repro`'s
/// targets.
const QUICK: [(&str, u64); 14] = [
    ("table1", 0x26c73f315d4cc7a0),
    ("fig1", 0xd45801c76600cb53),
    ("fig2", 0xa44f966571cbdd43),
    ("fig5", 0x7991ad18037faac2),
    ("fig6", 0xb2b369d68602d33d),
    ("fig7", 0x538a826ec4a1443e),
    ("fig8", 0xaad3bad8a1abca4f),
    ("fig9", 0x5328485618b39c7b),
    ("fig11", 0x771f8ce15d286ea4),
    ("thp", 0x15806f1cdaed1363),
    ("soft", 0x0ba9d51894c09976),
    ("fpr", 0xa958681687f2ba20),
    ("temporal", 0x407bf86a66e9f056),
    ("hybrid", 0x24c7ba15586e3ae9),
];

/// Renders one section at quick scale, as `repro <key> --quick` does.
fn render(key: &str, opts: &ExpOpts) -> String {
    match key {
        "table1" => table1::render(),
        "fig1" => fig1::render(&fig1::run(&fig1::Fig1Config::quick(), opts)),
        "fig2" => fig2::render(&fig2::run(&fig2::Fig2Config::quick(), opts)),
        "fig5" => fig5::render(&fig5::run(&fig5::Fig5Config::quick(), opts)),
        "fig6" => fig6::render(&fig6::run(&fig6::Fig6Config::quick(), opts)),
        "fig7" => fig7::render(&fig7::run(&fig7::Fig7Config::quick(), opts)),
        "fig8" => fig8::render(&fig8::run(&fig8::Fig8Config::quick(), opts)),
        "fig9" => {
            let cfg = fig9::Fig9Config::quick();
            fig9::render(&fig9::run(&cfg, opts), &cfg)
        }
        "fig10" => fig10::render(&fig10::run(&fig10::Fig10Config::quick(), opts)),
        "fig11" => fig11::render(&fig11::run(opts)),
        "thp" => thp::render(&thp::run(&thp::ThpConfig::quick(), opts)),
        "soft" => soft::render(&soft::run(opts)),
        "fpr" => fpr::render(&fpr::run(&fpr::FprConfig::quick(), opts)),
        "temporal" => temporal::render(&temporal::run(opts)),
        "hybrid" => {
            let cfg = hybrid::HybridConfig::quick();
            hybrid::render(&cfg, &hybrid::run(&cfg, opts))
        }
        _ => panic!("no section {key}"),
    }
}

/// Renders every pinned section and reports all mismatches at once.
fn assert_digests(pins: &[(&str, u64)], opts: &ExpOpts) {
    let drifted: Vec<String> = pins
        .iter()
        .filter_map(|&(key, want)| {
            let got = fnv1a(&render(key, opts));
            (got != want).then(|| format!("{key}: {got:016x}, pinned {want:016x}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "figure output changed ({opts:?}):\n{}",
        drifted.join("\n")
    );
}

#[test]
fn quick_sections_match_their_pinned_digests() {
    assert_digests(&QUICK, &ExpOpts::auto().with_jobs(2));
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "heavy simulation; enable with --features slow-tests"
)]
fn serial_sections_match_their_pinned_digests() {
    assert_digests(&QUICK, &ExpOpts::serial());
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "heavy simulation; enable with --features slow-tests"
)]
fn fig10_matches_its_pinned_digest() {
    assert_digests(
        &[("fig10", 0xc36c70bbd3892314)],
        &ExpOpts::auto().with_jobs(2),
    );
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "heavy simulation; enable with --features slow-tests"
)]
fn three_trial_means_match_their_pinned_digests() {
    assert_digests(
        &[
            ("fig6", 0x77ebb6ad23a26400),
            ("fig8", 0x48fa7535260f7905),
            ("fig10", 0xd1ade543b31a6750),
        ],
        &ExpOpts::auto().with_jobs(2).with_trials(3),
    );
}
