//! A sample of the simulator's golden corpus (`crates/qsim/tests/golden`):
//! every 16th entry replays its pinned outcome and telemetry digests
//! bit for bit.

#[path = "../crates/qsim/tests/golden/mod.rs"]
mod golden;

#[test]
fn every_16th_corpus_entry_replays_its_pinned_digests() {
    golden::check(|i| i % 16 == 0);
}
