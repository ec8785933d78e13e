//! Replays every entry of the golden corpus (`golden/corpus.txt`) and
//! checks its outcome and telemetry digests bit for bit.

mod golden;

#[test]
fn every_corpus_entry_replays_its_pinned_digests() {
    golden::check(|_| true);
}

/// Prints `corpus.txt` for the current simulator (module docs of
/// `golden` give the command and when to use it).
#[test]
#[ignore = "regenerates the corpus; run by hand with a stated reason"]
fn print_corpus() {
    println!("# qsim golden corpus: index, outcome digest, telemetry digest (hex).");
    println!("# Regenerate only with a stated reason; see tests/golden/mod.rs.");
    for i in 0..golden::LEN {
        let (outcome, telemetry) = golden::digest(golden::entry(i).run());
        println!("{i} {outcome:016x} {telemetry:016x}");
    }
}
