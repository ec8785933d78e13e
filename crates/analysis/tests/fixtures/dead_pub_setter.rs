// Fixture: dead-pub builder setters, scanned under crates/demo/src/.
// A setter (`mut self` plus an argument) is used only where a line
// calls it with an argument, not where a getter's `.name()` names it.

impl Options {
    // POSITIVE: only the getter call `.timeout()` names it.
    pub fn timeout(mut self, seconds: f64) -> Self {
        self
    }

    // POSITIVE: a signature broken over lines, named only by `.retries()`.
    pub fn retries(
        mut self,
        n: usize,
    ) -> Self {
        self
    }

    // NEGATIVE: called with its argument on the next line.
    pub fn label(mut self, label: &str) -> Self {
        self
    }

    // NEGATIVE: takes only `mut self`, so a bare call is a use.
    pub fn finish(mut self) -> Self {
        self
    }
}

fn caller(options: Options, built: &Built) -> f64 {
    let _ = options
        .label(
            "fixture",
        )
        .finish();
    built.timeout() + built.retries() as f64
}
