// Fixture: ctor-validate on builder setters, scanned under crates/qsim/src/.

pub struct Knobs {
    rate: f64,
}

impl Knobs {
    // POSITIVE: a setter taking f64, no assert/panic, no `# Panics` doc.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// NEGATIVE: a setter that validates in the body.
    pub fn with_checked_rate(mut self, rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        self.rate = rate;
        self
    }

    /// NEGATIVE: takes `&self`, so it is no setter.
    pub fn scaled(&self, by: f64) -> f64 {
        self.rate * by
    }
}
