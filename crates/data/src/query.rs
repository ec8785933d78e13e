/// One labeled training example for the learned-model path (Figure 2).
///
/// Dense features and sparse ids are drawn from a latent-factor process in
/// which the click probability is a logistic function of the user-item
/// affinity, so models that learn the latent structure achieve lower error.
#[derive(Debug, Clone, PartialEq)]
pub struct ClickSample {
    /// Continuous input features (13 for the Criteo-like profile).
    pub dense: Vec<f32>,
    /// One categorical id per embedding table.
    pub sparse: Vec<u32>,
    /// Whether the user clicked.
    pub clicked: bool,
    /// The latent click probability the sample was drawn from (available
    /// to tests and calibration; real datasets do not expose this).
    pub true_ctr: f32,
}
