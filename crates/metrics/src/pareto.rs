use serde::{Deserialize, Serialize};

/// Direction of optimization for one objective axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dominance {
    /// Smaller values are better (e.g. tail latency).
    Minimize,
    /// Larger values are better (e.g. quality, throughput).
    Maximize,
}

impl Dominance {
    /// Whether value `a` is at least as good as `b` on this axis.
    fn at_least_as_good(self, a: f64, b: f64) -> bool {
        match self {
            Dominance::Minimize => a <= b,
            Dominance::Maximize => a >= b,
        }
    }

    /// Whether value `a` is strictly better than `b` on this axis.
    fn strictly_better(self, a: f64, b: f64) -> bool {
        match self {
            Dominance::Minimize => a < b,
            Dominance::Maximize => a > b,
        }
    }
}

/// A candidate design point: an arbitrary payload tagged with objective
/// values (one per axis).
struct ParetoPoint<T> {
    /// The design this point describes (pipeline config, mapping, ...).
    payload: T,
    /// Objective values, in the same order as the `axes` passed to
    /// [`pareto_front`].
    objectives: Vec<f64>,
}

impl<T> ParetoPoint<T> {
    /// Creates a point from a payload and its objective values.
    fn new(payload: T, objectives: Vec<f64>) -> Self {
        Self {
            payload,
            objectives,
        }
    }
}

/// Returns `true` if `a` dominates `b`: at least as good on every axis and
/// strictly better on at least one.
fn dominates(a: &[f64], b: &[f64], axes: &[Dominance]) -> bool {
    debug_assert_eq!(a.len(), axes.len());
    debug_assert_eq!(b.len(), axes.len());
    let mut strictly = false;
    for ((&av, &bv), &axis) in a.iter().zip(b.iter()).zip(axes.iter()) {
        if !axis.at_least_as_good(av, bv) {
            return false;
        }
        if axis.strictly_better(av, bv) {
            strictly = true;
        }
    }
    strictly
}

/// Extracts the Pareto-optimal subset of `points` under the given axis
/// directions. Dominated points are dropped; the survivors keep their
/// input order.
///
/// # Panics
///
/// Panics if any point's objective count differs from `axes.len()`.
fn pareto_front<T>(points: Vec<ParetoPoint<T>>, axes: &[Dominance]) -> Vec<ParetoPoint<T>> {
    for p in &points {
        assert_eq!(
            p.objectives.len(),
            axes.len(),
            "objective arity must match axes"
        );
    }
    let mut keep = vec![true; points.len()];
    for i in 0..points.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..points.len() {
            if i == j || !keep[j] {
                continue;
            }
            if dominates(&points[j].objectives, &points[i].objectives, axes) {
                keep[i] = false;
                break;
            }
        }
    }
    points
        .into_iter()
        .zip(keep)
        .filter_map(|(p, k)| k.then_some(p))
        .collect()
}

/// A Pareto-optimal subset of design points, extracted with a caller-
/// supplied objective projection.
///
/// This is the one shared dominance path for every frontier the system
/// produces — the scheduler's quality/latency sweeps and halving rungs,
/// the `Engine`'s [`sweep`] results (Figures 7, 8, 12 of the paper), and
/// ad-hoc analyses — so "Pareto-optimal" means the same thing
/// everywhere.
///
/// [`sweep`]: https://docs.rs/recpipe-core
///
/// # Examples
///
/// ```
/// use recpipe_metrics::{Dominance, ParetoFront};
///
/// // (latency, quality) candidates; minimize the first, maximize the second.
/// let candidates = vec![(1.0, 0.80), (9.0, 0.95), (9.5, 0.80)];
/// let front = ParetoFront::extract(
///     candidates,
///     &[Dominance::Minimize, Dominance::Maximize],
///     |&(lat, q)| vec![lat, q],
/// );
/// assert_eq!(front.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoFront<T> {
    points: Vec<T>,
}

impl<T> ParetoFront<T> {
    /// Extracts the Pareto-optimal subset of `points`, projecting each
    /// point onto objective values with `objectives` (one value per
    /// axis, in axis order).
    ///
    /// # Panics
    ///
    /// Panics if a projection's arity differs from `axes.len()`.
    pub fn extract(
        points: Vec<T>,
        axes: &[Dominance],
        objectives: impl Fn(&T) -> Vec<f64>,
    ) -> Self {
        let tagged: Vec<ParetoPoint<T>> = points
            .into_iter()
            .map(|p| {
                let obj = objectives(&p);
                ParetoPoint::new(p, obj)
            })
            .collect();
        Self {
            points: pareto_front(tagged, axes)
                .into_iter()
                .map(|p| p.payload)
                .collect(),
        }
    }

    /// The surviving points, in input order.
    pub fn points(&self) -> &[T] {
        &self.points
    }

    /// Consumes the front, yielding its points.
    pub fn into_vec(self) -> Vec<T> {
        self.points
    }

    /// Number of non-dominated points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.points.iter()
    }
}

impl<T> IntoIterator for ParetoFront<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a ParetoFront<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN_MAX: &[Dominance] = &[Dominance::Minimize, Dominance::Maximize];

    #[test]
    fn dominated_point_is_removed() {
        let pts = vec![
            ParetoPoint::new("a", vec![1.0, 1.0]),
            ParetoPoint::new("b", vec![2.0, 0.5]),
        ];
        let front = pareto_front(pts, MIN_MAX);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].payload, "a");
    }

    #[test]
    fn incomparable_points_both_survive() {
        let pts = vec![
            ParetoPoint::new("cheap", vec![1.0, 0.5]),
            ParetoPoint::new("good", vec![5.0, 0.9]),
        ];
        let front = pareto_front(pts, MIN_MAX);
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn duplicate_points_survive_together() {
        // Equal points do not strictly dominate each other.
        let pts = vec![
            ParetoPoint::new(1, vec![1.0, 1.0]),
            ParetoPoint::new(2, vec![1.0, 1.0]),
        ];
        let front = pareto_front(pts, MIN_MAX);
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn empty_input_gives_empty_front() {
        let front: Vec<ParetoPoint<()>> = pareto_front(vec![], MIN_MAX);
        assert!(front.is_empty());
    }

    #[test]
    fn maximize_axis_direction_respected() {
        let pts = vec![
            ParetoPoint::new("hi", vec![0.9]),
            ParetoPoint::new("lo", vec![0.1]),
        ];
        let front = pareto_front(pts, &[Dominance::Maximize]);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].payload, "hi");
    }

    #[test]
    fn three_axis_dominance() {
        let axes = &[
            Dominance::Minimize,
            Dominance::Maximize,
            Dominance::Maximize,
        ];
        let pts = vec![
            ParetoPoint::new("balanced", vec![2.0, 0.9, 500.0]),
            ParetoPoint::new("dominated", vec![3.0, 0.8, 400.0]),
            ParetoPoint::new("fast", vec![1.0, 0.7, 300.0]),
        ];
        let front = pareto_front(pts, axes);
        let names: Vec<_> = front.iter().map(|p| p.payload).collect();
        assert!(names.contains(&"balanced"));
        assert!(names.contains(&"fast"));
        assert!(!names.contains(&"dominated"));
    }

    #[test]
    #[should_panic(expected = "objective arity")]
    fn arity_mismatch_panics() {
        let pts = vec![ParetoPoint::new((), vec![1.0])];
        pareto_front(pts, MIN_MAX);
    }

    #[test]
    fn front_type_extracts_and_iterates() {
        let candidates = vec![("a", 1.0, 0.9), ("b", 2.0, 0.95), ("c", 2.5, 0.9)];
        let front = ParetoFront::extract(candidates, MIN_MAX, |&(_, lat, q)| vec![lat, q]);
        assert_eq!(front.len(), 2);
        assert!(!front.is_empty());
        let names: Vec<&str> = front.iter().map(|&(n, _, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(front.points().len(), front.clone().into_vec().len());
        let collected: Vec<_> = front.into_iter().collect();
        assert_eq!(collected.len(), 2);
    }
}
