//! Error type shared by all prediction methods.

use std::fmt;

/// Errors raised while building, calibrating or evaluating a performance
/// model.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictError {
    /// The model cannot produce the requested metric (e.g. asking the layered
    /// queuing method for a directly-predicted percentile, which only the
    /// historical method supports — paper §8.2).
    Unsupported(&'static str),
    /// The model has not been calibrated, or calibration data was inadequate
    /// (too few points, degenerate fit, non-positive response times, ...).
    Calibration(String),
    /// A model input fell outside the region the model was calibrated or
    /// defined for.
    OutOfRange(String),
    /// The iterative solver failed to converge or produced a non-finite
    /// result.
    Solver(String),
    /// A model definition is structurally invalid (dangling reference,
    /// cyclic synchronous call graph, zero multiplicity, ...).
    InvalidModel(String),
    /// The request's deadline budget ran out before its solve could start
    /// — the serving layer shed it unsolved and should fall back or
    /// answer 504. Distinct from [`PredictError::Solver`], which means the
    /// solve ran and failed.
    DeadlineExpired(String),
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::Unsupported(what) => write!(f, "unsupported by this method: {what}"),
            PredictError::Calibration(msg) => write!(f, "calibration error: {msg}"),
            PredictError::OutOfRange(msg) => write!(f, "input out of range: {msg}"),
            PredictError::Solver(msg) => write!(f, "solver error: {msg}"),
            PredictError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
            PredictError::DeadlineExpired(msg) => write!(f, "deadline expired: {msg}"),
        }
    }
}

impl std::error::Error for PredictError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_detail() {
        let e = PredictError::Calibration("only 1 data point".into());
        assert!(e.to_string().contains("only 1 data point"));
        let e = PredictError::Unsupported("percentile prediction");
        assert!(e.to_string().contains("percentile prediction"));
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> = Box::new(PredictError::Solver("diverged".into()));
        assert!(e.to_string().contains("diverged"));
    }
}
