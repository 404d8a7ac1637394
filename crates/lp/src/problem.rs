//! Problem definition: a minimisation LP over non-negative variables.

use std::fmt;

/// The relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ a_i x_i ≤ b`
    Le,
    /// `Σ a_i x_i ≥ b`
    Ge,
    /// `Σ a_i x_i = b`
    Eq,
}

/// A single linear constraint in sparse form.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; indices may repeat (they are
    /// summed when the tableau is built).
    pub coefficients: Vec<(usize, f64)>,
    /// The relation between the left-hand side and `rhs`.
    pub relation: Relation,
    /// The right-hand side constant.
    pub rhs: f64,
}

/// Errors raised when building or solving a [`LinearProgram`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// A constraint or the objective references a variable index out of range.
    VariableOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of declared variables.
        num_vars: usize,
    },
    /// The objective vector length does not match the declared variable count.
    ObjectiveLengthMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// A coefficient or right-hand side is NaN or infinite.
    NonFiniteValue,
    /// The simplex iteration limit was exceeded (should not happen with
    /// Bland's rule; indicates numerical trouble).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::VariableOutOfRange { index, num_vars } => write!(
                f,
                "variable index {index} out of range (problem has {num_vars} variables)"
            ),
            LpError::ObjectiveLengthMismatch { expected, got } => {
                write!(f, "objective has {got} coefficients, expected {expected}")
            }
            LpError::NonFiniteValue => write!(f, "coefficients must be finite"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// A linear program `minimise cᵀx  s.t.  constraints, x ≥ 0`.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    pub(crate) num_vars: usize,
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates a minimisation problem over `num_vars` non-negative variables
    /// with the given objective coefficients.
    pub fn minimize(num_vars: usize, objective: Vec<f64>) -> Self {
        LinearProgram {
            num_vars,
            objective,
            constraints: Vec::new(),
        }
    }

    /// Creates a maximisation problem by negating the objective: the solver
    /// minimises `−cᵀx`, so [`crate::Solution::objective`] is the minimised,
    /// negated value (`−5` for `max x₀ s.t. x₀ ≤ 5`) and callers negate it to
    /// get the maximum. Provided mostly for tests; the scheduler only
    /// minimises.
    pub fn maximize(num_vars: usize, objective: Vec<f64>) -> Self {
        LinearProgram {
            num_vars,
            objective: objective.into_iter().map(|c| -c).collect(),
            constraints: Vec::new(),
        }
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a constraint `Σ coeffs ⟨relation⟩ rhs`.
    pub fn add_constraint(
        &mut self,
        coefficients: Vec<(usize, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> Result<&mut Self, LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteValue);
        }
        for &(i, c) in &coefficients {
            if i >= self.num_vars {
                return Err(LpError::VariableOutOfRange {
                    index: i,
                    num_vars: self.num_vars,
                });
            }
            if !c.is_finite() {
                return Err(LpError::NonFiniteValue);
            }
        }
        self.constraints.push(Constraint {
            coefficients,
            relation,
            rhs,
        });
        Ok(self)
    }

    /// Validates the objective vector; called by the solver.
    pub(crate) fn validate(&self) -> Result<(), LpError> {
        if self.objective.len() != self.num_vars {
            return Err(LpError::ObjectiveLengthMismatch {
                expected: self.num_vars,
                got: self.objective.len(),
            });
        }
        if self.objective.iter().any(|c| !c.is_finite()) {
            return Err(LpError::NonFiniteValue);
        }
        Ok(())
    }

    /// Evaluates the objective at a point (no feasibility check).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective
            .iter()
            .zip(x.iter())
            .map(|(c, v)| c * v)
            .sum()
    }

    /// Checks whether `x` satisfies every constraint (within `tol`) and the
    /// non-negativity bounds.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars {
            return false;
        }
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.coefficients.iter().map(|&(i, a)| a * x[i]).sum();
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate() {
        let mut lp = LinearProgram::minimize(2, vec![1.0, 1.0]);
        lp.add_constraint(vec![(0, 1.0)], Relation::Ge, 1.0)
            .unwrap();
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert!(lp.validate().is_ok());
    }

    #[test]
    fn rejects_out_of_range_variable() {
        let mut lp = LinearProgram::minimize(1, vec![1.0]);
        let err = lp
            .add_constraint(vec![(3, 1.0)], Relation::Le, 1.0)
            .unwrap_err();
        assert!(matches!(err, LpError::VariableOutOfRange { index: 3, .. }));
    }

    #[test]
    fn rejects_nan() {
        let mut lp = LinearProgram::minimize(1, vec![1.0]);
        assert_eq!(
            lp.add_constraint(vec![(0, f64::NAN)], Relation::Le, 1.0)
                .unwrap_err(),
            LpError::NonFiniteValue
        );
        assert_eq!(
            lp.add_constraint(vec![(0, 1.0)], Relation::Le, f64::INFINITY)
                .unwrap_err(),
            LpError::NonFiniteValue
        );
    }

    #[test]
    fn objective_length_mismatch() {
        let lp = LinearProgram::minimize(3, vec![1.0]);
        assert!(matches!(
            lp.validate().unwrap_err(),
            LpError::ObjectiveLengthMismatch {
                expected: 3,
                got: 1
            }
        ));
    }

    #[test]
    fn feasibility_checks() {
        let mut lp = LinearProgram::minimize(2, vec![0.0, 0.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 1.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0)], Relation::Ge, 0.25)
            .unwrap();
        assert!(lp.is_feasible(&[0.5, 0.5], 1e-9));
        assert!(!lp.is_feasible(&[0.0, 0.5], 1e-9)); // violates Ge
        assert!(!lp.is_feasible(&[0.9, 0.9], 1e-9)); // violates Le
        assert!(!lp.is_feasible(&[-0.1, 0.5], 1e-9)); // negative
        assert!(!lp.is_feasible(&[0.5], 1e-9)); // wrong length
    }

    #[test]
    fn objective_evaluation() {
        let lp = LinearProgram::minimize(3, vec![1.0, 2.0, -1.0]);
        assert!((lp.objective_value(&[1.0, 1.0, 4.0]) - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn error_display() {
        assert!(LpError::IterationLimit.to_string().contains("iteration"));
        assert!(LpError::NonFiniteValue.to_string().contains("finite"));
    }
}
