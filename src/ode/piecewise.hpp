// Piecewise ODE systems.
//
// The paper's Section 6 models are piecewise: the dynamics change at
// the immunization start time d (t <= d vs t > d), and d itself is
// sometimes specified indirectly as "when 20% of hosts are infected".
// PiecewiseSystem integrates each regime in order, restarting the
// stepper at every breakpoint so the discontinuity never degrades the
// error control.
#pragma once

#include <cstddef>
#include <vector>

#include "ode/solvers.hpp"
#include "ode/system.hpp"

namespace dq::ode {

/// One regime of a piecewise system: dynamics `f` apply until time
/// `until` (the last regime's `until` is ignored and runs to the
/// requested end time).
struct Regime {
  Derivative f;
  double until = 0.0;
};

/// A time-partitioned ODE system. Regimes must be ordered by `until`.
class PiecewiseSystem {
 public:
  explicit PiecewiseSystem(std::vector<Regime> regimes);

  /// Samples component `component` on the given ascending time grid,
  /// starting from y0 at times.front(). Breakpoints interior to the
  /// grid are honored exactly.
  std::vector<double> sample(const State& y0,
                             const std::vector<double>& times,
                             std::size_t component,
                             const Tolerance& tol = Tolerance{}) const;

  /// Full-state variant.
  std::vector<State> sample_states(const State& y0,
                                   const std::vector<double>& times,
                                   const Tolerance& tol = Tolerance{}) const;

 private:
  /// Advances y from t0 to t1, crossing regime boundaries as needed.
  void advance(State& y, double t0, double t1, const Tolerance& tol) const;

  std::vector<Regime> regimes_;
};

}  // namespace dq::ode
