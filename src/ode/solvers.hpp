// Explicit ODE integration: DormandPrince45, an adaptive embedded 5(4)
// pair with PI step control, and two integration loops on top of it:
//  * integrate_adaptive() — adaptive march; the observer fires at every
//                           accepted step.
//  * sample()             — integrates and returns the solution sampled
//                           exactly on a caller-provided time grid
//                           (what the figure benches consume).
#pragma once

#include <cstddef>
#include <vector>

#include "ode/system.hpp"

namespace dq::ode {

/// Tolerances for the adaptive driver.
struct Tolerance {
  double abs = 1e-9;
  double rel = 1e-8;
};

/// Dormand–Prince 5(4) embedded pair with FSAL and a PI controller.
class DormandPrince45 {
 public:
  /// Attempts one step of size dt from (t, y). On acceptance, y and
  /// error estimate are updated and the function returns true; the
  /// suggested next step size is written to dt_next either way.
  bool try_step(const Derivative& f, double t, double dt, State& y,
                const Tolerance& tol, double& dt_next);

  /// Resets FSAL caching (call when f changes discontinuously, e.g. at
  /// the immunization switch time).
  void reset() noexcept { have_fsal_ = false; }

 private:
  State k_[7];
  State tmp_, y_err_, y_new_;
  bool have_fsal_ = false;
};

/// Adaptive integration from t0 to t1 with Dormand–Prince.
/// Observer fires at t0 and at each accepted step. Throws
/// std::runtime_error if the step size underflows.
void integrate_adaptive(const Derivative& f, State& y, double t0, double t1,
                        double dt_initial, const Tolerance& tol,
                        const Observer& observe);

/// Integrates adaptively and returns the state component `component`
/// sampled at exactly the given (ascending) times. y0 is the state at
/// times.front().
std::vector<double> sample(const Derivative& f, const State& y0,
                           const std::vector<double>& times,
                           std::size_t component,
                           const Tolerance& tol = Tolerance{});

/// Full-state variant of sample(): returns one State per grid time.
std::vector<State> sample_states(const Derivative& f, const State& y0,
                                 const std::vector<double>& times,
                                 const Tolerance& tol = Tolerance{});

}  // namespace dq::ode
