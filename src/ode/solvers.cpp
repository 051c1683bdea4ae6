#include "ode/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dq::ode {

namespace {

// Dormand–Prince RK5(4)7M coefficients.
constexpr double kC[7] = {0.0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1.0, 1.0};
constexpr double kA[7][6] = {
    {},
    {1.0 / 5},
    {3.0 / 40, 9.0 / 40},
    {44.0 / 45, -56.0 / 15, 32.0 / 9},
    {19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
    {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
    {35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
};
// 5th-order solution weights (same as the last row of kA).
constexpr double kB5[7] = {35.0 / 384,      0.0,          500.0 / 1113,
                           125.0 / 192,     -2187.0 / 6784, 11.0 / 84, 0.0};
// 4th-order embedded weights.
constexpr double kB4[7] = {5179.0 / 57600,  0.0,           7571.0 / 16695,
                           393.0 / 640,     -92097.0 / 339200,
                           187.0 / 2100,    1.0 / 40};

}  // namespace

bool DormandPrince45::try_step(const Derivative& f, double t, double dt,
                               State& y, const Tolerance& tol,
                               double& dt_next) {
  const std::size_t n = y.size();
  for (auto& k : k_) k.resize(n);
  tmp_.resize(n);
  y_err_.resize(n);
  y_new_.resize(n);

  if (!have_fsal_) {
    f(t, y, k_[0]);
  }
  // (FSAL: k_[0] already holds f at (t, y) from the previous accepted
  // step's stage 7, which shares the same node.)

  for (int s = 1; s < 7; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (int j = 0; j < s; ++j) acc += kA[s][j] * k_[j][i];
      tmp_[i] = y[i] + dt * acc;
    }
    f(t + kC[s] * dt, tmp_, k_[s]);
  }

  double err_norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double y5 = 0.0, y4 = 0.0;
    for (int s = 0; s < 7; ++s) {
      y5 += kB5[s] * k_[s][i];
      y4 += kB4[s] * k_[s][i];
    }
    y_new_[i] = y[i] + dt * y5;
    const double err = dt * (y5 - y4);
    const double scale =
        tol.abs + tol.rel * std::max(std::abs(y[i]), std::abs(y_new_[i]));
    const double r = err / scale;
    err_norm += r * r;
  }
  err_norm = std::sqrt(err_norm / static_cast<double>(n));

  constexpr double kSafety = 0.9;
  constexpr double kMinScale = 0.2;
  constexpr double kMaxScale = 5.0;
  double scale = kMaxScale;
  if (err_norm > 0.0)
    scale = kSafety * std::pow(err_norm, -0.2);
  scale = std::clamp(scale, kMinScale, kMaxScale);
  dt_next = dt * scale;

  if (err_norm <= 1.0) {
    y = y_new_;
    k_[0] = k_[6];  // FSAL: stage 7 is f at the new point
    have_fsal_ = true;
    return true;
  }
  return false;
}

void integrate_adaptive(const Derivative& f, State& y, double t0, double t1,
                        double dt_initial, const Tolerance& tol,
                        const Observer& observe) {
  if (t1 < t0)
    throw std::invalid_argument("integrate_adaptive: t1 must be >= t0");
  if (dt_initial <= 0.0)
    throw std::invalid_argument("integrate_adaptive: dt_initial must be > 0");

  DormandPrince45 stepper;
  double t = t0;
  double dt = std::min(dt_initial, t1 - t0);
  if (observe) observe(t, y);
  if (t0 == t1) return;

  const double dt_min = (t1 - t0) * 1e-14;
  while (t < t1) {
    const bool final_step = t + dt >= t1;
    const double h = final_step ? (t1 - t) : dt;
    double dt_suggest = 0.0;
    if (stepper.try_step(f, t, h, y, tol, dt_suggest)) {
      t += h;
      if (observe) observe(t, y);
      if (!final_step) dt = dt_suggest;
      else dt = std::max(dt, dt_suggest);
    } else {
      dt = dt_suggest;
      stepper.reset();
      if (dt < dt_min)
        throw std::runtime_error(
            "integrate_adaptive: step size underflow (stiff or "
            "discontinuous system?)");
    }
  }
}

std::vector<double> sample(const Derivative& f, const State& y0,
                           const std::vector<double>& times,
                           std::size_t component, const Tolerance& tol) {
  const std::vector<State> states = sample_states(f, y0, times, tol);
  std::vector<double> out;
  out.reserve(states.size());
  for (const State& s : states) out.push_back(s.at(component));
  return out;
}

std::vector<State> sample_states(const Derivative& f, const State& y0,
                                 const std::vector<double>& times,
                                 const Tolerance& tol) {
  if (times.empty())
    throw std::invalid_argument("sample_states: empty time grid");
  for (std::size_t i = 1; i < times.size(); ++i)
    if (times[i] <= times[i - 1])
      throw std::invalid_argument("sample_states: times must increase");

  std::vector<State> out;
  out.reserve(times.size());
  State y = y0;
  out.push_back(y);
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double span = times[i] - times[i - 1];
    integrate_adaptive(f, y, times[i - 1], times[i], span / 16.0, tol,
                       Observer{});
    out.push_back(y);
  }
  return out;
}

}  // namespace dq::ode
