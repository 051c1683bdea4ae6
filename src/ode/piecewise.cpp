#include "ode/piecewise.hpp"

#include <algorithm>
#include <stdexcept>

namespace dq::ode {

PiecewiseSystem::PiecewiseSystem(std::vector<Regime> regimes)
    : regimes_(std::move(regimes)) {
  if (regimes_.empty())
    throw std::invalid_argument("PiecewiseSystem: need at least one regime");
  // The last regime's `until` is ignored (it runs to the requested end
  // time), so only interior boundaries must increase.
  for (std::size_t i = 0; i + 2 < regimes_.size(); ++i)
    if (regimes_[i + 1].until <= regimes_[i].until)
      throw std::invalid_argument(
          "PiecewiseSystem: regime boundaries must increase");
}

void PiecewiseSystem::advance(State& y, double t0, double t1,
                              const Tolerance& tol) const {
  double t = t0;
  for (std::size_t r = 0; r < regimes_.size() && t < t1; ++r) {
    const bool last = (r + 1 == regimes_.size());
    const double regime_end = last ? t1 : std::min(regimes_[r].until, t1);
    if (regime_end <= t) continue;  // regime entirely in the past
    integrate_adaptive(regimes_[r].f, y, t, regime_end, (regime_end - t) / 16.0,
                       tol, Observer{});
    t = regime_end;
  }
}

std::vector<double> PiecewiseSystem::sample(const State& y0,
                                            const std::vector<double>& times,
                                            std::size_t component,
                                            const Tolerance& tol) const {
  const std::vector<State> states = sample_states(y0, times, tol);
  std::vector<double> out;
  out.reserve(states.size());
  for (const State& s : states) out.push_back(s.at(component));
  return out;
}

std::vector<State> PiecewiseSystem::sample_states(
    const State& y0, const std::vector<double>& times,
    const Tolerance& tol) const {
  if (times.empty())
    throw std::invalid_argument("PiecewiseSystem: empty time grid");
  for (std::size_t i = 1; i < times.size(); ++i)
    if (times[i] <= times[i - 1])
      throw std::invalid_argument("PiecewiseSystem: times must increase");

  std::vector<State> out;
  out.reserve(times.size());
  State y = y0;
  out.push_back(y);
  for (std::size_t i = 1; i < times.size(); ++i) {
    advance(y, times[i - 1], times[i], tol);
    out.push_back(y);
  }
  return out;
}

}  // namespace dq::ode
