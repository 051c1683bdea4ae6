#include "ode/solvers.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dq::ode {
namespace {

// dy/dt = -y, y(0) = 1: y(t) = e^{-t}.
const Derivative kDecay = [](double, const State& y, State& dydt) {
  dydt[0] = -y[0];
};

// Logistic with rate 1 and N = 1: y' = y(1-y).
const Derivative kLogistic = [](double, const State& y, State& dydt) {
  dydt[0] = y[0] * (1.0 - y[0]);
};

double logistic_exact(double y0, double t) {
  const double c = 1.0 / y0 - 1.0;
  return 1.0 / (1.0 + c * std::exp(-t));
}

TEST(IntegrateAdaptive, MatchesExponential) {
  State y = {1.0};
  integrate_adaptive(kDecay, y, 0.0, 5.0, 0.1, Tolerance{}, Observer{});
  EXPECT_NEAR(y[0], std::exp(-5.0), 1e-7);
}

TEST(IntegrateAdaptive, MatchesLogistic) {
  State y = {0.01};
  integrate_adaptive(kLogistic, y, 0.0, 10.0, 0.1, Tolerance{}, Observer{});
  EXPECT_NEAR(y[0], logistic_exact(0.01, 10.0), 1e-7);
}

TEST(IntegrateAdaptive, ZeroSpanIsNoop) {
  State y = {3.0};
  int observed = 0;
  integrate_adaptive(kDecay, y, 2.0, 2.0, 0.1, Tolerance{},
                     [&](double, const State&) { ++observed; });
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_EQ(observed, 1);
}

TEST(IntegrateAdaptive, Errors) {
  State y = {1.0};
  EXPECT_THROW(
      integrate_adaptive(kDecay, y, 1.0, 0.0, 0.1, Tolerance{}, Observer{}),
      std::invalid_argument);
  EXPECT_THROW(
      integrate_adaptive(kDecay, y, 0.0, 1.0, 0.0, Tolerance{}, Observer{}),
      std::invalid_argument);
}

TEST(IntegrateAdaptive, TighterToleranceMoreAccurate) {
  auto solve = [](double rel) {
    State y = {0.001};
    Tolerance tol;
    tol.rel = rel;
    tol.abs = rel * 0.1;
    integrate_adaptive(kLogistic, y, 0.0, 12.0, 1.0, tol, Observer{});
    return std::abs(y[0] - logistic_exact(0.001, 12.0));
  };
  EXPECT_LE(solve(1e-10), solve(1e-4) + 1e-12);
}

TEST(Sample, ReturnsComponentOnGrid) {
  const std::vector<double> times = {0.0, 0.5, 1.0, 2.0};
  const std::vector<double> ys = sample(kDecay, {1.0}, times, 0);
  ASSERT_EQ(ys.size(), 4u);
  for (std::size_t i = 0; i < times.size(); ++i)
    EXPECT_NEAR(ys[i], std::exp(-times[i]), 1e-7);
}

TEST(Sample, MultiComponentSystem) {
  // Harmonic oscillator: x'' = -x as (x, v).
  const Derivative osc = [](double, const State& y, State& dydt) {
    dydt[0] = y[1];
    dydt[1] = -y[0];
  };
  const std::vector<double> times = {0.0, 3.14159265358979323846};
  const std::vector<State> states = sample_states(osc, {1.0, 0.0}, times);
  EXPECT_NEAR(states[1][0], -1.0, 1e-6);
  EXPECT_NEAR(states[1][1], 0.0, 1e-6);
}

TEST(SampleStates, GridValidation) {
  EXPECT_THROW(sample_states(kDecay, {1.0}, {}), std::invalid_argument);
  EXPECT_THROW(sample_states(kDecay, {1.0}, {0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(sample_states(kDecay, {1.0}, {1.0, 0.5}),
               std::invalid_argument);
}

TEST(DormandPrince, RejectsThenShrinksStep) {
  DormandPrince45 stepper;
  State y = {1.0};
  // Stiff-ish large first step with tight tolerance should be rejected.
  Tolerance tol;
  tol.abs = 1e-14;
  tol.rel = 1e-14;
  double next = 0.0;
  const Derivative fast = [](double, const State& y, State& dydt) {
    dydt[0] = -50.0 * y[0];
  };
  const bool accepted = stepper.try_step(fast, 0.0, 1.0, y, tol, next);
  EXPECT_FALSE(accepted);
  EXPECT_LT(next, 1.0);
  EXPECT_DOUBLE_EQ(y[0], 1.0);  // state untouched on rejection
}

}  // namespace
}  // namespace dq::ode
