#include "ode/piecewise.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dq::ode {
namespace {

// Growth then decay: y' = +y for t < 1, y' = -y after.
PiecewiseSystem make_switch() {
  Regime grow{[](double, const State& y, State& dydt) { dydt[0] = y[0]; },
              1.0};
  Regime decay{[](double, const State& y, State& dydt) { dydt[0] = -y[0]; },
               0.0};
  return PiecewiseSystem({grow, decay});
}

TEST(PiecewiseSystem, RejectsEmptyAndUnordered) {
  EXPECT_THROW(PiecewiseSystem({}), std::invalid_argument);
  Regime a{[](double, const State&, State& d) { d[0] = 0.0; }, 2.0};
  Regime b{[](double, const State&, State& d) { d[0] = 0.0; }, 1.0};
  Regime c{[](double, const State&, State& d) { d[0] = 0.0; }, 0.0};
  EXPECT_THROW(PiecewiseSystem({a, b, c}), std::invalid_argument);
}

TEST(PiecewiseSystem, MatchesClosedFormAcrossSwitch) {
  const PiecewiseSystem system = make_switch();
  const std::vector<double> times = {0.0, 0.5, 1.0, 1.5, 2.0};
  const std::vector<double> ys = system.sample({1.0}, times, 0);
  EXPECT_NEAR(ys[1], std::exp(0.5), 1e-7);
  EXPECT_NEAR(ys[2], std::exp(1.0), 1e-7);
  EXPECT_NEAR(ys[3], std::exp(1.0) * std::exp(-0.5), 1e-7);
  EXPECT_NEAR(ys[4], std::exp(1.0) * std::exp(-1.0), 1e-7);
}

TEST(PiecewiseSystem, GridStartingAfterSwitch) {
  const PiecewiseSystem system = make_switch();
  // Start the grid at t=1.5 with the matching state.
  const double y15 = std::exp(1.0) * std::exp(-0.5);
  const std::vector<double> ys = system.sample({y15}, {1.5, 2.0}, 0);
  EXPECT_NEAR(ys[1], std::exp(1.0) * std::exp(-1.0), 1e-7);
}

TEST(PiecewiseSystem, SingleRegimeBehavesLikePlainOde) {
  Regime only{[](double, const State& y, State& d) { d[0] = -y[0]; }, 0.0};
  const PiecewiseSystem system({only});
  const std::vector<double> ys = system.sample({1.0}, {0.0, 1.0}, 0);
  EXPECT_NEAR(ys[1], std::exp(-1.0), 1e-7);
}

TEST(PiecewiseSystem, GridValidation) {
  const PiecewiseSystem system = make_switch();
  EXPECT_THROW(system.sample({1.0}, {}, 0), std::invalid_argument);
  EXPECT_THROW(system.sample({1.0}, {1.0, 1.0}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace dq::ode
