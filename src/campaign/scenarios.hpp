// Named experiment scenarios and their expansion into a campaign.
//
// A ScenarioDef declares a bundle of jobs plus the figures assembled
// from their outcomes — the declarative replacement for the ad-hoc
// run_many loops the bench binaries used to carry. Scenarios are
// expanded together into ONE flat job list: jobs identical across
// scenarios (same content hash) are deduplicated and executed once.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/experiments.hpp"

namespace dq::campaign {

/// One named job inside a scenario. `name` is scenario-local; the
/// global campaign job is named "<scenario>/<name>".
struct ScenarioJob {
  std::string name;
  JobConfig config;
};

/// A figure assembled from scenario jobs: either one analytical job
/// contributing the whole figure (`analytical_job` set), or a list of
/// simulation series, each taking a job's averaged ever-infected curve
/// under the given label.
struct ScenarioFigure {
  struct SeriesRef {
    std::string label;
    std::string job;  ///< scenario-local job name
  };
  std::string id;
  std::string title;
  std::string x_label;
  std::string y_label;
  std::string analytical_job;  ///< empty for simulation figures
  std::vector<SeriesRef> series;
};

struct ScenarioDef {
  std::string name;
  std::string description;
  std::vector<ScenarioJob> jobs;
  std::vector<ScenarioFigure> figures;
};

/// The built-in scenario catalogue: fig01–fig04 plus the beta and
/// backbone-depth ablation sweeps, parameterized by the usual
/// experiment knobs (runs, seed). Each figure id is declared by exactly
/// one scenario, so `dqctl figure ID` finds a figure by its id.
std::vector<ScenarioDef> builtin_scenarios(
    const core::ExperimentOptions& options);

/// Scenario by name from a catalogue; nullptr when absent.
const ScenarioDef* find_scenario(const std::vector<ScenarioDef>& catalogue,
                                 const std::string& name);

/// A scenario run: per-job outcomes (job-list order), the assembled
/// figures, and the machine-readable manifest.
struct CampaignReport {
  std::vector<JobOutcome> outcomes;
  std::vector<core::FigureData> figures;
  JsonValue manifest;
};

/// Expands the scenarios into one deduplicated job list, runs it, and
/// assembles each scenario's figures from the outcomes. Every job is
/// reported kQueued in list order. Each distinct graph that a
/// simulation job without a cached artifact runs on is then built
/// once (sim::build_topology, keyed by the spec's graph fields) and
/// shared by those jobs. Then up to `options.jobs` threads take jobs
/// in list order (execute_job). A failed job does not stop
/// the others. Figures whose jobs failed are omitted; the failure stays
/// visible in the outcomes and manifest. Throws std::invalid_argument
/// on a duplicate job name, before any job runs.
CampaignReport run_scenarios(const std::vector<ScenarioDef>& scenarios,
                             const RunOptions& options);

}  // namespace dq::campaign
