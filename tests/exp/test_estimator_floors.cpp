// Estimator floors: how many replicas the variance-reduction stack saves
// when the Figure 1 question — Least-Waste against Oblivious — is asked at
// a fixed 95% CI on the fig1 160 GB/s spot row.
//
// Every campaign follows a doubling schedule from 16 replicas and the seeds
// are fixed, so each number below is a deterministic statistic of the
// simulation, not a timing: the floors hold with no slack on any machine.
// Reports are bit-identical for any thread count, so the campaigns run on
// every hardware thread (the runners' and the pool's default).
//
//  - Replica economy (failure-isolated EAP row): the plain sample mean
//    against antithetic pairs + the control variate, each grown until the
//    Least-Waste waste-ratio CI is at most 0.0007.
//  - Contrast economy (EAP row and the full APEX mix): the paired contrast
//    E[waste(Least-Waste) - waste(Oblivious-Daly)] under common random
//    numbers against the classical unpaired two-sample comparison, each
//    grown until the difference's CI is at most 0.004. On the mix row the
//    workload-schedule variance that defeats per-strategy estimators is
//    common to both strategies of a replica, so the pairing cancels it.
//
// EXPERIMENTS.md ("Replica economy") reads these numbers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

constexpr int kStart = 16;

/// The fig1 platform at 2 y node MTBF with the dominant APEX class (EAP,
/// 66% of the mix) as the whole workload and duration jitter off: every bit
/// of waste variance is failure-driven.
ScenarioBuilder eap_row() {
  WorkloadOptions workload;
  workload.jitter = DurationJitter::kNone;
  ApplicationClass eap = apex_eap();
  eap.workload_share = 1.0;
  return ScenarioBuilder()
      .platform(PlatformSpec::cielo())
      .applications({eap})
      .workload(workload)
      .node_mtbf(units::years(2));
}

/// The paper's full APEX mix at 2 y node MTBF.
ScenarioBuilder apex_mix_row() {
  return ScenarioBuilder::cielo_apex().node_mtbf(units::years(2));
}

struct EconomyRun {
  int replicas = 0;        ///< replicas consumed at convergence
  double vr_factor = 1.0;  ///< estimator variance reduction factor
};

/// Sequential stopping on Least-Waste's waste-ratio CI, with the full
/// estimator stack (`vr`) or the plain sample mean.
EconomyRun run_economy(const ScenarioBuilder& row, bool vr) {
  MonteCarloOptions options;
  options.replicas = kStart;
  options.target_ci_width = 0.0007;
  options.max_replicas = 4096;
  options.antithetic = vr;
  options.control_variate = vr;
  exp::ExperimentSpec spec(row, "replica_economy");
  spec.pfs_bandwidth_axis({160}).strategies({least_waste()}).options(options);

  exp::SweepRunner runner;
  const MonteCarloReport report = runner.run(spec).points[0].report;
  return {report.replicas, report.outcomes[0].vr.estimate.vr_factor};
}

struct ContrastEconomy {
  int contrast_replicas = 0;  ///< replicas the paired contrast consumed
  double vr_factor = 1.0;     ///< contrast variance vs unpaired, measured
  int unpaired_replicas = 0;  ///< replicas the unpaired comparison needed
  double reduction = 1.0;     ///< unpaired_replicas / contrast_replicas
};

ContrastEconomy run_contrast_economy(const ScenarioBuilder& row,
                                     const char* name) {
  constexpr double kTargetCi = 0.004;
  constexpr double kZ95 = 1.959963984540054;
  constexpr int kCap = 8192;

  const auto make_spec = [&](const MonteCarloOptions& options) {
    exp::ExperimentSpec spec(row, name);
    spec.pfs_bandwidth_axis({160})
        .strategies({oblivious_daly(), least_waste()})
        .options(options);
    return spec;
  };
  ContrastEconomy economy;

  // Paired leg: sequential stopping on the contrast CI against the first
  // strategy (whose own contrast CI is zero, so the target binds on the
  // Least-Waste difference alone).
  {
    MonteCarloOptions options;
    options.replicas = kStart;
    options.target_ci_width = kTargetCi;
    options.max_replicas = kCap;
    options.contrast_reference = oblivious_daly().name();
    exp::SweepRunner runner;
    const MonteCarloReport report =
        runner.run(make_spec(options)).points[0].report;
    economy.contrast_replicas = report.replicas;
    economy.vr_factor = report.outcomes[1].contrast.estimate.vr_factor;
  }

  // Unpaired leg: the same doubling schedule, each strategy estimated on
  // its own and the difference's CI taken as the two-sample width
  // 2·z·sqrt(se_A² + se_B²). Replica r depends only on (seed, r), so the
  // campaign grows through the rounds and only the new tail runs.
  {
    MonteCarloOptions options;
    options.replicas = kStart;
    const exp::ExperimentSpec spec = make_spec(options);
    MonteCarloCampaign campaign(spec.expand()[0].scenario, spec.strategy_set(),
                                spec.campaign_options());
    std::vector<std::exception_ptr> errors;
    ThreadPool pool;
    for (int done = 0;;) {
      submit_campaign_task_range(pool, campaign, errors, done,
                                 campaign.tasks());
      pool.wait_idle();
      rethrow_first_error(errors);
      done = campaign.tasks();

      const int n = campaign.replicas();
      const double inv_n = 1.0 / static_cast<double>(n);
      double variance = 0.0;
      for (const StrategyOutcome& outcome : campaign.snapshot().outcomes) {
        const double sd = outcome.waste_ratio.stddev();
        variance += sd * sd * inv_n;
      }
      economy.unpaired_replicas = n;
      if (2.0 * kZ95 * std::sqrt(variance) <= kTargetCi || n >= kCap) break;
      campaign.extend(2 * n);
    }
  }

  economy.reduction = static_cast<double>(economy.unpaired_replicas) /
                      static_cast<double>(economy.contrast_replicas);
  return economy;
}

TEST(EstimatorFloors, ReplicaEconomyOnTheFailureIsolatedRow) {
  const EconomyRun plain = run_economy(eap_row(), /*vr=*/false);
  const EconomyRun reduced = run_economy(eap_row(), /*vr=*/true);
  const double reduction = static_cast<double>(plain.replicas) /
                           static_cast<double>(reduced.replicas);
  std::printf(
      "replica_economy: plain %d, vr %d replicas; vr_factor %.3f, "
      "reduction %.3f\n",
      plain.replicas, reduced.replicas, reduced.vr_factor, reduction);
  EXPECT_GE(reduced.vr_factor, 2.0);
  EXPECT_GE(reduction, 2.0);
}

TEST(EstimatorFloors, ContrastEconomyOnTheFailureIsolatedRow) {
  const ContrastEconomy economy =
      run_contrast_economy(eap_row(), "contrast_economy");
  std::printf(
      "contrast_economy: paired %d, unpaired %d replicas; vr_factor %.3f, "
      "reduction %.3f\n",
      economy.contrast_replicas, economy.unpaired_replicas, economy.vr_factor,
      economy.reduction);
  EXPECT_GE(economy.vr_factor, 1.5);
}

TEST(EstimatorFloors, ContrastEconomyOnTheApexMix) {
  const ContrastEconomy economy =
      run_contrast_economy(apex_mix_row(), "contrast_economy_mix");
  std::printf(
      "contrast_economy.apex_mix: paired %d, unpaired %d replicas; "
      "vr_factor %.3f, reduction %.3f\n",
      economy.contrast_replicas, economy.unpaired_replicas, economy.vr_factor,
      economy.reduction);
  EXPECT_GE(economy.vr_factor, 2.0);
  EXPECT_GE(economy.reduction, 3.0);
}

}  // namespace
}  // namespace coopcr
