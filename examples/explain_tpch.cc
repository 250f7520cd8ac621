/// \file explain_tpch.cc
/// EXPLAIN for the eight evaluated TPC-H queries: prints the authored
/// logical plan, the optimized plan (with the cardinality estimates the
/// join-order pass acts on), the plan split at the driver, the lowered
/// rank sub-operator DAG for each platform configuration, and the
/// driver's DAG around the executor. The same renderers back the golden
/// plan-shape snapshots under tests/golden/planner/.
///
///   $ ./example_explain_tpch        # all eight queries
///   $ ./example_explain_tpch 18     # one query
///
/// Plans are rendered from catalog statistics alone (scale-factor 0.01
/// row counts); no data is generated or executed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "planner/explain.h"
#include "planner/passes.h"
#include "tpch/queries.h"

using namespace modularis;  // NOLINT — example brevity

namespace {

/// The four lowering configurations of the paper's platforms: only the
/// scan leaves and the exchange implementation change per platform.
struct PlatformConfig {
  const char* title;
  planner::ScanLeafKind leaf;
  bool serverless;
  bool tcp;
};

constexpr PlatformConfig kConfigs[] = {
    {"mpi", planner::ScanLeafKind::kMemoryRows, false, false},
    {"tcp", planner::ScanLeafKind::kMemoryRows, false, true},
    {"s3", planner::ScanLeafKind::kColumnFile, true, false},
    {"s3select", planner::ScanLeafKind::kS3Select, true, false},
};

int ExplainQuery(int q, const planner::Catalog& catalog) {
  auto root = tpch::TpchLogicalPlan(q);
  if (!root.ok()) {
    std::fprintf(stderr, "Q%d: %s\n", q, root.status().ToString().c_str());
    return 1;
  }
  std::printf("==================== TPC-H Q%d ====================\n", q);
  std::printf("-- logical (as authored) --\n%s",
              planner::ExplainLogical(*root.value()).c_str());

  planner::PlannerOptions popts;
  popts.catalog = catalog;
  planner::LogicalPlanPtr opt =
      planner::Optimize(root.value(), popts, nullptr);
  std::printf("-- optimized (rows~ = cost-model estimate) --\n%s",
              planner::ExplainLogical(*opt, &catalog).c_str());

  auto split = planner::SplitAtDriver(opt);
  if (!split.ok()) {
    std::fprintf(stderr, "Q%d: %s\n", q, split.status().ToString().c_str());
    return 1;
  }
  std::printf("-- split at the driver (Gather: ranks below, driver above) --\n%s",
              planner::ExplainLogical(*split.value().root, &catalog).c_str());
  for (const PlatformConfig& cfg : kConfigs) {
    planner::LoweringContext lctx;
    lctx.scan_leaf = cfg.leaf;
    lctx.serverless = cfg.serverless;
    lctx.fused = true;
    lctx.world = 4;
    lctx.exec.network_radix_bits = 4;
    lctx.exec.tcp_exchange = cfg.tcp;
    lctx.tag = "explain";
    PipelinePlan plan;
    auto lowered =
        planner::LowerRankPlan(*split.value().rank_root, &plan, &lctx);
    if (!lowered.ok()) {
      std::fprintf(stderr, "Q%d [%s]: %s\n", q, cfg.title,
                   lowered.status().ToString().c_str());
      return 1;
    }
    std::printf("-- physical %s, world=4 (per-rank pipelines) --\n%s",
                cfg.title, planner::ExplainPhysical(plan).c_str());
  }
  // The driver's plan differs per platform only in the executor the
  // Gather wraps; the MPI one stands in (its rank plans are lowered when
  // it runs).
  planner::LoweringContext lctx;
  lctx.world = 4;
  lctx.gather = [](RankPlanFactory ranks, const Schema&) -> SubOpPtr {
    MpiExecutor::Config config;
    config.plan_factory = std::move(ranks);
    return std::make_unique<MpiExecutor>(std::move(config));
  };
  auto driver = planner::LowerPlan(*split.value().root, &lctx);
  if (!driver.ok()) {
    std::fprintf(stderr, "Q%d [driver]: %s\n", q,
                 driver.status().ToString().c_str());
    return 1;
  }
  std::printf("-- physical driver (the executor runs the rank plans) --\n%s",
              planner::ExplainPhysical(*driver.value()).c_str());
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Scale-factor 0.01 row counts; distinct counts and value ranges come
  // from the TPC-H spec (see TpchCatalog).
  planner::Catalog catalog = tpch::TpchCatalog({60000, 15000, 1500, 2000});

  if (argc > 1) {
    return ExplainQuery(std::atoi(argv[1]), catalog);
  }
  int rc = 0;
  for (int q : {1, 3, 4, 6, 12, 14, 18, 19}) {
    rc |= ExplainQuery(q, catalog);
  }
  return rc;
}
