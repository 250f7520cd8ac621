#include "plans/join_sequence.h"

#include <string>

#include "planner/logical_plan.h"

namespace modularis::plans {

namespace {

namespace lp = planner::lp;

/// The Fig. 4 templates as IR. The naive/optimized distinction is purely
/// logical: the naive cascade re-exchanges every intermediate (an
/// Exchange node above each interior stage), the optimized one exchanges
/// each base relation exactly once, so every stage is consumed in place
/// and planner::LowerRankPlan zips all N+1 relations into one NestedMap.
/// Cascades keep full keys at every stage (no compression).
planner::LogicalPlanPtr SequenceTemplate(int num_joins, bool optimized) {
  auto scan = [](int i) {
    return lp::Exchange(
        lp::Scan(i, "r" + std::to_string(i), KeyValueSchema()), 0);
  };
  planner::LogicalPlanPtr prev = scan(0);
  for (int j = 1; j <= num_joins; ++j) {
    planner::LogicalPlanPtr probe = prev;
    if (!optimized && j >= 2) probe = lp::Exchange(std::move(probe), 0);
    auto join = lp::Join(scan(j), std::move(probe), JoinType::kInner, 0, 0);
    std::vector<MapOutput> prune;
    prune.push_back(MapOutput::Pass(0));  // key
    for (int i = 0; i < j; ++i) prune.push_back(MapOutput::Pass(3 + i));
    prune.push_back(MapOutput::Pass(1));  // vj
    prev = lp::Project(std::move(join), std::move(prune),
                       SequenceOutSchema(j));
  }
  return prev;
}

}  // namespace

Schema SequenceOutSchema(int num_joins) {
  std::vector<Field> fields;
  fields.push_back(Field::I64("key"));
  for (int i = 0; i <= num_joins; ++i) {
    fields.push_back(Field::I64("v" + std::to_string(i)));
  }
  return Schema(std::move(fields));
}

SubOpPtr BuildNaiveSequenceRankPlan(int num_joins,
                                    const JoinSequenceOptions& opts) {
  return LowerRankTemplate(*SequenceTemplate(num_joins, /*optimized=*/false),
                           opts.exec);
}

SubOpPtr BuildOptimizedSequenceRankPlan(int num_joins,
                                        const JoinSequenceOptions& opts) {
  return LowerRankTemplate(*SequenceTemplate(num_joins, /*optimized=*/true),
                           opts.exec);
}

Result<RowVectorPtr> RunJoinSequence(
    const std::vector<std::vector<RowVectorPtr>>& relations,
    const JoinSequenceOptions& opts, bool optimized, StatsRegistry* stats) {
  if (relations.size() < 2) {
    return Status::InvalidArgument("RunJoinSequence: need >= 2 relations");
  }
  const int num_joins = static_cast<int>(relations.size()) - 1;
  for (const auto& frags : relations) {
    if (static_cast<int>(frags.size()) != opts.world_size) {
      return Status::InvalidArgument(
          "RunJoinSequence: need one fragment per rank per relation");
    }
  }
  MpiExecutor::Config config;
  config.world_size = opts.world_size;
  config.fabric = opts.fabric;
  config.plan_factory = [&opts, num_joins, optimized](int) {
    return optimized ? BuildOptimizedSequenceRankPlan(num_joins, opts)
                     : BuildNaiveSequenceRankPlan(num_joins, opts);
  };
  config.rank_params = [&relations](int rank) {
    Tuple t;
    for (const auto& frags : relations) t.push_back(Item(frags[rank]));
    return t;
  };
  MpiExecutor executor(std::move(config));

  ExecContext driver;
  driver.options = opts.exec;
  driver.stats = stats;
  return DrainCollections(&executor, &driver, SequenceOutSchema(num_joins));
}

}  // namespace modularis::plans
