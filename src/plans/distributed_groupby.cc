#include "plans/distributed_groupby.h"

#include "planner/logical_plan.h"

namespace modularis::plans {

namespace {

namespace lp = planner::lp;

/// The Fig. 5 template as IR: SUM(value) GROUP BY key over the exchanged
/// (compressed when asked) base relation, aggregated in place per
/// partition. planner::LowerRankPlan restores compressed keys before the
/// ReduceByKey.
planner::LogicalPlanPtr GroupByTemplate(const DistGroupByOptions& opts) {
  auto data = lp::Exchange(lp::Scan(0, "data", KeyValueSchema()), 0,
                           opts.compress);
  return lp::Aggregate(
      std::move(data), {0},
      {AggSpec{AggKind::kSum, ex::Col(1), "sum", AtomType::kInt64}});
}

}  // namespace

SubOpPtr BuildGroupByRankPlan(const DistGroupByOptions& opts) {
  return LowerRankTemplate(*GroupByTemplate(opts), opts.exec);
}

Result<RowVectorPtr> RunDistributedGroupBy(
    const std::vector<RowVectorPtr>& fragments,
    const DistGroupByOptions& opts, StatsRegistry* stats) {
  if (static_cast<int>(fragments.size()) != opts.world_size) {
    return Status::InvalidArgument(
        "RunDistributedGroupBy: need one fragment per rank");
  }
  MpiExecutor::Config config;
  config.world_size = opts.world_size;
  config.fabric = opts.fabric;
  config.plan_factory = [&opts](int) { return BuildGroupByRankPlan(opts); };
  config.rank_params = [&fragments](int rank) {
    return Tuple{Item(fragments[rank])};
  };
  MpiExecutor executor(std::move(config));

  ExecContext driver;
  driver.options = opts.exec;
  driver.stats = stats;
  return DrainCollections(&executor, &driver, GroupByOutSchema());
}

}  // namespace modularis::plans
