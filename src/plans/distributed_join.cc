#include "plans/distributed_join.h"

#include "planner/logical_plan.h"

namespace modularis::plans {

namespace {

namespace lp = planner::lp;

/// The Fig. 3 template as IR: both base relations cross the network
/// exactly once (compressed when asked), and the Join consumes the two
/// partitioned inputs in place; inner joins prune the duplicate key
/// column. planner::LowerRankPlan turns the Exchange nodes into the
/// two-level radix exchange and recovers compressed keys after the
/// BuildProbe.
planner::LogicalPlanPtr JoinTemplate(const DistJoinOptions& opts) {
  auto inner = lp::Exchange(lp::Scan(0, "inner", KeyValueSchema()), 0,
                            opts.compress);
  auto outer = lp::Exchange(lp::Scan(1, "outer", KeyValueSchema()), 0,
                            opts.compress);
  auto join =
      lp::Join(std::move(inner), std::move(outer), opts.join_type, 0, 0);
  if (opts.join_type != JoinType::kInner) return join;
  return lp::Project(std::move(join),
                     {MapOutput::Pass(0), MapOutput::Pass(1),
                      MapOutput::Pass(3)},
                     JoinOutSchema());
}

}  // namespace

SubOpPtr BuildJoinRankPlan(const DistJoinOptions& opts) {
  return LowerRankTemplate(*JoinTemplate(opts), opts.exec);
}

Result<RowVectorPtr> RunDistributedJoin(
    const std::vector<RowVectorPtr>& inner,
    const std::vector<RowVectorPtr>& outer, const DistJoinOptions& opts,
    StatsRegistry* stats) {
  if (static_cast<int>(inner.size()) != opts.world_size ||
      static_cast<int>(outer.size()) != opts.world_size) {
    return Status::InvalidArgument(
        "RunDistributedJoin: need one input fragment per rank");
  }
  MpiExecutor::Config config;
  config.world_size = opts.world_size;
  config.fabric = opts.fabric;
  config.plan_factory = [&opts](int) { return BuildJoinRankPlan(opts); };
  config.rank_params = [&inner, &outer](int rank) {
    return Tuple{Item(inner[rank]), Item(outer[rank])};
  };
  MpiExecutor executor(std::move(config));

  ExecContext driver;
  driver.options = opts.exec;
  driver.stats = stats;
  Schema out_schema = opts.join_type == JoinType::kInner ? JoinOutSchema()
                                                         : KeyValueSchema();
  return DrainCollections(&executor, &driver, out_schema);
}

}  // namespace modularis::plans
