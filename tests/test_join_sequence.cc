#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "planner/lower.h"
#include "plans/join_sequence.h"

namespace modularis::plans {
namespace {

/// Relation i: keys 0..n-1 shuffled, v_i(key) = key * (i + 2).
std::vector<std::vector<RowVectorPtr>> MakeRelations(int count, int world,
                                                     int64_t n) {
  std::vector<std::vector<RowVectorPtr>> relations(count);
  for (int rel = 0; rel < count; ++rel) {
    std::vector<int64_t> keys(n);
    for (int64_t i = 0; i < n; ++i) keys[i] = i;
    std::mt19937 rng(100 + rel);
    std::shuffle(keys.begin(), keys.end(), rng);
    for (int r = 0; r < world; ++r) {
      relations[rel].push_back(RowVector::Make(KeyValueSchema()));
    }
    for (int64_t i = 0; i < n; ++i) {
      RowWriter w = relations[rel][i % world]->AppendRow();
      w.SetInt64(0, keys[i]);
      w.SetInt64(1, keys[i] * (rel + 2));
    }
  }
  return relations;
}

void CheckCascadeResult(const RowVectorPtr& rows, int num_joins, int64_t n) {
  ASSERT_EQ(rows->size(), static_cast<size_t>(n));
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < rows->size(); ++i) {
    RowRef row = rows->row(i);
    int64_t key = row.GetInt64(0);
    ASSERT_GE(key, 0);
    ASSERT_LT(key, n);
    ASSERT_FALSE(seen[key]) << "duplicate key " << key;
    seen[key] = true;
    for (int j = 0; j <= num_joins; ++j) {
      EXPECT_EQ(row.GetInt64(1 + j), key * (j + 2))
          << "key " << key << " payload v" << j;
    }
  }
}

struct SeqCase {
  int world;
  int num_joins;
  bool optimized;
};

class JoinSequenceTest : public ::testing::TestWithParam<SeqCase> {};

TEST_P(JoinSequenceTest, CascadeProducesAllChainedPayloads) {
  const SeqCase& p = GetParam();
  const int64_t n = 6000;

  JoinSequenceOptions opts;
  opts.world_size = p.world;
  opts.exec.network_radix_bits = 4;
  opts.exec.local_radix_bits = 3;
  opts.fabric.throttle = false;

  auto relations = MakeRelations(p.num_joins + 1, p.world, n);
  StatsRegistry stats;
  auto result = RunJoinSequence(relations, opts, p.optimized, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  CheckCascadeResult(result.value(), p.num_joins, n);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, JoinSequenceTest,
    ::testing::Values(SeqCase{2, 2, false}, SeqCase{2, 2, true},
                      SeqCase{4, 3, false}, SeqCase{4, 3, true},
                      SeqCase{2, 5, true}, SeqCase{3, 4, false}),
    [](const ::testing::TestParamInfo<SeqCase>& info) {
      return "w" + std::to_string(info.param.world) + "_j" +
             std::to_string(info.param.num_joins) +
             (info.param.optimized ? "_opt" : "_naive");
    });

TEST(JoinSequenceTest, NaiveAndOptimizedAgree) {
  JoinSequenceOptions opts;
  opts.world_size = 2;
  opts.exec.network_radix_bits = 4;
  opts.fabric.throttle = false;
  auto relations = MakeRelations(4, 2, 3000);

  StatsRegistry s1, s2;
  auto naive = RunJoinSequence(relations, opts, false, &s1);
  auto optimized = RunJoinSequence(relations, opts, true, &s2);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  ASSERT_EQ(naive.value()->size(), optimized.value()->size());

  // The optimized variant must move strictly fewer bytes: N+1 vs 2N
  // relation shuffles (paper §4.2).
  EXPECT_LT(s2.GetCounter("net.bytes_sent"),
            s1.GetCounter("net.bytes_sent"));
}

namespace lp = planner::lp;

/// Stage j of a cascade over relation j: ⟨key, v0..vj⟩.
planner::LogicalPlanPtr Stage(int j, planner::LogicalPlanPtr probe) {
  auto build = lp::Exchange(
      lp::Scan(j, "r" + std::to_string(j), KeyValueSchema()), 0);
  auto join = lp::Join(std::move(build), std::move(probe), JoinType::kInner,
                       0, 0);
  std::vector<MapOutput> prune{MapOutput::Pass(0)};
  for (int i = 0; i < j; ++i) prune.push_back(MapOutput::Pass(3 + i));
  prune.push_back(MapOutput::Pass(1));
  return lp::Project(std::move(join), std::move(prune), SequenceOutSchema(j));
}

std::vector<std::vector<int64_t>> SortedRows(const RowVector& rows) {
  std::vector<std::vector<int64_t>> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    std::vector<int64_t> row;
    for (size_t c = 0; c < rows.schema().num_fields(); ++c) {
      row.push_back(rows.row(i).GetInt64(static_cast<int>(c)));
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A cascade neither template authors: stage 2 re-exchanges stage 1 (naive)
// and stage 3 consumes stage 2 in place (optimized). One lowering covers
// the mix; it moves fewer bytes than the naive cascade.
TEST(JoinSequenceTest, MixedCascadeLowersThroughLowerRankPlan) {
  const int world = 2;
  JoinSequenceOptions opts;
  opts.world_size = world;
  opts.exec.network_radix_bits = 4;
  opts.exec.local_radix_bits = 3;
  opts.fabric.throttle = false;
  auto relations = MakeRelations(4, world, 3000);

  auto scan0 = lp::Exchange(lp::Scan(0, "r0", KeyValueSchema()), 0);
  auto stage2 = Stage(2, lp::Exchange(Stage(1, scan0), 0));
  planner::LogicalPlanPtr mixed = Stage(3, stage2);

  MpiExecutor::Config config;
  config.world_size = world;
  config.fabric = opts.fabric;
  config.plan_factory = [&](int) -> SubOpPtr {
    planner::LoweringContext lctx;
    lctx.exec = opts.exec;
    auto plan = std::make_unique<PipelinePlan>();
    auto lowered = planner::LowerRankPlan(*mixed, plan.get(), &lctx);
    EXPECT_TRUE(lowered.ok()) << lowered.status().ToString();
    if (!lowered.ok()) return nullptr;
    plan->SetOutput(plan->MakeRef(lowered.value().pipeline));
    return plan;
  };
  config.rank_params = [&relations](int rank) {
    Tuple t;
    for (const auto& frags : relations) t.push_back(Item(frags[rank]));
    return t;
  };
  MpiExecutor executor(std::move(config));
  StatsRegistry mixed_stats, naive_stats, optimized_stats;
  ExecContext driver;
  driver.options = opts.exec;
  driver.stats = &mixed_stats;
  auto got = DrainCollections(&executor, &driver, SequenceOutSchema(3));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto naive = RunJoinSequence(relations, opts, false, &naive_stats);
  auto optimized = RunJoinSequence(relations, opts, true, &optimized_stats);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();

  CheckCascadeResult(got.value(), 3, 3000);
  EXPECT_EQ(SortedRows(*got.value()), SortedRows(*naive.value()));
  EXPECT_EQ(SortedRows(*got.value()), SortedRows(*optimized.value()));
  EXPECT_LT(mixed_stats.GetCounter("net.bytes_sent"),
            naive_stats.GetCounter("net.bytes_sent"));
  EXPECT_GT(mixed_stats.GetCounter("net.bytes_sent"),
            optimized_stats.GetCounter("net.bytes_sent"));
}

}  // namespace
}  // namespace modularis::plans
