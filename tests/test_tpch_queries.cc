#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "planner/passes.h"
#include "tpch/queries.h"

namespace modularis::tpch {
namespace {

/// Shared generated database for the whole test binary.
const TpchTables& Db() {
  static TpchTables db = [] {
    GeneratorOptions gen;
    gen.scale_factor = 0.01;  // ~60k lineitem rows
    gen.seed = 7;
    return GenerateTpch(gen);
  }();
  return db;
}

void ExpectRowsEqual(const RowVector& expected, const RowVector& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_TRUE(expected.schema().Equals(actual.schema()))
      << expected.schema().ToString() << " vs " << actual.schema().ToString();
  for (size_t i = 0; i < expected.size(); ++i) {
    RowRef e = expected.row(i);
    RowRef a = actual.row(i);
    for (size_t c = 0; c < expected.schema().num_fields(); ++c) {
      int col = static_cast<int>(c);
      switch (expected.schema().field(c).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          ASSERT_EQ(e.GetInt32(col), a.GetInt32(col))
              << "row " << i << " col " << c;
          break;
        case AtomType::kInt64:
          ASSERT_EQ(e.GetInt64(col), a.GetInt64(col))
              << "row " << i << " col " << c;
          break;
        case AtomType::kFloat64: {
          double x = e.GetFloat64(col), y = a.GetFloat64(col);
          double tol = 1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
          ASSERT_NEAR(x, y, tol) << "row " << i << " col " << c;
          break;
        }
        case AtomType::kString:
          ASSERT_EQ(e.GetString(col), a.GetString(col))
              << "row " << i << " col " << c;
          break;
      }
    }
  }
}

TpchRunOptions Unthrottled(TpchRunOptions opts) {
  opts.fabric.throttle = false;
  opts.lambda.throttle = false;
  opts.lambda.s3.throttle = false;
  opts.storage.throttle = false;
  opts.s3select.throttle = false;
  return opts;
}

struct TpchCase {
  int query;
  Platform platform;
};

class TpchQueryTest : public ::testing::TestWithParam<TpchCase> {};

TEST_P(TpchQueryTest, MatchesReference) {
  const TpchCase& p = GetParam();
  TpchRunOptions opts;
  switch (p.platform) {
    case Platform::kRdma:
      opts = TpchRunOptions::Rdma(4);
      break;
    case Platform::kRdmaDisc:
      opts = TpchRunOptions::Rdma(4, /*with_disc=*/true);
      break;
    case Platform::kLambda:
      opts = TpchRunOptions::Lambda(4);
      break;
    case Platform::kS3Select:
      opts = TpchRunOptions::S3Select(4);
      break;
  }
  opts = Unthrottled(opts);
  opts.exec.network_radix_bits = 4;

  auto ctx = PrepareTpch(Db(), opts);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();

  StatsRegistry stats;
  auto result = RunTpchQuery(p.query, **ctx, opts, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto expected = RunReferenceQuery(p.query, Db());
  ASSERT_TRUE(expected.ok());
  ExpectRowsEqual(**expected, **result);
}

std::vector<TpchCase> AllCases() {
  std::vector<TpchCase> cases;
  for (int q : {1, 3, 4, 6, 12, 14, 18, 19}) {
    for (Platform p : {Platform::kRdma, Platform::kRdmaDisc,
                       Platform::kLambda, Platform::kS3Select}) {
      cases.push_back({q, p});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllQueriesAllPlatforms, TpchQueryTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<TpchCase>& info) {
      std::string name = "Q" + std::to_string(info.param.query) + "_";
      name += PlatformName(info.param.platform);
      for (char& ch : name) {
        if (ch == '+') ch = '_';
      }
      return name;
    });

TEST(TpchQueryTest, TcpExchangeBackendMatchesReference) {
  // The §4.4 extension: swap the exchange operator for the two-sided TCP
  // one; everything else in the plans is untouched.
  TpchRunOptions opts = Unthrottled(TpchRunOptions::Rdma(4));
  opts.exec.tcp_exchange = true;
  auto ctx = PrepareTpch(Db(), opts);
  ASSERT_TRUE(ctx.ok());
  for (int q : {3, 12, 18}) {
    StatsRegistry stats;
    auto result = RunTpchQuery(q, **ctx, opts, &stats);
    ASSERT_TRUE(result.ok()) << "Q" << q << ": "
                             << result.status().ToString();
    auto expected = RunReferenceQuery(q, Db());
    ASSERT_TRUE(expected.ok());
    ExpectRowsEqual(**expected, **result);
  }
}

TEST(TpchQueryTest, BroadcastJoinsMatchReference) {
  TpchRunOptions opts = Unthrottled(TpchRunOptions::Rdma(4));
  opts.exec.broadcast_small_build = true;
  auto ctx = PrepareTpch(Db(), opts);
  ASSERT_TRUE(ctx.ok());
  for (int q : {3, 14, 19}) {
    StatsRegistry stats;
    auto result = RunTpchQuery(q, **ctx, opts, &stats);
    ASSERT_TRUE(result.ok()) << "Q" << q << ": "
                             << result.status().ToString();
    auto expected = RunReferenceQuery(q, Db());
    ASSERT_TRUE(expected.ok());
    ExpectRowsEqual(**expected, **result);
  }
}

TEST(TpchQueryTest, InterpretedModeAgreesWithFused) {
  TpchRunOptions opts = Unthrottled(TpchRunOptions::Rdma(2));
  opts.exec.network_radix_bits = 4;
  opts.exec.enable_fusion = false;  // pure tuple-at-a-time Volcano
  auto ctx = PrepareTpch(Db(), opts);
  ASSERT_TRUE(ctx.ok());
  StatsRegistry stats;
  auto result = RunTpchQuery(12, **ctx, opts, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expected = RunReferenceQuery(12, Db());
  ASSERT_TRUE(expected.ok());
  ExpectRowsEqual(**expected, **result);
}

TEST(TpchQueryTest, BytecodeTierAgreesWithInterpretedOnAllQueries) {
  // The vectorized path evaluates every expression as compiled bytecode;
  // the row-at-a-time path runs the Expr interpreter. Every query result
  // must be byte-identical between the two at 1 and 4 intra-rank
  // threads, and no TPC-H predicate or map expression may need a
  // per-lane fallback. The interpreted side is pinned to one thread so
  // it stays the serial reference. SF 0.01 leaves ~30k rows per rank,
  // below the default split threshold, so the 4-thread leg lowers it to
  // actually run the partitioned operators.
  for (int threads : {1, 4}) {
    TpchRunOptions base = Unthrottled(TpchRunOptions::Rdma(2));
    base.exec.network_radix_bits = 4;
    base.exec.num_threads = threads;
    if (threads > 1) base.exec.parallel_min_rows = 256;

    TpchRunOptions interp = base;
    interp.exec.enable_vectorized = false;
    interp.exec.num_threads = 1;
    TpchRunOptions bc = base;
    bc.exec.enable_vectorized = true;

    auto interp_ctx = PrepareTpch(Db(), interp);
    ASSERT_TRUE(interp_ctx.ok()) << interp_ctx.status().ToString();
    auto bc_ctx = PrepareTpch(Db(), bc);
    ASSERT_TRUE(bc_ctx.ok()) << bc_ctx.status().ToString();

    for (int q : {1, 3, 4, 6, 12, 14, 18, 19}) {
      StatsRegistry interp_stats;
      auto expected = RunTpchQuery(q, **interp_ctx, interp, &interp_stats);
      ASSERT_TRUE(expected.ok())
          << "Q" << q << " interp: " << expected.status().ToString();

      StatsRegistry bc_stats;
      auto result = RunTpchQuery(q, **bc_ctx, bc, &bc_stats);
      ASSERT_TRUE(result.ok())
          << "Q" << q << " bytecode: " << result.status().ToString();

      const RowVector& want = **expected;
      const RowVector& got = **result;
      ASSERT_TRUE(want.schema().Equals(got.schema())) << "Q" << q;
      ASSERT_EQ(want.size(), got.size()) << "Q" << q;
      ASSERT_EQ(want.byte_size(), got.byte_size()) << "Q" << q;
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.byte_size()))
          << "Q" << q << " threads=" << threads;
      EXPECT_EQ(bc_stats.GetCounter("expr.bc_fallback.filter"), 0)
          << "Q" << q << " threads=" << threads;
      EXPECT_EQ(bc_stats.GetCounter("expr.bc_fallback.value"), 0)
          << "Q" << q << " threads=" << threads;
      if (q == 1 && threads > 1) {
        // Q1's 4 groups take the few-group kernel, whose fixed chunks are
        // the unit the workers split: more chunks than the 2 ranks means
        // some rank cut its aggregation into several.
        EXPECT_GT(bc_stats.GetCounter("parallel.reduce.chunks"), 2)
            << "Q1's group-by never split into chunks";
        EXPECT_EQ(bc_stats.GetCounter("parallel.reduce.partitions"), 0)
            << "Q1's group-by left the few-group kernel";
      }
    }
  }
}

TEST(TpchQueryTest, TinyScaleOnManyRanksMatchesReference) {
  // At SF 0.001 on 8 ranks most partitions and some whole ranks receive
  // no rows: an exchange must still agree with its peers on the row
  // stride, and a keyless aggregate over empty partials still yields its
  // one SQL row. On Lambda, empty workers partition empty inputs and the
  // interior aggregates drain row groups read back from S3.
  GeneratorOptions gen;
  gen.scale_factor = 0.001;
  gen.seed = 7;
  const TpchTables tiny = GenerateTpch(gen);
  TpchRunOptions mpi = Unthrottled(TpchRunOptions::Rdma(8));
  TpchRunOptions tcp = mpi;
  tcp.exec.tcp_exchange = true;
  const std::vector<std::pair<std::string, TpchRunOptions>> platforms = {
      {"mpi", mpi}, {"tcp", tcp},
      {"lambda", Unthrottled(TpchRunOptions::Lambda(8))}};
  for (const auto& [platform, base] : platforms) {
    for (bool fused : {true, false}) {
      TpchRunOptions opts = base;
      opts.exec.enable_fusion = fused;
      auto ctx = PrepareTpch(tiny, opts);
      ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
      for (int q : {1, 3, 4, 6, 12, 14, 18, 19}) {
        SCOPED_TRACE("Q" + std::to_string(q) + " " + platform +
                     (fused ? " fused" : " unfused"));
        StatsRegistry stats;
        auto result = RunTpchQuery(q, **ctx, opts, &stats);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        auto expected = RunReferenceQuery(q, tiny);
        ASSERT_TRUE(expected.ok());
        ExpectRowsEqual(**expected, **result);
      }
    }
  }
}

TEST(TpchQueryTest, S3TransientFailuresAreRetried) {
  TpchRunOptions opts = Unthrottled(TpchRunOptions::Lambda(4));
  opts.exec.network_radix_bits = 4;
  opts.storage.fault.transient_failure_rate = 0.05;
  opts.lambda.s3.fault.transient_failure_rate = 0.05;
  opts.exec.retry.max_retries = 12;
  opts.exec.retry.sleep = false;
  auto ctx = PrepareTpch(Db(), opts);
  ASSERT_TRUE(ctx.ok());
  StatsRegistry stats;
  auto result = RunTpchQuery(6, **ctx, opts, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expected = RunReferenceQuery(6, Db());
  ASSERT_TRUE(expected.ok());
  ExpectRowsEqual(**expected, **result);
}

const TpchTables& TinyDb() {
  static TpchTables db = [] {
    GeneratorOptions gen;
    gen.scale_factor = 0.002;
    gen.seed = 7;
    return GenerateTpch(gen);
  }();
  return db;
}

/// A keyless aggregate over a filter that keeps no row: every rank's
/// partial is empty, and the driver's merge (Reduce) still yields SQL's
/// one row, authored or optimized.
TEST(TpchPlanTest, KeylessAggregateOverNoRowsYieldsOneRowOfZeros) {
  namespace lp = planner::lp;
  // l_quantity is 1..50.
  planner::LogicalPlanPtr plan = lp::Aggregate(
      lp::Filter(lp::Scan(0, "lineitem", LineitemSchema()),
                 ex::Lt(ex::Col(l::kQuantity), ex::Lit(0.0))),
      {},
      {AggSpec{AggKind::kSum, ex::Col(l::kExtendedPrice), "rev",
               AtomType::kFloat64},
       AggSpec{AggKind::kCount, nullptr, "n", AtomType::kInt64}});
  for (TpchRunOptions opts :
       {TpchRunOptions::Rdma(4), TpchRunOptions::Lambda(4),
        TpchRunOptions::S3Select(4)}) {
    opts = Unthrottled(opts);
    auto ctx = PrepareTpch(TinyDb(), opts);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    planner::PlannerOptions popts;
    popts.catalog = TpchCatalog((*ctx)->table_rows);
    for (bool optimize : {false, true}) {
      SCOPED_TRACE(std::string(PlatformName(opts.platform)) +
                   (optimize ? " optimized" : " authored"));
      StatsRegistry stats;
      auto result = RunTpchPlan(
          optimize ? planner::Optimize(plan, popts, nullptr) : plan, **ctx,
          opts, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const RowVector& rows = **result;
      ASSERT_EQ(rows.size(), 1u);
      EXPECT_EQ(rows.row(0).GetFloat64(0), 0.0);
      EXPECT_EQ(rows.row(0).GetInt64(1), 0);
    }
  }
}

/// A rank plan that cannot be lowered fails inside the executor, through
/// the plan factory's Status: explicit Exchange nodes have no serverless
/// lowering. No abort, no hang, at one and four threads.
TEST(TpchPlanTest, RankLoweringErrorsReturnThroughTheExecutor) {
  namespace lp = planner::lp;
  planner::LogicalPlanPtr plan =
      lp::Exchange(lp::Scan(0, "lineitem", LineitemSchema()), l::kOrderKey);
  TpchRunOptions opts = Unthrottled(TpchRunOptions::Lambda(4));
  auto ctx = PrepareTpch(TinyDb(), opts);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    opts.exec.num_threads = threads;
    StatsRegistry stats;
    auto result = RunTpchPlan(plan, **ctx, opts, &stats);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("explicit Exchange"),
              std::string::npos)
        << result.status().ToString();
  }
}

/// Running a context on another platform or world size than it was
/// prepared for is an error before any rank starts (it used to index the
/// context's fragments and paths out of range).
TEST(TpchPlanTest, OptionsMustMatchThePreparedContext) {
  TpchRunOptions prepared = Unthrottled(TpchRunOptions::Rdma(2));
  auto ctx = PrepareTpch(TinyDb(), prepared);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  for (const TpchRunOptions& opts :
       {Unthrottled(TpchRunOptions::Rdma(4)),
        Unthrottled(TpchRunOptions::Lambda(2))}) {
    SCOPED_TRACE(PlatformName(opts.platform));
    StatsRegistry stats;
    auto result = RunTpchQuery(6, **ctx, opts, &stats);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  StatsRegistry stats;
  EXPECT_TRUE(RunTpchQuery(6, **ctx, prepared, &stats).ok());
}

TEST(TpchGeneratorTest, DeterministicAcrossRuns) {
  GeneratorOptions gen;
  gen.scale_factor = 0.001;
  gen.seed = 99;
  TpchTables a = GenerateTpch(gen);
  TpchTables b = GenerateTpch(gen);
  ASSERT_EQ(a.lineitem->num_rows(), b.lineitem->num_rows());
  for (size_t i = 0; i < a.lineitem->num_rows(); i += 97) {
    EXPECT_EQ(a.lineitem->column(l::kOrderKey).GetInt64(i),
              b.lineitem->column(l::kOrderKey).GetInt64(i));
    EXPECT_EQ(a.lineitem->column(l::kShipDate).GetInt32(i),
              b.lineitem->column(l::kShipDate).GetInt32(i));
  }
}

TEST(TpchGeneratorTest, RowCountsScaleWithSf) {
  GeneratorOptions gen;
  gen.scale_factor = 0.002;
  TpchTables db = GenerateTpch(gen);
  EXPECT_EQ(db.orders->num_rows(), 3000u);
  EXPECT_EQ(db.customer->num_rows(), 300u);
  EXPECT_EQ(db.part->num_rows(), 400u);
  // ~4 lineitems per order on average (uniform 1..7).
  EXPECT_GT(db.lineitem->num_rows(), 3000u * 2);
  EXPECT_LT(db.lineitem->num_rows(), 3000u * 7);
}

}  // namespace
}  // namespace modularis::tpch
