#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

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
  // per-lane fallback.
  for (int threads : {1, 4}) {
    TpchRunOptions base = Unthrottled(TpchRunOptions::Rdma(2));
    base.exec.network_radix_bits = 4;
    base.exec.num_threads = threads;

    TpchRunOptions interp = base;
    interp.exec.enable_vectorized = false;
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
