#include <atomic>

#include <gtest/gtest.h>

#include "core/exec_context.h"
#include "serverless/lambda.h"
#include "serverless/s3select.h"
#include "serverless/serverless_ops.h"
#include "storage/csv.h"
#include "suboperators/agg_ops.h"
#include "suboperators/partition_ops.h"
#include "suboperators/scan_ops.h"

namespace modularis {
namespace {

using serverless::LambdaOptions;
using serverless::LambdaRuntime;
using serverless::LambdaWorkerContext;
using serverless::S3SelectEngine;
using storage::BlobClientOptions;
using storage::BlobStore;

LambdaOptions FastLambda(int workers) {
  LambdaOptions o;
  o.num_workers = workers;
  o.throttle = false;
  o.s3 = BlobClientOptions::Unthrottled();
  return o;
}

TEST(LambdaRuntimeTest, SpawnDepthIsLogarithmic) {
  EXPECT_EQ(LambdaRuntime::SpawnDepth(0, 8), 1);
  EXPECT_EQ(LambdaRuntime::SpawnDepth(1, 8), 2);
  EXPECT_EQ(LambdaRuntime::SpawnDepth(8, 8), 2);
  EXPECT_EQ(LambdaRuntime::SpawnDepth(9, 8), 3);
  EXPECT_EQ(LambdaRuntime::SpawnDepth(72, 8), 3);
  EXPECT_EQ(LambdaRuntime::SpawnDepth(73, 8), 4);
  EXPECT_EQ(LambdaRuntime::SpawnDepth(3, 1), 4);  // degenerate fanout
}

TEST(LambdaRuntimeTest, RunsAllWorkersAndBarrierWorks) {
  BlobStore store;
  std::atomic<int> arrived{0};
  std::atomic<bool> violated{false};
  Status st = LambdaRuntime::Run(
      FastLambda(6), &store, [&](LambdaWorkerContext& ctx) -> Status {
        arrived.fetch_add(1);
        ctx.barrier();
        if (arrived.load() != 6) violated = true;
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(violated.load());
}

TEST(LambdaRuntimeTest, WorkerFailurePropagates) {
  BlobStore store;
  Status st = LambdaRuntime::Run(
      FastLambda(3), &store, [&](LambdaWorkerContext& ctx) -> Status {
        if (ctx.worker_id == 2) {
          return Status::ResourceExhausted("OOM (simulated)");
        }
        return Status::OK();
      });
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(S3SelectEngineTest, PushesDownProjectionAndPredicate) {
  Schema schema({Field::I64("id"), Field::Str("tag", 8), Field::F64("x")});
  ColumnTablePtr table = ColumnTable::Make(schema);
  for (int i = 0; i < 100; ++i) {
    table->column(0).AppendInt64(i);
    table->column(1).AppendString(i % 2 == 0 ? "even" : "odd");
    table->column(2).AppendFloat64(i * 1.5);
  }
  table->FinishBulkLoad();

  BlobStore store;
  store.Put("t.csv", storage::WriteCsv(*table));
  serverless::S3SelectOptions opts;
  opts.throttle = false;
  S3SelectEngine engine(&store, opts);
  storage::BlobClient client(&store, BlobClientOptions::Unthrottled());

  // SELECT x, id WHERE tag = 'even' — predicate written against the
  // projected schema ⟨tag, x, id⟩... here projection {1,2,0}.
  auto csv = engine.Select("t.csv", schema, {1, 2, 0},
                           ex::Eq(ex::Col(0), ex::Lit(std::string("even"))),
                           &client);
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  auto result = storage::ReadCsv(
      *csv, Schema({Field::Str("tag", 8), Field::F64("x"),
                    Field::I64("id")}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->num_rows(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ((*result)->column(0).GetString(i), "even");
    EXPECT_EQ((*result)->column(2).GetInt64(i) % 2, 0);
  }
  // The transfer was charged to the client connection.
  EXPECT_GT(client.bytes_transferred(), 0);

  // A string-valued pushed-down predicate is an error, not an empty
  // result: every row would otherwise be silently dropped.
  auto bad = engine.Select("t.csv", schema, {1, 2, 0}, ex::Col(0), &client);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
      << bad.status().ToString();
}

TEST(S3SelectEngineTest, MissingObjectIsNotFound) {
  BlobStore store;
  serverless::S3SelectOptions opts;
  opts.throttle = false;
  S3SelectEngine engine(&store, opts);
  auto csv = engine.Select("nope.csv", KeyValueSchema(), {}, nullptr,
                           nullptr);
  EXPECT_EQ(csv.status().code(), StatusCode::kNotFound);
}

/// Runs the full serverless exchange: every worker partitions its local
/// records by key, exchanges through S3, and aggregates its partition.
void RunS3ExchangeRoundTrip(bool write_combining) {
  const int workers = 4;
  const int64_t rows_per_worker = 2000;
  BlobStore store;
  std::vector<int64_t> per_worker_sum(workers, 0);

  Status st = LambdaRuntime::Run(
      FastLambda(workers), &store,
      [&](LambdaWorkerContext& wctx) -> Status {
        RowVectorPtr local = RowVector::Make(KeyValueSchema());
        for (int64_t i = 0; i < rows_per_worker; ++i) {
          RowWriter w = local->AppendRow();
          w.SetInt64(0, (wctx.worker_id * rows_per_worker + i) % 64);
          w.SetInt64(1, 1);
        }
        ExecContext ctx;
        ctx.rank = wctx.worker_id;
        ctx.world = wctx.num_workers;
        ctx.blob = wctx.s3;
        ctx.lambda = &wctx;

        RadixSpec spec{2, 0, RadixHash::kMix};  // fanout 4 == workers
        S3Exchange::Options xopts;
        xopts.prefix = "test-exchange";
        xopts.write_combining = write_combining;
        auto exchange = std::make_unique<S3Exchange>(
            std::make_unique<GroupByPid>(std::make_unique<PartitionOp>(
                std::make_unique<CollectionSource>(
                    std::vector<RowVectorPtr>{local}),
                spec, 0)),
            xopts);
        ColumnFileScan::Options copts;
        auto scan = std::make_unique<TableToCollection>(
            std::make_unique<ColumnFileScan>(std::move(exchange), copts));
        Reduce reduce(std::move(scan),
                      {AggSpec{AggKind::kSum, ex::Col(1), "sum",
                               AtomType::kInt64}},
                      KeyValueSchema());
        MODULARIS_RETURN_NOT_OK(reduce.Open(&ctx));
        Tuple t;
        if (!reduce.Next(&t)) return Status::Internal("no reduce output");
        per_worker_sum[wctx.worker_id] = t[0].row().GetInt64(0);
        return reduce.Close();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  int64_t total = 0;
  for (int64_t s : per_worker_sum) total += s;
  // Every record lands on exactly one worker.
  EXPECT_EQ(total, workers * rows_per_worker);
}

TEST(S3ExchangeTest, RoundTripWithWriteCombining) {
  RunS3ExchangeRoundTrip(true);
}

TEST(S3ExchangeTest, RoundTripWithoutWriteCombining) {
  RunS3ExchangeRoundTrip(false);
}

TEST(S3ExchangeTest, WriteCombiningReducesRequestCount) {
  // W workers: combining → W PUTs; without → W² PUTs.
  for (bool combining : {true, false}) {
    BlobStore store;
    const int workers = 4;
    Status st = LambdaRuntime::Run(
        FastLambda(workers), &store,
        [&](LambdaWorkerContext& wctx) -> Status {
          RowVectorPtr local = RowVector::Make(KeyValueSchema());
          for (int64_t i = 0; i < 64; ++i) {
            RowWriter w = local->AppendRow();
            w.SetInt64(0, i);
            w.SetInt64(1, i);
          }
          ExecContext ctx;
          ctx.rank = wctx.worker_id;
          ctx.world = wctx.num_workers;
          ctx.blob = wctx.s3;
          ctx.lambda = &wctx;
          RadixSpec spec{2, 0, RadixHash::kMix};
          S3Exchange::Options xopts;
          xopts.prefix = "count-exchange";
          xopts.write_combining = combining;
          S3Exchange exchange(
              std::make_unique<GroupByPid>(std::make_unique<PartitionOp>(
                  std::make_unique<CollectionSource>(
                      std::vector<RowVectorPtr>{local}),
                  spec, 0)),
              xopts);
          MODULARIS_RETURN_NOT_OK(exchange.Open(&ctx));
          Tuple t;
          while (exchange.Next(&t)) {
          }
          return exchange.status();
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(store.num_puts(), combining ? workers : workers * workers);
  }
}

TEST(MaterializeColumnFileTest, WritesResultObjectAndYieldsPath) {
  BlobStore store;
  storage::BlobClient client(&store, BlobClientOptions::Unthrottled());
  ExecContext ctx;
  ctx.blob = &client;

  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  for (int i = 0; i < 10; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, i);
    w.SetInt64(1, i);
  }
  MaterializeColumnFile mat(
      std::make_unique<CollectionSource>(std::vector<RowVectorPtr>{data}),
      KeyValueSchema(), "results/out.mcf");
  ASSERT_TRUE(mat.Open(&ctx).ok());
  Tuple t;
  ASSERT_TRUE(mat.Next(&t));
  EXPECT_EQ(t[0].str(), "results/out.mcf");
  EXPECT_FALSE(mat.Next(&t));

  // Read it back through ColumnFileScan.
  ColumnFileScan scan(std::make_unique<TupleSource>(std::vector<Tuple>{
                          Tuple{Item(std::string("results/out.mcf"))}}),
                      ColumnFileScan::Options{});
  ASSERT_TRUE(scan.Open(&ctx).ok());
  size_t rows = 0;
  while (scan.Next(&t)) rows += t[0].table()->num_rows();
  ASSERT_TRUE(scan.status().ok()) << scan.status().ToString();
  EXPECT_EQ(rows, 10u);
}

TEST(ColumnFileScanTest, RangePruningSkipsRowGroups) {
  BlobStore store;
  storage::BlobClient client(&store, BlobClientOptions::Unthrottled());
  ExecContext ctx;
  StatsRegistry stats;
  ctx.stats = &stats;
  ctx.blob = &client;

  // ids 0..999 in row groups of 100 → monotone min/max per group.
  ColumnTablePtr table = ColumnTable::Make(KeyValueSchema());
  for (int64_t i = 0; i < 1000; ++i) {
    table->column(0).AppendInt64(i);
    table->column(1).AppendInt64(i);
  }
  table->FinishBulkLoad();
  storage::ColumnFileWriteOptions wopts;
  wopts.rows_per_row_group = 100;
  store.Put("t.mcf", storage::WriteColumnFile(*table, wopts));

  ColumnFileScan::Options copts;
  copts.ranges = {{0, 250, 349}};  // exactly row groups 2 and 3
  ColumnFileScan scan(std::make_unique<TupleSource>(std::vector<Tuple>{
                          Tuple{Item(std::string("t.mcf"))}}),
                      copts);
  ASSERT_TRUE(scan.Open(&ctx).ok());
  Tuple t;
  size_t rows = 0, groups = 0;
  while (scan.Next(&t)) {
    ++groups;
    rows += t[0].table()->num_rows();
  }
  ASSERT_TRUE(scan.status().ok());
  EXPECT_EQ(groups, 2u);
  EXPECT_EQ(rows, 200u);
  EXPECT_EQ(stats.GetCounter("scan.row_groups_pruned"), 8);
}

}  // namespace
}  // namespace modularis
