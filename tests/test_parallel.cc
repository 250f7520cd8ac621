/// \file test_parallel.cc
/// Morsel-driven parallel execution parity (docs/DESIGN-parallel.md):
/// `num_threads = 4` must produce byte-identical results to
/// `num_threads = 1` — across join types, duplicate-heavy keys, empty
/// inputs, the aggregate kinds, and the TPC-H reference queries — and the
/// operators with native parallel paths must never report a
/// `parallel.serial_fallback.*` counter in those plans. This suite is
/// also the ThreadSanitizer target in CI.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/memory.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "storage/blob_store.h"
#include "suboperators/agg_ops.h"
#include "suboperators/basic_ops.h"
#include "suboperators/join_ops.h"
#include "suboperators/partition_ops.h"
#include "suboperators/scan_ops.h"
#include "tpch/queries.h"
#include "tpch/reference.h"
#include "q1_skew.h"
#include "reference_join.h"

namespace modularis {
namespace {

void ExpectBytesEqual(const RowVector& expected, const RowVector& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  ASSERT_EQ(expected.row_size(), actual.row_size()) << label;
  if (expected.byte_size() == 0) return;  // empty buffers may be null
  ASSERT_EQ(0, std::memcmp(expected.data(), actual.data(),
                           expected.byte_size()))
      << label << ": payload bytes differ";
}

RowVectorPtr MakeKv(int64_t rows, int64_t key_space, uint32_t seed,
                    int sequential_dup = 0) {
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  data->Reserve(rows);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> dist(0, key_space - 1);
  for (int64_t i = 0; i < rows; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, sequential_dup > 0 ? i / sequential_dup : dist(rng));
    w.SetInt64(1, i);
  }
  return data;
}

/// Small parallel_min_rows so the worker pool engages on test-sized
/// inputs; 4 workers regardless of the host's core count. (ExecContext
/// is pinned — it owns a registry — so configure in place.)
void InitCtx(ExecContext* ctx, int threads, StatsRegistry* stats) {
  ctx->options.num_threads = threads;
  ctx->options.parallel_min_rows = 256;
  ctx->options.morsel_rows = 512;
  ctx->stats = stats;
}

/// Drains a record-stream root into one packed vector via Next() tuples
/// (exercises the row protocol) or NextBatch (the batch protocol).
RowVectorPtr DrainRoot(SubOperator* root, ExecContext* ctx, bool batched) {
  Status st = root->Open(ctx);
  EXPECT_TRUE(st.ok()) << st.ToString();
  RowVectorPtr out;
  if (batched) {
    RowBatch batch;
    while (root->NextBatch(&batch)) {
      if (out == nullptr) out = RowVector::Make(batch.schema());
      out->AppendRawBatch(batch.data(), batch.size());
    }
  } else {
    Tuple t;
    while (root->Next(&t)) {
      if (t.size() == 1 && t[0].is_row()) {
        if (out == nullptr) out = RowVector::Make(t[0].row().schema());
        out->AppendRaw(t[0].row().data());
      } else if (t.size() == 1 && t[0].is_collection()) {
        if (out == nullptr) {
          out = RowVector::Make(t[0].collection()->schema());
        }
        out->AppendAll(*t[0].collection());
      } else {
        ADD_FAILURE() << "unexpected tuple shape " << t.ToString();
      }
    }
  }
  EXPECT_TRUE(root->status().ok()) << root->status().ToString();
  EXPECT_TRUE(root->Close().ok());
  if (out == nullptr) out = RowVector::Make(KeyValueSchema());
  return out;
}

void ExpectNoFallback(const StatsRegistry& stats, const char* op) {
  EXPECT_EQ(stats.GetCounter(std::string("parallel.serial_fallback.") + op),
            0)
      << op << " fell back to serial execution";
}

// ---------------------------------------------------------------------------
// Partitioned join (the bench plan): histograms + pre-sized partitioning
// + per-pair BuildProbe inside a NestedMap.
// ---------------------------------------------------------------------------

SubOpPtr BuildPartitionedJoinPlan(const RowVectorPtr& r, const RowVectorPtr& s,
                                  JoinType type) {
  RadixSpec spec{4, 0, RadixHash::kIdentity};
  const Schema kv = KeyValueSchema();
  auto plan = std::make_unique<PipelinePlan>();
  auto scan = [](const RowVectorPtr& v) {
    return std::make_unique<RowScan>(std::make_unique<CollectionSource>(
        std::vector<RowVectorPtr>{v}));
  };
  plan->Add("lh_r", std::make_unique<LocalHistogram>(scan(r), spec, 0));
  plan->Add("lp_r", std::make_unique<LocalPartition>(
                        scan(r), plan->MakeRef("lh_r"), spec, 0));
  plan->Add("lh_s", std::make_unique<LocalHistogram>(scan(s), spec, 0));
  plan->Add("lp_s", std::make_unique<LocalPartition>(
                        scan(s), plan->MakeRef("lh_s"), spec, 0));
  auto zip = std::make_unique<Zip>(plan->MakeRef("lp_r"),
                                   plan->MakeRef("lp_s"));
  auto bp = std::make_unique<BuildProbe>(
      std::make_unique<RowScan>(std::make_unique<Projection>(
          std::make_unique<ParameterLookup>(), std::vector<int>{1})),
      std::make_unique<RowScan>(std::make_unique<Projection>(
          std::make_unique<ParameterLookup>(), std::vector<int>{3})),
      kv, kv, /*build_key_col=*/0, /*probe_key_col=*/0, type);
  Schema out_schema = bp->out_schema();
  auto nested_root =
      std::make_unique<MaterializeRowVector>(std::move(bp), out_schema);
  plan->SetOutput(std::make_unique<NestedMap>(std::move(zip),
                                              std::move(nested_root)));
  return plan;
}

class PartitionedJoinParity : public ::testing::TestWithParam<JoinType> {};

TEST_P(PartitionedJoinParity, FourThreadsByteEqual) {
  const JoinType type = GetParam();
  // Build keys cover [0, 10000); probe keys draw from [0, 20000) so
  // inner/semi AND anti joins all have non-empty output.
  RowVectorPtr r = MakeKv(40000, 10000, /*seed=*/1, /*sequential_dup=*/4);
  RowVectorPtr s = MakeKv(40000, 20000, /*seed=*/2);
  for (bool batched : {false, true}) {
    StatsRegistry stats1, stats4;
    ExecContext c1, c4;
    InitCtx(&c1, 1, &stats1);
    InitCtx(&c4, 4, &stats4);
    auto p1 = BuildPartitionedJoinPlan(r, s, type);
    auto p4 = BuildPartitionedJoinPlan(r, s, type);
    RowVectorPtr out1 = DrainRoot(p1.get(), &c1, batched);
    RowVectorPtr out4 = DrainRoot(p4.get(), &c4, batched);
    ASSERT_GT(out1->size(), 0u);
    ExpectBytesEqual(*out1, *out4,
                     std::string("partitioned join, batched=") +
                         (batched ? "1" : "0"));
    ExpectNoFallback(stats4, "LocalHistogram");
    ExpectNoFallback(stats4, "LocalPartition");
    ExpectNoFallback(stats4, "NestedMap");
    ExpectNoFallback(stats4, "BuildProbe");
    ExpectNoFallback(stats4, "ReduceByKey");
  }
}

INSTANTIATE_TEST_SUITE_P(JoinTypes, PartitionedJoinParity,
                         ::testing::Values(JoinType::kInner, JoinType::kSemi,
                                           JoinType::kAnti),
                         [](const ::testing::TestParamInfo<JoinType>& info) {
                           switch (info.param) {
                             case JoinType::kInner: return "Inner";
                             case JoinType::kSemi: return "Semi";
                             case JoinType::kAnti: return "Anti";
                           }
                           return "Unknown";
                         });

TEST(PartitionedJoinParity, EmptyInputs) {
  RowVectorPtr empty = RowVector::Make(KeyValueSchema());
  RowVectorPtr some = MakeKv(5000, 1000, 3);
  for (const auto& [r, s] : std::vector<std::pair<RowVectorPtr, RowVectorPtr>>{
           {empty, some}, {some, empty}, {empty, empty}}) {
    StatsRegistry stats1, stats4;
    ExecContext c1, c4;
    InitCtx(&c1, 1, &stats1);
    InitCtx(&c4, 4, &stats4);
    auto p1 = BuildPartitionedJoinPlan(r, s, JoinType::kInner);
    auto p4 = BuildPartitionedJoinPlan(r, s, JoinType::kInner);
    RowVectorPtr out1 = DrainRoot(p1.get(), &c1, true);
    RowVectorPtr out4 = DrainRoot(p4.get(), &c4, true);
    ExpectBytesEqual(*out1, *out4, "empty-input join");
  }
}

// ---------------------------------------------------------------------------
// Flat BuildProbe: sliced parallel build + per-batch parallel probe.
// ---------------------------------------------------------------------------

SubOpPtr FlatJoin(const RowVectorPtr& build, SubOpPtr probe, JoinType type) {
  const Schema kv = KeyValueSchema();
  return std::make_unique<BuildProbe>(
      std::make_unique<RowScan>(std::make_unique<CollectionSource>(
          std::vector<RowVectorPtr>{build})),
      std::move(probe), kv, kv, 0, 0, type);
}

SubOpPtr FlatJoin(const RowVectorPtr& build,
                  const std::vector<RowVectorPtr>& probe, JoinType type) {
  return FlatJoin(build,
                  std::make_unique<RowScan>(
                      std::make_unique<CollectionSource>(probe)),
                  type);
}

SubOpPtr FlatJoin(const RowVectorPtr& build, const RowVectorPtr& probe,
                  JoinType type) {
  return FlatJoin(build, std::vector<RowVectorPtr>{probe}, type);
}

/// Cuts `all` into consecutive collections of the given sizes, plus one
/// for the rest.
std::vector<RowVectorPtr> SplitCollection(const RowVectorPtr& all,
                                          const std::vector<size_t>& sizes) {
  std::vector<RowVectorPtr> parts;
  size_t pos = 0;
  for (size_t i = 0; i <= sizes.size(); ++i) {
    const size_t n = i < sizes.size() ? sizes[i] : all->size() - pos;
    RowVectorPtr part = RowVector::Make(all->schema());
    part->AppendRawBatch(all->data() + pos * all->row_size(), n);
    parts.push_back(std::move(part));
    pos += n;
  }
  return parts;
}

RowVectorPtr DrainAtThreads(SubOpPtr root, int threads, bool batched) {
  StatsRegistry stats;
  ExecContext ctx;
  InitCtx(&ctx, threads, &stats);
  RowVectorPtr out = DrainRoot(root.get(), &ctx, batched);
  ExpectNoFallback(stats, "BuildProbe");
  return out;
}

TEST(FlatBuildProbeParity, JoinTypesAndDuplicates) {
  // Duplicate-heavy build side: 8-long duplicate chains stress the
  // chain-order determinism of the sliced parallel build.
  RowVectorPtr build = MakeKv(30000, 4000, /*seed=*/5, /*sequential_dup=*/8);
  RowVectorPtr probe = MakeKv(50000, 8000, /*seed=*/6);
  for (JoinType type :
       {JoinType::kInner, JoinType::kSemi, JoinType::kAnti}) {
    for (bool batched : {false, true}) {
      StatsRegistry stats1, stats4;
      ExecContext c1, c4;
      InitCtx(&c1, 1, &stats1);
      InitCtx(&c4, 4, &stats4);
      auto j1 = FlatJoin(build, probe, type);
      auto j4 = FlatJoin(build, probe, type);
      RowVectorPtr out1 = DrainRoot(j1.get(), &c1, batched);
      RowVectorPtr out4 = DrainRoot(j4.get(), &c4, batched);
      ExpectBytesEqual(*out1, *out4, "flat join");
      ExpectNoFallback(stats4, "BuildProbe");
    }
  }
}

TEST(FlatBuildProbeParity, EmptySides) {
  RowVectorPtr empty = RowVector::Make(KeyValueSchema());
  RowVectorPtr some = MakeKv(2000, 100, 7);
  for (const auto& [b, p] : std::vector<std::pair<RowVectorPtr, RowVectorPtr>>{
           {empty, some}, {some, empty}, {empty, empty}}) {
    StatsRegistry stats1, stats4;
    ExecContext c1, c4;
    InitCtx(&c1, 1, &stats1);
    InitCtx(&c4, 4, &stats4);
    auto j1 = FlatJoin(b, p, JoinType::kInner);
    auto j4 = FlatJoin(b, p, JoinType::kInner);
    RowVectorPtr out1 = DrainRoot(j1.get(), &c1, true);
    RowVectorPtr out4 = DrainRoot(j4.get(), &c4, true);
    ExpectBytesEqual(*out1, *out4, "flat join empty side");
  }
}

TEST(FlatBuildProbeParity, ProbeBatchesStraddleSizingThreshold) {
  // Each probe collection is one batch, sized by PlanWorkers on its own:
  // with parallel_min_rows = 256 the batches below get 1, 1, 1, 2, 4 and
  // 1 workers at 4 threads. Every mix must equal the one-collection run
  // and the nested-loop reference.
  RowVectorPtr build = MakeKv(2000, 700, 51, /*sequential_dup=*/3);
  RowVectorPtr probe = MakeKv(6500, 900, 52);
  const std::vector<RowVectorPtr> parts =
      SplitCollection(probe, {1, 255, 300, 600, 5000});
  for (JoinType type :
       {JoinType::kInner, JoinType::kSemi, JoinType::kAnti}) {
    const std::string label =
        "join type=" + std::to_string(static_cast<int>(type));
    RowVectorPtr expected =
        DrainAtThreads(FlatJoin(build, probe, type), 1, true);
    ExpectBytesEqual(*testing_ref::ReferenceJoin(*build, *probe, 0, 0, type),
                     *expected, label + " one collection vs reference");
    for (int threads : {1, 4}) {
      for (bool batched : {false, true}) {
        RowVectorPtr got =
            DrainAtThreads(FlatJoin(build, parts, type), threads, batched);
        ExpectBytesEqual(*expected, *got,
                         label + " threads=" + std::to_string(threads) +
                             " batched=" + std::to_string(batched));
      }
    }
  }
}

TEST(FlatBuildProbeParity, ChainedNonDurableProbe) {
  // BuildProbe → MapOp → BuildProbe, the KV optimized-sequence shape: the
  // outer probe reads MapOp's reused output buffer, one batch per inner
  // output sink, so its batches are non-durable and vary in size.
  const Schema kv = KeyValueSchema();
  RowVectorPtr build1 = MakeKv(1500, 500, 61, /*sequential_dup=*/3);
  RowVectorPtr probe1 = MakeKv(3000, 600, 62);
  RowVectorPtr build2 = MakeKv(1200, 1, 63, /*sequential_dup=*/2);
  const std::vector<RowVectorPtr> parts1 =
      SplitCollection(probe1, {1, 255, 300, 1800});
  // The map keys the inner output on the build row's value (its row
  // index) and carries the probe row's value.
  auto chained_probe = [&] {
    return std::make_unique<MapOp>(
        FlatJoin(build1, parts1, JoinType::kInner), kv,
        std::vector<MapOutput>{MapOutput::Pass(1), MapOutput::Pass(3)});
  };
  RowVectorPtr ref_inner =
      testing_ref::ReferenceJoin(*build1, *probe1, 0, 0, JoinType::kInner);
  RowVectorPtr mapped = RowVector::Make(kv);
  for (size_t i = 0; i < ref_inner->size(); ++i) {
    RowWriter w = mapped->AppendRow();
    w.SetInt64(0, ref_inner->row(i).GetInt64(1));
    w.SetInt64(1, ref_inner->row(i).GetInt64(3));
  }
  for (JoinType type :
       {JoinType::kInner, JoinType::kSemi, JoinType::kAnti}) {
    const std::string label =
        "chained join type=" + std::to_string(static_cast<int>(type));
    RowVectorPtr expected =
        DrainAtThreads(FlatJoin(build2, mapped, type), 1, true);
    ExpectBytesEqual(
        *testing_ref::ReferenceJoin(*build2, *mapped, 0, 0, type), *expected,
        label + " one collection vs reference");
    for (int threads : {1, 4}) {
      for (bool batched : {false, true}) {
        RowVectorPtr got = DrainAtThreads(
            FlatJoin(build2, chained_probe(), type), threads, batched);
        ExpectBytesEqual(*expected, *got,
                         label + " threads=" + std::to_string(threads) +
                             " batched=" + std::to_string(batched));
      }
    }
  }
}

TEST(FlatBuildProbeParity, MixedNextAndNextBatch) {
  // The first probe batch yields ~28 rows and the second is probed by
  // several workers, so the row pulls cross the first batch and, at 4
  // threads, a sink boundary of the second; the batch pulls then start
  // from a partly read sink.
  RowVectorPtr build = MakeKv(20000, 2000, 8, /*sequential_dup=*/4);
  RowVectorPtr probe = MakeKv(20000, 2000, 9);
  const std::vector<RowVectorPtr> parts = SplitCollection(probe, {7, 1200});
  auto drain_mixed = [&](int threads) {
    StatsRegistry stats;
    ExecContext ctx;
    InitCtx(&ctx, threads, &stats);
    auto j = FlatJoin(build, parts, JoinType::kInner);
    EXPECT_TRUE(j->Open(&ctx).ok());
    RowVectorPtr out;
    Tuple t;
    // Row pulls first, then batch pulls for the remainder.
    for (int i = 0; i < 1500 && j->Next(&t); ++i) {
      if (out == nullptr) out = RowVector::Make(t[0].row().schema());
      out->AppendRaw(t[0].row().data());
    }
    RowBatch batch;
    while (j->NextBatch(&batch)) {
      out->AppendRawBatch(batch.data(), batch.size());
    }
    EXPECT_TRUE(j->status().ok()) << j->status().ToString();
    EXPECT_TRUE(j->Close().ok());
    return out;
  };
  RowVectorPtr expected =
      DrainAtThreads(FlatJoin(build, probe, JoinType::kInner), 1, true);
  ASSERT_GT(expected->size(), 1500u);
  ExpectBytesEqual(*expected, *drain_mixed(1), "mixed protocol, 1 thread");
  ExpectBytesEqual(*expected, *drain_mixed(4), "mixed protocol, 4 threads");
}

// ---------------------------------------------------------------------------
// ReduceByKey: partition-owned parallel aggregation. Every key shape —
// single int, string, multi-column, keyless — and every aggregate
// (order-dependent float SUM included) must be byte-identical across
// thread counts with zero serial fallbacks and zero mid-aggregation
// rehashes.
// ---------------------------------------------------------------------------

SubOpPtr MakeReduce(const RowVectorPtr& data, std::vector<AggSpec> aggs) {
  return std::make_unique<ReduceByKey>(
      std::make_unique<RowScan>(std::make_unique<CollectionSource>(
          std::vector<RowVectorPtr>{data})),
      std::vector<int>{0}, std::move(aggs), KeyValueSchema());
}

std::vector<AggSpec> IntAggs() {
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, ex::Col(1), "sum", AtomType::kInt64});
  aggs.push_back(AggSpec{AggKind::kCount, nullptr, "cnt", AtomType::kInt64});
  aggs.push_back(AggSpec{AggKind::kMin, ex::Col(1), "min", AtomType::kInt64});
  aggs.push_back(AggSpec{AggKind::kMax, ex::Col(1), "max", AtomType::kInt64});
  return aggs;
}

TEST(ReduceByKeyParity, IntAggregates) {
  for (int64_t key_space : {int64_t{7}, int64_t{4000}}) {  // dup-heavy & wide
    RowVectorPtr data = MakeKv(60000, key_space, 11);
    StatsRegistry stats1, stats4;
    ExecContext c1, c4;
    InitCtx(&c1, 1, &stats1);
    InitCtx(&c4, 4, &stats4);
    auto r1 = MakeReduce(data, IntAggs());
    auto r4 = MakeReduce(data, IntAggs());
    RowVectorPtr out1 = DrainRoot(r1.get(), &c1, false);
    RowVectorPtr out4 = DrainRoot(r4.get(), &c4, false);
    ASSERT_GT(out1->size(), 0u);
    ExpectBytesEqual(*out1, *out4, "reduce_by_key int aggs");
    ExpectNoFallback(stats4, "ReduceByKey");
  }
}

TEST(ReduceByKeyParity, FloatMinMaxParallel) {
  // f64 MIN/MAX merge bit-exactly (commutative, no re-association).
  RowVectorPtr data = MakeKv(40000, 500, 12);
  std::vector<AggSpec> aggs;
  aggs.push_back(
      AggSpec{AggKind::kMin, ex::Col(1), "mn", AtomType::kFloat64});
  aggs.push_back(
      AggSpec{AggKind::kMax, ex::Col(1), "mx", AtomType::kFloat64});
  StatsRegistry stats1, stats4;
  ExecContext c1, c4;
  InitCtx(&c1, 1, &stats1);
  InitCtx(&c4, 4, &stats4);
  auto r1 = MakeReduce(data, aggs);
  auto r4 = MakeReduce(data, aggs);
  RowVectorPtr out1 = DrainRoot(r1.get(), &c1, false);
  RowVectorPtr out4 = DrainRoot(r4.get(), &c4, false);
  ExpectBytesEqual(*out1, *out4, "reduce_by_key f64 min/max");
  ExpectNoFallback(stats4, "ReduceByKey");
}

TEST(ReduceByKeyParity, FloatSumParallelByteEqual) {
  // Order-dependent f64 SUM parallelizes under partition-owned
  // aggregation: all rows of a group land in one key partition in
  // original order, so the parallel fold replays the serial addition
  // order exactly — no fallback, bytes identical.
  RowVectorPtr data = MakeKv(40000, 500, 13);
  std::vector<AggSpec> aggs;
  aggs.push_back(
      AggSpec{AggKind::kSum, ex::Col(1), "s", AtomType::kFloat64});
  StatsRegistry stats1, stats4;
  ExecContext c1, c4;
  InitCtx(&c1, 1, &stats1);
  InitCtx(&c4, 4, &stats4);
  auto r1 = MakeReduce(data, aggs);
  auto r4 = MakeReduce(data, aggs);
  RowVectorPtr out1 = DrainRoot(r1.get(), &c1, false);
  RowVectorPtr out4 = DrainRoot(r4.get(), &c4, false);
  ExpectBytesEqual(*out1, *out4, "reduce_by_key f64 sum");
  ExpectNoFallback(stats4, "ReduceByKey");
  EXPECT_GT(stats4.GetCounter("parallel.reduce.partitions"), 0)
      << "4-thread f64 SUM did not take the partition-owned path";
  EXPECT_EQ(stats4.GetCounter("reduce.rehash"), 0)
      << "pre-sized per-partition tables must never rehash";
}

// Non-integer key shapes: string, multi-column, and a computed (non
// bare-column) aggregate input — every one of these used to take
// parallel.serial_fallback.ReduceByKey onto the serial byte-key map.

Schema StrKeySchema() {
  return Schema({Field::Str("k", 12), Field::I64("v"), Field::F64("x")});
}

RowVectorPtr MakeStrKeyed(size_t rows, int64_t key_space, uint32_t seed) {
  RowVectorPtr data = RowVector::Make(StrKeySchema());
  data->Reserve(rows);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> dist(0, key_space - 1);
  std::uniform_real_distribution<double> fdist(-1000.0, 1000.0);
  for (size_t i = 0; i < rows; ++i) {
    RowWriter w = data->AppendRow();
    w.SetString(0, "key" + std::to_string(dist(rng)));
    w.SetInt64(1, static_cast<int64_t>(i));
    w.SetFloat64(2, fdist(rng));
  }
  return data;
}

SubOpPtr MakeKeyedReduce(const RowVectorPtr& data, std::vector<int> keys,
                         std::vector<AggSpec> aggs) {
  return std::make_unique<ReduceByKey>(
      std::make_unique<RowScan>(std::make_unique<CollectionSource>(
          std::vector<RowVectorPtr>{data})),
      std::move(keys), std::move(aggs), data->schema());
}

std::vector<AggSpec> MixedAggs() {
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, ex::Col(2), "s", AtomType::kFloat64});
  aggs.push_back(AggSpec{AggKind::kCount, nullptr, "c", AtomType::kInt64});
  aggs.push_back(AggSpec{AggKind::kMin, ex::Col(1), "mn", AtomType::kInt64});
  aggs.push_back(AggSpec{AggKind::kMax, ex::Col(2), "mx", AtomType::kFloat64});
  // Computed input: exercises the Expr::Eval update path on workers.
  aggs.push_back(AggSpec{AggKind::kSum,
                         ex::Mul(ex::Col(2), ex::Lit(2.0)), "s2",
                         AtomType::kFloat64});
  return aggs;
}

TEST(ReduceByKeyParity, StringKeyByteEqual) {
  for (int64_t key_space : {int64_t{7}, int64_t{5000}}) {
    RowVectorPtr data = MakeStrKeyed(60000, key_space, 17);
    StatsRegistry stats1, stats4;
    ExecContext c1, c4;
    InitCtx(&c1, 1, &stats1);
    InitCtx(&c4, 4, &stats4);
    auto r1 = MakeKeyedReduce(data, {0}, MixedAggs());
    auto r4 = MakeKeyedReduce(data, {0}, MixedAggs());
    RowVectorPtr out1 = DrainRoot(r1.get(), &c1, false);
    RowVectorPtr out4 = DrainRoot(r4.get(), &c4, false);
    ASSERT_GT(out1->size(), 0u);
    ExpectBytesEqual(*out1, *out4, "reduce_by_key string key");
    ExpectNoFallback(stats4, "ReduceByKey");
    EXPECT_EQ(stats4.GetCounter("reduce.rehash"), 0);
  }
}

TEST(ReduceByKeyParity, MultiColumnKeyByteEqual) {
  // (string, i64) composite key over a dup-heavy value domain.
  RowVectorPtr data = MakeStrKeyed(60000, 40, 19);
  StatsRegistry stats1, stats4;
  ExecContext c1, c4;
  InitCtx(&c1, 1, &stats1);
  InitCtx(&c4, 4, &stats4);
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, ex::Col(2), "s", AtomType::kFloat64});
  aggs.push_back(AggSpec{AggKind::kCount, nullptr, "c", AtomType::kInt64});
  auto key2 = [](const RowVectorPtr& d) {
    // Second key column: v % 8 — rebuild the rows with a low-cardinality
    // i64 column so the composite key has real cross-products.
    RowVectorPtr out = RowVector::Make(d->schema());
    out->Reserve(d->size());
    for (size_t i = 0; i < d->size(); ++i) {
      RowRef r = d->row(i);
      RowWriter w = out->AppendRow();
      w.SetString(0, std::string(r.GetString(0)));
      w.SetInt64(1, r.GetInt64(1) % 8);
      w.SetFloat64(2, r.GetFloat64(2));
    }
    return out;
  }(data);
  auto r1 = MakeKeyedReduce(key2, {0, 1}, aggs);
  auto r4 = MakeKeyedReduce(key2, {0, 1}, aggs);
  RowVectorPtr out1 = DrainRoot(r1.get(), &c1, false);
  RowVectorPtr out4 = DrainRoot(r4.get(), &c4, false);
  ASSERT_GT(out1->size(), 0u);
  ExpectBytesEqual(*out1, *out4, "reduce_by_key multi-column key");
  ExpectNoFallback(stats4, "ReduceByKey");
  EXPECT_EQ(stats4.GetCounter("reduce.rehash"), 0);
}

TEST(ReduceByKeyParity, HighCardinalityMillionGroups) {
  // 1M rows, every key distinct: stresses the per-partition table
  // reservation (zero rehashes) and the K-way first-occurrence merge at
  // maximum group count.
  const size_t n = 1 << 20;
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  data->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RowWriter w = data->AppendRow();
    // Scrambled insertion order so first-occurrence order != key order.
    w.SetInt64(0, static_cast<int64_t>((i * 2654435761u) % (1u << 20)));
    w.SetInt64(1, static_cast<int64_t>(i));
  }
  StatsRegistry stats1, stats4;
  ExecContext c1, c4;
  InitCtx(&c1, 1, &stats1);
  InitCtx(&c4, 4, &stats4);
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, ex::Col(1), "s", AtomType::kInt64});
  auto r1 = MakeReduce(data, aggs);
  auto r4 = MakeReduce(data, aggs);
  RowVectorPtr out1 = DrainRoot(r1.get(), &c1, false);
  RowVectorPtr out4 = DrainRoot(r4.get(), &c4, false);
  ASSERT_EQ(out1->size(), size_t{1} << 20);
  ExpectBytesEqual(*out1, *out4, "reduce_by_key 1M distinct keys");
  ExpectNoFallback(stats4, "ReduceByKey");
  EXPECT_EQ(stats4.GetCounter("reduce.rehash"), 0);
}

TEST(ReduceByKeyParity, KeylessFloatSumStableAcrossThreadCounts) {
  // Scalar (no-key) aggregation: the fixed-shape pairwise combine tree
  // makes float SUM byte-stable at ANY thread count — 1, 2 and 4 threads
  // all produce the same bytes, and no serial fallback is recorded.
  RowVectorPtr data = MakeKv(100000, 1000, 23);
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, ex::Col(1), "s", AtomType::kFloat64});
  aggs.push_back(AggSpec{AggKind::kCount, nullptr, "c", AtomType::kInt64});
  aggs.push_back(AggSpec{AggKind::kMin, ex::Col(1), "mn", AtomType::kFloat64});
  auto run = [&](int threads, StatsRegistry* stats) {
    ExecContext ctx;
    InitCtx(&ctx, threads, stats);
    auto r = std::make_unique<Reduce>(
        std::make_unique<RowScan>(std::make_unique<CollectionSource>(
            std::vector<RowVectorPtr>{data})),
        aggs, KeyValueSchema());
    return DrainRoot(r.get(), &ctx, false);
  };
  StatsRegistry stats1, stats2, stats4;
  RowVectorPtr out1 = run(1, &stats1);
  RowVectorPtr out2 = run(2, &stats2);
  RowVectorPtr out4 = run(4, &stats4);
  ASSERT_EQ(out1->size(), 1u);
  ExpectBytesEqual(*out1, *out2, "keyless reduce 2 threads");
  ExpectBytesEqual(*out1, *out4, "keyless reduce 4 threads");
  ExpectNoFallback(stats4, "ReduceByKey");
}

// ---------------------------------------------------------------------------
// ReduceByKey: the few-group kernel. Q1's skewed four groups aggregate per
// fixed 16K-row chunk and fold through the pairwise tree, so every worker
// count, and fusion on (bytecode inputs) or off (the row interpreter),
// gives the same bytes. An input that meets more than 64 keys in any
// chunk leaves the kernel for the partition-owned pass.
// ---------------------------------------------------------------------------

/// Runs ReduceByKey over `data` at `threads` workers, fusion on or off.
RowVectorPtr RunKeyed(const RowVectorPtr& data, const std::vector<int>& keys,
                      const std::vector<AggSpec>& aggs, int threads,
                      bool fusion, StatsRegistry* stats) {
  ExecContext ctx;
  InitCtx(&ctx, threads, stats);
  ctx.options.enable_fusion = fusion;
  auto r = MakeKeyedReduce(data, keys, aggs);
  return DrainRoot(r.get(), &ctx, true);
}

TEST(ReduceByKeyParity, FewGroupKernelByteEqualAcrossWorkers) {
  // 100k rows: 7 chunks, an odd count, so the tree carries a tail up.
  for (bool str_keys : {false, true}) {
    SCOPED_TRACE(str_keys ? "(str, str) keys" : "i64 key");
    RowVectorPtr data = testing_q1::MakeQ1Skew(100000, str_keys, 31);
    const std::vector<int> keys = testing_q1::Q1SkewKeys(str_keys);
    const std::vector<AggSpec> aggs = testing_q1::Q1SkewAggs(str_keys);
    StatsRegistry stats1, stats2, stats4;
    RowVectorPtr out1 = RunKeyed(data, keys, aggs, 1, true, &stats1);
    RowVectorPtr out2 = RunKeyed(data, keys, aggs, 2, true, &stats2);
    RowVectorPtr out4 = RunKeyed(data, keys, aggs, 4, true, &stats4);
    ASSERT_EQ(out1->size(), 4u);
    ExpectBytesEqual(*out1, *out2, "few-group kernel 2 threads");
    ExpectBytesEqual(*out1, *out4, "few-group kernel 4 threads");
    for (const StatsRegistry* st : {&stats1, &stats2, &stats4}) {
      EXPECT_EQ(st->GetCounter("parallel.reduce.chunks"), 7);
      EXPECT_EQ(st->GetCounter("parallel.reduce.partitions"), 0);
      EXPECT_EQ(st->GetCounter("reduce.rehash"), 0);
      EXPECT_EQ(st->GetCounter("expr.bc_fallback.value"), 0);
    }
    ExpectNoFallback(stats4, "ReduceByKey");
    // COUNT per group sums to the input, in first-occurrence order.
    int64_t total = 0;
    for (size_t g = 0; g < out1->size(); ++g) {
      total += out1->row(g).GetInt64(static_cast<int>(keys.size()) + 2);
    }
    EXPECT_EQ(total, 100000);
  }
}

TEST(ReduceByKeyParity, FewGroupKernelFusionOffMatchesBytecode) {
  // The computed SUM input runs as bytecode with fusion on and through the
  // row interpreter with fusion off: the same values, so the same bytes.
  for (bool str_keys : {false, true}) {
    SCOPED_TRACE(str_keys ? "(str, str) keys" : "i64 key");
    RowVectorPtr data = testing_q1::MakeQ1Skew(70000, str_keys, 37);
    const std::vector<int> keys = testing_q1::Q1SkewKeys(str_keys);
    const std::vector<AggSpec> aggs = testing_q1::Q1SkewAggs(str_keys);
    for (int threads : {1, 4}) {
      StatsRegistry fused_stats, interp_stats;
      RowVectorPtr fused =
          RunKeyed(data, keys, aggs, threads, true, &fused_stats);
      RowVectorPtr interp =
          RunKeyed(data, keys, aggs, threads, false, &interp_stats);
      ExpectBytesEqual(*fused, *interp,
                       "fusion off, threads=" + std::to_string(threads));
    }
  }
}

TEST(ReduceByKeyParity, LateChunkWithManyGroupsLeavesTheKernel) {
  // The first 16K-row chunk holds 4 keys; the rows after it spread over
  // 1000. The kernel aggregates chunk 0, meets the 65th key in chunk 1 and
  // hands the whole input to the partition-owned pass.
  const size_t n = 60000;
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  std::mt19937_64 rng(41);
  for (size_t i = 0; i < n; ++i) {
    RowWriter w = data->AppendRow();
    const int64_t space = i < (size_t{1} << 14) ? 4 : 1000;
    w.SetInt64(0, static_cast<int64_t>(rng() % space) * 7919);
    w.SetInt64(1, static_cast<int64_t>(rng() % 100000) - 50000);
  }
  // Reference: SUM and COUNT per key in first-occurrence order.
  std::map<int64_t, std::pair<int64_t, int64_t>> ref;
  std::vector<int64_t> order;
  for (size_t i = 0; i < n; ++i) {
    const int64_t k = data->row(i).GetInt64(0);
    auto [it, fresh] = ref.try_emplace(k, 0, 0);
    if (fresh) order.push_back(k);
    it->second.first += data->row(i).GetInt64(1);
    ++it->second.second;
  }
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, ex::Col(1), "s", AtomType::kInt64});
  aggs.push_back(AggSpec{AggKind::kCount, nullptr, "c", AtomType::kInt64});
  StatsRegistry stats1, stats4;
  RowVectorPtr out1 = RunKeyed(data, {0}, aggs, 1, true, &stats1);
  RowVectorPtr out4 = RunKeyed(data, {0}, aggs, 4, true, &stats4);
  ASSERT_EQ(out1->size(), order.size());
  for (size_t g = 0; g < order.size(); ++g) {
    const RowRef row = out1->row(g);
    ASSERT_EQ(row.GetInt64(0), order[g]) << "group " << g;
    EXPECT_EQ(row.GetInt64(1), ref[order[g]].first) << "group " << g;
    EXPECT_EQ(row.GetInt64(2), ref[order[g]].second) << "group " << g;
  }
  ExpectBytesEqual(*out1, *out4, "late many-group chunk, 4 threads");
  EXPECT_EQ(stats1.GetCounter("parallel.reduce.chunks"), 0);
  EXPECT_EQ(stats4.GetCounter("parallel.reduce.chunks"), 0);
  EXPECT_GT(stats4.GetCounter("parallel.reduce.partitions"), 0);
  ExpectNoFallback(stats4, "ReduceByKey");
}

TEST(ReduceByKeyParity, EmptyInput) {
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  StatsRegistry stats4;
  ExecContext c4;
  InitCtx(&c4, 4, &stats4);
  auto r4 = MakeReduce(data, IntAggs());
  RowVectorPtr out4 = DrainRoot(r4.get(), &c4, false);
  EXPECT_EQ(out4->size(), 0u);
}

// ---------------------------------------------------------------------------
// PartitionOp (single-pass) parity.
// ---------------------------------------------------------------------------

/// Drains `root` (opened under `ctx`) into its ⟨pid, partition⟩ pairs.
std::vector<RowVectorPtr> DrainParts(SubOperator* root, ExecContext* ctx) {
  EXPECT_TRUE(root->Open(ctx).ok());
  std::vector<RowVectorPtr> parts;
  Tuple t;
  while (root->Next(&t)) {
    EXPECT_EQ(t[0].i64(), static_cast<int64_t>(parts.size()));
    parts.push_back(t[1].collection());
  }
  EXPECT_TRUE(root->status().ok()) << root->status().ToString();
  EXPECT_TRUE(root->Close().ok());
  return parts;
}

TEST(PartitionOpParity, FourThreadsByteEqual) {
  RowVectorPtr data = MakeKv(50000, 100000, 21);
  RadixSpec spec{5, 0, RadixHash::kIdentity};
  auto run = [&](int threads, StatsRegistry* stats) {
    ExecContext ctx;
    InitCtx(&ctx, threads, stats);
    PartitionOp op(std::make_unique<RowScan>(
                       std::make_unique<CollectionSource>(
                           std::vector<RowVectorPtr>{data})),
                   spec, 0);
    return DrainParts(&op, &ctx);
  };
  StatsRegistry stats1, stats4;
  auto parts1 = run(1, &stats1);
  auto parts4 = run(4, &stats4);
  ASSERT_EQ(parts1.size(), parts4.size());
  for (size_t p = 0; p < parts1.size(); ++p) {
    ExpectBytesEqual(*parts1[p], *parts4[p],
                     "partition " + std::to_string(p));
  }
  ExpectNoFallback(stats4, "Partition");
}

// ---------------------------------------------------------------------------
// The ranged scatter every partitioning site runs, against an independent
// reference: a stable partition (each destination's rows in input order).
// Fanouts 300 and 1024 are worlds past 256 ranks on the TCP route.
// ---------------------------------------------------------------------------

/// Rows of `stride` bytes with the routing key in column 0: two i32
/// columns at stride 8 (the narrow-key load), i64 columns otherwise.
RowVectorPtr MakeStrided(size_t rows, uint32_t stride, uint32_t seed) {
  std::vector<Field> fields;
  if (stride == 8) {
    fields = {Field::I32("k"), Field::I32("v")};
  } else {
    for (uint32_t c = 0; c < stride / 8; ++c) {
      fields.push_back(Field::I64("c" + std::to_string(c)));
    }
  }
  RowVectorPtr data = RowVector::Make(Schema(fields));
  data->Reserve(rows);
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    RowWriter w = data->AppendRow();
    const int64_t key = static_cast<int64_t>(rng() % 100000) - 50000;
    if (stride == 8) {
      w.SetInt32(0, static_cast<int32_t>(key));
      w.SetInt32(1, static_cast<int32_t>(i));
      continue;
    }
    w.SetInt64(0, key);
    for (uint32_t c = 1; c < stride / 8; ++c) {
      w.SetInt64(c, static_cast<int64_t>(i * 131 + c));
    }
  }
  return data;
}

/// A route and, computed independently of the kernel, each row's
/// destination.
struct RouteCase {
  std::string name;
  ScatterRoute route;
  std::vector<uint32_t> dest;
};

std::vector<RouteCase> RouteCases(const RowVector& data, int fanout,
                                  std::vector<uint8_t>* pids) {
  std::vector<int64_t> keys(data.size());
  for (size_t i = 0; i < data.size(); ++i) keys[i] = KeyAt(data.row(i), 0);
  std::vector<RouteCase> cases;
  RouteCase hash{"hashmod", ScatterRoute::HashMod(fanout, data.schema(), 0),
                 {}};
  for (int64_t k : keys) {
    hash.dest.push_back(static_cast<uint32_t>(
        MixHash64(static_cast<uint64_t>(k)) % static_cast<uint64_t>(fanout)));
  }
  cases.push_back(std::move(hash));
  if ((fanout & (fanout - 1)) == 0) {
    int bits = 0;
    while ((1 << bits) < fanout) ++bits;
    const RadixSpec spec{bits, 3, RadixHash::kMix};
    RouteCase radix{"radix", ScatterRoute::Radix(spec, data.schema(), 0), {}};
    for (int64_t k : keys) radix.dest.push_back(spec.PartitionOf(k));
    cases.push_back(std::move(radix));
  }
  if (fanout <= 256) {
    pids->resize(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      (*pids)[i] = static_cast<uint8_t>((i * 7 + (keys[i] & 0xff)) % fanout);
    }
    RouteCase given{"pids", ScatterRoute::Pids(pids->data(), fanout), {}};
    given.dest.assign(pids->begin(), pids->end());
    cases.push_back(std::move(given));
  }
  return cases;
}

TEST(RangedScatterParity, MatchesStablePartition) {
  for (uint32_t stride : {8u, 16u, 24u, 136u}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4097},
                     size_t{100000}}) {
      RowVectorPtr data = MakeStrided(n, stride, 7 + stride);
      for (int fanout : {1, 4, 64, 256, 300, 1024}) {
        std::vector<uint8_t> pids;
        for (const RouteCase& rc : RouteCases(*data, fanout, &pids)) {
          // Reference: destination-major, input order within each.
          std::vector<int64_t> counts(fanout, 0);
          for (uint32_t d : rc.dest) ++counts[d];
          std::vector<size_t> base(fanout, 0);
          for (int d = 1; d < fanout; ++d) {
            base[d] = base[d - 1] + static_cast<size_t>(counts[d - 1]);
          }
          std::vector<uint8_t> ref_rows(n * stride);
          std::vector<uint32_t> ref_idx(n);
          std::vector<size_t> cursor = base;
          for (size_t i = 0; i < n; ++i) {
            const size_t at = cursor[rc.dest[i]]++;
            std::memcpy(ref_rows.data() + at * stride, data->row(i).data(),
                        stride);
            ref_idx[at] = static_cast<uint32_t>(i);
          }
          for (int workers : {1, 2, 4}) {
            for (bool known : {false, true}) {
              const std::string label =
                  rc.name + " stride=" + std::to_string(stride) +
                  " n=" + std::to_string(n) +
                  " fanout=" + std::to_string(fanout) +
                  " workers=" + std::to_string(workers) +
                  (known ? " known totals" : " counted");
              ExecContext ctx;
              RangedScatter scatter(&ctx, "test", data->data(), n, stride,
                                    rc.route, workers);
              ASSERT_TRUE(scatter.Count(known ? &counts : nullptr).ok())
                  << label;
              ASSERT_EQ(scatter.totals(), counts) << label;
              std::vector<uint8_t> rows(n * stride);
              std::vector<uint32_t> idx(n);
              ASSERT_TRUE(scatter
                              .Scatter(base, InMemoryStageRows(stride), true,
                                       FlatSink(rows.data(), stride,
                                                idx.data()))
                              .ok())
                  << label;
              ASSERT_EQ(rows, ref_rows) << label;
              ASSERT_EQ(idx, ref_idx) << label;
            }
          }
        }
      }
    }
  }
}

TEST(RangedScatterParity, FlushesAreInOrderRunsOfOneDestination) {
  const uint32_t stride = 24;
  RowVectorPtr data = MakeStrided(20000, stride, 5);
  for (int fanout : {4, 300}) {
    std::vector<uint8_t> pids;
    for (const RouteCase& rc : RouteCases(*data, fanout, &pids)) {
      for (int workers : {1, 4}) {
        const std::string label = rc.name + " fanout=" +
                                  std::to_string(fanout) + " workers=" +
                                  std::to_string(workers);
        ExecContext ctx;
        RangedScatter scatter(&ctx, "test", data->data(), data->size(),
                              stride, rc.route, workers);
        ASSERT_TRUE(scatter.Count().ok()) << label;
        // Each range calls the sink from one thread only.
        std::vector<std::vector<ScatterFlush>> log(workers);
        std::vector<std::vector<uint32_t>> logged_idx(workers);
        ASSERT_TRUE(scatter
                        .Scatter({}, 5, true,
                                 [&](const ScatterFlush& f) {
                                   log[f.range].push_back(f);
                                   logged_idx[f.range].insert(
                                       logged_idx[f.range].end(), f.idx,
                                       f.idx + f.count);
                                   for (size_t j = 0; j < f.count; ++j) {
                                     EXPECT_EQ(0, std::memcmp(
                                                      f.rows + j * stride,
                                                      data->row(f.idx[j])
                                                          .data(),
                                                      stride));
                                   }
                                   return Status::OK();
                                 })
                        .ok())
            << label;
        std::vector<int64_t> flushed(fanout, 0);
        std::vector<std::vector<size_t>> next_at(
            workers, std::vector<size_t>(fanout, SIZE_MAX));
        std::vector<int64_t> last_idx(fanout, -1);
        for (int w = 0; w < workers; ++w) {
          size_t pos = 0;
          for (const ScatterFlush& f : log[w]) {
            ASSERT_GT(f.count, 0u) << label;
            ASSERT_LE(f.count, 5u) << label;
            const uint32_t* idx = logged_idx[w].data() + pos;
            pos += f.count;
            for (size_t j = 0; j < f.count; ++j) {
              EXPECT_EQ(rc.dest[idx[j]], static_cast<uint32_t>(f.dest))
                  << label;
              EXPECT_GT(idx[j], last_idx[f.dest]) << label;
              last_idx[f.dest] = idx[j];
            }
            // A range's flushes for one destination are one contiguous
            // run of destination rows, in flush order.
            size_t& at = next_at[w][f.dest];
            if (at != SIZE_MAX) EXPECT_EQ(f.at, at) << label;
            at = f.at + f.count;
            flushed[f.dest] += static_cast<int64_t>(f.count);
          }
        }
        EXPECT_EQ(flushed, scatter.totals()) << label;
      }
    }
  }
}

TEST(RangedScatterParity, TotalsThatDisagreeWithTheDataFail) {
  RowVectorPtr data = MakeKv(4000, 1 << 12, 9);
  const RadixSpec spec{4, 0, RadixHash::kIdentity};
  std::vector<int64_t> counts(spec.fanout(), 0);
  CountRows(*data, spec, 0, counts.data());
  std::vector<int64_t> moved = counts;  // one row claimed by the wrong pid
  --moved[2];
  ++moved[3];
  std::vector<int64_t> shorted = counts;
  --shorted[5];
  std::vector<int64_t> negative = counts;
  negative[0] = -1;
  for (const auto* known : {&moved, &shorted, &negative}) {
    for (int workers : {1, 4}) {
      ExecContext ctx;
      RangedScatter scatter(&ctx, "test", data->data(), data->size(),
                            data->row_size(),
                            ScatterRoute::Radix(spec, data->schema(), 0),
                            workers);
      Status st = scatter.Count(known);
      if (st.ok()) {
        // Every flush stays inside the region the totals give it.
        std::vector<size_t> base(spec.fanout(), 0);
        for (int d = 1; d < spec.fanout(); ++d) {
          base[d] = base[d - 1] + static_cast<size_t>((*known)[d - 1]);
        }
        st = scatter.Scatter(base, 8, false, [&](const ScatterFlush& f) {
          EXPECT_GE(f.at, base[f.dest]);
          EXPECT_LE(f.at + f.count,
                    base[f.dest] + static_cast<size_t>((*known)[f.dest]));
          return Status::OK();
        });
      }
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << "workers=" << workers << ": " << st.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// The drain's copy branch: every blocking operator drains its input into
// one span at every thread count. A stream of several non-durable scratch
// batches (a Filter over a RowScan of two collections) is copied, a single
// durable collection adopted; both must give the same bytes, at 1 and 4
// threads, vectorized or not.
// ---------------------------------------------------------------------------

TEST(DrainCopyParity, ScratchBatchesMatchOneCollection) {
  constexpr int64_t kBound = 3000;
  RowVectorPtr data = MakeKv(40000, 4000, 41);
  RowVectorPtr kept = RowVector::Make(KeyValueSchema());
  for (size_t i = 0; i < data->size(); ++i) {
    if (data->row(i).GetInt64(0) < kBound) kept->AppendRaw(data->row(i).data());
  }
  const size_t half = data->size() / 2;
  RowVectorPtr lo = RowVector::Make(KeyValueSchema());
  RowVectorPtr hi = RowVector::Make(KeyValueSchema());
  lo->AppendRawBatch(data->data(), half);
  hi->AppendRawBatch(data->data() + half * data->row_size(),
                     data->size() - half);
  auto one_collection = [&]() -> SubOpPtr {
    return std::make_unique<RowScan>(std::make_unique<CollectionSource>(
        std::vector<RowVectorPtr>{kept}));
  };
  auto scratch_batches = [&]() -> SubOpPtr {
    return std::make_unique<Filter>(
        std::make_unique<RowScan>(std::make_unique<CollectionSource>(
            std::vector<RowVectorPtr>{lo, hi})),
        ex::Lt(ex::Col(0), ex::Lit(kBound)));
  };
  {
    // The filtered stream really arrives as several scratch batches.
    ExecContext ctx;
    SubOpPtr stream = scratch_batches();
    ASSERT_TRUE(stream->Open(&ctx).ok());
    RowBatch batch;
    size_t batches = 0;
    while (stream->PullBatch(&batch)) {
      EXPECT_EQ(batch.ShareWhole(), nullptr);
      ++batches;
    }
    EXPECT_GT(batches, 1u);
  }

  std::vector<AggSpec> keyless_aggs;
  keyless_aggs.push_back(
      AggSpec{AggKind::kSum, ex::Col(1), "s", AtomType::kFloat64});
  keyless_aggs.push_back(
      AggSpec{AggKind::kCount, nullptr, "c", AtomType::kInt64});
  const RadixSpec spec{4, 0, RadixHash::kIdentity};
  // Every blocking operator under test, as the partitions it emits (one
  // partition for the record-stream outputs of the aggregations).
  using MakeInput = std::function<SubOpPtr()>;
  auto run = [&](const std::string& op, const MakeInput& input, int threads,
                 bool vectorized) {
    StatsRegistry stats;
    ExecContext ctx;
    InitCtx(&ctx, threads, &stats);
    ctx.options.enable_vectorized = vectorized;
    if (op == "reduce_by_key") {
      ReduceByKey r(input(), {0}, IntAggs(), KeyValueSchema());
      return std::vector<RowVectorPtr>{DrainRoot(&r, &ctx, false)};
    }
    if (op == "reduce") {
      Reduce r(input(), keyless_aggs, KeyValueSchema());
      return std::vector<RowVectorPtr>{DrainRoot(&r, &ctx, false)};
    }
    if (op == "partition") {
      PartitionOp p(input(), spec, 0);
      return DrainParts(&p, &ctx);
    }
    PipelinePlan plan;
    plan.Add("lh", std::make_unique<LocalHistogram>(input(), spec, 0));
    plan.SetOutput(std::make_unique<LocalPartition>(
        input(), plan.MakeRef("lh"), spec, 0));
    return DrainParts(&plan, &ctx);
  };
  for (const std::string op :
       {"reduce_by_key", "reduce", "partition", "histogram_partition"}) {
    const std::vector<RowVectorPtr> expected =
        run(op, one_collection, 1, true);
    ASSERT_FALSE(expected.empty()) << op;
    ASSERT_GT(expected[0]->size(), 0u) << op;
    for (int threads : {1, 4}) {
      for (bool vectorized : {true, false}) {
        for (bool scratch : {false, true}) {
          const std::string label =
              op + " threads=" + std::to_string(threads) +
              " vectorized=" + std::to_string(vectorized) +
              (scratch ? " scratch batches" : " one collection");
          const std::vector<RowVectorPtr> got =
              run(op, scratch ? MakeInput(scratch_batches)
                              : MakeInput(one_collection),
                  threads, vectorized);
          ASSERT_EQ(expected.size(), got.size()) << label;
          for (size_t p = 0; p < got.size(); ++p) {
            ExpectBytesEqual(*expected[p], *got[p],
                             label + " part " + std::to_string(p));
          }
        }
      }
    }
  }
}

TEST(DrainLayoutCheck, ReduceByKeyRejectsMixedRowLayouts) {
  // 24-byte rows next to 16-byte KV rows in one stream: the drain (or the
  // tuple batching of row mode) must refuse the second layout instead of
  // copying rows of the first one's stride, and ReduceByKey must refuse a
  // drained layout other than its input schema.
  const Schema wide({Field::I64("k"), Field::I64("v"), Field::I64("w")});
  RowVectorPtr w = RowVector::Make(wide);
  for (int64_t i = 0; i < 600; ++i) {
    RowWriter row = w->AppendRow();
    row.SetInt64(0, i % 7);
    row.SetInt64(1, i);
    row.SetInt64(2, -i);
  }
  RowVectorPtr kv = MakeKv(600, 7, 43);
  const std::vector<std::vector<RowVectorPtr>> inputs = {
      {w, kv}, {kv, w}, {kv}};
  for (int threads : {1, 4}) {
    for (bool vectorized : {true, false}) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " vectorized=" +
                     std::to_string(vectorized) + " input " +
                     std::to_string(i));
        StatsRegistry stats;
        ExecContext ctx;
        InitCtx(&ctx, threads, &stats);
        ctx.options.enable_vectorized = vectorized;
        ReduceByKey r(std::make_unique<RowScan>(
                          std::make_unique<CollectionSource>(inputs[i])),
                      {0}, IntAggs(), wide);
        ASSERT_TRUE(r.Open(&ctx).ok());
        Tuple t;
        EXPECT_FALSE(r.Next(&t));
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
            << r.status().ToString();
        EXPECT_TRUE(r.Close().ok());
      }
    }
  }
}

TEST(DrainLayoutCheck, BuildProbeRejectsMismatchedRowLayouts) {
  // 8-byte rows against the 16-byte KV schema, on the probe side (in
  // memory and on the Grace spill path) and on the build side: the join
  // must refuse them instead of reading rows of the wrong stride.
  const Schema narrow({Field::I64("k")});
  RowVectorPtr n = RowVector::Make(narrow);
  for (int64_t i = 0; i < 3000; ++i) n->AppendRow().SetInt64(0, i % 97);
  RowVectorPtr kv = MakeKv(3000, 97, 44);
  struct Case {
    const char* name;
    RowVectorPtr build, probe;
    size_t memory_limit;
  };
  const Case cases[] = {{"probe", kv, n, 0},
                        {"probe, Grace", kv, n, size_t{16} << 10},
                        {"build", n, kv, 0}};
  for (int threads : {1, 4}) {
    for (bool vectorized : {true, false}) {
      for (const Case& c : cases) {
        SCOPED_TRACE(std::string(c.name) + " threads=" +
                     std::to_string(threads) +
                     " vectorized=" + std::to_string(vectorized));
        storage::BlobStore store;
        MemoryBudget budget(c.memory_limit);
        StatsRegistry stats;
        ExecContext ctx;
        InitCtx(&ctx, threads, &stats);
        ctx.options.enable_vectorized = vectorized;
        ctx.options.memory_limit_bytes = c.memory_limit;
        ctx.budget = &budget;
        ctx.spill_store = &store;
        auto j = FlatJoin(c.build, c.probe, JoinType::kInner);
        ASSERT_TRUE(j->Open(&ctx).ok());
        Tuple t;
        EXPECT_FALSE(j->Next(&t));
        EXPECT_EQ(j->status().code(), StatusCode::kInvalidArgument)
            << j->status().ToString();
        EXPECT_TRUE(j->Close().ok());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sort / TopK: NaN total order (the CompareRows strict-weak-ordering
// bugfix) + morsel-parallel run formation with loser-tree merge. The
// TPC-H block below additionally runs the Q3/Q18 ORDER BY ... LIMIT
// plans through the parallel driver-side TopK at 8 threads.
// ---------------------------------------------------------------------------

Schema SortSchema() {
  return Schema({Field::F64("key"), Field::I64("seq"), Field::F64("key2")});
}

/// Float rows with adversarial keys: NaNs, +/-0.0, +/-inf, and heavy
/// duplicates (integral keys) so the original-row-index tie-break is
/// exercised everywhere. `seq` records the input position.
RowVectorPtr MakeFloatRows(size_t rows, uint32_t seed) {
  RowVectorPtr data = RowVector::Make(SortSchema());
  data->Reserve(rows);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-100.0, 100.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < rows; ++i) {
    RowWriter w = data->AppendRow();
    double k;
    switch (rng() % 16) {
      case 0: k = nan; break;
      case 1: k = 0.0; break;
      case 2: k = -0.0; break;
      case 3: k = (rng() % 2) ? inf : -inf; break;
      default: k = std::floor(dist(rng)); break;  // dup-heavy
    }
    w.SetFloat64(0, k);
    w.SetInt64(1, static_cast<int64_t>(i));
    w.SetFloat64(2, std::floor(dist(rng)));
  }
  return data;
}

SubOpPtr MakeSort(const RowVectorPtr& data, std::vector<SortKey> keys) {
  return std::make_unique<SortOp>(
      std::make_unique<RowScan>(std::make_unique<CollectionSource>(
          std::vector<RowVectorPtr>{data})),
      std::move(keys), data->schema());
}

SubOpPtr MakeTopK(const RowVectorPtr& data, std::vector<SortKey> keys,
                  size_t k) {
  return std::make_unique<TopK>(
      std::make_unique<RowScan>(std::make_unique<CollectionSource>(
          std::vector<RowVectorPtr>{data})),
      std::move(keys), k, data->schema());
}

TEST(SortNaNOrder, TotalOrderMatchesStableOracle) {
  // Independent oracle: stable partition of the input into non-NaN rows
  // stable-sorted by (value, input order) and NaN rows in input order
  // appended last (ascending) / prepended (descending).
  RowVectorPtr data = MakeFloatRows(4000, 17);
  for (bool desc : {false, true}) {
    StatsRegistry stats;
    ExecContext ctx;
    InitCtx(&ctx, 1, &stats);
    auto sort = MakeSort(data, {{0, desc}});
    RowVectorPtr out = DrainRoot(sort.get(), &ctx, /*batched=*/true);
    ASSERT_EQ(out->size(), data->size());

    std::vector<uint32_t> oracle(data->size());
    for (uint32_t i = 0; i < oracle.size(); ++i) oracle[i] = i;
    std::stable_sort(oracle.begin(), oracle.end(),
                     [&](uint32_t x, uint32_t y) {
                       double a = data->row(x).GetFloat64(0);
                       double b = data->row(y).GetFloat64(0);
                       bool na = std::isnan(a), nb = std::isnan(b);
                       if (na || nb) return desc ? (na && !nb) : (!na && nb);
                       return desc ? b < a : a < b;
                     });
    for (size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_EQ(out->row(i).GetInt64(1), data->row(oracle[i]).GetInt64(1))
          << "desc=" << desc << " position " << i;
    }
    // Placement: NaNs last ascending, first descending.
    size_t nans = 0;
    for (size_t i = 0; i < data->size(); ++i) {
      nans += std::isnan(data->row(i).GetFloat64(0));
    }
    ASSERT_GT(nans, 0u);
    for (size_t i = 0; i < out->size(); ++i) {
      bool in_nan_block = desc ? i < nans : i >= out->size() - nans;
      EXPECT_EQ(std::isnan(out->row(i).GetFloat64(0)), in_nan_block)
          << "desc=" << desc << " position " << i;
    }
  }
}

TEST(SortNaNOrder, NegativeZeroTiesKeepInputOrder) {
  // -0.0 == 0.0 under the total order: rows with either key form one tie
  // group emitted in input order (the stable tie-break), regardless of
  // the zero's sign.
  RowVectorPtr data = RowVector::Make(SortSchema());
  const double zeros[] = {0.0, -0.0, -0.0, 0.0, -0.0};
  for (size_t i = 0; i < 5; ++i) {
    RowWriter w = data->AppendRow();
    w.SetFloat64(0, zeros[i]);
    w.SetInt64(1, static_cast<int64_t>(i));
    w.SetFloat64(2, 0.0);
  }
  StatsRegistry stats;
  ExecContext ctx;
  InitCtx(&ctx, 1, &stats);
  auto sort = MakeSort(data, {{0, false}});
  RowVectorPtr out = DrainRoot(sort.get(), &ctx, false);
  ASSERT_EQ(out->size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out->row(i).GetInt64(1), static_cast<int64_t>(i));
    // The byte pattern (zero sign) must survive the permutation intact.
    EXPECT_EQ(std::signbit(out->row(i).GetFloat64(0)), std::signbit(zeros[i]));
  }
}

class SortParallelParity
    : public ::testing::TestWithParam<std::vector<SortKey>> {};

TEST_P(SortParallelParity, FourThreadsByteEqual) {
  const std::vector<SortKey> keys = GetParam();
  RowVectorPtr data = MakeFloatRows(50000, 41);
  for (bool batched : {false, true}) {
    StatsRegistry stats1, stats4;
    ExecContext c1, c4;
    InitCtx(&c1, 1, &stats1);
    InitCtx(&c4, 4, &stats4);
    auto s1 = MakeSort(data, keys);
    auto s4 = MakeSort(data, keys);
    RowVectorPtr out1 = DrainRoot(s1.get(), &c1, batched);
    RowVectorPtr out4 = DrainRoot(s4.get(), &c4, batched);
    ASSERT_EQ(out1->size(), data->size());
    ExpectBytesEqual(*out1, *out4,
                     std::string("sort batched=") + (batched ? "1" : "0"));
    ExpectNoFallback(stats4, "Sort");
    EXPECT_GT(stats4.GetCounter("parallel.sort.runs"), 0)
        << "4-thread sort did not take the parallel run-sort path";
    if (batched) {
      EXPECT_EQ(stats4.GetCounter("vectorized.default_adapter.Sort"), 0)
          << "Sort served batches through the default adapter";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Keys, SortParallelParity,
    ::testing::Values(std::vector<SortKey>{{0, false}},
                      std::vector<SortKey>{{0, true}},
                      std::vector<SortKey>{{0, true}, {2, false}},
                      std::vector<SortKey>{{2, false}, {0, false}}),
    [](const ::testing::TestParamInfo<std::vector<SortKey>>& info) {
      std::string name;
      for (const SortKey& k : info.param) {
        name += "c" + std::to_string(k.col) + (k.desc ? "d" : "a");
      }
      return name;
    });

TEST(TopKParallelParity, ByteEqualAndPrefixOfFullSort) {
  RowVectorPtr data = MakeFloatRows(50000, 43);
  const std::vector<SortKey> keys = {{0, true}, {2, false}};
  StatsRegistry stats_full;
  ExecContext ctx_full;
  InitCtx(&ctx_full, 1, &stats_full);
  auto full = MakeSort(data, keys);
  RowVectorPtr sorted = DrainRoot(full.get(), &ctx_full, true);
  for (size_t k : {size_t{0}, size_t{1}, size_t{100}, size_t{4096},
                   data->size(), 2 * data->size()}) {
    for (bool batched : {false, true}) {
      StatsRegistry stats1, stats4;
      ExecContext c1, c4;
      InitCtx(&c1, 1, &stats1);
      InitCtx(&c4, 4, &stats4);
      auto t1 = MakeTopK(data, keys, k);
      auto t4 = MakeTopK(data, keys, k);
      RowVectorPtr out1 = DrainRoot(t1.get(), &c1, batched);
      RowVectorPtr out4 = DrainRoot(t4.get(), &c4, batched);
      // k is a literal count: k = 0 emits nothing (LIMIT 0 semantics).
      const size_t want = std::min(k, data->size());
      ASSERT_EQ(out1->size(), want);
      ExpectBytesEqual(*out1, *out4, "topk k=" + std::to_string(k));
      ExpectNoFallback(stats4, "Sort");
      // Limit semantics: top-k must be exactly the first k of the full
      // sorted output (the bounded selection changes cost, not order).
      if (out1->byte_size() > 0) {
        ASSERT_EQ(0, std::memcmp(sorted->data(), out1->data(),
                                 out1->byte_size()))
            << "topk k=" << k << " is not a prefix of the full sort";
      }
    }
  }
}

TEST(SortTopKParallelParity, EmptyAndTinyInputs) {
  for (size_t rows : {size_t{0}, size_t{1}, size_t{3}}) {
    RowVectorPtr data = MakeFloatRows(rows, 47);
    for (bool topk : {false, true}) {
      StatsRegistry stats1, stats4;
      ExecContext c1, c4;
      InitCtx(&c1, 1, &stats1);
      InitCtx(&c4, 4, &stats4);
      auto p1 = topk ? MakeTopK(data, {{0, false}}, 2)
                     : MakeSort(data, {{0, false}});
      auto p4 = topk ? MakeTopK(data, {{0, false}}, 2)
                     : MakeSort(data, {{0, false}});
      RowVectorPtr out1 = DrainRoot(p1.get(), &c1, true);
      RowVectorPtr out4 = DrainRoot(p4.get(), &c4, true);
      ExpectBytesEqual(*out1, *out4,
                       "tiny sort rows=" + std::to_string(rows));
    }
  }
}

TEST(SortTopKParallelParity, MixedNextAndNextBatch) {
  RowVectorPtr data = MakeFloatRows(30000, 53);
  auto drain_mixed = [&](int threads) {
    StatsRegistry stats;
    ExecContext ctx;
    InitCtx(&ctx, threads, &stats);
    auto s = MakeSort(data, {{0, false}});
    EXPECT_TRUE(s->Open(&ctx).ok());
    RowVectorPtr out = RowVector::Make(data->schema());
    Tuple t;
    // A few row pulls first, then batch pulls for the remainder: both
    // protocols share one emit cursor over the sorted permutation.
    for (int i = 0; i < 100 && s->Next(&t); ++i) {
      out->AppendRaw(t[0].row().data());
    }
    RowBatch batch;
    while (s->NextBatch(&batch)) {
      out->AppendRawBatch(batch.data(), batch.size());
    }
    EXPECT_TRUE(s->status().ok()) << s->status().ToString();
    EXPECT_TRUE(s->Close().ok());
    return out;
  };
  RowVectorPtr out1 = drain_mixed(1);
  RowVectorPtr out4 = drain_mixed(4);
  ASSERT_EQ(out1->size(), data->size());
  ExpectBytesEqual(*out1, *out4, "mixed protocol sort");
}

// ---------------------------------------------------------------------------
// Scan pipelines: MaterializeRowVector over a predicate-owning ColumnScan
// splits the scan's rows into contiguous ranges, selects each range's
// survivors on the columns, and writes every survivor once into its
// worker's slice of one result — byte-equal to one worker in batch and
// row mode, across table boundaries and for ranges smaller than a morsel.
// ---------------------------------------------------------------------------

Schema TaggedSchema() {
  return Schema({Field::I64("key"), Field::I64("value"), Field::Str("tag", 8)});
}

/// Rows i = 0..rows-1 with key i, a random value in [0, 1000) and a short
/// tag "t0".."t96".
ColumnTablePtr MakeTagged(size_t rows, uint32_t seed) {
  ColumnTablePtr table = ColumnTable::Make(TaggedSchema());
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    table->column(0).AppendInt64(static_cast<int64_t>(i));
    table->column(1).AppendInt64(static_cast<int64_t>(rng() % 1000));
    table->column(2).AppendString("t" + std::to_string(rng() % 97));
  }
  table->FinishBulkLoad();
  return table;
}

/// Cuts `all` into tables of `sizes` rows plus one holding the rest.
std::vector<ColumnTablePtr> SplitTable(const ColumnTablePtr& all,
                                       const std::vector<size_t>& sizes) {
  std::vector<ColumnTablePtr> parts;
  size_t pos = 0;
  for (size_t i = 0; i <= sizes.size(); ++i) {
    const size_t n = i < sizes.size() ? sizes[i] : all->num_rows() - pos;
    ColumnTablePtr part = ColumnTable::Make(all->schema());
    for (size_t r = pos; r < pos + n; ++r) {
      part->column(0).AppendInt64(all->column(0).GetInt64(r));
      part->column(1).AppendInt64(all->column(1).GetInt64(r));
      part->column(2).AppendString(all->column(2).GetString(r));
    }
    part->FinishBulkLoad();
    parts.push_back(std::move(part));
    pos += n;
  }
  return parts;
}

/// The scan's selection: ⟨tag, value⟩, columns 2 and 1 of the tables.
Schema PrunedSchema() {
  return Schema({Field::Str("tag", 8), Field::I64("value")});
}

/// MaterializeRowVector(ColumnScan(sources, columns, pred)), producing
/// `schema` rows; by default the ⟨tag, value⟩ selection. `pred` reads the
/// tables' columns (TaggedSchema), selected or not.
SubOpPtr ScanPipeline(const std::vector<ColumnTablePtr>& sources,
                      const ExprPtr& pred,
                      std::vector<int> columns = {2, 1},
                      const Schema& schema = PrunedSchema()) {
  std::vector<Tuple> tables;
  for (const ColumnTablePtr& t : sources) tables.push_back({Item(t)});
  return std::make_unique<MaterializeRowVector>(
      std::make_unique<ColumnScan>(
          std::make_unique<TupleSource>(std::move(tables)), schema,
          std::move(columns), pred, TaggedSchema()),
      schema);
}

using RowTest = std::function<bool(const ColumnTable&, size_t)>;

/// Keeps the rows whose value is below `bound`.
RowTest ValueBelow(int64_t bound) {
  return [bound](const ColumnTable& t, size_t i) {
    return t.column(1).GetInt64(i) < bound;
  };
}

/// The pipeline's result computed row by row over the Column getters,
/// sharing no operator code: the rows `keep` accepts, as table `columns`
/// in the layout of `schema`.
RowVectorPtr ReferenceScan(const std::vector<ColumnTablePtr>& sources,
                           const RowTest& keep,
                           const std::vector<int>& columns = {2, 1},
                           const Schema& schema = PrunedSchema()) {
  RowVectorPtr out = RowVector::Make(schema);
  for (const ColumnTablePtr& src : sources) {
    for (size_t i = 0; i < src->num_rows(); ++i) {
      if (!keep(*src, i)) continue;
      RowWriter w = out->AppendRow();
      for (size_t k = 0; k < columns.size(); ++k) {
        const Column& c = src->column(columns[k]);
        const int field = static_cast<int>(k);
        if (c.type() == AtomType::kString) {
          w.SetString(field, c.GetString(i));
        } else {
          w.SetInt64(field, c.GetInt64(i));
        }
      }
    }
  }
  return out;
}

/// Runs a MaterializeRowVector root once; returns its collection, or
/// null with `*st` set when it failed.
RowVectorPtr RunMaterialize(SubOperator* root, int threads, bool vectorized,
                            StatsRegistry* stats, Status* st,
                            size_t min_rows = 256) {
  ExecContext ctx;
  InitCtx(&ctx, threads, stats);
  ctx.options.enable_vectorized = vectorized;
  ctx.options.parallel_min_rows = min_rows;
  *st = root->Open(&ctx);
  if (!st->ok()) return nullptr;
  Tuple t;
  const bool got = root->Next(&t);
  *st = root->status();
  EXPECT_TRUE(root->Close().ok());
  if (!got) return nullptr;
  EXPECT_EQ(t.size(), 1u);
  return t[0].collection();
}

/// Pulls `scan` on its own, through NextBatch() or through Next() one
/// row at a time; returns its rows, or null with `*st` set on failure.
RowVectorPtr PullScan(SubOperator* scan, const Schema& schema, bool batches,
                      Status* st) {
  ExecContext ctx;
  StatsRegistry stats;
  InitCtx(&ctx, 1, &stats);
  *st = scan->Open(&ctx);
  if (!st->ok()) return nullptr;
  RowVectorPtr out = RowVector::Make(schema);
  if (batches) {
    RowBatch batch;
    while (scan->NextBatch(&batch)) {
      EXPECT_GT(batch.size(), 0u);
      out->AppendRawBatch(batch.data(), batch.size());
    }
  } else {
    Tuple t;
    while (scan->Next(&t)) out->AppendRaw(t[0].row().data());
  }
  *st = scan->status();
  EXPECT_TRUE(scan->Close().ok());
  return st->ok() ? out : nullptr;
}

/// Checks 1, 2 and 4 threads, batch and row mode, against `expected`;
/// then the leaf pulled on its own through NextBatch() and Next().
void ExpectScanParity(const std::function<SubOpPtr()>& make,
                      const RowVector& expected, const std::string& label,
                      size_t min_rows = 256) {
  for (int threads : {1, 2, 4}) {
    for (bool vectorized : {true, false}) {
      const std::string run_label = label +
                                    " threads=" + std::to_string(threads) +
                                    " vectorized=" +
                                    std::to_string(vectorized);
      StatsRegistry stats;
      Status st;
      SubOpPtr root = make();
      RowVectorPtr got =
          RunMaterialize(root.get(), threads, vectorized, &stats, &st,
                         min_rows);
      ASSERT_TRUE(st.ok()) << run_label << ": " << st.ToString();
      ASSERT_NE(got, nullptr) << run_label;
      EXPECT_TRUE(got->schema().Equals(expected.schema())) << run_label;
      ExpectBytesEqual(expected, *got, run_label);
      EXPECT_EQ(stats.times().count("phase.scan_pipeline"), 1u) << run_label;
      for (const auto& [key, value] : stats.counters()) {
        EXPECT_TRUE(key.rfind("parallel.serial_fallback.", 0) != 0)
            << run_label << ": " << key << " = " << value;
      }
    }
  }
  for (bool batches : {true, false}) {
    const std::string run_label =
        label + (batches ? " leaf NextBatch" : " leaf Next");
    SubOpPtr root = make();
    Status st;
    RowVectorPtr got =
        PullScan(root->child(0), expected.schema(), batches, &st);
    ASSERT_TRUE(st.ok()) << run_label << ": " << st.ToString();
    ExpectBytesEqual(expected, *got, run_label);
  }
}

TEST(ScanPipelineParity, MultiTableSource) {
  // Ranges straddle table boundaries (and an empty table), and every
  // table but the last is smaller than a 1024-row morsel.
  ColumnTablePtr all = MakeTagged(7000, 71);
  std::vector<ColumnTablePtr> parts = SplitTable(all, {1, 255, 0, 600});
  const ExprPtr pred = ex::Lt(ex::Col(1), ex::Lit(int64_t{300}));
  RowVectorPtr expected = ReferenceScan(parts, ValueBelow(300));
  ASSERT_GT(expected->size(), 0u);
  ASSERT_LT(expected->size(), all->num_rows());
  ExpectScanParity([&] { return ScanPipeline(parts, pred); }, *expected,
                   "multi-table");
  ExpectScanParity([&] { return ScanPipeline({all}, pred); }, *expected,
                   "one table");
}

TEST(ScanPipelineParity, EmptyFragment) {
  const ExprPtr pred = ex::Lt(ex::Col(1), ex::Lit(int64_t{300}));
  RowVectorPtr expected = RowVector::Make(PrunedSchema());
  ExpectScanParity([&] { return ScanPipeline({}, pred); }, *expected,
                   "no table");
  ColumnTablePtr empty = ColumnTable::Make(TaggedSchema());
  ExpectScanParity([&] { return ScanPipeline({empty, empty}, pred); },
                   *expected, "empty tables");
}

TEST(ScanPipelineParity, FewerRowsThanWorkers) {
  // Three rows on four threads: one worker at the usual sizing, and one
  // row per worker when every row is worth a worker.
  ColumnTablePtr tiny = MakeTagged(3, 73);
  for (size_t min_rows : {size_t{256}, size_t{1}}) {
    ExpectScanParity([&] { return ScanPipeline({tiny}, nullptr); },
                     *ReferenceScan({tiny}, ValueBelow(1000)),
                     "three rows min_rows=" + std::to_string(min_rows),
                     min_rows);
    ExpectScanParity(
        [&] {
          return ScanPipeline({tiny},
                              ex::Ge(ex::Col(0), ex::Lit(int64_t{2})));
        },
        *ReferenceScan({tiny},
                       [](const ColumnTable&, size_t i) { return i >= 2; }),
        "last of three rows min_rows=" + std::to_string(min_rows), min_rows);
  }
}

TEST(ScanPipelineParity, NoFilter) {
  ColumnTablePtr all = MakeTagged(6000, 77);
  const std::vector<ColumnTablePtr> parts = SplitTable(all, {1500});
  ExpectScanParity([&] { return ScanPipeline(parts, nullptr); },
                   *ReferenceScan(parts, ValueBelow(1000)), "selection only");
  // A bare ColumnScan of every column gives the rows back unchanged.
  ExpectScanParity(
      [&] { return ScanPipeline(parts, nullptr, {}, TaggedSchema()); },
      *all->ToRowVector(), "bare scan");
}

TEST(ScanPipelineParity, ColumnsSelectedOutOfOrder) {
  // ⟨tag, key, value⟩ = columns 2, 0, 1, filtered on the key.
  ColumnTablePtr all = MakeTagged(5000, 83);
  const std::vector<ColumnTablePtr> parts = SplitTable(all, {700, 1300});
  const Schema schema(
      {Field::Str("tag", 8), Field::I64("key"), Field::I64("value")});
  RowVectorPtr expected = ReferenceScan(
      parts,
      [](const ColumnTable& t, size_t i) {
        return t.column(0).GetInt64(i) >= 2500;
      },
      {2, 0, 1}, schema);
  const ExprPtr pred = ex::Ge(ex::Col(0), ex::Lit(int64_t{2500}));
  ExpectScanParity(
      [&] { return ScanPipeline(parts, pred, {2, 0, 1}, schema); },
      *expected, "columns 2,0,1");
}

TEST(ScanPipelineParity, StringPredicates) {
  // =, <, IN and LIKE on the tag: string loads over the column's
  // offsets + arena, alone and under AND/OR.
  ColumnTablePtr all = MakeTagged(6000, 91);
  const std::vector<ColumnTablePtr> parts = SplitTable(all, {900, 2100});
  auto tag = [](const ColumnTable& t, size_t i) {
    return std::string(t.column(2).GetString(i));
  };
  struct Case {
    const char* name;
    ExprPtr pred;
    RowTest keep;
  };
  const std::vector<Case> cases = {
      {"eq", ex::Eq(ex::Col(2), ex::Lit(std::string("t5"))),
       [&](const ColumnTable& t, size_t i) { return tag(t, i) == "t5"; }},
      {"lt", ex::Lt(ex::Col(2), ex::Lit(std::string("t3"))),
       [&](const ColumnTable& t, size_t i) { return tag(t, i) < "t3"; }},
      {"in", ex::InStr(ex::Col(2), {"t1", "t22", "t96", "x"}),
       [&](const ColumnTable& t, size_t i) {
         const std::string v = tag(t, i);
         return v == "t1" || v == "t22" || v == "t96";
       }},
      {"like", ex::Like(ex::Col(2), "t_7"),
       [&](const ColumnTable& t, size_t i) {
         const std::string v = tag(t, i);
         return v.size() == 3 && v[2] == '7';
       }},
      {"or", ex::Or(ex::Like(ex::Col(2), "t9%"),
                    ex::And(ex::Lt(ex::Col(1), ex::Lit(int64_t{50})),
                            ex::Ne(ex::Col(2), ex::Lit(std::string("t4"))))),
       [&](const ColumnTable& t, size_t i) {
         const std::string v = tag(t, i);
         return v.rfind("t9", 0) == 0 ||
                (t.column(1).GetInt64(i) < 50 && v != "t4");
       }},
  };
  for (const Case& c : cases) {
    RowVectorPtr expected = ReferenceScan(parts, c.keep);
    ASSERT_GT(expected->size(), 0u) << c.name;
    ExpectScanParity([&] { return ScanPipeline(parts, c.pred); }, *expected,
                     c.name);
  }
}

TEST(ScanPipelineParity, PredicateOnPrunedColumns) {
  // The predicate reads the key and the tag; the scan emits only the
  // value.
  ColumnTablePtr all = MakeTagged(5000, 93);
  const std::vector<ColumnTablePtr> parts = SplitTable(all, {2500});
  const Schema schema({Field::I64("value")});
  const ExprPtr pred = ex::And(ex::Lt(ex::Col(0), ex::Lit(int64_t{4000})),
                               ex::Like(ex::Col(2), "t2%"));
  RowVectorPtr expected = ReferenceScan(
      parts,
      [](const ColumnTable& t, size_t i) {
        return t.column(0).GetInt64(i) < 4000 &&
               t.column(2).GetString(i).rfind("t2", 0) == 0;
      },
      {1}, schema);
  ASSERT_GT(expected->size(), 0u);
  ExpectScanParity([&] { return ScanPipeline(parts, pred, {1}, schema); },
                   *expected, "pruned predicate columns");
}

TEST(ScanPipelineParity, NoneAndAllSurvive) {
  ColumnTablePtr all = MakeTagged(5000, 95);
  const std::vector<ColumnTablePtr> parts = SplitTable(all, {1700});
  ExpectScanParity(
      [&] {
        return ScanPipeline(parts, ex::Lt(ex::Col(1), ex::Lit(int64_t{0})));
      },
      *RowVector::Make(PrunedSchema()), "none survive");
  ExpectScanParity(
      [&] {
        return ScanPipeline(parts,
                            ex::Lt(ex::Col(1), ex::Lit(int64_t{1000})));
      },
      *ReferenceScan(parts, ValueBelow(1000)), "all survive");
}

TEST(ScanPipelineParity, SurvivorsOnlyInLastRange) {
  // Only keys of the last 100 rows survive: every worker but the last
  // writes an empty slice.
  ColumnTablePtr all = MakeTagged(4000, 97);
  const std::vector<ColumnTablePtr> parts = SplitTable(all, {3000, 950});
  RowVectorPtr expected = ReferenceScan(
      parts, [](const ColumnTable& t, size_t i) {
        return t.column(0).GetInt64(i) >= 3900;
      });
  ASSERT_EQ(expected->size(), 100u);
  ExpectScanParity(
      [&] {
        return ScanPipeline(parts,
                            ex::Ge(ex::Col(0), ex::Lit(int64_t{3900})));
      },
      *expected, "last range");
}

TEST(ScanPipelineParity, MismatchedTableIsAnError) {
  // A table whose selected column has another type than the scan's
  // field, or whose predicate column has another type than the source's:
  // InvalidArgument, never a misread.
  ColumnTablePtr all = MakeTagged(100, 89);
  const Schema wrong({Field::I64("tag"), Field::I64("value")});
  std::vector<Tuple> tables = {{Item(all)}};
  const Schema wrong_source(
      {Field::I64("key"), Field::Str("value", 8), Field::Str("tag", 8)});
  for (bool vectorized : {true, false}) {
    StatsRegistry stats;
    Status st;
    SubOpPtr root = ScanPipeline({all}, nullptr, {2, 1}, wrong);
    EXPECT_EQ(RunMaterialize(root.get(), 4, vectorized, &stats, &st),
              nullptr);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    MaterializeRowVector bad_source(
        std::make_unique<ColumnScan>(
            std::make_unique<TupleSource>(tables), PrunedSchema(),
            std::vector<int>{2, 1},
            ex::Eq(ex::Col(1), ex::Lit(std::string("x"))), wrong_source),
        PrunedSchema());
    EXPECT_EQ(RunMaterialize(&bad_source, 4, vectorized, &stats, &st),
              nullptr);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
}

TEST(ScanPipelineParity, ErrorInLastRangeSurfaces) {
  // Keys at or above the cut evaluate the string column as the
  // predicate, a hard error; only the last of four ranges holds them.
  ColumnTablePtr all = MakeTagged(4000, 79);
  auto pred_from = [](int64_t cut) {
    return ex::If(ex::Lt(ex::Col(0), ex::Lit(cut)), ex::Lit(int64_t{1}),
                  ex::Col(2));
  };
  for (bool vectorized : {true, false}) {
    for (int threads : {1, 4}) {
      const std::string label = "threads=" + std::to_string(threads) +
                                " vectorized=" + std::to_string(vectorized);
      StatsRegistry stats;
      Status st;
      SubOpPtr ok_root =
          ScanPipeline({all}, pred_from(4000), {}, TaggedSchema());
      RowVectorPtr got =
          RunMaterialize(ok_root.get(), threads, vectorized, &stats, &st);
      ASSERT_TRUE(st.ok()) << label << ": " << st.ToString();
      ASSERT_EQ(got->size(), all->num_rows()) << label;
      SubOpPtr bad_root =
          ScanPipeline({all}, pred_from(3990), {}, TaggedSchema());
      got = RunMaterialize(bad_root.get(), threads, vectorized, &stats, &st);
      EXPECT_EQ(got, nullptr) << label;
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << label << ": " << st.ToString();
      EXPECT_EQ(bad_root->status().code(), StatusCode::kInvalidArgument)
          << label;
      for (const auto& [key, value] : stats.counters()) {
        EXPECT_TRUE(key.rfind("parallel.serial_fallback.", 0) != 0)
            << label << ": " << key << " = " << value;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// num_threads=1 must take exactly today's serial code paths (no fallback
// counters, no parallel counters — it never even plans workers).
// ---------------------------------------------------------------------------

TEST(SerialBaseline, NoParallelCountersAtOneThread) {
  RowVectorPtr r = MakeKv(20000, 4000, 31, 4);
  RowVectorPtr s = MakeKv(20000, 4000, 32);
  StatsRegistry stats;
  ExecContext ctx;
  InitCtx(&ctx, 1, &stats);
  auto plan = BuildPartitionedJoinPlan(r, s, JoinType::kInner);
  DrainRoot(plan.get(), &ctx, true);
  for (const auto& [key, value] : stats.counters()) {
    EXPECT_TRUE(key.rfind("parallel.", 0) != 0)
        << "unexpected parallel counter " << key << " = " << value;
  }
}

// ---------------------------------------------------------------------------
// TPC-H reference queries: 1 vs 4 threads, byte-equal.
// ---------------------------------------------------------------------------

const tpch::TpchTables& Db() {
  static tpch::TpchTables db = [] {
    tpch::GeneratorOptions gen;
    gen.scale_factor = 0.01;
    gen.seed = 7;
    return tpch::GenerateTpch(gen);
  }();
  return db;
}

class TpchParallelParity : public ::testing::TestWithParam<int> {};

TEST_P(TpchParallelParity, FourThreadsByteEqual) {
  const int query = GetParam();
  auto run = [&](int threads, bool vectorized) {
    tpch::TpchRunOptions opts = tpch::TpchRunOptions::Rdma(2);
    opts.fabric.throttle = false;
    opts.storage.throttle = false;
    opts.lambda.throttle = false;
    opts.lambda.s3.throttle = false;
    opts.s3select.throttle = false;
    opts.exec.network_radix_bits = 4;
    opts.exec.num_threads = threads;
    opts.exec.parallel_min_rows = 256;
    opts.exec.enable_vectorized = vectorized;
    auto ctx = tpch::PrepareTpch(Db(), opts);
    EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
    StatsRegistry stats;
    auto result = tpch::RunTpchQuery(query, **ctx, opts, &stats);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    for (const auto& [key, value] : stats.counters()) {
      EXPECT_TRUE(key.rfind("parallel.serial_fallback.", 0) != 0)
          << key << " = " << value << " vectorized=" << vectorized;
    }
    return *result;
  };
  RowVectorPtr out1 = run(1, /*vectorized=*/true);
  // 8 across 2 ranks = 4 workers per rank. Row mode runs the same
  // parallel paths; it only pulls its inputs through Next().
  for (bool vectorized : {true, false}) {
    RowVectorPtr out8 = run(8, vectorized);
    ExpectBytesEqual(*out1, *out8,
                     "tpch q" + std::to_string(query) +
                         " vectorized=" + std::to_string(vectorized));
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, TpchParallelParity,
                         ::testing::Values(1, 3, 4, 6, 12, 14, 18, 19),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST(TpchParallelParity, Q1ParallelDriverMatchesReference) {
  // TPC-H Q1 is the pure-aggregation query (two 1-char string keys, four
  // float SUMs with computed inputs + COUNT): exactly the shape that used
  // to fall back serial. Run it through the parallel driver at 8 threads
  // and diff against the independent reference implementation.
  tpch::TpchRunOptions opts = tpch::TpchRunOptions::Rdma(2);
  opts.fabric.throttle = false;
  opts.storage.throttle = false;
  opts.lambda.throttle = false;
  opts.lambda.s3.throttle = false;
  opts.s3select.throttle = false;
  opts.exec.network_radix_bits = 4;
  opts.exec.num_threads = 8;
  opts.exec.parallel_min_rows = 256;
  auto ctx = tpch::PrepareTpch(Db(), opts);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  StatsRegistry stats;
  auto result = tpch::RunTpchQuery(1, **ctx, opts, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(stats.GetCounter("parallel.serial_fallback.ReduceByKey"), 0)
      << "Q1 aggregation fell back to serial execution";

  RowVectorPtr expected = tpch::ReferenceQ1(Db());
  const RowVector& actual = **result;
  ASSERT_EQ(expected->size(), actual.size());
  for (size_t i = 0; i < expected->size(); ++i) {
    RowRef e = expected->row(i);
    RowRef a = actual.row(i);
    for (size_t c = 0; c < expected->schema().num_fields(); ++c) {
      const int col = static_cast<int>(c);
      switch (expected->schema().field(c).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          ASSERT_EQ(e.GetInt32(col), a.GetInt32(col)) << "row " << i;
          break;
        case AtomType::kInt64:
          ASSERT_EQ(e.GetInt64(col), a.GetInt64(col)) << "row " << i;
          break;
        case AtomType::kFloat64: {
          const double x = e.GetFloat64(col), y = a.GetFloat64(col);
          const double tol =
              1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
          ASSERT_NEAR(x, y, tol) << "row " << i << " col " << c;
          break;
        }
        case AtomType::kString:
          ASSERT_EQ(e.GetString(col), a.GetString(col)) << "row " << i;
          break;
      }
    }
  }
}

}  // namespace
}  // namespace modularis
