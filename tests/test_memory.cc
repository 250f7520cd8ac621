/// \file test_memory.cc
/// Memory governance (docs/DESIGN-memory.md): budget accounting, the
/// shared admission rules, the SpillSet chunk layer, and the three
/// blocking operators' graceful-degradation paths. The load-bearing
/// property everywhere is byte-equality: at any budget and thread count
/// the spilled output must be indistinguishable from the in-memory one.

#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/exec_context.h"
#include "core/memory.h"
#include "storage/blob_store.h"
#include "storage/spill.h"
#include "suboperators/agg_ops.h"
#include "suboperators/basic_ops.h"
#include "suboperators/join_ops.h"
#include "suboperators/scan_ops.h"
#include "tpch/queries.h"

#include "q1_skew.h"

namespace modularis {
namespace {

// ---------------------------------------------------------------------------
// MemoryBudget / admission rules
// ---------------------------------------------------------------------------

TEST(MemoryBudgetTest, ChargesReleasesAndTracksPeak) {
  MemoryBudget budget(1000);
  EXPECT_EQ(budget.limit(), 1000u);
  EXPECT_FALSE(budget.unlimited());

  budget.Charge(600);
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_EQ(budget.peak(), 600u);
  budget.Release(600);
  budget.Charge(200);
  budget.Charge(300);
  EXPECT_EQ(budget.used(), 500u);
  EXPECT_EQ(budget.peak(), 600u);  // high-water mark survives releases

  EXPECT_EQ(budget.denials(), 0);
  budget.NoteDenial();
  EXPECT_EQ(budget.denials(), 1);
}

TEST(MemoryBudgetTest, ZeroLimitMeansUnlimitedButStillAccounts) {
  MemoryBudget budget(0);
  EXPECT_TRUE(budget.unlimited());
  EXPECT_FALSE(budget.WouldExceed(size_t{1} << 60));
  budget.Charge(123);
  EXPECT_EQ(budget.peak(), 123u);
}

TEST(MemoryBudgetTest, AdmissionRulesArePureFunctions) {
  EXPECT_TRUE(MemoryBudget(100).WouldExceed(101));
  EXPECT_FALSE(MemoryBudget(100).WouldExceed(100));

  EXPECT_FALSE(ShouldSpill(1 << 20, 0));       // unlimited never spills
  EXPECT_FALSE(ShouldSpill(50, 100));          // half the budget is fine
  EXPECT_TRUE(ShouldSpill(51, 100));           // beyond half: degrade
  EXPECT_EQ(SpillQuotaBytes(100), 25u);        // a quarter for the quota
  EXPECT_EQ(SpillQuotaBytes(0), 0u);
  EXPECT_TRUE(StateFits(size_t{1} << 60, 0));  // unlimited admits any state
  EXPECT_TRUE(StateFits(50, 100));             // group state may use half
  EXPECT_FALSE(StateFits(51, 100));
}

TEST(MemoryBudgetTest, ScopedChargeReleasesOnDestruction) {
  MemoryBudget budget(0);
  {
    ScopedCharge charge(&budget);
    charge.Add(100);
    charge.Add(50);
    EXPECT_EQ(charge.charged(), 150u);
    EXPECT_EQ(budget.used(), 150u);
  }
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 150u);

  ScopedCharge charge;
  charge.Add(10);  // unbound: a no-op, not a crash
  charge.Bind(&budget);
  charge.Add(10);
  charge.Reset();
  EXPECT_EQ(budget.used(), 0u);
}

// ---------------------------------------------------------------------------
// SpillSet
// ---------------------------------------------------------------------------

TEST(SpillSetTest, ChunkRoundTripPreservesRowsAndIndices) {
  storage::BlobStore store;
  ExecContext ctx;
  ctx.spill_store = &store;

  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  for (int64_t i = 0; i < 100; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, i);
    w.SetInt64(1, i * 7);
  }
  std::vector<uint32_t> idx(100);
  for (uint32_t i = 0; i < 100; ++i) idx[i] = 1000 + i;

  {
    storage::SpillSet spill(&ctx, "test");
    const uint32_t stride = data->row_size();
    // Two chunks of one partition plus one of another.
    ASSERT_TRUE(
        spill.WriteChunk(0, 3, data->row(0).data(), 60, stride, idx.data())
            .ok());
    ASSERT_TRUE(spill.WriteChunk(0, 3, data->row(60).data(), 40, stride,
                                 idx.data() + 60)
                    .ok());
    ASSERT_TRUE(
        spill.WriteChunk(0, 7, data->row(0).data(), 10, stride, idx.data())
            .ok());
    // Empty writes are a no-op, not an empty object.
    ASSERT_TRUE(spill.WriteChunk(0, 9, nullptr, 0, stride, nullptr).ok());
    EXPECT_EQ(spill.NumChunks(0, 3), 2);
    EXPECT_EQ(spill.NumChunks(0, 7), 1);
    EXPECT_EQ(spill.NumChunks(0, 9), 0);
    EXPECT_GT(spill.bytes_written(), 0);

    RowVectorPtr back = RowVector::Make(KeyValueSchema());
    std::vector<uint32_t> back_idx;
    ASSERT_TRUE(spill.ReadPartition(0, 3, back.get(), &back_idx).ok());
    ASSERT_EQ(back->size(), 100u);
    EXPECT_EQ(0, std::memcmp(back->data(), data->data(),
                             data->size() * data->row_size()));
    EXPECT_EQ(back_idx, idx);

    spill.DeletePartition(0, 7);
    EXPECT_EQ(spill.NumChunks(0, 7), 0);
    EXPECT_FALSE(store.List(spill.prefix()).empty());
  }
  // Destruction deletes everything the set ever wrote.
  EXPECT_TRUE(store.List("spill/").empty());
}

TEST(SpillSetTest, CorruptChunksFailWithStatus) {
  storage::BlobStore store;
  ExecContext ctx;
  ctx.spill_store = &store;

  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  for (int64_t i = 0; i < 10; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, i);
    w.SetInt64(1, -i);
  }
  std::vector<uint32_t> idx(10, 7);
  storage::SpillSet spill(&ctx, "test");
  ASSERT_TRUE(spill.WriteChunk(0, 0, data->data(), data->size(),
                               data->row_size(), idx.data())
                  .ok());
  const std::string key = spill.prefix() + "p0/d0/c0";
  auto blob = store.Get(key);
  ASSERT_TRUE(blob.ok());
  const std::string good = **blob;

  auto with_count = [&](uint32_t n) {
    std::string bad = good;
    std::memcpy(bad.data(), &n, sizeof(n));
    return bad;
  };
  const std::pair<const char*, std::string> corruptions[] = {
      {"truncated header", good.substr(0, 2)},
      {"truncated body", good.substr(0, good.size() - 3)},
      {"count 0xFFFFFFFF", with_count(0xFFFFFFFFu)},
      {"bit-flipped count", with_count(10u ^ (1u << 20))},
  };
  for (const auto& [what, payload] : corruptions) {
    SCOPED_TRACE(what);
    store.Put(key, payload);
    RowVectorPtr rows = RowVector::Make(KeyValueSchema());
    std::vector<uint32_t> back_idx;
    Status st = spill.ReadChunk(0, 0, 0, rows.get(), &back_idx);
    EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
    EXPECT_TRUE(rows->empty());
    EXPECT_TRUE(back_idx.empty());
  }

  // The intact blob still decodes, here with its indices skipped.
  store.Put(key, good);
  RowVectorPtr rows = RowVector::Make(KeyValueSchema());
  ASSERT_TRUE(spill.ReadChunk(0, 0, 0, rows.get(), nullptr).ok());
  ASSERT_EQ(rows->size(), data->size());
  EXPECT_EQ(0, std::memcmp(rows->data(), data->data(),
                           data->size() * data->row_size()));
}

// ---------------------------------------------------------------------------
// Operator spill paths
// ---------------------------------------------------------------------------

RowVectorPtr MakeKv(int64_t rows, int64_t key_space, uint32_t seed) {
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  data->Reserve(rows);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> dist(0, key_space - 1);
  for (int64_t i = 0; i < rows; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, dist(rng));
    w.SetInt64(1, i);
  }
  return data;
}

SubOpPtr ScanOf(RowVectorPtr data) {
  return std::make_unique<RowScan>(std::make_unique<CollectionSource>(
      std::vector<RowVectorPtr>{std::move(data)}));
}

/// One budgeted run: private store, budget and stats, so tests can
/// assert counters, denials and spill-file cleanup per run.
struct BudgetedRun {
  storage::BlobStore store;
  MemoryBudget budget;
  StatsRegistry stats;
  ExecContext ctx;

  explicit BudgetedRun(size_t limit, bool with_store = true)
      : budget(limit) {
    ctx.options.memory_limit_bytes = limit;
    ctx.budget = &budget;
    ctx.spill_store = with_store ? &store : nullptr;
    ctx.stats = &stats;
  }
};

Status DrainBatches(SubOperator* op, ExecContext* ctx, const Schema& schema,
                    RowVectorPtr* out) {
  MODULARIS_RETURN_NOT_OK(op->Open(ctx));
  RowVectorPtr sink = RowVector::Make(schema);
  RowBatch batch;
  while (op->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      sink->AppendRaw(batch.row(i).data());
    }
  }
  MODULARIS_RETURN_NOT_OK(op->status());
  MODULARIS_RETURN_NOT_OK(op->Close());
  *out = std::move(sink);
  return Status::OK();
}

void ExpectBytesEqual(const RowVector& expected, const RowVector& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_EQ(expected.row_size(), actual.row_size());
  EXPECT_EQ(0, std::memcmp(expected.data(), actual.data(),
                           expected.size() * expected.row_size()))
      << "spilled output is not byte-equal to the in-memory output";
}

std::vector<AggSpec> SumCountAggs() {
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, ex::Col(1), "s", AtomType::kInt64});
  aggs.push_back(AggSpec{AggKind::kCount, nullptr, "c", AtomType::kInt64});
  return aggs;
}

TEST(SpillAggTest, SpilledAggregationIsByteEqual) {
  RowVectorPtr data = MakeKv(1 << 16, 1 << 12, 11);

  RowVectorPtr expected;
  {
    BudgetedRun run(0);
    ReduceByKey rk(ScanOf(data), {0}, SumCountAggs(), KeyValueSchema());
    ASSERT_TRUE(
        DrainBatches(&rk, &run.ctx, rk.out_schema(), &expected).ok());
    EXPECT_EQ(run.stats.GetCounter("spill.ops.ReduceByKey"), 0);
  }

  BudgetedRun run(256 << 10);  // input ~1MB >> limit/2: must spill
  RowVectorPtr actual;
  {
    ReduceByKey rk(ScanOf(data), {0}, SumCountAggs(), KeyValueSchema());
    ASSERT_TRUE(DrainBatches(&rk, &run.ctx, rk.out_schema(), &actual).ok());
  }
  ExpectBytesEqual(*expected, *actual);
  EXPECT_EQ(run.stats.GetCounter("spill.ops.ReduceByKey"), 1);
  EXPECT_GT(run.stats.GetCounter("spill.partitions"), 0);
  EXPECT_GT(run.stats.GetCounter("spill.bytes"), 0);
  EXPECT_GE(run.stats.GetCounter("spill.passes"), 1);
  EXPECT_GE(run.budget.denials(), 1);
  EXPECT_GT(run.budget.peak(), 0u);
  EXPECT_TRUE(run.store.List("spill/").empty()) << "spill files leaked";
}

TEST(SpillAggTest, SpilledCopiedInputIsByteEqual) {
  // A MapOp between scan and aggregation makes the drained input a copy
  // that ReduceByKey owns alone, so dropping it before the overflow
  // passes frees its schema too; the passes must not read that schema.
  RowVectorPtr data = MakeKv(1 << 16, 1 << 12, 11);
  auto reduce = [&] {
    std::vector<MapOutput> pass = {MapOutput::Pass(0), MapOutput::Pass(1)};
    return std::make_unique<ReduceByKey>(
        std::make_unique<MapOp>(ScanOf(data), KeyValueSchema(),
                                std::move(pass)),
        std::vector<int>{0}, SumCountAggs(), KeyValueSchema());
  };
  RowVectorPtr expected;
  {
    BudgetedRun run(0);
    auto rk = reduce();
    ASSERT_TRUE(
        DrainBatches(rk.get(), &run.ctx, rk->out_schema(), &expected).ok());
  }
  BudgetedRun run(256 << 10);
  RowVectorPtr actual;
  {
    auto rk = reduce();
    ASSERT_TRUE(
        DrainBatches(rk.get(), &run.ctx, rk->out_schema(), &actual).ok());
  }
  ExpectBytesEqual(*expected, *actual);
  EXPECT_EQ(run.stats.GetCounter("spill.ops.ReduceByKey"), 1);
  EXPECT_TRUE(run.store.List("spill/").empty()) << "spill files leaked";
}

TEST(SpillAggTest, OversizedPartitionsRecurse) {
  // 8KB budget -> 2KB quota (128 rows), but the 256-way first pass leaves
  // ~256 rows per partition: every spilled partition must recurse at
  // least once, bumping spill.passes past the first pass.
  RowVectorPtr data = MakeKv(1 << 16, 1 << 16, 13);

  RowVectorPtr expected;
  {
    BudgetedRun run(0);
    ReduceByKey rk(ScanOf(data), {0}, SumCountAggs(), KeyValueSchema());
    ASSERT_TRUE(
        DrainBatches(&rk, &run.ctx, rk.out_schema(), &expected).ok());
  }

  BudgetedRun run(8 << 10);
  RowVectorPtr actual;
  {
    ReduceByKey rk(ScanOf(data), {0}, SumCountAggs(), KeyValueSchema());
    ASSERT_TRUE(DrainBatches(&rk, &run.ctx, rk.out_schema(), &actual).ok());
  }
  ExpectBytesEqual(*expected, *actual);
  EXPECT_GE(run.stats.GetCounter("spill.passes"), 2);
  EXPECT_TRUE(run.store.List("spill/").empty());
}

// -- Hybrid aggregation: spill only the groups that do not fit -------------

/// (i64 key, f64 value) rows. Float SUM is order-sensitive, so byte-equality
/// also pins every group's accumulation order.
RowVectorPtr MakeKeyFloat(const std::vector<std::pair<int64_t, double>>& kv) {
  RowVectorPtr data =
      RowVector::Make(Schema({Field::I64("k"), Field::F64("v")}));
  data->Reserve(kv.size());
  for (const auto& [k, v] : kv) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, k);
    w.SetFloat64(1, v);
  }
  return data;
}

std::vector<AggSpec> FloatSumCountAggs(int value_col) {
  std::vector<AggSpec> aggs;
  aggs.push_back(
      AggSpec{AggKind::kSum, ex::Col(value_col), "s", AtomType::kFloat64});
  aggs.push_back(AggSpec{AggKind::kCount, nullptr, "c", AtomType::kInt64});
  return aggs;
}

/// Values whose sums round differently in any other order.
double OrderSensitiveValue(std::mt19937_64& rng) {
  static constexpr double kValues[] = {1e16, -1e16, 1.0, 0.5, 3.0};
  return kValues[rng() % 5];
}

/// Groups `data` by `keys` at `threads` workers in `run`, summing its last
/// column.
RowVectorPtr AggregateIn(BudgetedRun* run, const RowVectorPtr& data,
                         const std::vector<int>& keys, int threads) {
  run->ctx.options.num_threads = threads;
  run->ctx.options.parallel_min_rows = 256;
  const int value_col = static_cast<int>(data->schema().num_fields()) - 1;
  ReduceByKey rk(ScanOf(data), keys, FloatSumCountAggs(value_col),
                 data->schema());
  RowVectorPtr out;
  Status st = DrainBatches(&rk, &run->ctx, rk.out_schema(), &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

/// Checks the budgeted run at 1 and 4 threads against the unlimited run at
/// the same thread count; `check` sees each budgeted run's counters.
template <typename Check>
void ExpectBudgetedMatchesUnlimited(const RowVectorPtr& data,
                                    const std::vector<int>& keys,
                                    size_t limit, Check check) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BudgetedRun unlimited(0);
    RowVectorPtr expected = AggregateIn(&unlimited, data, keys, threads);
    BudgetedRun run(limit);
    RowVectorPtr actual = AggregateIn(&run, data, keys, threads);
    ASSERT_NE(expected, nullptr);
    ASSERT_NE(actual, nullptr);
    ExpectBytesEqual(*expected, *actual);
    EXPECT_TRUE(run.store.List("spill/").empty()) << "spill files leaked";
    check(run);
  }
}

TEST(SpillAggTest, FewGroupsNeverSpill) {
  // Q1's shape: a drained input far past half the budget (1 MiB against
  // 128 KiB) but only 4 groups, whose state fits easily.
  std::mt19937_64 rng(47);
  std::vector<std::pair<int64_t, double>> kv;
  for (int i = 0; i < (1 << 16); ++i) {
    kv.emplace_back(static_cast<int64_t>(rng() % 4), OrderSensitiveValue(rng));
  }
  RowVectorPtr data = MakeKeyFloat(kv);
  ASSERT_TRUE(ShouldSpill(data->byte_size(), 256 << 10));
  ExpectBudgetedMatchesUnlimited(data, {0}, 256 << 10, [](BudgetedRun& run) {
    EXPECT_EQ(run.stats.GetCounter("spill.bytes"), 0);
    EXPECT_EQ(run.stats.GetCounter("spill.ops.ReduceByKey"), 0);
    EXPECT_EQ(run.budget.denials(), 0);
  });
}

TEST(SpillAggTest, OverflowSplitsResidentAndSpilled) {
  // 4096 keys at 256 KiB: the state fills half the budget after roughly
  // 2.9k groups, so first occurrences straddle the overflow point — the
  // groups before it stay resident, the rest spill with their rows.
  std::mt19937_64 rng(53);
  std::vector<std::pair<int64_t, double>> kv;
  for (int i = 0; i < (1 << 16); ++i) {
    kv.emplace_back(static_cast<int64_t>(rng() % 4096),
                    OrderSensitiveValue(rng));
  }
  RowVectorPtr data = MakeKeyFloat(kv);
  const int64_t input_bytes = static_cast<int64_t>(data->byte_size());
  ExpectBudgetedMatchesUnlimited(data, {0}, 256 << 10, [&](BudgetedRun& run) {
    EXPECT_EQ(run.stats.GetCounter("spill.ops.ReduceByKey"), 1);
    EXPECT_GT(run.stats.GetCounter("spill.bytes"), 0);
    EXPECT_LT(run.stats.GetCounter("spill.bytes"), input_bytes)
        << "resident groups' rows must not spill";
    EXPECT_EQ(run.budget.denials(), 1);
  });
}

TEST(SpillAggTest, HotKeyAfterOverflowReachesTerminalLevel) {
  // A budget too small for even one group's table (64 of 128 bytes for
  // the state) refuses every group on every level until the hash runs
  // out: the top level and each of the seven splittable windows overflow
  // (>= 8 passes), and the terminal level keeps all of the hot key's rows
  // — 72 cold keys first, then the hot key, interleaved with them. More
  // than 64 keys, so the few-group kernel hands the input to the budget.
  std::mt19937_64 rng(59);
  std::vector<std::pair<int64_t, double>> kv;
  for (int64_t k = 0; k < 72; ++k) kv.emplace_back(k, 1.0);
  for (int i = 0; i < 600; ++i) {
    const int64_t key = i % 5 == 0 ? static_cast<int64_t>(rng() % 72) : 1000;
    kv.emplace_back(key, OrderSensitiveValue(rng));
  }
  RowVectorPtr data = MakeKeyFloat(kv);
  ExpectBudgetedMatchesUnlimited(data, {0}, 128, [](BudgetedRun& run) {
    EXPECT_EQ(run.stats.GetCounter("spill.ops.ReduceByKey"), 1);
    EXPECT_GE(run.stats.GetCounter("spill.passes"), 8);
  });
}

// -- Hybrid aggregation over byte keys (ByteStateTable levels) --------------

/// A byte-keyed shape: a string key, or an (i32, string) key.
struct ByteKeyShape {
  const char* name;
  std::vector<int> keys;
};

const ByteKeyShape kByteKeyShapes[] = {{"string", {0}}, {"i32+string", {0, 1}}};

/// `rows` rows over `key_space` distinct keys of `shape`, each with an
/// order-sensitive f64 value in the last column.
RowVectorPtr MakeByteKeyRows(const ByteKeyShape& shape, int rows,
                             int64_t key_space, uint32_t seed) {
  const bool multi = shape.keys.size() > 1;
  RowVectorPtr data = RowVector::Make(
      multi ? Schema({Field::I32("a"), Field::Str("b", 8), Field::F64("v")})
            : Schema({Field::Str("k", 12), Field::F64("v")}));
  data->Reserve(rows);
  std::mt19937_64 rng(seed);
  for (int i = 0; i < rows; ++i) {
    const int64_t key = static_cast<int64_t>(rng() % key_space);
    RowWriter w = data->AppendRow();
    if (multi) {
      w.SetInt32(0, static_cast<int32_t>(key / 16));
      w.SetString(1, "m" + std::to_string(key % 16));
      w.SetFloat64(2, OrderSensitiveValue(rng));
    } else {
      w.SetString(0, "k" + std::to_string(key));
      w.SetFloat64(1, OrderSensitiveValue(rng));
    }
  }
  return data;
}

TEST(SpillAggTest, ByteKeyFewGroupsNeverSpill) {
  // tpch_spill's case on byte keys: the drained input is far past half the
  // budget, but its 64 groups' state fits, so nothing spills.
  for (const ByteKeyShape& shape : kByteKeyShapes) {
    SCOPED_TRACE(shape.name);
    RowVectorPtr data = MakeByteKeyRows(shape, 1 << 15, 64, 61);
    ASSERT_TRUE(ShouldSpill(data->byte_size(), 256 << 10));
    ExpectBudgetedMatchesUnlimited(
        data, shape.keys, 256 << 10, [](BudgetedRun& run) {
          EXPECT_EQ(run.stats.GetCounter("spill.bytes"), 0);
          EXPECT_EQ(run.stats.GetCounter("spill.ops.ReduceByKey"), 0);
          EXPECT_EQ(run.budget.denials(), 0);
        });
  }
}

TEST(SpillAggTest, FewGroupKernelSameBytesAtAnyBudget) {
  // Q1's skewed four groups with a computed SUM input: the few-group
  // kernel is chosen before the spill decision, so a 512 KiB and a 1 KiB
  // budget give the unlimited run's bytes at every worker count, and
  // nothing spills.
  for (bool str_keys : {false, true}) {
    SCOPED_TRACE(str_keys ? "(str, str) keys" : "i64 key");
    RowVectorPtr data = testing_q1::MakeQ1Skew(60000, str_keys, 71);
    ASSERT_TRUE(ShouldSpill(data->byte_size(), 512 << 10));
    auto aggregate = [&](BudgetedRun* run, int threads) {
      run->ctx.options.num_threads = threads;
      run->ctx.options.parallel_min_rows = 256;
      ReduceByKey rk(ScanOf(data), testing_q1::Q1SkewKeys(str_keys),
                     testing_q1::Q1SkewAggs(str_keys), data->schema());
      RowVectorPtr out;
      Status st = DrainBatches(&rk, &run->ctx, rk.out_schema(), &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      return out;
    };
    BudgetedRun reference(0);
    RowVectorPtr expected = aggregate(&reference, 1);
    ASSERT_NE(expected, nullptr);
    ASSERT_EQ(expected->size(), 4u);
    for (int threads : {1, 2, 4}) {
      for (size_t limit : {size_t{512} << 10, size_t{1} << 10, size_t{0}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " limit=" + std::to_string(limit));
        BudgetedRun run(limit);
        RowVectorPtr actual = aggregate(&run, threads);
        ASSERT_NE(actual, nullptr);
        ExpectBytesEqual(*expected, *actual);
        EXPECT_EQ(run.stats.GetCounter("parallel.reduce.chunks"), 4);
        EXPECT_EQ(run.stats.GetCounter("spill.bytes"), 0);
        EXPECT_EQ(run.stats.GetCounter("spill.ops.ReduceByKey"), 0);
        EXPECT_EQ(run.budget.denials(), 0);
      }
    }
  }
}

TEST(SpillAggTest, ByteKeyOverflowRecurses) {
  // 8 KiB leaves the state 4 KiB: the top level keeps a few dozen of the
  // 32k groups, and each of the 256 overflow partitions (~80 groups)
  // overflows again on the next hash window.
  for (const ByteKeyShape& shape : kByteKeyShapes) {
    SCOPED_TRACE(shape.name);
    RowVectorPtr data = MakeByteKeyRows(shape, 1 << 15, 1 << 15, 67);
    ExpectBudgetedMatchesUnlimited(
        data, shape.keys, 8 << 10, [](BudgetedRun& run) {
          EXPECT_EQ(run.stats.GetCounter("spill.ops.ReduceByKey"), 1);
          EXPECT_GE(run.stats.GetCounter("spill.passes"), 2);
          EXPECT_GT(run.stats.GetCounter("spill.bytes"), 0);
        });
  }
}

TEST(SpillSortTest, ExternalSortIsByteEqual) {
  // 50k rows at a 16KB budget: 4KB quota -> 256-row runs -> ~196 runs,
  // deep enough that the cascade merge runs intermediate passes too.
  RowVectorPtr data = MakeKv(50000, 1 << 10, 17);
  const std::vector<SortKey> keys = {{0, false}, {1, true}};

  RowVectorPtr expected;
  {
    BudgetedRun run(0);
    SortOp sort(ScanOf(data), keys, KeyValueSchema());
    ASSERT_TRUE(
        DrainBatches(&sort, &run.ctx, KeyValueSchema(), &expected).ok());
    EXPECT_EQ(run.stats.GetCounter("spill.ops.Sort"), 0);
  }

  BudgetedRun run(16 << 10);
  RowVectorPtr actual;
  {
    SortOp sort(ScanOf(data), keys, KeyValueSchema());
    ASSERT_TRUE(
        DrainBatches(&sort, &run.ctx, KeyValueSchema(), &actual).ok());
  }
  ExpectBytesEqual(*expected, *actual);
  EXPECT_EQ(run.stats.GetCounter("spill.ops.Sort"), 1);
  EXPECT_GT(run.stats.GetCounter("spill.partitions"), 1);
  EXPECT_GE(run.stats.GetCounter("spill.passes"), 2);
  EXPECT_GE(run.budget.denials(), 1);
  EXPECT_TRUE(run.store.List("spill/").empty());
}

TEST(SpillSortTest, ExternalTopKIsByteEqual) {
  RowVectorPtr data = MakeKv(50000, 1 << 10, 19);
  const std::vector<SortKey> keys = {{1, true}};

  RowVectorPtr expected;
  {
    BudgetedRun run(0);
    TopK topk(ScanOf(data), keys, 100, KeyValueSchema());
    ASSERT_TRUE(
        DrainBatches(&topk, &run.ctx, KeyValueSchema(), &expected).ok());
  }
  ASSERT_EQ(expected->size(), 100u);

  BudgetedRun run(16 << 10);
  RowVectorPtr actual;
  {
    TopK topk(ScanOf(data), keys, 100, KeyValueSchema());
    ASSERT_TRUE(
        DrainBatches(&topk, &run.ctx, KeyValueSchema(), &actual).ok());
  }
  ExpectBytesEqual(*expected, *actual);
  EXPECT_EQ(run.stats.GetCounter("spill.ops.Sort"), 1);
  EXPECT_TRUE(run.store.List("spill/").empty());
}

class SpillJoinTest : public ::testing::TestWithParam<JoinType> {};

TEST_P(SpillJoinTest, GraceJoinIsByteEqual) {
  const JoinType type = GetParam();
  // FK shape: every build key appears twice; half the probe keys miss.
  RowVectorPtr build = MakeKv(1 << 15, 1 << 14, 23);
  RowVectorPtr probe = MakeKv(1 << 16, 1 << 15, 29);

  auto make_join = [&] {
    return std::make_unique<BuildProbe>(ScanOf(build), ScanOf(probe),
                                        KeyValueSchema(), KeyValueSchema(),
                                        /*build_key_col=*/0,
                                        /*probe_key_col=*/0, type);
  };

  RowVectorPtr expected;
  {
    BudgetedRun run(0);
    auto bp = make_join();
    ASSERT_TRUE(
        DrainBatches(bp.get(), &run.ctx, bp->out_schema(), &expected).ok());
    EXPECT_EQ(run.stats.GetCounter("spill.ops.BuildProbe"), 0);
  }
  ASSERT_GT(expected->size(), 0u);

  // Build side is 512KB: a 128KB budget forces the Grace path with a
  // resident hybrid prefix; a 32KB budget additionally forces oversized
  // partitions through the chunked multi-group detour.
  for (size_t limit : {size_t{128} << 10, size_t{32} << 10}) {
    BudgetedRun run(limit);
    RowVectorPtr actual;
    {
      auto bp = make_join();
      ASSERT_TRUE(
          DrainBatches(bp.get(), &run.ctx, bp->out_schema(), &actual).ok());
    }
    ExpectBytesEqual(*expected, *actual);
    EXPECT_EQ(run.stats.GetCounter("spill.ops.BuildProbe"), 1)
        << "limit=" << limit;
    EXPECT_GT(run.stats.GetCounter("spill.partitions"), 0);
    EXPECT_GT(run.stats.GetCounter("spill.bytes"), 0);
    EXPECT_GE(run.budget.denials(), 1);
    EXPECT_TRUE(run.store.List("spill/").empty()) << "spill files leaked";
  }
}

INSTANTIATE_TEST_SUITE_P(AllJoinTypes, SpillJoinTest,
                         ::testing::Values(JoinType::kInner, JoinType::kSemi,
                                           JoinType::kAnti),
                         [](const ::testing::TestParamInfo<JoinType>& info) {
                           switch (info.param) {
                             case JoinType::kInner: return "Inner";
                             case JoinType::kSemi: return "Semi";
                             default: return "Anti";
                           }
                         });

// ---------------------------------------------------------------------------
// Fail-fast admission
// ---------------------------------------------------------------------------

TEST(SpillFailFastTest, UnsatisfiableBudgetNamesOperatorAndWatermark) {
  RowVectorPtr data = MakeKv(1 << 14, 1 << 10, 31);

  {
    // Quota (limit/4 = 16 bytes) cannot hold one 16+ byte row... the
    // KeyValueSchema row is exactly 16 bytes, so use 32: quota 8 < 16.
    BudgetedRun run(32);
    ReduceByKey rk(ScanOf(data), {0}, SumCountAggs(), KeyValueSchema());
    RowVectorPtr out;
    Status st = DrainBatches(&rk, &run.ctx, rk.out_schema(), &out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
    EXPECT_NE(st.ToString().find("ReduceByKey"), std::string::npos);
    EXPECT_NE(st.ToString().find("memory_limit_bytes=32"), std::string::npos);
    EXPECT_GE(run.budget.denials(), 1);
    EXPECT_TRUE(run.store.List("spill/").empty());
  }
  {
    // A viable quota but no spill store: degrade is impossible, fail fast.
    BudgetedRun run(1 << 10, /*with_store=*/false);
    SortOp sort(ScanOf(data), {{0, false}}, KeyValueSchema());
    RowVectorPtr out;
    Status st = DrainBatches(&sort, &run.ctx, KeyValueSchema(), &out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
    EXPECT_NE(st.ToString().find("Sort"), std::string::npos);
    EXPECT_NE(st.ToString().find("no spill store"), std::string::npos);
  }
  {
    BudgetedRun run(1 << 10, /*with_store=*/false);
    BuildProbe bp(ScanOf(data), ScanOf(data), KeyValueSchema(),
                  KeyValueSchema(), 0, 0);
    RowVectorPtr out;
    Status st = DrainBatches(&bp, &run.ctx, bp.out_schema(), &out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
    EXPECT_NE(st.ToString().find("BuildProbe"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Cleanup on abort / cancellation, and retry convergence
// ---------------------------------------------------------------------------

TEST(SpillFaultTest, AbortedSpillLeavesNoFiles) {
  // Every spill Put fails and the retry budget is zero: the operator
  // aborts mid-scatter and the SpillSet destructor must still delete
  // whatever chunks made it to the store.
  RowVectorPtr data = MakeKv(1 << 15, 1 << 12, 37);
  BudgetedRun run(64 << 10);
  run.ctx.options.spill_fault.transient_failure_rate = 1.0;
  run.ctx.options.retry.max_retries = 0;
  run.ctx.options.retry.sleep = false;

  RowVectorPtr out;
  ReduceByKey rk(ScanOf(data), {0}, SumCountAggs(), KeyValueSchema());
  Status st = DrainBatches(&rk, &run.ctx, rk.out_schema(), &out);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(run.store.List("spill/").empty())
      << "aborted spill leaked files";
}

TEST(SpillFaultTest, CancelledSpillLeavesNoFiles) {
  RowVectorPtr data = MakeKv(1 << 15, 1 << 12, 41);
  BudgetedRun run(64 << 10);
  CancellationToken cancel;
  cancel.Cancel(Status::Aborted("user cancelled"));
  run.ctx.cancel = &cancel;

  RowVectorPtr out;
  {
    // Scoped: SortOp owns its SpillSet for the merge phase, so the
    // no-leak guarantee is "by operator destruction", not "by Close()".
    SortOp sort(ScanOf(data), {{0, false}}, KeyValueSchema());
    Status st = DrainBatches(&sort, &run.ctx, KeyValueSchema(), &out);
    ASSERT_FALSE(st.ok());
  }
  EXPECT_TRUE(run.store.List("spill/").empty())
      << "cancelled spill leaked files";
}

TEST(SpillFaultTest, InjectedTransientFaultsRetryAndConverge) {
  // PR 8 discipline: spill IO draws injected transient failures at 5%
  // and must converge through the shared retry policy to the exact
  // in-memory bytes.
  RowVectorPtr data = MakeKv(1 << 16, 1 << 12, 43);

  RowVectorPtr expected;
  {
    BudgetedRun run(0);
    ReduceByKey rk(ScanOf(data), {0}, SumCountAggs(), KeyValueSchema());
    ASSERT_TRUE(
        DrainBatches(&rk, &run.ctx, rk.out_schema(), &expected).ok());
  }

  BudgetedRun run(64 << 10);
  run.ctx.options.spill_fault.transient_failure_rate = 0.05;
  run.ctx.options.retry.max_retries = 12;
  run.ctx.options.retry.sleep = false;
  RowVectorPtr actual;
  {
    ReduceByKey rk(ScanOf(data), {0}, SumCountAggs(), KeyValueSchema());
    ASSERT_TRUE(DrainBatches(&rk, &run.ctx, rk.out_schema(), &actual).ok());
  }
  ExpectBytesEqual(*expected, *actual);
  EXPECT_GT(run.stats.GetCounter("retry.attempts"), 0)
      << "injection armed but no spill IO was retried";
  EXPECT_TRUE(run.store.List("spill/").empty());
}

}  // namespace
}  // namespace modularis

// ---------------------------------------------------------------------------
// TPC-H under a query-wide budget
// ---------------------------------------------------------------------------

namespace modularis::tpch {
namespace {

const TpchTables& Db() {
  static TpchTables db = [] {
    GeneratorOptions gen;
    gen.scale_factor = 0.01;
    gen.seed = 7;
    return GenerateTpch(gen);
  }();
  return db;
}

TpchRunOptions Unthrottled(TpchRunOptions opts) {
  opts.fabric.throttle = false;
  opts.lambda.throttle = false;
  opts.lambda.s3.throttle = false;
  opts.storage.throttle = false;
  opts.s3select.throttle = false;
  return opts;
}

void ExpectResultBytesEqual(const RowVector& expected,
                            const RowVector& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_EQ(expected.row_size(), actual.row_size());
  EXPECT_EQ(0, std::memcmp(expected.data(), actual.data(),
                           expected.size() * expected.row_size()))
      << "budgeted result is not byte-equal to the unlimited run";
}

/// All 8 queries at a budget small enough to force the spill paths in
/// joins, aggregations and the driver-side top-k sorts, at 1 and 4
/// threads: every result must be byte-equal to the unlimited run, and
/// no spill object may outlive its query. Row mode pulls its inputs
/// through Next() but shares every admission and spill decision, so its
/// Q3 at 1KB must spill all three families too.
TEST(TpchMemoryTest, BudgetedQueriesMatchUnlimitedByteForByte) {
  constexpr size_t kBudget = 16 << 10;
  for (int threads : {1, 4}) {
    TpchRunOptions base = Unthrottled(TpchRunOptions::Rdma(2));
    base.exec.network_radix_bits = 4;
    base.exec.num_threads = threads;
    auto ctx = PrepareTpch(Db(), base);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();

    int64_t agg_spills = 0, join_spills = 0, sort_spills = 0;
    // All 8 queries at 16KB, plus Q3 at a harsher 1KB: the driver-side
    // sorts only see merged partials (a few hundred rows at sf 0.01),
    // so tripping that family's admission check needs a budget below
    // twice the partial size. Q3 at 1KB spills all three families.
    struct Run {
      int q;
      size_t limit;
      bool vectorized;
    };
    const Run runs[] = {
        {1, kBudget, true},  {3, kBudget, true},  {4, kBudget, true},
        {6, kBudget, true},  {12, kBudget, true}, {14, kBudget, true},
        {18, kBudget, true}, {19, kBudget, true}, {3, size_t{1} << 10, true},
        {3, size_t{1} << 10, false}};
    for (const auto& [q, limit, vectorized] : runs) {
      SCOPED_TRACE("Q" + std::to_string(q) + " threads=" +
                   std::to_string(threads) + " limit=" +
                   std::to_string(limit) +
                   " vectorized=" + std::to_string(vectorized));
      TpchRunOptions unlimited = base;
      unlimited.exec.enable_vectorized = vectorized;
      StatsRegistry ref_stats;
      auto expected = RunTpchQuery(q, **ctx, unlimited, &ref_stats);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();

      TpchRunOptions budgeted = unlimited;
      budgeted.exec.memory_limit_bytes = limit;
      StatsRegistry stats;
      auto result = RunTpchQuery(q, **ctx, budgeted, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectResultBytesEqual(**expected, **result);

      agg_spills += stats.GetCounter("spill.ops.ReduceByKey");
      join_spills += stats.GetCounter("spill.ops.BuildProbe");
      sort_spills += stats.GetCounter("spill.ops.Sort");
      if (stats.GetCounter("spill.ops.ReduceByKey") +
              stats.GetCounter("spill.ops.BuildProbe") +
              stats.GetCounter("spill.ops.Sort") >
          0) {
        EXPECT_GT(stats.GetCounter("spill.partitions"), 0);
        EXPECT_GT(stats.GetCounter("spill.bytes"), 0);
        EXPECT_GT(stats.GetCounter("mem.denials"), 0);
      }
      if (!vectorized) {
        EXPECT_GT(stats.GetCounter("spill.ops.ReduceByKey"), 0);
        EXPECT_GT(stats.GetCounter("spill.ops.BuildProbe"), 0);
        EXPECT_GT(stats.GetCounter("spill.ops.Sort"), 0);
      }
      EXPECT_GT(stats.GetCounter("mem.peak_bytes"), 0);
      EXPECT_TRUE((*ctx)->store->List("spill/").empty())
          << "spill files leaked";
    }
    // The budget must exercise every spilling family across the suite.
    EXPECT_GT(agg_spills, 0) << "no aggregation spilled at " << threads
                             << " threads";
    EXPECT_GT(join_spills, 0) << "no join spilled at " << threads
                              << " threads";
    EXPECT_GT(sort_spills, 0) << "no sort spilled at " << threads
                              << " threads";
  }
}

TEST(TpchMemoryTest, Q1FewGroupsNeverSpillAt512KiB) {
  // Q1's drained aggregation input is far past half of 512 KiB on every
  // rank, but its 4 groups fit: nothing may be written to the store.
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TpchRunOptions base = Unthrottled(TpchRunOptions::Rdma(4));
    base.exec.network_radix_bits = 4;
    base.exec.num_threads = threads;
    auto ctx = PrepareTpch(Db(), base);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();

    StatsRegistry ref_stats;
    auto expected = RunTpchQuery(1, **ctx, base, &ref_stats);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    TpchRunOptions budgeted = base;
    budgeted.exec.memory_limit_bytes = 512 << 10;
    StatsRegistry stats;
    auto result = RunTpchQuery(1, **ctx, budgeted, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectResultBytesEqual(**expected, **result);
    EXPECT_EQ(stats.GetCounter("spill.bytes"), 0);
    EXPECT_EQ(stats.GetCounter("spill.ops.ReduceByKey"), 0);
  }
}

TEST(TpchMemoryTest, UnsatisfiableBudgetFailsFastAndClean) {
  // Row mode shares the admission checks, so it fails fast the same way.
  for (bool vectorized : {true, false}) {
    SCOPED_TRACE("vectorized=" + std::to_string(vectorized));
    TpchRunOptions opts = Unthrottled(TpchRunOptions::Rdma(2));
    opts.exec.network_radix_bits = 4;
    opts.exec.memory_limit_bytes = 64;  // quota of 16 bytes: nothing fits
    opts.exec.enable_vectorized = vectorized;
    auto ctx = PrepareTpch(Db(), opts);
    ASSERT_TRUE(ctx.ok());

    StatsRegistry stats;
    auto result = RunTpchQuery(1, **ctx, opts, &stats);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("memory_limit_bytes"),
              std::string::npos);
    EXPECT_TRUE((*ctx)->store->List("spill/").empty());
  }
}

TEST(TpchMemoryTest, InjectedSpillFaultsConvergeByteEqual) {
  TpchRunOptions base = Unthrottled(TpchRunOptions::Rdma(2));
  base.exec.network_radix_bits = 4;
  base.exec.num_threads = 2;
  auto ctx = PrepareTpch(Db(), base);
  ASSERT_TRUE(ctx.ok());

  // Q18 spills heavily at 16KB (Grace joins + recursive aggregation
  // passes), giving the 5% injector thousands of spill Puts to fail.
  StatsRegistry ref_stats;
  auto expected = RunTpchQuery(18, **ctx, base, &ref_stats);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  TpchRunOptions faulty = base;
  faulty.exec.memory_limit_bytes = 16 << 10;
  faulty.exec.spill_fault.transient_failure_rate = 0.05;
  faulty.exec.retry.max_retries = 12;
  faulty.exec.retry.sleep = false;
  StatsRegistry stats;
  auto result = RunTpchQuery(18, **ctx, faulty, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectResultBytesEqual(**expected, **result);
  EXPECT_GT(stats.GetCounter("retry.attempts"), 0);
  EXPECT_TRUE((*ctx)->store->List("spill/").empty());
}

}  // namespace
}  // namespace modularis::tpch
