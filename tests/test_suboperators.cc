#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "core/exec_context.h"
#include "core/memory.h"
#include "core/pipeline.h"
#include "storage/blob_store.h"
#include "suboperators/agg_ops.h"
#include "suboperators/basic_ops.h"
#include "suboperators/join_ops.h"
#include "suboperators/partition_ops.h"
#include "suboperators/scan_ops.h"

namespace modularis {
namespace {

RowVectorPtr MakeKv(int64_t rows, int64_t key_space, uint32_t seed = 1) {
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> dist(0, key_space - 1);
  for (int64_t i = 0; i < rows; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, dist(rng));
    w.SetInt64(1, i);
  }
  return data;
}

Result<std::vector<Tuple>> Drain(SubOperator* op) {
  ExecContext ctx;
  std::vector<RowVectorPtr> arena;
  MODULARIS_RETURN_NOT_OK(op->Open(&ctx));
  std::vector<Tuple> out;
  Tuple t;
  while (op->Next(&t)) out.push_back(OwnTuple(t, &arena));
  MODULARIS_RETURN_NOT_OK(op->status());
  MODULARIS_RETURN_NOT_OK(op->Close());
  // Keep the arena alive with the tuples.
  static thread_local std::vector<std::vector<RowVectorPtr>> keepalive;
  keepalive.push_back(std::move(arena));
  return out;
}

TEST(RowScanTest, StreamsEveryRecordOfEveryCollection) {
  RowScan scan(std::make_unique<CollectionSource>(
      std::vector<RowVectorPtr>{MakeKv(10, 100), MakeKv(5, 100, 2)}));
  auto rows = Drain(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 15u);
}

TEST(RowScanTest, FailsOnNonCollectionItem) {
  RowScan scan(std::make_unique<TupleSource>(
      std::vector<Tuple>{Tuple{Item(int64_t{3})}}));
  auto rows = Drain(&scan);
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
}

TEST(ColumnScanTest, MaterializesRecordsFromColumnarTables) {
  ColumnTablePtr table = ColumnTable::FromRowVector(*MakeKv(20, 100));
  ColumnScan scan(std::make_unique<TupleSource>(
                      std::vector<Tuple>{Tuple{Item(table)}}),
                  KeyValueSchema());
  auto rows = Drain(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 20u);
  EXPECT_EQ((*rows)[3][0].row().GetInt64(1), 3);
}

TEST(MaterializeRowVectorTest, CollectsRowsCollectionsAndAtoms) {
  // Rows.
  {
    MaterializeRowVector mr(
        std::make_unique<RowScan>(std::make_unique<CollectionSource>(
            std::vector<RowVectorPtr>{MakeKv(7, 10)})),
        KeyValueSchema());
    auto out = Drain(&mr);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->size(), 1u);
    EXPECT_EQ((*out)[0][0].collection()->size(), 7u);
  }
  // Whole collections (fused form).
  {
    MaterializeRowVector mr(
        std::make_unique<CollectionSource>(
            std::vector<RowVectorPtr>{MakeKv(7, 10), MakeKv(3, 10)}),
        KeyValueSchema());
    auto out = Drain(&mr);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ((*out)[0][0].collection()->size(), 10u);
  }
  // Atom tuples (driver-side result assembly).
  {
    MaterializeRowVector mr(
        std::make_unique<TupleSource>(std::vector<Tuple>{
            Tuple{Item(int64_t{1}), Item(int64_t{2})},
            Tuple{Item(int64_t{3}), Item(int64_t{4})}}),
        KeyValueSchema());
    auto out = Drain(&mr);
    ASSERT_TRUE(out.ok());
    const RowVectorPtr& rv = (*out)[0][0].collection();
    ASSERT_EQ(rv->size(), 2u);
    EXPECT_EQ(rv->row(1).GetInt64(1), 4);
  }
}

TEST(ProjectionTest, ReordersTupleItems) {
  Projection proj(std::make_unique<TupleSource>(std::vector<Tuple>{
                      Tuple{Item(int64_t{1}), Item("a"), Item(2.0)}}),
                  {2, 0});
  auto out = Drain(&proj);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0], (Tuple{Item(2.0), Item(int64_t{1})}));
}

TEST(FilterMapTest, FilterThenComputedColumns) {
  auto scan = std::make_unique<RowScan>(std::make_unique<CollectionSource>(
      std::vector<RowVectorPtr>{MakeKv(100, 50)}));
  auto filter = std::make_unique<Filter>(
      std::move(scan), ex::Lt(ex::Col(0), ex::Lit(int64_t{10})));
  Schema out_schema({Field::I64("key"), Field::I64("twice")});
  MapOp map(std::move(filter), out_schema,
            {MapOutput::Pass(0),
             MapOutput::Compute(ex::Mul(ex::Col(0), ex::Lit(int64_t{2})))});
  auto out = Drain(&map);
  ASSERT_TRUE(out.ok());
  ASSERT_GT(out->size(), 0u);
  for (const Tuple& t : *out) {
    RowRef r = t[0].row();
    EXPECT_LT(r.GetInt64(0), 10);
    EXPECT_EQ(r.GetInt64(1), r.GetInt64(0) * 2);
  }
}

TEST(ZipTest, ConcatenatesAlignedStreamsAndRejectsSkew) {
  {
    Zip zip(std::make_unique<TupleSource>(std::vector<Tuple>{
                Tuple{Item(int64_t{1})}, Tuple{Item(int64_t{2})}}),
            std::make_unique<TupleSource>(std::vector<Tuple>{
                Tuple{Item("a")}, Tuple{Item("b")}}));
    auto out = Drain(&zip);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->size(), 2u);
    EXPECT_EQ((*out)[1], (Tuple{Item(int64_t{2}), Item("b")}));
  }
  {
    Zip zip(std::make_unique<TupleSource>(std::vector<Tuple>{
                Tuple{Item(int64_t{1})}}),
            std::make_unique<TupleSource>(std::vector<Tuple>{}));
    auto out = Drain(&zip);
    EXPECT_FALSE(out.ok());
  }
}

TEST(CartesianProductTest, AttachesLeftTupleToEveryRightTuple) {
  CartesianProduct cp(
      std::make_unique<TupleSource>(
          std::vector<Tuple>{Tuple{Item(int64_t{42})}}),
      std::make_unique<TupleSource>(std::vector<Tuple>{
          Tuple{Item("x")}, Tuple{Item("y")}, Tuple{Item("z")}}));
  auto out = Drain(&cp);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[2], (Tuple{Item(int64_t{42}), Item("z")}));
}

TEST(NestedMapTest, RunsNestedPlanPerInputTuple) {
  // Nested plan: count the records of the parameter collection.
  auto nested = [] {
    auto rows = std::make_unique<RowScan>(
        std::make_unique<Projection>(std::make_unique<ParameterLookup>(),
                                     std::vector<int>{0}));
    return std::make_unique<Reduce>(
        std::move(rows),
        std::vector<AggSpec>{AggSpec{AggKind::kCount, nullptr, "n",
                                     AtomType::kInt64}},
        KeyValueSchema());
  }();
  NestedMap nm(std::make_unique<CollectionSource>(std::vector<RowVectorPtr>{
                   MakeKv(4, 10), MakeKv(9, 10)}),
               std::move(nested));
  auto out = Drain(&nm);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0][0].row().GetInt64(0), 4);
  EXPECT_EQ((*out)[1][0].row().GetInt64(0), 9);
}

TEST(ParameterLookupTest, FailsWithoutFrame) {
  ParameterLookup pl;
  auto out = Drain(&pl);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
}

class PartitionProperty : public ::testing::TestWithParam<int> {};

TEST_P(PartitionProperty, PartitionsAreCompleteAndKeyPure) {
  const int bits = GetParam();
  RowVectorPtr data = MakeKv(5000, 1 << 12, 7);
  RadixSpec spec{bits, 0, RadixHash::kIdentity};

  auto plan = std::make_unique<PipelinePlan>();
  plan->Add("lh", std::make_unique<LocalHistogram>(
                      std::make_unique<CollectionSource>(
                          std::vector<RowVectorPtr>{data}),
                      spec, 0));
  plan->SetOutput(std::make_unique<LocalPartition>(
      std::make_unique<CollectionSource>(std::vector<RowVectorPtr>{data}),
      plan->MakeRef("lh"), spec, 0));

  auto out = Drain(plan.get());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), static_cast<size_t>(spec.fanout()));

  // Property 1: every record lands in the partition its key maps to.
  // Property 2: the multiset of values is preserved.
  std::multiset<int64_t> in_values, out_values;
  for (size_t i = 0; i < data->size(); ++i) {
    in_values.insert(data->row(i).GetInt64(1));
  }
  for (const Tuple& t : *out) {
    int64_t pid = t[0].i64();
    const RowVectorPtr& part = t[1].collection();
    for (size_t i = 0; i < part->size(); ++i) {
      EXPECT_EQ(spec.PartitionOf(part->row(i).GetInt64(0)),
                static_cast<uint32_t>(pid));
      out_values.insert(part->row(i).GetInt64(1));
    }
  }
  EXPECT_EQ(in_values, out_values);
}

INSTANTIATE_TEST_SUITE_P(RadixBits, PartitionProperty,
                         ::testing::Values(1, 3, 5, 8));

TEST(LocalHistogramTest, CountsMatchPartitionSizes) {
  RowVectorPtr data = MakeKv(1000, 64, 3);
  RadixSpec spec{4, 0, RadixHash::kMix};
  LocalHistogram lh(std::make_unique<CollectionSource>(
                        std::vector<RowVectorPtr>{data}),
                    spec, 0);
  auto out = Drain(&lh);
  ASSERT_TRUE(out.ok());
  const RowVectorPtr& hist = (*out)[0][0].collection();
  int64_t total = 0;
  for (size_t i = 0; i < hist->size(); ++i) {
    total += hist->row(i).GetInt64(0);
  }
  EXPECT_EQ(total, 1000);
}

TEST(GroupByPidTest, MergesChunksWithoutMutatingShared) {
  RowVectorPtr a = MakeKv(3, 10, 1);
  RowVectorPtr b = MakeKv(4, 10, 2);
  GroupByPid gb(std::make_unique<TupleSource>(std::vector<Tuple>{
      Tuple{Item(int64_t{1}), Item(a)}, Tuple{Item(int64_t{0}), Item(b)},
      Tuple{Item(int64_t{1}), Item(b)}}));
  auto out = Drain(&gb);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ((*out)[0][0].i64(), 0);
  EXPECT_EQ((*out)[0][1].collection()->size(), 4u);
  EXPECT_EQ((*out)[1][1].collection()->size(), 7u);
  // Copy-on-write: the shared inputs must not have grown.
  EXPECT_EQ(a->size(), 3u);
  EXPECT_EQ(b->size(), 4u);
}

TEST(JoinHashTableTest, DuplicateChainsAndMisses) {
  JoinHashTable table;
  table.Reserve(8);
  table.Insert(5, 0);
  table.Insert(5, 1);
  table.Insert(9, 2);
  std::set<uint32_t> rows;
  for (uint32_t e = table.Find(5); e != JoinHashTable::kNone;
       e = table.NextMatch(e)) {
    rows.insert(table.RowOf(e));
  }
  EXPECT_EQ(rows, (std::set<uint32_t>{0, 1}));
  EXPECT_EQ(table.Find(6), JoinHashTable::kNone);
  // Growth keeps entries reachable.
  for (int64_t k = 100; k < 400; ++k) table.Insert(k, static_cast<uint32_t>(k));
  EXPECT_NE(table.Find(5), JoinHashTable::kNone);
  EXPECT_NE(table.Find(399), JoinHashTable::kNone);
}

TEST(BuildProbeTest, InnerEmitsConcatenatedRows) {
  RowVectorPtr build = RowVector::Make(KeyValueSchema());
  RowVectorPtr probe = RowVector::Make(KeyValueSchema());
  for (int64_t k = 0; k < 50; ++k) {
    RowWriter wb = build->AppendRow();
    wb.SetInt64(0, k);
    wb.SetInt64(1, k * 10);
    RowWriter wp = probe->AppendRow();
    wp.SetInt64(0, k % 25);  // keys 0..24 match twice
    wp.SetInt64(1, k);
  }
  BuildProbe bp(std::make_unique<CollectionSource>(
                    std::vector<RowVectorPtr>{build}),
                std::make_unique<CollectionSource>(
                    std::vector<RowVectorPtr>{probe}),
                KeyValueSchema(), KeyValueSchema(), 0, 0);
  auto out = Drain(&bp);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 50u);  // every probe row matches exactly one key
  for (const Tuple& t : *out) {
    RowRef r = t[0].row();
    EXPECT_EQ(r.GetInt64(1), r.GetInt64(0) * 10);  // build payload
    EXPECT_EQ(r.GetInt64(2), r.GetInt64(0));       // probe key copy
  }
}

TEST(BuildProbeTest, EmptySidesYieldNoOutput) {
  for (bool empty_build : {true, false}) {
    BuildProbe bp(
        std::make_unique<CollectionSource>(std::vector<RowVectorPtr>{
            empty_build ? RowVector::Make(KeyValueSchema()) : MakeKv(5, 5)}),
        std::make_unique<CollectionSource>(std::vector<RowVectorPtr>{
            empty_build ? MakeKv(5, 5) : RowVector::Make(KeyValueSchema())}),
        KeyValueSchema(), KeyValueSchema(), 0, 0);
    auto out = Drain(&bp);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), 0u);
  }
}

TEST(ReduceByKeyTest, MultiColumnStringKeys) {
  Schema schema({Field::Str("a", 4), Field::Str("b", 4), Field::F64("x")});
  RowVectorPtr data = RowVector::Make(schema);
  const char* as[] = {"p", "q"};
  const char* bs[] = {"u", "v", "w"};
  for (int i = 0; i < 120; ++i) {
    RowWriter w = data->AppendRow();
    w.SetString(0, as[i % 2]);
    w.SetString(1, bs[i % 3]);
    w.SetFloat64(2, 1.0);
  }
  ReduceByKey rk(std::make_unique<CollectionSource>(
                     std::vector<RowVectorPtr>{data}),
                 {0, 1},
                 {AggSpec{AggKind::kSum, ex::Col(2), "sum",
                          AtomType::kFloat64},
                  AggSpec{AggKind::kCount, nullptr, "n", AtomType::kInt64}},
                 schema);
  auto out = Drain(&rk);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 6u);  // 2 x 3 key combinations
  for (const Tuple& t : *out) {
    EXPECT_EQ(t[0].row().GetFloat64(2), 20.0);
    EXPECT_EQ(t[0].row().GetInt64(3), 20);
  }
}

TEST(ReduceByKeyTest, MinMaxAggregates) {
  RowVectorPtr data = MakeKv(1000, 4, 9);
  ReduceByKey rk(std::make_unique<CollectionSource>(
                     std::vector<RowVectorPtr>{data}),
                 {0},
                 {AggSpec{AggKind::kMin, ex::Col(1), "lo", AtomType::kInt64},
                  AggSpec{AggKind::kMax, ex::Col(1), "hi",
                          AtomType::kInt64}},
                 KeyValueSchema());
  auto out = Drain(&rk);
  ASSERT_TRUE(out.ok());
  std::map<int64_t, std::pair<int64_t, int64_t>> expected;
  for (size_t i = 0; i < data->size(); ++i) {
    int64_t k = data->row(i).GetInt64(0), v = data->row(i).GetInt64(1);
    auto it = expected.find(k);
    if (it == expected.end()) {
      expected[k] = {v, v};
    } else {
      it->second.first = std::min(it->second.first, v);
      it->second.second = std::max(it->second.second, v);
    }
  }
  ASSERT_EQ(out->size(), expected.size());
  for (const Tuple& t : *out) {
    RowRef r = t[0].row();
    EXPECT_EQ(r.GetInt64(1), expected[r.GetInt64(0)].first);
    EXPECT_EQ(r.GetInt64(2), expected[r.GetInt64(0)].second);
  }
}

// Integer inputs feed integer states exactly, with no double in between:
// 2^53 + 1 neither rounds in a SUM nor in a MIN/MAX, and values next to
// INT64_MAX / INT64_MIN survive — for a bare column and for a computed
// input (`col + 0`), with fusion on (direct offset / bytecode) and off
// (row interpreter), on every pass: keyless and few-group (the few-group
// kernel), many groups at 1 worker (one-worker) and at 4
// (partition-owned), and under a memory limit (budgeted).
TEST(ReduceByKeyTest, IntegerInputsAggregateExactlyAbove2To53) {
  constexpr int64_t kBig = (int64_t{1} << 53) + 1;
  constexpr int64_t kHi = std::numeric_limits<int64_t>::max() - 1;
  constexpr int64_t kLo = std::numeric_limits<int64_t>::min() + 1;
  const Schema schema({Field::I64("k"), Field::I64("a"), Field::I64("b")});
  auto plus0 = [](int c) { return ex::Add(ex::Col(c), ex::Lit(int64_t{0})); };
  struct Case {
    int groups;  // 0 = keyless
    size_t limit;
  };
  for (const Case& c : {Case{0, 0}, Case{4, 0}, Case{4096, 0},
                        Case{4096, 64 << 10}}) {
    for (int threads : {1, 4}) {
      for (bool fusion : {true, false}) {
        SCOPED_TRACE("groups=" + std::to_string(c.groups) +
                     " limit=" + std::to_string(c.limit) +
                     " threads=" + std::to_string(threads) +
                     " fusion=" + std::to_string(fusion));
        RowVectorPtr data = RowVector::Make(schema);
        for (int g = 0; g < std::max(c.groups, 1); ++g) {
          for (int64_t b : {kHi, kLo}) {
            RowWriter w = data->AppendRow();
            w.SetInt64(0, g);
            w.SetInt64(1, kBig);
            w.SetInt64(2, b);
          }
        }
        std::vector<int> keys;
        if (c.groups > 0) keys.push_back(0);
        ReduceByKey rk(
            std::make_unique<CollectionSource>(std::vector<RowVectorPtr>{data}),
            keys,
            {AggSpec{AggKind::kSum, ex::Col(1), "s", AtomType::kInt64},
             AggSpec{AggKind::kMin, ex::Col(2), "lo", AtomType::kInt64},
             AggSpec{AggKind::kMax, ex::Col(2), "hi", AtomType::kInt64},
             AggSpec{AggKind::kSum, plus0(1), "s0", AtomType::kInt64},
             AggSpec{AggKind::kMin, plus0(2), "lo0", AtomType::kInt64},
             AggSpec{AggKind::kMax, plus0(2), "hi0", AtomType::kInt64}},
            schema);
        storage::BlobStore store;
        MemoryBudget budget(c.limit);
        StatsRegistry stats;
        ExecContext ctx;
        ctx.stats = &stats;
        ctx.options.num_threads = threads;
        ctx.options.parallel_min_rows = 1024;
        ctx.options.memory_limit_bytes = c.limit;
        ctx.options.enable_fusion = fusion;
        ctx.budget = &budget;
        ctx.spill_store = &store;
        ASSERT_TRUE(rk.Open(&ctx).ok());
        const int first = static_cast<int>(keys.size());
        size_t rows = 0;
        Tuple t;
        while (rk.Next(&t)) {
          RowRef r = t[0].row();
          for (int base : {first, first + 3}) {
            EXPECT_EQ(r.GetInt64(base), 2 * kBig);
            EXPECT_EQ(r.GetInt64(base + 1), kLo);
            EXPECT_EQ(r.GetInt64(base + 2), kHi);
          }
          ++rows;
        }
        ASSERT_TRUE(rk.status().ok()) << rk.status().ToString();
        EXPECT_EQ(rows, static_cast<size_t>(std::max(c.groups, 1)));
        EXPECT_EQ(stats.GetCounter("spill.ops.ReduceByKey"), c.limit > 0);
      }
    }
  }
}

// Non-numeric aggregate inputs: a string column, a string-valued
// expression and a dynamically typed expression whose lanes turn out to be
// strings must each fail with InvalidArgument — never read string bytes as
// a number or throw — on the fused (direct offset / bytecode) path and on
// the interpreted (enable_fusion = false) path alike.

Schema KeyStrValSchema() {
  return Schema({Field::I64("k"), Field::Str("s", 8), Field::I64("v")});
}

RowVectorPtr MakeKeyStrVal() {
  RowVectorPtr data = RowVector::Make(KeyStrValSchema());
  for (int64_t i = 0; i < 100; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, i % 3);
    w.SetString(1, "abc");
    w.SetInt64(2, i);
  }
  return data;
}

/// Opens and drains `op` with fusion on or off; the first error.
Status RunWithFusion(SubOperator* op, bool fusion) {
  ExecContext ctx;
  ctx.options.enable_fusion = fusion;
  MODULARIS_RETURN_NOT_OK(op->Open(&ctx));
  Tuple t;
  while (op->Next(&t)) {
  }
  MODULARIS_RETURN_NOT_OK(op->status());
  return op->Close();
}

Status SumOver(ExprPtr input, bool fusion, bool keyless = false) {
  std::vector<AggSpec> aggs = {
      AggSpec{AggKind::kSum, std::move(input), "s", AtomType::kFloat64}};
  auto source = std::make_unique<CollectionSource>(
      std::vector<RowVectorPtr>{MakeKeyStrVal()});
  if (keyless) {
    Reduce r(std::move(source), std::move(aggs), KeyStrValSchema());
    return RunWithFusion(&r, fusion);
  }
  ReduceByKey rk(std::move(source), {0}, std::move(aggs), KeyStrValSchema());
  return RunWithFusion(&rk, fusion);
}

TEST(ReduceByKeyTest, StringColumnInputIsRejected) {
  for (bool fusion : {true, false}) {
    for (bool keyless : {false, true}) {
      const Status st = SumOver(ex::Col(1), fusion, keyless);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << "fusion=" << fusion << " keyless=" << keyless << ": "
          << st.ToString();
    }
  }
}

TEST(ReduceByKeyTest, StringValuedExpressionIsRejected) {
  // Both branches are strings: the input's static type is a string.
  for (bool fusion : {true, false}) {
    const Status st = SumOver(
        ex::If(ex::Gt(ex::Col(2), ex::Lit(int64_t{5})), ex::Col(1),
               ex::Lit(std::string("x"))),
        fusion);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << "fusion=" << fusion << ": " << st.ToString();
  }
}

TEST(ReduceByKeyTest, NonNumericLaneFailsTheRun) {
  // Mixed branch types leave the input dynamically typed (per-lane
  // fallback); rows with v > 50 evaluate to a string.
  for (bool fusion : {true, false}) {
    for (bool keyless : {false, true}) {
      const Status st = SumOver(
          ex::If(ex::Gt(ex::Col(2), ex::Lit(int64_t{50})), ex::Col(1),
                 ex::Col(2)),
          fusion, keyless);
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << "fusion=" << fusion << " keyless=" << keyless << ": "
          << st.ToString();
    }
  }
  // The same dynamically typed input is fine while every lane is numeric.
  for (bool fusion : {true, false}) {
    const Status st = SumOver(
        ex::If(ex::Gt(ex::Col(2), ex::Lit(int64_t{1000})), ex::Col(1),
               ex::Col(2)),
        fusion);
    EXPECT_TRUE(st.ok()) << "fusion=" << fusion << ": " << st.ToString();
  }
}

TEST(ReduceTest, EmptyInputEmitsIdentityRow) {
  Reduce reduce(std::make_unique<CollectionSource>(std::vector<RowVectorPtr>{
                    RowVector::Make(KeyValueSchema())}),
                {AggSpec{AggKind::kCount, nullptr, "n", AtomType::kInt64},
                 AggSpec{AggKind::kSum, ex::Col(1), "s", AtomType::kInt64}},
                KeyValueSchema());
  auto out = Drain(&reduce);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0][0].row().GetInt64(0), 0);
  EXPECT_EQ((*out)[0][0].row().GetInt64(1), 0);
}

TEST(SortTopKTest, OrderingAndLimit) {
  RowVectorPtr data = MakeKv(500, 1000, 11);
  std::vector<SortKey> keys = {{1, true}};  // value desc
  SortOp sort(std::make_unique<CollectionSource>(
                  std::vector<RowVectorPtr>{data}),
              keys, KeyValueSchema());
  auto sorted = Drain(&sort);
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(sorted->size(), 500u);
  for (size_t i = 1; i < sorted->size(); ++i) {
    EXPECT_GE((*sorted)[i - 1][0].row().GetInt64(1),
              (*sorted)[i][0].row().GetInt64(1));
  }

  TopK topk(std::make_unique<CollectionSource>(
                std::vector<RowVectorPtr>{data}),
            keys, 10, KeyValueSchema());
  auto top = Drain(&topk);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*top)[i][0].row().GetInt64(1),
              (*sorted)[i][0].row().GetInt64(1));
  }
}

TEST(PipelinePlanTest, RefsReadEarlierPipelinesAndReexecute) {
  auto plan = std::make_unique<PipelinePlan>();
  plan->Add("src", std::make_unique<CollectionSource>(
                       std::vector<RowVectorPtr>{MakeKv(10, 10)}));
  // Two consumers of the same materialized pipeline.
  plan->SetOutput(std::make_unique<Zip>(plan->MakeRef("src"),
                                        plan->MakeRef("src")));
  auto out = Drain(plan.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].size(), 2u);

  // Re-opening re-executes all pipelines (NestedMap contract).
  auto out2 = Drain(plan.get());
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->size(), 1u);
}

TEST(PipelinePlanTest, MissingPipelineIsAnError) {
  auto plan = std::make_unique<PipelinePlan>();
  plan->SetOutput(plan->MakeRef("never_added"));
  auto out = Drain(plan.get());
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace modularis
