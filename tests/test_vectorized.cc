/// \file test_vectorized.cc
/// Batch/row parity: the vectorized execution path (enable_vectorized)
/// must produce byte-identical results to the row-at-a-time oracle, for
/// every combination with enable_fusion, across join types, empty
/// inputs, duplicate-heavy keys, and match chains that straddle batch
/// boundaries. Also covers the RowBatch protocol primitives.

#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "mpi/tcp_exchange.h"
#include "plans/distributed_join.h"
#include "serverless/serverless_ops.h"
#include "storage/blob_store.h"
#include "suboperators/agg_ops.h"
#include "suboperators/basic_ops.h"
#include "suboperators/join_ops.h"
#include "suboperators/partition_ops.h"
#include "suboperators/scan_ops.h"
#include "tpch/queries.h"

namespace modularis {
namespace {

void ExpectBytesEqual(const RowVector& expected, const RowVector& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  ASSERT_EQ(expected.row_size(), actual.row_size()) << label;
  if (expected.byte_size() == 0) return;  // empty vectors may have null data
  ASSERT_EQ(0, std::memcmp(expected.data(), actual.data(),
                           expected.byte_size()))
      << label << ": payload bytes differ";
}

RowVectorPtr MakeKv(int64_t rows, int64_t key_space, uint32_t seed) {
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

// ---------------------------------------------------------------------------
// RowBatch / protocol primitives
// ---------------------------------------------------------------------------

TEST(RowBatchTest, BorrowAndRange) {
  RowVectorPtr data = MakeKv(100, 10, 1);
  RowBatch b;
  b.Borrow(data);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.data(), data->data());
  b.BorrowRange(data, 10, 25);
  EXPECT_EQ(b.size(), 25u);
  EXPECT_EQ(b.row(0).GetInt64(1), data->row(10).GetInt64(1));
}

TEST(RowBatchTest, ReleasedHandoff) {
  RowVectorPtr data = MakeKv(10, 10, 1);
  RowBatch b;
  b.Borrow(data);
  EXPECT_EQ(b.TakeReleased(), nullptr);  // not released
  b.Borrow(data);
  b.MarkReleased();
  RowVectorPtr stolen = b.TakeReleased();
  ASSERT_NE(stolen, nullptr);
  EXPECT_EQ(stolen.get(), data.get());
  EXPECT_EQ(b.TakeReleased(), nullptr);  // single steal
  // A range view over a released vector must not be stealable.
  b.BorrowRange(data, 1, 5);
  b.MarkReleased();
  b.BorrowRange(data, 1, 5);
  EXPECT_EQ(b.TakeReleased(), nullptr);
}

TEST(RowBatchTest, DefaultAdapterBatchesRowStream) {
  // A TupleSource of 2500 individual row tuples: the default adapter
  // packs them into kDefaultRows-sized batches.
  RowVectorPtr data = MakeKv(2500, 50, 2);
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < data->size(); ++i) {
    tuples.push_back(Tuple{Item(data->row(i))});
  }
  TupleSource src(std::move(tuples));
  ExecContext ctx;
  ASSERT_TRUE(src.Open(&ctx).ok());
  RowBatch batch;
  size_t total = 0, batches = 0;
  while (src.NextBatch(&batch)) {
    EXPECT_LE(batch.size(), RowBatch::kDefaultRows);
    total += batch.size();
    ++batches;
  }
  EXPECT_TRUE(src.status().ok());
  EXPECT_EQ(total, 2500u);
  EXPECT_EQ(batches, 3u);  // 1024 + 1024 + 452
}

TEST(RowBatchTest, DefaultAdapterRejectsAtoms) {
  TupleSource src({Tuple{Item(int64_t{1}), Item(int64_t{2})}});
  ExecContext ctx;
  ASSERT_TRUE(src.Open(&ctx).ok());
  RowBatch batch;
  EXPECT_FALSE(src.NextBatch(&batch));
  EXPECT_FALSE(src.status().ok());
}

TEST(RowBatchTest, MixedNextAndNextBatchOnRowScan) {
  RowVectorPtr data = MakeKv(100, 10, 3);
  RowScan scan(std::make_unique<CollectionSource>(
      std::vector<RowVectorPtr>{data}));
  ExecContext ctx;
  ASSERT_TRUE(scan.Open(&ctx).ok());
  Tuple t;
  ASSERT_TRUE(scan.Next(&t));  // consume one row
  RowBatch batch;
  ASSERT_TRUE(scan.NextBatch(&batch));  // remainder as one batch
  EXPECT_EQ(batch.size(), 99u);
  EXPECT_EQ(batch.row(0).GetInt64(1), data->row(1).GetInt64(1));
  EXPECT_FALSE(scan.NextBatch(&batch));
  EXPECT_TRUE(scan.status().ok());
}

TEST(RowVectorTest, ClearResizeAndGrowth) {
  RowVectorPtr v = RowVector::Make(KeyValueSchema());
  for (int i = 0; i < 1000; ++i) {
    RowWriter w = v->AppendRow();
    w.SetInt64(0, i);
    w.SetInt64(1, -i);
  }
  EXPECT_EQ(v->size(), 1000u);
  v->Clear();
  EXPECT_TRUE(v->empty());
  v->ResizeRows(42);
  EXPECT_EQ(v->size(), 42u);
  EXPECT_EQ(v->row(41).GetInt64(0), 0);  // zero-initialized
  std::memset(v->mutable_row(7), 0x5A, v->row_size());
  EXPECT_EQ(v->row(7).GetInt64(0), 0x5A5A5A5A5A5A5A5All);
}

// ---------------------------------------------------------------------------
// Local operator parity (row vs batch protocol)
// ---------------------------------------------------------------------------

/// Runs `make_plan()` under the given options and materializes the whole
/// output as one RowVector of `schema`.
RowVectorPtr DrainPlan(SubOpPtr root, const Schema& schema,
                       const ExecOptions& options) {
  ExecContext ctx;
  ctx.options = options;
  MaterializeRowVector mat(std::move(root), schema);
  EXPECT_TRUE(mat.Open(&ctx).ok());
  Tuple t;
  EXPECT_TRUE(mat.Next(&t));
  EXPECT_TRUE(mat.status().ok());
  EXPECT_TRUE(mat.Close().ok());
  return t[0].collection();
}

ExecOptions Variant(bool fused, bool vectorized) {
  ExecOptions o;
  o.enable_fusion = fused;
  o.enable_vectorized = vectorized;
  return o;
}

SubOpPtr ScanOf(const RowVectorPtr& data) {
  return std::make_unique<RowScan>(std::make_unique<CollectionSource>(
      std::vector<RowVectorPtr>{data}));
}

TEST(VectorizedParityTest, FilterMapChain) {
  RowVectorPtr data = MakeKv(5000, 64, 7);
  Schema out({Field::I64("k2"), Field::I64("v")});
  auto make_plan = [&] {
    auto filter = std::make_unique<Filter>(
        ScanOf(data), ex::Lt(ex::Col(0), ex::Lit(int64_t{40})));
    return std::make_unique<MapOp>(
        std::move(filter), out,
        std::vector<MapOutput>{
            MapOutput::Compute(ex::Mul(ex::Col(0), ex::Lit(int64_t{2}))),
            MapOutput::Pass(1)});
  };
  RowVectorPtr baseline = DrainPlan(make_plan(), out, Variant(false, false));
  ASSERT_GT(baseline->size(), 0u);
  for (bool fused : {false, true}) {
    RowVectorPtr got = DrainPlan(make_plan(), out, Variant(fused, true));
    ExpectBytesEqual(*baseline, *got, "filter+map fused=" +
                                          std::to_string(fused));
  }
}

TEST(VectorizedParityTest, FilterAllPassAndNonePass) {
  RowVectorPtr data = MakeKv(3000, 8, 9);
  for (int64_t bound : {int64_t{0}, int64_t{8}, int64_t{4}}) {
    auto make_plan = [&] {
      return std::make_unique<Filter>(ScanOf(data),
                                      ex::Lt(ex::Col(0), ex::Lit(bound)));
    };
    RowVectorPtr baseline =
        DrainPlan(make_plan(), KeyValueSchema(), Variant(false, false));
    RowVectorPtr got =
        DrainPlan(make_plan(), KeyValueSchema(), Variant(false, true));
    ExpectBytesEqual(*baseline, *got,
                     "filter bound=" + std::to_string(bound));
  }
}

TEST(VectorizedParityTest, ReduceByKeyAllAggs) {
  RowVectorPtr data = MakeKv(20000, 97, 11);
  auto make_plan = [&] {
    return std::make_unique<ReduceByKey>(
        ScanOf(data), std::vector<int>{0},
        std::vector<AggSpec>{
            AggSpec{AggKind::kSum, ex::Col(1), "sum", AtomType::kInt64},
            AggSpec{AggKind::kCount, nullptr, "cnt", AtomType::kInt64},
            AggSpec{AggKind::kMin, ex::Col(1), "min", AtomType::kInt64},
            AggSpec{AggKind::kMax, ex::Col(1), "max", AtomType::kInt64}},
        KeyValueSchema());
  };
  Schema out = make_plan()->out_schema();
  RowVectorPtr baseline = DrainPlan(make_plan(), out, Variant(false, false));
  ASSERT_EQ(baseline->size(), 97u);
  for (bool fused : {false, true}) {
    RowVectorPtr got = DrainPlan(make_plan(), out, Variant(fused, true));
    ExpectBytesEqual(*baseline, *got,
                     "reduce fused=" + std::to_string(fused));
  }
}

TEST(VectorizedParityTest, SortParity) {
  RowVectorPtr data = MakeKv(5000, 1000, 13);
  auto make_plan = [&] {
    return std::make_unique<SortOp>(
        ScanOf(data),
        std::vector<SortKey>{SortKey{0, false}, SortKey{1, true}},
        KeyValueSchema());
  };
  RowVectorPtr baseline =
      DrainPlan(make_plan(), KeyValueSchema(), Variant(false, false));
  RowVectorPtr got =
      DrainPlan(make_plan(), KeyValueSchema(), Variant(false, true));
  ExpectBytesEqual(*baseline, *got, "sort");
}

/// BuildProbe parity over explicit collections, exercising duplicate
/// chains that straddle batch boundaries: the build side holds one hot
/// key with more duplicates than RowBatch::kDefaultRows, and probe
/// collections have sizes around the batch granule.
TEST(VectorizedParityTest, JoinTypesDupHeavyAndBatchStraddle) {
  const int64_t kHot = 5;
  RowVectorPtr build = RowVector::Make(KeyValueSchema());
  for (int64_t i = 0; i < 1500; ++i) {  // hot chain > kDefaultRows
    RowWriter w = build->AppendRow();
    w.SetInt64(0, kHot);
    w.SetInt64(1, i);
  }
  for (int64_t i = 0; i < 500; ++i) {
    RowWriter w = build->AppendRow();
    w.SetInt64(0, 100 + i);
    w.SetInt64(1, -i);
  }
  // Probe split into odd-sized collections (1023 / 1025 / 1 / rest).
  RowVectorPtr all_probe = MakeKv(3000, 700, 17);
  std::vector<RowVectorPtr> probe_chunks;
  size_t sizes[] = {1023, 1025, 1, 951};
  size_t pos = 0;
  for (size_t s : sizes) {
    RowVectorPtr c = RowVector::Make(KeyValueSchema());
    c->AppendRawBatch(all_probe->data() + pos * all_probe->row_size(), s);
    pos += s;
    probe_chunks.push_back(std::move(c));
  }
  ASSERT_EQ(pos, all_probe->size());

  for (JoinType jt : {JoinType::kInner, JoinType::kSemi, JoinType::kAnti}) {
    auto make_plan = [&] {
      return std::make_unique<BuildProbe>(
          ScanOf(build),
          std::make_unique<RowScan>(
              std::make_unique<CollectionSource>(probe_chunks)),
          KeyValueSchema(), KeyValueSchema(), 0, 0, jt);
    };
    Schema out = make_plan()->out_schema();
    RowVectorPtr baseline = DrainPlan(make_plan(), out, Variant(false, false));
    RowVectorPtr got = DrainPlan(make_plan(), out, Variant(false, true));
    ExpectBytesEqual(*baseline, *got,
                     "join type=" + std::to_string(static_cast<int>(jt)));
  }
}

TEST(VectorizedParityTest, JoinEmptySides) {
  RowVectorPtr data = MakeKv(100, 10, 19);
  RowVectorPtr empty = RowVector::Make(KeyValueSchema());
  for (JoinType jt : {JoinType::kInner, JoinType::kSemi, JoinType::kAnti}) {
    for (int which : {0, 1, 2}) {  // empty build / empty probe / both
      auto make_plan = [&] {
        return std::make_unique<BuildProbe>(
            ScanOf(which != 1 ? empty : data),
            ScanOf(which != 0 ? empty : data), KeyValueSchema(),
            KeyValueSchema(), 0, 0, jt);
      };
      Schema out = make_plan()->out_schema();
      RowVectorPtr baseline =
          DrainPlan(make_plan(), out, Variant(false, false));
      RowVectorPtr got = DrainPlan(make_plan(), out, Variant(false, true));
      ExpectBytesEqual(*baseline, *got,
                       "empty join type=" +
                           std::to_string(static_cast<int>(jt)) +
                           " which=" + std::to_string(which));
    }
  }
}

TEST(VectorizedParityTest, LocalPartitionPresizedScatter) {
  RowVectorPtr data = MakeKv(10000, 1 << 12, 23);
  RadixSpec spec{4, 0, RadixHash::kMix};
  auto run = [&](bool vectorized) {
    ExecContext ctx;
    ctx.options.enable_vectorized = vectorized;
    auto plan = std::make_unique<PipelinePlan>();
    plan->Add("lh", std::make_unique<LocalHistogram>(ScanOf(data), spec, 0));
    plan->SetOutput(std::make_unique<LocalPartition>(
        ScanOf(data), plan->MakeRef("lh"), spec, 0));
    EXPECT_TRUE(plan->Open(&ctx).ok());
    std::vector<RowVectorPtr> parts;
    Tuple t;
    while (plan->Next(&t)) {
      EXPECT_EQ(t[0].i64(), static_cast<int64_t>(parts.size()));
      parts.push_back(t[1].collection());
    }
    EXPECT_TRUE(plan->status().ok());
    EXPECT_TRUE(plan->Close().ok());
    return parts;
  };
  auto baseline = run(false);
  auto got = run(true);
  ASSERT_EQ(baseline.size(), got.size());
  ASSERT_EQ(baseline.size(), static_cast<size_t>(spec.fanout()));
  for (size_t p = 0; p < baseline.size(); ++p) {
    ExpectBytesEqual(*baseline[p], *got[p],
                     "partition " + std::to_string(p));
  }
}

TEST(VectorizedParityTest, MaterializeAtomTuplesStillWorks) {
  // Driver-side result assembly: atom tuples must keep working with the
  // vectorized default on.
  std::vector<Tuple> tuples;
  tuples.push_back(Tuple{Item(int64_t{1}), Item(int64_t{2})});
  tuples.push_back(Tuple{Item(int64_t{3}), Item(int64_t{4})});
  MaterializeRowVector mat(std::make_unique<TupleSource>(std::move(tuples)),
                           KeyValueSchema());
  ExecContext ctx;
  ASSERT_TRUE(mat.Open(&ctx).ok());
  Tuple t;
  ASSERT_TRUE(mat.Next(&t));
  const RowVectorPtr& rows = t[0].collection();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ(rows->row(1).GetInt64(0), 3);
  EXPECT_EQ(rows->row(1).GetInt64(1), 4);
}

TEST(VectorizedParityTest, PipelineMixedStreamPreservesOrder) {
  // Mixed pipelines (rows and non-row tuples interleaved, both orders)
  // must replay through PipelineRef in their original order.
  RowVectorPtr rows = MakeKv(3, 10, 29);
  for (bool rows_first : {true, false}) {
    std::vector<Tuple> stream;
    if (rows_first) {
      for (size_t i = 0; i < rows->size(); ++i) {
        stream.push_back(Tuple{Item(rows->row(i))});
      }
      stream.push_back(Tuple{Item(int64_t{42})});
    } else {
      stream.push_back(Tuple{Item(int64_t{42})});
      for (size_t i = 0; i < rows->size(); ++i) {
        stream.push_back(Tuple{Item(rows->row(i))});
      }
    }
    auto plan = std::make_unique<PipelinePlan>();
    plan->Add("mixed",
              std::make_unique<TupleSource>(std::move(stream)));
    plan->SetOutput(plan->MakeRef("mixed"));
    ExecContext ctx;
    ASSERT_TRUE(plan->Open(&ctx).ok());
    Tuple t;
    std::vector<bool> is_row;
    while (plan->Next(&t)) {
      is_row.push_back(t.size() == 1 && t[0].is_row());
    }
    ASSERT_TRUE(plan->status().ok());
    ASSERT_EQ(is_row.size(), 4u);
    if (rows_first) {
      EXPECT_TRUE(is_row[0] && is_row[1] && is_row[2] && !is_row[3]);
    } else {
      EXPECT_TRUE(!is_row[0] && is_row[1] && is_row[2] && is_row[3]);
    }
  }
}

// ---------------------------------------------------------------------------
// Newly batch-native operators: ColumnScan, GroupByPid, TcpExchange,
// S3Exchange. For each, the row-at-a-time Next() stream is the oracle and
// the instrumentation must show the operator never fell back to the
// default NextBatch adapter.
// ---------------------------------------------------------------------------

/// Drains `op`'s batch protocol into one RowVector (first batch defines
/// the schema).
RowVectorPtr DrainBatches(SubOperator* op) {
  RowVectorPtr all;
  RowBatch batch;
  while (op->NextBatch(&batch)) {
    if (batch.empty()) continue;
    if (all == nullptr) all = RowVector::Make(batch.schema());
    all->AppendRawBatch(batch.data(), batch.size());
  }
  EXPECT_TRUE(op->status().ok()) << op->status().ToString();
  return all == nullptr ? RowVector::Make(KeyValueSchema()) : all;
}

int64_t AdapterCount(const ExecContext& ctx, const std::string& op_name) {
  return ctx.stats->GetCounter("vectorized.default_adapter." + op_name);
}

ColumnTablePtr MakeMixedTable(size_t rows, uint32_t seed) {
  Schema schema({Field::I64("k"), Field::F64("x"), Field::Str("tag", 6),
                 Field::I32("n"), Field::Date("d")});
  ColumnTablePtr table = ColumnTable::Make(schema);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> dist(0, 999);
  const char* tags[] = {"", "a", "bb", "cccccc"};
  for (size_t i = 0; i < rows; ++i) {
    table->column(0).AppendInt64(dist(rng));
    table->column(1).AppendFloat64(static_cast<double>(dist(rng)) / 7);
    table->column(2).AppendString(tags[i % 4]);
    table->column(3).AppendInt32(static_cast<int32_t>(i));
    table->column(4).AppendInt32(static_cast<int32_t>(dist(rng)));
  }
  table->FinishBulkLoad();
  return table;
}

TEST(BatchNativeOpsTest, ColumnScanParityAndNoAdapter) {
  // Several tables (including an empty one and one spanning multiple
  // kDefaultRows batches) behind a TupleSource of table items.
  std::vector<ColumnTablePtr> tables = {
      MakeMixedTable(100, 1), MakeMixedTable(0, 2), MakeMixedTable(3000, 3)};
  Schema schema = tables[0]->schema();
  auto make_scan = [&] {
    std::vector<Tuple> tuples;
    for (const auto& t : tables) tuples.push_back(Tuple{Item(t)});
    return std::make_unique<ColumnScan>(
        std::make_unique<TupleSource>(std::move(tuples)), schema);
  };

  // Oracle: row-at-a-time drain.
  auto oracle_scan = make_scan();
  ExecContext octx;
  ASSERT_TRUE(oracle_scan->Open(&octx).ok());
  RowVectorPtr oracle = RowVector::Make(schema);
  Tuple t;
  while (oracle_scan->Next(&t)) oracle->AppendRaw(t[0].row().data());
  ASSERT_TRUE(oracle_scan->status().ok());

  auto batch_scan = make_scan();
  ExecContext bctx;
  ASSERT_TRUE(batch_scan->Open(&bctx).ok());
  RowVectorPtr got = DrainBatches(batch_scan.get());
  ExpectBytesEqual(*oracle, *got, "ColumnScan batch");
  EXPECT_EQ(AdapterCount(bctx, "ColumnScan"), 0);

  // Mixing rule: Next() then NextBatch() continues mid-table.
  auto mixed = make_scan();
  ExecContext mctx;
  ASSERT_TRUE(mixed->Open(&mctx).ok());
  ASSERT_TRUE(mixed->Next(&t));
  RowVectorPtr rest = DrainBatches(mixed.get());
  EXPECT_EQ(rest->size(), oracle->size() - 1);
  EXPECT_EQ(0, std::memcmp(rest->data(), oracle->data() + oracle->row_size(),
                           rest->byte_size()));
}

TEST(BatchNativeOpsTest, GroupByPidParityAndNoAdapter) {
  // ⟨pid, collection⟩ chunks with duplicate pids out of order.
  auto make_input = [&] {
    std::vector<Tuple> tuples;
    for (int round = 0; round < 3; ++round) {
      for (int64_t pid : {2, 0, 3, 2}) {
        RowVectorPtr chunk = MakeKv(50 + 10 * round, 16,
                                    static_cast<uint32_t>(7 * round + pid));
        tuples.push_back(Tuple{Item(pid), Item(chunk)});
      }
    }
    return std::make_unique<GroupByPid>(
        std::make_unique<TupleSource>(std::move(tuples)));
  };

  // Oracle: flatten the ⟨pid, merged collection⟩ stream in pid order.
  auto oracle_op = make_input();
  ExecContext octx;
  ASSERT_TRUE(oracle_op->Open(&octx).ok());
  RowVectorPtr oracle = RowVector::Make(KeyValueSchema());
  Tuple t;
  int64_t last_pid = -1;
  while (oracle_op->Next(&t)) {
    EXPECT_GT(t[0].i64(), last_pid);  // ascending pids
    last_pid = t[0].i64();
    oracle->AppendAll(*t[1].collection());
  }
  ASSERT_TRUE(oracle_op->status().ok());

  // Batch: the record projection, one durable batch per group.
  auto batch_op = make_input();
  ExecContext bctx;
  ASSERT_TRUE(batch_op->Open(&bctx).ok());
  RowVectorPtr got = DrainBatches(batch_op.get());
  ExpectBytesEqual(*oracle, *got, "GroupByPid batch");
  EXPECT_EQ(AdapterCount(bctx, "GroupBy"), 0);
}

TEST(BatchNativeOpsTest, TcpExchangeLoopbackParityAndNoAdapter) {
  const int world = 2;
  net::FabricOptions fabric;
  fabric.throttle = false;
  std::vector<RowVectorPtr> frags;
  for (int r = 0; r < world; ++r) {
    frags.push_back(MakeKv(4000, 512, 100 + r));
  }

  // Runs the exchange on every rank; `use_batch` picks the drain protocol.
  auto run = [&](bool use_batch) {
    std::vector<RowVectorPtr> per_rank(world);
    std::vector<int64_t> adapter_hits(world, 0);
    Status st = mpi::MpiRuntime::Run(
        world, fabric, [&](mpi::Communicator& comm) -> Status {
          const int r = comm.rank();
          ExecContext ctx;
          ctx.rank = r;
          ctx.world = world;
          ctx.comm = &comm;
          TcpExchange::Options opts;
          TcpExchange exchange(
              std::make_unique<RowScan>(std::make_unique<CollectionSource>(
                  std::vector<RowVectorPtr>{frags[r]})),
              opts);
          MODULARIS_RETURN_NOT_OK(exchange.Open(&ctx));
          if (use_batch) {
            per_rank[r] = DrainBatches(&exchange);
          } else {
            Tuple t;
            RowVectorPtr mine = RowVector::Make(KeyValueSchema());
            while (exchange.Next(&t)) {
              if (t[0].i64() != r) {
                return Status::Internal("wrong pid from TcpExchange");
              }
              mine->AppendAll(*t[1].collection());
            }
            MODULARIS_RETURN_NOT_OK(exchange.status());
            per_rank[r] = std::move(mine);
          }
          adapter_hits[r] = AdapterCount(ctx, "TcpExchange");
          return exchange.Close();
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (int64_t hits : adapter_hits) EXPECT_EQ(hits, 0);
    return per_rank;
  };

  auto oracle = run(false);
  auto got = run(true);
  size_t total = 0;
  for (int r = 0; r < world; ++r) {
    ExpectBytesEqual(*oracle[r], *got[r],
                     "TcpExchange rank " + std::to_string(r));
    total += got[r]->size();
  }
  EXPECT_EQ(total, static_cast<size_t>(world) * 4000);
}

TEST(BatchNativeOpsTest, S3ExchangeBlobStoreParityAndNoAdapter) {
  const int workers = 3;
  serverless::LambdaOptions lambda;
  lambda.num_workers = workers;
  lambda.throttle = false;
  lambda.s3 = storage::BlobClientOptions::Unthrottled();

  // Per-worker ⟨pid, collection⟩ partitions (one per receiver).
  std::vector<std::vector<RowVectorPtr>> parts(workers);
  for (int w = 0; w < workers; ++w) {
    for (int p = 0; p < workers; ++p) {
      parts[w].push_back(
          MakeKv(200 + 37 * w + p, 64, static_cast<uint32_t>(10 * w + p)));
    }
  }

  auto make_exchange = [&](int w, const std::string& prefix) {
    std::vector<Tuple> tuples;
    for (int p = 0; p < workers; ++p) {
      tuples.push_back(Tuple{Item(static_cast<int64_t>(p)),
                             Item(parts[w][p])});
    }
    S3Exchange::Options opts;
    opts.prefix = prefix;
    return std::make_unique<S3Exchange>(
        std::make_unique<GroupByPid>(
            std::make_unique<TupleSource>(std::move(tuples))),
        opts);
  };

  // `use_batch` false: oracle — drain the ⟨path, rg, rg⟩ triples through
  // ColumnFileScan + TableToCollection + RowScan (the plan shape of
  // Fig. 7). true: the exchange's own record-projection batches.
  auto run = [&](bool use_batch, const std::string& prefix) {
    storage::BlobStore store;
    std::vector<RowVectorPtr> per_worker(workers);
    std::vector<int64_t> x_adapter(workers, 0), g_adapter(workers, 0);
    Status st = serverless::LambdaRuntime::Run(
        lambda, &store, [&](serverless::LambdaWorkerContext& wctx) -> Status {
          const int w = wctx.worker_id;
          ExecContext ctx;
          ctx.rank = w;
          ctx.world = wctx.num_workers;
          ctx.blob = wctx.s3;
          ctx.lambda = &wctx;
          RowVectorPtr mine = RowVector::Make(KeyValueSchema());
          if (use_batch) {
            auto exchange = make_exchange(w, prefix);
            MODULARIS_RETURN_NOT_OK(exchange->Open(&ctx));
            RowBatch batch;
            while (exchange->NextBatch(&batch)) {
              if (!batch.empty()) {
                mine->AppendRawBatch(batch.data(), batch.size());
              }
            }
            MODULARIS_RETURN_NOT_OK(exchange->status());
            MODULARIS_RETURN_NOT_OK(exchange->Close());
          } else {
            ColumnFileScan::Options copts;
            RowScan scan(std::make_unique<TableToCollection>(
                std::make_unique<ColumnFileScan>(make_exchange(w, prefix),
                                                 copts)));
            MODULARIS_RETURN_NOT_OK(scan.Open(&ctx));
            Tuple t;
            while (scan.Next(&t)) mine->AppendRaw(t[0].row().data());
            MODULARIS_RETURN_NOT_OK(scan.status());
            MODULARIS_RETURN_NOT_OK(scan.Close());
          }
          per_worker[w] = std::move(mine);
          x_adapter[w] = AdapterCount(ctx, "S3Exchange");
          g_adapter[w] = AdapterCount(ctx, "GroupBy");
          return Status::OK();
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (use_batch) {
      for (int w = 0; w < workers; ++w) {
        EXPECT_EQ(x_adapter[w], 0) << "worker " << w;
        EXPECT_EQ(g_adapter[w], 0) << "worker " << w;
      }
    }
    return per_worker;
  };

  auto oracle = run(false, "parity_oracle");
  auto got = run(true, "parity_batch");
  for (int w = 0; w < workers; ++w) {
    ExpectBytesEqual(*oracle[w], *got[w],
                     "S3Exchange worker " + std::to_string(w));
    EXPECT_GT(got[w]->size(), 0u);
  }
}

/// Next() and NextBatch() share the triple cursor: switching protocols
/// mid-stream must deliver every row exactly once (no re-reads of
/// batch-delivered triples, no dropped remainders).
TEST(BatchNativeOpsTest, S3ExchangeMixedProtocolExactlyOnce) {
  const int workers = 3;
  serverless::LambdaOptions lambda;
  lambda.num_workers = workers;
  lambda.throttle = false;
  lambda.s3 = storage::BlobClientOptions::Unthrottled();

  std::vector<std::vector<RowVectorPtr>> parts(workers);
  for (int w = 0; w < workers; ++w) {
    for (int p = 0; p < workers; ++p) {
      parts[w].push_back(
          MakeKv(90 + 11 * w + p, 48, static_cast<uint32_t>(5 * w + p)));
    }
  }

  auto make_exchange = [&](int w, const std::string& prefix) {
    std::vector<Tuple> tuples;
    for (int p = 0; p < workers; ++p) {
      tuples.push_back(Tuple{Item(static_cast<int64_t>(p)),
                             Item(parts[w][p])});
    }
    S3Exchange::Options opts;
    opts.prefix = prefix;
    return std::make_unique<S3Exchange>(
        std::make_unique<GroupByPid>(
            std::make_unique<TupleSource>(std::move(tuples))),
        opts);
  };

  // `batch_pulls` = how many NextBatch() calls before switching to
  // Next(); the leftover triples are read back the Fig. 7 way.
  auto run = [&](int batch_pulls, const std::string& prefix) {
    storage::BlobStore store;
    std::vector<RowVectorPtr> per_worker(workers);
    Status st = serverless::LambdaRuntime::Run(
        lambda, &store, [&](serverless::LambdaWorkerContext& wctx) -> Status {
          const int w = wctx.worker_id;
          ExecContext ctx;
          ctx.rank = w;
          ctx.world = wctx.num_workers;
          ctx.blob = wctx.s3;
          ctx.lambda = &wctx;
          RowVectorPtr mine = RowVector::Make(KeyValueSchema());
          auto exchange = make_exchange(w, prefix);
          MODULARIS_RETURN_NOT_OK(exchange->Open(&ctx));
          RowBatch batch;
          for (int i = 0; i < batch_pulls && exchange->NextBatch(&batch); ++i) {
            if (!batch.empty()) {
              mine->AppendRawBatch(batch.data(), batch.size());
            }
          }
          MODULARIS_RETURN_NOT_OK(exchange->status());
          // Remaining triples through the row protocol; read them back
          // the way a downstream ColumnFileScan would.
          Tuple t;
          while (exchange->Next(&t)) {
            auto src = std::make_shared<storage::BlobReader>(
                ctx.blob, t[0].str());
            auto reader = storage::ColumnFileReader::Open(src);
            if (!reader.ok()) return reader.status();
            const size_t first = static_cast<size_t>(t[1].i64());
            const size_t last = static_cast<size_t>(t[2].i64());
            for (size_t rg = first;
                 rg <= last && rg < (*reader)->num_row_groups(); ++rg) {
              auto table = (*reader)->ReadRowGroup(rg, {});
              if (!table.ok()) return table.status();
              mine->AppendAll(*(*table)->ToRowVector());
            }
          }
          MODULARIS_RETURN_NOT_OK(exchange->status());
          per_worker[w] = std::move(mine);
          return Status::OK();
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return per_worker;
  };

  auto oracle = run(0, "mixed_oracle");  // all triples via Next()
  for (int pulls : {1, 2}) {
    auto got = run(pulls, "mixed_b" + std::to_string(pulls));
    for (int w = 0; w < workers; ++w) {
      ExpectBytesEqual(*oracle[w], *got[w],
                       "mixed protocol, " + std::to_string(pulls) +
                           " batch pulls, worker " + std::to_string(w));
    }
  }
}

/// Positive control for the instrumentation: a stream served by the
/// default adapter must report the counter.
TEST(BatchNativeOpsTest, DefaultAdapterInstrumentationFires) {
  RowVectorPtr data = MakeKv(10, 4, 55);
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < data->size(); ++i) {
    tuples.push_back(Tuple{Item(data->row(i))});
  }
  TupleSource src(std::move(tuples));
  ExecContext ctx;
  ASSERT_TRUE(src.Open(&ctx).ok());
  RowBatch batch;
  while (src.NextBatch(&batch)) {
  }
  EXPECT_GT(AdapterCount(ctx, "TupleSource"), 0);
}

// ---------------------------------------------------------------------------
// Distributed join parity (full plan, all variants)
// ---------------------------------------------------------------------------

std::vector<RowVectorPtr> MakeFragments(int world, int64_t num_keys,
                                        int64_t value_stride, uint32_t seed,
                                        int dup = 1) {
  std::vector<RowVectorPtr> frags;
  for (int r = 0; r < world; ++r) {
    frags.push_back(RowVector::Make(KeyValueSchema()));
  }
  std::mt19937 rng(seed);
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < num_keys; ++i) {
    for (int d = 0; d < dup; ++d) keys.push_back(i);
  }
  std::shuffle(keys.begin(), keys.end(), rng);
  for (size_t i = 0; i < keys.size(); ++i) {
    RowWriter w = frags[i % world]->AppendRow();
    w.SetInt64(0, keys[i]);
    w.SetInt64(1, static_cast<int64_t>(i) * value_stride + 1);
  }
  return frags;
}

struct DistParityCase {
  JoinType join_type;
  bool dup_heavy;
  bool empty_inner;
};

class DistributedJoinParityTest
    : public ::testing::TestWithParam<DistParityCase> {};

TEST_P(DistributedJoinParityTest, AllVariantsByteIdentical) {
  const DistParityCase& p = GetParam();
  const int world = 2;
  const int64_t n = p.dup_heavy ? 1000 : 6000;

  auto inner = p.empty_inner
                   ? std::vector<RowVectorPtr>(
                         world, RowVector::Make(KeyValueSchema()))
                   : MakeFragments(world, n, 2, 1, p.dup_heavy ? 4 : 1);
  auto outer = MakeFragments(world, n, 3, 2, 1);

  RowVectorPtr baseline;
  for (bool fused : {false, true}) {
    for (bool vectorized : {false, true}) {
      plans::DistJoinOptions opts;
      opts.world_size = world;
      opts.compress = false;  // duplicates break dense-domain compression
      opts.join_type = p.join_type;
      opts.exec.enable_fusion = fused;
      opts.exec.enable_vectorized = vectorized;
      opts.exec.network_radix_bits = 4;
      opts.exec.local_radix_bits = 3;
      opts.fabric.throttle = false;
      StatsRegistry stats;
      auto result = plans::RunDistributedJoin(inner, outer, opts, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (baseline == nullptr) {
        baseline = result.value();
        // Anti join over fully-overlapping key ranges is correctly
        // empty; everything else must produce rows.
        ASSERT_TRUE(p.empty_inner || p.join_type == JoinType::kAnti ||
                    baseline->size() > 0);
      } else {
        ExpectBytesEqual(*baseline, *result.value(),
                         std::string("fused=") + std::to_string(fused) +
                             " vectorized=" + std::to_string(vectorized));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllJoinTypes, DistributedJoinParityTest,
    ::testing::Values(DistParityCase{JoinType::kInner, false, false},
                      DistParityCase{JoinType::kInner, true, false},
                      DistParityCase{JoinType::kInner, false, true},
                      DistParityCase{JoinType::kSemi, false, false},
                      DistParityCase{JoinType::kSemi, true, false},
                      DistParityCase{JoinType::kAnti, false, false},
                      DistParityCase{JoinType::kAnti, true, true}));

/// Compressed-exchange variant (dense domain, the §4.1.2 path).
TEST(DistributedJoinParityTest2, CompressedExchangeParity) {
  const int world = 2;
  auto inner = MakeFragments(world, 6000, 2, 3);
  auto outer = MakeFragments(world, 6000, 3, 4);
  RowVectorPtr baseline;
  for (bool fused : {false, true}) {
    for (bool vectorized : {false, true}) {
      plans::DistJoinOptions opts;
      opts.world_size = world;
      opts.compress = true;
      opts.exec.enable_fusion = fused;
      opts.exec.enable_vectorized = vectorized;
      opts.exec.network_radix_bits = 4;
      opts.exec.local_radix_bits = 3;
      opts.exec.key_domain_bits = 16;
      opts.fabric.throttle = false;
      StatsRegistry stats;
      auto result = plans::RunDistributedJoin(inner, outer, opts, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (baseline == nullptr) {
        baseline = result.value();
        ASSERT_GT(baseline->size(), 0u);
      } else {
        ExpectBytesEqual(*baseline, *result.value(),
                         std::string("compressed fused=") +
                             std::to_string(fused) +
                             " vectorized=" + std::to_string(vectorized));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// TPC-H parity: every query, vectorized on vs off, byte-identical.
// ---------------------------------------------------------------------------

TEST(TpchVectorizedParityTest, AllQueriesByteIdentical) {
  tpch::GeneratorOptions gen;
  gen.scale_factor = 0.01;
  gen.seed = 7;
  tpch::TpchTables db = tpch::GenerateTpch(gen);

  for (int query : {1, 3, 4, 6, 12, 14, 18, 19}) {
    RowVectorPtr baseline;
    for (bool vectorized : {false, true}) {
      tpch::TpchRunOptions opts = tpch::TpchRunOptions::Rdma(4);
      opts.fabric.throttle = false;
      opts.storage.throttle = false;
      opts.exec.enable_vectorized = vectorized;
      auto ctx = tpch::PrepareTpch(db, opts);
      ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
      StatsRegistry stats;
      auto result = tpch::RunTpchQuery(query, **ctx, opts, &stats);
      ASSERT_TRUE(result.ok())
          << "Q" << query << ": " << result.status().ToString();
      if (baseline == nullptr) {
        baseline = result.value();
      } else {
        ExpectBytesEqual(*baseline, *result.value(),
                         "Q" + std::to_string(query));
      }
    }
  }
}

}  // namespace
}  // namespace modularis
