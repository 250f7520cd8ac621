/// \file bench_micro.cc
/// Microbenchmarks of the hot sub-operator primitives: radix
/// histogram/scatter, join hash table, ReduceByKey, expression
/// evaluation, the ColumnFile codec, and the partition→build→probe
/// pipeline with the vectorized batch path on and off. These are the
/// "model performance" numbers (§5.2.2) at the smallest granularity.
///
/// Standalone driver (no google-benchmark): prints a table and writes
/// machine-readable results to BENCH_micro.json (or argv[1]) so the
/// perf trajectory is tracked across PRs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/exec_context.h"
#include "core/expr.h"
#include "core/fault.h"
#include "core/expr_bc.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "mpi/mpi_ops.h"
#include "planner/lower.h"
#include "planner/passes.h"
#include "storage/blob_store.h"
#include "storage/column_file.h"
#include "tpch/queries.h"
#include "suboperators/agg_ops.h"
#include "suboperators/basic_ops.h"
#include "suboperators/join_ops.h"
#include "suboperators/partition_ops.h"
#include "suboperators/scan_ops.h"

namespace modularis {
namespace {

struct BenchResult {
  std::string op;
  size_t rows = 0;
  double seconds = 0;
  double rows_per_sec = 0;
  double bytes_per_sec = 0;
  int vectorized = -1;  // -1: not applicable, 0: off, 1: on
  int threads = 0;      // 0: not applicable (single-thread legacy entry)
};

std::vector<BenchResult>* Results() {
  static std::vector<BenchResult> results;
  return &results;
}

/// Times `fn` (best of a few runs after one warmup) and records a result.
/// `threads` > 0 tags a thread-scaling entry; the printed per-thread
/// throughput is aggregate / threads.
BenchResult RunBench(const std::string& op, size_t rows, size_t bytes,
                     int vectorized, const std::function<void()>& fn,
                     int threads = 0) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup
  double best = 1e300;
  double total = 0;
  for (int iter = 0; iter < 5 && total < 1.0; ++iter) {
    auto start = clock::now();
    fn();
    double secs = std::chrono::duration<double>(clock::now() - start).count();
    best = std::min(best, secs);
    total += secs;
  }
  BenchResult r;
  r.op = op;
  r.rows = rows;
  r.seconds = best;
  r.rows_per_sec = static_cast<double>(rows) / best;
  r.bytes_per_sec = static_cast<double>(bytes) / best;
  r.vectorized = vectorized;
  r.threads = threads;
  Results()->push_back(r);
  if (threads > 0) {
    std::printf(
        "%-32s %10zu rows  %10.3f ms  %8.1f Mrows/s  %8.1f Mrows/s/thread"
        "  [%d threads]\n",
        op.c_str(), rows, best * 1e3, r.rows_per_sec / 1e6,
        r.rows_per_sec / threads / 1e6, threads);
  } else {
    std::printf(
        "%-32s %10zu rows  %10.3f ms  %8.1f Mrows/s  %8.1f MB/s%s\n",
        op.c_str(), rows, best * 1e3, r.rows_per_sec / 1e6,
        r.bytes_per_sec / 1e6,
        vectorized < 0 ? ""
                       : (vectorized ? "  [vectorized]" : "  [row-at-a-time]"));
  }
  return r;
}

RowVectorPtr MakeKv(int64_t rows, int64_t key_space, uint32_t seed = 42,
                    /// >0: key = i / dup (each key `dup` times, in order).
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

void BenchRadixHistogram() {
  RowVectorPtr data = MakeKv(1 << 20, 1 << 20);
  RadixSpec spec{8, 0, RadixHash::kIdentity};
  std::vector<int64_t> counts(spec.fanout());
  RunBench("radix_histogram", data->size(), data->byte_size(), -1, [&] {
    std::fill(counts.begin(), counts.end(), 0);
    CountRows(*data, spec, 0, counts.data());
  });
}

void BenchRadixScatter() {
  RowVectorPtr data = MakeKv(1 << 20, 1 << 20);
  RadixSpec spec{8, 0, RadixHash::kIdentity};
  ExecContext ctx;
  ctx.options.num_threads = 1;
  // The ranged scatter at one worker, as PartitionOp runs it: count the
  // span, size the partitions from the counts, scatter.
  RunBench("radix_scatter", data->size(), data->byte_size(), -1, [&] {
    RangedScatter scatter(&ctx, "bench", data->data(), data->size(),
                          data->row_size(),
                          ScatterRoute::Radix(spec, data->schema(), 0), 1);
    std::vector<RowVectorPtr> parts;
    Status st = scatter.Count();
    for (int64_t rows_p : scatter.totals()) {
      RowVectorPtr part = RowVector::Make(KeyValueSchema());
      part->ResizeRowsUninitialized(static_cast<size_t>(rows_p));
      parts.push_back(std::move(part));
    }
    if (st.ok()) {
      st = scatter.Scatter({}, InMemoryStageRows(data->row_size()), false,
                           PartitionsSink(&parts));
    }
    if (!st.ok()) std::abort();
  });
  // Pre-sized variant, as LocalPartition runs it: exact per-partition
  // allocation from a histogram, which stands in for the count pass.
  std::vector<int64_t> counts(spec.fanout(), 0);
  CountRows(*data, spec, 0, counts.data());
  RunBench("radix_scatter_presized", data->size(), data->byte_size(), -1,
           [&] {
             std::vector<RowVectorPtr> parts;
             for (int p = 0; p < spec.fanout(); ++p) {
               RowVectorPtr part = RowVector::Make(KeyValueSchema());
               part->ResizeRows(static_cast<size_t>(counts[p]));
               parts.push_back(std::move(part));
             }
             RangedScatter scatter(
                 &ctx, "bench", data->data(), data->size(), data->row_size(),
                 ScatterRoute::Radix(spec, data->schema(), 0), 1);
             Status st = scatter.Count(&counts);
             if (st.ok()) {
               st = scatter.Scatter({}, InMemoryStageRows(data->row_size()),
                                    false, PartitionsSink(&parts));
             }
             if (!st.ok()) std::abort();
           });
}

void BenchJoinHashTable() {
  const int64_t n = 1 << 18;
  RowVectorPtr build = MakeKv(n, n);
  RunBench("join_hash_table", 2 * n, 2 * build->byte_size(), -1, [&] {
    JoinHashTable table;
    table.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      table.Insert(build->row(i).GetInt64(0), static_cast<uint32_t>(i));
    }
    int64_t hits = 0;
    for (int64_t i = 0; i < n; ++i) {
      hits += table.Find(i) != JoinHashTable::kNone;
    }
    if (hits < 0) std::abort();  // keep the loop observable
  });
}

void BenchReduceByKey(bool vectorized) {
  RowVectorPtr data = MakeKv(1 << 20, 1 << 16);
  ExecContext ctx;
  ctx.options.enable_vectorized = vectorized;
  ctx.options.num_threads = 1;  // legacy entry: single-thread baseline
  RunBench("reduce_by_key", data->size(), data->byte_size(),
           vectorized ? 1 : 0, [&] {
             ReduceByKey rk(
                 std::make_unique<RowScan>(std::make_unique<CollectionSource>(
                     std::vector<RowVectorPtr>{data})),
                 {0},
                 {AggSpec{AggKind::kSum, ex::Col(1), "sum", AtomType::kInt64}},
                 KeyValueSchema());
             if (!rk.Open(&ctx).ok()) std::abort();
             Tuple t;
             int64_t groups = 0;
             while (rk.Next(&t)) ++groups;
             if (groups == 0) std::abort();
           });
}

void BenchExprFilterEval() {
  RowVectorPtr data = MakeKv(1 << 18, 1000);
  ExprPtr pred = ex::And(ex::Ge(ex::Col(0), ex::Lit(int64_t{100})),
                         ex::Lt(ex::Col(0), ex::Lit(int64_t{900})));
  RunBench("expr_filter_eval", data->size(), data->byte_size(), -1, [&] {
    int64_t matches = 0;
    for (size_t i = 0; i < data->size(); ++i) {
      matches += pred->EvalBool(data->row(i));
    }
    if (matches < 0) std::abort();
  });
}

/// Selectivity sweep: interpreted per-row EvalBool vs the compiled
/// bytecode predicate (selection-vector narrowing) at 1% / 50% / 99% pass
/// rates.
void BenchFilterSelectivity() {
  RowVectorPtr data = MakeKv(1 << 20, 1000);
  struct Point {
    const char* name;
    int64_t bound;  // keys are uniform in [0, 1000)
  };
  for (const Point& p : {Point{"p01", 10}, Point{"p50", 500},
                         Point{"p99", 990}}) {
    ExprPtr pred = ex::And(ex::Ge(ex::Col(0), ex::Lit(int64_t{0})),
                           ex::Lt(ex::Col(0), ex::Lit(p.bound)));
    size_t interp_matches = 0;
    RunBench(std::string("expr_filter_interp_") + p.name, data->size(),
             data->byte_size(), 0, [&] {
               size_t matches = 0;
               for (size_t i = 0; i < data->size(); ++i) {
                 matches += pred->EvalBool(data->row(i));
               }
               interp_matches = matches;
             });
    // The compiled tier: fused comparison/range opcodes over the same
    // predicate, in batch-sized runs.
    BcProgram prog = BcProgram::CompileFilter(pred, data->schema());
    BcState state;
    SelVector sel;
    size_t bc_matches = 0;
    RunBench(std::string("expr_bytecode_filter_") + p.name, data->size(),
             data->byte_size(), 1, [&] {
               RowSpan span{data->data(), data->row_size(), &data->schema()};
               size_t matches = 0;
               for (size_t base = 0; base < data->size();
                    base += RowBatch::kDefaultRows) {
                 size_t n = std::min(data->size() - base,
                                     RowBatch::kDefaultRows);
                 sel.resize(n);
                 for (size_t i = 0; i < n; ++i) {
                   sel[i] = static_cast<uint32_t>(base + i);
                 }
                 Status st = prog.RunFilter(span, &sel, &state);
                 if (!st.ok()) std::abort();
                 matches += sel.size();
               }
               bc_matches = matches;
             });
    if (bc_matches != interp_matches) {
      std::fprintf(stderr, "FAIL: bytecode filter %s mismatch (%zu vs %zu)\n",
                   p.name, bc_matches, interp_matches);
      std::exit(1);
    }
  }
}

/// Group-by key path: KeyCodec::SerializeKeys + HashKeysSpan (the
/// interpreted pair) vs the fused KeyProgram, over a two-i64-column key
/// (serialized width 16 — the unrolled hash form ReduceByKey probes
/// with).
void BenchKeySerializeHash() {
  RowVectorPtr data = MakeKv(1 << 20, 1000);
  const std::vector<int> key_cols = {0, 1};
  KeyCodec codec(data->schema(), key_cols);
  KeyProgram prog(data->schema(), key_cols);
  const uint32_t ks = codec.key_size();
  constexpr size_t kChunk = 2048;
  std::vector<uint8_t> keys(kChunk * ks);
  std::vector<uint64_t> hashes(kChunk);
  RowSpan span{data->data(), data->row_size(), &data->schema()};
  uint64_t interp_sum = 0, bc_sum = 0;
  RunBench("expr_keys_interp", data->size(), data->byte_size(), 0, [&] {
    uint64_t sum = 0;
    for (size_t base = 0; base < data->size(); base += kChunk) {
      const size_t m = std::min(data->size() - base, kChunk);
      codec.SerializeKeys(span, base, m, keys.data());
      HashKeysSpan(keys.data(), m, ks, hashes.data());
      for (size_t i = 0; i < m; ++i) sum ^= hashes[i];
    }
    interp_sum = sum;
  });
  RunBench("expr_bytecode_keys", data->size(), data->byte_size(), 1, [&] {
    uint64_t sum = 0;
    for (size_t base = 0; base < data->size(); base += kChunk) {
      const size_t m = std::min(data->size() - base, kChunk);
      prog.SerializeAndHash(span, base, m, keys.data(), hashes.data());
      for (size_t i = 0; i < m; ++i) sum ^= hashes[i];
    }
    bc_sum = sum;
  });
  if (interp_sum != bc_sum) {
    std::fprintf(stderr, "FAIL: key serialize+hash mismatch\n");
    std::exit(1);
  }
}

/// The acceptance bench for the selection-vector path: Filter + Map over
/// 1M rows, row-at-a-time oracle vs the batch-kernel path on an
/// identically shaped plan.
size_t RunFilterMap(const RowVectorPtr& data, bool vectorized) {
  ExecContext ctx;
  ctx.options.enable_vectorized = vectorized;
  ctx.options.num_threads = 1;  // legacy entry: single-thread baseline
  Schema out({Field::I64("k2"), Field::F64("r"), Field::I64("v")});
  auto filter = std::make_unique<Filter>(
      std::make_unique<RowScan>(std::make_unique<CollectionSource>(
          std::vector<RowVectorPtr>{data})),
      ex::And(ex::Ge(ex::Col(0), ex::Lit(int64_t{100})),
              ex::Lt(ex::Col(0), ex::Lit(int64_t{600}))));
  MapOp map(std::move(filter), out,
            {MapOutput::Compute(ex::Mul(ex::Col(0), ex::Lit(int64_t{2}))),
             MapOutput::Compute(ex::Div(ex::Col(1), ex::Lit(7.0))),
             MapOutput::Pass(1)});
  if (!map.Open(&ctx).ok()) std::abort();
  size_t rows = 0;
  if (vectorized) {
    RowBatch batch;
    while (map.NextBatch(&batch)) rows += batch.size();
  } else {
    Tuple t;
    while (map.Next(&t)) ++rows;
  }
  if (!map.status().ok()) std::abort();
  if (!map.Close().ok()) std::abort();
  return rows;
}

void BenchFilterMap() {
  RowVectorPtr data = MakeKv(1 << 20, 1000);
  size_t rows_off = 0, rows_on = 0;
  BenchResult off = RunBench("filter_map", data->size(), data->byte_size(), 0,
                             [&] { rows_off = RunFilterMap(data, false); });
  BenchResult on = RunBench("filter_map", data->size(), data->byte_size(), 1,
                            [&] { rows_on = RunFilterMap(data, true); });
  if (rows_off != rows_on || rows_off == 0) {
    std::fprintf(stderr, "FAIL: filter_map mismatch (%zu vs %zu rows)\n",
                 rows_off, rows_on);
    std::exit(1);
  }
  std::printf("filter_map speedup: %.2fx (bytecode batch path vs interpreted "
              "per-row, %zu result rows)\n",
              off.seconds / on.seconds, rows_on);
}

void BenchColumnFileRoundTrip() {
  ColumnTablePtr table = ColumnTable::FromRowVector(*MakeKv(1 << 16, 1000));
  RunBench("column_file_roundtrip", table->num_rows(),
           table->num_rows() * 16, -1, [&] {
             std::string bytes = storage::WriteColumnFile(*table);
             auto reader = storage::ColumnFileReader::Open(
                 std::make_shared<storage::StringReader>(bytes));
             if (!reader.ok()) std::abort();
             auto part = (*reader)->ReadRowGroup(0, {});
             if (!part.ok()) std::abort();
           });
}

/// The acceptance microbenchmark: a full local partition→build→probe
/// pipeline (histograms, pre-sized partitioning, per-partition-pair hash
/// join via NestedMap) over ≥1M rows per side, built with explicit
/// RowScans so the only difference between the two runs is the
/// enable_vectorized toggle.
size_t RunPartitionBuildProbe(const RowVectorPtr& r, const RowVectorPtr& s,
                              bool vectorized, int num_threads = 1) {
  ExecContext ctx;
  ctx.options.enable_vectorized = vectorized;
  ctx.options.num_threads = num_threads;
  // 256-way partitioning keeps each per-pair hash table L1/L2-resident
  // (the cache-conscious discipline the local partition pass exists for).
  RadixSpec spec{8, 0, RadixHash::kIdentity};
  const Schema kv = KeyValueSchema();

  auto plan = std::make_unique<PipelinePlan>();
  auto scan_r = [&] {
    return std::make_unique<RowScan>(std::make_unique<CollectionSource>(
        std::vector<RowVectorPtr>{r}));
  };
  auto scan_s = [&] {
    return std::make_unique<RowScan>(std::make_unique<CollectionSource>(
        std::vector<RowVectorPtr>{s}));
  };
  plan->Add("lh_r", std::make_unique<LocalHistogram>(scan_r(), spec, 0));
  plan->Add("lp_r", std::make_unique<LocalPartition>(
                        scan_r(), plan->MakeRef("lh_r"), spec, 0));
  plan->Add("lh_s", std::make_unique<LocalHistogram>(scan_s(), spec, 0));
  plan->Add("lp_s", std::make_unique<LocalPartition>(
                        scan_s(), plan->MakeRef("lh_s"), spec, 0));

  auto zip = std::make_unique<Zip>(plan->MakeRef("lp_r"),
                                   plan->MakeRef("lp_s"));
  // Nested plan per partition pair: ⟨pid, R_p, pid, S_p⟩.
  auto bp = std::make_unique<BuildProbe>(
      std::make_unique<RowScan>(std::make_unique<Projection>(
          std::make_unique<ParameterLookup>(), std::vector<int>{1})),
      std::make_unique<RowScan>(std::make_unique<Projection>(
          std::make_unique<ParameterLookup>(), std::vector<int>{3})),
      kv, kv, /*build_key_col=*/0, /*probe_key_col=*/0);
  Schema out_schema = bp->out_schema();
  auto nested_root =
      std::make_unique<MaterializeRowVector>(std::move(bp), out_schema);
  auto nested =
      std::make_unique<NestedMap>(std::move(zip), std::move(nested_root));
  plan->SetOutput(std::move(nested));

  // Drain the same plan through the protocol under test: batches when
  // vectorized, tuples otherwise.
  if (!plan->Open(&ctx).ok()) std::abort();
  size_t out_rows = 0;
  if (vectorized) {
    RowBatch batch;
    while (plan->NextBatch(&batch)) out_rows += batch.size();
  } else {
    Tuple t;
    while (plan->Next(&t)) {
      out_rows += t[0].collection()->size();
    }
  }
  if (!plan->status().ok()) std::abort();
  if (!plan->Close().ok()) std::abort();
  return out_rows;
}

void BenchPartitionBuildProbe() {
  const int64_t n = 1 << 20;  // 1M rows per side
  // FK-join shape (think orders ⋈ lineitem): the build side holds every
  // key four times, the probe side draws uniformly from the key domain —
  // every probe row matches a four-element duplicate chain.
  RowVectorPtr r = MakeKv(n, n / 4, /*seed=*/1, /*sequential_dup=*/4);
  RowVectorPtr s = MakeKv(n, n / 4, /*seed=*/2);
  const size_t in_rows = static_cast<size_t>(2 * n);
  const size_t in_bytes = r->byte_size() + s->byte_size();

  size_t rows_off = 0, rows_on = 0;
  BenchResult off =
      RunBench("partition_build_probe", in_rows, in_bytes, 0,
               [&] { rows_off = RunPartitionBuildProbe(r, s, false); });
  BenchResult on =
      RunBench("partition_build_probe", in_rows, in_bytes, 1,
               [&] { rows_on = RunPartitionBuildProbe(r, s, true); });
  if (rows_off != rows_on) {
    std::fprintf(stderr, "FAIL: result mismatch (%zu vs %zu rows)\n",
                 rows_off, rows_on);
    std::exit(1);
  }
  std::printf("partition_build_probe speedup: %.2fx (vectorized vs "
              "row-at-a-time, %zu result rows)\n",
              off.seconds / on.seconds, rows_on);
}

/// Grace-spill join (docs/DESIGN-memory.md): the same 1M x 1M FK-join
/// shape as partition_build_probe, but as a single unpartitioned
/// BuildProbe under a memory limit at 1/4 of the build side — both sides
/// are radix-scattered to an in-memory blob store, build partitions
/// beyond the hybrid resident prefix spill, and every probe row takes the
/// partition detour. Reported only (the interesting number is the
/// slowdown vs partition_build_probe), after a byte-equality check
/// against the unlimited in-memory run.
void BenchJoinSpill() {
  const int64_t n = 1 << 20;
  RowVectorPtr r = MakeKv(n, n / 4, /*seed=*/1, /*sequential_dup=*/4);
  RowVectorPtr s = MakeKv(n, n / 4, /*seed=*/2);
  const Schema kv = KeyValueSchema();
  storage::BlobStore spill_store;

  auto run_one = [&](size_t mem_limit, uint64_t* checksum) {
    ExecContext ctx;
    ctx.options.memory_limit_bytes = mem_limit;
    MemoryBudget budget(mem_limit);
    ctx.budget = &budget;
    ctx.spill_store = &spill_store;
    BuildProbe bp(std::make_unique<RowScan>(std::make_unique<CollectionSource>(
                      std::vector<RowVectorPtr>{r})),
                  std::make_unique<RowScan>(std::make_unique<CollectionSource>(
                      std::vector<RowVectorPtr>{s})),
                  kv, kv, /*build_key_col=*/0, /*probe_key_col=*/0);
    if (!bp.Open(&ctx).ok()) std::abort();
    const size_t stride = bp.out_schema().row_size();
    uint64_t h = 1469598103934665603ull;  // FNV-1a over emitted bytes
    size_t rows = 0;
    RowBatch batch;
    while (bp.NextBatch(&batch)) {
      rows += batch.size();
      if (checksum != nullptr) {
        for (size_t i = 0; i < batch.size(); ++i) {
          const uint8_t* p = batch.row(i).data();
          for (size_t b = 0; b < stride; ++b) h = (h ^ p[b]) * 1099511628211ull;
        }
      }
    }
    if (!bp.status().ok() || !bp.Close().ok()) std::abort();
    if (rows == 0) std::abort();
    if (checksum != nullptr) *checksum = h;
  };

  const size_t limit = r->byte_size() / 4;
  uint64_t mem_sum = 0, spill_sum = 0;
  run_one(0, &mem_sum);
  run_one(limit, &spill_sum);
  if (mem_sum != spill_sum) {
    std::fprintf(stderr, "FAIL: join_spill_1m output differs from the "
                         "in-memory join\n");
    std::exit(1);
  }
  RunBench("join_spill_1m", static_cast<size_t>(2 * n),
           r->byte_size() + s->byte_size(), 1,
           [&] { run_one(limit, nullptr); });
}

/// Thread-scaling sweep (1/2/4/8 workers) for the three hot pipelines the
/// ISSUE gates: the partition→build→probe plan, ReduceByKey, and the p50
/// batch filter kernel. Entries are named <op>_t<N> and carry a
/// "threads" field; the committed single-thread entries stay untouched so
/// old baselines keep comparing. bench_gate.py checks the 4-thread
/// speedup ratio on machines with >= 4 cores.
void BenchThreadScaling() {
  const std::vector<int> sweep = {1, 2, 4, 8};

  // partition_build_probe: same 1M x 1M FK-join shape as the legacy bench.
  {
    const int64_t n = 1 << 20;
    RowVectorPtr r = MakeKv(n, n / 4, /*seed=*/1, /*sequential_dup=*/4);
    RowVectorPtr s = MakeKv(n, n / 4, /*seed=*/2);
    const size_t in_rows = static_cast<size_t>(2 * n);
    const size_t in_bytes = r->byte_size() + s->byte_size();
    size_t rows_t1 = 0;
    for (int t : sweep) {
      size_t rows = 0;
      RunBench("partition_build_probe_t" + std::to_string(t), in_rows,
               in_bytes, 1,
               [&] { rows = RunPartitionBuildProbe(r, s, true, t); }, t);
      if (t == 1) {
        rows_t1 = rows;
      } else if (rows != rows_t1) {
        std::fprintf(stderr,
                     "FAIL: partition_build_probe t%d mismatch (%zu vs %zu)\n",
                     t, rows, rows_t1);
        std::exit(1);
      }
    }
  }

  // reduce_by_key: 1M rows, 64k groups, i64 SUM (the parallel-safe shape).
  {
    RowVectorPtr data = MakeKv(1 << 20, 1 << 16);
    size_t groups_t1 = 0;
    for (int t : sweep) {
      size_t groups = 0;
      ExecContext ctx;
      ctx.options.num_threads = t;
      RunBench("reduce_by_key_t" + std::to_string(t), data->size(),
               data->byte_size(), 1,
               [&] {
                 ReduceByKey rk(
                     std::make_unique<RowScan>(
                         std::make_unique<CollectionSource>(
                             std::vector<RowVectorPtr>{data})),
                     {0},
                     {AggSpec{AggKind::kSum, ex::Col(1), "sum",
                              AtomType::kInt64}},
                     KeyValueSchema());
                 if (!rk.Open(&ctx).ok()) std::abort();
                 Tuple tup;
                 size_t g = 0;
                 while (rk.Next(&tup)) ++g;
                 if (!rk.status().ok() || !rk.Close().ok()) std::abort();
                 groups = g;
               },
               t);
      if (t == 1) {
        groups_t1 = groups;
      } else if (groups != groups_t1) {
        std::fprintf(stderr, "FAIL: reduce_by_key t%d mismatch (%zu vs %zu)\n",
                     t, groups, groups_t1);
        std::exit(1);
      }
      if (ctx.stats->GetCounter("parallel.serial_fallback.ReduceByKey") != 0) {
        std::fprintf(stderr, "FAIL: reduce_by_key t%d fell back to serial\n",
                     t);
        std::exit(1);
      }
    }
  }

  // expr_bytecode_filter_p50: the 50%-selectivity predicate program over
  // static worker ranges (one shared program; each worker owns its
  // BcState and selection).
  {
    RowVectorPtr data = MakeKv(1 << 20, 1000);
    ExprPtr pred = ex::And(ex::Ge(ex::Col(0), ex::Lit(int64_t{0})),
                           ex::Lt(ex::Col(0), ex::Lit(int64_t{500})));
    const BcProgram prog = BcProgram::CompileFilter(pred, data->schema());
    size_t matches_t1 = 0;
    for (int t : sweep) {
      size_t matches = 0;
      RunBench("expr_bytecode_filter_p50_t" + std::to_string(t), data->size(),
               data->byte_size(), 1,
               [&] {
                 std::vector<size_t> bounds = SplitRows(data->size(), t);
                 std::vector<size_t> counts(t, 0);
                 Status st = ParallelFor(t, [&](int w) -> Status {
                   BcState state;
                   SelVector sel;
                   RowSpan span{data->data(), data->row_size(),
                                &data->schema()};
                   size_t local = 0;
                   for (size_t base = bounds[w]; base < bounds[w + 1];
                        base += RowBatch::kDefaultRows) {
                     size_t m = std::min(bounds[w + 1] - base,
                                         RowBatch::kDefaultRows);
                     sel.resize(m);
                     for (size_t i = 0; i < m; ++i) {
                       sel[i] = static_cast<uint32_t>(base + i);
                     }
                     MODULARIS_RETURN_NOT_OK(
                         prog.RunFilter(span, &sel, &state));
                     local += sel.size();
                   }
                   counts[w] = local;
                   return Status::OK();
                 });
                 if (!st.ok()) std::abort();
                 matches = 0;
                 for (size_t c : counts) matches += c;
               },
               t);
      if (t == 1) {
        matches_t1 = matches;
      } else if (matches != matches_t1) {
        std::fprintf(stderr,
                     "FAIL: expr_bytecode_filter_p50 t%d mismatch "
                     "(%zu vs %zu)\n",
                     t, matches, matches_t1);
        std::exit(1);
      }
    }
  }
}

/// Scan pipeline, the leaf of every base-table TPC-H scan: a 1M-row
/// lineitem-like ColumnTable (12 columns) through
/// MaterializeRowVector(ColumnScan) selecting ⟨sel, price, disc⟩, the scan
/// testing its predicate on the columns, at 1 and 4 threads.
/// `scan_pipeline` filters on `sel` at ~2 % selectivity; `scan_pipeline_str`
/// runs a Q19-shaped predicate (a string IN list and a string equality on
/// columns the scan does not emit, plus a quantity range) at ~2 %. Each
/// 4-thread result must be byte-equal to its 1-thread one. Reported, not
/// gated. Also prints what one empty ParallelFor region with its
/// WorkerSet costs at 4 workers: the fixed price a scan pipeline pays for
/// each of its two regions.
void BenchScanPipeline() {
  const size_t n = 1 << 20;
  Schema wide({Field::I64("sel"), Field::I64("k1"), Field::I64("k2"),
               Field::I64("k3"), Field::F64("qty"), Field::F64("price"),
               Field::F64("disc"), Field::Date("ship"), Field::Date("commit"),
               Field::Str("flags", 2), Field::Str("mode", 10),
               Field::Str("instruct", 25)});
  const std::vector<std::string> modes = {"AIR",  "REG AIR", "TRUCK", "MAIL",
                                          "SHIP", "RAIL",    "FOB"};
  const std::vector<std::string> instructs = {
      "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"};
  ColumnTablePtr data = ColumnTable::Make(wide);
  std::mt19937_64 rng(17);
  for (size_t i = 0; i < n; ++i) {
    data->column(0).AppendInt64(static_cast<int64_t>(rng() % 1000));
    for (int c = 1; c <= 3; ++c) {
      data->column(c).AppendInt64(static_cast<int64_t>(rng()));
    }
    data->column(4).AppendFloat64(static_cast<double>(1 + rng() % 50));
    for (int c = 5; c <= 6; ++c) {
      data->column(c).AppendFloat64((rng() % 10000) / 100.0);
    }
    data->column(7).AppendInt32(static_cast<int32_t>(8000 + rng() % 2500));
    data->column(8).AppendInt32(static_cast<int32_t>(8000 + rng() % 2500));
    data->column(9).AppendString("NO");
    data->column(10).AppendString(modes[rng() % modes.size()]);
    data->column(11).AppendString(instructs[rng() % instructs.size()]);
  }
  data->FinishBulkLoad();
  Schema selected({Field::I64("sel"), Field::F64("price"), Field::F64("disc")});
  struct Variant {
    const char* name;
    ExprPtr pred;
  };
  const Variant variants[] = {
      {"scan_pipeline", ex::Lt(ex::Col(0), ex::Lit(int64_t{20}))},
      {"scan_pipeline_str",
       ex::And(ex::InStr(ex::Col(10), {"AIR", "REG AIR"}),
               ex::Eq(ex::Col(11), ex::Lit(std::string("DELIVER IN PERSON"))),
               ex::Between(ex::Col(4), ex::Lit(1.0), ex::Lit(10.0)))},
  };
  for (const Variant& v : variants) {
    auto run = [&](int threads) {
      ExecContext ctx;
      ctx.options.num_threads = threads;
      MaterializeRowVector root(
          std::make_unique<ColumnScan>(
              std::make_unique<TupleSource>(
                  std::vector<Tuple>{Tuple{Item(data)}}),
              selected, std::vector<int>{0, 5, 6}, v.pred, wide),
          selected);
      if (!root.Open(&ctx).ok()) std::abort();
      Tuple t;
      if (!root.Next(&t)) std::abort();
      RowVectorPtr out = t[0].collection();
      if (!root.Close().ok()) std::abort();
      return out;
    };
    RowVectorPtr out_t1 = run(1);
    for (int t : {1, 4}) {
      RowVectorPtr out = run(t);
      if (out->size() != out_t1->size() ||
          (out->byte_size() > 0 &&
           std::memcmp(out->data(), out_t1->data(), out->byte_size()) !=
               0)) {
        std::fprintf(stderr, "FAIL: %s t%d output differs from t1\n", v.name,
                     t);
        std::exit(1);
      }
      // Bytes read: the three selected columns.
      RunBench(std::string(v.name) + "_t" + std::to_string(t), n,
               n * 3 * sizeof(double), 1, [&] { run(t); }, t);
    }
    std::printf("%s: %zu of %zu rows kept\n", v.name, out_t1->size(), n);
  }

  constexpr int kRegions = 200;
  ExecContext ctx;
  ctx.options.num_threads = 4;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRegions; ++i) {
    WorkerSet ws(&ctx, 4);
    if (!ParallelFor(&ctx, 4, [](int) { return Status::OK(); }).ok()) {
      std::abort();
    }
    ws.MergeStats();
  }
  const double per_region =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count() /
      kRegions;
  std::printf("scan_pipeline dispatch: %.1f us per 4-worker region "
              "(thread spawn + join + WorkerSet)\n",
              per_region * 1e6);
}

/// Sort/TopK thread sweep (1/2/4/8): 1M rows with an f64 sort key — the
/// exact shape the NaN-comparator fix and the parallel run-sort +
/// loser-tree merge target. `sort_1m` drains the full sorted stream
/// through the native batch path; `topk_1m` (k = 100) exercises the
/// bounded per-run selection that replaced TopK's old sort-everything
/// path — bench_gate.py requires it to beat the full sort. Output bytes
/// are checksummed and compared across thread counts, so a determinism
/// regression fails the bench run itself, not just the parity suite.
void BenchSortTopK() {
  const size_t n = 1 << 20;
  const size_t k = 100;
  Schema schema({Field::F64("key"), Field::I64("v")});
  RowVectorPtr data = RowVector::Make(schema);
  data->Reserve(n);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  for (size_t i = 0; i < n; ++i) {
    RowWriter w = data->AppendRow();
    w.SetFloat64(0, std::floor(dist(rng)));  // duplicate-heavy keys
    w.SetInt64(1, static_cast<int64_t>(i));
  }

  auto make_sort = [&]() {
    return std::make_unique<SortOp>(
        std::make_unique<RowScan>(std::make_unique<CollectionSource>(
            std::vector<RowVectorPtr>{data})),
        std::vector<SortKey>{{0, false}}, schema);
  };
  auto make_topk = [&]() {
    return std::make_unique<TopK>(
        std::make_unique<RowScan>(std::make_unique<CollectionSource>(
            std::vector<RowVectorPtr>{data})),
        std::vector<SortKey>{{0, false}}, k, schema);
  };
  // `checksum` null in the timed runs: the FNV byte loop is serial bench
  // overhead that would dilute the 4-thread speedup the gate measures.
  auto drain = [&](SubOperator* op, int threads, uint64_t* checksum) {
    ExecContext ctx;
    ctx.options.num_threads = threads;
    if (!op->Open(&ctx).ok()) std::abort();
    uint64_t h = 1469598103934665603ull;  // FNV-1a over emitted bytes
    size_t rows = 0;
    RowBatch batch;
    while (op->NextBatch(&batch)) {
      if (checksum != nullptr) {
        const uint8_t* p = batch.data();
        const size_t bytes = batch.byte_size();
        for (size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
      }
      rows += batch.size();
    }
    if (!op->status().ok() || !op->Close().ok()) std::abort();
    if (checksum != nullptr) *checksum = h;
    return rows;
  };

  uint64_t sort_sum_t1 = 0, topk_sum_t1 = 0;
  for (int t : {1, 2, 4, 8}) {
    // Untimed determinism pass first: output bytes must match t1 exactly.
    uint64_t sort_sum = 0, topk_sum = 0;
    if (drain(make_sort().get(), t, &sort_sum) != n) std::abort();
    if (drain(make_topk().get(), t, &topk_sum) != k) std::abort();
    if (t == 1) {
      sort_sum_t1 = sort_sum;
      topk_sum_t1 = topk_sum;
    } else if (sort_sum != sort_sum_t1 || topk_sum != topk_sum_t1) {
      std::fprintf(stderr, "FAIL: sort/topk t%d output differs from t1\n", t);
      std::exit(1);
    }
    RunBench("sort_1m_t" + std::to_string(t), n, data->byte_size(), 1,
             [&] {
               auto sort = make_sort();
               if (drain(sort.get(), t, nullptr) != n) std::abort();
             },
             t);
    RunBench("topk_1m_t" + std::to_string(t), n, data->byte_size(), 1,
             [&] {
               auto topk = make_topk();
               if (drain(topk.get(), t, nullptr) != k) std::abort();
             },
             t);
  }
}

/// Cardinality-sweep group-by benches for the partition-owned parallel
/// aggregation path: 1M rows at 16 / 64k / 1M groups, over int, string
/// and multi-column (i64 + string) keys, swept at 1/2/4/8 threads.
/// Entries are named groupby_1m_<shape>_<g16|g64k|g1m>_t<N>;
/// bench_gate.py requires the g64k int and string shapes to reach a
/// 4-thread speedup >= 1.8x on machines with >= 4 hardware threads.
/// Output bytes are checksummed and compared across thread counts (a
/// determinism regression fails the bench run itself), and every
/// parallel run must report zero ReduceByKey fallbacks and zero
/// mid-aggregation rehashes.
void BenchGroupBy() {
  const size_t n = 1 << 20;
  struct Card {
    const char* name;
    int64_t groups;
  };
  const Card cards[] = {{"g16", 16}, {"g64k", 1 << 16}, {"g1m", 1 << 20}};

  Schema str_schema({Field::Str("k", 12), Field::F64("v")});
  Schema multi_schema({Field::I64("k1"), Field::Str("k2", 8), Field::F64("v")});

  auto make_int = [&](int64_t groups) {
    return MakeKv(n, groups, /*seed=*/7);
  };
  auto make_str = [&](int64_t groups) {
    RowVectorPtr data = RowVector::Make(str_schema);
    data->Reserve(n);
    std::mt19937_64 rng(11);
    std::uniform_int_distribution<int64_t> dist(0, groups - 1);
    std::uniform_real_distribution<double> fdist(-1000.0, 1000.0);
    for (size_t i = 0; i < n; ++i) {
      RowWriter w = data->AppendRow();
      w.SetString(0, "k" + std::to_string(dist(rng)));
      w.SetFloat64(1, fdist(rng));
    }
    return data;
  };
  auto make_multi = [&](int64_t groups) {
    // Composite cardinality: k1 in [0, groups/16), k2 in 16 values.
    RowVectorPtr data = RowVector::Make(multi_schema);
    data->Reserve(n);
    std::mt19937_64 rng(13);
    const int64_t hi = groups / 16 > 0 ? groups / 16 : 1;
    std::uniform_int_distribution<int64_t> dist(0, hi - 1);
    std::uniform_int_distribution<int64_t> lo(0, 15);
    std::uniform_real_distribution<double> fdist(-1000.0, 1000.0);
    for (size_t i = 0; i < n; ++i) {
      RowWriter w = data->AppendRow();
      w.SetInt64(0, dist(rng));
      w.SetString(1, "m" + std::to_string(lo(rng)));
      w.SetFloat64(2, fdist(rng));
    }
    return data;
  };

  struct Shape {
    const char* name;
    RowVectorPtr data;
    std::vector<int> keys;
    int agg_col;
    AtomType agg_type;
  };

  auto run_one = [&](const Shape& shape, int threads, uint64_t* checksum,
                     size_t* groups_out,
                     const CancellationToken* cancel = nullptr,
                     size_t mem_limit = 0,
                     storage::BlobStore* spill_store = nullptr,
                     int64_t* spill_bytes = nullptr) {
    ExecContext ctx;
    ctx.options.num_threads = threads;
    ctx.options.memory_limit_bytes = mem_limit;
    ctx.cancel = cancel;
    MemoryBudget budget(mem_limit);
    ctx.budget = &budget;
    ctx.spill_store = spill_store;
    std::vector<AggSpec> aggs;
    aggs.push_back(AggSpec{AggKind::kSum, ex::Col(shape.agg_col), "s",
                           shape.agg_type});
    aggs.push_back(
        AggSpec{AggKind::kCount, nullptr, "c", AtomType::kInt64});
    ReduceByKey rk(std::make_unique<RowScan>(
                       std::make_unique<CollectionSource>(
                           std::vector<RowVectorPtr>{shape.data})),
                   shape.keys, std::move(aggs), shape.data->schema());
    if (!rk.Open(&ctx).ok()) std::abort();
    uint64_t h = 1469598103934665603ull;  // FNV-1a over emitted bytes
    size_t groups = 0;
    Tuple t;
    while (rk.Next(&t)) {
      ++groups;
      if (checksum != nullptr) {
        const uint8_t* p = t[0].row().data();
        const size_t bytes = t[0].row().schema().row_size();
        for (size_t b = 0; b < bytes; ++b) h = (h ^ p[b]) * 1099511628211ull;
      }
    }
    if (!rk.status().ok() || !rk.Close().ok()) std::abort();
    if (threads > 1 && spill_store == nullptr) {
      if (ctx.stats->GetCounter("parallel.serial_fallback.ReduceByKey") != 0) {
        std::fprintf(stderr, "FAIL: groupby %s t%d fell back to serial\n",
                     shape.name, threads);
        std::exit(1);
      }
      if (ctx.stats->GetCounter("reduce.rehash") != 0) {
        std::fprintf(stderr, "FAIL: groupby %s t%d rehashed mid-aggregation\n",
                     shape.name, threads);
        std::exit(1);
      }
    }
    if (checksum != nullptr) *checksum = h;
    if (groups_out != nullptr) *groups_out = groups;
    if (spill_bytes != nullptr) {
      *spill_bytes = ctx.stats->GetCounter("spill.bytes");
    }
    return groups;
  };

  for (const Card& card : cards) {
    const Shape shapes[] = {
        {"int", make_int(card.groups), {0}, 1, AtomType::kInt64},
        {"str", make_str(card.groups), {0}, 1, AtomType::kFloat64},
        {"multi", make_multi(card.groups), {0, 1}, 2, AtomType::kFloat64},
    };
    for (const Shape& shape : shapes) {
      uint64_t sum_t1 = 0;
      for (int t : {1, 2, 4, 8}) {
        // Untimed determinism pass: output bytes must match t1 exactly.
        uint64_t sum = 0;
        size_t groups = 0;
        run_one(shape, t, &sum, &groups);
        if (t == 1) {
          sum_t1 = sum;
        } else if (sum != sum_t1) {
          std::fprintf(stderr,
                       "FAIL: groupby %s %s t%d output differs from t1\n",
                       shape.name, card.name, t);
          std::exit(1);
        }
        RunBench("groupby_1m_" + std::string(shape.name) + "_" + card.name +
                     "_t" + std::to_string(t),
                 n, shape.data->byte_size(), 1,
                 [&] { run_one(shape, t, nullptr, nullptr); }, t);
      }
      if (std::string(shape.name) == "int" &&
          std::string(card.name) == "g64k") {
        // Fault-layer hook cost on the fault-free path (bench_gate.py
        // WIN_GATES: >= 0.97x of the plain t4 run). A live deadline token
        // is polled by the morsel loop and the partition merge — the only
        // fault-layer hooks on this path — but never expires. t4 because
        // the serial path bypasses the morsel loop entirely.
        CancellationToken idle_deadline;
        idle_deadline.SetDeadlineAfter(3600.0);
        uint64_t armed_sum = 0;
        run_one(shape, 4, &armed_sum, nullptr, &idle_deadline);
        if (armed_sum != sum_t1) {
          std::fprintf(stderr,
                       "FAIL: groupby int g64k armed output differs from t1\n");
          std::exit(1);
        }
        RunBench("groupby_1m_int_g64k_faultarmed_t4", n,
                 shape.data->byte_size(), 1,
                 [&] { run_one(shape, 4, nullptr, nullptr, &idle_deadline); },
                 4);

        // Memory governance (docs/DESIGN-memory.md). Budget-armed: a
        // limit far above the input, so the run only pays the accounting
        // hooks — bench_gate.py WIN_GATES holds it within 3% of the plain
        // t4 entry. Spill: at a limit of 1/8 of the input the 64k groups'
        // state outgrows half the budget, so the hybrid aggregation spills
        // the groups it refuses through the blob store; reported only, but
        // the output must stay byte-equal to t1.
        storage::BlobStore spill_store;
        const size_t big_limit = size_t{1} << 30;
        const size_t tiny_limit = shape.data->byte_size() / 8;
        uint64_t armed2 = 0, spilled = 0;
        run_one(shape, 4, &armed2, nullptr, nullptr, big_limit, &spill_store);
        run_one(shape, 4, &spilled, nullptr, nullptr, tiny_limit,
                &spill_store);
        if (armed2 != sum_t1 || spilled != sum_t1) {
          std::fprintf(stderr,
                       "FAIL: groupby int g64k budgeted output differs from "
                       "t1 (armed %d, spill %d)\n",
                       armed2 != sum_t1, spilled != sum_t1);
          std::exit(1);
        }
        RunBench("groupby_1m_int_g64k_budgetarmed_t4", n,
                 shape.data->byte_size(), 1,
                 [&] {
                   run_one(shape, 4, nullptr, nullptr, nullptr, big_limit,
                           &spill_store);
                 },
                 4);
        RunBench("groupby_1m_int_g64k_spill", n, shape.data->byte_size(), 1,
                 [&] {
                   run_one(shape, 4, nullptr, nullptr, nullptr, tiny_limit,
                           &spill_store);
                 },
                 4);

        // Resident: at a limit of the input's size ShouldSpill holds, so the
        // run aggregates through a budgeted level, yet the 64k groups' state
        // fits the half of the budget it may use — the admission rule's cost
        // with nothing spilled. The budgeted level runs on one worker.
        // Reported only; the output must match t1 and nothing may spill.
        const size_t resident_limit = shape.data->byte_size();
        uint64_t resident = 0;
        int64_t resident_spill = -1;
        run_one(shape, 1, &resident, nullptr, nullptr, resident_limit,
                &spill_store, &resident_spill);
        if (!ShouldSpill(shape.data->byte_size(), resident_limit) ||
            resident != sum_t1 || resident_spill != 0) {
          std::fprintf(stderr,
                       "FAIL: groupby int g64k resident run differs from t1 "
                       "or spilled %lld bytes\n",
                       static_cast<long long>(resident_spill));
          std::exit(1);
        }
        RunBench("groupby_1m_int_g64k_resident_t1", n,
                 shape.data->byte_size(), 1,
                 [&] {
                   run_one(shape, 1, nullptr, nullptr, nullptr, resident_limit,
                           &spill_store);
                 },
                 1);
      }
    }
  }
}

/// groupby_q1skew_t{1,4}: TPC-H Q1's aggregation shape on 1M rows — two
/// one-character string keys over four groups at ~50 / 25 / 25 / <1 %,
/// two bare and two computed f64 SUMs and a COUNT — the few-group
/// kernel's case. The t4 output bytes must equal t1's (a determinism
/// regression fails the bench run itself).
void BenchGroupByQ1Skew() {
  const size_t n = 1 << 20;
  Schema schema({Field::Str("flag", 1), Field::Str("status", 1),
                 Field::F64("qty"), Field::F64("price"), Field::F64("disc"),
                 Field::F64("tax")});
  static const char* const kFlags[] = {"N", "R", "A", "N"};
  static const char* const kStatus[] = {"O", "F", "F", "F"};
  RowVectorPtr data = RowVector::Make(schema);
  data->Reserve(n);
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> price(900.0, 105000.0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = rng() % 1000;
    const int g = r < 500 ? 0 : r < 750 ? 1 : r < 995 ? 2 : 3;
    RowWriter w = data->AppendRow();
    w.SetString(0, kFlags[g]);
    w.SetString(1, kStatus[g]);
    w.SetFloat64(2, static_cast<double>(1 + rng() % 50));
    w.SetFloat64(3, price(rng));
    w.SetFloat64(4, static_cast<double>(rng() % 11) / 100.0);
    w.SetFloat64(5, static_cast<double>(rng() % 9) / 100.0);
  }
  ExprPtr disc_price =
      ex::Mul(ex::Col(3), ex::Sub(ex::Lit(1.0), ex::Col(4)));
  ExprPtr charge =
      ex::Mul(ex::Mul(ex::Col(3), ex::Sub(ex::Lit(1.0), ex::Col(4))),
              ex::Add(ex::Lit(1.0), ex::Col(5)));
  const std::vector<AggSpec> aggs = {
      AggSpec{AggKind::kSum, ex::Col(2), "sum_qty", AtomType::kFloat64},
      AggSpec{AggKind::kSum, ex::Col(3), "sum_base_price", AtomType::kFloat64},
      AggSpec{AggKind::kSum, disc_price, "sum_disc_price", AtomType::kFloat64},
      AggSpec{AggKind::kSum, charge, "sum_charge", AtomType::kFloat64},
      AggSpec{AggKind::kCount, nullptr, "count_order", AtomType::kInt64}};
  auto run = [&](int threads) {
    ExecContext ctx;
    ctx.options.num_threads = threads;
    ReduceByKey rk(std::make_unique<RowScan>(std::make_unique<CollectionSource>(
                       std::vector<RowVectorPtr>{data})),
                   {0, 1}, aggs, schema);
    if (!rk.Open(&ctx).ok()) std::abort();
    uint64_t h = 1469598103934665603ull;  // FNV-1a over emitted bytes
    Tuple t;
    while (rk.Next(&t)) {
      const uint8_t* p = t[0].row().data();
      const size_t bytes = t[0].row().schema().row_size();
      for (size_t b = 0; b < bytes; ++b) h = (h ^ p[b]) * 1099511628211ull;
    }
    if (!rk.status().ok() || !rk.Close().ok()) std::abort();
    return h;
  };
  const uint64_t sum_t1 = run(1);
  if (run(4) != sum_t1) {
    std::fprintf(stderr, "FAIL: groupby_q1skew t4 output differs from t1\n");
    std::exit(1);
  }
  for (int t : {1, 4}) {
    RunBench("groupby_q1skew_t" + std::to_string(t), n, data->byte_size(), 1,
             [&] { run(t); }, t);
  }
}

/// Network-exchange shuffle family (docs/DESIGN-exchange.md): a full
/// MpiExchange — input drain, histogram-offset scatter, one-sided window
/// writes, owned-partition materialization — on a simulated unthrottled
/// fabric.
///  * exchange_shuffle_t<N>: single-rank thread sweep; bench_gate.py
///    requires >= 2x at 4 threads on machines with >= 4 hardware threads.
///  * exchange_shuffle_rowdrain_t1: the per-tuple ablation
///    (enable_vectorized off end-to-end — every input record crosses one
///    virtual Next()); bench_gate.py requires the batched wire path to
///    beat it by >= 1.5x.
///  * exchange_shuffle_w{2,4}_t{1,4}: multi-rank shuffles, reported only.
///  * exchange_overlap_{pipelined,serialwire}: modelled fabric stall
///    seconds of the pipelined schedule vs the partition-then-send
///    ablation; the gate requires the pipelined stall to be strictly
///    lower (wire time hidden behind the scatter).
/// Owned-partition bytes are checksummed and compared across thread
/// counts and protocols before the timed runs, so a determinism
/// regression fails the bench itself.

struct ShuffleFixture {
  std::vector<RowVectorPtr> frags;       // per-rank inputs
  std::vector<RowVectorPtr> local_hists; // per-rank radix histograms
  RowVectorPtr global_hist;
  size_t rows = 0;
  size_t bytes = 0;
};

ShuffleFixture MakeShuffleFixture(int world, size_t rows_per_rank) {
  const RadixSpec spec{4, 0, RadixHash::kIdentity};
  ShuffleFixture fx;
  std::vector<int64_t> global(spec.fanout(), 0);
  for (int r = 0; r < world; ++r) {
    RowVectorPtr frag = MakeKv(rows_per_rank, 1 << 20, 77 + r);
    std::vector<int64_t> counts(spec.fanout(), 0);
    for (size_t i = 0; i < frag->size(); ++i) {
      ++counts[spec.PartitionOf(frag->row(i).GetInt64(0))];
    }
    RowVectorPtr hist = RowVector::Make(HistogramSchema());
    for (int p = 0; p < spec.fanout(); ++p) {
      hist->AppendRow().SetInt64(0, counts[p]);
      global[p] += counts[p];
    }
    fx.rows += frag->size();
    fx.bytes += frag->byte_size();
    fx.frags.push_back(std::move(frag));
    fx.local_hists.push_back(std::move(hist));
  }
  fx.global_hist = RowVector::Make(HistogramSchema());
  for (int64_t c : global) fx.global_hist->AppendRow().SetInt64(0, c);
  return fx;
}

struct ShuffleOut {
  uint64_t checksum = 1469598103934665603ull;
  size_t rows = 0;
  double stall = 0;  // fabric stall seconds summed over ranks
};

ShuffleOut RunExchangeShuffle(const ShuffleFixture& fx, int threads,
                              bool vectorized, bool serial_wire,
                              const net::FabricOptions& fabric,
                              bool checksum,
                              const CancellationToken* cancel = nullptr) {
  const RadixSpec spec{4, 0, RadixHash::kIdentity};
  const int world = static_cast<int>(fx.frags.size());
  std::vector<uint64_t> sums(world, 1469598103934665603ull);
  std::vector<size_t> rows(world, 0);
  std::vector<double> stalls(world, 0);
  Status st = mpi::MpiRuntime::Run(
      world, fabric, [&](mpi::Communicator& comm) -> Status {
        const int r = comm.rank();
        StatsRegistry stats;
        ExecContext ctx;
        ctx.rank = r;
        ctx.world = world;
        ctx.comm = &comm;
        ctx.options.enable_vectorized = vectorized;
        ctx.options.num_threads = threads;
        ctx.cancel = cancel;
        ctx.stats = &stats;
        MpiExchange::Options xopts;
        xopts.spec = spec;
        xopts.serial_wire = serial_wire;
        MpiExchange mx(
            std::make_unique<RowScan>(std::make_unique<CollectionSource>(
                std::vector<RowVectorPtr>{fx.frags[r]})),
            std::make_unique<CollectionSource>(
                std::vector<RowVectorPtr>{fx.local_hists[r]}),
            std::make_unique<CollectionSource>(
                std::vector<RowVectorPtr>{fx.global_hist}),
            fx.frags[r]->schema(), xopts);
        MODULARIS_RETURN_NOT_OK(mx.Open(&ctx));
        uint64_t h = 1469598103934665603ull;  // FNV-1a over owned bytes
        auto fnv = [&h](const uint8_t* p, size_t bytes) {
          for (size_t i = 0; i < bytes; ++i) {
            h = (h ^ p[i]) * 1099511628211ull;
          }
        };
        if (vectorized) {
          RowBatch batch;
          while (mx.NextBatch(&batch)) {
            rows[r] += batch.size();
            if (checksum) fnv(batch.data(), batch.byte_size());
          }
        } else {
          Tuple t;
          while (mx.Next(&t)) {
            const RowVectorPtr& part = t[1].collection();
            rows[r] += part->size();
            if (checksum && !part->empty()) {
              fnv(part->data(), part->byte_size());
            }
          }
        }
        MODULARIS_RETURN_NOT_OK(mx.status());
        sums[r] = h;
        stalls[r] = comm.fabric().stall_seconds(r);
        return mx.Close();
      });
  if (!st.ok()) {
    std::fprintf(stderr, "FAIL: exchange_shuffle: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  ShuffleOut out;
  for (int r = 0; r < world; ++r) {
    out.checksum = (out.checksum ^ sums[r]) * 1099511628211ull;
    out.rows += rows[r];
    out.stall += stalls[r];
  }
  return out;
}

void BenchExchangeShuffle() {
  net::FabricOptions fast;
  fast.throttle = false;

  // Gated single-rank thread sweep over 2M rows.
  {
    ShuffleFixture fx = MakeShuffleFixture(1, 1 << 21);
    uint64_t sum_t1 = 0;
    for (int t : {1, 2, 4, 8}) {
      // Untimed determinism pass: owned bytes must match t1 exactly.
      ShuffleOut check = RunExchangeShuffle(fx, t, true, false, fast, true);
      if (check.rows != fx.rows) {
        std::fprintf(stderr, "FAIL: exchange_shuffle t%d lost rows\n", t);
        std::exit(1);
      }
      if (t == 1) {
        sum_t1 = check.checksum;
      } else if (check.checksum != sum_t1) {
        std::fprintf(stderr,
                     "FAIL: exchange_shuffle t%d output differs from t1\n", t);
        std::exit(1);
      }
      RunBench("exchange_shuffle_t" + std::to_string(t), fx.rows, fx.bytes,
               1, [&] { RunExchangeShuffle(fx, t, true, false, fast, false); },
               t);
    }
    ShuffleOut rowdrain = RunExchangeShuffle(fx, 1, false, false, fast, true);
    if (rowdrain.checksum != sum_t1) {
      std::fprintf(stderr,
                   "FAIL: exchange_shuffle per-tuple drain differs from "
                   "batched wire\n");
      std::exit(1);
    }
    RunBench("exchange_shuffle_rowdrain_t1", fx.rows, fx.bytes, 1,
             [&] { RunExchangeShuffle(fx, 1, false, false, fast, false); }, 1);

    // Fault-layer hook cost on the fault-free path (bench_gate.py
    // WIN_GATES: >= 0.97x of the plain t1 run). The armed injector runs
    // the full seeded decision path at every Put/Flush at rate 0, and a
    // live deadline token is checked by the morsel loops and drains —
    // everything the fault layer adds, with nothing ever firing.
    net::FabricOptions armed = fast;
    armed.fault.armed = true;
    CancellationToken idle_deadline;
    idle_deadline.SetDeadlineAfter(3600.0);
    ShuffleOut armed_check =
        RunExchangeShuffle(fx, 1, true, false, armed, true, &idle_deadline);
    if (armed_check.checksum != sum_t1) {
      std::fprintf(stderr,
                   "FAIL: exchange_shuffle armed output differs from t1\n");
      std::exit(1);
    }
    RunBench("exchange_shuffle_faultarmed_t1", fx.rows, fx.bytes, 1,
             [&] {
               RunExchangeShuffle(fx, 1, true, false, armed, false,
                                  &idle_deadline);
             },
             1);
  }

  // Multi-rank shuffles (reported only): ranks are threads too, so the
  // per-rank pools share the machine.
  for (int world : {2, 4}) {
    ShuffleFixture fx = MakeShuffleFixture(world, 1 << 19);
    uint64_t sum_t1 = 0;
    for (int t : {1, 4}) {
      ShuffleOut check = RunExchangeShuffle(fx, t, true, false, fast, true);
      if (t == 1) {
        sum_t1 = check.checksum;
      } else if (check.checksum != sum_t1) {
        std::fprintf(stderr,
                     "FAIL: exchange_shuffle w%d t%d output differs from t1\n",
                     world, t);
        std::exit(1);
      }
      RunBench("exchange_shuffle_w" + std::to_string(world) + "_t" +
                   std::to_string(t),
               fx.rows, fx.bytes, 1,
               [&] { RunExchangeShuffle(fx, t, true, false, fast, false); },
               t);
    }
  }

  // Overlap ablation: modelled stall of the pipelined schedule vs
  // partition-then-send on a slower wire. No sleeping (throttle off) —
  // the stall clock is the busy-clock residue at Flush.
  {
    ShuffleFixture fx = MakeShuffleFixture(1, 1 << 19);
    net::FabricOptions slow = fast;
    slow.bandwidth_bytes_per_sec = 1e9;
    // Pure bandwidth term: with a per-message latency the pipelined
    // schedule's many small write-combining Puts would be charged more
    // wire time than the ablation's few whole-partition Puts, muddying
    // the overlap comparison with a message-count effect.
    slow.latency_seconds = 0;
    double piped = 1e300, staged = 1e300;
    for (int iter = 0; iter < 3; ++iter) {
      piped = std::min(
          piped, RunExchangeShuffle(fx, 4, true, false, slow, false).stall);
      staged = std::min(
          staged, RunExchangeShuffle(fx, 4, true, true, slow, false).stall);
    }
    piped = std::max(piped, 1e-9);
    staged = std::max(staged, 1e-9);
    for (const auto& [name, stall] :
         {std::pair<const char*, double>{"exchange_overlap_pipelined", piped},
          std::pair<const char*, double>{"exchange_overlap_serialwire",
                                         staged}}) {
      BenchResult r;
      r.op = name;
      r.rows = fx.rows;
      r.seconds = stall;
      r.rows_per_sec = static_cast<double>(fx.rows) / stall;
      r.bytes_per_sec = static_cast<double>(fx.bytes) / stall;
      r.vectorized = 1;
      r.threads = 4;
      Results()->push_back(r);
    }
    std::printf(
        "exchange overlap: stall %.3f ms pipelined vs %.3f ms "
        "partition-then-send (%.2fx of the wire hidden behind compute)\n",
        piped * 1e3, staged * 1e3, staged / piped);
  }
}

/// End-to-end plan derivation: build the logical plan, optimize with a
/// populated catalog, split at the driver, and lower all four platform
/// shapes. Gated in bench_gate.py on an absolute plans/sec floor —
/// planning is microseconds per query and must stay negligible against
/// even the smallest execution. Q3 is the 3-table join (the join-order
/// pass's busiest TPC-H input); Q18 adds HAVING + the driver top-k
/// split.
void BenchPlannerBuildLower() {
  const planner::Catalog catalog =
      tpch::TpchCatalog({60000, 15000, 1500, 2000});
  struct PlatformShape {
    planner::ScanLeafKind leaf;
    bool serverless;
    bool tcp;
  };
  const PlatformShape shapes[] = {
      {planner::ScanLeafKind::kMemoryRows, false, false},
      {planner::ScanLeafKind::kMemoryRows, false, true},
      {planner::ScanLeafKind::kColumnFile, true, false},
      {planner::ScanLeafKind::kS3Select, true, false},
  };
  for (int q : {3, 18}) {
    constexpr int kIters = 200;
    RunBench(
        "planner_q" + std::to_string(q) + "_build_lower", kIters, 0, -1,
        [&] {
          for (int i = 0; i < kIters; ++i) {
            auto root = tpch::TpchLogicalPlan(q);
            if (!root.ok()) std::exit(1);
            planner::PlannerOptions popts;
            popts.catalog = catalog;
            planner::LogicalPlanPtr opt =
                planner::Optimize(root.value(), popts, nullptr);
            auto split = planner::SplitAtDriver(opt);
            if (!split.ok()) std::exit(1);
            for (const PlatformShape& shape : shapes) {
              planner::LoweringContext lctx;
              lctx.scan_leaf = shape.leaf;
              lctx.serverless = shape.serverless;
              lctx.fused = true;
              lctx.world = 4;
              lctx.exec.network_radix_bits = 4;
              lctx.exec.tcp_exchange = shape.tcp;
              lctx.tag = "bench";
              PipelinePlan plan;
              auto lowered = planner::LowerRankPlan(*split.value().rank_root,
                                                    &plan, &lctx);
              if (!lowered.ok()) std::exit(1);
            }
          }
        });
  }
}

void WriteJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  // Machine descriptor first: bench_gate.py only enforces the
  // thread-scaling ratios when the producing machine had the cores.
  std::fprintf(f,
               "  {\"op\": \"_meta\", \"hardware_concurrency\": %u},\n",
               std::thread::hardware_concurrency());
  const std::vector<BenchResult>& results = *Results();
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"rows\": %zu, \"seconds\": %.6f, "
                 "\"rows_per_sec\": %.1f, \"bytes_per_sec\": %.1f, "
                 "\"vectorized\": %s",
                 r.op.c_str(), r.rows, r.seconds, r.rows_per_sec,
                 r.bytes_per_sec,
                 r.vectorized < 0 ? "null" : (r.vectorized ? "true" : "false"));
    if (r.threads > 0) {
      std::fprintf(f, ", \"threads\": %d, \"rows_per_sec_per_thread\": %.1f",
                   r.threads, r.rows_per_sec / r.threads);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu results)\n", path.c_str(), results.size());
}

}  // namespace
}  // namespace modularis

int main(int argc, char** argv) {
  using namespace modularis;
  BenchRadixHistogram();
  BenchRadixScatter();
  BenchJoinHashTable();
  BenchReduceByKey(false);
  BenchReduceByKey(true);
  BenchExprFilterEval();
  BenchFilterSelectivity();
  BenchKeySerializeHash();
  BenchFilterMap();
  BenchColumnFileRoundTrip();
  BenchPartitionBuildProbe();
  BenchJoinSpill();
  BenchThreadScaling();
  BenchScanPipeline();
  BenchSortTopK();
  BenchGroupBy();
  BenchGroupByQ1Skew();
  BenchExchangeShuffle();
  BenchPlannerBuildLower();
  WriteJson(argc > 1 ? argv[1] : "BENCH_micro.json");
  return 0;
}
