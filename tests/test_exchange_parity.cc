/// \file test_exchange_parity.cc
/// Cross-rank determinism of the morsel-parallel, compute-overlapped
/// exchange (docs/DESIGN-exchange.md): N worker threads × R ranks must be
/// byte-equal to 1 × R per owned partition on all three transports — the
/// MPI one-sided window, the two-sided TCP fabric, and the in-memory S3
/// blob store — including empty fragments and skewed single-key inputs.
/// Also asserts the overlap property (the pipelined schedule stalls
/// strictly less than the partition-then-send ablation), the network
/// observability keys, and that the exchange operators serve the batch
/// protocol natively (zero `vectorized.default_adapter.*` batches). Runs
/// under ThreadSanitizer and ASan+UBSan in CI.

#include <algorithm>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exec_context.h"
#include "mpi/mpi_ops.h"
#include "mpi/tcp_exchange.h"
#include "plans/distributed_groupby.h"
#include "plans/distributed_join.h"
#include "plans/join_sequence.h"
#include "serverless/serverless_ops.h"
#include "suboperators/agg_ops.h"
#include "suboperators/partition_ops.h"
#include "suboperators/scan_ops.h"

namespace modularis {
namespace {

net::FabricOptions Unthrottled() {
  net::FabricOptions o;
  o.throttle = false;
  return o;
}

void ExpectBytesEqual(const RowVector& expected, const RowVector& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  ASSERT_EQ(expected.row_size(), actual.row_size()) << label;
  if (expected.byte_size() == 0) return;  // empty buffers may be null
  ASSERT_EQ(0, std::memcmp(expected.data(), actual.data(),
                           expected.byte_size()))
      << label << ": payload bytes differ";
}

/// ⟨key, value⟩ rows with keys uniform in [0, key_space) (or all equal to
/// `fixed_key` when >= 0) and value = row index.
RowVectorPtr MakeKv(int64_t rows, int64_t key_space, uint32_t seed,
                    int64_t fixed_key = -1) {
  RowVectorPtr data = RowVector::Make(KeyValueSchema());
  data->Reserve(rows);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> dist(0, key_space - 1);
  for (int64_t i = 0; i < rows; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, fixed_key >= 0 ? fixed_key : dist(rng));
    w.SetInt64(1, i);
  }
  return data;
}

/// 24-byte ⟨key, value, tag⟩ rows: a layout no exchange can guess from
/// the 16-byte key/value default, so an empty rank must take its stride
/// from the plan.
Schema WideSchema() {
  return Schema({Field::I64("key"), Field::I64("value"), Field::I64("tag")});
}

RowVectorPtr MakeWide(int64_t rows, int64_t key_space, uint32_t seed) {
  RowVectorPtr data = RowVector::Make(WideSchema());
  data->Reserve(rows);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int64_t> dist(0, key_space - 1);
  for (int64_t i = 0; i < rows; ++i) {
    RowWriter w = data->AppendRow();
    w.SetInt64(0, dist(rng));
    w.SetInt64(1, i);
    w.SetInt64(2, static_cast<int64_t>(seed) * 1000003 + i);
  }
  return data;
}

/// Every input row arrives exactly once, at the input's stride.
void ExpectRowsConserved(const std::vector<RowVectorPtr>& frags,
                         const std::vector<RowVectorPtr>& outputs,
                         const std::string& label) {
  size_t in_rows = 0, out_rows = 0;
  for (const RowVectorPtr& f : frags) in_rows += f->size();
  for (const RowVectorPtr& o : outputs) {
    EXPECT_EQ(o->row_size(), frags.front()->row_size()) << label;
    out_rows += o->size();
  }
  EXPECT_EQ(in_rows, out_rows) << label;
}

/// The exchange's data child: the bare collection (not a record stream,
/// so the exchange pulls it as tuples) or, with `scanned`, a RowScan
/// over it (a record stream, pulled as batches that skip an empty
/// fragment entirely).
SubOpPtr DataSource(const RowVectorPtr& frag, bool scanned) {
  SubOpPtr src = std::make_unique<CollectionSource>(
      std::vector<RowVectorPtr>{frag});
  if (!scanned) return src;
  return std::make_unique<RowScan>(std::move(src));
}

std::vector<int64_t> CountPartitions(const RowVector& frag,
                                     const RadixSpec& spec) {
  std::vector<int64_t> counts(spec.fanout(), 0);
  for (size_t i = 0; i < frag.size(); ++i) {
    ++counts[spec.PartitionOf(frag.row(i).GetInt64(0))];
  }
  return counts;
}

RowVectorPtr HistVector(const std::vector<int64_t>& counts) {
  RowVectorPtr hist = RowVector::Make(HistogramSchema());
  hist->Reserve(counts.size());
  for (int64_t c : counts) hist->AppendRow().SetInt64(0, c);
  return hist;
}

struct FabricTotals {
  int64_t bytes = 0;
  int64_t msgs = 0;
  double charged = 0;
  double stall = 0;
};

// ---------------------------------------------------------------------------
// MPI transport: owned-partition parity + overlap.
// ---------------------------------------------------------------------------

/// What one rank's pulls delivered, in pull order: ⟨pid, partition⟩ for
/// a Next() pull, ⟨-1, the batch's rows⟩ for a NextBatch() pull.
using Deliveries = std::vector<std::pair<int64_t, RowVectorPtr>>;
/// Drains one rank's exchange into `out`.
using MpiPull = std::function<Status(MpiExchange*, Deliveries* out)>;

/// Runs a bare MpiExchange (DataSource child, manually derived
/// histograms) on world = frags.size() ranks with `threads` workers per
/// rank; returns what each rank's pulls delivered — the owned ⟨pid,
/// partition⟩ pairs through Next(), unless `pull` drains it otherwise.
/// Every fragment shares one schema, which the exchange takes at
/// construction.
std::vector<Deliveries> RunMpiExchange(
    const std::vector<RowVectorPtr>& frags, int threads, bool compress,
    bool serial_wire, size_t buffer_bytes,
    const net::FabricOptions& fabric, FabricTotals* totals,
    bool scanned = false, const MpiPull& pull = nullptr) {
  const int world = static_cast<int>(frags.size());
  const RadixSpec spec{4, 0, RadixHash::kIdentity};
  std::vector<int64_t> global(spec.fanout(), 0);
  for (const RowVectorPtr& f : frags) {
    std::vector<int64_t> local = CountPartitions(*f, spec);
    for (int p = 0; p < spec.fanout(); ++p) global[p] += local[p];
  }
  std::vector<Deliveries> parts(world);
  std::vector<StatsRegistry> rank_stats(world);
  std::vector<FabricTotals> per_rank(world);
  Status st = mpi::MpiRuntime::Run(
      world, fabric, [&](mpi::Communicator& comm) -> Status {
        const int r = comm.rank();
        ExecContext ctx;
        ctx.rank = r;
        ctx.world = comm.size();
        ctx.comm = &comm;
        ctx.options.num_threads = threads;
        ctx.options.parallel_min_rows = 256;
        ctx.stats = &rank_stats[r];
        MpiExchange::Options xopts;
        xopts.spec = spec;
        xopts.compress = compress;
        xopts.serial_wire = serial_wire;
        xopts.buffer_bytes = buffer_bytes;
        MpiExchange mx(DataSource(frags[r], scanned),
                       std::make_unique<CollectionSource>(
                           std::vector<RowVectorPtr>{HistVector(
                               CountPartitions(*frags[r], spec))}),
                       std::make_unique<CollectionSource>(
                           std::vector<RowVectorPtr>{HistVector(global)}),
                       frags.front()->schema(), xopts);
        MODULARIS_RETURN_NOT_OK(mx.Open(&ctx));
        if (pull != nullptr) {
          MODULARIS_RETURN_NOT_OK(pull(&mx, &parts[r]));
        } else {
          Tuple t;
          while (mx.Next(&t)) {
            parts[r].push_back({t[0].i64(), t[1].collection()});
          }
          MODULARIS_RETURN_NOT_OK(mx.status());
        }
        per_rank[r] = {comm.fabric().bytes_sent(r),
                       comm.fabric().msgs_sent(r),
                       comm.fabric().charged_seconds(r),
                       comm.fabric().stall_seconds(r)};
        return mx.Close();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (totals != nullptr) {
    for (const FabricTotals& f : per_rank) {
      totals->bytes += f.bytes;
      totals->msgs += f.msgs;
      totals->charged += f.charged;
      totals->stall += f.stall;
    }
  }
  for (const StatsRegistry& s : rank_stats) {
    EXPECT_EQ(s.GetCounter("vectorized.default_adapter.MpiExchange"), 0);
  }
  return parts;
}

void CheckMpiParity(const std::vector<RowVectorPtr>& frags, bool compress,
                    const std::string& label, bool scanned = false) {
  auto base = RunMpiExchange(frags, 1, compress, /*serial_wire=*/false, 512,
                             Unthrottled(), nullptr, scanned);
  auto par = RunMpiExchange(frags, 4, compress, /*serial_wire=*/false, 512,
                            Unthrottled(), nullptr, scanned);
  // The ablation must produce the same window layout too.
  auto abl = RunMpiExchange(frags, 4, compress, /*serial_wire=*/true, 512,
                            Unthrottled(), nullptr, scanned);
  if (!compress) {
    std::vector<RowVectorPtr> outputs;
    for (const auto& rank_parts : base) {
      for (const auto& part : rank_parts) outputs.push_back(part.second);
    }
    ExpectRowsConserved(frags, outputs, label);
  }
  for (const auto* other : {&par, &abl}) {
    ASSERT_EQ(base.size(), other->size()) << label;
    for (size_t r = 0; r < base.size(); ++r) {
      ASSERT_EQ(base[r].size(), (*other)[r].size()) << label;
      for (size_t i = 0; i < base[r].size(); ++i) {
        EXPECT_EQ(base[r][i].first, (*other)[r][i].first) << label;
        ExpectBytesEqual(*base[r][i].second, *(*other)[r][i].second,
                         label + " rank " + std::to_string(r) + " pid " +
                             std::to_string(base[r][i].first));
      }
    }
  }
}

TEST(MpiExchangeParityTest, RandomKeys) {
  for (int world : {2, 4}) {
    std::vector<RowVectorPtr> frags;
    for (int r = 0; r < world; ++r) {
      frags.push_back(MakeKv(4096, 1 << 20, 100 + r));
    }
    const std::string w = "world=" + std::to_string(world);
    CheckMpiParity(frags, /*compress=*/false, "mpi random " + w);
    CheckMpiParity(frags, /*compress=*/true, "mpi random+compress " + w);
  }
}

TEST(MpiExchangeParityTest, SkewedSingleKey) {
  // Every row lands in one partition; 15 of 16 partitions stay empty.
  for (int world : {2, 4}) {
    std::vector<RowVectorPtr> frags;
    for (int r = 0; r < world; ++r) {
      frags.push_back(MakeKv(2048, 1, 200 + r, /*fixed_key=*/7));
    }
    CheckMpiParity(frags, /*compress=*/false,
                   "mpi skewed world=" + std::to_string(world));
  }
}

TEST(MpiExchangeParityTest, EmptyFragment) {
  for (int world : {2, 4}) {
    std::vector<RowVectorPtr> frags;
    frags.push_back(RowVector::Make(KeyValueSchema()));  // rank 0 empty
    for (int r = 1; r < world; ++r) {
      frags.push_back(MakeKv(3000, 1 << 16, 300 + r));
    }
    CheckMpiParity(frags, /*compress=*/false,
                   "mpi empty-rank world=" + std::to_string(world));

    std::vector<RowVectorPtr> wide;
    wide.push_back(RowVector::Make(WideSchema()));  // rank 0 empty
    for (int r = 1; r < world; ++r) {
      wide.push_back(MakeWide(3000, 1 << 16, 350 + r));
    }
    for (bool scanned : {false, true}) {
      CheckMpiParity(wide, /*compress=*/false,
                     "mpi empty-rank 24-byte world=" + std::to_string(world) +
                         " scanned=" + std::to_string(scanned),
                     scanned);
    }
  }
}

/// A batch's rows, copied into a vector of their own.
RowVectorPtr BatchRows(const RowBatch& batch) {
  RowVectorPtr rows = RowVector::Make(batch.schema());
  for (size_t i = 0; i < batch.size(); ++i) {
    rows->AppendRaw(batch.row(i).data());
  }
  return rows;
}

Status PullBatches(MpiExchange* mx, Deliveries* out) {
  RowBatch batch;
  while (mx->NextBatch(&batch)) out->push_back({-1, BatchRows(batch)});
  return mx->status();
}

/// Alternates Next() and NextBatch() pulls until one reports the end.
Status PullMixed(MpiExchange* mx, Deliveries* out) {
  RowBatch batch;
  Tuple t;
  for (bool row = true;; row = !row) {
    if (row) {
      if (!mx->Next(&t)) break;
      out->push_back({t[0].i64(), t[1].collection()});
    } else {
      if (!mx->NextBatch(&batch)) break;
      out->push_back({-1, BatchRows(batch)});
    }
  }
  return mx->status();
}

// The batch protocol of the RDMA exchange: NextBatch() serves the owned
// partitions Next() serves, in pid order, skipping the empty ones, and a
// stream mixing both protocols delivers every partition exactly once.
TEST(MpiExchangeParityTest, NextBatchServesOwnedPartitionsInPidOrder) {
  for (int world : {1, 4}) {
    // Even keys only: with the identity radix every odd partition is
    // empty on every rank.
    std::vector<RowVectorPtr> frags;
    for (int r = 0; r < world; ++r) {
      RowVectorPtr frag = MakeKv(3000, 1 << 16, 400 + r);
      for (size_t i = 0; i < frag->size(); ++i) {
        RowWriter w(frag->mutable_row(i), &frag->schema());
        w.SetInt64(0, frag->row(i).GetInt64(0) * 2);
      }
      frags.push_back(frag);
    }
    for (int threads : {1, 4}) {
      const std::string label = "world=" + std::to_string(world) +
                                " threads=" + std::to_string(threads);
      auto run = [&](const MpiPull& pull) {
        return RunMpiExchange(frags, threads, /*compress=*/false,
                              /*serial_wire=*/false, 512, Unthrottled(),
                              nullptr, /*scanned=*/false, pull);
      };
      const std::vector<Deliveries> rows = run(nullptr);
      const std::vector<Deliveries> batches = run(PullBatches);
      const std::vector<Deliveries> mixed = run(PullMixed);
      ASSERT_EQ(rows.size(), static_cast<size_t>(world)) << label;
      size_t empty = 0, mixed_rows = 0, mixed_batches = 0;
      for (int r = 0; r < world; ++r) {
        const std::string rl = label + " rank " + std::to_string(r);
        std::vector<RowVectorPtr> nonempty;
        for (size_t i = 0; i < rows[r].size(); ++i) {
          if (i > 0) EXPECT_LT(rows[r][i - 1].first, rows[r][i].first) << rl;
          if (rows[r][i].second->empty()) {
            ++empty;
          } else {
            nonempty.push_back(rows[r][i].second);
          }
        }
        ASSERT_EQ(batches[r].size(), nonempty.size()) << rl;
        for (size_t i = 0; i < nonempty.size(); ++i) {
          ExpectBytesEqual(*nonempty[i], *batches[r][i].second,
                           rl + " batch " + std::to_string(i));
        }
        // Mixed: each delivery is the next partition in pid order; a
        // batch pull first skips the empty partitions before it.
        size_t j = 0;
        for (const auto& [pid, part] : mixed[r]) {
          if (pid < 0) {
            while (j < rows[r].size() && rows[r][j].second->empty()) ++j;
            ++mixed_batches;
          } else {
            ++mixed_rows;
          }
          ASSERT_LT(j, rows[r].size()) << rl << ": a partition delivered twice";
          if (pid >= 0) EXPECT_EQ(pid, rows[r][j].first) << rl;
          ExpectBytesEqual(*rows[r][j].second, *part,
                           rl + " mixed pid " +
                               std::to_string(rows[r][j].first));
          ++j;
        }
        for (; j < rows[r].size(); ++j) {
          EXPECT_TRUE(rows[r][j].second->empty())
              << rl << ": pid " << rows[r][j].first << " never delivered";
        }
      }
      EXPECT_GT(empty, 0u) << label;
      EXPECT_GT(mixed_rows, 0u) << label;
      EXPECT_GT(mixed_batches, 0u) << label;
    }
  }
}

// A local histogram that disagrees with rank 0's data must fail the
// exchange with InvalidArgument at one worker and at four, on both wire
// schedules, instead of writing a surplus row into the next partition's
// window region or leaving window rows unwritten.
TEST(MpiExchangeParityTest, LocalHistogramThatDisagreesWithDataFails) {
  const RadixSpec spec{4, 0, RadixHash::kIdentity};
  const std::vector<RowVectorPtr> frags = {MakeKv(4000, 1 << 12, 41),
                                           MakeKv(4000, 1 << 12, 42)};
  const int world = static_cast<int>(frags.size());
  // One row claimed by the wrong partition, one row too few, one too many.
  const std::vector<std::pair<int, int>> lies = {{2, 3}, {5, -1}, {-1, 5}};
  for (const auto& [minus, plus] : lies) {
    std::vector<std::vector<int64_t>> locals;
    for (const RowVectorPtr& f : frags) {
      locals.push_back(CountPartitions(*f, spec));
    }
    if (minus >= 0) --locals[0][minus];
    if (plus >= 0) ++locals[0][plus];
    std::vector<int64_t> global(spec.fanout(), 0);
    for (const auto& local : locals) {
      for (int p = 0; p < spec.fanout(); ++p) global[p] += local[p];
    }
    for (int threads : {1, 4}) {
      for (bool serial_wire : {false, true}) {
        const std::string label =
            "-1 at " + std::to_string(minus) + ", +1 at " +
            std::to_string(plus) + " threads=" + std::to_string(threads) +
            " serial_wire=" + std::to_string(serial_wire);
        Status st = mpi::MpiRuntime::Run(
            world, Unthrottled(), [&](mpi::Communicator& comm) -> Status {
              const int r = comm.rank();
              ExecContext ctx;
              ctx.rank = r;
              ctx.world = comm.size();
              ctx.comm = &comm;
              ctx.options.num_threads = threads;
              ctx.options.parallel_min_rows = 256;
              MpiExchange::Options xopts;
              xopts.spec = spec;
              xopts.serial_wire = serial_wire;
              xopts.buffer_bytes = 512;
              MpiExchange mx(DataSource(frags[r], /*scanned=*/false),
                             std::make_unique<CollectionSource>(
                                 std::vector<RowVectorPtr>{
                                     HistVector(locals[r])}),
                             std::make_unique<CollectionSource>(
                                 std::vector<RowVectorPtr>{
                                     HistVector(global)}),
                             KeyValueSchema(), xopts);
              MODULARIS_RETURN_NOT_OK(mx.Open(&ctx));
              Tuple t;
              while (mx.Next(&t)) {
              }
              MODULARIS_RETURN_NOT_OK(mx.status());
              return mx.Close();
            });
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
            << label << ": " << st.ToString();
      }
    }
  }
}

TEST(MpiExchangeOverlapTest, PipelinedStallsLessThanPartitionThenSend) {
  // Slow unthrottled wire: the modelled transfer time dominates, so the
  // stall clock separates the two schedules — pipelined Puts start the
  // busy-clock while later morsels still partition, the ablation pays for
  // the whole transfer after partitioning finished.
  const int world = 2;
  std::vector<RowVectorPtr> frags;
  for (int r = 0; r < world; ++r) {
    frags.push_back(MakeKv(1 << 17, 1 << 20, 40 + r));
  }
  net::FabricOptions slow = Unthrottled();
  slow.bandwidth_bytes_per_sec = 2e8;  // ~10 ms of wire per rank
  // Pure bandwidth term: a per-message latency would charge the
  // pipelined schedule's many small Puts extra wire time the ablation's
  // few whole-partition Puts never pay, turning this into a
  // message-count comparison instead of an overlap one.
  slow.latency_seconds = 0;
  FabricTotals piped, ablation;
  auto a = RunMpiExchange(frags, 4, /*compress=*/false,
                          /*serial_wire=*/false, 4096, slow, &piped);
  auto b = RunMpiExchange(frags, 4, /*compress=*/false,
                          /*serial_wire=*/true, 4096, slow, &ablation);
  // Scheduler noise can delay any single run's flushes; compare the
  // best of three like the bench does.
  for (int iter = 0; iter < 2; ++iter) {
    FabricTotals p2, a2;
    RunMpiExchange(frags, 4, false, /*serial_wire=*/false, 4096, slow, &p2);
    RunMpiExchange(frags, 4, false, /*serial_wire=*/true, 4096, slow, &a2);
    piped.stall = std::min(piped.stall, p2.stall);
    ablation.stall = std::min(ablation.stall, a2.stall);
  }
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size());
    for (size_t i = 0; i < a[r].size(); ++i) {
      ExpectBytesEqual(*a[r][i].second, *b[r][i].second, "overlap parity");
    }
  }
  EXPECT_GT(piped.bytes, 0);
  EXPECT_GT(piped.msgs, 0);
  EXPECT_GT(piped.charged, 0);
  EXPECT_EQ(piped.bytes, ablation.bytes);
  EXPECT_LT(piped.stall, ablation.stall)
      << "pipelined exchange must hide wire time behind partitioning";
}

// ---------------------------------------------------------------------------
// TCP transport.
// ---------------------------------------------------------------------------

std::vector<RowVectorPtr> RunTcpExchange(
    const std::vector<RowVectorPtr>& frags, int threads,
    bool scanned = false) {
  const int world = static_cast<int>(frags.size());
  std::vector<RowVectorPtr> mine(world);
  std::vector<StatsRegistry> rank_stats(world);
  Status st = mpi::MpiRuntime::Run(
      world, Unthrottled(), [&](mpi::Communicator& comm) -> Status {
        const int r = comm.rank();
        ExecContext ctx;
        ctx.rank = r;
        ctx.world = comm.size();
        ctx.comm = &comm;
        ctx.options.num_threads = threads;
        ctx.options.parallel_min_rows = 256;
        ctx.stats = &rank_stats[r];
        TcpExchange tx(DataSource(frags[r], scanned), frags.front()->schema(),
                       TcpExchange::Options{});
        MODULARIS_RETURN_NOT_OK(tx.Open(&ctx));
        RowVectorPtr out = RowVector::Make(frags[r]->schema());
        RowBatch batch;
        while (tx.NextBatch(&batch)) {
          out->AppendRawBatch(batch.data(), batch.size());
        }
        MODULARIS_RETURN_NOT_OK(tx.status());
        mine[r] = std::move(out);
        return tx.Close();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (const StatsRegistry& s : rank_stats) {
    EXPECT_EQ(s.GetCounter("vectorized.default_adapter.TcpExchange"), 0);
  }
  return mine;
}

void CheckTcpParity(const std::vector<RowVectorPtr>& frags,
                    const std::string& label, bool scanned = false) {
  auto base = RunTcpExchange(frags, 1, scanned);
  auto par = RunTcpExchange(frags, 4, scanned);
  ExpectRowsConserved(frags, base, label);
  ASSERT_EQ(base.size(), par.size()) << label;
  for (size_t r = 0; r < base.size(); ++r) {
    ExpectBytesEqual(*base[r], *par[r],
                     label + " rank " + std::to_string(r));
  }
}

TEST(TcpExchangeParityTest, RandomKeys) {
  for (int world : {2, 4}) {
    std::vector<RowVectorPtr> frags;
    for (int r = 0; r < world; ++r) {
      frags.push_back(MakeKv(4096, 1 << 20, 500 + r));
    }
    CheckTcpParity(frags, "tcp random world=" + std::to_string(world));
  }
}

TEST(TcpExchangeParityTest, SkewedAndEmpty) {
  for (int world : {2, 4}) {
    std::vector<RowVectorPtr> skewed;
    for (int r = 0; r < world; ++r) {
      skewed.push_back(MakeKv(2048, 1, 600 + r, /*fixed_key=*/3));
    }
    CheckTcpParity(skewed, "tcp skewed world=" + std::to_string(world));

    std::vector<RowVectorPtr> sparse;
    sparse.push_back(RowVector::Make(KeyValueSchema()));
    for (int r = 1; r < world; ++r) {
      sparse.push_back(MakeKv(3000, 1 << 16, 700 + r));
    }
    CheckTcpParity(sparse, "tcp empty-rank world=" + std::to_string(world));

    std::vector<RowVectorPtr> wide;
    wide.push_back(RowVector::Make(WideSchema()));
    for (int r = 1; r < world; ++r) {
      wide.push_back(MakeWide(3000, 1 << 16, 750 + r));
    }
    for (bool scanned : {false, true}) {
      CheckTcpParity(wide,
                     "tcp empty-rank 24-byte world=" + std::to_string(world) +
                         " scanned=" + std::to_string(scanned),
                     scanned);
    }
  }
}

// ---------------------------------------------------------------------------
// S3 transport (in-memory blob store via the Lambda runtime).
// ---------------------------------------------------------------------------

std::vector<RowVectorPtr> RunS3Exchange(
    const std::vector<RowVectorPtr>& frags, int threads) {
  const int world = static_cast<int>(frags.size());
  serverless::LambdaOptions lopts;
  lopts.num_workers = world;
  lopts.throttle = false;
  lopts.s3 = storage::BlobClientOptions::Unthrottled();
  storage::BlobStore store;
  std::vector<RowVectorPtr> mine(world);
  std::vector<StatsRegistry> rank_stats(world);
  const int bits = world == 2 ? 1 : 2;  // fanout must equal the fleet size
  Status st = serverless::LambdaRuntime::Run(
      lopts, &store,
      [&](serverless::LambdaWorkerContext& wctx) -> Status {
        const int me = wctx.worker_id;
        ExecContext ctx;
        ctx.rank = me;
        ctx.world = wctx.num_workers;
        ctx.blob = wctx.s3;
        ctx.lambda = &wctx;
        ctx.options.num_threads = threads;
        ctx.options.parallel_min_rows = 256;
        ctx.stats = &rank_stats[me];
        RadixSpec spec{bits, 0, RadixHash::kMix};
        S3Exchange::Options xopts;
        xopts.prefix = "parity-exchange";
        S3Exchange ex(std::make_unique<GroupByPid>(
                          std::make_unique<PartitionOp>(
                              std::make_unique<CollectionSource>(
                                  std::vector<RowVectorPtr>{frags[me]}),
                              spec, 0)),
                      xopts);
        MODULARIS_RETURN_NOT_OK(ex.Open(&ctx));
        RowVectorPtr out;
        RowBatch batch;
        while (ex.NextBatch(&batch)) {
          if (out == nullptr) out = RowVector::Make(batch.schema());
          out->AppendRawBatch(batch.data(), batch.size());
        }
        MODULARIS_RETURN_NOT_OK(ex.status());
        if (out == nullptr) out = RowVector::Make(KeyValueSchema());
        mine[me] = std::move(out);
        return ex.Close();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (const StatsRegistry& s : rank_stats) {
    EXPECT_EQ(s.GetCounter("vectorized.default_adapter.S3Exchange"), 0);
  }
  return mine;
}

void CheckS3Parity(const std::vector<RowVectorPtr>& frags,
                   const std::string& label) {
  auto base = RunS3Exchange(frags, 1);
  auto par = RunS3Exchange(frags, 4);
  ASSERT_EQ(base.size(), par.size()) << label;
  for (size_t r = 0; r < base.size(); ++r) {
    ExpectBytesEqual(*base[r], *par[r],
                     label + " worker " + std::to_string(r));
  }
}

TEST(S3ExchangeParityTest, RandomKeys) {
  for (int world : {2, 4}) {
    std::vector<RowVectorPtr> frags;
    for (int r = 0; r < world; ++r) {
      frags.push_back(MakeKv(4096, 1 << 20, 800 + r));
    }
    CheckS3Parity(frags, "s3 random world=" + std::to_string(world));
  }
}

TEST(S3ExchangeParityTest, SkewedAndEmpty) {
  for (int world : {2, 4}) {
    std::vector<RowVectorPtr> skewed;
    for (int r = 0; r < world; ++r) {
      skewed.push_back(MakeKv(2048, 1, 900 + r, /*fixed_key=*/5));
    }
    CheckS3Parity(skewed, "s3 skewed world=" + std::to_string(world));

    std::vector<RowVectorPtr> sparse;
    sparse.push_back(RowVector::Make(KeyValueSchema()));
    for (int r = 1; r < world; ++r) {
      sparse.push_back(MakeKv(3000, 1 << 16, 950 + r));
    }
    CheckS3Parity(sparse, "s3 empty-worker world=" + std::to_string(world));
  }
}

// ---------------------------------------------------------------------------
// Full-plan parity through MpiExecutor (which divides the thread budget
// between ranks): exec.num_threads = 4 * world gives each rank 4 workers.
// ---------------------------------------------------------------------------

/// 1-to-1 keyed kv fragments: keys are a shuffle of [0, rows).
std::vector<RowVectorPtr> MakeJoinSide(int world, int64_t rows,
                                       uint32_t seed, int64_t value_mult) {
  std::vector<int64_t> keys(rows);
  for (int64_t i = 0; i < rows; ++i) keys[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(keys.begin(), keys.end(), rng);
  std::vector<RowVectorPtr> frags;
  for (int r = 0; r < world; ++r) {
    frags.push_back(RowVector::Make(KeyValueSchema()));
  }
  for (int64_t i = 0; i < rows; ++i) {
    RowWriter w = frags[i % world]->AppendRow();
    w.SetInt64(0, keys[i]);
    w.SetInt64(1, keys[i] * value_mult);
  }
  return frags;
}

void ExpectExchangeStats(const StatsRegistry& stats,
                         const std::string& label) {
  EXPECT_GT(stats.GetCounter("net.bytes_sent"), 0) << label;
  EXPECT_GT(stats.GetCounter("net.msgs_sent"), 0) << label;
  const double overlap = stats.GetTime("exchange.overlap_ratio");
  EXPECT_GE(overlap, 0.0) << label;
  EXPECT_LE(overlap, 1.0) << label;
  EXPECT_EQ(stats.GetCounter("vectorized.default_adapter.MpiExchange"), 0)
      << label;
  EXPECT_EQ(stats.GetCounter("vectorized.default_adapter.MpiBroadcast"), 0)
      << label;
}

TEST(PlanParityTest, DistributedJoin) {
  const int64_t rows = 8192;
  for (int world : {2, 4}) {
    auto inner = MakeJoinSide(world, rows, 11, 2);
    auto outer = MakeJoinSide(world, rows, 12, 3);
    plans::DistJoinOptions opts;
    opts.world_size = world;
    opts.fabric.throttle = false;
    opts.exec.parallel_min_rows = 256;
    opts.exec.num_threads = 1;
    StatsRegistry stats1;
    auto serial = plans::RunDistributedJoin(inner, outer, opts, &stats1);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    opts.exec.num_threads = 4 * world;
    StatsRegistry stats4;
    auto parallel = plans::RunDistributedJoin(inner, outer, opts, &stats4);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBytesEqual(**serial, **parallel,
                     "distributed_join world=" + std::to_string(world));
    ExpectExchangeStats(stats4,
                        "distributed_join world=" + std::to_string(world));
  }
}

TEST(PlanParityTest, DistributedGroupBy) {
  for (int world : {2, 4}) {
    std::vector<RowVectorPtr> frags;
    for (int r = 0; r < world; ++r) {
      frags.push_back(MakeKv(4096, 512, 20 + r));
    }
    plans::DistGroupByOptions opts;
    opts.world_size = world;
    opts.fabric.throttle = false;
    opts.exec.parallel_min_rows = 256;
    opts.exec.num_threads = 1;
    StatsRegistry stats1;
    auto serial = plans::RunDistributedGroupBy(frags, opts, &stats1);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    opts.exec.num_threads = 4 * world;
    StatsRegistry stats4;
    auto parallel = plans::RunDistributedGroupBy(frags, opts, &stats4);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectBytesEqual(**serial, **parallel,
                     "distributed_groupby world=" + std::to_string(world));
    ExpectExchangeStats(stats4,
                        "distributed_groupby world=" + std::to_string(world));
  }
}

TEST(PlanParityTest, JoinSequence) {
  const int64_t rows = 4096;
  for (int world : {2, 4}) {
    std::vector<std::vector<RowVectorPtr>> rels;
    for (int i = 0; i < 3; ++i) {
      // Keys cycle over [0, rows): every stage joins 1-to-1.
      std::vector<RowVectorPtr> frags;
      for (int r = 0; r < world; ++r) {
        frags.push_back(RowVector::Make(KeyValueSchema()));
      }
      for (int64_t j = 0; j < rows; ++j) {
        RowWriter w = frags[j % world]->AppendRow();
        w.SetInt64(0, (j * 7 + i) % rows);
        w.SetInt64(1, j);
      }
      rels.push_back(std::move(frags));
    }
    for (bool optimized : {false, true}) {
      plans::JoinSequenceOptions opts;
      opts.world_size = world;
      opts.fabric.throttle = false;
      opts.exec.parallel_min_rows = 256;
      opts.exec.num_threads = 1;
      StatsRegistry stats1;
      auto serial = plans::RunJoinSequence(rels, opts, optimized, &stats1);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      opts.exec.num_threads = 4 * world;
      StatsRegistry stats4;
      auto parallel = plans::RunJoinSequence(rels, opts, optimized, &stats4);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectBytesEqual(**serial, **parallel,
                       "join_sequence world=" + std::to_string(world) +
                           (optimized ? " optimized" : " naive"));
      ExpectExchangeStats(stats4,
                          "join_sequence world=" + std::to_string(world));
    }
  }
}

}  // namespace
}  // namespace modularis
