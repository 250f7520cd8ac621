#include <atomic>
#include <numeric>
#include <thread>

#include <gtest/gtest.h>

#include "core/exec_context.h"
#include "mpi/mpi_ops.h"
#include "suboperators/partition_ops.h"
#include "suboperators/scan_ops.h"

namespace modularis {
namespace {

net::FabricOptions Unthrottled() {
  net::FabricOptions o;
  o.throttle = false;
  return o;
}

TEST(FabricTest, PutLandsInRemoteWindow) {
  net::Fabric fabric(2, Unthrottled());
  net::WindowId win = fabric.RegisterWindow(1, 64);
  uint64_t payload = 0xDEADBEEFu;
  ASSERT_TRUE(fabric.Put(0, 1, win, 8, &payload, sizeof(payload)).ok());
  ASSERT_TRUE(fabric.Flush(0).ok());
  uint64_t read;
  std::memcpy(&read, fabric.WindowData(1, win) + 8, sizeof(read));
  EXPECT_EQ(read, payload);
  EXPECT_EQ(fabric.bytes_sent(0), 8);
  EXPECT_GT(fabric.charged_seconds(0), 0);
}

TEST(FabricTest, PutBeyondWindowFails) {
  net::Fabric fabric(2, Unthrottled());
  net::WindowId win = fabric.RegisterWindow(1, 16);
  uint64_t payload = 1;
  Status st = fabric.Put(0, 1, win, 12, &payload, sizeof(payload));
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST(FabricTest, PutIntoFreedWindowFails) {
  net::Fabric fabric(2, Unthrottled());
  net::WindowId win = fabric.RegisterWindow(1, 16);
  fabric.FreeWindow(1, win);
  uint64_t payload = 1;
  EXPECT_FALSE(fabric.Put(0, 1, win, 0, &payload, 8).ok());
}

TEST(FabricTest, ChargeModelIsLatencyPlusBandwidth) {
  net::FabricOptions opts;
  opts.throttle = false;
  opts.latency_seconds = 1e-3;
  opts.bandwidth_bytes_per_sec = 1e6;
  net::Fabric fabric(2, opts);
  fabric.Charge(0, 500'000);  // 0.5 s transfer + 1 ms latency
  EXPECT_NEAR(fabric.charged_seconds(0), 0.501, 1e-9);
  fabric.ResetStats();
  EXPECT_EQ(fabric.charged_seconds(0), 0);
}

TEST(FabricTest, ConcurrentPutsFromOneRankAreSafe) {
  // Worker threads of one rank issue Puts concurrently (the pipelined
  // exchange schedule): every byte must land, and the per-NIC bookkeeping
  // — bytes, message count, busy-clock — must account for all of them.
  const int kThreads = 4, kPerThread = 64;
  // A deliberately slow modelled NIC (1 ms/message) keeps the busy clock
  // far ahead of wall time even on a loaded machine, so the Flush residue
  // assertion below cannot evaporate; throttle=false means no real sleeps.
  net::FabricOptions slow = Unthrottled();
  slow.latency_seconds = 1e-3;
  net::Fabric fabric(2, slow);
  net::WindowId win = fabric.RegisterWindow(1, kThreads * kPerThread * 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t value = t * kPerThread + i;
        ASSERT_TRUE(
            fabric.Put(0, 1, win, value * 8, &value, sizeof(value)).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(fabric.Flush(0).ok());
  for (int64_t v = 0; v < kThreads * kPerThread; ++v) {
    int64_t got;
    std::memcpy(&got, fabric.WindowData(1, win) + v * 8, sizeof(got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(fabric.bytes_sent(0), kThreads * kPerThread * 8);
  EXPECT_EQ(fabric.msgs_sent(0), kThreads * kPerThread);
  EXPECT_GT(fabric.charged_seconds(0), 0);
  // The unthrottled Flush recorded the busy-clock residue as stall
  // without sleeping it off.
  EXPECT_GT(fabric.stall_seconds(0), 0);
}

TEST(FabricTest, TwoSidedSendRecv) {
  net::Fabric fabric(2, Unthrottled());
  std::vector<uint8_t> msg = {1, 2, 3};
  ASSERT_TRUE(fabric.Send(0, 1, msg).ok());
  std::vector<uint8_t> got;
  ASSERT_TRUE(fabric.Recv(1, 0, &got).ok());
  EXPECT_EQ(got, msg);
}

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, AllreduceSumsAcrossRanks) {
  const int world = GetParam();
  std::vector<std::vector<int64_t>> results(world);
  Status st = mpi::MpiRuntime::Run(
      world, Unthrottled(), [&](mpi::Communicator& comm) -> Status {
        std::vector<int64_t> v = {comm.rank() + 1, 10};
        MODULARIS_RETURN_NOT_OK(comm.AllreduceSum(&v));
        results[comm.rank()] = v;
        // A second collective immediately after must not see stale state.
        std::vector<int64_t> w = {1};
        MODULARIS_RETURN_NOT_OK(comm.AllreduceSum(&w));
        if (w[0] != comm.size()) {
          return Status::Internal("second allreduce corrupted");
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  int64_t expected = world * (world + 1) / 2;
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(results[r][0], expected);
    EXPECT_EQ(results[r][1], 10 * world);
  }
}

TEST_P(CollectiveTest, AllgatherReturnsEveryRanksVector) {
  const int world = GetParam();
  Status st = mpi::MpiRuntime::Run(
      world, Unthrottled(), [&](mpi::Communicator& comm) -> Status {
        std::vector<std::vector<int64_t>> all;
        MODULARIS_RETURN_NOT_OK(comm.AllgatherI64({comm.rank() * 100}, &all));
        if (static_cast<int>(all.size()) != comm.size()) {
          return Status::Internal("wrong world size");
        }
        for (int r = 0; r < comm.size(); ++r) {
          if (all[r] != std::vector<int64_t>{r * 100}) {
            return Status::Internal("wrong payload");
          }
        }
        return Status::OK();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_P(CollectiveTest, AllgatherBytes) {
  const int world = GetParam();
  Status st = mpi::MpiRuntime::Run(
      world, Unthrottled(), [&](mpi::Communicator& comm) -> Status {
        std::vector<uint8_t> mine(static_cast<size_t>(comm.rank()) + 1,
                                  static_cast<uint8_t>(comm.rank()));
        std::vector<std::vector<uint8_t>> all;
        MODULARIS_RETURN_NOT_OK(comm.AllgatherBytes(mine, &all));
        for (int r = 0; r < comm.size(); ++r) {
          if (all[r].size() != static_cast<size_t>(r) + 1) {
            return Status::Internal("wrong size");
          }
        }
        return Status::OK();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

INSTANTIATE_TEST_SUITE_P(Worlds, CollectiveTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(CollectiveTest, BarrierSynchronizesAllRanks) {
  const int world = 4;
  std::atomic<int> arrived{0};
  std::atomic<bool> violated{false};
  Status st = mpi::MpiRuntime::Run(
      world, Unthrottled(), [&](mpi::Communicator& comm) -> Status {
        arrived.fetch_add(1);
        MODULARIS_RETURN_NOT_OK(comm.Barrier());
        if (arrived.load() != world) violated = true;
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(violated.load());
}

TEST(CollectiveTest, RankFailurePropagates) {
  Status st = mpi::MpiRuntime::Run(
      2, Unthrottled(), [&](mpi::Communicator& comm) -> Status {
        if (comm.rank() == 1) return Status::Aborted("rank 1 died");
        return Status::OK();
      });
  EXPECT_EQ(st.code(), StatusCode::kAborted);
}

TEST(WindowTest, OneSidedExchangeAcrossRanks) {
  // Every rank writes its rank id into every peer's window at its slot.
  const int world = 4;
  Status st = mpi::MpiRuntime::Run(
      world, Unthrottled(), [&](mpi::Communicator& comm) -> Status {
        MODULARIS_ASSIGN_OR_RETURN(net::WindowId win,
                                   comm.WinAllocate(world * 8));
        for (int peer = 0; peer < comm.size(); ++peer) {
          int64_t value = comm.rank();
          MODULARIS_RETURN_NOT_OK(
              comm.WinPut(peer, win, comm.rank() * 8, &value, 8));
        }
        MODULARIS_RETURN_NOT_OK(comm.WinFlush());
        MODULARIS_RETURN_NOT_OK(comm.Barrier());
        for (int r = 0; r < comm.size(); ++r) {
          int64_t got;
          std::memcpy(&got, comm.WinData(win) + r * 8, 8);
          if (got != r) return Status::Internal("bad window content");
        }
        return comm.WinFree(win);
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(MpiBroadcastTest, ReplicatesUnionEverywhere) {
  const int world = 3;
  std::vector<size_t> sizes(world);
  Status st = mpi::MpiRuntime::Run(
      world, Unthrottled(), [&](mpi::Communicator& comm) -> Status {
        RowVectorPtr local = RowVector::Make(KeyValueSchema());
        for (int i = 0; i <= comm.rank(); ++i) {
          RowWriter w = local->AppendRow();
          w.SetInt64(0, comm.rank());
          w.SetInt64(1, i);
        }
        ExecContext ctx;
        ctx.rank = comm.rank();
        ctx.world = comm.size();
        ctx.comm = &comm;
        MpiBroadcast bcast(std::make_unique<CollectionSource>(
                               std::vector<RowVectorPtr>{local}),
                           KeyValueSchema());
        MODULARIS_RETURN_NOT_OK(bcast.Open(&ctx));
        Tuple t;
        if (!bcast.Next(&t)) return Status::Internal("no broadcast output");
        sizes[comm.rank()] = t[0].collection()->size();
        return bcast.Close();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(sizes[r], 6u);  // 1 + 2 + 3 rows from the three ranks
  }
}

TEST(MpiBroadcastTest, NextBatchServesUnionNatively) {
  const int world = 3;
  std::vector<size_t> sizes(world);
  std::vector<StatsRegistry> rank_stats(world);
  Status st = mpi::MpiRuntime::Run(
      world, Unthrottled(), [&](mpi::Communicator& comm) -> Status {
        RowVectorPtr local = RowVector::Make(KeyValueSchema());
        for (int i = 0; i <= comm.rank(); ++i) {
          RowWriter w = local->AppendRow();
          w.SetInt64(0, comm.rank());
          w.SetInt64(1, i);
        }
        ExecContext ctx;
        ctx.rank = comm.rank();
        ctx.world = comm.size();
        ctx.comm = &comm;
        ctx.stats = &rank_stats[comm.rank()];
        MpiBroadcast bcast(std::make_unique<CollectionSource>(
                               std::vector<RowVectorPtr>{local}),
                           KeyValueSchema());
        MODULARIS_RETURN_NOT_OK(bcast.Open(&ctx));
        RowBatch batch;
        size_t rows = 0;
        while (bcast.NextBatch(&batch)) rows += batch.size();
        MODULARIS_RETURN_NOT_OK(bcast.status());
        sizes[comm.rank()] = rows;
        return bcast.Close();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(sizes[r], 6u);  // 1 + 2 + 3 rows from the three ranks
    EXPECT_EQ(rank_stats[r].GetCounter(
                  "vectorized.default_adapter.MpiBroadcast"),
              0)
        << "MpiBroadcast fell back to the default batch adapter";
  }
}

TEST(CompressionTest, RoundTripsKeyValuePairs) {
  const int F = 6, P = 29;
  for (int64_t key : {int64_t{0}, int64_t{63}, int64_t{1} << 20,
                      (int64_t{1} << 29) - 1}) {
    for (int64_t value : {int64_t{0}, int64_t{12345},
                          (int64_t{1} << 29) - 1}) {
      int64_t pid = key & ((1 << F) - 1);
      int64_t word = CompressKV(key, value, F, P);
      int64_t k, v;
      DecompressKV(word, pid, F, P, &k, &v);
      EXPECT_EQ(k, key);
      EXPECT_EQ(v, value);
    }
  }
}

TEST(MpiExchangeTest, RejectsCompressionOfNonKvSchemas) {
  Status st = mpi::MpiRuntime::Run(
      1, Unthrottled(), [&](mpi::Communicator& comm) -> Status {
        Schema wide({Field::I64("k"), Field::I64("v"), Field::I64("w")});
        RowVectorPtr data = RowVector::Make(wide);
        ExecContext ctx;
        ctx.comm = &comm;
        RowVectorPtr hist = RowVector::Make(HistogramSchema());
        for (int i = 0; i < 16; ++i) hist->AppendRow().SetInt64(0, 0);
        MpiExchange::Options xopts;
        xopts.spec = RadixSpec{4, 0, RadixHash::kIdentity};
        xopts.compress = true;
        MpiExchange mx(
            std::make_unique<CollectionSource>(
                std::vector<RowVectorPtr>{data}),
            std::make_unique<CollectionSource>(
                std::vector<RowVectorPtr>{hist}),
            std::make_unique<CollectionSource>(
                std::vector<RowVectorPtr>{hist}),
            wide, xopts);
        MODULARIS_RETURN_NOT_OK(mx.Open(&ctx));
        Tuple t;
        if (mx.Next(&t)) return Status::Internal("should have failed");
        return mx.status();
      });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace modularis
