/// \file bench_e2e.cc
/// End-to-end benchmark: the paper's TPC-H (Fig. 8) and KV join /
/// group-by / join-sequence (Figs. 9-11) workloads, one workload per
/// process, each a closed loop in which one client runs a fixed operation
/// list back to back.
///
///   bench_e2e --list
///   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
///
/// A run
///  1. sets up kSetups times (data generation + platform preparation; setup_s is
///     the median) and computes the expected results outside any timing;
///  2. runs untimed warm-up passes, at least one pass and one second;
///  3. runs untraced passes (stats = nullptr) for S seconds, and at least
///     enough of them for 100 op samples — every end-to-end metric comes
///     from these;
///  4. with --trace 1, runs two traced passes that hand each op its own
///     StatsRegistry and time the planner from outside — every per-layer
///     metric comes from these.
/// Every op result is checked. The run prints one JSON object on stdout
/// (metric values by name; --list gives names and units) and exits 1 if
/// any op failed or returned a wrong result.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "planner/lower.h"
#include "planner/passes.h"
#include "plans/distributed_groupby.h"
#include "plans/distributed_join.h"
#include "plans/join_sequence.h"
#include "tpch/queries.h"

#ifndef MODULARIS_BUILD_TYPE
#define MODULARIS_BUILD_TYPE "unknown"
#endif

namespace modularis::e2e {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Metric catalogue (what --list prints; BENCHMARK.json must agree)
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  /// A modelled cost (fabric NIC clocks, blob-store latency): reported
  /// beside wall time, never part of it.
  bool model;
};

const MetricSpec kEndToEnd[] = {
    {"setup_s", "s", false},      {"stream_s", "s", false},
    {"query_p50_s", "s", false},  {"query_p90_s", "s", false},
    {"cpu_s", "s", false},        {"peak_rss_mb", "MiB", false},
};

const MetricSpec kPerLayer[] = {
    {"planner.plan_s", "s", false},
    {"storage.prepare_s", "s", false},
    {"storage.scan_s", "s", false},
    {"storage.spill_bytes", "bytes", false},
    {"storage.spill_chunks", "count", false},
    {"storage.spill_passes", "count", false},
    {"exec.rank_s", "s", false},
    {"suboperators.partition_s", "s", false},
    {"suboperators.build_probe_s", "s", false},
    {"suboperators.aggregate_s", "s", false},
    {"mpi.histogram_s", "s", false},
    {"mpi.exchange_s", "s", false},
    {"mpi.bytes_sent", "bytes", false},
    {"mpi.msgs_sent", "count", false},
    {"mpi.overlap_ratio", "ratio", false},
    {"net.charged_s", "s", true},
    {"net.stall_s", "s", false},
    {"serverless.s3_exchange_s", "s", false},
    {"serverless.s3_requests", "count", false},
    {"serverless.s3_bytes", "bytes", false},
    {"serverless.s3_charged_s", "s", true},
    {"model_io_s", "s", true},
    {"core.mem_peak_bytes", "bytes", false},
    {"core.serial_fallbacks", "count", false},
    {"core.bc_fallbacks", "count", false},
    {"core.retry_attempts", "count", false},
    {"tpch.driver_tail_s", "s", false},
    {"unattributed_s", "s", false},
    {"unattributed_share", "ratio", false},
    {"trace.overhead", "ratio", false},
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Every workload pins this many engine threads (the executors split them
/// across ranks), so runs do not depend on the host's core count.
constexpr int kThreads = 4;
/// p90 needs at least ten samples beyond it.
constexpr size_t kMinSamples = 100;
constexpr int kTracedPasses = 2;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
constexpr double kWarmupSeconds = 1.0;

// kv_shuffle sizes (rows per relation, all 1:1 keyed except the group-by).
constexpr int64_t kKvJoinRows = 2'000'000;
constexpr int64_t kKvGroupRows = 2'000'000;
constexpr int64_t kKvGroupKeys = 125'000;
constexpr int64_t kKvSeqRows = 1'000'000;

// The fabric model stays throttled on every RDMA workload: its
// non-overlapped wait is real wall time.

tpch::TpchRunOptions Rdma(int world) {
  return tpch::TpchRunOptions::Rdma(world);
}

tpch::TpchRunOptions UnthrottledLambda(int world) {
  // The blob/lambda model sleeps 10-100x the engine's CPU work; its cost
  // is reported as model_io_s instead of hiding every engine change.
  tpch::TpchRunOptions o = tpch::TpchRunOptions::Lambda(world);
  o.lambda.throttle = false;
  o.storage.throttle = false;
  return o;
}

tpch::TpchRunOptions BudgetedDisc(int world) {
  tpch::TpchRunOptions o = tpch::TpchRunOptions::Rdma(world, /*with_disc=*/true);
  o.storage.throttle = false;
  o.exec.memory_limit_bytes = 512 * 1024;
  return o;
}

struct Workload {
  const char* name;
  int world;  // ranks or serverless workers
  /// TPC-H platform configuration; null for the KV workload.
  tpch::TpchRunOptions (*tpch_options)(int world);
  double scale_factor;  // TPC-H only
};

const Workload kWorkloads[] = {
    {"tpch_rdma", 4, Rdma, 0.25},
    {"tpch_scaleup", 1, Rdma, 0.15},
    {"tpch_serverless", 4, UnthrottledLambda, 0.2},
    {"kv_shuffle", 4, nullptr, 0},
    {"tpch_spill", 4, BudgetedDisc, 0.05},
};

const int kTpchQueries[] = {1, 3, 4, 6, 12, 14, 18, 19};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Linear-interpolation quantile of a non-empty sample.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Same tolerance as tests/test_tpch_queries.cc. Empty when equal.
std::string CompareRows(const RowVector& expected, const RowVector& actual) {
  if (expected.size() != actual.size()) {
    return "rows " + std::to_string(actual.size()) + " != expected " +
           std::to_string(expected.size());
  }
  if (!expected.schema().Equals(actual.schema())) {
    return "schema " + actual.schema().ToString();
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    RowRef e = expected.row(i);
    RowRef a = actual.row(i);
    for (size_t c = 0; c < expected.schema().num_fields(); ++c) {
      const int col = static_cast<int>(c);
      bool same = true;
      switch (expected.schema().field(c).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          same = e.GetInt32(col) == a.GetInt32(col);
          break;
        case AtomType::kInt64:
          same = e.GetInt64(col) == a.GetInt64(col);
          break;
        case AtomType::kFloat64: {
          const double x = e.GetFloat64(col), y = a.GetFloat64(col);
          same = std::fabs(x - y) <=
                 1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
          break;
        }
        case AtomType::kString:
          same = e.GetString(col) == a.GetString(col);
          break;
      }
      if (!same) {
        return "row " + std::to_string(i) + " col " + std::to_string(c) +
               " differs";
      }
    }
  }
  return "";
}

/// Order-independent summary of an all-i64 result: row count and
/// per-column sums.
struct KvSummary {
  size_t rows = 0;
  std::vector<int64_t> sums;

  bool operator==(const KvSummary&) const = default;
};

KvSummary Summarize(const RowVector& rows) {
  KvSummary s;
  s.rows = rows.size();
  s.sums.assign(rows.schema().num_fields(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    RowRef r = rows.row(i);
    for (size_t c = 0; c < s.sums.size(); ++c) {
      s.sums[c] += r.GetInt64(static_cast<int>(c));
    }
  }
  return s;
}

std::string CheckKv(const RowVector& out, const KvSummary& expected) {
  KvSummary got = Summarize(out);
  if (got == expected) return "";
  return "rows " + std::to_string(got.rows) + " (expected " +
         std::to_string(expected.rows) + ") or column sums differ";
}

/// ⟨key, value⟩ fragments dealt round-robin over `world` ranks.
std::vector<RowVectorPtr> Deal(int world, const std::vector<int64_t>& keys,
                               const std::vector<int64_t>& values) {
  std::vector<RowVectorPtr> frags;
  for (int r = 0; r < world; ++r) {
    frags.push_back(RowVector::Make(KeyValueSchema()));
    frags.back()->Reserve(keys.size() / world + 1);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    RowWriter w = frags[i % world]->AppendRow();
    w.SetInt64(0, keys[i]);
    w.SetInt64(1, values[i]);
  }
  return frags;
}

/// A relation whose keys are a seeded permutation of [0, rows) and whose
/// values are key + `offset`: joins between two of them are 1:1.
std::vector<RowVectorPtr> KeyedRelation(int world, int64_t rows,
                                        int64_t offset, std::mt19937_64* rng) {
  std::vector<int64_t> keys(rows);
  for (int64_t i = 0; i < rows; ++i) keys[i] = i;
  std::shuffle(keys.begin(), keys.end(), *rng);
  std::vector<int64_t> values(rows);
  for (int64_t i = 0; i < rows; ++i) values[i] = keys[i] + offset;
  return Deal(world, keys, values);
}

int64_t SumColumn(const std::vector<RowVectorPtr>& frags, int col) {
  int64_t sum = 0;
  for (const RowVectorPtr& f : frags) {
    for (size_t i = 0; i < f->size(); ++i) sum += f->row(i).GetInt64(col);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Prepared workload: data, the op list and each op's check
// ---------------------------------------------------------------------------

struct Op {
  std::string name;
  std::function<Result<RowVectorPtr>(StatsRegistry*)> run;
  /// Builds every rank's plan the way `run` does, without running it;
  /// the traced passes time it from outside as planner.plan_s.
  std::function<Status()> plan;
  /// Empty when `result` is correct, else what is wrong with it.
  std::function<std::string(const RowVector& result)> check;
  /// Untimed; drops what the op left in the object store.
  std::function<void()> cleanup = [] {};
};

/// Deletes every object the setup did not put. The store stands in for
/// remote storage (S3, NFS): S3 exchange and result objects are never
/// deleted by the engine, and keeping them would grow the process by the
/// same amount every pass, so peak_rss_mb would rise with the number of
/// passes a run fits into its measuring time.
void DropRunObjects(storage::BlobStore* store,
                    const std::set<std::string>& base_keys) {
  for (const std::string& key : store->List("")) {
    if (base_keys.count(key) == 0) store->Delete(key);
  }
}

struct Prepared {
  tpch::TpchRunOptions opts;
  tpch::TpchTables db;
  std::unique_ptr<tpch::TpchContext> ctx;
  std::map<int, RowVectorPtr> expected;
  std::set<std::string> base_keys;  // store contents after setup

  std::vector<RowVectorPtr> join_inner, join_outer, groupby;
  std::vector<std::vector<RowVectorPtr>> sequence;

  std::vector<Op> ops;
  std::vector<double> setup_s;    // per setup repetition
  std::vector<double> prepare_s;  // PrepareTpch share of each setup
};

/// The logical plan → Optimize → SplitAtDriver → LowerRankPlan × world
/// chain RunTpchQuery performs before it executes.
Status PlanTpch(int query, const Prepared& p) {
  MODULARIS_ASSIGN_OR_RETURN(planner::LogicalPlanPtr root,
                             tpch::TpchLogicalPlan(query));
  planner::PlannerOptions popts;
  popts.catalog = tpch::TpchCatalog(p.ctx->table_rows);
  root = planner::Optimize(std::move(root), popts, nullptr);
  MODULARIS_ASSIGN_OR_RETURN(planner::DriverSpec driver,
                             planner::SplitAtDriver(root));
  for (int r = 0; r < p.opts.world_size; ++r) {
    planner::LoweringContext lctx;
    switch (p.opts.platform) {
      case tpch::Platform::kRdma:
        lctx.scan_leaf = planner::ScanLeafKind::kMemoryRows;
        break;
      case tpch::Platform::kRdmaDisc:
      case tpch::Platform::kLambda:
        lctx.scan_leaf = planner::ScanLeafKind::kColumnFile;
        break;
      case tpch::Platform::kS3Select:
        lctx.scan_leaf = planner::ScanLeafKind::kS3Select;
        break;
    }
    lctx.serverless = p.opts.platform == tpch::Platform::kLambda ||
                      p.opts.platform == tpch::Platform::kS3Select;
    lctx.fused = p.opts.exec.enable_fusion;
    lctx.world = p.opts.world_size;
    lctx.exec = p.opts.exec;
    lctx.tag = "plan-timing";
    PipelinePlan plan;
    MODULARIS_RETURN_NOT_OK(
        planner::LowerRankPlan(*driver.rank_root, &plan, &lctx).status());
  }
  return Status::OK();
}

Status SetupTpch(const Workload& w, uint64_t seed, Prepared* p) {
  p->opts = w.tpch_options(w.world);
  p->opts.exec.num_threads = kThreads;
  tpch::GeneratorOptions gen;
  gen.scale_factor = w.scale_factor;
  gen.seed = seed;
  for (int i = 0; i < kSetups; ++i) {
    // Free the previous repetition first so every repetition allocates
    // the same way.
    p->ctx.reset();
    p->db = tpch::TpchTables();
    const auto start = Clock::now();
    p->db = tpch::GenerateTpch(gen);
    const auto generated = Clock::now();
    MODULARIS_ASSIGN_OR_RETURN(p->ctx, tpch::PrepareTpch(p->db, p->opts));
    p->setup_s.push_back(SecondsSince(start));
    p->prepare_s.push_back(SecondsSince(generated));
  }
  for (const std::string& key : p->ctx->store->List("")) {
    p->base_keys.insert(key);
  }
  for (int q : kTpchQueries) {
    MODULARIS_ASSIGN_OR_RETURN(p->expected[q],
                               tpch::RunReferenceQuery(q, p->db));
    Op op;
    op.name = "Q" + std::to_string(q);
    op.run = [p, q](StatsRegistry* stats) {
      return tpch::RunTpchQuery(q, *p->ctx, p->opts, stats);
    };
    op.plan = [p, q] { return PlanTpch(q, *p); };
    op.check = [p, q](const RowVector& result) {
      return CompareRows(*p->expected.at(q), result);
    };
    op.cleanup = [p] { DropRunObjects(p->ctx->store.get(), p->base_keys); };
    p->ops.push_back(std::move(op));
  }
  return Status::OK();
}

Status SetupKv(const Workload& w, uint64_t seed, Prepared* p) {
  for (int i = 0; i < kSetups; ++i) {
    p->join_inner.clear();
    p->join_outer.clear();
    p->groupby.clear();
    p->sequence.clear();
    const auto start = Clock::now();
    std::mt19937_64 rng(seed);
    p->join_inner = KeyedRelation(w.world, kKvJoinRows, 7, &rng);
    p->join_outer = KeyedRelation(w.world, kKvJoinRows, 11, &rng);
    std::uniform_int_distribution<int64_t> key_dist(0, kKvGroupKeys - 1);
    std::uniform_int_distribution<int64_t> value_dist(1, 1000);
    std::vector<int64_t> keys(kKvGroupRows), values(kKvGroupRows);
    for (int64_t r = 0; r < kKvGroupRows; ++r) {
      keys[r] = key_dist(rng);
      values[r] = value_dist(rng);
    }
    p->groupby = Deal(w.world, keys, values);
    for (int rel = 0; rel < 3; ++rel) {
      p->sequence.push_back(KeyedRelation(w.world, kKvSeqRows, 3 + rel, &rng));
    }
    p->setup_s.push_back(SecondsSince(start));
    p->prepare_s.push_back(0);  // no platform preparation step
  }

  // Expected results: 1:1 joins keep every row once, so the output's
  // column sums are the inputs' column sums.
  const KvSummary join{static_cast<size_t>(kKvJoinRows),
                       {SumColumn(p->join_inner, 0),
                        SumColumn(p->join_inner, 1),
                        SumColumn(p->join_outer, 1)}};
  std::vector<bool> seen(kKvGroupKeys, false);
  KvSummary group{0, {0, SumColumn(p->groupby, 1)}};
  for (const RowVectorPtr& f : p->groupby) {
    for (size_t i = 0; i < f->size(); ++i) {
      const int64_t k = f->row(i).GetInt64(0);
      if (!seen[k]) {
        seen[k] = true;
        ++group.rows;
        group.sums[0] += k;
      }
    }
  }
  KvSummary sequence{static_cast<size_t>(kKvSeqRows),
                     {SumColumn(p->sequence[0], 0)}};
  for (const auto& rel : p->sequence) {
    sequence.sums.push_back(SumColumn(rel, 1));
  }

  ExecOptions exec;
  exec.num_threads = kThreads;
  const int world = w.world;
  // What each rank's plan factory does inside the run.
  auto build_ranks = [world](const std::function<SubOpPtr()>& build) {
    for (int r = 0; r < world; ++r) build();
    return Status::OK();
  };
  auto add = [p](std::string name, auto run, auto plan, KvSummary expected) {
    Op op;
    op.name = std::move(name);
    op.run = std::move(run);
    op.plan = std::move(plan);
    op.check = [expected](const RowVector& r) { return CheckKv(r, expected); };
    p->ops.push_back(std::move(op));
  };

  plans::DistJoinOptions join_opts;
  join_opts.world_size = world;
  join_opts.exec = exec;
  add(
      "join",
      [p, join_opts](StatsRegistry* stats) {
        return plans::RunDistributedJoin(p->join_inner, p->join_outer,
                                         join_opts, stats);
      },
      [build_ranks, join_opts] {
        return build_ranks([&] { return plans::BuildJoinRankPlan(join_opts); });
      },
      join);

  plans::DistGroupByOptions group_opts;
  group_opts.world_size = world;
  group_opts.exec = exec;
  add(
      "groupby",
      [p, group_opts](StatsRegistry* stats) {
        return plans::RunDistributedGroupBy(p->groupby, group_opts, stats);
      },
      [build_ranks, group_opts] {
        return build_ranks(
            [&] { return plans::BuildGroupByRankPlan(group_opts); });
      },
      group);

  plans::JoinSequenceOptions seq_opts;
  seq_opts.world_size = world;
  seq_opts.exec = exec;
  const int num_joins = static_cast<int>(p->sequence.size()) - 1;
  for (bool optimized : {false, true}) {
    add(
        optimized ? "joinseq_optimized" : "joinseq_naive",
        [p, seq_opts, optimized](StatsRegistry* stats) {
          return plans::RunJoinSequence(p->sequence, seq_opts, optimized,
                                        stats);
        },
        [build_ranks, seq_opts, num_joins, optimized] {
          return build_ranks([&] {
            return optimized
                       ? plans::BuildOptimizedSequenceRankPlan(num_joins,
                                                               seq_opts)
                       : plans::BuildNaiveSequenceRankPlan(num_joins,
                                                           seq_opts);
          });
        },
        sequence);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  /// Runs `op` once; returns its wall time, or a negative value when it
  /// failed or returned a wrong result (counted, and reported on stderr).
  double Run(const Op& op, StatsRegistry* stats) {
    ++attempted;
    const auto start = Clock::now();
    Result<RowVectorPtr> result = op.run(stats);
    const double wall = SecondsSince(start);
    std::string error = result.ok() ? op.check(**result)
                                    : result.status().ToString();
    op.cleanup();
    if (error.empty()) return wall;
    ++failed;
    std::fprintf(stderr, "bench_e2e: %s failed: %s\n", op.name.c_str(),
                 error.c_str());
    return -1;
  }
};

/// Per-layer metrics of one traced pass.
std::map<std::string, double> TracedPass(const Prepared& p, Tally* tally) {
  StatsRegistry sum;
  double wall = 0, plan = 0, mem_peak = 0, overlap = 0;
  int overlap_ops = 0;
  for (const Op& op : p.ops) {
    const auto plan_start = Clock::now();
    Status planned = op.plan();
    plan += SecondsSince(plan_start);
    ++tally->attempted;
    if (!planned.ok()) {
      ++tally->failed;
      std::fprintf(stderr, "bench_e2e: planning %s failed: %s\n",
                   op.name.c_str(), planned.ToString().c_str());
    }
    StatsRegistry stats;
    wall += std::max(0.0, tally->Run(op, &stats));
    mem_peak = std::max(
        mem_peak, static_cast<double>(stats.GetCounter("mem.peak_bytes")));
    auto times = stats.times();
    if (times.count("exchange.overlap_ratio") != 0) {
      overlap += times["exchange.overlap_ratio"];
      ++overlap_ops;
    }
    sum.Merge(stats);
  }

  auto t = [&sum](std::initializer_list<const char*> keys) {
    double v = 0;
    for (const char* k : keys) v += sum.GetTime(k);
    return v;
  };
  auto c = [&sum](const char* key) {
    return static_cast<double>(sum.GetCounter(key));
  };
  auto c_prefix = [&sum](const std::string& prefix) {
    double v = 0;
    for (const auto& [k, n] : sum.counters()) {
      if (k.compare(0, prefix.size(), prefix) == 0) v += static_cast<double>(n);
    }
    return v;
  };

  std::map<std::string, double> m;
  m["planner.plan_s"] = plan;
  m["storage.prepare_s"] = Median(p.prepare_s);
  m["storage.scan_s"] = t({"phase.scan"});
  m["storage.spill_bytes"] = c("spill.bytes");
  m["storage.spill_chunks"] = c("spill.chunks");
  m["storage.spill_passes"] = c("spill.passes");
  m["exec.rank_s"] = t({"phase.rank_total", "phase.worker_total"});
  m["suboperators.partition_s"] =
      t({"phase.local_histogram", "phase.local_partition", "phase.partition"});
  m["suboperators.build_probe_s"] = t({"phase.build_probe"});
  m["suboperators.aggregate_s"] = t({"phase.reduce_by_key", "phase.reduce"});
  m["mpi.histogram_s"] = t({"phase.global_histogram"});
  m["mpi.exchange_s"] = t({"phase.network_partition", "phase.broadcast"});
  m["mpi.bytes_sent"] = c("net.bytes_sent");
  m["mpi.msgs_sent"] = c("net.msgs_sent");
  // Ops without fabric traffic count as fully overlapped, as in the engine.
  m["mpi.overlap_ratio"] = overlap_ops > 0 ? overlap / overlap_ops : 1.0;
  m["net.charged_s"] = t({"net.charged_seconds"});
  m["net.stall_s"] = t({"net.stall_seconds"});
  m["serverless.s3_exchange_s"] = t({"phase.s3_exchange"});
  m["serverless.s3_requests"] = c("s3.requests");
  m["serverless.s3_bytes"] = c("s3.bytes");
  m["serverless.s3_charged_s"] = t({"s3.charged"});
  m["model_io_s"] = m["net.charged_s"] + m["serverless.s3_charged_s"];
  m["core.mem_peak_bytes"] = mem_peak;
  m["core.serial_fallbacks"] = c_prefix("parallel.serial_fallback.");
  m["core.bc_fallbacks"] = c_prefix("expr.bc_fallback.");
  m["core.retry_attempts"] = c("retry.attempts");
  m["tpch.driver_tail_s"] =
      t({"phase.driver_merge", "phase.driver_topk", "phase.driver_sort"});
  // Not clamped: overlapping phases show up as a negative remainder.
  m["unattributed_s"] = wall - plan - m["exec.rank_s"] -
                        m["tpch.driver_tail_s"];
  m["unattributed_share"] = wall > 0 ? m["unattributed_s"] / wall : 0;
  m["traced_stream_s"] = wall;
  return m;
}

void PrintMetrics(const char* key, const MetricSpec* specs, size_t n,
                  const std::map<std::string, double>& values) {
  std::printf(", \"%s\": {", key);
  for (size_t i = 0; i < n; ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", specs[i].name,
                values.at(specs[i].name));
  }
  std::printf("}");
}

void PrintSpecs(const char* key, const MetricSpec* specs, size_t n) {
  std::printf(", \"%s\": [", key);
  for (size_t i = 0; i < n; ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"model\": %s}",
                i == 0 ? "" : ", ", specs[i].name, specs[i].unit,
                specs[i].model ? "true" : "false");
  }
  std::printf("]");
}

int List() {
  std::printf("{\"workloads\": [");
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", kWorkloads[i].name);
  }
  std::printf("]");
  PrintSpecs("end_to_end", kEndToEnd, std::size(kEndToEnd));
  PrintSpecs("per_layer", kPerLayer, std::size(kPerLayer));
  std::printf("}\n");
  return 0;
}

int Run(const Workload& w, uint64_t seed, double seconds, bool trace) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc < kThreads) {
    std::fprintf(stderr,
                 "bench_e2e: warning: %ld online cores < %d engine threads; "
                 "parallel-layer numbers are not comparable\n",
                 nproc, kThreads);
  }

  Prepared p;
  Status st = w.tpch_options != nullptr ? SetupTpch(w, seed, &p)
                                         : SetupKv(w, seed, &p);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_e2e: setup failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  // Warm-up: at least one pass and one second. The set-up above is
  // single-threaded, and on a virtual machine the idle vCPUs take up to a
  // second of load before they run at full speed.
  Tally tally;
  const auto warmup_start = Clock::now();
  do {
    for (const Op& op : p.ops) tally.Run(op, nullptr);
  } while (SecondsSince(warmup_start) < kWarmupSeconds);

  const size_t min_passes = (kMinSamples + p.ops.size() - 1) / p.ops.size();
  std::vector<double> op_walls, pass_walls;
  const double cpu_start = CpuSeconds();
  const auto loop_start = Clock::now();
  while (pass_walls.size() < min_passes || SecondsSince(loop_start) < seconds) {
    double pass = 0;
    for (const Op& op : p.ops) {
      const double wall = tally.Run(op, nullptr);
      if (wall < 0) continue;
      op_walls.push_back(wall);
      pass += wall;
    }
    pass_walls.push_back(pass);
  }
  const double cpu = (CpuSeconds() - cpu_start) / pass_walls.size();

  std::map<std::string, double> e2e;
  e2e["setup_s"] = Median(p.setup_s);
  e2e["stream_s"] = Median(pass_walls);
  e2e["query_p50_s"] = op_walls.empty() ? 0 : Quantile(op_walls, 0.5);
  e2e["query_p90_s"] = op_walls.empty() ? 0 : Quantile(op_walls, 0.9);
  e2e["cpu_s"] = cpu;
  e2e["peak_rss_mb"] = PeakRssMiB();  // before the traced passes

  std::map<std::string, double> layers;
  if (trace) {
    std::vector<std::map<std::string, double>> passes;
    for (int i = 0; i < kTracedPasses; ++i) {
      passes.push_back(TracedPass(p, &tally));
    }
    for (const auto& [name, unused] : passes.front()) {
      std::vector<double> v;
      for (const auto& pass : passes) v.push_back(pass.at(name));
      layers[name] = Median(v);
    }
    layers["trace.overhead"] =
        e2e["stream_s"] > 0 ? layers["traced_stream_s"] / e2e["stream_s"] - 1
                            : 0;
  }

  std::printf(
      "{\"workload\": \"%s\", \"attempted\": %lld, \"failed\": %lld, "
      "\"conditions\": {\"nproc\": %ld, \"threads\": %d, \"seed\": %llu, "
      "\"scale_factor\": %g, \"world\": %d, \"platform\": \"%s\", "
      "\"memory_limit_bytes\": %zu, \"build_type\": \"%s\", "
      "\"seconds\": %g, \"passes\": %zu, \"op_samples\": %zu}",
      w.name, static_cast<long long>(tally.attempted),
      static_cast<long long>(tally.failed), nproc, kThreads,
      static_cast<unsigned long long>(seed), w.scale_factor, w.world,
      w.tpch_options != nullptr ? tpch::PlatformName(p.opts.platform) : "kv",
      p.opts.exec.memory_limit_bytes, MODULARIS_BUILD_TYPE, seconds,
      pass_walls.size(), op_walls.size());
  PrintMetrics("end_to_end", kEndToEnd, std::size(kEndToEnd), e2e);
  if (trace) PrintMetrics("per_layer", kPerLayer, std::size(kPerLayer), layers);
  std::printf("}\n");
  return tally.failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --list\n"
               "       bench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") return List();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value) != 0;
    } else {
      return Usage();
    }
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) return Run(w, seed, seconds, trace);
  }
  std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
               workload.c_str());
  return Usage();
}

}  // namespace
}  // namespace modularis::e2e

int main(int argc, char** argv) { return modularis::e2e::Main(argc, argv); }
