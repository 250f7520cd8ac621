#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mpi/tcp_exchange.h"
#include "planner/explain.h"
#include "planner/passes.h"
#include "plans/common.h"
#include "plans/distributed_groupby.h"
#include "plans/distributed_join.h"
#include "plans/join_sequence.h"
#include "suboperators/agg_ops.h"
#include "suboperators/join_ops.h"
#include "suboperators/partition_ops.h"
#include "tpch/queries.h"

/// \file test_planner.cc
/// The planner's correctness contract, in three layers:
///
///  1. Differential oracle: the eight TPC-H queries are built BOTH ways —
///     through the planner (logical plan → Optimize → split → lower,
///     driver tail included) and through a frozen verbatim copy of the
///     pre-planner hand-wired rank plans and driver tail, sharing only
///     the executors — and the results are compared byte-for-byte on all
///     three transports (MPI, TCP, S3) at 1 and 4 intra-rank threads.
///     Q19 is the documented exception: the cost-based join-order pass
///     builds on part' instead of lineitem' (measured no worse), which
///     permutes the float summation order, so Q19 is compared
///     value-tolerantly instead.
///  2. Golden plan shapes: EXPLAIN output (logical, optimized, split at
///     the driver, the rank plan's physical DAG per transport and the
///     driver's physical DAG) diffed against snapshots under
///     tests/golden/planner/, plus the physical DAGs of the Fig. 3–5 KV
///     plans (kv_*.txt). Regenerate with MODULARIS_UPDATE_GOLDENS=1.
///  3. Seeded fuzz: random logical plans over the TPC-H tables lowered
///     twice — optimized and directly from the authored tree — must
///     produce byte-identical results.

namespace modularis::tpch {
namespace {

using plans::MaybeScan;
using plans::ParamItem;

const TpchTables& Db() {
  static TpchTables db = [] {
    GeneratorOptions gen;
    gen.scale_factor = 0.01;  // ~60k lineitem rows
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

void ExpectBytesEqual(const RowVector& expected, const RowVector& actual) {
  ASSERT_TRUE(expected.schema().Equals(actual.schema()))
      << expected.schema().ToString() << " vs " << actual.schema().ToString();
  ASSERT_EQ(expected.size(), actual.size());
  if (expected.byte_size() == actual.byte_size() &&
      std::memcmp(expected.data(), actual.data(), expected.byte_size()) == 0) {
    return;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (std::memcmp(expected.row(i).data(), actual.row(i).data(),
                    expected.row_size()) != 0) {
      FAIL() << "first byte difference at row " << i << " of "
             << expected.size();
    }
  }
  FAIL() << "byte difference outside row payloads";
}

/// Value-tolerant comparison for the one query whose float summation
/// order legitimately changes under the join-order pass (Q19).
void ExpectRowsNear(const RowVector& expected, const RowVector& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_TRUE(expected.schema().Equals(actual.schema()));
  for (size_t i = 0; i < expected.size(); ++i) {
    RowRef e = expected.row(i);
    RowRef a = actual.row(i);
    for (size_t c = 0; c < expected.schema().num_fields(); ++c) {
      int col = static_cast<int>(c);
      switch (expected.schema().field(c).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          ASSERT_EQ(e.GetInt32(col), a.GetInt32(col));
          break;
        case AtomType::kInt64:
          ASSERT_EQ(e.GetInt64(col), a.GetInt64(col));
          break;
        case AtomType::kFloat64: {
          double x = e.GetFloat64(col), y = a.GetFloat64(col);
          double tol = 1e-6 * std::max({1.0, std::fabs(x), std::fabs(y)});
          ASSERT_NEAR(x, y, tol);
          break;
        }
        case AtomType::kString:
          ASSERT_EQ(e.GetString(col), a.GetString(col));
          break;
      }
    }
  }
}

// ===========================================================================
// Frozen pre-planner plan builders — the differential oracle.
//
// This is a verbatim copy of the hand-wired plan construction that lived
// in tpch/queries.cc before the planner existed (commit b329e91), with its
// own copy of the pre-planner driver tail (RunTpchQuerySpec below); only
// the executors are shared, through tpch::TpchGather. It must NOT be
// "cleaned up" or routed through planner code: its whole value is being
// an independent record of the plan shapes — rank plans and driver tail —
// the lowering must reproduce.
// ===========================================================================

/// Per-rank plan-construction environment. Copied per rank; the exchange
/// counter yields identical (shared) object prefixes on every rank.
struct Env {
  Platform platform = Platform::kRdma;
  bool fused = true;
  int world = 1;
  ExecOptions exec;
  std::string tag;  // unique per query run; prefixes exchange objects
  int next_exchange = 0;

  bool serverless() const {
    return platform == Platform::kLambda || platform == Platform::kS3Select;
  }
};

/// A hand-built query = per-rank plan builder + driver-side merge
/// specification.
struct TpchQuerySpec {
  /// Builds the rank plan; returns the name of the pipeline holding the
  /// rank's partial result.
  std::function<std::string(PipelinePlan*, Env*)> build;
  Schema rank_schema;

  bool merge = false;                 // re-aggregate at the driver
  std::vector<int> merge_keys;
  std::vector<AggSpec> merge_aggs;
  ExprPtr merge_having;               // HAVING over the merged groups
  std::vector<MapOutput> finalize;    // over merged schema (empty = id)
  Schema final_schema;
  std::vector<SortKey> sort;
  size_t limit = 0;
};

/// Runs `spec` on the prepared context: executor fan-out, partial
/// collection, then the pre-planner driver tail — merge → finalize →
/// sort/top-k.
Result<RowVectorPtr> RunTpchQuerySpec(const TpchQuerySpec& spec,
                                      const TpchContext& ctx,
                                      const TpchRunOptions& opts,
                                      StatsRegistry* stats) {
  static std::atomic<int> run_counter{0};
  Env env;
  env.platform = opts.platform;
  env.fused = opts.exec.enable_fusion;
  env.world = opts.world_size;
  env.exec = opts.exec;
  env.tag = "hand-run" + std::to_string(run_counter.fetch_add(1));

  // Rank/worker plan factory: identical structure on every rank.
  RankPlanFactory make_plan = [&spec, env](int) -> Result<SubOpPtr> {
    Env rank_env = env;  // fresh exchange counter per construction
    auto plan = std::make_unique<PipelinePlan>();
    std::string out = spec.build(plan.get(), &rank_env);
    plan->SetOutput(plan->MakeRef(out));
    return SubOpPtr(std::move(plan));
  };

  // Collect rank partials at the driver. Declared before the merge
  // operators below so the budget outlives their ScopedCharges.
  MemoryBudget driver_budget(opts.exec.memory_limit_bytes);
  ExecContext driver;
  driver.options = opts.exec;
  driver.stats = stats;
  driver.budget = &driver_budget;
  driver.spill_store = ctx.store.get();
  std::optional<storage::BlobClient> driver_client;
  if (env.serverless()) {
    driver.blob = &driver_client.emplace(ctx.store.get(), opts.storage, -1);
  }
  SubOpPtr gather =
      TpchGather(ctx, opts, env.tag, std::move(make_plan), spec.rank_schema);
  auto partials =
      plans::DrainCollections(gather.get(), &driver, spec.rank_schema);
  if (!partials.ok()) return partials.status();

  // Driver-side merge: ReduceByKey → finalize Map → Sort/TopK (the RK /
  // TK / MR tail of Figs. 6 and 7). A keyless merge is a Reduce, which
  // emits its identity row when every rank's partial is empty — one row,
  // as SQL gives for an aggregate without GROUP BY.
  SubOpPtr cur = std::make_unique<CollectionSource>(
      std::vector<RowVectorPtr>{partials.value()});
  Schema cur_schema = spec.rank_schema;
  if (spec.merge && spec.merge_keys.empty()) {
    auto r = std::make_unique<Reduce>(std::move(cur), spec.merge_aggs,
                                      cur_schema, "phase.driver_merge");
    cur_schema = r->out_schema();
    cur = std::move(r);
  } else if (spec.merge) {
    auto rk = std::make_unique<ReduceByKey>(std::move(cur), spec.merge_keys,
                                            spec.merge_aggs, cur_schema,
                                            "phase.driver_merge");
    cur_schema = rk->out_schema();
    cur = std::move(rk);
  } else {
    cur = std::make_unique<RowScan>(std::move(cur));
  }
  if (spec.merge_having != nullptr) {
    cur = std::make_unique<Filter>(std::move(cur), spec.merge_having);
  }
  if (!spec.finalize.empty()) {
    cur = std::make_unique<MapOp>(std::move(cur), spec.final_schema,
                                  spec.finalize);
    cur_schema = spec.final_schema;
  }
  if (!spec.sort.empty()) {
    if (spec.limit > 0) {
      cur = std::make_unique<TopK>(std::move(cur), spec.sort, spec.limit,
                                   cur_schema, "phase.driver_topk");
    } else {
      cur = std::make_unique<SortOp>(std::move(cur), spec.sort, cur_schema,
                                     "phase.driver_sort");
    }
  }
  auto mr = std::make_unique<MaterializeRowVector>(std::move(cur),
                                                   spec.final_schema);
  return plans::DrainCollections(mr.get(), &driver, spec.final_schema);
}

enum TableId { kLineitem = 0, kOrdersT = 1, kCustomerT = 2, kPartT = 3 };

Schema FullSchema(int table) {
  switch (table) {
    case kLineitem: return LineitemSchema();
    case kOrdersT: return OrdersSchema();
    case kCustomerT: return CustomerSchema();
    case kPartT: return PartSchema();
  }
  return Schema();
}

int Log2Exact(int v) {
  int bits = 0;
  while ((1 << bits) < v) ++bits;
  return bits;
}

/// One base-table leaf: projection (full-schema indices), residual filter
/// (over the pruned schema) and row-group pruning ranges (full-schema
/// column indices).
struct TableInput {
  int table = kLineitem;
  std::vector<int> cols;
  ExprPtr filter;
  std::vector<ColumnFileScan::Range> ranges;
};

Schema PrunedSchema(const TableInput& in) {
  return FullSchema(in.table).Select(in.cols);
}

void AddInput(PipelinePlan* plan, const std::string& name,
              const TableInput& in, const Env& env) {
  Schema pruned = PrunedSchema(in);
  SubOpPtr rows;
  switch (env.platform) {
    case Platform::kRdma: {
      std::vector<MapOutput> prune;
      prune.reserve(in.cols.size());
      for (int c : in.cols) prune.push_back(MapOutput::Pass(c));
      // The fragment is a column table; the frozen leaf keeps its
      // wide-row scan by converting it first.
      rows = std::make_unique<MapOp>(
          std::make_unique<RowScan>(
              std::make_unique<TableToCollection>(ParamItem(in.table))),
          pruned, std::move(prune));
      break;
    }
    case Platform::kRdmaDisc:
    case Platform::kLambda: {
      ColumnFileScan::Options copts;
      copts.projection = in.cols;
      copts.ranges = in.ranges;
      rows = std::make_unique<ColumnScan>(
          std::make_unique<ColumnFileScan>(ParamItem(in.table), copts),
          pruned);
      break;
    }
    case Platform::kS3Select: {
      S3SelectRequest::Options sopts;
      sopts.object_schema = FullSchema(in.table);
      sopts.projection = in.cols;
      sopts.predicate = in.filter;
      plan->Add(name, std::make_unique<TableToCollection>(
                          std::make_unique<S3SelectRequest>(
                              ParamItem(in.table), std::move(sopts))));
      return;
    }
  }
  if (in.filter != nullptr) {
    rows = std::make_unique<Filter>(std::move(rows), in.filter);
  }
  plan->Add(name, std::make_unique<MaterializeRowVector>(std::move(rows),
                                                         pruned));
}

std::string AddExchange(PipelinePlan* plan, Env* env, const std::string& src,
                        const Schema& schema, int key_col) {
  std::string base = src + "_x" + std::to_string(env->next_exchange++);
  if (!env->serverless() && env->exec.tcp_exchange) {
    TcpExchange::Options topts;
    topts.key_col = key_col;
    plan->Add(base + "_tcp",
              std::make_unique<TcpExchange>(
                  MaybeScan(plan->MakeRef(src), env->fused), schema, topts));
    return base + "_tcp";
  }
  if (!env->serverless()) {
    RadixSpec spec;
    spec.bits = env->exec.network_radix_bits;
    spec.shift = 0;
    spec.hash = RadixHash::kMix;
    plan->Add(base + "_lh",
              std::make_unique<LocalHistogram>(
                  MaybeScan(plan->MakeRef(src), env->fused), spec, key_col));
    plan->Add(base + "_mh",
              std::make_unique<MpiHistogram>(plan->MakeRef(base + "_lh")));
    MpiExchange::Options xopts;
    xopts.spec = spec;
    xopts.key_col = key_col;
    xopts.compress = false;
    xopts.buffer_bytes = env->exec.exchange_buffer_bytes;
    plan->Add(base + "_mx",
              std::make_unique<MpiExchange>(
                  MaybeScan(plan->MakeRef(src), env->fused),
                  plan->MakeRef(base + "_lh"),
                  plan->MakeRef(base + "_mh"), schema, xopts));
    return base + "_mx";
  }
  RadixSpec spec;
  spec.bits = Log2Exact(env->world);
  spec.shift = 0;
  spec.hash = RadixHash::kMix;
  plan->Add(base + "_part",
            std::make_unique<GroupByPid>(std::make_unique<PartitionOp>(
                MaybeScan(plan->MakeRef(src), env->fused), spec, key_col)));
  S3Exchange::Options xopts;
  xopts.prefix = env->tag + "/" + base;
  xopts.write_combining = env->exec.s3_write_combining;
  xopts.retry = env->exec.retry;
  plan->Add(base + "_s3x", std::make_unique<S3Exchange>(
                               plan->MakeRef(base + "_part"), xopts));
  return base + "_s3x";
}

SubOpPtr ExchangedData(PipelinePlan* plan, const Env& env,
                       const std::string& xpipe, int param_item) {
  if (!env.serverless()) {
    return MaybeScan(ParamItem(param_item), env.fused);
  }
  ColumnFileScan::Options copts;
  copts.retry = env.exec.retry;
  return std::make_unique<TableToCollection>(std::make_unique<ColumnFileScan>(
      plan->MakeRef(xpipe), std::move(copts)));
}

void AddJoin(PipelinePlan* plan, Env* env, const std::string& out_name,
             const std::string& build_pipe, const Schema& build_schema,
             int build_key, const std::string& probe_pipe,
             const Schema& probe_schema, int probe_key, JoinType type,
             ExprPtr post_filter, std::vector<MapOutput> post,
             const Schema& out_schema, bool allow_broadcast = true) {
  auto finish = [&](SubOpPtr cur) -> SubOpPtr {
    if (post_filter != nullptr) {
      cur = std::make_unique<Filter>(std::move(cur), post_filter);
    }
    if (!post.empty()) {
      cur = std::make_unique<MapOp>(std::move(cur), out_schema,
                                    std::move(post));
    }
    return std::make_unique<MaterializeRowVector>(std::move(cur),
                                                  out_schema);
  };

  if (!env->serverless() && env->exec.broadcast_small_build &&
      allow_broadcast) {
    std::string bx = build_pipe + "_bcast" +
                     std::to_string(env->next_exchange++);
    plan->Add(bx, std::make_unique<MpiBroadcast>(
                      MaybeScan(plan->MakeRef(build_pipe), env->fused),
                      build_schema));
    auto bp = std::make_unique<BuildProbe>(
        MaybeScan(plan->MakeRef(bx), env->fused),
        MaybeScan(plan->MakeRef(probe_pipe), env->fused), build_schema,
        probe_schema, build_key, probe_key, type);
    plan->Add(out_name, finish(std::move(bp)));
    return;
  }

  std::string xb = AddExchange(plan, env, build_pipe, build_schema, build_key);
  std::string xp = AddExchange(plan, env, probe_pipe, probe_schema, probe_key);

  if (!env->serverless()) {
    auto nested = finish(std::make_unique<BuildProbe>(
        MaybeScan(ParamItem(1), env->fused), MaybeScan(ParamItem(3),
                                                       env->fused),
        build_schema, probe_schema, build_key, probe_key, type));
    auto zip = std::make_unique<Zip>(plan->MakeRef(xb), plan->MakeRef(xp));
    auto nm = std::make_unique<NestedMap>(std::move(zip), std::move(nested));
    plan->Add(out_name, std::make_unique<MaterializeRowVector>(
                            MaybeScan(std::move(nm), env->fused), out_schema));
    return;
  }
  auto bp = std::make_unique<BuildProbe>(
      ExchangedData(plan, *env, xb, 1), ExchangedData(plan, *env, xp, 3),
      build_schema, probe_schema, build_key, probe_key, type);
  plan->Add(out_name, finish(std::move(bp)));
}

void AddShuffledAgg(PipelinePlan* plan, Env* env, const std::string& out_name,
                    const std::string& in_pipe, const Schema& in_schema,
                    int key_col, std::vector<int> keys,
                    std::vector<AggSpec> aggs, ExprPtr having,
                    const Schema& out_schema) {
  std::string x = AddExchange(plan, env, in_pipe, in_schema, key_col);

  auto finish = [&](SubOpPtr records) -> SubOpPtr {
    SubOpPtr cur = std::make_unique<ReduceByKey>(
        std::move(records), std::move(keys), std::move(aggs), in_schema);
    if (having != nullptr) {
      cur = std::make_unique<Filter>(std::move(cur), having);
    }
    return std::make_unique<MaterializeRowVector>(std::move(cur),
                                                  out_schema);
  };

  if (!env->serverless()) {
    auto nested = finish(MaybeScan(ParamItem(1), env->fused));
    auto nm = std::make_unique<NestedMap>(plan->MakeRef(x),
                                          std::move(nested));
    plan->Add(out_name, std::make_unique<MaterializeRowVector>(
                            MaybeScan(std::move(nm), env->fused), out_schema));
    return;
  }
  plan->Add(out_name, finish(ExchangedData(plan, *env, x, 1)));
}

void AddLocalAgg(PipelinePlan* plan, const Env& env,
                 const std::string& out_name, const std::string& in_pipe,
                 const Schema& in_schema, std::vector<int> keys,
                 std::vector<AggSpec> aggs, const Schema& out_schema) {
  SubOpPtr cur = std::make_unique<ReduceByKey>(
      MaybeScan(plan->MakeRef(in_pipe), env.fused), std::move(keys),
      std::move(aggs), in_schema);
  plan->Add(out_name, std::make_unique<MaterializeRowVector>(std::move(cur),
                                                             out_schema));
}

AggSpec SumF64(ExprPtr in, std::string name) {
  return AggSpec{AggKind::kSum, std::move(in), std::move(name),
                 AtomType::kFloat64};
}
AggSpec SumI64(ExprPtr in, std::string name) {
  return AggSpec{AggKind::kSum, std::move(in), std::move(name),
                 AtomType::kInt64};
}
AggSpec CountStar(std::string name) {
  return AggSpec{AggKind::kCount, nullptr, std::move(name), AtomType::kInt64};
}

int32_t Date(int y, int m, int d) { return DateFromYMD(y, m, d); }

TpchQuerySpec MakeQ1() {
  TpchQuerySpec q;
  const int32_t cutoff = Date(1998, 12, 1) - 90;
  q.build = [cutoff](PipelinePlan* plan, Env* env) -> std::string {
    TableInput li;
    li.table = kLineitem;
    li.cols = {l::kReturnFlag, l::kLineStatus, l::kQuantity,
               l::kExtendedPrice, l::kDiscount, l::kTax, l::kShipDate};
    li.filter = ex::Le(ex::Col(6), ex::Lit(int64_t{cutoff}));
    li.ranges = {{l::kShipDate, INT32_MIN, cutoff}};
    AddInput(plan, "li", li, *env);
    ExprPtr disc_price =
        ex::Mul(ex::Col(3), ex::Sub(ex::Lit(1.0), ex::Col(4)));
    ExprPtr charge = ex::Mul(ex::Mul(ex::Col(3), ex::Sub(ex::Lit(1.0),
                                                         ex::Col(4))),
                             ex::Add(ex::Lit(1.0), ex::Col(5)));
    AddLocalAgg(plan, *env, "agg", "li", PrunedSchema(li), {0, 1},
                {SumF64(ex::Col(2), "sum_qty"),
                 SumF64(ex::Col(3), "sum_base_price"),
                 SumF64(disc_price, "sum_disc_price"),
                 SumF64(charge, "sum_charge"), CountStar("count_order")},
                Q1OutSchema());
    return "agg";
  };
  q.rank_schema = Q1OutSchema();
  q.merge = true;
  q.merge_keys = {0, 1};
  q.merge_aggs = {SumF64(ex::Col(2), "sum_qty"),
                  SumF64(ex::Col(3), "sum_base_price"),
                  SumF64(ex::Col(4), "sum_disc_price"),
                  SumF64(ex::Col(5), "sum_charge"),
                  SumI64(ex::Col(6), "count_order")};
  q.final_schema = Q1OutSchema();
  q.sort = {{0, false}, {1, false}};
  return q;
}

TpchQuerySpec MakeQ3() {
  TpchQuerySpec q;
  const int32_t date = Date(1995, 3, 15);
  q.build = [date](PipelinePlan* plan, Env* env) -> std::string {
    TableInput cust;
    cust.table = kCustomerT;
    cust.cols = {c::kCustKey, c::kMktSegment};
    cust.filter = ex::Eq(ex::Col(1), ex::Lit(std::string("BUILDING")));
    AddInput(plan, "cust", cust, *env);

    TableInput ord;
    ord.table = kOrdersT;
    ord.cols = {o::kOrderKey, o::kCustKey, o::kOrderDate, o::kShipPriority};
    ord.filter = ex::Lt(ex::Col(2), ex::Lit(int64_t{date}));
    ord.ranges = {{o::kOrderDate, INT32_MIN, date - 1}};
    AddInput(plan, "ord", ord, *env);

    TableInput li;
    li.table = kLineitem;
    li.cols = {l::kOrderKey, l::kExtendedPrice, l::kDiscount, l::kShipDate};
    li.filter = ex::Gt(ex::Col(3), ex::Lit(int64_t{date}));
    li.ranges = {{l::kShipDate, date + 1, INT32_MAX}};
    AddInput(plan, "li", li, *env);

    Schema j1({Field::I64("o_orderkey"), Field::Date("o_orderdate"),
               Field::I32("o_shippriority")});
    AddJoin(plan, env, "j1", "cust", PrunedSchema(cust), 0, "ord",
            PrunedSchema(ord), 1, JoinType::kInner, nullptr,
            {MapOutput::Pass(2), MapOutput::Pass(4), MapOutput::Pass(5)},
            j1);

    Schema j2({Field::I64("l_orderkey"), Field::Date("o_orderdate"),
               Field::I32("o_shippriority"), Field::F64("revenue")});
    AddJoin(plan, env, "j2", "j1", j1, 0, "li", PrunedSchema(li), 0,
            JoinType::kInner, nullptr,
            {MapOutput::Pass(0), MapOutput::Pass(1), MapOutput::Pass(2),
             MapOutput::Compute(ex::Mul(
                 ex::Col(4), ex::Sub(ex::Lit(1.0), ex::Col(5))))},
            j2);

    AddLocalAgg(plan, *env, "agg", "j2", j2, {0, 1, 2},
                {SumF64(ex::Col(3), "revenue")},
                Schema({Field::I64("l_orderkey"), Field::Date("o_orderdate"),
                        Field::I32("o_shippriority"),
                        Field::F64("revenue")}));
    return "agg";
  };
  q.rank_schema = Schema({Field::I64("l_orderkey"),
                          Field::Date("o_orderdate"),
                          Field::I32("o_shippriority"),
                          Field::F64("revenue")});
  q.merge = true;
  q.merge_keys = {0, 1, 2};
  q.merge_aggs = {SumF64(ex::Col(3), "revenue")};
  q.finalize = {MapOutput::Pass(0), MapOutput::Pass(3), MapOutput::Pass(1),
                MapOutput::Pass(2)};
  q.final_schema = Q3OutSchema();
  q.sort = {{1, true}, {2, false}, {0, false}};
  q.limit = 10;
  return q;
}

TpchQuerySpec MakeQ4() {
  TpchQuerySpec q;
  const int32_t lo = Date(1993, 7, 1);
  const int32_t hi = AddMonths(lo, 3);
  q.build = [lo, hi](PipelinePlan* plan, Env* env) -> std::string {
    TableInput ord;
    ord.table = kOrdersT;
    ord.cols = {o::kOrderKey, o::kOrderDate, o::kOrderPriority};
    ord.filter = ex::And(ex::Ge(ex::Col(1), ex::Lit(int64_t{lo})),
                         ex::Lt(ex::Col(1), ex::Lit(int64_t{hi})));
    ord.ranges = {{o::kOrderDate, lo, hi - 1}};
    AddInput(plan, "ord", ord, *env);

    TableInput li;
    li.table = kLineitem;
    li.cols = {l::kOrderKey, l::kCommitDate, l::kReceiptDate};
    li.filter = ex::Lt(ex::Col(1), ex::Col(2));
    AddInput(plan, "li", li, *env);

    Schema semi_out = PrunedSchema(ord);
    AddJoin(plan, env, "semi", "li", PrunedSchema(li), 0, "ord",
            PrunedSchema(ord), 0, JoinType::kSemi, nullptr, {}, semi_out,
            /*allow_broadcast=*/false);  // build side is lineitem-sized

    AddLocalAgg(plan, *env, "agg", "semi", semi_out, {2},
                {CountStar("order_count")}, Q4OutSchema());
    return "agg";
  };
  q.rank_schema = Q4OutSchema();
  q.merge = true;
  q.merge_keys = {0};
  q.merge_aggs = {SumI64(ex::Col(1), "order_count")};
  q.final_schema = Q4OutSchema();
  q.sort = {{0, false}};
  return q;
}

TpchQuerySpec MakeQ6() {
  TpchQuerySpec q;
  const int32_t lo = Date(1994, 1, 1);
  const int32_t hi = Date(1995, 1, 1);
  q.build = [lo, hi](PipelinePlan* plan, Env* env) -> std::string {
    TableInput li;
    li.table = kLineitem;
    li.cols = {l::kShipDate, l::kDiscount, l::kQuantity, l::kExtendedPrice};
    li.filter = ex::And(
        {ex::Ge(ex::Col(0), ex::Lit(int64_t{lo})),
         ex::Lt(ex::Col(0), ex::Lit(int64_t{hi})),
         ex::Ge(ex::Col(1), ex::Lit(0.05 - 1e-9)),
         ex::Le(ex::Col(1), ex::Lit(0.07 + 1e-9)),
         ex::Lt(ex::Col(2), ex::Lit(24.0))});
    li.ranges = {{l::kShipDate, lo, hi - 1}};
    AddInput(plan, "li", li, *env);
    AddLocalAgg(plan, *env, "agg", "li", PrunedSchema(li), {},
                {SumF64(ex::Mul(ex::Col(3), ex::Col(1)), "revenue")},
                Q6OutSchema());
    return "agg";
  };
  q.rank_schema = Q6OutSchema();
  q.merge = true;
  q.merge_aggs = {SumF64(ex::Col(0), "revenue")};
  q.final_schema = Q6OutSchema();
  return q;
}

TpchQuerySpec MakeQ12() {
  TpchQuerySpec q;
  const int32_t lo = Date(1994, 1, 1);
  const int32_t hi = Date(1995, 1, 1);
  q.build = [lo, hi](PipelinePlan* plan, Env* env) -> std::string {
    TableInput li;
    li.table = kLineitem;
    li.cols = {l::kOrderKey, l::kShipMode, l::kShipDate, l::kCommitDate,
               l::kReceiptDate};
    li.filter = ex::And(
        {ex::InStr(ex::Col(1), {"MAIL", "SHIP"}),
         ex::Lt(ex::Col(3), ex::Col(4)), ex::Lt(ex::Col(2), ex::Col(3)),
         ex::Ge(ex::Col(4), ex::Lit(int64_t{lo})),
         ex::Lt(ex::Col(4), ex::Lit(int64_t{hi}))});
    li.ranges = {{l::kReceiptDate, lo, hi - 1}};
    AddInput(plan, "li", li, *env);

    TableInput ord;
    ord.table = kOrdersT;
    ord.cols = {o::kOrderKey, o::kOrderPriority};
    AddInput(plan, "ord", ord, *env);

    Schema j({Field::Str("l_shipmode", 10), Field::I64("high"),
              Field::I64("low")});
    ExprPtr is_high =
        ex::InStr(ex::Col(6), {"1-URGENT", "2-HIGH"});
    AddJoin(plan, env, "j", "li", PrunedSchema(li), 0, "ord",
            PrunedSchema(ord), 0, JoinType::kInner, nullptr,
            {MapOutput::Pass(1),
             MapOutput::Compute(ex::If(is_high, ex::Lit(int64_t{1}),
                                       ex::Lit(int64_t{0}))),
             MapOutput::Compute(ex::If(is_high, ex::Lit(int64_t{0}),
                                       ex::Lit(int64_t{1})))},
            j);

    AddLocalAgg(plan, *env, "agg", "j", j, {0},
                {SumI64(ex::Col(1), "high_line_count"),
                 SumI64(ex::Col(2), "low_line_count")},
                Q12OutSchema());
    return "agg";
  };
  q.rank_schema = Q12OutSchema();
  q.merge = true;
  q.merge_keys = {0};
  q.merge_aggs = {SumI64(ex::Col(1), "high_line_count"),
                  SumI64(ex::Col(2), "low_line_count")};
  q.final_schema = Q12OutSchema();
  q.sort = {{0, false}};
  return q;
}

TpchQuerySpec MakeQ14() {
  TpchQuerySpec q;
  const int32_t lo = Date(1995, 9, 1);
  const int32_t hi = AddMonths(lo, 1);
  q.build = [lo, hi](PipelinePlan* plan, Env* env) -> std::string {
    TableInput li;
    li.table = kLineitem;
    li.cols = {l::kPartKey, l::kExtendedPrice, l::kDiscount, l::kShipDate};
    li.filter = ex::And(ex::Ge(ex::Col(3), ex::Lit(int64_t{lo})),
                        ex::Lt(ex::Col(3), ex::Lit(int64_t{hi})));
    li.ranges = {{l::kShipDate, lo, hi - 1}};
    AddInput(plan, "li", li, *env);

    TableInput part;
    part.table = kPartT;
    part.cols = {p::kPartKey, p::kType};
    AddInput(plan, "part", part, *env);

    ExprPtr rev = ex::Mul(ex::Col(1), ex::Sub(ex::Lit(1.0), ex::Col(2)));
    Schema j({Field::F64("promo_rev"), Field::F64("rev")});
    AddJoin(plan, env, "j", "li", PrunedSchema(li), 0, "part",
            PrunedSchema(part), 0, JoinType::kInner, nullptr,
            {MapOutput::Compute(ex::If(ex::Like(ex::Col(5), "PROMO%"), rev,
                                       ex::Lit(0.0))),
             MapOutput::Compute(rev)},
            j);

    AddLocalAgg(plan, *env, "agg", "j", j, {},
                {SumF64(ex::Col(0), "promo"), SumF64(ex::Col(1), "total")},
                Schema({Field::F64("promo"), Field::F64("total")}));
    return "agg";
  };
  q.rank_schema = Schema({Field::F64("promo"), Field::F64("total")});
  q.merge = true;
  q.merge_aggs = {SumF64(ex::Col(0), "promo"), SumF64(ex::Col(1), "total")};
  q.finalize = {MapOutput::Compute(
      ex::Mul(ex::Lit(100.0), ex::Div(ex::Col(0), ex::Col(1))))};
  q.final_schema = Q14OutSchema();
  return q;
}

TpchQuerySpec MakeQ18() {
  TpchQuerySpec q;
  q.build = [](PipelinePlan* plan, Env* env) -> std::string {
    TableInput li;
    li.table = kLineitem;
    li.cols = {l::kOrderKey, l::kQuantity};
    AddInput(plan, "li", li, *env);

    Schema big({Field::I64("o_orderkey"), Field::F64("sum_qty")});
    AddShuffledAgg(plan, env, "big", "li", PrunedSchema(li), 0, {0},
                   {SumF64(ex::Col(1), "sum_qty")},
                   ex::Gt(ex::Col(1), ex::Lit(300.0)), big);

    TableInput ord;
    ord.table = kOrdersT;
    ord.cols = {o::kOrderKey, o::kCustKey, o::kOrderDate, o::kTotalPrice};
    AddInput(plan, "ord", ord, *env);

    Schema j1({Field::I64("o_custkey"), Field::I64("o_orderkey"),
               Field::Date("o_orderdate"), Field::F64("o_totalprice"),
               Field::F64("sum_qty")});
    AddJoin(plan, env, "j1", "big", big, 0, "ord", PrunedSchema(ord), 0,
            JoinType::kInner, nullptr,
            {MapOutput::Pass(3), MapOutput::Pass(0), MapOutput::Pass(4),
             MapOutput::Pass(5), MapOutput::Pass(1)},
            j1);

    TableInput cust;
    cust.table = kCustomerT;
    cust.cols = {c::kCustKey, c::kName};
    AddInput(plan, "cust", cust, *env);

    AddJoin(plan, env, "j2", "cust", PrunedSchema(cust), 0, "j1", j1, 0,
            JoinType::kInner, nullptr,
            {MapOutput::Pass(1), MapOutput::Pass(0), MapOutput::Pass(3),
             MapOutput::Pass(4), MapOutput::Pass(5), MapOutput::Pass(6)},
            Q18OutSchema());
    return "j2";
  };
  q.rank_schema = Q18OutSchema();
  q.final_schema = Q18OutSchema();
  q.sort = {{4, true}, {3, false}, {2, false}};
  q.limit = 100;
  return q;
}

TpchQuerySpec MakeQ19() {
  TpchQuerySpec q;
  q.build = [](PipelinePlan* plan, Env* env) -> std::string {
    TableInput li;
    li.table = kLineitem;
    li.cols = {l::kPartKey, l::kQuantity, l::kExtendedPrice, l::kDiscount,
               l::kShipMode, l::kShipInstruct};
    li.filter = ex::And(
        {ex::InStr(ex::Col(4), {"AIR", "REG AIR"}),
         ex::Eq(ex::Col(5), ex::Lit(std::string("DELIVER IN PERSON"))),
         ex::Ge(ex::Col(1), ex::Lit(1.0)), ex::Le(ex::Col(1),
                                                  ex::Lit(30.0))});
    AddInput(plan, "li", li, *env);

    TableInput part;
    part.table = kPartT;
    part.cols = {p::kPartKey, p::kBrand, p::kSize, p::kContainer};
    part.filter = ex::And(
        {ex::InStr(ex::Col(1), {"Brand#12", "Brand#23", "Brand#34"}),
         ex::Ge(ex::Col(2), ex::Lit(int64_t{1})),
         ex::Le(ex::Col(2), ex::Lit(int64_t{15}))});
    AddInput(plan, "part", part, *env);

    auto branch = [](const char* brand,
                     std::vector<std::string> containers, double qlo,
                     double qhi, int64_t smax) {
      return ex::And({ex::Eq(ex::Col(7), ex::Lit(std::string(brand))),
                      ex::InStr(ex::Col(9), std::move(containers)),
                      ex::Ge(ex::Col(1), ex::Lit(qlo)),
                      ex::Le(ex::Col(1), ex::Lit(qhi)),
                      ex::Le(ex::Col(8), ex::Lit(smax))});
    };
    ExprPtr predicate = ex::Or(
        {branch("Brand#12", {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1,
                11, 5),
         branch("Brand#23", {"MED BAG", "MED BOX", "MED PKG", "MED PACK"},
                10, 20, 10),
         branch("Brand#34", {"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20,
                30, 15)});

    Schema j({Field::F64("rev")});
    AddJoin(plan, env, "j", "li", PrunedSchema(li), 0, "part",
            PrunedSchema(part), 0, JoinType::kInner, predicate,
            {MapOutput::Compute(
                ex::Mul(ex::Col(2), ex::Sub(ex::Lit(1.0), ex::Col(3))))},
            j);

    AddLocalAgg(plan, *env, "agg", "j", j, {},
                {SumF64(ex::Col(0), "revenue")}, Q19OutSchema());
    return "agg";
  };
  q.rank_schema = Q19OutSchema();
  q.merge = true;
  q.merge_aggs = {SumF64(ex::Col(0), "revenue")};
  q.final_schema = Q19OutSchema();
  return q;
}

TpchQuerySpec HandSpec(int query) {
  switch (query) {
    case 1: return MakeQ1();
    case 3: return MakeQ3();
    case 4: return MakeQ4();
    case 6: return MakeQ6();
    case 12: return MakeQ12();
    case 14: return MakeQ14();
    case 18: return MakeQ18();
    case 19: return MakeQ19();
  }
  std::abort();
}

// ===========================================================================
// 1. Differential oracle: planner output vs frozen hand-built plans.
// ===========================================================================

const int kQueries[] = {1, 3, 4, 6, 12, 14, 18, 19};

void RunOracle(const TpchRunOptions& opts) {
  auto ctx = PrepareTpch(Db(), opts);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  for (int threads : {1, 4}) {
    TpchRunOptions run = opts;
    run.exec.num_threads = threads;
    for (int q : kQueries) {
      SCOPED_TRACE("Q" + std::to_string(q) + " threads=" +
                   std::to_string(threads));
      StatsRegistry hand_stats;
      auto hand = RunTpchQuerySpec(HandSpec(q), **ctx, run, &hand_stats);
      ASSERT_TRUE(hand.ok()) << hand.status().ToString();
      StatsRegistry plan_stats;
      auto lowered = RunTpchQuery(q, **ctx, run, &plan_stats);
      ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
      if (q == 19) {
        // The join-order pass builds Q19 on part' instead of lineitem'
        // (smaller side; measured no worse). That permutes the float
        // summation order, so equality here is value-tolerant.
        ExpectRowsNear(**hand, **lowered);
      } else {
        ExpectBytesEqual(**hand, **lowered);
      }
    }
  }
}

TEST(PlannerOracle, MpiExchangeByteIdentical) {
  TpchRunOptions opts = Unthrottled(TpchRunOptions::Rdma(4));
  opts.exec.network_radix_bits = 4;
  RunOracle(opts);
}

TEST(PlannerOracle, TcpExchangeByteIdentical) {
  TpchRunOptions opts = Unthrottled(TpchRunOptions::Rdma(4));
  opts.exec.network_radix_bits = 4;
  opts.exec.tcp_exchange = true;
  RunOracle(opts);
}

TEST(PlannerOracle, S3ExchangeByteIdentical) {
  TpchRunOptions opts = Unthrottled(TpchRunOptions::Lambda(4));
  opts.exec.network_radix_bits = 4;
  RunOracle(opts);
}

TEST(PlannerPasses, JoinOrderDecisionsOnTpch) {
  planner::Catalog catalog = TpchCatalog({60000, 15000, 1500, 2000});
  auto optimize = [&](int q, StatsRegistry* stats) {
    auto root = TpchLogicalPlan(q);
    ASSERT_TRUE(root.ok());
    planner::PlannerOptions popts;
    popts.catalog = catalog;
    planner::Optimize(root.value(), popts, stats);
  };
  // Q19: the one hand-tuned order the cost model beats — build on the
  // filtered part side (~70 rows) instead of filtered lineitem (~2500).
  StatsRegistry q19;
  optimize(19, &q19);
  EXPECT_EQ(q19.GetCounter("planner.passes.joinorder.swaps"), 1);
  // Q4's semi join must keep its authored sides (semantically fixed) and
  // must not be cleared for broadcast: the build side is lineitem-sized.
  StatsRegistry q4;
  optimize(4, &q4);
  EXPECT_EQ(q4.GetCounter("planner.passes.joinorder.swaps"), 0);
  EXPECT_EQ(q4.GetCounter("planner.passes.joinorder.broadcast_allowed"), 0);
  // Q1 has no joins; the pass must not invent any activity.
  StatsRegistry q1;
  optimize(1, &q1);
  EXPECT_EQ(q1.GetCounter("planner.passes.joinorder.swaps"), 0);
  EXPECT_EQ(q1.GetCounter("planner.passes.joinorder.bailouts"), 0);
}

// ===========================================================================
// 2. Golden plan-shape snapshots (EXPLAIN diffs).
// ===========================================================================

std::string GoldenPath(int q) {
  return std::string(MODULARIS_SOURCE_DIR) + "/tests/golden/planner/q" +
         std::to_string(q) + ".txt";
}

std::string RenderPlanShapes(int q, const planner::Catalog& catalog) {
  auto root = TpchLogicalPlan(q);
  if (!root.ok()) return "";
  std::string text;
  text += "== logical ==\n";
  text += planner::ExplainLogical(*root.value());
  planner::PlannerOptions popts;
  popts.catalog = catalog;
  planner::LogicalPlanPtr opt = planner::Optimize(root.value(), popts,
                                                  nullptr);
  text += "== optimized ==\n";
  text += planner::ExplainLogical(*opt, &catalog);
  auto split = planner::SplitAtDriver(opt);
  if (!split.ok()) return "";
  text += "== split ==\n";
  text += planner::ExplainLogical(*split.value().root, &catalog);

  struct Config {
    const char* title;
    planner::ScanLeafKind leaf;
    bool serverless;
    bool tcp;
  };
  const Config configs[] = {
      {"mpi", planner::ScanLeafKind::kMemoryRows, false, false},
      {"tcp", planner::ScanLeafKind::kMemoryRows, false, true},
      {"s3", planner::ScanLeafKind::kColumnFile, true, false},
      {"s3select", planner::ScanLeafKind::kS3Select, true, false},
  };
  for (const Config& cfg : configs) {
    planner::LoweringContext lctx;
    lctx.scan_leaf = cfg.leaf;
    lctx.serverless = cfg.serverless;
    lctx.fused = true;
    lctx.world = 4;
    lctx.exec.network_radix_bits = 4;
    lctx.exec.tcp_exchange = cfg.tcp;
    lctx.tag = "golden";
    PipelinePlan plan;
    auto lowered = planner::LowerRankPlan(*split.value().rank_root, &plan,
                                          &lctx);
    if (!lowered.ok()) return "";
    text += "== physical " + std::string(cfg.title) + " world=4 ==\n";
    text += planner::ExplainPhysical(plan);
  }
  // The driver's plan is the same on every platform but for the gather
  // source; an MPI executor stands in for it.
  planner::LoweringContext lctx;
  lctx.world = 4;
  lctx.gather = [](RankPlanFactory ranks, const Schema&) -> SubOpPtr {
    MpiExecutor::Config config;
    config.plan_factory = std::move(ranks);
    return std::make_unique<MpiExecutor>(std::move(config));
  };
  auto driver = planner::LowerPlan(*split.value().root, &lctx);
  if (!driver.ok()) return "";
  text += "== physical driver ==\n";
  text += planner::ExplainPhysical(*driver.value());
  return text;
}

/// Compares `text` with the snapshot at `path`, or rewrites the snapshot
/// under MODULARIS_UPDATE_GOLDENS.
void ExpectGolden(const std::string& path, const std::string& text) {
  if (std::getenv("MODULARIS_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden snapshot " << path
                         << "; regenerate with MODULARIS_UPDATE_GOLDENS=1";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), text)
      << "plan shape drift in " << path
      << "; if intended, regenerate with MODULARIS_UPDATE_GOLDENS=1";
}

TEST(PlannerGolden, PlanShapesMatchSnapshots) {
  planner::Catalog catalog = TpchCatalog({60000, 15000, 1500, 2000});
  for (int q : kQueries) {
    std::string text = RenderPlanShapes(q, catalog);
    ASSERT_FALSE(text.empty()) << "Q" << q << " failed to plan";
    ExpectGolden(GoldenPath(q), text);
  }
}

/// The physical shapes of the Fig. 3–5 KV plans, rendered through their
/// public entry points (the plans the figure benches and bench_e2e run).
TEST(PlannerGolden, KvPlanShapesMatchSnapshots) {
  const std::string dir =
      std::string(MODULARIS_SOURCE_DIR) + "/tests/golden/planner/";
  struct JoinCase {
    const char* file;
    JoinType type;
    bool compress;
    bool fused;
  };
  const JoinCase joins[] = {
      {"kv_join_inner_compressed", JoinType::kInner, true, true},
      {"kv_join_inner_raw", JoinType::kInner, false, true},
      {"kv_join_semi_compressed", JoinType::kSemi, true, true},
      {"kv_join_anti_raw", JoinType::kAnti, false, true},
      {"kv_join_inner_compressed_unfused", JoinType::kInner, true, false},
  };
  for (const JoinCase& c : joins) {
    plans::DistJoinOptions opts;
    opts.join_type = c.type;
    opts.compress = c.compress;
    opts.exec.enable_fusion = c.fused;
    ExpectGolden(dir + c.file + ".txt",
                 planner::ExplainPhysical(*plans::BuildJoinRankPlan(opts)));
  }
  struct GroupByCase {
    const char* file;
    bool compress;
    bool fused;
  };
  const GroupByCase groupbys[] = {
      {"kv_groupby_compressed", true, true},
      {"kv_groupby_raw", false, true},
      {"kv_groupby_compressed_unfused", true, false},
  };
  for (const GroupByCase& c : groupbys) {
    plans::DistGroupByOptions opts;
    opts.compress = c.compress;
    opts.exec.enable_fusion = c.fused;
    ExpectGolden(dir + c.file + ".txt",
                 planner::ExplainPhysical(*plans::BuildGroupByRankPlan(opts)));
  }
  plans::JoinSequenceOptions seq;
  ExpectGolden(dir + "kv_sequence_naive3.txt",
               planner::ExplainPhysical(
                   *plans::BuildNaiveSequenceRankPlan(3, seq)));
  ExpectGolden(dir + "kv_sequence_optimized3.txt",
               planner::ExplainPhysical(
                   *plans::BuildOptimizedSequenceRankPlan(3, seq)));
}

namespace lp = planner::lp;

/// Explicit Exchange nodes outside the template shapes: a consumer not
/// keyed on the partitioning column materializes the partitioned value
/// and exchanges it implicitly; what the lowering cannot run is an
/// InvalidArgument, never a wrong plan.
TEST(PlannerLowering, ExplicitExchangeOutsideTheTemplates) {
  auto x = [](int table, int key, bool compress) {
    return lp::Exchange(lp::Scan(table, "t" + std::to_string(table),
                                 KeyValueSchema()),
                        key, compress);
  };
  auto lower = [](const planner::LogicalPlanPtr& root, bool serverless) {
    planner::LoweringContext lctx;
    lctx.serverless = serverless;
    lctx.world = 4;
    PipelinePlan plan;
    return planner::LowerRankPlan(*root, &plan, &lctx).status().code();
  };
  const auto ok = StatusCode::kOk;
  const auto invalid = StatusCode::kInvalidArgument;
  // Probe side partitioned on its value column, joined on its key.
  EXPECT_EQ(lower(lp::Join(x(0, 0, false), x(1, 1, false), JoinType::kInner,
                           0, 0),
                  false),
            ok);
  EXPECT_EQ(lower(lp::Sort(x(0, 0, false), {SortKey{1, true}}), false), ok);
  EXPECT_EQ(lower(x(0, 0, false), /*serverless=*/true), invalid);
  EXPECT_EQ(lower(lp::Join(x(0, 0, true), x(1, 0, false), JoinType::kInner,
                           0, 0),
                  false),
            invalid);
  EXPECT_EQ(lower(lp::Filter(lp::Join(x(0, 0, true), x(1, 0, true),
                                      JoinType::kSemi, 0, 0),
                             ex::Gt(ex::Col(1), ex::Lit(int64_t{0}))),
                  false),
            invalid);
  EXPECT_EQ(lower(x(0, 1, true), false), invalid);
}

// ===========================================================================
// 3. Seeded fuzz: random logical plans, optimized lowering vs direct
//    lowering of the authored tree.
// ===========================================================================

/// Random Scan → Filter* → [Join → Project] → Aggregate → [Sort [Limit]]
/// chains over lineitem/orders. Aggregates are restricted to
/// order-independent functions (integer SUM, COUNT) and sorted on all
/// group keys so results stay deterministic even when the join-order
/// pass swaps build/probe sides.
planner::LogicalPlanPtr FuzzPlan(std::mt19937& rng) {
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };

  auto li_pred = [&](int which) -> ExprPtr {
    switch (which) {
      case 0:
        return ex::Le(ex::Col(l::kShipDate),
                      ex::Lit(int64_t{DateFromYMD(1995, 6, 17)}));
      case 1:
        return ex::Ge(ex::Col(l::kShipDate),
                      ex::Lit(int64_t{DateFromYMD(1993, 1, 1)}));
      case 2: return ex::Lt(ex::Col(l::kQuantity), ex::Lit(25.0));
      case 3:
        return ex::Lt(ex::Col(l::kCommitDate), ex::Col(l::kReceiptDate));
      default:
        return ex::Lt(ex::Col(l::kOrderKey), ex::Lit(int64_t{30000}));
    }
  };
  auto ord_pred = [&](int which) -> ExprPtr {
    switch (which) {
      case 0:
        return ex::Lt(ex::Col(o::kOrderDate),
                      ex::Lit(int64_t{DateFromYMD(1996, 1, 1)}));
      case 1:
        return ex::Ge(ex::Col(o::kOrderDate),
                      ex::Lit(int64_t{DateFromYMD(1993, 1, 1)}));
      case 2:
        return ex::InStr(ex::Col(o::kOrderPriority),
                         {"1-URGENT", "2-HIGH"});
      default:
        return ex::Lt(ex::Col(o::kCustKey), ex::Lit(int64_t{500}));
    }
  };
  auto filtered = [&](planner::LogicalPlanPtr node, bool is_li) {
    int n = pick(3);
    for (int i = 0; i < n; ++i) {
      node = lp::Filter(std::move(node),
                        is_li ? li_pred(pick(5)) : ord_pred(pick(4)));
    }
    return node;
  };

  planner::LogicalPlanPtr cur;
  std::vector<int> key_pool;
  std::vector<int> sum_pool;  // I64 columns only (order-independent SUM)
  if (pick(2) == 0) {
    // lineitem ⋈ orders on orderkey, random authored orientation, then a
    // projection to a stable mixed-type record.
    bool li_build = pick(2) == 0;
    auto li = filtered(lp::Scan(0, "lineitem", LineitemSchema()), true);
    auto ord = filtered(lp::Scan(1, "orders", OrdersSchema()), false);
    planner::LogicalPlanPtr join =
        li_build ? lp::Join(std::move(li), std::move(ord), JoinType::kInner,
                            l::kOrderKey, o::kOrderKey)
                 : lp::Join(std::move(ord), std::move(li), JoinType::kInner,
                            o::kOrderKey, l::kOrderKey);
    const int nord = static_cast<int>(OrdersSchema().num_fields());
    const int li0 = li_build ? 0 : nord;
    const int or0 =
        li_build ? static_cast<int>(LineitemSchema().num_fields()) : 0;
    Schema js({Field::I64("k"), Field::I64("supp"), Field::Date("sdate"),
               Field::Str("prio", 15), Field::I64("cust")});
    cur = lp::Project(std::move(join),
                      {MapOutput::Pass(li0 + l::kOrderKey),
                       MapOutput::Pass(li0 + l::kSuppKey),
                       MapOutput::Pass(li0 + l::kShipDate),
                       MapOutput::Pass(or0 + o::kOrderPriority),
                       MapOutput::Pass(or0 + o::kCustKey)},
                      js);
    key_pool = {0, 1, 2, 3, 4};
    sum_pool = {0, 1, 4};
  } else if (pick(2) == 0) {
    cur = filtered(lp::Scan(0, "lineitem", LineitemSchema()), true);
    key_pool = {l::kSuppKey, l::kLineNumber, l::kShipDate, l::kShipMode};
    sum_pool = {l::kOrderKey, l::kPartKey, l::kSuppKey};
  } else {
    cur = filtered(lp::Scan(1, "orders", OrdersSchema()), false);
    key_pool = {o::kOrderStatus, o::kOrderDate, o::kShipPriority};
    sum_pool = {o::kOrderKey, o::kCustKey};
  }

  std::shuffle(key_pool.begin(), key_pool.end(), rng);
  const int nkeys = pick(3);  // 0..2
  std::vector<int> keys(key_pool.begin(), key_pool.begin() + nkeys);
  std::vector<AggSpec> aggs;
  aggs.push_back(
      SumI64(ex::Col(sum_pool[pick(static_cast<int>(sum_pool.size()))]),
             "s0"));
  aggs.push_back(CountStar("cnt"));
  cur = lp::Aggregate(std::move(cur), keys, std::move(aggs));

  if (nkeys > 0) {
    std::vector<SortKey> sort;
    for (int i = 0; i < nkeys; ++i) sort.push_back({i, pick(2) == 0});
    cur = lp::Sort(std::move(cur), sort);
    if (pick(4) == 0) cur = lp::Limit(std::move(cur), 5);
  }
  return cur;
}

TEST(PlannerFuzz, OptimizedLoweringMatchesDirectLowering) {
  std::mt19937 rng(20260807u);
  TpchRunOptions opts = Unthrottled(TpchRunOptions::Rdma(2));
  opts.exec.network_radix_bits = 3;
  auto ctx = PrepareTpch(Db(), opts);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  for (int iter = 0; iter < 20; ++iter) {
    planner::LogicalPlanPtr plan = FuzzPlan(rng);
    SCOPED_TRACE("iter " + std::to_string(iter) + "\n" +
                 planner::ExplainLogical(*plan));
    auto direct = RunTpchPlan(plan, **ctx, opts, nullptr);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    planner::PlannerOptions popts;
    popts.catalog = TpchCatalog((*ctx)->table_rows);
    auto optimized = RunTpchPlan(planner::Optimize(plan, popts, nullptr),
                                 **ctx, opts, nullptr);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    ExpectBytesEqual(**direct, **optimized);
  }
}

}  // namespace
}  // namespace modularis::tpch
