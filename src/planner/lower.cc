#include "planner/lower.h"

#include <chrono>
#include <numeric>
#include <utility>

#include "mpi/mpi_ops.h"
#include "planner/passes.h"
#include "serverless/serverless_ops.h"
#include "suboperators/agg_ops.h"
#include "suboperators/join_ops.h"

namespace modularis::planner {
namespace {

using plans::MaybeScan;
using plans::ParamItem;

int Log2Exact(int v) {
  int bits = 0;
  while ((1 << bits) < v) ++bits;
  return bits;
}

/// Pipeline names are cosmetic but must be unique within the plan.
std::string AllocName(LoweringContext* ctx, const std::string& base) {
  int n = ++ctx->used_names[base];
  return n == 1 ? base : base + "_" + std::to_string(n);
}

/// Adds pipeline `name` yielding this rank's filtered + pruned shard of
/// the scanned table — the only plan fragment that differs per scan leaf
/// (Figs. 6/7).
Status AddScan(PipelinePlan* plan, const std::string& name,
               const LogicalPlan& n, const LoweringContext& ctx) {
  const Schema& pruned = n.schema;
  SubOpPtr rows;
  switch (ctx.scan_leaf) {
    case ScanLeafKind::kMemoryRows: {
      // In-memory base table fragment: filter the wide table row first,
      // with the predicate compiled against the table schema, then gather
      // the pruned columns of the surviving rows only.
      rows = std::make_unique<RowScan>(ParamItem(n.table));
      if (n.scan_filter != nullptr) {
        ExprPtr pred = RemapColumns(n.scan_filter, n.scan_cols);
        if (pred == nullptr) {
          return Status::InvalidArgument(
              "lower: scan filter of " + n.table_name +
              " does not map onto the table columns");
        }
        rows = std::make_unique<Filter>(std::move(rows), std::move(pred));
      }
      std::vector<MapOutput> prune;
      prune.reserve(n.scan_cols.size());
      for (int c : n.scan_cols) prune.push_back(MapOutput::Pass(c));
      rows = std::make_unique<MapOp>(std::move(rows), pruned,
                                     std::move(prune));
      break;
    }
    case ScanLeafKind::kColumnFile: {
      // ColumnFile on NFS/S3: projection + range pushdown in the scan.
      ColumnFileScan::Options copts;
      copts.projection = n.scan_cols;
      copts.ranges = n.scan_ranges;
      rows = std::make_unique<ColumnScan>(
          std::make_unique<ColumnFileScan>(ParamItem(n.table), copts),
          pruned);
      if (n.scan_filter != nullptr) {
        rows = std::make_unique<Filter>(std::move(rows), n.scan_filter);
      }
      break;
    }
    case ScanLeafKind::kS3Select: {
      // Smart storage: both projection and selection are pushed into the
      // storage service; nothing remains to filter here (§4.5).
      S3SelectRequest::Options sopts;
      sopts.object_schema = n.table_schema;
      sopts.projection = n.scan_cols;
      sopts.predicate = n.scan_filter;
      plan->Add(name, std::make_unique<TableToCollection>(
                          std::make_unique<S3SelectRequest>(
                              ParamItem(n.table), std::move(sopts))));
      return Status::OK();
    }
  }
  plan->Add(name, std::make_unique<MaterializeRowVector>(std::move(rows),
                                                         pruned));
  return Status::OK();
}

/// Adds the platform's exchange for pipeline `src` (rows of `schema`)
/// keyed on `key_col` and returns the name of the pipeline yielding the
/// exchanged data: ⟨pid, collection⟩ tuples on MPI/TCP, ⟨path, rg, rg⟩
/// triples on serverless. The transport wiring itself lives in
/// plans::AddExchangePipelines; this only picks the configuration.
std::string AddExchange(PipelinePlan* plan, LoweringContext* ctx,
                        const std::string& src, const Schema& schema,
                        int key_col) {
  std::string base = src + "_x" + std::to_string(ctx->next_exchange++);
  plans::ExchangeConfig cfg;
  cfg.fused = ctx->fused;
  cfg.schema = schema;
  cfg.key_col = key_col;
  if (!ctx->serverless && ctx->exec.tcp_exchange) {
    cfg.transport = plans::ExchangeConfig::Transport::kTcp;
  } else if (!ctx->serverless) {
    cfg.transport = plans::ExchangeConfig::Transport::kMpi;
    cfg.spec.bits = ctx->exec.network_radix_bits;
    cfg.spec.shift = 0;
    cfg.spec.hash = RadixHash::kMix;
    cfg.compress = false;
    cfg.buffer_bytes = ctx->exec.exchange_buffer_bytes;
  } else {
    cfg.transport = plans::ExchangeConfig::Transport::kS3;
    cfg.spec.bits = Log2Exact(ctx->world);
    cfg.spec.shift = 0;
    cfg.spec.hash = RadixHash::kMix;
    cfg.prefix = ctx->tag + "/" + base;
    cfg.write_combining = ctx->exec.s3_write_combining;
    cfg.retry = ctx->exec.retry;
  }
  return plans::AddExchangePipelines(
      plan, base, [plan, &src]() { return plan->MakeRef(src); }, cfg);
}

/// Source of exchanged records for one side of a downstream operator.
SubOpPtr ExchangedData(PipelinePlan* plan, const LoweringContext& ctx,
                       const std::string& xpipe, int param_item) {
  if (!ctx.serverless) {
    // Inside a NestedMap over zipped partition pairs: the data collection
    // sits at `param_item` of the parameter tuple.
    return MaybeScan(ParamItem(param_item), ctx.fused);
  }
  // Serverless: read this worker's row groups back from S3.
  ColumnFileScan::Options copts;
  copts.retry = ctx.exec.retry;
  return std::make_unique<TableToCollection>(std::make_unique<ColumnFileScan>(
      plan->MakeRef(xpipe), std::move(copts)));
}

/// Adds a distributed hash join between two materialized pipelines and
/// materializes the (optionally filtered/mapped) join output as pipeline
/// `out_name` with schema `out_schema`.
void AddJoin(PipelinePlan* plan, LoweringContext* ctx,
             const std::string& out_name, const std::string& build_pipe,
             const Schema& build_schema, int build_key,
             const std::string& probe_pipe, const Schema& probe_schema,
             int probe_key, JoinType type, ExprPtr post_filter,
             std::vector<MapOutput> post, const Schema& out_schema,
             bool allow_broadcast) {
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

  if (!ctx->serverless && ctx->exec.broadcast_small_build &&
      allow_broadcast) {
    // Broadcast join: replicate the (small) build side everywhere; the
    // probe side never crosses the network.
    std::string bx =
        build_pipe + "_bcast" + std::to_string(ctx->next_exchange++);
    plan->Add(bx, std::make_unique<MpiBroadcast>(
                      MaybeScan(plan->MakeRef(build_pipe), ctx->fused),
                      build_schema));
    auto bp = std::make_unique<BuildProbe>(
        MaybeScan(plan->MakeRef(bx), ctx->fused),
        MaybeScan(plan->MakeRef(probe_pipe), ctx->fused), build_schema,
        probe_schema, build_key, probe_key, type);
    plan->Add(out_name, finish(std::move(bp)));
    return;
  }

  std::string xb = AddExchange(plan, ctx, build_pipe, build_schema, build_key);
  std::string xp = AddExchange(plan, ctx, probe_pipe, probe_schema, probe_key);

  if (!ctx->serverless) {
    // NestedMap over zipped ⟨pid, data⟩ pairs (Fig. 6).
    auto nested = finish(std::make_unique<BuildProbe>(
        MaybeScan(ParamItem(1), ctx->fused),
        MaybeScan(ParamItem(3), ctx->fused), build_schema, probe_schema,
        build_key, probe_key, type));
    auto zip = std::make_unique<Zip>(plan->MakeRef(xb), plan->MakeRef(xp));
    auto nm = std::make_unique<NestedMap>(std::move(zip), std::move(nested));
    plan->Add(out_name,
              std::make_unique<MaterializeRowVector>(
                  MaybeScan(std::move(nm), ctx->fused), out_schema));
    return;
  }
  // Serverless: each worker holds exactly one partition after the
  // exchange — no NestedMap (Fig. 7).
  auto bp = std::make_unique<BuildProbe>(
      ExchangedData(plan, *ctx, xb, 1), ExchangedData(plan, *ctx, xp, 3),
      build_schema, probe_schema, build_key, probe_key, type);
  plan->Add(out_name, finish(std::move(bp)));
}

/// Adds a shuffled aggregation: exchange `in_pipe` on `key_col`, then
/// ReduceByKey per partition with an optional HAVING filter.
void AddShuffledAgg(PipelinePlan* plan, LoweringContext* ctx,
                    const std::string& out_name, const std::string& in_pipe,
                    const Schema& in_schema, int key_col,
                    std::vector<int> keys, std::vector<AggSpec> aggs,
                    ExprPtr having, const Schema& out_schema) {
  std::string x = AddExchange(plan, ctx, in_pipe, in_schema, key_col);

  auto finish = [&](SubOpPtr records) -> SubOpPtr {
    SubOpPtr cur = std::make_unique<ReduceByKey>(
        std::move(records), std::move(keys), std::move(aggs), in_schema);
    if (having != nullptr) {
      cur = std::make_unique<Filter>(std::move(cur), having);
    }
    return std::make_unique<MaterializeRowVector>(std::move(cur),
                                                  out_schema);
  };

  if (!ctx->serverless) {
    auto nested = finish(MaybeScan(ParamItem(1), ctx->fused));
    auto nm =
        std::make_unique<NestedMap>(plan->MakeRef(x), std::move(nested));
    plan->Add(out_name,
              std::make_unique<MaterializeRowVector>(
                  MaybeScan(std::move(nm), ctx->fused), out_schema));
    return;
  }
  plan->Add(out_name, finish(ExchangedData(plan, *ctx, x, 1)));
}

/// Adds a rank-local aggregation over a materialized pipeline.
void AddLocalAgg(PipelinePlan* plan, const LoweringContext& ctx,
                 const std::string& out_name, const std::string& in_pipe,
                 const Schema& in_schema, std::vector<int> keys,
                 std::vector<AggSpec> aggs, const Schema& out_schema) {
  SubOpPtr cur = std::make_unique<ReduceByKey>(
      MaybeScan(plan->MakeRef(in_pipe), ctx.fused), std::move(keys),
      std::move(aggs), in_schema);
  plan->Add(out_name, std::make_unique<MaterializeRowVector>(std::move(cur),
                                                             out_schema));
}

Result<LoweredPlan> LowerNode(const LogicalPlan& n, PipelinePlan* plan,
                              LoweringContext* ctx, bool root);

/// Lowers the Project?(Filter?(Join)) cluster as one distributed join
/// pipeline: the filter becomes the join's post-filter (evaluated on the
/// concatenated build⊕probe record before projection).
Result<LoweredPlan> LowerJoin(const LogicalPlan& join,
                              const LogicalPlan* filt,
                              const LogicalPlan* proj, PipelinePlan* plan,
                              LoweringContext* ctx) {
  auto b = LowerNode(*join.children[0], plan, ctx, /*root=*/false);
  if (!b.ok()) return b.status();
  auto p = LowerNode(*join.children[1], plan, ctx, /*root=*/false);
  if (!p.ok()) return p.status();
  const Schema& out_schema = proj != nullptr ? proj->schema : join.schema;
  std::vector<MapOutput> post;
  if (proj != nullptr) post = proj->projections;
  ExprPtr post_filter = filt != nullptr ? filt->predicate : nullptr;
  std::string name =
      AllocName(ctx, "j" + std::to_string(++ctx->next_join));
  AddJoin(plan, ctx, name, b.value().pipeline, b.value().schema,
          join.build_key, p.value().pipeline, p.value().schema,
          join.probe_key, join.join_type, std::move(post_filter),
          std::move(post), out_schema, join.broadcast_ok);
  return LoweredPlan{name, out_schema};
}

Result<LoweredPlan> LowerNode(const LogicalPlan& n, PipelinePlan* plan,
                              LoweringContext* ctx, bool root) {
  switch (n.kind) {
    case NodeKind::kScan: {
      std::string name = AllocName(
          ctx, n.table_name.empty() ? "scan" : n.table_name);
      MODULARIS_RETURN_NOT_OK(AddScan(plan, name, n, *ctx));
      return LoweredPlan{name, n.schema};
    }
    case NodeKind::kFilter:
    case NodeKind::kProject: {
      const LogicalPlan* proj = n.kind == NodeKind::kProject ? &n : nullptr;
      const LogicalPlan* filt = n.kind == NodeKind::kFilter ? &n : nullptr;
      const LogicalPlan* below = n.children[0].get();
      if (proj != nullptr && below->kind == NodeKind::kFilter) {
        filt = below;
        below = filt->children[0].get();
      }
      if (below->kind == NodeKind::kJoin) {
        return LowerJoin(*below, filt, proj, plan, ctx);
      }
      auto child = LowerNode(*below, plan, ctx, /*root=*/false);
      if (!child.ok()) return child.status();
      SubOpPtr cur =
          MaybeScan(plan->MakeRef(child.value().pipeline), ctx->fused);
      if (filt != nullptr) {
        cur = std::make_unique<Filter>(std::move(cur), filt->predicate);
      }
      if (proj != nullptr) {
        cur = std::make_unique<MapOp>(std::move(cur), proj->schema,
                                      proj->projections);
      }
      std::string name = AllocName(
          ctx, std::string(proj != nullptr ? "proj" : "flt") +
                   std::to_string(++ctx->next_misc));
      plan->Add(name, std::make_unique<MaterializeRowVector>(std::move(cur),
                                                             n.schema));
      return LoweredPlan{name, n.schema};
    }
    case NodeKind::kJoin:
      return LowerJoin(n, nullptr, nullptr, plan, ctx);
    case NodeKind::kAggregate: {
      auto child = LowerNode(*n.children[0], plan, ctx, /*root=*/false);
      if (!child.ok()) return child.status();
      if (root) {
        // The rank root aggregates locally; the driver merge re-reduces
        // the partials (SplitAtDriver supplies the merge spec).
        if (n.having != nullptr) {
          return Status::InvalidArgument(
              "lower: HAVING on the rank-root aggregate (rank partials are "
              "incomplete; filter after the driver merge instead)");
        }
        std::string name = AllocName(ctx, "agg");
        AddLocalAgg(plan, *ctx, name, child.value().pipeline,
                    child.value().schema, n.group_keys, n.aggs, n.schema);
        return LoweredPlan{name, n.schema};
      }
      if (n.group_keys.empty()) {
        return Status::InvalidArgument(
            "lower: interior keyless aggregate (only the rank root may "
            "aggregate without keys — the driver merges the scalars)");
      }
      std::string name =
          AllocName(ctx, "agg" + std::to_string(++ctx->next_agg));
      AddShuffledAgg(plan, ctx, name, child.value().pipeline,
                     child.value().schema, n.group_keys[0], n.group_keys,
                     n.aggs, n.having, n.schema);
      return LoweredPlan{name, n.schema};
    }
    case NodeKind::kSort: {
      auto child = LowerNode(*n.children[0], plan, ctx, /*root=*/false);
      if (!child.ok()) return child.status();
      std::string name =
          AllocName(ctx, "sort" + std::to_string(++ctx->next_misc));
      SubOpPtr cur = std::make_unique<SortOp>(
          MaybeScan(plan->MakeRef(child.value().pipeline), ctx->fused),
          n.sort_keys, child.value().schema);
      plan->Add(name, std::make_unique<MaterializeRowVector>(std::move(cur),
                                                             n.schema));
      return LoweredPlan{name, n.schema};
    }
    case NodeKind::kLimit: {
      const LogicalPlan* sort = n.children[0].get();
      if (sort->kind != NodeKind::kSort) {
        return Status::InvalidArgument(
            "lower: LIMIT without ORDER BY has no deterministic result");
      }
      auto child = LowerNode(*sort->children[0], plan, ctx, /*root=*/false);
      if (!child.ok()) return child.status();
      std::string name =
          AllocName(ctx, "topk" + std::to_string(++ctx->next_misc));
      SubOpPtr cur = std::make_unique<TopK>(
          MaybeScan(plan->MakeRef(child.value().pipeline), ctx->fused),
          sort->sort_keys, n.limit, child.value().schema);
      plan->Add(name, std::make_unique<MaterializeRowVector>(std::move(cur),
                                                             n.schema));
      return LoweredPlan{name, n.schema};
    }
    case NodeKind::kExchange:
      return Status::InvalidArgument(
          "lower: bare Exchange nodes appear only in the KV templates "
          "(kv_lower.h); TPC-H exchanges are implied by Join/Aggregate");
  }
  return Status::InvalidArgument("lower: unknown node kind");
}

}  // namespace

Result<LoweredPlan> LowerRankPlan(const LogicalPlan& root, PipelinePlan* plan,
                                  LoweringContext* ctx) {
  const auto start = std::chrono::steady_clock::now();
  auto lowered = LowerNode(root, plan, ctx, /*root=*/true);
  if (ctx->stats != nullptr) {
    ctx->stats->AddTime(
        "planner.time.lower",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  }
  return lowered;
}

Result<DriverSpec> SplitAtDriver(LogicalPlanPtr root) {
  DriverSpec spec;
  LogicalPlanPtr cur = std::move(root);
  if (cur->kind == NodeKind::kLimit) {
    spec.limit = cur->limit;
    cur = cur->children[0];
    if (cur->kind != NodeKind::kSort) {
      return Status::InvalidArgument(
          "SplitAtDriver: LIMIT without ORDER BY has no deterministic "
          "result");
    }
  }
  if (cur->kind == NodeKind::kSort) {
    spec.sort = cur->sort_keys;
    cur = cur->children[0];
  }
  if (cur->kind == NodeKind::kProject &&
      cur->children[0]->kind == NodeKind::kAggregate) {
    spec.finalize = cur->projections;
    spec.final_schema = cur->schema;
    cur = cur->children[0];
  }
  if (cur->kind == NodeKind::kAggregate) {
    // The ranks aggregate their shards; the driver re-reduces the
    // partials. Partial SUM/MIN/MAX merge by the same function, partial
    // COUNTs merge by summing.
    spec.merge = true;
    const int nkeys = static_cast<int>(cur->group_keys.size());
    spec.merge_keys.resize(cur->group_keys.size());
    std::iota(spec.merge_keys.begin(), spec.merge_keys.end(), 0);
    for (size_t i = 0; i < cur->aggs.size(); ++i) {
      const AggSpec& a = cur->aggs[i];
      AggSpec m;
      m.kind = a.kind == AggKind::kCount ? AggKind::kSum : a.kind;
      m.input = ex::Col(nkeys + static_cast<int>(i));
      m.name = a.name;
      m.out_type = a.out_type;
      spec.merge_aggs.push_back(std::move(m));
    }
    spec.merge_having = cur->having;
    // The rank subtree keeps the Aggregate node (lowered rank-local);
    // its HAVING moved to the driver, where the groups are complete.
    if (cur->having != nullptr) {
      auto stripped = std::make_shared<LogicalPlan>(*cur);
      stripped->having = nullptr;
      cur = std::move(stripped);
    }
  }
  spec.rank_root = cur;
  spec.rank_schema = cur->schema;
  if (spec.finalize.empty()) spec.final_schema = spec.rank_schema;
  return spec;
}

}  // namespace modularis::planner
