#include "planner/lower.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <numeric>
#include <utility>

#include "mpi/mpi_ops.h"
#include "planner/passes.h"
#include "serverless/serverless_ops.h"
#include "suboperators/agg_ops.h"
#include "suboperators/join_ops.h"
#include "suboperators/partition_ops.h"

namespace modularis::planner {

/// One relation an explicit Exchange sends: what a partitioned value zips.
struct ExchangedInput {
  /// Base of the exchange's pipeline names.
  std::string name;
  /// Yields the rows to send: the fragment's parameter item (identity
  /// scan) or a pipeline ref. Called once per exchange pipeline.
  std::function<SubOpPtr()> source;
  Schema schema;
  int key_col = 0;
  bool compress = false;
};

/// Builds a per-partition record stream over the inner NestedMap's
/// parameter tuple once the zip position `base` of the value's first
/// input is known: input i's ⟨pid, lpid, data⟩ sit at items 3(base + i),
/// 3(base + i) + 1 and 3(base + i) + 2.
using PartitionStream =
    std::function<SubOpPtr(int base, const LoweringContext& ctx)>;

struct Partitioned {
  /// The exchanged relations, in zip order.
  std::vector<ExchangedInput> inputs;
  PartitionStream stream;
  /// Output column the value is partitioned on; -1 when projected away.
  int key = 0;
  /// The stream carries compressed words (a bare compressed exchange).
  bool compressed = false;
  /// The stream yields one collection per partition instead of records.
  bool collection = false;
};

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
/// the scanned table: MaterializeRowVector(ColumnScan(source, columns,
/// filter)). The ColumnScan tests the scan filter on the source's columns
/// and builds only the survivors' output columns; only the table source
/// differs per scan leaf (Figs. 6/7).
Status AddScan(PipelinePlan* plan, const std::string& name,
               const LogicalPlan& n, const LoweringContext& ctx) {
  SubOpPtr source = ParamItem(n.table);
  // The in-memory fragment is the whole table, so the scan reads its
  // output columns and the filter's table columns straight from it. The
  // storage leaves decode only the read columns: the output columns, then
  // those only the filter reads, so decoded column i is read[i].
  std::vector<int> columns = n.scan_cols;
  ExprPtr filter = n.scan_filter;
  Schema source_schema = n.table_schema;
  std::vector<int> read = n.scan_cols;
  if (ctx.scan_leaf != ScanLeafKind::kMemoryRows) {
    std::vector<int> map(n.table_schema.num_fields(), -1);
    for (size_t i = 0; i < read.size(); ++i) {
      map[read[i]] = static_cast<int>(i);
    }
    std::vector<int> filter_cols;
    if (filter != nullptr) filter->CollectColumns(&filter_cols);
    std::sort(filter_cols.begin(), filter_cols.end());
    for (int c : filter_cols) {
      if (map[c] >= 0) continue;
      map[c] = static_cast<int>(read.size());
      read.push_back(c);
    }
    if (filter != nullptr) {
      filter = RemapColumns(filter, map);
      if (filter == nullptr) {
        return Status::InvalidArgument("lower: scan filter " +
                                       n.scan_filter->ToString() +
                                       " cannot read the decoded columns");
      }
    }
    std::iota(columns.begin(), columns.end(), 0);
    source_schema = n.table_schema.Select(read);
  }
  switch (ctx.scan_leaf) {
    case ScanLeafKind::kMemoryRows:
      break;
    case ScanLeafKind::kColumnFile: {
      // ColumnFile on NFS/S3: projection + range pushdown in the read.
      ColumnFileScan::Options copts;
      copts.projection = std::move(read);
      copts.ranges = n.scan_ranges;
      source = std::make_unique<ColumnFileScan>(std::move(source), copts);
      break;
    }
    case ScanLeafKind::kS3Select: {
      // Smart storage: both projection and selection are pushed into the
      // storage service; nothing remains to filter here (§4.5).
      S3SelectRequest::Options sopts;
      sopts.object_schema = n.table_schema;
      sopts.projection = std::move(read);
      sopts.predicate = std::move(filter);
      source = std::make_unique<S3SelectRequest>(std::move(source),
                                                 std::move(sopts));
      break;
    }
  }
  plan->Add(name, std::make_unique<MaterializeRowVector>(
                      std::make_unique<ColumnScan>(
                          std::move(source), n.schema, std::move(columns),
                          std::move(filter), std::move(source_schema)),
                      n.schema));
  return Status::OK();
}

/// The configuration both exchange kinds start from: the MPI network
/// pass on the identity hash.
plans::ExchangeConfig BaseExchangeConfig(const LoweringContext& ctx,
                                         const Schema& schema, int key_col) {
  plans::ExchangeConfig cfg;
  cfg.fused = ctx.fused;
  cfg.schema = schema;
  cfg.key_col = key_col;
  cfg.spec.bits = ctx.exec.network_radix_bits;
  cfg.buffer_bytes = ctx.exec.exchange_buffer_bytes;
  return cfg;
}

/// Adds the platform's implicit exchange for pipeline `src` (rows of
/// `schema`) keyed on `key_col` and returns the name of the pipeline
/// yielding the exchanged data: ⟨pid, collection⟩ tuples on MPI/TCP,
/// ⟨path, rg, rg⟩ triples on serverless. The transport wiring itself
/// lives in plans::AddExchangePipelines; this only picks the
/// configuration.
std::string AddExchange(PipelinePlan* plan, LoweringContext* ctx,
                        const std::string& src, const Schema& schema,
                        int key_col) {
  std::string base = src + "_x" + std::to_string(ctx->next_exchange++);
  plans::ExchangeConfig cfg = BaseExchangeConfig(*ctx, schema, key_col);
  cfg.spec.hash = RadixHash::kMix;
  if (ctx->serverless) {
    cfg.transport = plans::ExchangeConfig::Transport::kS3;
    cfg.spec.bits = Log2Exact(ctx->world);
    cfg.prefix = ctx->tag + "/" + base;
    cfg.write_combining = ctx->exec.s3_write_combining;
    cfg.retry = ctx->exec.retry;
  } else if (ctx->exec.tcp_exchange) {
    cfg.transport = plans::ExchangeConfig::Transport::kTcp;
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

/// Restores the full keys of compressed rows (§4.1.2) from the network
/// pid at parameter item `pid_item`. Each row of `in` holds `words`
/// compressed words; word w stands for the logical columns ⟨key, value⟩
/// at 2w and 2w + 1, and the output row is `cols` of that logical row.
/// Fused, one bulk loop maps a whole collection (the JIT-inlined UDF
/// analog; `in` must yield collections); otherwise a per-row map, the
/// interpreted ablation.
SubOpPtr RecoverKeys(SubOpPtr in, int pid_item, int words,
                     std::vector<int> cols, const Schema& out,
                     const LoweringContext& ctx) {
  const int F = ctx.exec.network_radix_bits;
  const int P = ctx.exec.key_domain_bits;
  if (ctx.fused) {
    return plans::CloneSafe(std::make_unique<ParametrizedMap>(
        ParamItem(pid_item), std::move(in), out,
        ParametrizedMap::BulkFn([F, P, words, cols, out](
                                    const Tuple& param, const RowVector& in) {
          RowVectorPtr res = RowVector::Make(out);
          const int64_t pid = param[0].i64();
          const uint32_t stride = in.row_size();
          const uint8_t* p = in.data();
          uint8_t* dst = res->AppendUninitialized(in.size());
          int64_t logical[4];
          for (size_t i = 0; i < in.size(); ++i, p += stride) {
            for (int w = 0; w < words; ++w) {
              int64_t word;
              std::memcpy(&word, p + 8 * w, 8);
              DecompressKV(word, pid, F, P, &logical[2 * w],
                           &logical[2 * w + 1]);
            }
            for (int c : cols) {
              std::memcpy(dst, &logical[c], 8);
              dst += 8;
            }
          }
          return res;
        })));
  }
  return plans::CloneSafe(std::make_unique<ParametrizedMap>(
      ParamItem(pid_item), std::move(in), out,
      [F, P, words, cols](const Tuple& param, const RowRef& in, RowWriter* w) {
        int64_t logical[4];
        for (int i = 0; i < words; ++i) {
          DecompressKV(in.GetInt64(i), param[0].i64(), F, P, &logical[2 * i],
                       &logical[2 * i + 1]);
        }
        for (size_t c = 0; c < cols.size(); ++c) {
          w->SetInt64(static_cast<int>(c), logical[cols[c]]);
        }
      }));
}

SubOpPtr Zipped(SubOpPtr left, SubOpPtr right) {
  if (left == nullptr) return right;
  return std::make_unique<Zip>(std::move(left), std::move(right));
}

/// Materializes partitioned value `v` (rows of `schema`) as a pipeline and
/// returns its name. The §4.1 two-level radix exchange: one MPI network
/// pass per input (identity hash — the keys are pre-mixed), zipped by
/// network partition; inside each, LocalHistogram → LocalPartition →
/// CartesianProduct (re-attaching the network pid) per input, zipped by
/// local partition; then `v.stream` per local-partition tuple.
std::string AddPartitioned(PipelinePlan* plan, LoweringContext* ctx,
                           const Partitioned& v, const Schema& schema) {
  const bool fused = ctx->fused;
  SubOpPtr net_zip;
  for (const ExchangedInput& in : v.inputs) {
    plans::ExchangeConfig cfg = BaseExchangeConfig(*ctx, in.schema, in.key_col);
    cfg.compress = in.compress;
    cfg.domain_bits = ctx->exec.key_domain_bits;
    std::string base = in.name + "_x" + std::to_string(ctx->next_exchange++);
    net_zip = Zipped(std::move(net_zip),
                     plan->MakeRef(plans::AddExchangePipelines(
                         plan, base, in.source, cfg)));
  }

  auto local = std::make_unique<PipelinePlan>();
  SubOpPtr local_zip;
  for (size_t i = 0; i < v.inputs.size(); ++i) {
    const ExchangedInput& in = v.inputs[i];
    RadixSpec spec;
    spec.bits = ctx->exec.local_radix_bits;
    // The local pass takes the key bits just above the network pass; on
    // compressed words they sit above the P value bits.
    spec.shift = in.compress ? ctx->exec.key_domain_bits
                             : ctx->exec.network_radix_bits;
    const int data = 2 * static_cast<int>(i) + 1;
    const std::string s = std::to_string(i);
    local->Add("lh" + s, std::make_unique<LocalHistogram>(
                             MaybeScan(ParamItem(data), fused), spec,
                             in.key_col, "phase.local_partition"));
    local->Add("lp" + s, std::make_unique<LocalPartition>(
                             MaybeScan(ParamItem(data), fused),
                             local->MakeRef("lh" + s), spec, in.key_col,
                             "phase.local_partition"));
    local->Add("cp" + s, std::make_unique<CartesianProduct>(
                             ParamItem(data - 1), local->MakeRef("lp" + s)));
    local_zip = Zipped(std::move(local_zip), local->MakeRef("cp" + s));
  }
  SubOpPtr rows = v.stream(0, *ctx);
  if (!v.collection) {
    rows = std::make_unique<MaterializeRowVector>(std::move(rows), schema);
  }
  local->SetOutput(std::make_unique<MaterializeRowVector>(
      MaybeScan(std::make_unique<NestedMap>(std::move(local_zip),
                                            std::move(rows)),
                fused),
      schema));

  std::string name = AllocName(ctx, "part");
  plan->Add(name, std::make_unique<MaterializeRowVector>(
                      MaybeScan(std::make_unique<NestedMap>(
                                    std::move(net_zip), std::move(local)),
                                fused),
                      schema));
  return name;
}

/// Turns a partitioned `v` into a materialized pipeline; no-op otherwise.
void Materialize(LoweredPlan* v, PipelinePlan* plan, LoweringContext* ctx) {
  if (v->partitioned == nullptr) return;
  v->pipeline = AddPartitioned(plan, ctx, *v->partitioned, v->schema);
  v->partitioned = nullptr;
}

/// Position of input column `col` in the output of `proj` (null = no
/// projection), or -1 when the projection drops it.
int ProjectedCol(int col, const LogicalPlan* proj) {
  if (proj == nullptr) return col;
  for (size_t i = 0; i < proj->projections.size(); ++i) {
    if (proj->projections[i].passthrough_col == col) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Joins two values partitioned on the join keys inside their partitions,
/// with no new exchange: the probe stream's inputs come first in the zip,
/// so a cascade zips its relations in the order it joins them.
Result<LoweredPlan> JoinInPlace(const LogicalPlan& join,
                                const LogicalPlan* filt,
                                const LogicalPlan* proj, const LoweredPlan& b,
                                const LoweredPlan& p,
                                const LoweringContext& ctx) {
  const Partitioned& bv = *b.partitioned;
  const Partitioned& pv = *p.partitioned;
  const bool compressed = bv.compressed;
  if (pv.compressed != compressed) {
    return Status::InvalidArgument(
        "lower: an in-place join needs both inputs compressed or both raw");
  }
  const Schema& out_schema = proj != nullptr ? proj->schema : join.schema;
  const bool inner = join.join_type == JoinType::kInner;
  const int build_width = static_cast<int>(b.schema.num_fields());
  // Compressed pairs recover their keys straight into the projection.
  std::vector<int> recover_cols;
  if (compressed) {
    for (size_t c = 0; c < out_schema.num_fields(); ++c) {
      recover_cols.push_back(proj != nullptr
                                 ? proj->projections[c].passthrough_col
                                 : static_cast<int>(c));
    }
    if (filt != nullptr || std::count(recover_cols.begin(),
                                      recover_cols.end(), -1) > 0) {
      return Status::InvalidArgument(
          "lower: a compressed in-place join takes no filter and only a "
          "pass-through projection");
    }
  }

  auto v = std::make_shared<Partitioned>();
  v->inputs = pv.inputs;
  v->inputs.insert(v->inputs.end(), bv.inputs.begin(), bv.inputs.end());
  v->collection = compressed && ctx.fused;
  const int probe_inputs = static_cast<int>(pv.inputs.size());
  const Schema bs = compressed ? CompressedSchema() : b.schema;
  const Schema ps = compressed ? CompressedSchema() : p.schema;
  const int key_shift = compressed ? ctx.exec.key_domain_bits : 0;
  ExprPtr post_filter = filt != nullptr ? filt->predicate : nullptr;
  std::vector<MapOutput> post;
  if (proj != nullptr) post = proj->projections;
  const int build_key = join.build_key;
  const int probe_key = join.probe_key;
  const JoinType type = join.join_type;
  v->stream = [=, build = bv.stream, probe = pv.stream](
                  int base, const LoweringContext& ctx) -> SubOpPtr {
    SubOpPtr cur = std::make_unique<BuildProbe>(
        build(base + probe_inputs, ctx), probe(base, ctx), bs, ps, build_key,
        probe_key, type, key_shift);
    if (compressed) {
      const int words = inner ? 2 : 1;
      if (ctx.fused) {
        cur = std::make_unique<MaterializeRowVector>(
            std::move(cur), inner ? bs.Concat(ps) : ps);
      }
      return RecoverKeys(std::move(cur), 3 * base, words, recover_cols,
                         out_schema, ctx);
    }
    if (post_filter != nullptr) {
      cur = std::make_unique<Filter>(std::move(cur), post_filter);
    }
    if (!post.empty()) {
      cur = std::make_unique<MapOp>(std::move(cur), out_schema, post);
    }
    return cur;
  };
  // An inner join's output carries the key twice, either may survive.
  v->key = ProjectedCol(inner ? join.build_key : join.probe_key, proj);
  if (inner && v->key < 0) {
    v->key = ProjectedCol(build_width + join.probe_key, proj);
  }
  return LoweredPlan{"", out_schema, std::move(v)};
}

/// Aggregates a value partitioned on one of the group keys inside its
/// partitions: every group lives in exactly one partition.
LoweredPlan AggregateInPlace(const LogicalPlan& n, const LoweredPlan& in) {
  const Partitioned& iv = *in.partitioned;
  auto v = std::make_shared<Partitioned>();
  v->inputs = iv.inputs;
  const bool compressed = iv.compressed;
  const Schema in_schema = in.schema;
  v->stream = [compressed, in_schema, keys = n.group_keys, aggs = n.aggs,
               having = n.having, stream = iv.stream](
                  int base, const LoweringContext& ctx) -> SubOpPtr {
    SubOpPtr records = stream(base, ctx);
    if (compressed) {
      // Unlike the join, the keys are restored before the aggregation.
      records = RecoverKeys(std::move(records), 3 * base, 1, {0, 1},
                            in_schema, ctx);
    }
    SubOpPtr cur = std::make_unique<ReduceByKey>(std::move(records), keys,
                                                 aggs, in_schema);
    if (having != nullptr) cur = std::make_unique<Filter>(std::move(cur), having);
    return cur;
  };
  v->key = static_cast<int>(
      std::find(n.group_keys.begin(), n.group_keys.end(), iv.key) -
      n.group_keys.begin());
  return LoweredPlan{"", n.schema, std::move(v)};
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

/// Lowers `n` to a pipeline of rows, materializing a partitioned value.
Result<LoweredPlan> LowerRows(const LogicalPlan& n, PipelinePlan* plan,
                              LoweringContext* ctx, bool root = false) {
  auto v = LowerNode(n, plan, ctx, root);
  if (v.ok()) Materialize(&v.value(), plan, ctx);
  return v;
}

/// An unfiltered in-memory scan of every table column: its fragment is
/// already the scan's output.
bool IsIdentityScan(const LogicalPlan& n, const LoweringContext& ctx) {
  if (n.kind != NodeKind::kScan || n.scan_filter != nullptr ||
      ctx.scan_leaf != ScanLeafKind::kMemoryRows) {
    return false;
  }
  std::vector<int> identity(n.table_schema.num_fields());
  std::iota(identity.begin(), identity.end(), 0);
  return n.scan_cols == identity;
}

/// An explicit Exchange: a partitioned value over one input, sent on MPI
/// whatever the configured transport (tcp_exchange does not apply).
Result<LoweredPlan> LowerExchange(const LogicalPlan& n, PipelinePlan* plan,
                                  LoweringContext* ctx) {
  if (ctx->serverless) {
    return Status::InvalidArgument(
        "lower: explicit Exchange nodes lower on the MPI transport only");
  }
  const LogicalPlan& src = *n.children[0];
  if (n.compress && (!src.schema.SameLayout(KeyValueSchema()) ||
                     n.exchange_key != 0)) {
    return Status::InvalidArgument(
        "lower: a compressed Exchange sends ⟨i64 key, i64 value⟩ rows on "
        "column 0");
  }
  ExchangedInput in;
  in.schema = src.schema;
  in.key_col = n.exchange_key;
  in.compress = n.compress;
  if (IsIdentityScan(src, *ctx)) {
    // An unfiltered identity scan sends its fragment as is, with no copy.
    const int table = src.table;
    in.name = src.table_name;
    in.source = [table] { return ParamItem(table); };
  } else {
    auto rows = LowerRows(src, plan, ctx);
    if (!rows.ok()) return rows.status();
    in.name = rows.value().pipeline;
    in.source = [plan, pipe = in.name] { return plan->MakeRef(pipe); };
  }
  auto v = std::make_shared<Partitioned>();
  v->inputs.push_back(std::move(in));
  v->stream = [](int base, const LoweringContext& ctx) {
    return MaybeScan(ParamItem(3 * base + 2), ctx.fused);
  };
  v->key = n.exchange_key;
  v->compressed = n.compress;
  return LoweredPlan{"", n.schema, std::move(v)};
}

/// Whether `n` runs on the driver: it sits above the plan's Gather.
bool OnDriver(const LogicalPlan& n) {
  for (const LogicalPlanPtr& c : n.children) {
    if (c->kind == NodeKind::kGather || OnDriver(*c)) return true;
  }
  return false;
}

/// The Gather: one driver pipeline concatenating every rank's result. The
/// hook wraps the platform's executor around a factory that lowers the
/// child per rank, each on a copy of this context with fresh name state,
/// so every rank lowers the same plan with the same exchange names.
Result<LoweredPlan> LowerGather(const LogicalPlan& n, PipelinePlan* plan,
                                LoweringContext* ctx) {
  if (ctx->gather == nullptr) {
    return Status::InvalidArgument(
        "lower: a Gather needs LoweringContext::gather (the platform's "
        "executor)");
  }
  LoweringContext rank_ctx;
  rank_ctx.scan_leaf = ctx->scan_leaf;
  rank_ctx.serverless = ctx->serverless;
  rank_ctx.fused = ctx->fused;
  rank_ctx.world = ctx->world;
  rank_ctx.exec = ctx->exec;
  rank_ctx.tag = ctx->tag;
  rank_ctx.stats = ctx->stats;
  RankPlanFactory ranks = [rank_ctx, rank_root = n.children[0]](int) {
    LoweringContext fresh = rank_ctx;
    return LowerPlan(*rank_root, &fresh);
  };
  std::string name = AllocName(ctx, "gather");
  plan->Add(name, std::make_unique<MaterializeRowVector>(
                      ctx->gather(std::move(ranks), n.schema), n.schema));
  return LoweredPlan{name, n.schema};
}

/// The merge Aggregate over the gathered partials: ReduceByKey, or Reduce
/// when keyless — SQL's one identity row when every partial is empty.
/// (Only the merge may emit it: a rank's all-zero row would enter a
/// MIN/MAX merge.) HAVING filters the complete groups.
Result<LoweredPlan> LowerMerge(const LogicalPlan& n, const LoweredPlan& in,
                               PipelinePlan* plan, LoweringContext* ctx) {
  SubOpPtr rows = MaybeScan(plan->MakeRef(in.pipeline), ctx->fused);
  SubOpPtr cur;
  if (n.group_keys.empty()) {
    cur = std::make_unique<Reduce>(std::move(rows), n.aggs, in.schema,
                                   "phase.driver_merge");
  } else {
    cur = std::make_unique<ReduceByKey>(std::move(rows), n.group_keys, n.aggs,
                                        in.schema, "phase.driver_merge");
  }
  if (n.having != nullptr) {
    cur = std::make_unique<Filter>(std::move(cur), n.having);
  }
  std::string name = AllocName(ctx, "merge");
  plan->Add(name,
            std::make_unique<MaterializeRowVector>(std::move(cur), n.schema));
  return LoweredPlan{name, n.schema};
}

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
  const Partitioned* bv = b.value().partitioned.get();
  const Partitioned* pv = p.value().partitioned.get();
  if (bv != nullptr && pv != nullptr && bv->key == join.build_key &&
      pv->key == join.probe_key) {
    return JoinInPlace(join, filt, proj, b.value(), p.value(), *ctx);
  }
  Materialize(&b.value(), plan, ctx);
  Materialize(&p.value(), plan, ctx);
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
      auto child = LowerRows(*below, plan, ctx);
      if (!child.ok()) return child.status();
      // Filter and MapOp read rows in Next(), so a row-mode pull needs the
      // RowScan; a batch pull gets each collection from it zero-copy.
      SubOpPtr cur =
          std::make_unique<RowScan>(plan->MakeRef(child.value().pipeline));
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
      if (n.children[0]->kind == NodeKind::kGather) {
        return LowerMerge(n, child.value(), plan, ctx);
      }
      const Partitioned* in = child.value().partitioned.get();
      if (in != nullptr &&
          std::count(n.group_keys.begin(), n.group_keys.end(), in->key) > 0) {
        return AggregateInPlace(n, child.value());
      }
      Materialize(&child.value(), plan, ctx);
      if (root) {
        // The Gather's child aggregates locally; the merge Aggregate above
        // the Gather re-reduces the partials (SplitAtDriver).
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
      auto child = LowerRows(*n.children[0], plan, ctx);
      if (!child.ok()) return child.status();
      std::string name =
          AllocName(ctx, "sort" + std::to_string(++ctx->next_misc));
      SubOpPtr cur = std::make_unique<SortOp>(
          MaybeScan(plan->MakeRef(child.value().pipeline), ctx->fused),
          n.sort_keys, child.value().schema,
          OnDriver(n) ? "phase.driver_sort" : "phase.sort");
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
      auto child = LowerRows(*sort->children[0], plan, ctx);
      if (!child.ok()) return child.status();
      std::string name =
          AllocName(ctx, "topk" + std::to_string(++ctx->next_misc));
      SubOpPtr cur = std::make_unique<TopK>(
          MaybeScan(plan->MakeRef(child.value().pipeline), ctx->fused),
          sort->sort_keys, n.limit, child.value().schema,
          OnDriver(n) ? "phase.driver_topk" : "phase.topk");
      plan->Add(name, std::make_unique<MaterializeRowVector>(std::move(cur),
                                                             n.schema));
      return LoweredPlan{name, n.schema};
    }
    case NodeKind::kExchange:
      return LowerExchange(n, plan, ctx);
    case NodeKind::kGather:
      return LowerGather(n, plan, ctx);
  }
  return Status::InvalidArgument("lower: unknown node kind");
}

}  // namespace

Result<LoweredPlan> LowerRankPlan(const LogicalPlan& root, PipelinePlan* plan,
                                  LoweringContext* ctx) {
  const auto start = std::chrono::steady_clock::now();
  auto lowered = LowerRows(root, plan, ctx, /*root=*/true);
  if (ctx->stats != nullptr) {
    ctx->stats->AddTime(
        "planner.time.lower",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  }
  return lowered;
}

Result<SubOpPtr> LowerPlan(const LogicalPlan& root, LoweringContext* ctx) {
  auto plan = std::make_unique<PipelinePlan>();
  MODULARIS_ASSIGN_OR_RETURN(LoweredPlan out,
                             LowerRankPlan(root, plan.get(), ctx));
  plan->SetOutput(plan->MakeRef(out.pipeline));
  return SubOpPtr(std::move(plan));
}

Result<DriverSpec> SplitAtDriver(LogicalPlanPtr root) {
  // The driver tail, top first: LIMIT → ORDER BY → [finalize Project].
  std::vector<LogicalPlanPtr> tail;
  LogicalPlanPtr cur = std::move(root);
  if (cur->kind == NodeKind::kLimit) {
    if (cur->children[0]->kind != NodeKind::kSort) {
      return Status::InvalidArgument(
          "SplitAtDriver: LIMIT without ORDER BY has no deterministic "
          "result");
    }
    tail.push_back(cur);
    cur = cur->children[0];
  }
  if (cur->kind == NodeKind::kSort) {
    tail.push_back(cur);
    cur = cur->children[0];
  }
  if (cur->kind == NodeKind::kProject &&
      cur->children[0]->kind == NodeKind::kAggregate) {
    tail.push_back(cur);
    cur = cur->children[0];
  }
  DriverSpec spec;
  if (cur->kind == NodeKind::kAggregate) {
    // The ranks aggregate their shards; the driver re-reduces the
    // partials. Partial SUM/MIN/MAX merge by the same function, partial
    // COUNTs merge by summing. The HAVING moves to the merge, where the
    // groups are complete.
    const int nkeys = static_cast<int>(cur->group_keys.size());
    std::vector<int> keys(nkeys);
    std::iota(keys.begin(), keys.end(), 0);
    std::vector<AggSpec> merge;
    for (size_t i = 0; i < cur->aggs.size(); ++i) {
      const AggSpec& a = cur->aggs[i];
      merge.push_back(
          AggSpec{a.kind == AggKind::kCount ? AggKind::kSum : a.kind,
                  ex::Col(nkeys + static_cast<int>(i)), a.name, a.out_type});
    }
    auto partial = std::make_shared<LogicalPlan>(*cur);
    partial->having = nullptr;
    spec.rank_root = partial;
    cur = lp::Aggregate(lp::Gather(partial), std::move(keys),
                        std::move(merge), cur->having);
  } else {
    spec.rank_root = cur;
    cur = lp::Gather(cur);
  }
  // Re-stack the tail over the Gather (or the merge), bottom up.
  for (auto it = tail.rbegin(); it != tail.rend(); ++it) {
    auto node = std::make_shared<LogicalPlan>(**it);
    node->children = {cur};
    cur = std::move(node);
  }
  spec.root = std::move(cur);
  return spec;
}

}  // namespace modularis::planner
