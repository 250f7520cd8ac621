#include "planner/kv_lower.h"

#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mpi/mpi_ops.h"
#include "suboperators/agg_ops.h"
#include "suboperators/join_ops.h"
#include "suboperators/partition_ops.h"

namespace modularis::planner {
namespace {

using plans::MaybeScan;
using plans::ParamItem;

/// ⟨key, sum⟩ — the GROUP BY template's output.
Schema KvGroupByOutSchema() {
  return Schema({Field::I64("key"), Field::I64("sum")});
}

/// The KV network exchange triple over `src`'s rows of `schema`. The
/// cascade variants keep full keys on the wire at every stage; the
/// pairwise join/group-by compress per KvLowerOptions and carry the
/// key-domain width for bit recovery.
std::string AddNetExchange(PipelinePlan* plan, const std::string& base,
                           const std::function<SubOpPtr()>& src,
                           const Schema& schema, const KvLowerOptions& opts,
                           bool compress, bool carry_domain_bits) {
  plans::ExchangeConfig cfg;
  cfg.transport = plans::ExchangeConfig::Transport::kMpi;
  cfg.fused = opts.exec.enable_fusion;
  cfg.schema = schema;
  cfg.key_col = 0;
  cfg.spec.bits = opts.exec.network_radix_bits;
  cfg.spec.shift = 0;  // hash stays kIdentity — KV keys are pre-mixed
  cfg.compress = compress;
  if (carry_domain_bits) cfg.domain_bits = opts.exec.key_domain_bits;
  cfg.buffer_bytes = opts.exec.exchange_buffer_bytes;
  return plans::AddExchangePipelines(plan, base, src, cfg);
}

// ---------------------------------------------------------------------------
// Pairwise join emission (Fig. 3)
// ---------------------------------------------------------------------------

/// Builds the innermost nested plan (per local-partition pair): hash
/// build-and-probe plus recovery of the compressed key bits.
/// Parameter tuple: ⟨pid, lpid, data_inner, pid, lpid, data_outer⟩.
SubOpPtr BuildProbeNestedPlan(const KvLowerOptions& opts, JoinType join_type,
                              const Schema& part_schema) {
  const bool fused = opts.exec.enable_fusion;
  auto build = MaybeScan(ParamItem(2), fused);
  auto probe = MaybeScan(ParamItem(5), fused);
  const int F = opts.exec.network_radix_bits;
  const int P = opts.exec.key_domain_bits;
  auto bp = std::make_unique<BuildProbe>(
      std::move(build), std::move(probe), part_schema, part_schema,
      /*build_key_col=*/0, /*probe_key_col=*/0, join_type,
      /*key_shift=*/opts.compress ? P : 0);

  SubOpPtr transformed;
  Schema out_schema;
  if (join_type == JoinType::kInner) {
    out_schema = plans::JoinOutSchema();
    if (opts.compress && fused) {
      // Fused form: materialize the compressed pairs once, then recover
      // the key bits in one tight loop (the JIT-inlined UDF analog).
      Schema pair_schema = part_schema.Concat(part_schema);
      auto pairs = std::make_unique<MaterializeRowVector>(std::move(bp),
                                                          pair_schema);
      Schema out = out_schema;
      return plans::CloneSafe(std::make_unique<ParametrizedMap>(
          ParamItem(0), std::move(pairs), out_schema,
          ParametrizedMap::BulkFn(
              [F, P, out](const Tuple& param, const RowVector& in) {
                RowVectorPtr res = RowVector::Make(out);
                res->Reserve(in.size());
                const int64_t pid = param[0].i64();
                const uint32_t stride = in.row_size();
                const uint8_t* p = in.data();
                uint8_t row[24];
                for (size_t i = 0; i < in.size(); ++i, p += stride) {
                  int64_t word, word_r;
                  std::memcpy(&word, p, 8);
                  std::memcpy(&word_r, p + 8, 8);
                  int64_t key, value, key_r, value_r;
                  DecompressKV(word, pid, F, P, &key, &value);
                  DecompressKV(word_r, pid, F, P, &key_r, &value_r);
                  std::memcpy(row, &key, 8);
                  std::memcpy(row + 8, &value, 8);
                  std::memcpy(row + 16, &value_r, 8);
                  res->AppendRaw(row);
                }
                return res;
              })));
    }
    if (opts.compress) {
      // ⟨word, word_r⟩ → ⟨key, value, value_r⟩ given the network pid.
      transformed = plans::CloneSafe(std::make_unique<ParametrizedMap>(
          ParamItem(0), std::move(bp), out_schema,
          [F, P](const Tuple& param, const RowRef& in, RowWriter* w) {
            int64_t pid = param[0].i64();
            int64_t key, value, key_r, value_r;
            DecompressKV(in.GetInt64(0), pid, F, P, &key, &value);
            DecompressKV(in.GetInt64(1), pid, F, P, &key_r, &value_r);
            w->SetInt64(0, key);
            w->SetInt64(1, value);
            w->SetInt64(2, value_r);
          }));
    } else {
      // ⟨key, value, key_r, value_r⟩ → ⟨key, value, value_r⟩.
      transformed = std::make_unique<MapOp>(
          std::move(bp), out_schema,
          std::vector<MapOutput>{MapOutput::Pass(0), MapOutput::Pass(1),
                                 MapOutput::Pass(3)});
    }
  } else {
    // Semi/anti joins emit the surviving probe records.
    out_schema = KeyValueSchema();
    if (opts.compress) {
      transformed = plans::CloneSafe(std::make_unique<ParametrizedMap>(
          ParamItem(0), std::move(bp), out_schema,
          [F, P](const Tuple& param, const RowRef& in, RowWriter* w) {
            int64_t key, value;
            DecompressKV(in.GetInt64(0), param[0].i64(), F, P, &key, &value);
            w->SetInt64(0, key);
            w->SetInt64(1, value);
          }));
    } else {
      transformed = std::make_unique<MapOp>(
          std::move(bp), out_schema,
          std::vector<MapOutput>{MapOutput::Pass(0), MapOutput::Pass(1)});
    }
  }
  return std::make_unique<MaterializeRowVector>(std::move(transformed),
                                                out_schema);
}

/// Builds the first nested plan (per network-partition pair): local
/// histograms + cache-conscious local partitioning on both sides, pid
/// re-attachment, then the inner NestedMap over local-partition pairs.
/// Parameter tuple: ⟨pid_inner, data_inner, pid_outer, data_outer⟩.
SubOpPtr BuildLocalJoinNestedPlan(const KvLowerOptions& opts,
                                  JoinType join_type,
                                  const Schema& part_schema) {
  const bool fused = opts.exec.enable_fusion;
  // The local radix pass consumes the bits just above the network pass:
  // on compressed words the key's high bits sit above the P value bits.
  RadixSpec local_spec;
  local_spec.bits = opts.exec.local_radix_bits;
  local_spec.shift = opts.compress ? opts.exec.key_domain_bits
                                   : opts.exec.network_radix_bits;

  auto plan = std::make_unique<PipelinePlan>();
  const char* lh_names[2] = {"lh_inner", "lh_outer"};
  const char* lp_names[2] = {"lp_inner", "lp_outer"};
  const char* cp_names[2] = {"cp_inner", "cp_outer"};
  for (int side = 0; side < 2; ++side) {
    int pid_item = side * 2;
    int data_item = side * 2 + 1;
    plan->Add(lh_names[side],
              std::make_unique<LocalHistogram>(
                  MaybeScan(ParamItem(data_item), fused), local_spec,
                  /*key_col=*/0, "phase.local_partition"));
    plan->Add(lp_names[side],
              std::make_unique<LocalPartition>(
                  MaybeScan(ParamItem(data_item), fused),
                  plan->MakeRef(lh_names[side]), local_spec, /*key_col=*/0,
                  "phase.local_partition"));
    plan->Add(cp_names[side],
              std::make_unique<CartesianProduct>(
                  ParamItem(pid_item), plan->MakeRef(lp_names[side])));
  }

  auto zip = std::make_unique<Zip>(plan->MakeRef(cp_names[0]),
                                   plan->MakeRef(cp_names[1]));
  auto nested = std::make_unique<NestedMap>(
      std::move(zip), BuildProbeNestedPlan(opts, join_type, part_schema));
  Schema out_schema = join_type == JoinType::kInner ? plans::JoinOutSchema()
                                                    : KeyValueSchema();
  plan->SetOutput(std::make_unique<MaterializeRowVector>(
      MaybeScan(std::move(nested), fused), out_schema));
  return plan;
}

SubOpPtr EmitKvJoin(JoinType join_type, const KvLowerOptions& opts) {
  const bool fused = opts.exec.enable_fusion;
  const Schema part_schema =
      opts.compress ? CompressedSchema() : KeyValueSchema();

  auto plan = std::make_unique<PipelinePlan>();
  const char* bases[2] = {"inner", "outer"};
  std::string mx_names[2];
  for (int side = 0; side < 2; ++side) {
    mx_names[side] = AddNetExchange(
        plan.get(), bases[side], [side]() { return ParamItem(side); },
        KeyValueSchema(), opts, /*compress=*/opts.compress,
        /*carry_domain_bits=*/true);
  }

  auto zip = std::make_unique<Zip>(plan->MakeRef(mx_names[0]),
                                   plan->MakeRef(mx_names[1]));
  auto nested = std::make_unique<NestedMap>(
      std::move(zip), BuildLocalJoinNestedPlan(opts, join_type, part_schema));
  Schema out_schema = join_type == JoinType::kInner ? plans::JoinOutSchema()
                                                    : KeyValueSchema();
  plan->SetOutput(std::make_unique<MaterializeRowVector>(
      MaybeScan(std::move(nested), fused), out_schema));
  return plan;
}

// ---------------------------------------------------------------------------
// GROUP BY emission (Fig. 5)
// ---------------------------------------------------------------------------

/// Innermost nested plan (per local partition): restore full keys, then
/// aggregate. Parameter tuple: ⟨pid, lpid, data⟩.
SubOpPtr BuildAggregateNestedPlan(const KvLowerOptions& opts) {
  const bool fused = opts.exec.enable_fusion;
  const int F = opts.exec.network_radix_bits;
  const int P = opts.exec.key_domain_bits;

  SubOpPtr records;
  if (opts.compress && fused) {
    // Fused form: restore the keys of the whole partition in one tight
    // loop (the JIT-inlined UDF analog).
    records = plans::CloneSafe(std::make_unique<ParametrizedMap>(
        ParamItem(0), ParamItem(2), KeyValueSchema(),
        ParametrizedMap::BulkFn(
            [F, P](const Tuple& param, const RowVector& in) {
              RowVectorPtr res = RowVector::Make(KeyValueSchema());
              res->Reserve(in.size());
              const int64_t pid = param[0].i64();
              const uint32_t stride = in.row_size();
              const uint8_t* p = in.data();
              uint8_t row[16];
              for (size_t i = 0; i < in.size(); ++i, p += stride) {
                int64_t word;
                std::memcpy(&word, p, 8);
                int64_t key, value;
                DecompressKV(word, pid, F, P, &key, &value);
                std::memcpy(row, &key, 8);
                std::memcpy(row + 8, &value, 8);
                res->AppendRaw(row);
              }
              return res;
            })));
  } else if (opts.compress) {
    // Restore the full keys before the ReduceByKey (paper §4.3: unlike the
    // join, recovery happens before the aggregation).
    records = plans::CloneSafe(std::make_unique<ParametrizedMap>(
        ParamItem(0), MaybeScan(ParamItem(2), fused), KeyValueSchema(),
        [F, P](const Tuple& param, const RowRef& in, RowWriter* w) {
          int64_t key, value;
          DecompressKV(in.GetInt64(0), param[0].i64(), F, P, &key, &value);
          w->SetInt64(0, key);
          w->SetInt64(1, value);
        }));
  } else {
    records = MaybeScan(ParamItem(2), fused);
  }

  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggKind::kSum, ex::Col(1), "sum", AtomType::kInt64});
  auto rk = std::make_unique<ReduceByKey>(std::move(records),
                                          std::vector<int>{0}, std::move(aggs),
                                          KeyValueSchema());
  return std::make_unique<MaterializeRowVector>(std::move(rk),
                                                KvGroupByOutSchema());
}

/// Per network-partition nested plan. Parameter tuple: ⟨pid, data⟩.
SubOpPtr BuildLocalGroupNestedPlan(const KvLowerOptions& opts) {
  const bool fused = opts.exec.enable_fusion;
  RadixSpec local_spec;
  local_spec.bits = opts.exec.local_radix_bits;
  local_spec.shift = opts.compress ? opts.exec.key_domain_bits
                                   : opts.exec.network_radix_bits;

  auto plan = std::make_unique<PipelinePlan>();
  plan->Add("lh", std::make_unique<LocalHistogram>(
                      MaybeScan(ParamItem(1), fused), local_spec,
                      /*key_col=*/0, "phase.local_partition"));
  plan->Add("lp", std::make_unique<LocalPartition>(
                      MaybeScan(ParamItem(1), fused), plan->MakeRef("lh"),
                      local_spec, /*key_col=*/0, "phase.local_partition"));
  plan->Add("cp", std::make_unique<CartesianProduct>(ParamItem(0),
                                                     plan->MakeRef("lp")));

  auto nested = std::make_unique<NestedMap>(plan->MakeRef("cp"),
                                            BuildAggregateNestedPlan(opts));
  plan->SetOutput(std::make_unique<MaterializeRowVector>(
      MaybeScan(std::move(nested), fused), KvGroupByOutSchema()));
  return plan;
}

SubOpPtr EmitKvGroupBy(const KvLowerOptions& opts) {
  const bool fused = opts.exec.enable_fusion;
  auto plan = std::make_unique<PipelinePlan>();
  std::string mx = AddNetExchange(
      plan.get(), "data", []() { return ParamItem(0); }, KeyValueSchema(),
      opts, /*compress=*/opts.compress, /*carry_domain_bits=*/true);

  auto nested = std::make_unique<NestedMap>(plan->MakeRef(mx),
                                            BuildLocalGroupNestedPlan(opts));
  plan->SetOutput(std::make_unique<MaterializeRowVector>(
      MaybeScan(std::move(nested), fused), KvGroupByOutSchema()));
  return plan;
}

// ---------------------------------------------------------------------------
// Join-cascade emission (Fig. 4)
// ---------------------------------------------------------------------------

/// Prune map after BuildProbe(build = R_j kv16, probe = S_{j-1} stream):
/// BP output = ⟨key, vj⟩ ⊕ ⟨key_p, v0..v_{j-1}⟩ → S_j = ⟨key, v0..vj⟩.
std::vector<MapOutput> PruneOutputs(int j) {
  std::vector<MapOutput> outs;
  outs.push_back(MapOutput::Pass(0));                   // key
  for (int i = 0; i < j; ++i) {
    outs.push_back(MapOutput::Pass(3 + i));             // v0..v_{j-1}
  }
  outs.push_back(MapOutput::Pass(1));                   // vj
  return outs;
}

/// Per network-partition nested plan of one *naive* stage: local-partition
/// both sides, then build-probe per local partition pair and prune.
/// Parameter tuple: ⟨pid_L, data_L, pid_R, data_R⟩ where L = S_{j-1}
/// (probe side) and R = relation j (build side).
SubOpPtr NaiveStageLocalPlan(int j, const KvLowerOptions& opts) {
  const bool fused = opts.exec.enable_fusion;
  RadixSpec local_spec;
  local_spec.bits = opts.exec.local_radix_bits;
  local_spec.shift = opts.exec.network_radix_bits;
  const Schema left_schema = KvStageSchema(j - 1);  // probe
  const Schema right_schema = KeyValueSchema();     // build
  const Schema out_schema = KvStageSchema(j);

  auto plan = std::make_unique<PipelinePlan>();
  for (int side = 0; side < 2; ++side) {
    std::string suffix = side == 0 ? "_l" : "_r";
    int data_item = side * 2 + 1;
    plan->Add("lh" + suffix,
              std::make_unique<LocalHistogram>(
                  MaybeScan(ParamItem(data_item), fused), local_spec, 0,
                  "phase.local_partition"));
    plan->Add("lp" + suffix,
              std::make_unique<LocalPartition>(
                  MaybeScan(ParamItem(data_item), fused),
                  plan->MakeRef("lh" + suffix), local_spec, 0,
                  "phase.local_partition"));
  }

  // Inner nested plan per local-partition pair:
  // param ⟨lpid_l, data_l, lpid_r, data_r⟩.
  auto inner = [&]() -> SubOpPtr {
    auto build = MaybeScan(ParamItem(3), fused);
    auto probe = MaybeScan(ParamItem(1), fused);
    auto bp = std::make_unique<BuildProbe>(
        std::move(build), std::move(probe), right_schema, left_schema, 0, 0);
    auto pruned = std::make_unique<MapOp>(std::move(bp), out_schema,
                                          PruneOutputs(j));
    return std::make_unique<MaterializeRowVector>(std::move(pruned),
                                                  out_schema);
  }();

  auto zip = std::make_unique<Zip>(plan->MakeRef("lp_l"),
                                   plan->MakeRef("lp_r"));
  auto nested = std::make_unique<NestedMap>(std::move(zip), std::move(inner));
  plan->SetOutput(std::make_unique<MaterializeRowVector>(
      MaybeScan(std::move(nested), fused), out_schema));
  return plan;
}

SubOpPtr EmitNaiveSequence(int num_joins, const KvLowerOptions& opts) {
  auto plan = std::make_unique<PipelinePlan>();
  // Stage j joins S_{j-1} (previous output, re-shuffled!) with R_j.
  for (int j = 1; j <= num_joins; ++j) {
    std::string sj = std::to_string(j);
    PipelinePlan* p = plan.get();
    auto left_src = [p, j]() -> SubOpPtr {
      if (j == 1) return ParamItem(0);
      return p->MakeRef("out_" + std::to_string(j - 1));
    };
    auto right_src = [j]() -> SubOpPtr { return ParamItem(j); };
    std::string mx_l = AddNetExchange(p, "l" + sj, left_src,
                                      KvStageSchema(j - 1), opts,
                                      /*compress=*/false,
                                      /*carry_domain_bits=*/false);
    std::string mx_r = AddNetExchange(p, "r" + sj, right_src,
                                      KeyValueSchema(), opts,
                                      /*compress=*/false,
                                      /*carry_domain_bits=*/false);
    auto zip = std::make_unique<Zip>(plan->MakeRef(mx_l),
                                     plan->MakeRef(mx_r));
    auto nested = std::make_unique<NestedMap>(std::move(zip),
                                              NaiveStageLocalPlan(j, opts));
    plan->Add("out_" + sj,
              std::make_unique<MaterializeRowVector>(
                  MaybeScan(std::move(nested), opts.exec.enable_fusion),
                  KvStageSchema(j)));
  }
  plan->SetOutput(plan->MakeRef("out_" + std::to_string(num_joins)));
  return plan;
}

/// Optimized variant: the whole cascade inside one network partition.
/// Parameter tuple: ⟨pid_0, data_0, pid_1, data_1, ..., pid_N, data_N⟩.
SubOpPtr OptimizedLocalPlan(int num_joins, const KvLowerOptions& opts) {
  const bool fused = opts.exec.enable_fusion;
  RadixSpec local_spec;
  local_spec.bits = opts.exec.local_radix_bits;
  local_spec.shift = opts.exec.network_radix_bits;

  auto plan = std::make_unique<PipelinePlan>();
  for (int i = 0; i <= num_joins; ++i) {
    std::string si = std::to_string(i);
    int data_item = 2 * i + 1;
    plan->Add("lh_" + si, std::make_unique<LocalHistogram>(
                              MaybeScan(ParamItem(data_item), fused),
                              local_spec, 0, "phase.local_partition"));
    plan->Add("lp_" + si, std::make_unique<LocalPartition>(
                              MaybeScan(ParamItem(data_item), fused),
                              plan->MakeRef("lh_" + si), local_spec, 0,
                              "phase.local_partition"));
  }

  // Inner nested plan per local-partition tuple:
  // param ⟨lpid_0, data_0, ..., lpid_N, data_N⟩ — a chain of BuildProbes,
  // the output of the (j−1)-th streaming into the j-th (paper §4.2).
  auto inner = [&]() -> SubOpPtr {
    SubOpPtr stream = MaybeScan(ParamItem(1), fused);  // S_0 records
    for (int j = 1; j <= num_joins; ++j) {
      auto build = MaybeScan(ParamItem(2 * j + 1), fused);
      auto bp = std::make_unique<BuildProbe>(
          std::move(build), std::move(stream), KeyValueSchema(),
          KvStageSchema(j - 1), 0, 0);
      stream = std::make_unique<MapOp>(std::move(bp), KvStageSchema(j),
                                       PruneOutputs(j));
    }
    return std::make_unique<MaterializeRowVector>(std::move(stream),
                                                  KvStageSchema(num_joins));
  }();

  // Zip all local partition streams into one aligned tuple stream.
  SubOpPtr zipped = plan->MakeRef("lp_0");
  for (int i = 1; i <= num_joins; ++i) {
    zipped = std::make_unique<Zip>(std::move(zipped),
                                   plan->MakeRef("lp_" + std::to_string(i)));
  }
  auto nested = std::make_unique<NestedMap>(std::move(zipped),
                                            std::move(inner));
  plan->SetOutput(std::make_unique<MaterializeRowVector>(
      MaybeScan(std::move(nested), fused), KvStageSchema(num_joins)));
  return plan;
}

SubOpPtr EmitOptimizedSequence(int num_joins, const KvLowerOptions& opts) {
  auto plan = std::make_unique<PipelinePlan>();
  // Network-partition all N+1 relations once (Fig. 4, right).
  std::vector<std::string> mx_names;
  for (int i = 0; i <= num_joins; ++i) {
    mx_names.push_back(AddNetExchange(
        plan.get(), "rel" + std::to_string(i),
        [i]() { return ParamItem(i); }, KeyValueSchema(), opts,
        /*compress=*/false, /*carry_domain_bits=*/false));
  }
  SubOpPtr zipped = plan->MakeRef(mx_names[0]);
  for (int i = 1; i <= num_joins; ++i) {
    zipped = std::make_unique<Zip>(std::move(zipped),
                                   plan->MakeRef(mx_names[i]));
  }
  auto nested = std::make_unique<NestedMap>(
      std::move(zipped), OptimizedLocalPlan(num_joins, opts));
  plan->SetOutput(std::make_unique<MaterializeRowVector>(
      MaybeScan(std::move(nested), opts.exec.enable_fusion),
      KvStageSchema(num_joins)));
  return plan;
}

// ---------------------------------------------------------------------------
// Template validation
// ---------------------------------------------------------------------------

bool IsKvScan(const LogicalPlan& n, int table) {
  return n.kind == NodeKind::kScan && n.table == table &&
         n.schema.num_fields() == 2 && n.scan_filter == nullptr;
}

/// Exchange-on-key-0 over a kv scan of `table`.
bool IsExchangedKvScan(const LogicalPlan& n, int table) {
  return n.kind == NodeKind::kExchange && n.exchange_key == 0 &&
         IsKvScan(*n.children[0], table);
}

bool IsPassList(const std::vector<MapOutput>& items,
                const std::vector<int>& cols) {
  if (items.size() != cols.size()) return false;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].passthrough_col != cols[i]) return false;
  }
  return true;
}

/// Parses one cascade stage S_j = Project(Join(X(Scan j), probe)) and
/// returns j; flags whether intermediates were re-exchanged (naive).
Result<int> ParseSequenceStage(const LogicalPlan& n, bool* naive,
                               bool* optimized) {
  if (n.kind != NodeKind::kProject ||
      n.children[0]->kind != NodeKind::kJoin) {
    return Status::InvalidArgument(
        "kv sequence template: stage must be Project(Join(...))");
  }
  const LogicalPlan& join = *n.children[0];
  if (join.join_type != JoinType::kInner || join.build_key != 0 ||
      join.probe_key != 0) {
    return Status::InvalidArgument(
        "kv sequence template: stages are inner joins on column 0");
  }
  const LogicalPlan& build = *join.children[0];
  if (build.kind != NodeKind::kExchange || build.exchange_key != 0 ||
      build.children[0]->kind != NodeKind::kScan) {
    return Status::InvalidArgument(
        "kv sequence template: build side must be an exchanged base scan");
  }
  const int j = build.children[0]->table;
  if (j < 1 || !IsKvScan(*build.children[0], j)) {
    return Status::InvalidArgument(
        "kv sequence template: stage j must build on kv relation j");
  }
  // Expected prune projection {0, 3..3+j-1, 1} (see PruneOutputs).
  std::vector<int> expect;
  expect.push_back(0);
  for (int i = 0; i < j; ++i) expect.push_back(3 + i);
  expect.push_back(1);
  if (!IsPassList(n.projections, expect)) {
    return Status::InvalidArgument(
        "kv sequence template: stage projection must prune to "
        "⟨key, v0..vj⟩");
  }

  const LogicalPlan& probe = *join.children[1];
  Result<int> below = 0;
  if (probe.kind == NodeKind::kExchange && probe.exchange_key == 0) {
    const LogicalPlan& src = *probe.children[0];
    if (src.kind == NodeKind::kScan) {
      if (!IsKvScan(src, 0)) {
        return Status::InvalidArgument(
            "kv sequence template: the cascade starts at kv relation 0");
      }
      below = 0;
    } else {
      *naive = true;  // the intermediate crosses the network again
      below = ParseSequenceStage(src, naive, optimized);
    }
  } else {
    *optimized = true;  // co-partitioned: intermediate consumed in place
    below = ParseSequenceStage(probe, naive, optimized);
  }
  if (!below.ok()) return below.status();
  if (below.value() != j - 1) {
    return Status::InvalidArgument(
        "kv sequence template: stage j must probe stage j-1");
  }
  return j;
}

}  // namespace

Schema KvStageSchema(int num_joins) {
  std::vector<Field> fields;
  fields.push_back(Field::I64("key"));
  for (int i = 0; i <= num_joins; ++i) {
    fields.push_back(Field::I64("v" + std::to_string(i)));
  }
  return Schema(std::move(fields));
}

Result<SubOpPtr> LowerKvJoin(const LogicalPlan& root,
                             const KvLowerOptions& opts) {
  const LogicalPlan* join = &root;
  if (root.kind == NodeKind::kProject) {
    if (root.children[0]->kind != NodeKind::kJoin) {
      return Status::InvalidArgument(
          "kv join template: Project must sit directly on the Join");
    }
    join = root.children[0].get();
    if (join->join_type != JoinType::kInner) {
      return Status::InvalidArgument(
          "kv join template: only inner joins project ⟨key, value, "
          "value_r⟩ (semi/anti emit the probe records as-is)");
    }
    if (!IsPassList(root.projections, {0, 1, 3})) {
      return Status::InvalidArgument(
          "kv join template: inner-join projection must be ⟨key, value, "
          "value_r⟩ = passes {0, 1, 3}");
    }
  } else if (root.kind == NodeKind::kJoin) {
    if (root.join_type == JoinType::kInner) {
      return Status::InvalidArgument(
          "kv join template: inner joins must carry the ⟨key, value, "
          "value_r⟩ projection");
    }
  } else {
    return Status::InvalidArgument(
        "kv join template: expected Join or Project(Join)");
  }
  if (join->build_key != 0 || join->probe_key != 0 ||
      !IsExchangedKvScan(*join->children[0], 0) ||
      !IsExchangedKvScan(*join->children[1], 1)) {
    return Status::InvalidArgument(
        "kv join template: expected Join on key 0 over exchanged kv "
        "scans of relations 0 and 1");
  }
  return EmitKvJoin(join->join_type, opts);
}

Result<SubOpPtr> LowerKvGroupBy(const LogicalPlan& root,
                                const KvLowerOptions& opts) {
  if (root.kind != NodeKind::kAggregate ||
      root.group_keys != std::vector<int>{0} || root.aggs.size() != 1 ||
      root.aggs[0].kind != AggKind::kSum ||
      root.aggs[0].out_type != AtomType::kInt64 ||
      root.aggs[0].input == nullptr ||
      root.aggs[0].input->AsColumnIndex() != 1 || root.having != nullptr ||
      !IsExchangedKvScan(*root.children[0], 0)) {
    return Status::InvalidArgument(
        "kv groupby template: expected SUM(value) GROUP BY key over an "
        "exchanged kv scan of relation 0");
  }
  return EmitKvGroupBy(opts);
}

Result<SubOpPtr> LowerKvSequence(const LogicalPlan& root,
                                 const KvLowerOptions& opts) {
  bool naive = false;
  bool optimized = false;
  auto stages = ParseSequenceStage(root, &naive, &optimized);
  if (!stages.ok()) return stages.status();
  if (naive && optimized) {
    return Status::InvalidArgument(
        "kv sequence template: mixed naive/optimized stages");
  }
  return naive ? EmitNaiveSequence(stages.value(), opts)
               : EmitOptimizedSequence(stages.value(), opts);
}

}  // namespace modularis::planner
