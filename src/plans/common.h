#ifndef MODULARIS_PLANS_COMMON_H_
#define MODULARIS_PLANS_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/exec_context.h"
#include "core/pipeline.h"
#include "core/sub_operator.h"
#include "suboperators/basic_ops.h"
#include "suboperators/radix.h"
#include "suboperators/scan_ops.h"

/// \file common.h
/// Shared helpers for the relational plan builders (distributed join,
/// GROUP BY, join sequences, TPC-H).

namespace modularis::planner {
struct LogicalPlan;
}  // namespace modularis::planner

namespace modularis::plans {

/// Wraps `src` in a RowScan unless fusion is enabled. This is the plan-
/// time operator-fusion decision (the JIT analog, DESIGN.md §1): with
/// fusion, bulk operators consume whole collections in tight loops; without
/// it, every record crosses a virtual Next() call — the "interpreted"
/// configuration measured by the ablation benchmarks.
inline SubOpPtr MaybeScan(SubOpPtr src, bool fused) {
  if (fused) return src;
  return std::make_unique<RowScan>(std::move(src));
}

/// Projection of the current parameter tuple: the ubiquitous
/// ParameterLookup → Projection prefix of nested plans (Fig. 3).
inline SubOpPtr ParamItem(int index) {
  return std::make_unique<Projection>(std::make_unique<ParameterLookup>(),
                                      std::vector<int>{index});
}

/// Declares a ParametrizedMap's callable thread-safe so the chain stays
/// clonable for the morsel-driven NestedMap workers
/// (docs/DESIGN-parallel.md). The plan builders' callables are stateless
/// lambdas capturing plan constants by value, which qualifies.
inline std::unique_ptr<ParametrizedMap> CloneSafe(
    std::unique_ptr<ParametrizedMap> pm) {
  pm->MarkCloneSafe();
  return pm;
}

/// Output schema of the normalized two-relation join:
/// ⟨key, inner payload, outer payload⟩.
inline Schema JoinOutSchema() {
  return Schema({Field::I64("key"), Field::I64("value"),
                 Field::I64("value_r")});
}

/// Drains a root operator and concatenates all collection items it yields
/// into one RowVector of `schema`.
Result<RowVectorPtr> DrainCollections(SubOperator* root, ExecContext* ctx,
                                      const Schema& schema);

/// Lowers a rank plan template with no driver tail (the Fig. 3–5 KV
/// plans) through planner::LowerRankPlan: the returned PipelinePlan's
/// output is the rank's result. A template is programmer-authored, so a
/// lowering error aborts.
SubOpPtr LowerRankTemplate(const planner::LogicalPlan& root,
                           const ExecOptions& exec);

/// Transport-specific exchange prefix (paper §4.1): everything between a
/// materialized per-rank stream and the shuffled ⟨pid, partition⟩ stream
/// that the downstream nested plan consumes. One configuration covers the
/// three platforms:
///   kMpi → LocalHistogram → MpiHistogram → MpiExchange  (one-sided RDMA)
///   kTcp → TcpExchange                                  (socket fabric)
///   kS3  → PartitionOp → GroupByPid → S3Exchange        (object store)
struct ExchangeConfig {
  enum class Transport { kMpi, kTcp, kS3 };
  Transport transport = Transport::kMpi;
  /// Plan-time fusion decision: wraps each source in RowScan when false
  /// (see MaybeScan above).
  bool fused = true;
  /// Row schema of the exchanged stream. kMpi/kTcp fix their wire stride
  /// from it, so a rank whose own input is empty still agrees with its
  /// peers.
  Schema schema;
  /// Partitioning key column of the exchanged stream.
  int key_col = 0;
  /// Radix partitioning spec (kMpi: network fan-out; kS3: one partition
  /// per worker). Passed through verbatim — callers choose the hash
  /// (TPC-H shuffles mix non-uniform keys, the KV workloads keep the
  /// identity hash of the paper's microbenchmarks).
  RadixSpec spec;
  /// kMpi only: §4.1.2 16-to-8-byte wire compression + its key domain.
  bool compress = false;
  int domain_bits = 29;
  size_t buffer_bytes = 1 << 16;
  /// kS3 only.
  std::string prefix;
  bool write_combining = true;
  RetryPolicy retry;
};

/// Appends the exchange pipelines for `cfg` to `plan`, reading the stream
/// produced by `src` (a factory — the MPI prefix consumes the source twice:
/// once for the histogram, once for the partition+write pass). Pipelines
/// are named `base` + "_lh"/"_mh"/"_mx" (kMpi), "_tcp" (kTcp) or
/// "_part"/"_s3x" (kS3); returns the name of the final pipeline, whose
/// result is the ⟨pid, partition⟩ stream of this rank's inbound data.
std::string AddExchangePipelines(PipelinePlan* plan, const std::string& base,
                                 const std::function<SubOpPtr()>& src,
                                 const ExchangeConfig& cfg);

}  // namespace modularis::plans

#endif  // MODULARIS_PLANS_COMMON_H_
