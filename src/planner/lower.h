#ifndef MODULARIS_PLANNER_LOWER_H_
#define MODULARIS_PLANNER_LOWER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.h"
#include "planner/logical_plan.h"
#include "plans/common.h"

/// \file lower.h
/// Lowering from the logical-plan IR to the sub-operator DAG — one
/// lowering for the TPC-H queries and the Fig. 3–5 KV plans.
///
/// A query splits into two physical pieces:
///
///  * SplitAtDriver peels the driver-side tail off the logical root —
///    LIMIT → ORDER BY → [finalize projection] → merge aggregation —
///    leaving `rank_root`, the part every rank executes over its shard.
///    The peeled tail becomes the DriverSpec the executor's driver
///    applies to the concatenated rank partials.
///  * LowerRankPlan emits `rank_root` as a PipelinePlan of sub-operators.
///    The scan leaves (ScanLeafKind) and the exchange transport
///    (LoweringContext::serverless + ExecOptions::tcp_exchange, routed
///    through plans::AddExchangePipelines) are the only plan fragments
///    that differ per platform — the paper's Figs. 6/7 in one lowering.
///
/// Exchanges come in two kinds:
///
///  * Implicit: a Join or Aggregate whose inputs are not partitioned on
///    its key exchanges them on the platform's transport (mixed hash, no
///    local pass) and materializes its output. The TPC-H shapes are
///    exactly the hand-built ones these helpers were hoisted from
///    (tpch/queries.cc pre-planner): a lowered plan is byte-identical in
///    output to its hand-built equivalent.
///  * Explicit: an Exchange node yields a *partitioned value* — the
///    exchanged inputs in zip order plus a per-partition record stream —
///    lowered to the §4.1 two-level radix exchange on MPI (identity-hash
///    network pass, then LocalHistogram → LocalPartition →
///    CartesianProduct per input inside each network partition). A Join
///    or Aggregate over inputs partitioned on its key consumes them in
///    place; anything else materializes the value (Zip → NestedMap →
///    MaterializeRowVector) first. So the Fig. 4 naive cascade (an
///    Exchange above every stage) and the optimized one (stages consumed
///    in place, all relations zipped into one NestedMap) are both just
///    IR. An Exchange marked `compress` sends §4.1.2 8-byte words; the
///    consumer joins them on the key bits and recovers the keys after
///    the join's BuildProbe or before the ReduceByKey.

namespace modularis::planner {

/// The table source of a Scan node. Every Scan lowers to
/// MaterializeRowVector(ColumnScan(source, columns, filter)): the scan
/// tests the filter on the source's columns and writes only survivors;
/// only the source differs per kind.
enum class ScanLeafKind {
  /// In-memory column-table fragment: the parameter item itself, the
  /// ColumnScan selecting scan_cols.
  kMemoryRows,
  /// ColumnFile on NFS/S3: ColumnFileScan with projection + range
  /// pushdown (scan_cols plus the filter's columns / scan_ranges).
  kColumnFile,
  /// Smart storage: S3SelectRequest carries projection AND the full scan
  /// filter into the storage service; no residual filter remains (§4.5).
  kS3Select,
};

/// Per-rank lowering environment. Copy per rank; the exchange counter
/// then yields identical (shared) S3 object prefixes on every rank.
struct LoweringContext {
  ScanLeafKind scan_leaf = ScanLeafKind::kMemoryRows;
  /// Serverless data plane: S3Exchange instead of MPI/TCP, exchanged
  /// partitions read back via ColumnFileScan.
  bool serverless = false;
  bool fused = true;
  int world = 1;
  ExecOptions exec;
  /// Unique-per-run namespace prefixing S3 exchange objects.
  std::string tag;
  /// Receives planner.time.lower (nullable).
  StatsRegistry* stats = nullptr;

  // Name-allocation state (internal).
  int next_exchange = 0;
  int next_join = 0;
  int next_agg = 0;
  int next_misc = 0;
  std::map<std::string, int> used_names;
};

/// A value partitioned by explicit Exchange nodes, not yet materialized
/// (defined in lower.cc).
struct Partitioned;

struct LoweredPlan {
  /// Name of the pipeline holding the rank's partial result.
  std::string pipeline;
  Schema schema;
  /// Set instead of `pipeline` while the value stays partitioned; never
  /// set on what LowerRankPlan returns.
  std::shared_ptr<const Partitioned> partitioned = nullptr;
};

/// Emits `root` into `plan` as pipelines of sub-operators and returns the
/// pipeline holding the rank's result. The caller still owns SetOutput
/// (rank output handling differs per executor).
Result<LoweredPlan> LowerRankPlan(const LogicalPlan& root, PipelinePlan* plan,
                                  LoweringContext* ctx);

/// The driver-side tail of a query: what the driver applies to the
/// concatenated per-rank partials.
struct DriverSpec {
  /// The subtree every rank executes (feed this to LowerRankPlan).
  LogicalPlanPtr rank_root;
  Schema rank_schema;
  /// Re-aggregate the rank partials (rank aggregation is partial: each
  /// rank reduced only its own shard).
  bool merge = false;
  std::vector<int> merge_keys;
  std::vector<AggSpec> merge_aggs;
  /// HAVING over the merged groups (must run after the merge).
  ExprPtr merge_having;
  /// Final projection after the merge (empty = none).
  std::vector<MapOutput> finalize;
  Schema final_schema;
  std::vector<SortKey> sort;
  /// 0 = no limit; otherwise requires a sort (TopK).
  size_t limit = 0;
};

/// Splits the logical root into rank subtree + driver tail. Fails only
/// on shapes with no distributed execution (LIMIT without ORDER BY).
Result<DriverSpec> SplitAtDriver(LogicalPlanPtr root);

}  // namespace modularis::planner

#endif  // MODULARIS_PLANNER_LOWER_H_
