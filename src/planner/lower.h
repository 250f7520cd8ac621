#ifndef MODULARIS_PLANNER_LOWER_H_
#define MODULARIS_PLANNER_LOWER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rank_executor.h"
#include "core/stats.h"
#include "planner/logical_plan.h"
#include "plans/common.h"

/// \file lower.h
/// Lowering from the logical-plan IR to the sub-operator DAG — one
/// lowering for the TPC-H queries and the Fig. 3–5 KV plans, for the
/// ranks and the driver alike.
///
/// A query is one tree:
///
///  * SplitAtDriver places a Gather below the driver-side tail of the
///    logical root — LIMIT → ORDER BY → [finalize projection] → merge
///    aggregation — and writes that tail as ordinary nodes above it: the
///    merge is an Aggregate over the gathered partials. The Gather's
///    child, `rank_root`, is what every rank executes over its shard.
///  * LowerRankPlan emits a tree as a PipelinePlan of sub-operators. The
///    nodes above the Gather lower through the same cases as a rank's
///    (the merge Aggregate to ReduceByKey, or Reduce when keyless; Sort,
///    Limit, Project, HAVING), under `phase.driver_*` timers. The Gather
///    lowers to one pipeline over the platform's executor, built by the
///    LoweringContext::gather hook from a factory that lowers `rank_root`
///    per rank on a fresh copy of the context (the Figs. 6/7 executor
///    as a sub-operator of the driver's plan).
///  * The scan leaves (ScanLeafKind), the exchange transport
///    (LoweringContext::serverless + ExecOptions::tcp_exchange, routed
///    through plans::AddExchangePipelines) and the gather hook are the
///    only plan fragments that differ per platform — the paper's Figs.
///    6/7 in one lowering.
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

/// The driver side of a Gather: returns the source of every rank's
/// result, rows of `schema` (concatenated in rank order by the Gather's
/// pipeline) — the platform's executor running `ranks`, plus whatever
/// read-back the platform needs. It is to the driver what ScanLeafKind is
/// to the leaves.
using GatherHook =
    std::function<SubOpPtr(RankPlanFactory ranks, const Schema& schema)>;

/// Lowering environment. A Gather lowers its child per rank on a copy
/// with fresh name state, so exchange names and S3 object prefixes agree
/// on every rank.
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
  /// Required to lower a Gather; rank plans never need it.
  GatherHook gather;

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
/// pipeline holding its result. The caller still owns SetOutput. A root
/// Aggregate (the Gather's child when lowered per rank) aggregates
/// locally: the merge above the Gather completes it.
Result<LoweredPlan> LowerRankPlan(const LogicalPlan& root, PipelinePlan* plan,
                                  LoweringContext* ctx);

/// LowerRankPlan into a fresh PipelinePlan whose output streams the
/// result: a runnable plan (a rank's, or a whole split query's).
Result<SubOpPtr> LowerPlan(const LogicalPlan& root, LoweringContext* ctx);

/// A logical root split at the driver.
struct DriverSpec {
  /// The whole query with a Gather at the split (see SplitAtDriver).
  LogicalPlanPtr root;
  /// The Gather's child: the subtree every rank executes.
  LogicalPlanPtr rank_root;
};

/// Places a Gather below LIMIT → ORDER BY → [finalize projection] →
/// aggregation. An aggregation splits in two: the ranks aggregate their
/// shards (its HAVING removed), and a merge Aggregate above the Gather
/// re-reduces the partials — keys 0..k-1, a partial COUNT merged as SUM,
/// the HAVING over the complete groups. Fails only on shapes with no
/// distributed execution (LIMIT without ORDER BY).
Result<DriverSpec> SplitAtDriver(LogicalPlanPtr root);

}  // namespace modularis::planner

#endif  // MODULARIS_PLANNER_LOWER_H_
