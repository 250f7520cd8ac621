#ifndef MODULARIS_PLANNER_LOGICAL_PLAN_H_
#define MODULARIS_PLANNER_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/expr.h"
#include "core/types.h"
#include "serverless/serverless_ops.h"
#include "suboperators/agg_ops.h"
#include "suboperators/basic_ops.h"
#include "suboperators/join_ops.h"

/// \file logical_plan.h
/// The platform-independent logical-plan IR. Queries are declared as a
/// tree of immutable LogicalPlan nodes with schemas resolved at
/// construction; the rewrite passes (passes.h) transform the tree, and
/// the lowering pass (lower.h) emits the sub-operator DAG — scan leaves,
/// exchange prefixes and executors chosen per platform. This is the
/// derivation step the paper assumes above the sub-operator layer (§3.1:
/// "the optimizer compiles a query into a physical plan of
/// sub-operators"); until now every plan in the repo was hand-wired.
///
/// Nodes are held by shared_ptr<const LogicalPlan> and never mutated
/// after construction: passes rebuild the spine they change and share
/// every untouched subtree, so keeping a pre-pass plan (for EXPLAIN
/// diffs or the unoptimized-lowering oracle in tests) costs nothing.

namespace modularis::planner {

struct LogicalPlan;
using LogicalPlanPtr = std::shared_ptr<const LogicalPlan>;

enum class NodeKind {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kExchange,
  kGather,
};

const char* NodeKindName(NodeKind kind);

/// One logical operator. A single struct rather than a class hierarchy:
/// passes switch on `kind` and the per-kind payload fields below, and a
/// rebuilt node is a plain copy with a few fields replaced.
struct LogicalPlan {
  NodeKind kind = NodeKind::kScan;
  std::vector<LogicalPlanPtr> children;
  /// Output schema, resolved by the lp:: factories at construction.
  Schema schema;

  // -- kScan ----------------------------------------------------------
  /// Parameter-tuple index carrying this table's fragment (the executor
  /// parameterizes rank plans with one fragment per table).
  int table = 0;
  std::string table_name;
  Schema table_schema;
  /// Emitted columns as full-table indices, in output order. Factories
  /// start with the identity selection; projection pruning narrows it.
  std::vector<int> scan_cols;
  /// Row filter over the TABLE schema (full-table column indices), so a
  /// column only the filter reads need not be emitted. Predicate pushdown
  /// merges Filter nodes into it; the scan leaf tests it on the columns.
  ExprPtr scan_filter;
  /// Min-max pruning ranges over FULL-table column indices, extracted
  /// from scan_filter for the column-file leaves.
  std::vector<ColumnFileScan::Range> scan_ranges;

  // -- kFilter --------------------------------------------------------
  ExprPtr predicate;

  // -- kProject -------------------------------------------------------
  std::vector<MapOutput> projections;

  // -- kJoin (children = {build, probe}) ------------------------------
  JoinType join_type = JoinType::kInner;
  int build_key = 0;
  int probe_key = 0;
  /// Join-order pass verdict: may this build side be replicated via
  /// broadcast when the execution options ask for it? Defaults to true
  /// (the pre-planner behaviour: ExecOptions::broadcast_small_build
  /// trusted the plan author).
  bool broadcast_ok = true;

  // -- kAggregate -----------------------------------------------------
  std::vector<int> group_keys;
  std::vector<AggSpec> aggs;
  /// HAVING residual over the aggregate OUTPUT schema (keys ++ aggs).
  ExprPtr having;

  // -- kSort ----------------------------------------------------------
  std::vector<SortKey> sort_keys;

  // -- kLimit ---------------------------------------------------------
  size_t limit = 0;

  // -- kExchange ------------------------------------------------------
  /// Explicit repartitioning on `exchange_key` (the KV plan templates):
  /// lowered to the §4.1 two-level radix exchange, and a Join/Aggregate
  /// above inputs partitioned on its key consumes them in place. Without
  /// one, a Join/Aggregate exchanges its inputs implicitly (lower.h).
  int exchange_key = 0;
  /// Send §4.1.2 8-byte ⟨key-high, value⟩ words instead of 16-byte
  /// ⟨key, value⟩ rows; the consumer recovers the keys.
  bool compress = false;

  // -- kGather ---------------------------------------------------------
  /// No payload: the split between ranks and driver (SplitAtDriver).
  /// The child runs on every rank over its shard; the driver collects
  /// the ranks' results, concatenated in rank order, and runs the nodes
  /// above.

  const LogicalPlanPtr& child(size_t i) const { return children[i]; }
};

/// Construction helpers. Each resolves the node's output schema and
/// aborts the process on structurally invalid input (plan construction
/// is programmer-driven, not data-driven).
namespace lp {

/// Scan of table `table_name` whose fragment arrives as parameter item
/// `table`. Starts as the identity selection over `table_schema`.
LogicalPlanPtr Scan(int table, std::string table_name, Schema table_schema);

LogicalPlanPtr Filter(LogicalPlanPtr input, ExprPtr predicate);

/// Projection to `items`; `out_schema` names and types the outputs.
LogicalPlanPtr Project(LogicalPlanPtr input, std::vector<MapOutput> items,
                       Schema out_schema);

/// Hash join; output schema is build ++ probe for inner joins and the
/// probe schema for semi/anti joins (join_ops.h convention).
LogicalPlanPtr Join(LogicalPlanPtr build, LogicalPlanPtr probe, JoinType type,
                    int build_key, int probe_key);

/// Grouped aggregation; output schema is the key fields followed by one
/// field per AggSpec (ReduceByKey convention). `having` filters output
/// groups.
LogicalPlanPtr Aggregate(LogicalPlanPtr input, std::vector<int> group_keys,
                         std::vector<AggSpec> aggs, ExprPtr having = nullptr);

LogicalPlanPtr Sort(LogicalPlanPtr input, std::vector<SortKey> keys);

LogicalPlanPtr Limit(LogicalPlanPtr input, size_t limit);

/// Explicit repartitioning on `key_col` (KV plan templates); `compress`
/// sends ⟨i64 key, i64 value⟩ rows as 8-byte words (§4.1.2).
LogicalPlanPtr Exchange(LogicalPlanPtr input, int key_col,
                        bool compress = false);

/// The rank/driver split over `input` (see LogicalPlan::kGather).
LogicalPlanPtr Gather(LogicalPlanPtr input);

}  // namespace lp

}  // namespace modularis::planner

#endif  // MODULARIS_PLANNER_LOGICAL_PLAN_H_
