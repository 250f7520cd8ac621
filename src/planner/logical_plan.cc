#include "planner/logical_plan.h"

#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace modularis::planner {
namespace {

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "logical plan construction error: %s\n", what);
  std::abort();
}

void Require(bool ok, const char* what) {
  if (!ok) Die(what);
}

}  // namespace

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kScan:
      return "Scan";
    case NodeKind::kFilter:
      return "Filter";
    case NodeKind::kProject:
      return "Project";
    case NodeKind::kJoin:
      return "Join";
    case NodeKind::kAggregate:
      return "Aggregate";
    case NodeKind::kSort:
      return "Sort";
    case NodeKind::kLimit:
      return "Limit";
    case NodeKind::kExchange:
      return "Exchange";
    case NodeKind::kGather:
      return "Gather";
  }
  return "?";
}

namespace lp {

LogicalPlanPtr Scan(int table, std::string table_name, Schema table_schema) {
  auto n = std::make_shared<LogicalPlan>();
  n->kind = NodeKind::kScan;
  n->table = table;
  n->table_name = std::move(table_name);
  n->scan_cols.resize(table_schema.num_fields());
  std::iota(n->scan_cols.begin(), n->scan_cols.end(), 0);
  n->schema = table_schema;
  n->table_schema = std::move(table_schema);
  return n;
}

LogicalPlanPtr Filter(LogicalPlanPtr input, ExprPtr predicate) {
  Require(input != nullptr && predicate != nullptr, "Filter: null input");
  auto n = std::make_shared<LogicalPlan>();
  n->kind = NodeKind::kFilter;
  n->schema = input->schema;
  n->children.push_back(std::move(input));
  n->predicate = std::move(predicate);
  return n;
}

LogicalPlanPtr Project(LogicalPlanPtr input, std::vector<MapOutput> items,
                       Schema out_schema) {
  Require(input != nullptr, "Project: null input");
  Require(items.size() == out_schema.num_fields(),
          "Project: item count != output schema arity");
  auto n = std::make_shared<LogicalPlan>();
  n->kind = NodeKind::kProject;
  n->schema = std::move(out_schema);
  n->children.push_back(std::move(input));
  n->projections = std::move(items);
  return n;
}

LogicalPlanPtr Join(LogicalPlanPtr build, LogicalPlanPtr probe, JoinType type,
                    int build_key, int probe_key) {
  Require(build != nullptr && probe != nullptr, "Join: null input");
  Require(build_key >= 0 &&
              static_cast<size_t>(build_key) < build->schema.num_fields(),
          "Join: build key out of range");
  Require(probe_key >= 0 &&
              static_cast<size_t>(probe_key) < probe->schema.num_fields(),
          "Join: probe key out of range");
  auto n = std::make_shared<LogicalPlan>();
  n->kind = NodeKind::kJoin;
  n->schema = type == JoinType::kInner ? build->schema.Concat(probe->schema)
                                       : probe->schema;
  n->children.push_back(std::move(build));
  n->children.push_back(std::move(probe));
  n->join_type = type;
  n->build_key = build_key;
  n->probe_key = probe_key;
  return n;
}

LogicalPlanPtr Aggregate(LogicalPlanPtr input, std::vector<int> group_keys,
                         std::vector<AggSpec> aggs, ExprPtr having) {
  Require(input != nullptr, "Aggregate: null input");
  auto n = std::make_shared<LogicalPlan>();
  n->kind = NodeKind::kAggregate;
  n->schema = ReduceByKey::MakeOutputSchema(input->schema, group_keys, aggs);
  n->children.push_back(std::move(input));
  n->group_keys = std::move(group_keys);
  n->aggs = std::move(aggs);
  n->having = std::move(having);
  return n;
}

LogicalPlanPtr Sort(LogicalPlanPtr input, std::vector<SortKey> keys) {
  Require(input != nullptr, "Sort: null input");
  auto n = std::make_shared<LogicalPlan>();
  n->kind = NodeKind::kSort;
  n->schema = input->schema;
  n->children.push_back(std::move(input));
  n->sort_keys = std::move(keys);
  return n;
}

LogicalPlanPtr Limit(LogicalPlanPtr input, size_t limit) {
  Require(input != nullptr, "Limit: null input");
  auto n = std::make_shared<LogicalPlan>();
  n->kind = NodeKind::kLimit;
  n->schema = input->schema;
  n->children.push_back(std::move(input));
  n->limit = limit;
  return n;
}

LogicalPlanPtr Exchange(LogicalPlanPtr input, int key_col, bool compress) {
  Require(input != nullptr, "Exchange: null input");
  auto n = std::make_shared<LogicalPlan>();
  n->kind = NodeKind::kExchange;
  n->schema = input->schema;
  n->children.push_back(std::move(input));
  n->exchange_key = key_col;
  n->compress = compress;
  return n;
}

LogicalPlanPtr Gather(LogicalPlanPtr input) {
  Require(input != nullptr, "Gather: null input");
  auto n = std::make_shared<LogicalPlan>();
  n->kind = NodeKind::kGather;
  n->schema = input->schema;
  n->children.push_back(std::move(input));
  return n;
}

}  // namespace lp
}  // namespace modularis::planner
