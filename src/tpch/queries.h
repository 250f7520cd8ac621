#ifndef MODULARIS_TPCH_QUERIES_H_
#define MODULARIS_TPCH_QUERIES_H_

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.h"
#include "mpi/mpi_ops.h"
#include "planner/cost.h"
#include "planner/lower.h"
#include "serverless/lambda.h"
#include "serverless/s3select.h"
#include "serverless/serverless_ops.h"
#include "tpch/generator.h"
#include "tpch/reference.h"

/// \file queries.h
/// The eight evaluated TPC-H queries across the three platforms of the
/// paper (§4.4, §4.5, Figs. 6–8). Each query is declared once as a
/// logical plan (TpchLogicalPlan); the planner optimizes it, splits it at
/// the driver and lowers the whole tree — driver tail, executor and rank
/// plans — to one sub-operator DAG. Only the executor (TpchGather),
/// exchange and scan leaves change per platform, the modularity claim
/// under test.

namespace modularis::tpch {

/// Execution platform, matching the Fig. 8 configurations.
enum class Platform {
  kRdma,       // MPI executor, in-memory base tables ("w/o disc")
  kRdmaDisc,   // MPI executor, ColumnFiles on NFS-profile storage
  kLambda,     // serverless workers, ColumnFiles on S3, S3 exchange
  kS3Select,   // serverless workers, CSV on S3, pushdown into smart storage
};

const char* PlatformName(Platform platform);

struct TpchRunOptions {
  Platform platform = Platform::kRdma;
  /// Ranks (RDMA) or workers (serverless; must be a power of two).
  int world_size = 4;
  net::FabricOptions fabric;
  serverless::LambdaOptions lambda;
  serverless::S3SelectOptions s3select;
  /// Storage profile for base-table files (NFS for kRdmaDisc, S3 for
  /// serverless platforms).
  storage::BlobClientOptions storage;
  ExecOptions exec;

  /// Convenience constructors per platform with paper-calibrated
  /// profiles.
  static TpchRunOptions Rdma(int ranks, bool with_disc = false);
  static TpchRunOptions Lambda(int workers);
  static TpchRunOptions S3Select(int workers);
};

/// Number of tables a plan's parameter tuple carries (lineitem, orders,
/// customer, part).
inline constexpr int kNumPlanTables = 4;

/// Platform-prepared database: in-memory fragments and/or stored files.
/// Non-copyable (owns the object store).
struct TpchContext {
  Platform platform;
  int world_size = 0;
  /// frags[table][rank] (kRdma), tables ordered lineitem, orders,
  /// customer, part: rank r holds rows r, r + world, ... in order.
  std::vector<std::vector<ColumnTablePtr>> frags;
  /// paths[table][shard] into `store`.
  std::vector<std::vector<std::string>> paths;
  /// Total rows per table (catalog statistics for the planner).
  std::array<size_t, kNumPlanTables> table_rows{};
  std::unique_ptr<storage::BlobStore> store;
  std::unique_ptr<serverless::S3SelectEngine> s3select;
};

/// Prepares the database for a platform (fragments, files, CSV objects).
Result<std::unique_ptr<TpchContext>> PrepareTpch(const TpchTables& db,
                                                 const TpchRunOptions& opts);

/// The declarative logical plan of query `query` (1, 3, 4, 6, 12, 14,
/// 18, 19): the full tree including the driver tail, authored over the
/// full table schemas. Predicate pushdown, constant folding, join
/// ordering and column pruning are the planner's job, not the query
/// author's.
Result<planner::LogicalPlanPtr> TpchLogicalPlan(int query);

/// Planner catalog: per-table row counts (from a prepared context's
/// `table_rows`) plus hardcoded TPC-H domain statistics (distinct counts
/// and date/value ranges from the spec).
planner::Catalog TpchCatalog(const std::array<size_t, kNumPlanTables>& rows);

/// The driver side of a Gather on `opts.platform` — the
/// planner::GatherHook RunTpchPlan installs. Returns the platform's
/// executor running `ranks` on every rank or worker with its table
/// fragments or shard paths, yielding the ranks' results as rows of
/// `schema`: MpiExecutor (each disc rank reading through its own
/// NFS-profile client), or LambdaExecutor whose workers publish their
/// results as column files under `tag` that the driver reads back
/// (MaterializeColumnFile → ColumnFileScan, Fig. 7). The driver context
/// needs a blob client on the serverless platforms. Public so hand-built
/// rank plans run through the same executors.
SubOpPtr TpchGather(const TpchContext& ctx, const TpchRunOptions& opts,
                    const std::string& tag, RankPlanFactory ranks,
                    const Schema& schema);

/// Runs a logical plan over the TPC-H tables on the prepared context,
/// optimized or as authored: SplitAtDriver → LowerPlan → drain, under
/// one driver ExecContext (memory budget, the context's store for
/// spills, `stats`, a driver blob client on serverless). `opts` must
/// name the platform and world size the context was prepared for.
/// Reports the driver's own budget peak as `mem.peak_bytes`.
Result<RowVectorPtr> RunTpchPlan(planner::LogicalPlanPtr root,
                                 const TpchContext& ctx,
                                 const TpchRunOptions& opts,
                                 StatsRegistry* stats);

/// Runs query `query` on the prepared context: TpchLogicalPlan →
/// Optimize → RunTpchPlan. Returns the final result rows (schema per
/// reference.h).
Result<RowVectorPtr> RunTpchQuery(int query, const TpchContext& ctx,
                                  const TpchRunOptions& opts,
                                  StatsRegistry* stats);

}  // namespace modularis::tpch

#endif  // MODULARIS_TPCH_QUERIES_H_
