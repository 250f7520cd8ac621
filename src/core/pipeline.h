#ifndef MODULARIS_CORE_PIPELINE_H_
#define MODULARIS_CORE_PIPELINE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/sub_operator.h"

/// \file pipeline.h
/// The execution model on DAGs (paper §3.3): plans are cut into pipelines
/// wherever a result has several consumers; each pipeline is a tree
/// executed with the iterator model, and pipelines materialize their
/// results so that multiple downstream pipelines can read them.
///
/// Record-stream pipelines materialize as one packed RowVector (drained
/// through SubOperator::PullBatch); non-record pipelines (⟨pid,
/// collection⟩ pairs, histograms, ...) keep the generic tuple
/// representation. PipelineRef replays either form and serves the
/// packed form zero-copy to batch-aware consumers.
///
/// PipelinePlan is itself a sub-operator, so nested plans (inside
/// NestedMap) can be pipelined too — their pipelines re-execute on every
/// nested invocation, which is exactly the per-partition-pair behaviour
/// of Fig. 3.

namespace modularis {

class PipelinePlan;

/// Materialized result of one intermediate pipeline: packed rows for
/// record streams, generic tuples otherwise (mixed streams demote to
/// tuples to preserve order).
struct PipelineResult {
  RowVectorPtr rows;
  std::vector<Tuple> tuples;
};

/// Source operator reading the materialized result of an earlier pipeline
/// of the enclosing PipelinePlan.
class PipelineRef : public SubOperator {
 public:
  PipelineRef(const PipelinePlan* plan, std::string pipeline_name)
      : SubOperator("PipelineRef(" + pipeline_name + ")"),
        plan_(plan),
        pipeline_name_(std::move(pipeline_name)) {}

  Status Open(ExecContext* ctx) override;
  bool Next(Tuple* out) override;
  /// Record stream iff the materialized result is purely packed rows.
  bool ProducesRecordStream() const override {
    return result_ != nullptr && result_->rows != nullptr &&
           result_->tuples.empty();
  }
  /// Serves the packed remainder of a record-stream result as one
  /// zero-copy batch; falls back to the adapter for tuple results.
  bool NextBatch(RowBatch* out) override;
  /// Re-binds to the worker clone of the owning plan when the clone
  /// context has one; otherwise keeps reading the original plan's
  /// results (materialized before workers start, hence read-only).
  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override;

 private:
  const PipelinePlan* plan_;
  std::string pipeline_name_;
  const PipelineResult* result_ = nullptr;
  size_t row_pos_ = 0;
  size_t tuple_pos_ = 0;
};

/// An ordered list of materializing pipelines plus one streamed output
/// pipeline. Open() runs the intermediate pipelines in order (each fully
/// drained into a named result); Next() streams the output pipeline.
class PipelinePlan : public SubOperator {
 public:
  PipelinePlan() : SubOperator("PipelinePlan") {}

  /// Appends an intermediate pipeline; its result is readable by later
  /// pipelines through MakeRef(name).
  void Add(std::string name, SubOpPtr root) {
    pipelines_.emplace_back(std::move(name), std::move(root));
  }

  /// Sets the final (streamed) pipeline. Must be called exactly once.
  void SetOutput(SubOpPtr root) { output_ = std::move(root); }

  /// Creates a source reading pipeline `name`'s materialized result.
  SubOpPtr MakeRef(const std::string& name) const {
    return std::make_unique<PipelineRef>(this, name);
  }

  /// Read-only structure accessors, used by the EXPLAIN renderer
  /// (planner/explain.h) to walk the plan without executing it.
  size_t num_pipelines() const { return pipelines_.size(); }
  const std::string& pipeline_name(size_t i) const {
    return pipelines_[i].first;
  }
  const SubOperator* pipeline_root(size_t i) const {
    return pipelines_[i].second.get();
  }
  const SubOperator* output_op() const { return output_.get(); }

  Status Open(ExecContext* ctx) override;
  bool Next(Tuple* out) override;
  bool ProducesRecordStream() const override {
    return output_ != nullptr && output_->ProducesRecordStream();
  }
  bool NextBatch(RowBatch* out) override;
  Status Close() override;
  /// Clones the whole plan (intermediate pipelines, output pipeline and
  /// the refs between them) for a parallel worker; each clone
  /// re-materializes its own results on Open(). Null if any pipeline root
  /// is not parallel-safe.
  SubOpPtr CloneForWorker(WorkerCloneContext* cc) const override;

 private:
  friend class PipelineRef;

  /// Drains one pipeline root into `sink` (packed rows when the stream
  /// turns out to be a record stream, tuples otherwise).
  Status Materialize(SubOperator* root, PipelineResult* sink);

  std::vector<std::pair<std::string, SubOpPtr>> pipelines_;
  SubOpPtr output_;
  std::map<std::string, PipelineResult> results_;
  std::vector<RowVectorPtr> arena_;
};

}  // namespace modularis

#endif  // MODULARIS_CORE_PIPELINE_H_
