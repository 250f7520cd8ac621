#include "core/pipeline.h"

namespace modularis {

Status PipelineRef::Open(ExecContext* ctx) {
  MODULARIS_RETURN_NOT_OK(SubOperator::Open(ctx));
  auto it = plan_->results_.find(pipeline_name_);
  if (it == plan_->results_.end()) {
    return Status::Internal("PipelineRef: pipeline '" + pipeline_name_ +
                            "' has not materialized yet");
  }
  result_ = &it->second;
  row_pos_ = 0;
  tuple_pos_ = 0;
  return Status::OK();
}

bool PipelineRef::Next(Tuple* out) {
  if (result_ == nullptr) return false;
  if (result_->rows != nullptr && row_pos_ < result_->rows->size()) {
    out->clear();
    out->push_back(Item(result_->rows->row(row_pos_++)));
    return true;
  }
  if (tuple_pos_ >= result_->tuples.size()) return false;
  *out = result_->tuples[tuple_pos_++];
  return true;
}

bool PipelineRef::NextBatch(RowBatch* out) {
  out->Clear();
  if (result_ == nullptr) return false;
  if (result_->rows != nullptr && row_pos_ < result_->rows->size()) {
    out->BorrowRange(result_->rows, row_pos_,
                     result_->rows->size() - row_pos_);
    out->MarkDurable();  // plan-owned materialization, read-only
    row_pos_ = result_->rows->size();
    return true;
  }
  if (tuple_pos_ < result_->tuples.size()) {
    return SubOperator::NextBatch(out);
  }
  return false;
}

SubOpPtr PipelineRef::CloneForWorker(WorkerCloneContext* cc) const {
  const PipelinePlan* plan = plan_;
  auto it = cc->plan_remap.find(plan_);
  if (it != cc->plan_remap.end()) {
    plan = static_cast<const PipelinePlan*>(it->second);
  }
  return std::make_unique<PipelineRef>(plan, pipeline_name_);
}

SubOpPtr PipelinePlan::CloneForWorker(WorkerCloneContext* cc) const {
  auto clone = std::make_unique<PipelinePlan>();
  // Register the mapping first: refs inside this plan's own pipelines
  // must re-bind to the clone, not to this (driver-owned) plan.
  cc->plan_remap[this] = clone.get();
  for (const auto& [name, root] : pipelines_) {
    SubOpPtr root_clone = root->CloneForWorker(cc);
    if (root_clone == nullptr) return nullptr;
    clone->Add(name, std::move(root_clone));
  }
  if (output_ != nullptr) {
    SubOpPtr out_clone = output_->CloneForWorker(cc);
    if (out_clone == nullptr) return nullptr;
    clone->SetOutput(std::move(out_clone));
  }
  return clone;
}

Status PipelinePlan::Materialize(SubOperator* root, PipelineResult* sink) {
  // Declared record streams drain through the pull path straight into
  // one packed RowVector.
  if (root->ProducesRecordStream()) {
    RowBatch batch;
    while (root->PullBatch(&batch)) {
      if (sink->rows == nullptr) sink->rows = RowVector::Make(batch.schema());
      if (sink->rows->empty()) sink->rows->Reserve(batch.size());
      sink->rows->AppendRawBatch(batch.data(), batch.size());
    }
    return root->status();
  }
  bool demoted = false;
  Tuple t;
  // Demotion (rare, mixed streams only): move already-packed rows into
  // owned single-row tuples so the original tuple order is preserved.
  auto demote = [&] {
    if (sink->rows != nullptr) {
      for (size_t i = 0; i < sink->rows->size(); ++i) {
        Tuple row_tuple{Item(sink->rows->row(i))};
        sink->tuples.push_back(OwnTuple(row_tuple, &arena_));
      }
      sink->rows.reset();
    }
    demoted = true;
  };
  while (root->Next(&t)) {
    // Rows pack only while the stream is still all-rows; once any
    // non-row tuple arrived, later rows go to the tuple list too so
    // PipelineRef replays the stream in its original order.
    if (!demoted && sink->tuples.empty() && t.size() == 1 &&
        t[0].is_row()) {
      const RowRef& row = t[0].row();
      if (sink->rows == nullptr) sink->rows = RowVector::Make(row.schema());
      sink->rows->AppendRaw(row.data());
      continue;
    }
    if (!demoted && sink->rows != nullptr) demote();
    sink->tuples.push_back(OwnTuple(t, &arena_));
  }
  return root->status();
}

Status PipelinePlan::Open(ExecContext* ctx) {
  ctx_ = ctx;
  status_ = Status::OK();
  results_.clear();
  arena_.clear();
  for (auto& [name, root] : pipelines_) {
    MODULARIS_RETURN_NOT_OK(root->Open(ctx));
    MODULARIS_RETURN_NOT_OK(Materialize(root.get(), &results_[name]));
    MODULARIS_RETURN_NOT_OK(root->Close());
  }
  if (output_ == nullptr) {
    return Status::Internal("PipelinePlan: no output pipeline set");
  }
  return output_->Open(ctx);
}

bool PipelinePlan::Next(Tuple* out) {
  if (output_->Next(out)) return true;
  if (!output_->status().ok()) return Fail(output_->status());
  return false;
}

bool PipelinePlan::NextBatch(RowBatch* out) {
  if (output_->NextBatch(out)) return true;
  if (!output_->status().ok()) return Fail(output_->status());
  return false;
}

Status PipelinePlan::Close() {
  results_.clear();
  arena_.clear();
  return output_ != nullptr ? output_->Close() : Status::OK();
}

}  // namespace modularis
