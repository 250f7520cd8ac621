#include "suboperators/basic_ops.h"

#include <algorithm>
#include <atomic>

#include "suboperators/scan_ops.h"

namespace modularis {

// ---------------------------------------------------------------------------
// NestedMap
// ---------------------------------------------------------------------------

Status NestedMap::Open(ExecContext* ctx) {
  ctx_ = ctx;
  status_ = Status::OK();
  nested_open_ = false;
  par_active_ = false;
  par_plans_.clear();
  par_workers_.reset();
  par_group_.clear();
  par_task_ = 0;
  par_out_ = 0;
  par_input_done_ = false;
  MODULARIS_RETURN_NOT_OK(child(0)->Open(ctx));

  // Parallel mode: one nested-plan clone per worker, fed input tuples
  // dynamically (partition pairs are skewed, so dynamic claiming is the
  // load-balancing lever here); outputs replay in input order. Gated on
  // enable_vectorized like every other parallel path, so the
  // row-at-a-time oracle configuration stays a genuinely single-threaded
  // reference execution.
  int threads = ctx->options.ResolvedNumThreads();
  if (threads <= 1) return Status::OK();
  if (!ctx->options.enable_vectorized) {
    NoteSerialFallback(ctx, "NestedMap");
    return Status::OK();
  }
  WorkerCloneContext cc;
  for (int w = 0; w < threads; ++w) {
    SubOpPtr clone = nested_->CloneForWorker(&cc);
    if (clone == nullptr) {
      par_plans_.clear();
      NoteSerialFallback(ctx, "NestedMap");
      return Status::OK();
    }
    par_plans_.push_back(std::move(clone));
  }
  par_workers_ = std::make_unique<WorkerSet>(ctx, threads);
  par_active_ = true;
  return Status::OK();
}

SubOpPtr NestedMap::CloneForWorker(WorkerCloneContext* cc) const {
  SubOpPtr input_clone = child(0)->CloneForWorker(cc);
  SubOpPtr nested_clone =
      input_clone == nullptr ? nullptr : nested_->CloneForWorker(cc);
  if (nested_clone == nullptr) return nullptr;
  return std::make_unique<NestedMap>(std::move(input_clone),
                                     std::move(nested_clone));
}

bool NestedMap::FillParGroup() {
  par_group_.clear();
  par_task_ = 0;
  par_out_ = 0;
  if (par_input_done_) return false;
  // Bounded group: enough tasks to keep every worker busy across skewed
  // partition sizes without materializing the whole output stream.
  const size_t group_budget = par_plans_.size() * 4;
  Tuple t;
  while (par_group_.size() < group_budget && child(0)->Next(&t)) {
    ParTask task;
    task.input = OwnTuple(t, &task.arena);
    par_group_.push_back(std::move(task));
  }
  if (par_group_.size() < group_budget) {
    par_input_done_ = true;
    if (!child(0)->status().ok()) return Fail(child(0)->status());
  }
  if (par_group_.empty()) return false;

  std::atomic<size_t> next_task{0};
  const int workers =
      static_cast<int>(std::min(par_plans_.size(), par_group_.size()));
  Status st = ParallelFor(ctx_, workers, [&](int w) -> Status {
    SubOperator* plan = par_plans_[w].get();
    ExecContext* wctx = par_workers_->ctx(w);
    Status worker_st = Status::OK();
    for (;;) {
      size_t i = next_task.fetch_add(1, std::memory_order_relaxed);
      if (i >= par_group_.size()) break;
      ParTask& task = par_group_[i];
      wctx->PushParams(&task.input);
      Status open_st = plan->Open(wctx);
      if (open_st.ok()) {
        Tuple out;
        while (plan->Next(&out)) {
          task.outputs.push_back(OwnTuple(out, &task.arena));
        }
        open_st = plan->status();
        Status close_st = plan->Close();
        if (open_st.ok()) open_st = close_st;
      }
      wctx->PopParams();
      if (!open_st.ok()) {
        worker_st = std::move(open_st);
        break;
      }
    }
    return worker_st;
  });
  par_workers_->MergeStats();
  if (!st.ok()) return Fail(std::move(st));
  return true;
}

bool NestedMap::AdvanceNested() {
  if (nested_open_) {
    if (!nested_->status().ok()) return Fail(nested_->status());
    Status st = nested_->Close();
    ctx_->PopParams();
    nested_open_ = false;
    if (!st.ok()) return Fail(st);
  }
  Tuple t;
  if (!child(0)->Next(&t)) return ChildEnd(child(0));
  // The input tuple must outlive the whole nested execution; borrowed
  // rows are copied into this operator's arena.
  arena_.clear();
  current_input_ = OwnTuple(t, &arena_);
  ctx_->PushParams(&current_input_);
  Status st = nested_->Open(ctx_);
  if (!st.ok()) {
    ctx_->PopParams();
    return Fail(st);
  }
  nested_open_ = true;
  return true;
}

bool NestedMap::Next(Tuple* out) {
  if (par_active_) {
    while (true) {
      if (par_task_ < par_group_.size()) {
        ParTask& task = par_group_[par_task_];
        if (par_out_ < task.outputs.size()) {
          *out = task.outputs[par_out_++];
          return true;
        }
        ++par_task_;
        par_out_ = 0;
        continue;
      }
      if (!FillParGroup()) return false;
    }
  }
  while (true) {
    if (nested_open_ && nested_->Next(out)) return true;
    if (!AdvanceNested()) return false;
  }
}

bool NestedMap::NextBatch(RowBatch* out) {
  // Parallel mode stores nested outputs as tuples; the shared tuple-loop
  // state machine batches them (whole collections forwarded zero-copy).
  if (par_active_) {
    return NextBatchFromTuples(out, 0, /*require_arity_one=*/true);
  }
  while (true) {
    if (nested_open_ && nested_->NextBatch(out)) return true;
    if (!AdvanceNested()) return false;
  }
}

bool NestedMap::NextBatchSelective(RowBatch* out) {
  if (par_active_) return NextBatch(out);
  while (true) {
    if (nested_open_ && nested_->NextBatchSelective(out)) return true;
    if (!AdvanceNested()) return false;
  }
}

Status NestedMap::Close() {
  Status st = Status::OK();
  if (nested_open_) {
    st = nested_->Close();
    ctx_->PopParams();
    nested_open_ = false;
  }
  par_active_ = false;
  par_plans_.clear();
  par_workers_.reset();
  par_group_.clear();
  Status cst = child(0)->Close();
  return st.ok() ? cst : st;
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

bool Projection::NextBatch(RowBatch* out) {
  // Multi-item projections keep the tuple protocol (the adapter reports
  // the arity error a batch consumer would hit anyway). The single-item
  // form batches the projected item directly through the shared tuple-
  // loop state machine — its own Next() already strips the envelope, so
  // item 0 of this operator's tuples is the projected item.
  if (indices_.size() != 1) return SubOperator::NextBatch(out);
  return NextBatchFromTuples(out, 0, /*require_arity_one=*/false);
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

bool Filter::NextBatchSelective(RowBatch* out) {
  // Multi-item streams (row_item != 0) cannot batch; the adapter
  // reports the arity error a batch consumer would hit anyway.
  if (row_item_ != 0) return SubOperator::NextBatch(out);
  out->Clear();
  while (child(0)->NextBatchSelective(&in_batch_)) {
    const size_t n = in_batch_.size();
    if (n == 0) continue;
    // The program narrows sel_ in place, so an inherited selection is
    // copied rather than aliased.
    const uint32_t* in_sel = in_batch_.SelectionOrIdentity(&sel_);
    if (in_sel != sel_.data()) {
      // An upstream-provided selection is the one entry point where a
      // contract violation could silently mis-assign lanes downstream.
      Status vst = ValidateSelection("Filter", in_sel, n);
      if (!vst.ok()) return Fail(std::move(vst));
      sel_.assign(in_sel, in_sel + n);
    }
    RowSpan span{in_batch_.data(), in_batch_.row_size(), &in_batch_.schema()};
    if (!bc_prog_.valid()) {
      bc_prog_ = BcProgram::CompileFilter(predicate_, in_batch_.schema());
      if (bc_prog_.fallback_count() > 0) {
        AddStatCounter("expr.bc_fallback.filter",
                       static_cast<int64_t>(bc_prog_.fallback_count()));
      }
    }
    Status st = bc_prog_.RunFilter(span, &sel_, &bc_state_);
    if (!st.ok()) return Fail(std::move(st));
    if (sel_.empty()) continue;
    out->BorrowFrom(in_batch_);
    if (!in_batch_.has_selection() && sel_.size() == in_batch_.dense_size()) {
      // All-pass dense batch: forward unmodified (still stealable).
      return true;
    }
    out->SetSelection(sel_.data(), sel_.size());
    return true;
  }
  return ChildEnd(child(0));
}

bool Filter::NextBatch(RowBatch* out) {
  if (row_item_ != 0) return SubOperator::NextBatch(out);
  // The selective pull already loops past empty batches, so one call
  // either yields a non-empty batch or ends the stream.
  if (!NextBatchSelective(out)) return false;  // status set by the pull
  if (!out->has_selection()) return true;  // all-pass, forwarded dense
  // Compact the surviving rows; contiguous index runs collapse into
  // one memcpy each.
  if (out_rows_ == nullptr ||
      !out_rows_->schema().Equals(in_batch_.schema())) {
    out_rows_ = RowVector::Make(in_batch_.schema());
  } else {
    out_rows_->Clear();
  }
  const size_t m = sel_.size();
  out_rows_->Reserve(m);
  const uint32_t stride = in_batch_.row_size();
  size_t i = 0;
  while (i < m) {
    size_t j = i + 1;
    while (j < m && sel_[j] == sel_[j - 1] + 1) ++j;
    out_rows_->AppendRawBatch(
        in_batch_.data() + static_cast<size_t>(sel_[i]) * stride, j - i);
    i = j;
  }
  out->Borrow(out_rows_);
  return true;
}

// ---------------------------------------------------------------------------
// MapOp
// ---------------------------------------------------------------------------

Status MapOp::WriteOutput(const RowRef& in, RowWriter* w) {
  for (size_t c = 0; c < outputs_.size(); ++c) {
    int col = static_cast<int>(c);
    const MapOutput& spec = outputs_[c];
    if (spec.passthrough_col >= 0) {
      const Field& f = in.schema().field(spec.passthrough_col);
      switch (f.type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          w->SetInt32(col, in.GetInt32(spec.passthrough_col));
          break;
        case AtomType::kInt64:
          w->SetInt64(col, in.GetInt64(spec.passthrough_col));
          break;
        case AtomType::kFloat64:
          w->SetFloat64(col, in.GetFloat64(spec.passthrough_col));
          break;
        case AtomType::kString:
          w->SetString(col, in.GetString(spec.passthrough_col));
          break;
      }
      continue;
    }
    // Checked evaluation: a string-valued IF condition (or any other
    // non-numeric predicate result inside the tree) is a hard error on
    // the row path, exactly as on the bytecode path.
    Item v;
    MODULARIS_RETURN_NOT_OK(spec.expr->EvalChecked(in, &v));
    switch (out_schema_.field(c).type) {
      case AtomType::kInt32:
      case AtomType::kDate:
        w->SetInt32(col, static_cast<int32_t>(v.i64()));
        break;
      case AtomType::kInt64:
        w->SetInt64(col, v.is_f64() ? static_cast<int64_t>(v.f64()) : v.i64());
        break;
      case AtomType::kFloat64:
        w->SetFloat64(col, v.AsDouble());
        break;
      case AtomType::kString:
        w->SetString(col, v.str());
        break;
    }
  }
  return Status::OK();
}

bool MapOp::Next(Tuple* out) {
  Tuple t;
  if (!child(0)->Next(&t)) return ChildEnd(child(0));
  RowWriter w(scratch_->mutable_row(0), &scratch_->schema());
  Status st = WriteOutput(t[row_item_].row(), &w);
  if (!st.ok()) return Fail(std::move(st));
  out->clear();
  out->push_back(Item(scratch_->row(0)));
  return true;
}

bool MapOp::NextBatch(RowBatch* out) {
  if (row_item_ != 0) return SubOperator::NextBatch(out);
  out->Clear();
  while (child(0)->NextBatchSelective(&in_batch_)) {
    if (in_batch_.empty()) continue;
    Status st = TransformBatch(in_batch_);
    if (!st.ok()) return Fail(std::move(st));
    out->Borrow(out_rows_);
    return true;
  }
  return ChildEnd(child(0));
}

Status MapOp::TransformBatch(const RowBatch& in) {
  const size_t n = in.size();
  const uint32_t* sel = in.SelectionOrIdentity(&identity_sel_);
  if (in.has_selection()) {
    // Inherited selections cross an operator boundary: defend the
    // strictly-ascending contract before any contiguity fast path runs.
    MODULARIS_RETURN_NOT_OK(ValidateSelection("Map", sel, n));
  }
  if (bc_progs_.size() != outputs_.size()) {
    bc_progs_.resize(outputs_.size());
    int64_t fallbacks = 0;
    for (size_t c = 0; c < outputs_.size(); ++c) {
      if (outputs_[c].passthrough_col >= 0) continue;
      bc_progs_[c] = BcProgram::CompileValue(outputs_[c].expr, in.schema());
      fallbacks += static_cast<int64_t>(bc_progs_[c].fallback_count());
    }
    if (fallbacks > 0) AddStatCounter("expr.bc_fallback.value", fallbacks);
  }
  if (out_rows_ == nullptr) {
    out_rows_ = RowVector::Make(out_schema_);
  } else {
    out_rows_->Clear();
  }
  // Zero-filled rows, so string padding matches the row path's AppendRow.
  out_rows_->ResizeRows(n);
  uint8_t* obase = out_rows_->mutable_data();
  const uint32_t ostride = out_rows_->row_size();
  const Schema& in_schema = in.schema();
  const uint32_t istride = in.row_size();
  const uint8_t* ibase = in.data();
  RowSpan span{ibase, istride, &in_schema};
  for (size_t c = 0; c < outputs_.size(); ++c) {
    const MapOutput& spec = outputs_[c];
    const int col = static_cast<int>(c);
    const uint32_t ooff = out_schema_.offset(c);
    if (spec.passthrough_col >= 0) {
      const uint32_t ioff = in_schema.offset(spec.passthrough_col);
      switch (in_schema.field(spec.passthrough_col).type) {
        case AtomType::kInt32:
        case AtomType::kDate:
          for (size_t i = 0; i < n; ++i) {
            std::memcpy(obase + i * ostride + ooff,
                        ibase + static_cast<size_t>(sel[i]) * istride + ioff,
                        sizeof(int32_t));
          }
          break;
        case AtomType::kInt64:
        case AtomType::kFloat64:
          for (size_t i = 0; i < n; ++i) {
            std::memcpy(obase + i * ostride + ooff,
                        ibase + static_cast<size_t>(sel[i]) * istride + ioff,
                        sizeof(int64_t));
          }
          break;
        case AtomType::kString:
          // Re-encode through Get/Set so width clamping and padding match
          // the row path even when in/out widths differ.
          for (size_t i = 0; i < n; ++i) {
            RowWriter w(obase + i * ostride, &out_schema_);
            w.SetString(col, span.row(sel[i]).GetString(spec.passthrough_col));
          }
          break;
      }
      continue;
    }
    MODULARIS_RETURN_NOT_OK(
        bc_progs_[c].RunValue(span, sel, n, &bc_col_, &bc_state_));
    MODULARIS_RETURN_NOT_OK(
        StoreColumn(bc_col_, col, ooff, obase, ostride, n));
  }
  return Status::OK();
}

/// Stores a batch-evaluated column into packed output rows, replicating
/// WriteOutput's per-kind conversions exactly.
Status MapOp::StoreColumn(const BatchColumn& v, int col, uint32_t ooff,
                          uint8_t* obase, uint32_t ostride, size_t n) {
  const AtomType out_type = out_schema_.field(col).type;
  auto type_error = [&] {
    return Status::InvalidArgument(
        "Map: computed column " + std::to_string(col) +
        " produced a value incompatible with " + AtomTypeName(out_type));
  };
  switch (out_type) {
    case AtomType::kInt32:
    case AtomType::kDate:
      if (v.tag == BatchTag::kI64) {
        for (size_t i = 0; i < n; ++i) {
          int32_t x = static_cast<int32_t>(v.i64[i]);
          std::memcpy(obase + i * ostride + ooff, &x, sizeof(x));
        }
      } else if (v.tag == BatchTag::kItem) {
        for (size_t i = 0; i < n; ++i) {
          if (!v.items[i].is_i64()) return type_error();
          int32_t x = static_cast<int32_t>(v.items[i].i64());
          std::memcpy(obase + i * ostride + ooff, &x, sizeof(x));
        }
      } else {
        return type_error();
      }
      break;
    case AtomType::kInt64:
      if (v.tag == BatchTag::kI64) {
        for (size_t i = 0; i < n; ++i) {
          std::memcpy(obase + i * ostride + ooff, &v.i64[i], sizeof(int64_t));
        }
      } else if (v.tag == BatchTag::kF64) {
        for (size_t i = 0; i < n; ++i) {
          int64_t x = static_cast<int64_t>(v.f64[i]);
          std::memcpy(obase + i * ostride + ooff, &x, sizeof(x));
        }
      } else if (v.tag == BatchTag::kItem) {
        for (size_t i = 0; i < n; ++i) {
          const Item& item = v.items[i];
          int64_t x;
          if (item.is_f64()) {
            x = static_cast<int64_t>(item.f64());
          } else if (item.is_i64()) {
            x = item.i64();
          } else {
            return type_error();
          }
          std::memcpy(obase + i * ostride + ooff, &x, sizeof(x));
        }
      } else {
        return type_error();
      }
      break;
    case AtomType::kFloat64:
      if (v.tag == BatchTag::kF64) {
        for (size_t i = 0; i < n; ++i) {
          std::memcpy(obase + i * ostride + ooff, &v.f64[i], sizeof(double));
        }
      } else if (v.tag == BatchTag::kI64) {
        for (size_t i = 0; i < n; ++i) {
          double x = static_cast<double>(v.i64[i]);
          std::memcpy(obase + i * ostride + ooff, &x, sizeof(x));
        }
      } else if (v.tag == BatchTag::kItem) {
        for (size_t i = 0; i < n; ++i) {
          const Item& item = v.items[i];
          if (!item.is_i64() && !item.is_f64()) return type_error();
          double x = item.AsDouble();
          std::memcpy(obase + i * ostride + ooff, &x, sizeof(x));
        }
      } else {
        return type_error();
      }
      break;
    case AtomType::kString:
      if (v.tag == BatchTag::kStr) {
        for (size_t i = 0; i < n; ++i) {
          RowWriter w(obase + i * ostride, &out_schema_);
          w.SetString(col, v.str[i]);
        }
      } else if (v.tag == BatchTag::kItem) {
        for (size_t i = 0; i < n; ++i) {
          if (!v.items[i].is_str()) return type_error();
          RowWriter w(obase + i * ostride, &out_schema_);
          w.SetString(col, v.items[i].str());
        }
      } else {
        return type_error();
      }
      break;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ParametrizedMap
// ---------------------------------------------------------------------------

Status ParametrizedMap::Open(ExecContext* ctx) {
  MODULARIS_RETURN_NOT_OK(SubOperator::Open(ctx));
  scratch_ = RowVector::Make(out_schema_);
  scratch_->AppendRow();
  bulk_.reset();
  bulk_pos_ = 0;
  Tuple t;
  if (!child(0)->Next(&t)) {
    if (!child(0)->status().ok()) return child(0)->status();
    return Status::InvalidArgument(
        "ParametrizedMap: parameter upstream yielded no tuple");
  }
  param_arena_.clear();
  param_ = OwnTuple(t, &param_arena_);
  return Status::OK();
}

bool ParametrizedMap::Next(Tuple* out) {
  while (true) {
    RowRef in;
    if (bulk_ != nullptr && bulk_pos_ < bulk_->size()) {
      in = bulk_->row(bulk_pos_++);
    } else {
      Tuple t;
      if (!child(1)->Next(&t)) return ChildEnd(child(1));
      if (bulk_fn_ != nullptr && t[0].is_collection()) {
        // Fused: transform the whole collection in one pass.
        out->clear();
        out->push_back(Item(bulk_fn_(param_, *t[0].collection())));
        return true;
      }
      if (t[0].is_collection()) {
        bulk_ = t[0].collection();
        bulk_pos_ = 0;
        continue;
      }
      if (!t[0].is_row()) {
        return Fail(Status::InvalidArgument(
            "ParametrizedMap expects rows or collections, got " +
            t[0].ToString()));
      }
      in = t[0].row();
    }
    if (fn_ == nullptr) {
      return Fail(Status::InvalidArgument(
          "ParametrizedMap: bulk-only form received a record stream"));
    }
    RowWriter w(scratch_->mutable_row(0), &scratch_->schema());
    fn_(param_, in, &w);
    out->clear();
    out->push_back(Item(scratch_->row(0)));
    return true;
  }
}

bool ParametrizedMap::NextBatch(RowBatch* out) {
  // Bulk-only form: the default adapter forwards the bulk_fn_ collection
  // outputs of Next() zero-copy.
  if (fn_ == nullptr) return SubOperator::NextBatch(out);
  out->Clear();
  auto transform = [this](const uint8_t* base, size_t n,
                          const Schema& schema) {
    if (out_rows_ == nullptr) {
      out_rows_ = RowVector::Make(out_schema_);
    } else {
      out_rows_->Clear();
    }
    out_rows_->Reserve(n);
    const uint32_t stride = schema.row_size();
    for (size_t i = 0; i < n; ++i, base += stride) {
      RowWriter w = out_rows_->AppendRow();
      fn_(param_, RowRef(base, &schema), &w);
    }
  };
  // Flush rows of a collection partially consumed through Next().
  if (bulk_ != nullptr && bulk_pos_ < bulk_->size()) {
    transform(bulk_->data() + bulk_pos_ * bulk_->row_size(),
              bulk_->size() - bulk_pos_, bulk_->schema());
    bulk_pos_ = bulk_->size();
    out->Borrow(out_rows_);
    return true;
  }
  while (child(1)->NextBatch(&in_batch_)) {
    if (in_batch_.empty()) continue;
    transform(in_batch_.data(), in_batch_.size(), in_batch_.schema());
    out->Borrow(out_rows_);
    return true;
  }
  return ChildEnd(child(1));
}

SubOpPtr ParametrizedMap::CloneForWorker(WorkerCloneContext* cc) const {
  if (!clone_safe_) return nullptr;  // callables not declared thread-safe
  SubOpPtr param_clone = child(0)->CloneForWorker(cc);
  SubOpPtr data_clone =
      param_clone == nullptr ? nullptr : child(1)->CloneForWorker(cc);
  if (data_clone == nullptr) return nullptr;
  std::unique_ptr<ParametrizedMap> clone;
  if (fn_ != nullptr) {
    clone = std::make_unique<ParametrizedMap>(
        std::move(param_clone), std::move(data_clone), out_schema_, fn_);
  } else {
    clone = std::make_unique<ParametrizedMap>(
        std::move(param_clone), std::move(data_clone), out_schema_, bulk_fn_);
  }
  clone->MarkCloneSafe();
  return clone;
}

// ---------------------------------------------------------------------------
// CartesianProduct
// ---------------------------------------------------------------------------

Status CartesianProduct::Open(ExecContext* ctx) {
  MODULARIS_RETURN_NOT_OK(SubOperator::Open(ctx));
  left_.clear();
  arena_.clear();
  right_valid_ = false;
  left_pos_ = 0;
  Tuple t;
  while (child(0)->Next(&t)) {
    left_.push_back(OwnTuple(t, &arena_));
  }
  return child(0)->status();
}

bool CartesianProduct::Next(Tuple* out) {
  while (true) {
    if (right_valid_ && left_pos_ < left_.size()) {
      *out = left_[left_pos_++];
      out->Append(right_current_);
      return true;
    }
    if (!child(1)->Next(&right_current_)) {
      right_valid_ = false;
      return ChildEnd(child(1));
    }
    right_valid_ = true;
    left_pos_ = 0;
  }
}

}  // namespace modularis
