#ifndef MODULARIS_CORE_SUB_OPERATOR_H_
#define MODULARIS_CORE_SUB_OPERATOR_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/exec_context.h"
#include "core/row_batch.h"
#include "core/status.h"
#include "core/tuple.h"

/// \file sub_operator.h
/// The sub-operator interface (paper §3.3): Volcano-style iterators over
/// tuples, extended with the collection-aware type system. Operators form
/// trees inside a pipeline; DAGs are cut into pipelines at multi-consumer
/// edges (see pipeline.h).
///
/// Lifecycle contract:
///  * Open(ctx) prepares the operator and (by default) its children. An
///    operator must support repeated Open/Close cycles: NestedMap re-opens
///    its nested plan once per input tuple.
///  * Next(out) yields the next tuple, returning false at end-of-stream OR
///    on error; callers distinguish the two via status(). Borrowed row
///    items in `out` stay valid only until the next Next()/Close() call.
///  * Close() releases resources; it must be safe to call after an error.

namespace modularis {

class SubOperator;
using SubOpPtr = std::unique_ptr<SubOperator>;

/// State threaded through CloneForWorker() when a chain is cloned for a
/// parallel worker (docs/DESIGN-parallel.md). `plan_remap` maps enclosing
/// PipelinePlans to their worker clones so a cloned PipelineRef re-binds
/// to the clone's results; a ref whose plan is NOT in the map keeps
/// pointing at the original plan — its results are fully materialized and
/// read-only by the time workers run, so concurrent reads are safe.
struct WorkerCloneContext {
  std::map<const SubOperator*, SubOperator*> plan_remap;
};

/// Base class of every sub-operator.
class SubOperator {
 public:
  explicit SubOperator(std::string name)
      : name_(std::move(name)),
        adapter_counter_key_("vectorized.default_adapter." + name_) {}
  virtual ~SubOperator() = default;

  SubOperator(const SubOperator&) = delete;
  SubOperator& operator=(const SubOperator&) = delete;

  const std::string& name() const { return name_; }

  /// Wires `child` as the next upstream of this operator (owned).
  /// Returns `this` to allow chained plan construction.
  SubOperator* AddChild(SubOpPtr child) {
    children_.push_back(std::move(child));
    return this;
  }

  size_t num_children() const { return children_.size(); }
  SubOperator* child(size_t i) const { return children_[i].get(); }
  /// Releases ownership of child `i` (used by fusion rewrites).
  SubOpPtr TakeChild(size_t i) { return std::move(children_[i]); }
  void SetChild(size_t i, SubOpPtr child) { children_[i] = std::move(child); }

  /// Prepares this operator for iteration. Default: opens all children.
  virtual Status Open(ExecContext* ctx) {
    ctx_ = ctx;
    status_ = Status::OK();
    for (auto& c : children_) MODULARIS_RETURN_NOT_OK(c->Open(ctx));
    return Status::OK();
  }

  /// Produces the next tuple into `*out`. Returns false at end-of-stream
  /// or on error (check status()).
  virtual bool Next(Tuple* out) = 0;

  /// Capability hint for batch-aware consumers: true when this
  /// operator's output is a record stream (single-item tuples of
  /// borrowed rows) that is safe to drain through NextBatch(). False is
  /// always safe — it merely routes consumers that must also accept
  /// atom tuples (MaterializeRowVector, pipeline materialization) to the
  /// tuple loop. Call after Open().
  virtual bool ProducesRecordStream() const { return false; }

  /// Vectorized protocol: produces the next batch of packed records into
  /// `*out`, equivalent to a run of Next() calls that would each have
  /// yielded a single-item borrowed-row tuple. Returns false at
  /// end-of-stream or on error (check status()).
  ///
  /// Contract:
  ///  * Only record streams batch. A stream tuple holding a whole
  ///    collection is forwarded as one zero-copy borrowed batch; any
  ///    other tuple shape (atoms, multi-item) is an error — consumers
  ///    of non-record streams must keep using Next().
  ///  * Next() and NextBatch() may be mixed on one stream; NextBatch
  ///    continues from the current position (implementations flush any
  ///    partially consumed unit first).
  ///  * Batch contents stay valid until the next NextBatch()/Next()/
  ///    Close() call on this operator.
  ///
  /// The default adapter loops Next(), so every operator keeps working
  /// unmodified; hot operators override it with loop-over-packed-bytes
  /// implementations.
  virtual bool NextBatch(RowBatch* out) {
    // Adapter-coverage instrumentation: one counter bump per adapter
    // batch, keyed by operator name. The parity suite asserts the named
    // hot operators (ColumnScan, GroupBy, TcpExchange, S3Exchange, ...)
    // never report this counter, i.e. they own a native batch path.
    if (ctx_ != nullptr && ctx_->stats != nullptr) {
      ctx_->stats->AddCounter(adapter_counter_key_, 1);
    }
    return NextBatchFromTuples(out, 0, /*require_arity_one=*/true);
  }

  /// Deep-copies this operator (and its children) into a fresh instance a
  /// parallel worker can Open() and drain independently of the original
  /// (docs/DESIGN-parallel.md: the clone/merge contract). Clones share
  /// only immutable configuration — schemas, ExprPtr trees (shared_ptr to
  /// const), input collections (read-only shared_ptr) — never execution
  /// state. Returns null when this operator cannot run concurrently with
  /// itself (communicators, stateful callables, ...); null propagates up
  /// the chain and the caller falls back to serial execution, recording a
  /// `parallel.serial_fallback.*` counter.
  virtual SubOpPtr CloneForWorker(WorkerCloneContext* cc) const {
    (void)cc;
    return nullptr;
  }

  /// How a consumer pulls its input through PullBatch().
  enum class Pull {
    kBatch,   // NextBatch(): dense packed batches
    kTuples,  // Next() tuples batched by item 0, whatever the mode
  };

  /// The one pull path of every batch consumer, and the only reader of
  /// ExecOptions::enable_vectorized: vectorized, it is NextBatch();
  /// otherwise, and always for Pull::kTuples, it batches this operator's
  /// Next() tuples by item 0 — rows packed, whole collections forwarded
  /// as one zero-copy durable batch, anything else an error. The tuple
  /// form bumps no adapter counter. Consumers keep one drain loop either
  /// way. Call after Open().
  bool PullBatch(RowBatch* out, Pull how = Pull::kBatch) {
    if (how == Pull::kTuples || !ctx_->options.enable_vectorized) {
      return NextBatchFromTuples(out, 0, /*require_arity_one=*/false);
    }
    return NextBatch(out);
  }

  /// Selection-aware pull: like NextBatch(), but the producer may attach
  /// a selection vector to `*out` instead of compacting the surviving
  /// rows (Filter defers compaction this way, so filtered rows are never
  /// copied before a chained Filter, MapOp or NestedMap reads them). Only
  /// consumers that iterate `out->row(i)` / honor `out->selection()` may
  /// call this; bulk-memcpy consumers must keep pulling via NextBatch().
  /// Default: the dense batch path.
  virtual bool NextBatchSelective(RowBatch* out) { return NextBatch(out); }

  /// Releases per-execution resources. Default: closes all children.
  virtual Status Close() {
    Status st = Status::OK();
    for (auto& c : children_) {
      Status cst = c->Close();
      if (st.ok() && !cst.ok()) st = cst;
    }
    return st;
  }

  /// Error state of this operator (OK while streaming / at clean EOS).
  const Status& status() const { return status_; }

  /// Drains this operator into a vector of tuples (testing / driver use).
  Result<std::vector<Tuple>> Drain(ExecContext* ctx) {
    MODULARIS_RETURN_NOT_OK(Open(ctx));
    std::vector<Tuple> rows;
    Tuple t;
    while (Next(&t)) rows.push_back(t);
    if (!status_.ok()) return status_;
    MODULARIS_RETURN_NOT_OK(Close());
    return rows;
  }

 protected:
  /// The tuple-loop batching state machine shared by the default adapter,
  /// PullBatch()'s tuple form and single-item specializations
  /// (Projection): batches item `item_index` of each Next() tuple —
  /// whole collections forwarded as one zero-copy borrowed batch, rows
  /// packed into the scratch buffer in kDefaultRows runs. With
  /// `require_arity_one`, multi-item tuples are an error (the adapter
  /// contract). Rows of another layout than the batch's are an error too.
  bool NextBatchFromTuples(RowBatch* out, int item_index,
                           bool require_arity_one) {
    out->Clear();
    Tuple t;
    RowVector* sink = nullptr;
    const Schema* fits = nullptr;  // last row schema checked against sink
    auto layout_error = [&](const Schema& schema) {
      return Fail(Status::InvalidArgument(
          name_ + ": rows " + schema.ToString() +
          " do not match the batch schema " + sink->schema().ToString()));
    };
    while (Next(&t)) {
      if (require_arity_one && t.size() != 1) {
        return Fail(Status::InvalidArgument(
            name_ + ": cannot batch a tuple of arity " +
            std::to_string(t.size())));
      }
      const Item& item = t[item_index];
      if (item.is_collection()) {
        const RowVector& rows = *item.collection();
        if (rows.empty() && sink == nullptr) continue;
        if (sink == nullptr) {
          out->Borrow(item.collection());
          out->MarkDurable();  // upstream-owned collection, read-only
          return true;
        }
        // Mixed rows-then-collection: fold the collection into the
        // scratch batch and emit the combined run.
        if (!rows.empty() && !rows.schema().SameLayout(sink->schema())) {
          return layout_error(rows.schema());
        }
        sink->AppendAll(rows);
        out->SealScratch();
        return true;
      }
      if (!item.is_row()) {
        return Fail(Status::InvalidArgument(
            name_ + ": cannot batch a " + item.ToString() + " item"));
      }
      const Schema& schema = item.row().schema();
      if (sink == nullptr) {
        sink = out->Scratch(schema);
        fits = &schema;
      } else if (&schema != fits || schema.row_size() != sink->row_size()) {
        if (!schema.SameLayout(sink->schema())) return layout_error(schema);
        fits = &schema;
      }
      sink->AppendRaw(item.row().data());
      if (sink->size() >= RowBatch::kDefaultRows) {
        out->SealScratch();
        return true;
      }
    }
    if (!status_.ok()) return false;
    if (sink != nullptr && !sink->empty()) {
      out->SealScratch();
      return true;
    }
    return false;
  }

  /// Bumps a named counter on the bound stats registry (no-op before
  /// Open()). For per-batch hot-loop counters prefer a key prebuilt at
  /// construction, like adapter_counter_key_; this is for once-per-phase
  /// events (parallel region shapes, fallback reasons, merge fan-ins).
  void AddStatCounter(const std::string& key, int64_t delta) {
    if (ctx_ != nullptr && ctx_->stats != nullptr) {
      ctx_->stats->AddCounter(key, delta);
    }
  }

  /// Marks this operator failed and returns false (for use in Next()).
  bool Fail(Status s) {
    status_ = std::move(s);
    return false;
  }

  /// Checks whether `child` ended with an error and propagates it.
  /// Call after a child's Next() returned false. Returns false always,
  /// so `return ChildEnd(c);` reads naturally in Next().
  bool ChildEnd(SubOperator* child) {
    if (!child->status().ok()) status_ = child->status();
    return false;
  }

  ExecContext* ctx_ = nullptr;
  Status status_;
  std::vector<SubOpPtr> children_;

 private:
  std::string name_;
  std::string adapter_counter_key_;  // prebuilt: hot per-batch counter
};

/// Drains `child`'s record stream through PullBatch() into `*blocks`, in
/// stream order: a durable whole-collection batch is shared as a block of
/// its own, every other batch is copied into owned blocks. Every batch
/// must share the layout of the first block, or of `layout` when the
/// drain starts with no block, else InvalidArgument; otherwise returns
/// the child's status.
inline Status DrainRecordBlocks(
    SubOperator* child, const Schema* layout,
    std::vector<RowVectorPtr>* blocks,
    SubOperator::Pull how = SubOperator::Pull::kBatch) {
  // Owned blocks grow geometrically but are never reallocated: growing
  // one vector by doubling would allocate and copy afresh at every step,
  // which costs more than the stream itself on long row streams. They
  // stay under 64 KiB, below malloc's mmap threshold, so their memory is
  // reused across drains instead of faulted in anew.
  constexpr size_t kMaxBlockBytes = size_t{64} << 10;
  RowBatch batch;
  size_t block_cap = 0;  // rows reserved in blocks->back() if owned, else 0
  size_t total = 0;
  while (child->PullBatch(&batch, how)) {
    if (batch.empty()) continue;
    const Schema& want = !blocks->empty()  ? (*blocks)[0]->schema()
                         : layout != nullptr ? *layout
                                             : batch.schema();
    if (!batch.schema().SameLayout(want)) {
      return Status::InvalidArgument(
          child->name() + ": rows " + batch.schema().ToString() +
          " do not match the stream schema " + want.ToString());
    }
    total += batch.size();
    if (RowVectorPtr shared = batch.ShareWhole()) {
      blocks->push_back(std::move(shared));
      block_cap = 0;
      continue;
    }
    if (blocks->empty() || blocks->back()->size() + batch.size() > block_cap) {
      const size_t max_rows =
          kMaxBlockBytes / std::max<uint32_t>(1, batch.row_size());
      block_cap = std::max(batch.size(), std::min(total, max_rows));
      blocks->push_back(RowVector::Make(batch.schema()));
      blocks->back()->Reserve(block_cap);
    }
    blocks->back()->AppendRawBatch(batch.data(), batch.size());
  }
  return child->status();
}

/// Drains `child`'s record stream into `*dest`, the one materialization
/// step of every blocking consumer: a single durable whole-collection
/// batch is adopted zero-copy, anything else is bulk-copied. A null
/// `*dest` takes the schema of the first non-empty batch (and stays null
/// when the stream is empty); a non-null one must be empty and made with
/// the consumer's schema. Every batch must share the layout of that
/// schema, else InvalidArgument; otherwise returns the child's status.
inline Status DrainRecordStream(
    SubOperator* child, RowVectorPtr* dest,
    SubOperator::Pull how = SubOperator::Pull::kBatch) {
  // Several blocks are concatenated once into a span of exact size.
  std::vector<RowVectorPtr> blocks;
  MODULARIS_RETURN_NOT_OK(DrainRecordBlocks(
      child, *dest != nullptr ? &(*dest)->schema() : nullptr, &blocks, how));
  if (blocks.size() == 1) {
    *dest = std::move(blocks[0]);
  } else if (!blocks.empty()) {
    size_t total = 0;
    for (const RowVectorPtr& block : blocks) total += block->size();
    if (*dest == nullptr) *dest = RowVector::Make(blocks[0]->schema());
    (*dest)->Reserve(total);
    for (const RowVectorPtr& block : blocks) (*dest)->AppendAll(*block);
  }
  return Status::OK();
}

}  // namespace modularis

#endif  // MODULARIS_CORE_SUB_OPERATOR_H_
