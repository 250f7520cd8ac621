#ifndef MODULARIS_CORE_EXPR_BC_H_
#define MODULARIS_CORE_EXPR_BC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/expr.h"

/// \file expr_bc.h
/// Bytecode compilation tier for expression trees and group-key codecs
/// (docs/DESIGN-expr-bytecode.md). Expr trees compile into a flat,
/// register-based IR executed by a batch-oriented dispatch loop: one
/// opcode switch per *vector* of rows, not per row, so the hot kernels
/// are straight-line loops over typed registers. Predicates narrow
/// selection registers (SelVectors) in place; anything the compiler
/// cannot type statically runs the row oracle Expr::EvalChecked once per
/// selected lane (counted, never wrong).
/// Programs are immutable after compile and hold no execution state, so
/// — like the trees they were compiled from — they are shareable across
/// workers; all mutable state lives in the per-worker BcState.

namespace modularis {

/// Bytecode opcodes. Value ops fill value registers over the lanes of a
/// selection register; filter ops narrow a selection register in place;
/// sel ops implement the AND/OR/NOT/IF selection algebra; kJumpIfEmpty
/// provides the short-circuit jumps. The kFilterCol* forms are produced
/// by the optimizer's comparison fusion: they read the column directly
/// from the packed rows and narrow in a single pass, no materialized
/// value register at all.
enum class BcOp : uint8_t {
  kNop = 0,
  // Column loads: dst[i] = rows[sel[i]] field at byte offset imm.
  kLoadI32,  // sign-extended to i64 (covers i32 and date columns)
  kLoadI64,
  kLoadF64,
  kLoadStr,  // u16 length + payload → borrowed string_view
  // Constant splats from the program pools: dst[i] = pool[imm].
  kConstI64,
  kConstF64,
  kConstStr,
  // Arithmetic over the lanes of sel register s.
  kCastF64,  // dst = (double)a
  kAddI64,
  kSubI64,
  kMulI64,
  kAddF64,
  kSubF64,
  kMulF64,
  kDivF64,  // y == 0 ? 0.0 : x / y — the engine's division semantics
  // dst.i64[i] = 1 iff sels[s][i] survived into sels[s2] (predicate as
  // a value: membership marks over a filtered copy of the outer selection).
  kMarkSel,
  // IF merge: dst over the lanes of sels[s], pulling from a (then) for
  // lanes present in sels[s2] and from b (else) otherwise, positionally.
  kMergeI64,
  kMergeF64,
  kMergeStr,
  // Filters: narrow sels[s] in place.
  kFilterCmpI64,  // keep lanes where cmp(a[i], b[i])
  kFilterCmpF64,
  kFilterCmpStr,
  kFilterNzI64,  // keep lanes where a[i] != 0
  kFilterNzF64,
  kFilterLike,   // keep lanes where a[i] LIKE str_pool[imm]
  kFilterInStr,  // keep lanes where a[i] ∈ str_sets[imm]
  kFilterInI64,  // keep lanes where a[i] ∈ int_sets[imm]
  kFilterClear,  // statically false predicate: clear sels[s]
  kFilterRaise,  // statically non-numeric predicate: error if lanes remain
  // Fused column-vs-constant filters (optimizer output): load from row
  // byte offset imm, compare against const pool entry b, one pass.
  kFilterColCmpI32,
  kFilterColCmpI64,
  kFilterColCmpF64,
  // Fused two-sided range (the BETWEEN shape): cmp(v, pool[a]) AND
  // cmp2(v, pool[b]) against column at byte offset imm, one pass.
  kFilterColRangeI32,
  kFilterColRangeI64,
  kFilterColRangeF64,
  // Selection algebra.
  kSelCopy,    // sels[s] = sels[s2]
  kSelSub,     // sels[s] -= sels[s2] (must be ascending subset)
  kSelAppend,  // sels[s] += sels[s2]
  kSelSort,    // sort sels[s] ascending
  // Control: if sels[s] is empty, jump to pc = imm.
  kJumpIfEmpty,
  // Per-lane row-oracle fallbacks for statically untyped (kItem) nodes.
  kEvalFallback,    // dst.items[i] = nodes[imm]->EvalChecked(lane i of s)
  kFilterFallback,  // narrow sels[s] by nodes[imm]->EvalChecked != 0
};

/// One instruction. `dst`/`a`/`b` index value registers (for the fused
/// kFilterCol* forms `a`/`b` index the typed constant pools instead);
/// `s`/`s2` index selection registers; `imm` is a column byte offset, a
/// pool index, a fallback-node index, or a jump target depending on op.
struct BcInst {
  BcOp op = BcOp::kNop;
  CmpOp cmp = CmpOp::kEq;
  CmpOp cmp2 = CmpOp::kEq;  // hi-bound operator of the fused ranges
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t s = 0;
  uint16_t s2 = 0;
  uint32_t imm = 0;
};

class BcProgram;

/// Per-worker execution state of bytecode programs: the value and
/// selection register files. Owned by the executing operator — never by
/// the program, which stays immutable and shareable. Registers keep their
/// capacity across batches; constant registers refill only when the lane
/// count grows beyond what a prior batch already splatted.
class BcState {
 private:
  friend class BcProgram;
  std::vector<BatchColumn> regs_;
  std::vector<SelVector> sels_;
  std::vector<size_t> const_fill_;  // lanes already splatted per const reg
  uint64_t program_serial_ = 0;     // which program the caches belong to
};

/// A compiled, immutable bytecode program. Two entry points: RunFilter
/// (predicate programs — narrows the caller's SelVector in place) and
/// RunValue (value programs — fills a BatchColumn for the given lanes).
/// Both validate the incoming selection against the strictly-ascending
/// SelVector contract: the bytecode tier is the checked tier.
class BcProgram {
 public:
  /// Compile-time metadata, for stats counters and tests.
  struct CompileStats {
    size_t value_fallbacks = 0;   // kEvalFallback instructions emitted
    size_t filter_fallbacks = 0;  // kFilterFallback instructions emitted
    size_t fused = 0;             // kFilterCol* produced by the optimizer
    size_t folded = 0;            // subtrees folded to constants
  };

  BcProgram() = default;

  /// Compiles `pred` into a predicate program over rows of `schema`.
  /// `optimize` disables the IR optimizer for differential tests.
  static BcProgram CompileFilter(ExprPtr pred, const Schema& schema,
                                 bool optimize = true);
  /// Compiles `expr` into a value program over rows of `schema`.
  static BcProgram CompileValue(ExprPtr expr, const Schema& schema,
                                bool optimize = true);

  /// Narrows `*sel` to the rows of `rows` satisfying the compiled
  /// predicate: exactly the rows for which pred->EvalBoolChecked holds,
  /// or an error where that oracle errors.
  Status RunFilter(const RowSpan& rows, SelVector* sel, BcState* state) const;

  /// Evaluates the compiled expression for the `n` rows sel[0..n) into
  /// `*out`: lane i equals expr->EvalChecked on row sel[i].
  Status RunValue(const RowSpan& rows, const uint32_t* sel, size_t n,
                  BatchColumn* out, BcState* state) const;

  bool valid() const { return root_ != nullptr; }
  /// Static tag of a value program's result (= root->BatchType(schema)).
  BatchTag value_tag() const { return value_tag_; }
  const CompileStats& stats() const { return stats_; }
  size_t fallback_count() const {
    return stats_.value_fallbacks + stats_.filter_fallbacks;
  }
  size_t num_instructions() const { return insts_.size(); }
  /// Human-readable listing, for tests and docs.
  std::string Disassemble() const;

 private:
  friend class BcCompiler;
  friend void OptimizeProgram(BcProgram* prog);

  Status Run(const RowSpan& rows, BcState* state) const;
  void BindState(BcState* state) const;

  std::vector<BcInst> insts_;
  uint16_t num_regs_ = 0;
  uint16_t num_sels_ = 1;  // sel register 0 is the caller's selection
  int root_reg_ = -1;      // value programs: register holding the result
  BatchTag value_tag_ = BatchTag::kItem;
  bool is_filter_ = false;

  // Constant pools and per-lane fallback nodes. `root_` keeps every
  // node in `nodes_` alive (they are subtrees of it).
  std::vector<int64_t> const_i64_;
  std::vector<double> const_f64_;
  std::vector<std::string> const_str_;
  std::vector<std::vector<std::string>> str_sets_;  // sorted for lookup
  std::vector<std::vector<int64_t>> int_sets_;
  std::vector<const Expr*> nodes_;
  ExprPtr root_;

  uint64_t serial_ = 0;  // distinguishes programs sharing one BcState
  CompileStats stats_;
};

/// Compilation context handed to Expr::BcEmitValue/BcEmitFilter. Nodes
/// append instructions through it; it owns register allocation, constant
/// pooling, whole-subtree constant folding (TryConstEval), and the
/// fallback escape hatches. See docs/DESIGN-expr-bytecode.md for the
/// emission contract per node kind.
class BcCompiler {
 public:
  BcCompiler(BcProgram* prog, const Schema& schema);

  const Schema& schema() const { return *schema_; }

  // -- Registers ------------------------------------------------------------
  int NewReg(BatchTag tag);
  int NewSel();
  BatchTag RegTag(int r) const { return reg_tags_[static_cast<size_t>(r)]; }

  // -- Emission -------------------------------------------------------------
  void Emit(const BcInst& inst) { prog_->insts_.push_back(inst); }
  size_t NextPc() const { return prog_->insts_.size(); }
  /// Emits kJumpIfEmpty on `sel` with a placeholder target; PatchJump
  /// later points it at the then-current NextPc().
  size_t EmitJumpIfEmpty(int sel);
  void PatchJump(size_t pc) {
    prog_->insts_[pc].imm = static_cast<uint32_t>(NextPc());
  }

  // -- Constants (pooled; const registers are dedicated and cached) ---------
  int ConstI64(int64_t v);
  int ConstF64(double v);
  int ConstStr(std::string_view v);
  uint32_t AddPattern(std::string_view pattern);  // const_str_ index
  uint32_t AddStrSet(std::vector<std::string> values);
  uint32_t AddIntSet(std::vector<int64_t> values);

  // -- Recursion (always succeeds; worst case emits a fallback) -------------
  /// Compiles `e` as a value over the lanes of `sel`; returns the result
  /// register. Folds column-free subtrees to constants first (checked
  /// evaluation, so a subtree that would error at runtime is not folded
  /// past its error).
  int CompileValue(const Expr& e, int sel);
  /// Compiles `e` as a predicate narrowing sel register `sel`.
  void CompileFilter(const Expr& e, int sel);

  /// Predicate in value position: filter a copy of `sel`, then mark
  /// membership (dst.i64[i] ∈ {0,1}).
  int EmitPredicateValue(const Expr& e, int sel);

  /// Per-lane EvalChecked fallbacks (counted in CompileStats). The value
  /// form always yields a kItem register.
  int EmitEvalFallback(const Expr& e, int sel);
  void EmitFilterFallback(const Expr& e, int sel);
  /// Statically non-numeric predicate: hard error if any lane survives
  /// to this point (checked EvalBool semantics).
  void EmitFilterRaise(const Expr& e, int sel);

  /// i64→f64 convenience; returns `reg` unchanged if already kF64.
  int CastToF64(int reg, int sel);

  /// Evaluates a column-free subtree once, with checked semantics.
  /// Returns false if the subtree references columns, errors, or yields
  /// a non-atom result.
  bool TryConstEval(const Expr& e, Item* out) const;

 private:
  friend class BcProgram;
  uint32_t InternNode(const Expr& e);

  BcProgram* prog_;
  const Schema* schema_;
  std::vector<BatchTag> reg_tags_;
  std::map<int64_t, int> i64_regs_;
  std::map<uint64_t, int> f64_regs_;  // keyed by bit pattern
  std::map<std::string, int, std::less<>> str_regs_;
};

/// Optimizes a compiled program in place: comparison fusion (load+const
/// +compare → kFilterColCmp*, adjacent one-sided bounds on the same
/// column → kFilterColRange*), i64 strength reduction (x+0, x-0, x*1,
/// x*0 — f64 is left untouched for bit-exactness), and dead-code
/// elimination of unread value registers. Constant folding and
/// dead-branch elimination happen earlier, at emission. Never changes
/// observable results: byte-equal output is the invariant every pass
/// must keep.
void OptimizeProgram(BcProgram* prog);

/// Compiled fused serialize+hash kernel for group keys: the
/// KeyCodec::SerializeKeys + HashKeysSpan pair collapsed into one
/// block-wise pass, so key bytes are hashed while still L1-resident and
/// the common single-i64/f64-key shape becomes a single load→store→mix
/// loop. Byte-identical output to the interpreted pair by construction
/// (same Part layout, same HashKeyBytes mix); stateless and const, so
/// worker-safe exactly like KeyCodec.
class KeyProgram {
 public:
  KeyProgram() = default;
  KeyProgram(const Schema& schema, const std::vector<int>& key_cols);

  uint32_t key_size() const { return key_size_; }
  bool valid() const { return key_size_ > 0; }

  /// Serializes and hashes the keys of rows [begin, begin + n):
  /// keys_out receives n * key_size() bytes, hashes_out n hashes —
  /// exactly SerializeKeys followed by HashKeysSpan, in one pass.
  void SerializeAndHash(const RowSpan& rows, size_t begin, size_t n,
                        uint8_t* keys_out, uint64_t* hashes_out) const;

 private:
  struct Part {
    uint32_t src_offset = 0;
    uint32_t dst_offset = 0;
    uint32_t bytes = 0;
  };
  std::vector<Part> parts_;
  uint32_t key_size_ = 0;
  bool single_word_ = false;  // one 8-byte part at offset 0: fully fused
};

}  // namespace modularis

#endif  // MODULARIS_CORE_EXPR_BC_H_
