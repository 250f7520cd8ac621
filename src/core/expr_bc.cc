#include "core/expr_bc.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>

#include "core/types.h"

/// \file expr_bc.cc
/// The bytecode VM, compiler plumbing, optimizer passes, and the fused
/// group-key serialize+hash kernel. The semantic ground truth for every
/// kernel here is the row-at-a-time Expr::EvalChecked / EvalBoolChecked
/// oracle in expr.cc: each opcode applies that oracle's per-value rules
/// (three-way compares, NaN ordering, division by zero, checked
/// predicates) column-wise, and the differential harness in
/// tests/test_expr_batch.cc enforces byte-equality with it.

#if defined(__clang__)
#define MODULARIS_BC_SIMD \
  _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define MODULARIS_BC_SIMD _Pragma("GCC ivdep")
#else
#define MODULARIS_BC_SIMD
#endif

namespace modularis {

namespace {

/// Three-way comparison verdict per operator — identical to the row
/// path's CompareExpr::Holds.
inline bool CmpHoldsThreeWay(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

/// remaining -= removed, returning false unless `removed` is an
/// ascending subset of `remaining`: the merge cursor reaches
/// removed.size() iff it is, so a child that hands back an unsorted or
/// foreign selection fails loudly instead of corrupting the result.
[[nodiscard]] bool SubtractSortedSel(SelVector* remaining,
                                     const SelVector& removed) {
  size_t k = 0, j = 0;
  for (size_t i = 0; i < remaining->size(); ++i) {
    if (j < removed.size() && removed[j] == (*remaining)[i]) {
      ++j;
      continue;
    }
    (*remaining)[k++] = (*remaining)[i];
  }
  remaining->resize(k);
  return j == removed.size();
}

/// Branchless compress of `sel` by a per-lane predicate. `pred(i)` must
/// be 0/1; selectivity costs no branch mispredicts.
template <typename Pred>
inline void CompressSel(SelVector* sel, Pred pred) {
  uint32_t* sp = sel->data();
  const size_t n = sel->size();
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    sp[k] = sp[i];
    k += pred(i);
  }
  sel->resize(k);
}

/// i64 comparison filters: plain operators (total order).
template <typename Lhs, typename Rhs>
inline void FilterCmpI64Loop(CmpOp op, SelVector* sel, Lhs x, Rhs y) {
  switch (op) {
    case CmpOp::kEq:
      CompressSel(sel, [&](size_t i) { return size_t(x(i) == y(i)); });
      break;
    case CmpOp::kNe:
      CompressSel(sel, [&](size_t i) { return size_t(x(i) != y(i)); });
      break;
    case CmpOp::kLt:
      CompressSel(sel, [&](size_t i) { return size_t(x(i) < y(i)); });
      break;
    case CmpOp::kLe:
      CompressSel(sel, [&](size_t i) { return size_t(x(i) <= y(i)); });
      break;
    case CmpOp::kGt:
      CompressSel(sel, [&](size_t i) { return size_t(x(i) > y(i)); });
      break;
    case CmpOp::kGe:
      CompressSel(sel, [&](size_t i) { return size_t(x(i) >= y(i)); });
      break;
  }
}

/// f64 comparison filters: kGt/kGe as negations so a NaN operand still
/// orders as "greater", exactly like the row path's three-way compare.
template <typename Lhs, typename Rhs>
inline void FilterCmpF64Loop(CmpOp op, SelVector* sel, Lhs x, Rhs y) {
  switch (op) {
    case CmpOp::kEq:
      CompressSel(sel, [&](size_t i) { return size_t(x(i) == y(i)); });
      break;
    case CmpOp::kNe:
      CompressSel(sel, [&](size_t i) { return size_t(x(i) != y(i)); });
      break;
    case CmpOp::kLt:
      CompressSel(sel, [&](size_t i) { return size_t(x(i) < y(i)); });
      break;
    case CmpOp::kLe:
      CompressSel(sel, [&](size_t i) { return size_t(x(i) <= y(i)); });
      break;
    case CmpOp::kGt:
      CompressSel(sel, [&](size_t i) { return size_t(!(x(i) <= y(i))); });
      break;
    case CmpOp::kGe:
      CompressSel(sel, [&](size_t i) { return size_t(!(x(i) < y(i))); });
      break;
  }
}

/// Per-lane f64 predicate for the fused range kernels (same NaN forms).
inline bool CmpHoldsF64(CmpOp op, double x, double y) {
  switch (op) {
    case CmpOp::kEq: return x == y;
    case CmpOp::kNe: return x != y;
    case CmpOp::kLt: return x < y;
    case CmpOp::kLe: return x <= y;
    case CmpOp::kGt: return !(x <= y);
    case CmpOp::kGe: return !(x < y);
  }
  return false;
}

inline bool CmpHoldsI64(CmpOp op, int64_t x, int64_t y) {
  switch (op) {
    case CmpOp::kEq: return x == y;
    case CmpOp::kNe: return x != y;
    case CmpOp::kLt: return x < y;
    case CmpOp::kLe: return x <= y;
    case CmpOp::kGt: return x > y;
    case CmpOp::kGe: return x >= y;
  }
  return false;
}

uint64_t NextProgramSerial() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// ---------------------------------------------------------------------------
// BcCompiler
// ---------------------------------------------------------------------------

BcCompiler::BcCompiler(BcProgram* prog, const Schema& schema)
    : prog_(prog), schema_(&schema) {}

int BcCompiler::NewReg(BatchTag tag) {
  reg_tags_.push_back(tag);
  prog_->num_regs_ = static_cast<uint16_t>(reg_tags_.size());
  return static_cast<int>(reg_tags_.size()) - 1;
}

int BcCompiler::NewSel() {
  int s = prog_->num_sels_;
  prog_->num_sels_ = static_cast<uint16_t>(s + 1);
  return s;
}

size_t BcCompiler::EmitJumpIfEmpty(int sel) {
  BcInst j;
  j.op = BcOp::kJumpIfEmpty;
  j.s = static_cast<uint16_t>(sel);
  j.imm = 0;  // patched by PatchJump
  size_t pc = NextPc();
  Emit(j);
  return pc;
}

int BcCompiler::ConstI64(int64_t v) {
  auto it = i64_regs_.find(v);
  if (it != i64_regs_.end()) return it->second;
  int r = NewReg(BatchTag::kI64);
  BcInst in;
  in.op = BcOp::kConstI64;
  in.dst = static_cast<uint16_t>(r);
  in.imm = static_cast<uint32_t>(prog_->const_i64_.size());
  prog_->const_i64_.push_back(v);
  Emit(in);
  i64_regs_.emplace(v, r);
  return r;
}

int BcCompiler::ConstF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  auto it = f64_regs_.find(bits);
  if (it != f64_regs_.end()) return it->second;
  int r = NewReg(BatchTag::kF64);
  BcInst in;
  in.op = BcOp::kConstF64;
  in.dst = static_cast<uint16_t>(r);
  in.imm = static_cast<uint32_t>(prog_->const_f64_.size());
  prog_->const_f64_.push_back(v);
  Emit(in);
  f64_regs_.emplace(bits, r);
  return r;
}

int BcCompiler::ConstStr(std::string_view v) {
  auto it = str_regs_.find(v);
  if (it != str_regs_.end()) return it->second;
  int r = NewReg(BatchTag::kStr);
  BcInst in;
  in.op = BcOp::kConstStr;
  in.dst = static_cast<uint16_t>(r);
  in.imm = AddPattern(v);
  Emit(in);
  str_regs_.emplace(std::string(v), r);
  return r;
}

uint32_t BcCompiler::AddPattern(std::string_view pattern) {
  prog_->const_str_.emplace_back(pattern);
  return static_cast<uint32_t>(prog_->const_str_.size() - 1);
}

uint32_t BcCompiler::AddStrSet(std::vector<std::string> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  prog_->str_sets_.push_back(std::move(values));
  return static_cast<uint32_t>(prog_->str_sets_.size() - 1);
}

uint32_t BcCompiler::AddIntSet(std::vector<int64_t> values) {
  prog_->int_sets_.push_back(std::move(values));
  return static_cast<uint32_t>(prog_->int_sets_.size() - 1);
}

uint32_t BcCompiler::InternNode(const Expr& e) {
  prog_->nodes_.push_back(&e);
  return static_cast<uint32_t>(prog_->nodes_.size() - 1);
}

bool BcCompiler::TryConstEval(const Expr& e, Item* out) const {
  std::vector<int> cols;
  e.CollectColumns(&cols);
  if (!cols.empty()) return false;
  // Column-free: one checked evaluation against a null row decides the
  // constant. Checked, so a subtree that would error at runtime (a
  // string-valued IF condition) is NOT folded past its error.
  RowRef row(nullptr, schema_);
  Item v;
  if (!e.EvalChecked(row, &v).ok()) return false;
  switch (v.kind()) {
    case Item::Kind::kInt64:
    case Item::Kind::kFloat64:
    case Item::Kind::kString:
      *out = std::move(v);
      return true;
    default:
      return false;
  }
}

int BcCompiler::CompileValue(const Expr& e, int sel) {
  // Emit-time constant folding: whole column-free subtrees collapse to
  // one pooled constant, with evaluation semantics (division by zero
  // folds to the same 0.0 the evaluator produces — never a compile
  // error).
  Item c;
  if (TryConstEval(e, &c)) {
    ++prog_->stats_.folded;
    switch (c.kind()) {
      case Item::Kind::kInt64: return ConstI64(c.i64());
      case Item::Kind::kFloat64: return ConstF64(c.f64());
      case Item::Kind::kString: return ConstStr(c.str());
      default: break;  // unreachable: TryConstEval only returns atoms
    }
  }
  int r = e.BcEmitValue(*this, sel);
  if (r >= 0) return r;
  return EmitEvalFallback(e, sel);
}

void BcCompiler::CompileFilter(const Expr& e, int sel) {
  // Constant predicate: statically keep-all / drop-all / raise, with the
  // same checked semantics as EvalBoolChecked.
  Item c;
  if (TryConstEval(e, &c)) {
    ++prog_->stats_.folded;
    if (c.is_i64() || c.is_f64()) {
      const bool truthy = c.is_i64() ? c.i64() != 0 : c.f64() != 0;
      if (!truthy) {
        BcInst in;
        in.op = BcOp::kFilterClear;
        in.s = static_cast<uint16_t>(sel);
        Emit(in);
      }
      return;  // truthy constant filters nothing: emit nothing
    }
    EmitFilterRaise(e, sel);
    return;
  }
  if (e.BcEmitFilter(*this, sel)) return;
  // Generic derivation from the value form: evaluate, then narrow by
  // non-zero / raise on a statically string-typed predicate / per-lane
  // fallback on kItem.
  switch (e.BatchType(*schema_)) {
    case BatchTag::kI64: {
      int r = CompileValue(e, sel);
      BcInst in;
      in.op = BcOp::kFilterNzI64;
      in.a = static_cast<uint16_t>(r);
      in.s = static_cast<uint16_t>(sel);
      Emit(in);
      break;
    }
    case BatchTag::kF64: {
      int r = CompileValue(e, sel);
      BcInst in;
      in.op = BcOp::kFilterNzF64;
      in.a = static_cast<uint16_t>(r);
      in.s = static_cast<uint16_t>(sel);
      Emit(in);
      break;
    }
    case BatchTag::kStr:
      // The value still runs first (nested conditions inside it keep
      // their error precedence), then every surviving lane is an error.
      CompileValue(e, sel);
      EmitFilterRaise(e, sel);
      break;
    case BatchTag::kItem:
      EmitFilterFallback(e, sel);
      break;
  }
}

int BcCompiler::EmitPredicateValue(const Expr& e, int sel) {
  // Value form of a predicate: narrow a copy of the selection, then
  // mark each lane 1 if it survived the filtered copy, else 0.
  int tmp = NewSel();
  BcInst cp;
  cp.op = BcOp::kSelCopy;
  cp.s = static_cast<uint16_t>(tmp);
  cp.s2 = static_cast<uint16_t>(sel);
  Emit(cp);
  CompileFilter(e, tmp);
  int r = NewReg(BatchTag::kI64);
  BcInst mk;
  mk.op = BcOp::kMarkSel;
  mk.dst = static_cast<uint16_t>(r);
  mk.s = static_cast<uint16_t>(sel);
  mk.s2 = static_cast<uint16_t>(tmp);
  Emit(mk);
  return r;
}

int BcCompiler::EmitEvalFallback(const Expr& e, int sel) {
  ++prog_->stats_.value_fallbacks;
  int r = NewReg(BatchTag::kItem);
  BcInst in;
  in.op = BcOp::kEvalFallback;
  in.dst = static_cast<uint16_t>(r);
  in.s = static_cast<uint16_t>(sel);
  in.imm = InternNode(e);
  Emit(in);
  return r;
}

void BcCompiler::EmitFilterFallback(const Expr& e, int sel) {
  ++prog_->stats_.filter_fallbacks;
  BcInst in;
  in.op = BcOp::kFilterFallback;
  in.s = static_cast<uint16_t>(sel);
  in.imm = InternNode(e);
  Emit(in);
}

void BcCompiler::EmitFilterRaise(const Expr& e, int sel) {
  BcInst in;
  in.op = BcOp::kFilterRaise;
  in.s = static_cast<uint16_t>(sel);
  in.imm = InternNode(e);
  Emit(in);
}

int BcCompiler::CastToF64(int reg, int sel) {
  if (RegTag(reg) == BatchTag::kF64) return reg;
  int r = NewReg(BatchTag::kF64);
  BcInst in;
  in.op = BcOp::kCastF64;
  in.dst = static_cast<uint16_t>(r);
  in.a = static_cast<uint16_t>(reg);
  in.s = static_cast<uint16_t>(sel);
  Emit(in);
  return r;
}

// ---------------------------------------------------------------------------
// Program compilation entry points
// ---------------------------------------------------------------------------

namespace {

/// Moves every kConst* instruction into a prologue before pc 0's
/// successors, remapping jump targets onto the new pc space.
///
/// Constant registers are pooled: two syntactically equal literals share
/// one register, so the single defining kConst* of a register used in one
/// branch region may have been emitted inside a different region that a
/// short-circuit jump skips at runtime, leaving the register unwritten at
/// its use site. Constants splat from pools and depend on nothing, so
/// executing them all up front — before any jump — makes every use site
/// safe. This also lets the strength-reduction pass alias x*0 to the
/// zero-constant register without caring where that constant was emitted.
void HoistConstants(std::vector<BcInst>* insts_p) {
  std::vector<BcInst>& insts = *insts_p;
  const size_t n = insts.size();
  std::vector<BcInst> consts;
  std::vector<BcInst> rest;
  // Non-const instruction count strictly before each old pc; a jump to a
  // hoisted constant lands on the first non-const at or after it, which
  // is correct because the constant already ran in the prologue.
  std::vector<uint32_t> nonconst_before(n + 1, 0);
  uint32_t nc = 0;
  for (size_t j = 0; j < n; ++j) {
    nonconst_before[j] = nc;
    const BcOp op = insts[j].op;
    if (op == BcOp::kConstI64 || op == BcOp::kConstF64 ||
        op == BcOp::kConstStr) {
      consts.push_back(insts[j]);
    } else {
      rest.push_back(insts[j]);
      ++nc;
    }
  }
  nonconst_before[n] = nc;
  if (consts.empty()) return;
  const uint32_t num_consts = static_cast<uint32_t>(consts.size());
  for (BcInst& in : rest) {
    if (in.op == BcOp::kJumpIfEmpty) {
      in.imm = num_consts + nonconst_before[in.imm];
    }
  }
  consts.insert(consts.end(), rest.begin(), rest.end());
  insts = std::move(consts);
}

}  // namespace

BcProgram BcProgram::CompileFilter(ExprPtr pred, const Schema& schema,
                                   bool optimize) {
  BcProgram prog;
  prog.root_ = pred;
  prog.is_filter_ = true;
  prog.serial_ = NextProgramSerial();
  BcCompiler c(&prog, schema);
  c.CompileFilter(*pred, /*sel=*/0);
  HoistConstants(&prog.insts_);
  if (optimize) OptimizeProgram(&prog);
  return prog;
}

BcProgram BcProgram::CompileValue(ExprPtr expr, const Schema& schema,
                                  bool optimize) {
  BcProgram prog;
  prog.root_ = expr;
  prog.is_filter_ = false;
  prog.serial_ = NextProgramSerial();
  BcCompiler c(&prog, schema);
  prog.root_reg_ = c.CompileValue(*expr, /*sel=*/0);
  prog.value_tag_ = c.RegTag(prog.root_reg_);
  HoistConstants(&prog.insts_);
  if (optimize) OptimizeProgram(&prog);
  return prog;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void BcProgram::BindState(BcState* state) const {
  if (state->program_serial_ == serial_) return;
  state->program_serial_ = serial_;
  if (state->regs_.size() < num_regs_) state->regs_.resize(num_regs_);
  if (state->sels_.size() < num_sels_) state->sels_.resize(num_sels_);
  state->const_fill_.assign(num_regs_, 0);
}

Status BcProgram::Run(const RowSpan& rows, BcState* state) const {
  std::vector<BatchColumn>& regs = state->regs_;
  std::vector<SelVector>& sels = state->sels_;
  // Constant registers splat to the entry lane count: every selection a
  // downstream instruction runs under is a subset of the entry
  // selection, so entry_n lanes always suffice.
  const size_t entry_n = sels[0].size();
  const size_t npc = insts_.size();
  size_t pc = 0;
  while (pc < npc) {
    const BcInst& I = insts_[pc];
    switch (I.op) {
      case BcOp::kNop:
        break;

      case BcOp::kLoadI32: {
        const SelVector& sv = sels[I.s];
        const size_t n = sv.size();
        BatchColumn& r = regs[I.dst];
        r.Reset(BatchTag::kI64, n);
        const uint32_t stride = rows.stride;
        if (n > 0 && static_cast<size_t>(sv[n - 1] - sv[0]) == n - 1) {
          const uint8_t* base = rows.row_ptr(sv[0]) + I.imm;
          MODULARIS_BC_SIMD
          for (size_t i = 0; i < n; ++i) {
            int32_t v;
            std::memcpy(&v, base + i * stride, sizeof(v));
            r.i64[i] = v;
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            int32_t v;
            std::memcpy(&v, rows.row_ptr(sv[i]) + I.imm, sizeof(v));
            r.i64[i] = v;
          }
        }
        break;
      }
      case BcOp::kLoadI64: {
        const SelVector& sv = sels[I.s];
        const size_t n = sv.size();
        BatchColumn& r = regs[I.dst];
        r.Reset(BatchTag::kI64, n);
        const uint32_t stride = rows.stride;
        if (n > 0 && static_cast<size_t>(sv[n - 1] - sv[0]) == n - 1) {
          const uint8_t* base = rows.row_ptr(sv[0]) + I.imm;
          MODULARIS_BC_SIMD
          for (size_t i = 0; i < n; ++i) {
            std::memcpy(&r.i64[i], base + i * stride, sizeof(int64_t));
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            std::memcpy(&r.i64[i], rows.row_ptr(sv[i]) + I.imm,
                        sizeof(int64_t));
          }
        }
        break;
      }
      case BcOp::kLoadF64: {
        const SelVector& sv = sels[I.s];
        const size_t n = sv.size();
        BatchColumn& r = regs[I.dst];
        r.Reset(BatchTag::kF64, n);
        const uint32_t stride = rows.stride;
        if (n > 0 && static_cast<size_t>(sv[n - 1] - sv[0]) == n - 1) {
          const uint8_t* base = rows.row_ptr(sv[0]) + I.imm;
          MODULARIS_BC_SIMD
          for (size_t i = 0; i < n; ++i) {
            std::memcpy(&r.f64[i], base + i * stride, sizeof(double));
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            std::memcpy(&r.f64[i], rows.row_ptr(sv[i]) + I.imm,
                        sizeof(double));
          }
        }
        break;
      }
      case BcOp::kLoadStr: {
        const SelVector& sv = sels[I.s];
        const size_t n = sv.size();
        BatchColumn& r = regs[I.dst];
        r.Reset(BatchTag::kStr, n);
        for (size_t i = 0; i < n; ++i) {
          const uint8_t* p = rows.row_ptr(sv[i]) + I.imm;
          uint16_t len;
          std::memcpy(&len, p, sizeof(len));
          r.str[i] =
              std::string_view(reinterpret_cast<const char*>(p + 2), len);
        }
        break;
      }

      case BcOp::kConstI64: {
        BatchColumn& r = regs[I.dst];
        if (r.tag != BatchTag::kI64 || state->const_fill_[I.dst] < entry_n) {
          r.Reset(BatchTag::kI64, entry_n);
          std::fill(r.i64.begin(), r.i64.end(), const_i64_[I.imm]);
          state->const_fill_[I.dst] = entry_n;
        }
        break;
      }
      case BcOp::kConstF64: {
        BatchColumn& r = regs[I.dst];
        if (r.tag != BatchTag::kF64 || state->const_fill_[I.dst] < entry_n) {
          r.Reset(BatchTag::kF64, entry_n);
          std::fill(r.f64.begin(), r.f64.end(), const_f64_[I.imm]);
          state->const_fill_[I.dst] = entry_n;
        }
        break;
      }
      case BcOp::kConstStr: {
        BatchColumn& r = regs[I.dst];
        if (r.tag != BatchTag::kStr || state->const_fill_[I.dst] < entry_n) {
          r.Reset(BatchTag::kStr, entry_n);
          std::fill(r.str.begin(), r.str.end(),
                    std::string_view(const_str_[I.imm]));
          state->const_fill_[I.dst] = entry_n;
        }
        break;
      }

      case BcOp::kCastF64: {
        const size_t n = sels[I.s].size();
        BatchColumn& r = regs[I.dst];
        const BatchColumn& a = regs[I.a];
        r.Reset(BatchTag::kF64, n);
        MODULARIS_BC_SIMD
        for (size_t i = 0; i < n; ++i) {
          r.f64[i] = static_cast<double>(a.i64[i]);
        }
        break;
      }

      case BcOp::kAddI64:
      case BcOp::kSubI64:
      case BcOp::kMulI64: {
        const size_t n = sels[I.s].size();
        BatchColumn& r = regs[I.dst];
        const int64_t* x = regs[I.a].i64.data();
        const int64_t* y = regs[I.b].i64.data();
        r.Reset(BatchTag::kI64, n);
        int64_t* o = r.i64.data();
        if (I.op == BcOp::kAddI64) {
          MODULARIS_BC_SIMD
          for (size_t i = 0; i < n; ++i) o[i] = x[i] + y[i];
        } else if (I.op == BcOp::kSubI64) {
          MODULARIS_BC_SIMD
          for (size_t i = 0; i < n; ++i) o[i] = x[i] - y[i];
        } else {
          MODULARIS_BC_SIMD
          for (size_t i = 0; i < n; ++i) o[i] = x[i] * y[i];
        }
        break;
      }
      case BcOp::kAddF64:
      case BcOp::kSubF64:
      case BcOp::kMulF64:
      case BcOp::kDivF64: {
        const size_t n = sels[I.s].size();
        BatchColumn& r = regs[I.dst];
        const double* x = regs[I.a].f64.data();
        const double* y = regs[I.b].f64.data();
        r.Reset(BatchTag::kF64, n);
        double* o = r.f64.data();
        switch (I.op) {
          case BcOp::kAddF64:
            MODULARIS_BC_SIMD
            for (size_t i = 0; i < n; ++i) o[i] = x[i] + y[i];
            break;
          case BcOp::kSubF64:
            MODULARIS_BC_SIMD
            for (size_t i = 0; i < n; ++i) o[i] = x[i] - y[i];
            break;
          case BcOp::kMulF64:
            MODULARIS_BC_SIMD
            for (size_t i = 0; i < n; ++i) o[i] = x[i] * y[i];
            break;
          default:  // kDivF64 — the engine's div-by-zero → 0.0 rule
            for (size_t i = 0; i < n; ++i) {
              o[i] = y[i] == 0 ? 0.0 : x[i] / y[i];
            }
            break;
        }
        break;
      }

      case BcOp::kMarkSel: {
        const SelVector& outer = sels[I.s];
        const SelVector& passed = sels[I.s2];
        const size_t n = outer.size();
        BatchColumn& r = regs[I.dst];
        r.Reset(BatchTag::kI64, n);
        size_t j = 0;
        for (size_t i = 0; i < n; ++i) {
          const bool hit = j < passed.size() && passed[j] == outer[i];
          r.i64[i] = hit ? 1 : 0;
          if (hit) ++j;
        }
        break;
      }

      case BcOp::kMergeI64:
      case BcOp::kMergeF64:
      case BcOp::kMergeStr: {
        const SelVector& outer = sels[I.s];
        const SelVector& passed = sels[I.s2];
        const size_t n = outer.size();
        BatchColumn& r = regs[I.dst];
        const BatchColumn& t = regs[I.a];
        const BatchColumn& e = regs[I.b];
        size_t jp = 0, jf = 0;
        if (I.op == BcOp::kMergeI64) {
          r.Reset(BatchTag::kI64, n);
          for (size_t i = 0; i < n; ++i) {
            const bool hit = jp < passed.size() && passed[jp] == outer[i];
            r.i64[i] = hit ? t.i64[jp] : e.i64[jf];
            if (hit) {
              ++jp;
            } else {
              ++jf;
            }
          }
        } else if (I.op == BcOp::kMergeF64) {
          r.Reset(BatchTag::kF64, n);
          for (size_t i = 0; i < n; ++i) {
            const bool hit = jp < passed.size() && passed[jp] == outer[i];
            r.f64[i] = hit ? t.f64[jp] : e.f64[jf];
            if (hit) {
              ++jp;
            } else {
              ++jf;
            }
          }
        } else {
          r.Reset(BatchTag::kStr, n);
          for (size_t i = 0; i < n; ++i) {
            const bool hit = jp < passed.size() && passed[jp] == outer[i];
            r.str[i] = hit ? t.str[jp] : e.str[jf];
            if (hit) {
              ++jp;
            } else {
              ++jf;
            }
          }
        }
        break;
      }

      case BcOp::kFilterCmpI64: {
        const int64_t* x = regs[I.a].i64.data();
        const int64_t* y = regs[I.b].i64.data();
        FilterCmpI64Loop(
            I.cmp, &sels[I.s], [&](size_t i) { return x[i]; },
            [&](size_t i) { return y[i]; });
        break;
      }
      case BcOp::kFilterCmpF64: {
        const double* x = regs[I.a].f64.data();
        const double* y = regs[I.b].f64.data();
        FilterCmpF64Loop(
            I.cmp, &sels[I.s], [&](size_t i) { return x[i]; },
            [&](size_t i) { return y[i]; });
        break;
      }
      case BcOp::kFilterCmpStr: {
        const std::string_view* x = regs[I.a].str.data();
        const std::string_view* y = regs[I.b].str.data();
        const CmpOp op = I.cmp;
        CompressSel(&sels[I.s], [&](size_t i) {
          const int c = x[i].compare(y[i]) < 0 ? -1 : (x[i] == y[i] ? 0 : 1);
          return size_t(CmpHoldsThreeWay(op, c));
        });
        break;
      }

      case BcOp::kFilterNzI64: {
        const int64_t* x = regs[I.a].i64.data();
        CompressSel(&sels[I.s], [&](size_t i) { return size_t(x[i] != 0); });
        break;
      }
      case BcOp::kFilterNzF64: {
        const double* x = regs[I.a].f64.data();
        CompressSel(&sels[I.s], [&](size_t i) { return size_t(x[i] != 0); });
        break;
      }

      case BcOp::kFilterLike: {
        const std::string_view* x = regs[I.a].str.data();
        const std::string_view pattern = const_str_[I.imm];
        CompressSel(&sels[I.s], [&](size_t i) {
          return size_t(LikeMatch(x[i], pattern));
        });
        break;
      }
      case BcOp::kFilterInStr: {
        const std::string_view* x = regs[I.a].str.data();
        const std::vector<std::string>& set = str_sets_[I.imm];
        const auto less = [](const auto& a, const auto& b) {
          return std::string_view(a) < std::string_view(b);
        };
        CompressSel(&sels[I.s], [&](size_t i) {
          return size_t(
              std::binary_search(set.begin(), set.end(), x[i], less));
        });
        break;
      }
      case BcOp::kFilterInI64: {
        const int64_t* x = regs[I.a].i64.data();
        const std::vector<int64_t>& set = int_sets_[I.imm];
        CompressSel(&sels[I.s], [&](size_t i) {
          for (int64_t candidate : set) {
            if (candidate == x[i]) return size_t(1);
          }
          return size_t(0);
        });
        break;
      }

      case BcOp::kFilterClear:
        sels[I.s].clear();
        break;
      case BcOp::kFilterRaise:
        if (!sels[I.s].empty()) {
          return Status::InvalidArgument("predicate " +
                                         nodes_[I.imm]->ToString() +
                                         " evaluated to a non-numeric value");
        }
        break;

      case BcOp::kFilterColCmpI32: {
        const int64_t c = const_i64_[I.b];
        const CmpOp op = I.cmp;
        CompressSel(&sels[I.s], [&](size_t i) {
          int32_t v;
          std::memcpy(&v, rows.row_ptr(sels[I.s][i]) + I.imm, sizeof(v));
          return size_t(CmpHoldsI64(op, v, c));
        });
        break;
      }
      case BcOp::kFilterColCmpI64: {
        const int64_t c = const_i64_[I.b];
        const CmpOp op = I.cmp;
        CompressSel(&sels[I.s], [&](size_t i) {
          int64_t v;
          std::memcpy(&v, rows.row_ptr(sels[I.s][i]) + I.imm, sizeof(v));
          return size_t(CmpHoldsI64(op, v, c));
        });
        break;
      }
      case BcOp::kFilterColCmpF64: {
        const double c = const_f64_[I.b];
        const CmpOp op = I.cmp;
        CompressSel(&sels[I.s], [&](size_t i) {
          double v;
          std::memcpy(&v, rows.row_ptr(sels[I.s][i]) + I.imm, sizeof(v));
          return size_t(CmpHoldsF64(op, v, c));
        });
        break;
      }
      case BcOp::kFilterColRangeI32: {
        const int64_t lo = const_i64_[I.a];
        const int64_t hi = const_i64_[I.b];
        const CmpOp op = I.cmp, op2 = I.cmp2;
        CompressSel(&sels[I.s], [&](size_t i) {
          int32_t v;
          std::memcpy(&v, rows.row_ptr(sels[I.s][i]) + I.imm, sizeof(v));
          return size_t(CmpHoldsI64(op, v, lo) && CmpHoldsI64(op2, v, hi));
        });
        break;
      }
      case BcOp::kFilterColRangeI64: {
        const int64_t lo = const_i64_[I.a];
        const int64_t hi = const_i64_[I.b];
        const CmpOp op = I.cmp, op2 = I.cmp2;
        CompressSel(&sels[I.s], [&](size_t i) {
          int64_t v;
          std::memcpy(&v, rows.row_ptr(sels[I.s][i]) + I.imm, sizeof(v));
          return size_t(CmpHoldsI64(op, v, lo) && CmpHoldsI64(op2, v, hi));
        });
        break;
      }
      case BcOp::kFilterColRangeF64: {
        const double lo = const_f64_[I.a];
        const double hi = const_f64_[I.b];
        const CmpOp op = I.cmp, op2 = I.cmp2;
        CompressSel(&sels[I.s], [&](size_t i) {
          double v;
          std::memcpy(&v, rows.row_ptr(sels[I.s][i]) + I.imm, sizeof(v));
          return size_t(CmpHoldsF64(op, v, lo) && CmpHoldsF64(op2, v, hi));
        });
        break;
      }

      case BcOp::kSelCopy:
        sels[I.s] = sels[I.s2];
        break;
      case BcOp::kSelSub:
        if (!SubtractSortedSel(&sels[I.s], sels[I.s2])) {
          return Status::Internal(
              "bytecode: child selection is not an ascending subset of its "
              "input");
        }
        break;
      case BcOp::kSelAppend:
        sels[I.s].insert(sels[I.s].end(), sels[I.s2].begin(),
                         sels[I.s2].end());
        break;
      case BcOp::kSelSort:
        std::sort(sels[I.s].begin(), sels[I.s].end());
        break;

      case BcOp::kJumpIfEmpty:
        if (sels[I.s].empty()) {
          pc = I.imm;
          continue;
        }
        break;

      case BcOp::kEvalFallback: {
        const SelVector& sv = sels[I.s];
        BatchColumn& r = regs[I.dst];
        r.Reset(BatchTag::kItem, sv.size());
        for (size_t i = 0; i < sv.size(); ++i) {
          MODULARIS_RETURN_NOT_OK(
              nodes_[I.imm]->EvalChecked(rows.row(sv[i]), &r.items[i]));
        }
        break;
      }
      case BcOp::kFilterFallback: {
        // The row path's per-lane EvalBoolChecked, so the first failing
        // lane reports the same error. Narrowing in place is safe: lane
        // k <= i is written only after lane i is read.
        const Expr& e = *nodes_[I.imm];
        SelVector& sv = sels[I.s];
        size_t k = 0;
        for (size_t i = 0; i < sv.size(); ++i) {
          bool keep = false;
          MODULARIS_RETURN_NOT_OK(e.EvalBoolChecked(rows.row(sv[i]), &keep));
          if (keep) sv[k++] = sv[i];
        }
        sv.resize(k);
        break;
      }
    }
    ++pc;
  }
  return Status::OK();
}

Status BcProgram::RunFilter(const RowSpan& rows, SelVector* sel,
                            BcState* state) const {
  MODULARIS_RETURN_NOT_OK(
      ValidateSelection("BcProgram::RunFilter", sel->data(), sel->size()));
  BindState(state);
  state->sels_[0].swap(*sel);
  Status st = Run(rows, state);
  state->sels_[0].swap(*sel);
  return st;
}

Status BcProgram::RunValue(const RowSpan& rows, const uint32_t* sel, size_t n,
                           BatchColumn* out, BcState* state) const {
  MODULARIS_RETURN_NOT_OK(ValidateSelection("BcProgram::RunValue", sel, n));
  BindState(state);
  state->sels_[0].assign(sel, sel + n);
  MODULARIS_RETURN_NOT_OK(Run(rows, state));
  const BatchColumn& r = state->regs_[root_reg_];
  // The root register may be a constant splat sized to a previous
  // batch's larger lane count — copy exactly n lanes out.
  out->Reset(value_tag_, n);
  switch (value_tag_) {
    case BatchTag::kI64:
      std::copy(r.i64.begin(), r.i64.begin() + n, out->i64.begin());
      break;
    case BatchTag::kF64:
      std::copy(r.f64.begin(), r.f64.begin() + n, out->f64.begin());
      break;
    case BatchTag::kStr:
      std::copy(r.str.begin(), r.str.begin() + n, out->str.begin());
      break;
    case BatchTag::kItem:
      std::copy(r.items.begin(), r.items.begin() + n, out->items.begin());
      break;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

namespace {

/// Whether the instruction writes a value register.
bool WritesValueReg(BcOp op) {
  switch (op) {
    case BcOp::kLoadI32:
    case BcOp::kLoadI64:
    case BcOp::kLoadF64:
    case BcOp::kLoadStr:
    case BcOp::kConstI64:
    case BcOp::kConstF64:
    case BcOp::kConstStr:
    case BcOp::kCastF64:
    case BcOp::kAddI64:
    case BcOp::kSubI64:
    case BcOp::kMulI64:
    case BcOp::kAddF64:
    case BcOp::kSubF64:
    case BcOp::kMulF64:
    case BcOp::kDivF64:
    case BcOp::kMarkSel:
    case BcOp::kMergeI64:
    case BcOp::kMergeF64:
    case BcOp::kMergeStr:
    case BcOp::kEvalFallback:
      return true;
    default:
      return false;
  }
}

/// Whether a value-writing instruction is removable when its dst is
/// unread. kEvalFallback is excluded: its per-lane evaluation can
/// surface a checked-semantics error, which is observable.
bool IsRemovable(BcOp op) {
  return WritesValueReg(op) && op != BcOp::kEvalFallback;
}

/// Value registers read by the instruction, appended to `ops`. The
/// fused kFilterCol* forms read none: their a/b fields index constant
/// pools, not registers.
void ReadValueRegs(const BcInst& inst, std::vector<uint16_t>* ops) {
  switch (inst.op) {
    case BcOp::kCastF64:
    case BcOp::kFilterNzI64:
    case BcOp::kFilterNzF64:
    case BcOp::kFilterLike:
    case BcOp::kFilterInStr:
    case BcOp::kFilterInI64:
      ops->push_back(inst.a);
      break;
    case BcOp::kAddI64:
    case BcOp::kSubI64:
    case BcOp::kMulI64:
    case BcOp::kAddF64:
    case BcOp::kSubF64:
    case BcOp::kMulF64:
    case BcOp::kDivF64:
    case BcOp::kMergeI64:
    case BcOp::kMergeF64:
    case BcOp::kMergeStr:
    case BcOp::kFilterCmpI64:
    case BcOp::kFilterCmpF64:
    case BcOp::kFilterCmpStr:
      ops->push_back(inst.a);
      ops->push_back(inst.b);
      break;
    default:
      break;
  }
}

/// Rewrites every value-register operand of `inst` through `alias`
/// (chains already collapsed by the caller).
void RewriteValueRegs(BcInst* inst, const std::vector<uint16_t>& alias) {
  switch (inst->op) {
    case BcOp::kCastF64:
    case BcOp::kFilterNzI64:
    case BcOp::kFilterNzF64:
    case BcOp::kFilterLike:
    case BcOp::kFilterInStr:
    case BcOp::kFilterInI64:
      inst->a = alias[inst->a];
      break;
    case BcOp::kAddI64:
    case BcOp::kSubI64:
    case BcOp::kMulI64:
    case BcOp::kAddF64:
    case BcOp::kSubF64:
    case BcOp::kMulF64:
    case BcOp::kDivF64:
    case BcOp::kMergeI64:
    case BcOp::kMergeF64:
    case BcOp::kMergeStr:
    case BcOp::kFilterCmpI64:
    case BcOp::kFilterCmpF64:
    case BcOp::kFilterCmpStr:
      inst->a = alias[inst->a];
      inst->b = alias[inst->b];
      break;
    default:
      break;
  }
}

/// Mirrored operator for `const OP col` rewritten as `col OP' const`.
CmpOp MirrorCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

}  // namespace

void OptimizeProgram(BcProgram* prog) {
  std::vector<BcInst>& insts = prog->insts_;
  const size_t num_regs = prog->num_regs_;

  // Map constant registers to their defining op and pool index. Each
  // const register has exactly one defining kConst* instruction.
  std::vector<BcOp> const_op(num_regs, BcOp::kNop);
  std::vector<uint32_t> const_idx(num_regs, 0);
  for (const BcInst& in : insts) {
    if (in.op == BcOp::kConstI64 || in.op == BcOp::kConstF64 ||
        in.op == BcOp::kConstStr) {
      const_op[in.dst] = in.op;
      const_idx[in.dst] = in.imm;
    }
  }
  auto i64_const = [&](uint16_t r, int64_t* v) {
    if (const_op[r] != BcOp::kConstI64) return false;
    *v = prog->const_i64_[const_idx[r]];
    return true;
  };

  // -- Strength reduction (i64 only; f64 identities are not bit-exact) ----
  // x+0, x-0, x*1 collapse to register aliases; x*0 aliases to the zero
  // constant register (a valid splat). Registers are SSA, so aliasing
  // is a pure rename.
  std::vector<uint16_t> alias(num_regs);
  for (size_t r = 0; r < num_regs; ++r) alias[r] = static_cast<uint16_t>(r);
  bool any_alias = false;
  for (BcInst& in : insts) {
    RewriteValueRegs(&in, alias);  // apply earlier renames first
    int64_t cv = 0;
    int keep = -1;
    if (in.op == BcOp::kAddI64) {
      if (i64_const(in.a, &cv) && cv == 0) keep = in.b;
      if (i64_const(in.b, &cv) && cv == 0) keep = in.a;
    } else if (in.op == BcOp::kSubI64) {
      if (i64_const(in.b, &cv) && cv == 0) keep = in.a;
    } else if (in.op == BcOp::kMulI64) {
      if (i64_const(in.a, &cv)) {
        if (cv == 1) keep = in.b;
        if (cv == 0) keep = in.a;  // alias to the zero-splat const reg
      }
      if (keep < 0 && i64_const(in.b, &cv)) {
        if (cv == 1) keep = in.a;
        if (cv == 0) keep = in.b;
      }
    }
    if (keep >= 0) {
      alias[in.dst] = static_cast<uint16_t>(keep);
      in = BcInst{};  // kNop
      any_alias = true;
    }
  }
  if (any_alias && prog->root_reg_ >= 0) {
    prog->root_reg_ = alias[prog->root_reg_];
  }

  // Value-register use counts (after renaming), for the fusion pass's
  // single-use requirement and the DCE liveness seed.
  std::vector<uint32_t> uses(num_regs, 0);
  {
    std::vector<uint16_t> ops;
    for (const BcInst& in : insts) {
      ops.clear();
      ReadValueRegs(in, &ops);
      for (uint16_t r : ops) ++uses[r];
    }
  }

  // -- Comparison fusion --------------------------------------------------
  // [kLoad dst=r][kFilterCmp a=r b=const] with r used once collapses to
  // a single fused column-vs-constant filter: no materialized register,
  // one pass over the selection. The load is the instruction straight
  // before the compare, modulo kNop and kConst* (pooled constants may
  // or may not emit between them).
  auto prev_real = [&](size_t pc) -> int {
    for (size_t j = pc; j-- > 0;) {
      const BcOp op = insts[j].op;
      if (op == BcOp::kNop || op == BcOp::kConstI64 ||
          op == BcOp::kConstF64 || op == BcOp::kConstStr) {
        continue;
      }
      return static_cast<int>(j);
    }
    return -1;
  };
  for (size_t pc = 0; pc < insts.size(); ++pc) {
    BcInst& cmp = insts[pc];
    if (cmp.op != BcOp::kFilterCmpI64 && cmp.op != BcOp::kFilterCmpF64) {
      continue;
    }
    const int lp = prev_real(pc);
    if (lp < 0) continue;
    BcInst& load = insts[lp];
    const bool i64_cmp = cmp.op == BcOp::kFilterCmpI64;
    const bool load_ok =
        i64_cmp ? (load.op == BcOp::kLoadI64 || load.op == BcOp::kLoadI32)
                : load.op == BcOp::kLoadF64;
    if (!load_ok || load.s != cmp.s) continue;
    const BcOp want_const = i64_cmp ? BcOp::kConstI64 : BcOp::kConstF64;
    uint16_t col_reg, const_reg;
    CmpOp op = cmp.cmp;
    if (load.dst == cmp.a && const_op[cmp.b] == want_const) {
      col_reg = cmp.a;
      const_reg = cmp.b;
    } else if (load.dst == cmp.b && const_op[cmp.a] == want_const &&
               i64_cmp) {
      // const OP col ⇒ col OP' const. i64 only: the f64 kGt/kGe NaN
      // forms are not symmetric under operand swap.
      col_reg = cmp.b;
      const_reg = cmp.a;
      op = MirrorCmp(op);
    } else {
      continue;
    }
    if (uses[col_reg] != 1) continue;
    BcInst fused;
    fused.op = load.op == BcOp::kLoadI32   ? BcOp::kFilterColCmpI32
               : load.op == BcOp::kLoadI64 ? BcOp::kFilterColCmpI64
                                           : BcOp::kFilterColCmpF64;
    fused.cmp = op;
    fused.b = static_cast<uint16_t>(const_idx[const_reg]);
    fused.s = cmp.s;
    fused.imm = load.imm;
    load = BcInst{};  // kNop
    cmp = fused;
    ++prog->stats_.fused;
  }

  // -- Range fusion -------------------------------------------------------
  // Two adjacent fused filters on the same column and selection (the
  // BETWEEN / date-window shape, possibly separated by the AND's
  // short-circuit jump) collapse into one two-sided pass. Dropping the
  // jump is safe: every kernel no-ops on an empty selection.
  for (size_t pc = 0; pc < insts.size(); ++pc) {
    BcInst& first = insts[pc];
    if (first.op != BcOp::kFilterColCmpI32 &&
        first.op != BcOp::kFilterColCmpI64 &&
        first.op != BcOp::kFilterColCmpF64) {
      continue;
    }
    size_t j = pc + 1;
    int jump_pc = -1;
    while (j < insts.size() && (insts[j].op == BcOp::kNop ||
                                (insts[j].op == BcOp::kJumpIfEmpty &&
                                 insts[j].s == first.s && jump_pc < 0))) {
      if (insts[j].op == BcOp::kJumpIfEmpty) jump_pc = static_cast<int>(j);
      ++j;
    }
    if (j >= insts.size()) continue;
    BcInst& second = insts[j];
    if (second.op != first.op || second.s != first.s ||
        second.imm != first.imm) {
      continue;
    }
    first.op = first.op == BcOp::kFilterColCmpI32   ? BcOp::kFilterColRangeI32
               : first.op == BcOp::kFilterColCmpI64 ? BcOp::kFilterColRangeI64
                                                    : BcOp::kFilterColRangeF64;
    first.a = first.b;       // lo bound pool index
    first.b = second.b;      // hi bound pool index
    first.cmp2 = second.cmp;
    second = BcInst{};  // kNop
    if (jump_pc >= 0) insts[jump_pc] = BcInst{};
    ++prog->stats_.fused;
  }

  // -- Dead code elimination ----------------------------------------------
  // Backward liveness over value registers; pure producers with dead
  // destinations become kNop. Instructions run forward, so a backward
  // sweep that marks operands live only for live consumers is exact.
  {
    std::vector<char> live(num_regs, 0);
    if (prog->root_reg_ >= 0) live[prog->root_reg_] = 1;
    std::vector<uint16_t> ops;
    for (size_t j = insts.size(); j-- > 0;) {
      BcInst& in = insts[j];
      if (IsRemovable(in.op) && !live[in.dst]) {
        in = BcInst{};  // kNop
        continue;
      }
      ops.clear();
      ReadValueRegs(in, &ops);
      for (uint16_t r : ops) live[r] = 1;
    }
  }

  // -- Compaction ---------------------------------------------------------
  // Strip kNop and remap jump targets onto the compacted pc space.
  std::vector<uint32_t> new_pc(insts.size() + 1, 0);
  std::vector<BcInst> out;
  out.reserve(insts.size());
  for (size_t j = 0; j < insts.size(); ++j) {
    new_pc[j] = static_cast<uint32_t>(out.size());
    if (insts[j].op != BcOp::kNop) out.push_back(insts[j]);
  }
  new_pc[insts.size()] = static_cast<uint32_t>(out.size());
  for (BcInst& in : out) {
    if (in.op == BcOp::kJumpIfEmpty) in.imm = new_pc[in.imm];
  }
  insts = std::move(out);
}

// ---------------------------------------------------------------------------
// Disassembler
// ---------------------------------------------------------------------------

std::string BcProgram::Disassemble() const {
  static const char* kOpNames[] = {
      "nop",          "load_i32",     "load_i64",      "load_f64",
      "load_str",     "const_i64",    "const_f64",     "const_str",
      "cast_f64",     "add_i64",      "sub_i64",       "mul_i64",
      "add_f64",      "sub_f64",      "mul_f64",       "div_f64",
      "mark_sel",     "merge_i64",    "merge_f64",     "merge_str",
      "fcmp_i64",     "fcmp_f64",     "fcmp_str",      "fnz_i64",
      "fnz_f64",      "flike",        "fin_str",       "fin_i64",
      "fclear",       "fraise",       "fcol_cmp_i32",  "fcol_cmp_i64",
      "fcol_cmp_f64", "fcol_rng_i32", "fcol_rng_i64",  "fcol_rng_f64",
      "sel_copy",     "sel_sub",      "sel_append",    "sel_sort",
      "jmp_empty",    "eval_fb",      "filter_fb",
  };
  static const char* kCmpNames[] = {"==", "!=", "<", "<=", ">", ">="};
  std::string out;
  for (size_t pc = 0; pc < insts_.size(); ++pc) {
    const BcInst& in = insts_[pc];
    out += std::to_string(pc) + ": ";
    out += kOpNames[static_cast<size_t>(in.op)];
    out += " dst=" + std::to_string(in.dst) + " a=" + std::to_string(in.a) +
           " b=" + std::to_string(in.b) + " s=" + std::to_string(in.s) +
           " s2=" + std::to_string(in.s2) + " imm=" + std::to_string(in.imm) +
           " cmp=" + kCmpNames[static_cast<size_t>(in.cmp)] + "/" +
           kCmpNames[static_cast<size_t>(in.cmp2)] + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// KeyProgram: fused group-key serialize+hash
// ---------------------------------------------------------------------------

KeyProgram::KeyProgram(const Schema& schema, const std::vector<int>& key_cols) {
  const KeyCodec codec(schema, key_cols);
  key_size_ = codec.key_size();
  parts_.reserve(codec.parts().size());
  for (const auto& p : codec.parts()) {
    parts_.push_back(Part{p.src_offset, p.dst_offset, p.bytes});
  }
  single_word_ = parts_.size() == 1 && parts_[0].bytes == 8;
}

void KeyProgram::SerializeAndHash(const RowSpan& rows, size_t begin, size_t n,
                                  uint8_t* keys_out,
                                  uint64_t* hashes_out) const {
  const size_t stride = rows.stride;
  if (single_word_) {
    // The dominant single-i64/f64-key shape: serialize and hash in one
    // load→store→mix loop, the key word never leaves registers.
    const uint8_t* src = rows.data + begin * stride + parts_[0].src_offset;
    for (size_t i = 0; i < n; ++i) {
      uint64_t w;
      std::memcpy(&w, src + i * stride, sizeof(w));
      std::memcpy(keys_out + i * 8, &w, sizeof(w));
      hashes_out[i] = MixKeyHash64(w);
    }
    return;
  }
  // General shape: serialize a cache-resident block column-wise (the
  // KeyCodec loops), then hash it while the key bytes are still L1-hot —
  // the fusion is across passes, per block, rather than per row.
  const size_t ks = key_size_;
  constexpr size_t kBlockRows = 256;
  for (size_t b0 = 0; b0 < n; b0 += kBlockRows) {
    const size_t m = std::min(kBlockRows, n - b0);
    uint8_t* out = keys_out + b0 * ks;
    for (const Part& part : parts_) {
      const uint8_t* src =
          rows.data + (begin + b0) * stride + part.src_offset;
      uint8_t* dst = out + part.dst_offset;
      switch (part.bytes) {
        case 4:
          for (size_t i = 0; i < m; ++i) {
            std::memcpy(dst + i * ks, src + i * stride, 4);
          }
          break;
        case 8:
          for (size_t i = 0; i < m; ++i) {
            std::memcpy(dst + i * ks, src + i * stride, 8);
          }
          break;
        default:
          for (size_t i = 0; i < m; ++i) {
            std::memcpy(dst + i * ks, src + i * stride, part.bytes);
          }
      }
    }
    uint64_t* h = hashes_out + b0;
    if (ks == 8) {
      // Matches the HashKeysSpan key_size==8 fast path (no seed).
      for (size_t i = 0; i < m; ++i) {
        uint64_t w;
        std::memcpy(&w, out + i * 8, sizeof(w));
        h[i] = MixKeyHash64(w);
      }
    } else if (ks == 16) {
      // Two-word unroll of HashKeyBytes: seed, mix word 0, mix word 1.
      for (size_t i = 0; i < m; ++i) {
        const uint8_t* key = out + i * 16;
        uint64_t w0, w1;
        std::memcpy(&w0, key, sizeof(w0));
        std::memcpy(&w1, key + 8, sizeof(w1));
        h[i] = MixKeyHash64(MixKeyHash64((0x9e3779b97f4a7c15ull ^ 16) ^ w0) ^
                            w1);
      }
    } else {
      for (size_t i = 0; i < m; ++i) {
        h[i] = HashKeyBytes(out + i * ks, static_cast<uint32_t>(ks));
      }
    }
  }
}

}  // namespace modularis
